"""Mapping of second-quantized fermionic operators to qubit operators.

The general weight-l operator map composes, per operator in the sequence,
a projector onto the correct occupation and a parity-sign operator (both
diagonal), followed by a single update operator that flips the code word.
A ``FermionHamiltonian`` holds its terms as columns, which
``parse_fermion_file`` fills with one compiled pattern per line and numpy
conversions. ``pack_terms`` walks all ladder products at once into the
action items of the live ones, limb rows cached for the map and the Fock
oracle. ``_items`` turns them into ``pauli._expand``'s columns over the
decode components: a sign ``(-1)^d_m`` per parity mode, a projector per
needed occupation, and as flips the update's constant mask (linear
encodings: the XOR of the encode columns) or the code's update
``encode(decode(w) + q) + w`` at q = the flip. ``transform_hamiltonian``
runs the kernel over ranges of items with one memo of group tables per
call, and merges the columns in term order into the operator's own. For
classical n = N codes the map collapses to parity/flip/update index sets.

Also here: reordering of particle-conserving Hamiltonians into creation/
annihilation pair blocks, the two-code single-operator recipe, and the
segment dressing, which caps each term once by its net particle gain per
segment, so that segment codes take terms in any order.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bitmath import DEFAULT_BUDGET, BitVec, BoolPoly, _ints, _words, ascii_real, poly_sum
from .bitmath import text_lines
from .codes import Code
from .errors import (
    BudgetError,
    DimensionError,
    InputFormatError,
    NonFiniteError,
    NonHermitianError,
    UnsupportedCodeError,
)
from .pauli import _CHUNK_ROWS, Items, QubitOperator, _bits, _chunked, _expand, _item, _operator
from .pauli import _Sum
from .pauli import extract, poly_table  # noqa: F401  (perfbench/spans.py patches them here)


@dataclass(frozen=True)
class FermionTerm:
    """Weighted product of ladder operators, leftmost factor first.

    ``ops`` entries are (mode, is_creation); an empty sequence is a scalar
    multiple of the identity.
    """

    coeff: complex
    ops: tuple[tuple[int, bool], ...]

    @classmethod
    def of(cls, coeff: complex, *ops: tuple[int, bool]) -> "FermionTerm":
        return cls(complex(coeff), tuple((int(m), bool(d)) for m, d in ops))

    def __str__(self) -> str:
        body = " ".join(("+" if d else "-") + str(m) for m, d in self.ops)
        return f"({self.coeff}) {body or '1'}"


def _padded(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row i holds the next ``counts[i]`` of ``values``, then 0s."""
    out = np.zeros((len(counts), int(counts.max(initial=0))), dtype=np.int64)
    at = np.arange(len(values)) - np.repeat(np.cumsum(counts) - counts, counts)
    out[np.repeat(np.arange(len(counts)), counts), at] = values
    return out


class FermionHamiltonian:
    """Sum of fermionic terms over modes 1..N, held as columns: the complex
    ``coeff`` of each term and the signed-mode matrix ``ops``, whose row holds
    the term's operators leftmost first (``+m`` a creation, ``-m`` an
    annihilation, then 0s). Both are read-only and no attribute can be set, so
    ``terms`` and ``packed`` (``pack_terms``), built when first read, never go
    stale; terms given are checked on the columns."""

    def __init__(self, n_modes: int, terms: Iterable[FermionTerm]):
        terms = tuple(terms)
        modes = [m for t in terms for m, _ in t.ops]
        raw = np.fromiter(modes, np.int64, len(modes))  # a mode past int64 raises OverflowError
        bad = np.flatnonzero((raw < 1) | (raw > n_modes))
        if len(bad):
            raise DimensionError(f"mode {modes[bad[0]]} outside 1..{n_modes}")
        dagger = np.fromiter([d for t in terms for _, d in t.ops], bool, len(modes))
        signed = np.where(dagger, raw, -raw)
        ops = _padded(np.array([len(t.ops) for t in terms], dtype=np.intp), signed)
        self._hold(n_modes, np.array([t.coeff for t in terms], dtype=complex), ops, terms=terms)

    def _hold(self, n_modes: int, coeff: np.ndarray, ops: np.ndarray, **cached):
        """Hold checked columns read-only (and caches given): every Hamiltonian is built here."""
        for column in (coeff, ops):
            column.setflags(write=False)
        self.__dict__.update(n_modes=n_modes, coeff=coeff, ops=ops, **cached)
        return self

    @classmethod
    def _of(cls, n_modes: int, coeff: np.ndarray, ops: np.ndarray) -> "FermionHamiltonian":
        return object.__new__(cls)._hold(n_modes, coeff, ops)

    def __setattr__(self, *_):
        raise AttributeError("FermionHamiltonian is immutable; operations return new values")

    def term(self, i: int) -> FermionTerm:
        """Term ``i`` (0-based), built from the columns."""
        ops = tuple((abs(s), s > 0) for s in self.ops[i].tolist() if s)
        return FermionTerm(complex(self.coeff[i]), ops)

    @functools.cached_property
    def terms(self) -> tuple[FermionTerm, ...]:
        return tuple(map(self.term, range(len(self.coeff))))

    @functools.cached_property
    def packed(self) -> tuple[np.ndarray, ...]:
        return pack_terms(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, FermionHamiltonian) and (self.n_modes, self.terms) == (
            other.n_modes, other.terms)


def _merged(n_modes: int, pairs: Iterable[tuple[complex, tuple]]) -> FermionHamiltonian:
    """The ``(coeff, ops)`` pairs with identical operator sequences combined and
    vanished ones dropped, one ``FermionTerm`` per merged term."""
    acc: dict[tuple, complex] = {}
    for c, ops in pairs:
        acc[ops] = acc.get(ops, 0.0) + c
    return FermionHamiltonian(n_modes, (FermionTerm(c, o) for o, c in acc.items() if abs(c) > 0))


def pack_terms(h: FermionHamiltonian) -> tuple[np.ndarray, ...]:
    """Action items ``(flip, z, care, want, c, term)`` of the live ladder
    products (those not vanishing on every state), read-only: limb rows of
    mode masks, the complex ``c`` and its term's index. An item maps ``|w>``
    to ``c (-1)^|w & z| |w ^ flip>`` when ``w & care == want``, else to 0.

    The walk compares each pair of a term's operators, in the order they
    apply, over all terms at once. An operator needs its mode to start
    occupied (an annihilation) or empty, swapped after an odd number of
    earlier operators on it; two that need different starts kill the
    product. Each parity string joins ``z``; each earlier operator on a
    lower mode flips the sign, a complex factor as in ``coeff * sign``."""
    limbs = max(1, -(-h.n_modes // 64))
    a = np.ascontiguousarray(h.ops[:, ::-1].T)  # a[k, t]: the k-th operator term t applies
    m, on = np.abs(a), a != 0
    # pair[i, k, t]: term t has operators i and k, and applies i first
    pair = on[:, None] & on[None, :] & np.less.outer(*[np.arange(len(a))] * 2)[:, :, None]
    same = pair & (m[:, None] == m[None, :])
    need = (a < 0) ^ np.bitwise_xor.reduce(same, axis=0)
    term = np.flatnonzero(~(same & (need[:, None] != need[None, :])).any(axis=(0, 1)))
    odd = np.count_nonzero(pair & (m[:, None] < m[None, :]), axis=(0, 1)) & 1
    # Each operator's mode bit and the bits below it, on every limb of the term's rows.
    mode = m[:, :, None] - 1  # -1 for padding: no bit on any limb
    at = (mode >> 6) - np.arange(limbs)  # 0 on the mode's limb, > 0 on the limbs below it
    bit = np.where(at == 0, np.uint64(1) << (mode & 63).astype(np.uint64), np.uint64(0))
    below = np.where(at > 0, ~np.uint64(0), bit - (bit != 0))
    flip, care = np.bitwise_xor.reduce(bit, axis=0), np.bitwise_or.reduce(bit, axis=0)
    want = np.bitwise_or.reduce(np.where(need[:, :, None], bit, np.uint64(0)), axis=0)
    z = np.bitwise_xor.reduce(below, axis=0)
    items = *(column[term] for column in (flip, z, care, want, h.coeff * (1 - 2.0 * odd))), term
    for column in items:  # every reader of ``h.packed`` shares them
        column.setflags(write=False)
    return items


# -- Hamiltonian files --------------------------------------------------------

_REAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_MODE = r"[+-]0*[1-9][0-9]{0,17}"  # at most 18 digits, so within int64
# A term line in its plain spelling: ASCII decimals, spaces or tabs, maybe a comment.
_TERM = re.compile(
    rf"[ \t]*({_REAL})[ \t]+({_REAL})[ \t]*:[ \t]*((?:{_MODE}(?:[ \t]+{_MODE})*)?)[ \t]*(?:#.*)?"
)


def parse_fermion_file(text: str, n_modes: int | None = None) -> FermionHamiltonian:
    """Parse ``<re> <im> : +i -j ...`` lines; '#' comments and blanks ignored.
    Lines end as in a text-mode file (``text_lines``).

    The mode count is ``n_modes`` when given, else the ``# modes: N`` header
    that ``format_fermion_file`` writes, else the highest mode in any term;
    a mode over it raises, naming the first line that has one.

    A fast pass matches each line with ``_TERM`` and converts the matches
    with numpy. The other lines, and matches whose coefficient is not
    finite, are read one by one in line order, by the code that owns every
    message about a malformed line.
    """
    lines = text_lines(text)
    found = list(map(_TERM.fullmatch, lines))
    fast = [i for i, m in enumerate(found) if m]
    re_, im, tails = list(zip(*(found[i].groups() for i in fast))) or ((), (), ())
    parts = np.stack([np.fromiter(map(float, p), float, len(fast)) for p in (re_, im)], axis=1)
    slow = [i for i, m in enumerate(found) if not m]
    declared, more = None, []
    for i in sorted(slow + [fast[k] for k in np.flatnonzero(~np.isfinite(parts).all(axis=1))]):
        lineno, raw = i + 1, lines[i]
        line, _, comment = raw.partition("#")
        line = line.strip()
        if not line:
            header = comment.strip()
            if header.startswith("modes:"):
                value = header[len("modes:"):].strip()
                if declared is not None or not (value.isascii() and value.isdigit()):
                    raise InputFormatError(f"line {lineno}: bad mode count header {raw.strip()!r}")
                declared = int(value)
            continue
        if ":" not in line:
            raise InputFormatError(f"line {lineno}: missing ':' separator")
        head, tail = line.split(":", 1)
        if len(head.split()) != 2:
            raise InputFormatError(f"line {lineno}: expected '<re> <im> :'")
        try:
            coeff = complex(*map(ascii_real, head.split()))
        except NonFiniteError:
            raise InputFormatError(f"line {lineno}: non-finite coefficient {head.strip()!r}")
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: bad coefficient: {exc}") from exc
        for tok in tail.split():
            if tok[0] not in "+-" or not (tok[1:].isascii() and tok[1:].isdigit()):
                raise InputFormatError(f"line {lineno}: bad operator token {tok!r}")
            if int(tok[1:]) < 1:
                raise InputFormatError(f"line {lineno}: modes are 1-based")
            if int(tok[1:]) >> 63:
                raise InputFormatError(f"line {lineno}: mode {int(tok[1:])} is over 2**63 - 1")
        more.append((i, coeff, " ".join(tail.split())))
    at = np.array(fast + [i for i, _, _ in more], dtype=np.intp)
    coeff = np.concatenate([parts.view(complex)[:, 0], np.array([c for _, c, _ in more], complex)])
    joined = "\n".join([*tails, *(tail for _, _, tail in more)])
    chars = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)  # a sign starts each mode
    counts = np.bincount(np.cumsum(chars == 10)[(chars == 43) | (chars == 45)], minlength=len(at))
    modes = np.fromstring(joined, dtype=np.int64, sep=" ")[: counts.sum()]  # blanks read as [0]
    order = np.argsort(at, kind="stable")
    ops = _padded(counts, modes)[order]
    n = n_modes if n_modes is not None else declared if declared is not None else \
        int(np.abs(ops).max(initial=0))
    for t, k in np.argwhere(np.abs(ops) > n)[:1]:  # the first line with a mode over n
        lineno, mode = at[order[t]] + 1, abs(ops[t, k])
        raise InputFormatError(f"line {lineno}: mode {mode} exceeds declared mode count {n}")
    return FermionHamiltonian._of(n, coeff[order], ops)  # columns checked above


def format_fermion_file(h: FermionHamiltonian) -> str:
    lines = [f"# modes: {h.n_modes}"]
    for t in h.terms:
        body = " ".join(("+" if d else "-") + str(m) for m, d in t.ops)
        lines.append(f"{t.coeff.real:.15g} {t.coeff.imag:.15g} : {body}".rstrip())
    return "\n".join(lines) + "\n"


# -- parity / update machinery ------------------------------------------------


def parity_function(code: Code, j: int) -> BoolPoly:
    """Mod-2 sum of the decode components below mode j."""
    if not 1 <= j <= code.n_modes:
        raise DimensionError(f"mode {j} outside 1..{code.n_modes}")
    return poly_sum(code.decode[: j - 1], code.n_qubits)


def _items(code: Code, packed: tuple, updates_only: bool = False) -> Items:
    """``_expand`` items of ``pack_terms`` items ``(flip, z, care, want, c)``
    over the pieces ``Code.decode_split``: the sign ``(-1)^d_m`` for each
    mode of ``z``, the projector onto the ``d_m`` that ``want`` holds for
    each mode of ``care``, and as flips a linear encoding's mask (the XOR of
    the flipped modes' encode columns) or, for a nonlinear encoding, the
    code's update at ``q = flip``. A scalar (empty ``care``) has no flips,
    unless ``updates_only`` says the items are bare updates."""
    flip, z, care, want, scale = packed
    n_modes, n = code.n_modes, code.n_qubits
    s_item, s_piece = np.nonzero(_bits(z, n_modes))
    f_item, f_piece = np.nonzero(_bits(care, n_modes))
    b = np.where(_bits(want, n_modes)[f_item, f_piece], -0.5, 0.5)
    flips = np.zeros((len(scale), max(1, -(-n // 64))), dtype=np.uint64)
    qs = [None] * len(scale)
    if code.encode_is_linear:
        t_item, t_mode = np.nonzero(_bits(flip, n_modes))
        np.bitwise_xor.at(flips, t_item, _words(code.encode_columns, n)[t_mode])
    else:
        qs = [q if a or updates_only else None for q, a in zip(_ints(flip), care.any(axis=1))]
    factors = (f_item, f_piece, np.full(len(f_item), 0.5), b)
    return Items((s_item, s_piece), factors, flips, qs, scale)


def update_operator(code: Code, q: BitVec, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Operator satisfying U |e(v)> = |e(v + q)> for every encoded v."""
    if q.n != code.n_modes:
        raise DimensionError(f"q has length {q.n}, expected {code.n_modes}")
    flip, none = _words([q.value], code.n_modes), _words([0], code.n_modes)
    items = _items(code, (flip, none, none, none, np.ones(1, dtype=complex)), updates_only=True)
    return _operator(code.n_qubits, _expand(code, items, budget))


# -- the general operator map --------------------------------------------------


def transform_term(code: Code, term: FermionTerm, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Qubit image of one fermionic term under the code's operator map: zero
    for a product that vanishes on every state, which packs to no item."""
    packed = FermionHamiltonian(code.n_modes, (term,)).packed[:5]
    return _operator(code.n_qubits, _expand(code, _items(code, packed), budget))


def transform_hamiltonian(
    code: Code, h: FermionHamiltonian, budget: int = DEFAULT_BUDGET, check_hermiticity: bool = True
) -> QubitOperator:
    """Transform and sum all terms; flags non-hermitian results.

    A non-hermitian outcome means the code does not keep this Hamiltonian's
    action inside the encoded basis (for example unadjusted hops between
    segments, or a not-one-to-one code without balanced degenerate states).
    A ``BudgetError`` names the term that tripped it (1-based index, text),
    in its own expansion or by growing the merged sum past ``budget``; the
    checks run in term order, each term's own before its merge.

    The items of ``h.packed`` go through ``_expand`` in ranges
    (``pauli._chunked``, 2**|care| bounding an item's affine rows) that share
    one memo of group tables for this call. A term whose image vanishes on
    the code space stops at its first all-zero group table, before a later
    group's budget check. The columns are summed in term order
    (``pauli._Sum``), as a dict on ``(x, z)`` would sum them from a complex
    +0.0, and become the result's columns.
    """
    if h.n_modes != code.n_modes:
        raise DimensionError(f"Hamiltonian has {h.n_modes} modes, code encodes {code.n_modes}")
    memo, total = {}, _Sum(code.n_qubits)

    def merge():
        new = total.merge()  # the term index of each row that brought a new string
        held = len(total.c) - len(new)
        if held <= budget < len(total.c):  # the first term whose new strings pass it
            j = new[budget - held]
            raise BudgetError(
                f"merge: term {j} ({h.term(j - 1)}) brings the merged operator to "
                f"{held + np.count_nonzero(new <= j)} terms, over the budget of {budget}"
            )

    *packed, term = h.packed
    weight = np.bitwise_count(packed[2]).sum(axis=1, dtype=np.int64)
    for lo, hi in _chunked(np.left_shift(1, np.minimum(weight, _CHUNK_ROWS.bit_length()))):
        parts = _expand(code, _items(code, [column[lo:hi] for column in packed]), budget, memo)
        try:
            for item, x, z, c in parts:
                if total.add(term[lo + item] + 1, x, z, c):
                    merge()
        except BudgetError as exc:  # an item's own (a merge's has no item): name its term
            if not hasattr(exc, "item"):
                raise
            j = int(term[lo + exc.item])
            raise BudgetError(f"term {j + 1} ({h.term(j)}): {exc}") from exc
        finally:  # the terms before a failing one are merged, and checked, first
            merge()
    out = total.operator()
    if check_hermiticity:
        ok, witness = out.check_hermitian()
        if not ok:
            raise NonHermitianError(
                "transformed Hamiltonian is not hermitian (witness "
                f"{witness.text()}, coefficient {out.coefficient(witness):.3g}); "
                "the code cannot represent this Hamiltonian's action on its "
                "encoded basis - occupation-capped segments need the dressed "
                "Hamiltonian, and degenerate code words need terms that "
                "annihilate them",
                witness=witness,
            )
    return out


# -- linear-code index sets: a cross-check of the general map -------------------


@dataclass(frozen=True)
class LinearSets:
    """Qubit index sets for the Pauli-string form of a linear transform."""

    parity_set: frozenset[int]
    flip_set: frozenset[int]
    update_set: frozenset[int]


def _linear_masks(code: Code, j: int) -> tuple[int, int, int]:
    """Parity, flip and update masks of mode j: row j of R A^-1 (the XOR of the
    decode Z masks below j), row j of A^-1 (its Z mask) and column j of A."""
    if code.matrix is None:
        raise UnsupportedCodeError("parity/flip/update sets need a linear n = N code")
    if not 1 <= j <= code.n_modes:
        raise DimensionError(f"mode {j} outside 1..{code.n_modes}")
    split, parity = code.decode_split, 0
    for z, _, _, _ in split[: j - 1]:
        parity ^= z
    return parity, split[j - 1][0], code.encode_columns[j - 1]


def linear_sets(code: Code, j: int) -> LinearSets:
    """Index sets from the parity matrix R A^-1, A^-1 rows, and A columns."""
    masks = _linear_masks(code, j)
    return LinearSets(*(frozenset(BitVec.from_int(m, code.n_modes).ones()) for m in masks))


def transform_op_linear(code: Code, j: int, dagger: bool) -> QubitOperator:
    """Single ladder operator on a full-Fock linear code, via its parity/flip/update
    masks; an operator-algebra cross-check of the general map."""
    parity, flip, update = _linear_masks(code, j)
    n = code.n_qubits
    projector = QubitOperator.identity(n) + QubitOperator.z_string(n, flip, 1.0 if dagger else -1.0)
    return QubitOperator.x_string(n, update, 0.5) * projector * QubitOperator.z_string(n, parity)


def transform_single_two_codes(
    code_even: Code, code_odd: Code, j: int, dagger: bool, budget: int = DEFAULT_BUDGET
) -> QubitOperator:
    """Single ladder operator using separate codes for the two particle sectors.

    Annihilators read an even-sector word and update it into the odd
    encoding; creators do the reverse. The projector and parity functions
    therefore come from the incoming sector's code while the update pattern
    re-encodes through the outgoing code: the map runs on the code of the
    outgoing encode and the incoming decode, on one item: the signs below j,
    the projector onto mode j's start and the update at ``q = 1 << (j - 1)``.
    """
    if code_even.n_qubits != code_odd.n_qubits or code_even.n_modes != code_odd.n_modes:
        raise DimensionError("sector codes must share mode and qubit counts")
    if not 1 <= j <= code_even.n_modes:
        raise DimensionError(f"mode {j} outside 1..{code_even.n_modes}")
    incoming, outgoing = (code_odd, code_even) if dagger else (code_even, code_odd)
    # The update even where the outgoing encode is linear: e_out(d_in(w)) != w.
    code = Code(incoming.n_modes, incoming.n_qubits, outgoing.encode, incoming.decode)
    projector = (j - 1, 0.5, 0.5 if dagger else -0.5)
    item = _item(code.n_qubits, range(j - 1), [projector], q=1 << (j - 1))
    return _operator(code.n_qubits, _expand(code, item, budget))


# -- reordering and segment dressing --------------------------------------------


def normal_order_blocks(h: FermionHamiltonian) -> FermionHamiltonian:
    """Rewrite every term into creation/annihilation pair blocks.

    Uses the anticommutation relations, so the action on every occupation
    state is unchanged; contraction terms from same-mode swaps drop two
    operators and may leave pure scalars. Requires particle-conserving
    terms (equal creation and annihilation counts).
    """
    out: list[tuple[complex, tuple]] = []
    for term in h.terms:
        daggers = sum(1 for _, d in term.ops if d)
        if 2 * daggers != len(term.ops):
            raise UnsupportedCodeError(
                f"term {term} does not conserve particle number"
            )
        stack = [(term.coeff, list(term.ops))]
        while stack:
            coeff, ops = stack.pop()
            pos = next(
                (idx for idx, (_, d) in enumerate(ops) if d != (idx % 2 == 0)), None
            )
            if pos is None:
                out.append((coeff, tuple(ops)))
                continue
            want = pos % 2 == 0
            k = max(idx for idx in range(pos + 1, len(ops)) if ops[idx][1] == want)
            cur = list(ops)
            c = coeff
            for m in range(k, pos, -1):
                left, right = cur[m - 1], cur[m]
                if left[0] == right[0] and left[1] != right[1]:
                    stack.append((c, cur[: m - 1] + cur[m + 1 :]))
                cur[m - 1], cur[m] = right, left
                c = -c
            stack.append((c, cur))
    return _merged(h.n_modes, out)


def _cap(segment: tuple[int, ...], weight: int, gain: int) -> list[tuple[float, tuple]]:
    """Terms of the projector onto at most ``weight - gain`` particles in the
    segment, exact on states with at most ``weight``: 1 - sum of a_j e_j for
    j from weight - gain + 1 to weight, where e_j sums the weight-j number
    products over the segment and a_j = sum of (-1)^(j-r) C(j, r) for r from
    weight - gain + 1 to j (1 - e_K for a gain of one)."""
    low = weight - gain + 1
    terms: list[tuple[float, tuple]] = [(1.0, ())]
    for j in range(low, weight + 1):
        a = sum((-1) ** (j - r) * math.comb(j, r) for r in range(low, j + 1))
        for subset in itertools.combinations(sorted(segment), j):
            terms.append((-float(a), tuple(op for m in subset for op in ((m, True), (m, False)))))
    return terms


def adjust_for_segments(
    h: FermionHamiltonian,
    segments: tuple[tuple[int, ...], ...],
    weight: int,
    budget: int = DEFAULT_BUDGET,
) -> FermionHamiltonian:
    """Dress each term by its net gain g per segment so it cannot overfill one.

    g is the term's creations in a segment minus its annihilations there, so
    terms may come in any order and need not conserve particle number. For
    g > 0 the projector onto at most K - g particles (K = ``weight``) is a
    right factor; for g < 0 the projector for -g is a left factor, so a term
    and its adjoint stay adjoint; a term with |g| > K drops out. On states
    with at most K particles per segment the dressed term acts as the term
    with overfilled outputs removed. Segment modes must lie within 1..N.

    The dressed terms are counted before each term's product is built; a
    running total over ``budget`` (default ``DEFAULT_BUDGET``) raises
    ``BudgetError`` naming the term.
    """
    seg_of: dict[int, int] = {}
    for idx, seg in enumerate(segments):
        for m in seg:
            if not 1 <= m <= h.n_modes:
                raise DimensionError(f"segment mode {m} outside the Hamiltonian's 1..{h.n_modes}")
            if m in seg_of:
                raise DimensionError(f"mode {m} assigned to two segments")
            seg_of[m] = idx
    out: list[tuple[complex, tuple]] = []
    for index, term in enumerate(h.terms, start=1):
        gains = [0] * len(segments)
        for m, dagger in term.ops:
            if m in seg_of:
                gains[seg_of[m]] += 1 if dagger else -1
        if any(abs(g) > weight for g in gains):
            continue
        factors = (
            [_cap(seg, weight, -g) for seg, g in zip(segments, gains) if g < 0]
            + [[(term.coeff, term.ops)]]
            + [_cap(seg, weight, g) for seg, g in zip(segments, gains) if g > 0]
        )
        count = len(out) + math.prod(len(f) for f in factors)
        if count > budget:
            raise BudgetError(
                f"segment dressing: term {index} ({term}) brings the dressed terms "
                f"to {count}, over the budget of {budget}"
            )
        dressed = [(1.0, ())]
        for factor in factors:
            dressed = [(c * cf, o + of) for c, o in dressed for cf, of in factor]
        out += dressed
    return _merged(h.n_modes, out)

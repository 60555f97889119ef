"""Mapping of second-quantized fermionic operators to qubit operators.

The general weight-l operator map composes, per operator in the sequence,
a projector onto the correct occupation and a parity-sign operator (both
diagonal), followed by a single update operator that flips the code word.
``pack_terms``, which the Fock oracle shares, walks a term once into its
action item; a product that vanishes on every state stops there. ``_items``
turns a batch of action items into ``pauli._expand``'s columns over the
code's decode components: a sign ``(-1)^d_m`` per parity mode and a
projector per needed occupation, and as flips the update's constant mask
(linear encodings: the XOR of the encode columns) or the code's update at
q = the flip, whose flip pattern ``encode(decode(w) + q) + w`` is
evaluated on truth-table grids. ``_expand`` takes the ``Code`` itself and
reads its cached structure and tables. ``transform_hamiltonian`` runs the
kernel over chunks of terms with one memo of grids and group tables per
call, and merges the columns in term order into the operator's own. For
classical n = N codes the map collapses to parity/flip/update index sets.

Also here: reordering of particle-conserving Hamiltonians into creation/
annihilation pair blocks, the two-code single-operator recipe, and the
segment dressing, which caps each term once by its net particle gain per
segment, so that segment codes take terms in any order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bitmath import DEFAULT_BUDGET, BitVec, BoolPoly, _words, ascii_real, poly_sum
from .codes import Code
from .errors import (
    BudgetError,
    DimensionError,
    InputFormatError,
    NonFiniteError,
    NonHermitianError,
    UnsupportedCodeError,
)
from .pauli import Items, QubitOperator, _bits, _chunked, _expand, _operator, _Sum
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

    def check_modes(self, n_modes: int) -> None:
        """Raise ``DimensionError`` naming the first mode outside 1..n_modes."""
        for m, _ in self.ops:
            if not 1 <= m <= n_modes:
                raise DimensionError(f"mode {m} outside 1..{n_modes}")

    def __str__(self) -> str:
        body = " ".join(("+" if d else "-") + str(m) for m, d in self.ops)
        return f"({self.coeff}) {body or '1'}"


def pack_terms(terms: Iterable[FermionTerm]) -> Iterator[tuple[int, int, int, int, complex] | None]:
    """Action item ``(flip, z, care, want, c)`` of each ladder product, or None
    when it vanishes on every state: the product maps ``|w>`` to
    ``c (-1)^|w & z| |w ^ flip>`` when ``w & care == want``, else to 0.

    Walking the operators in application order, mode ``m`` must start at the
    occupation its operator needs once the earlier flips are undone (None if
    it must start both empty and occupied); its parity string joins ``z``,
    and the earlier flips below ``m`` fix the sign. One generator over all
    terms costs less per term than a call each.
    """
    for term in terms:
        flip = z = care = want = odd = 0
        for m, dagger in reversed(term.ops):
            bit = 1 << m - 1
            below = bit - 1
            need = (0 if dagger else bit) ^ (flip & bit)
            if care & bit and want & bit != need:
                yield None
                break
            care |= bit
            want |= need
            z ^= below
            odd += (flip & below).bit_count()
            flip ^= bit
        else:  # times a float sign, so zeros keep the signs of ``coeff * sign``
            yield flip, z, care, want, term.coeff * (-1.0 if odd & 1 else 1.0)


@dataclass(frozen=True)
class FermionHamiltonian:
    """Sum of fermionic terms over modes 1..N."""

    n_modes: int
    terms: tuple[FermionTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            t.check_modes(self.n_modes)

    def merged(self) -> "FermionHamiltonian":
        """Combine identical operator sequences and drop vanished terms."""
        acc: dict[tuple, complex] = {}
        for t in self.terms:
            acc[t.ops] = acc.get(t.ops, 0.0) + t.coeff
        kept = tuple(
            FermionTerm(c, ops) for ops, c in acc.items() if abs(c) > 0
        )
        return FermionHamiltonian(self.n_modes, kept)


# -- Hamiltonian files --------------------------------------------------------


def parse_fermion_file(text: str, n_modes: int | None = None) -> FermionHamiltonian:
    """Parse ``<re> <im> : +i -j ...`` lines; '#' comments and blanks ignored.

    The mode count is ``n_modes`` when given, else the ``# modes: N`` header
    that ``format_fermion_file`` writes, else the highest mode in any term.
    """
    terms = []
    max_mode = 0
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        line = line.strip()
        if not line:
            header = comment.strip()
            if header.startswith("modes:"):
                value = header[len("modes:"):].strip()
                if declared is not None or not (value.isascii() and value.isdigit()):
                    raise InputFormatError(
                        f"line {lineno}: bad mode count header {raw.strip()!r}"
                    )
                declared = int(value)
            continue
        if ":" not in line:
            raise InputFormatError(f"line {lineno}: missing ':' separator")
        head, tail = line.split(":", 1)
        parts = head.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected '<re> <im> :'")
        try:
            coeff = complex(ascii_real(parts[0]), ascii_real(parts[1]))
        except NonFiniteError:
            raise InputFormatError(f"line {lineno}: non-finite coefficient {head.strip()!r}")
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: bad coefficient: {exc}") from exc
        ops = []
        for tok in tail.split():
            if tok[0] not in "+-" or not (tok[1:].isascii() and tok[1:].isdigit()):
                raise InputFormatError(f"line {lineno}: bad operator token {tok!r}")
            mode = int(tok[1:])
            if mode < 1:
                raise InputFormatError(f"line {lineno}: modes are 1-based")
            ops.append((mode, tok[0] == "+"))
            max_mode = max(max_mode, mode)
        terms.append(FermionTerm(coeff, tuple(ops)))
    n = n_modes if n_modes is not None else declared if declared is not None else max_mode
    if max_mode > n:
        raise InputFormatError(f"mode {max_mode} exceeds declared mode count {n}")
    return FermionHamiltonian(n, tuple(terms))


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
        raise IndexError(f"mode {j} outside 1..{code.n_modes}")
    return poly_sum(code.decode[: j - 1], code.n_qubits)


def _items(
    code: Code, packed: list[tuple], q_form: bool = False, updates_only: bool = False
) -> Items:
    """``_expand`` items of ``pack_terms`` action items over the pieces
    ``Code.decode_split``: the sign ``(-1)^d_m`` for each mode of ``z``, the
    projector onto the ``d_m`` that ``want`` holds for each mode of ``care``,
    and as flips a linear encoding's mask (the XOR of the encode columns of
    the flipped modes) or, for a nonlinear encoding or with ``q_form``, the
    code's update at ``q = flip``. A scalar (empty ``care``) has no flips,
    unless ``updates_only`` says the items are bare updates."""
    flip, z, care, want, scale = zip(*packed)
    n_modes, n = code.n_modes, code.n_qubits
    s_item, s_piece = np.nonzero(_bits(z, n_modes))
    f_item, f_piece = np.nonzero(_bits(care, n_modes))
    b = np.where(_bits(want, n_modes)[f_item, f_piece], -0.5, 0.5)
    flips = np.zeros((len(packed), max(1, -(-n // 64))), dtype=np.uint64)
    qs = [None] * len(packed)
    if not q_form and code.encode_is_linear:
        t_item, t_mode = np.nonzero(_bits(flip, n_modes))
        np.bitwise_xor.at(flips, t_item, _words(code.encode_columns, n)[t_mode])
    else:
        qs = [q if c or updates_only else None for q, c in zip(flip, care)]
    factors = (f_item, f_piece, np.full(len(f_item), 0.5), b)
    return Items((s_item, s_piece), factors, flips, qs, np.array(scale, dtype=complex))


def update_operator(code: Code, q: BitVec, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Operator satisfying U |e(v)> = |e(v + q)> for every encoded v."""
    if q.n != code.n_modes:
        raise DimensionError(f"q has length {q.n}, expected {code.n_modes}")
    items = _items(code, [(q.value, 0, 0, 0, 1.0)], updates_only=True)
    return _operator(code.n_qubits, _expand(code, items, budget))


# -- the general operator map --------------------------------------------------


def transform_term(code: Code, term: FermionTerm, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Qubit image of one fermionic term under the code's operator map."""
    term.check_modes(code.n_modes)
    item = next(pack_terms([term]))
    if item is None:
        return QubitOperator.zero(code.n_qubits)
    return _operator(code.n_qubits, _expand(code, _items(code, [item]), budget))


def _named(parts: Iterator[tuple], chunk: list[tuple]) -> Iterator[tuple]:
    """``parts`` with an item's ``BudgetError`` prefixed by its term."""
    try:
        yield from parts
    except BudgetError as exc:
        index, term, _ = chunk[exc.item]
        raise BudgetError(f"term {index} ({term}): {exc}") from exc


def transform_hamiltonian(
    code: Code,
    h: FermionHamiltonian,
    budget: int = DEFAULT_BUDGET,
    check_hermiticity: bool = True,
) -> QubitOperator:
    """Transform and sum all terms; flags non-hermitian results.

    A non-hermitian outcome means the code does not keep this Hamiltonian's
    action inside the encoded basis (for example unadjusted hops between
    segments, or a not-one-to-one code without balanced degenerate states).
    A ``BudgetError`` names the term that tripped it (1-based index, text),
    in its own expansion or by growing the merged sum past ``budget``; the
    checks run in term order, each term's own before its merge.

    The terms go through ``_expand`` in chunks (``pauli._chunked``) that
    share one memo of group tables, which lives for this call only. A term
    whose image vanishes on the code space stops at its first group with an
    all-zero table, so it never reaches a later group's budget check; a
    ladder product that vanishes on every state never reaches ``_expand``.
    The columns are summed in term order (``pauli._Sum``), as a dict on
    ``(x, z)`` would sum them from a complex +0.0, and become the result's
    columns; its ``terms`` dict is built only when read.
    """
    if h.n_modes != code.n_modes:
        raise DimensionError(
            f"Hamiltonian has {h.n_modes} modes, code encodes {code.n_modes}"
        )
    memo, total = {}, _Sum(code.n_qubits)

    def merge():
        new = total.merge()  # the term index of each row that brought a new string
        held = len(total.c) - len(new)
        if held <= budget < len(total.c):  # the first term whose new strings pass it
            j = new[budget - held]
            raise BudgetError(
                f"merge: term {j} ({h.terms[j - 1]}) brings the merged operator to "
                f"{held + np.count_nonzero(new <= j)} terms, over the budget of {budget}"
            )

    live = (  # 2**|care| bounds the rows of a term's affine tables
        (1 << item[2].bit_count(), (index, term, item))
        for index, (term, item) in enumerate(zip(h.terms, pack_terms(h.terms)), start=1)
        if item is not None
    )
    for chunk in _chunked(live):
        indices = np.array([index for index, _, _ in chunk])
        items = _items(code, [item for _, _, item in chunk])
        parts = _expand(code, items, budget, memo)
        try:
            for item, x, z, c in _named(parts, chunk):
                if total.add(indices[item], x, z, c):
                    merge()
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
        raise IndexError(f"mode {j} outside 1..{code.n_modes}")
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
    code_even: Code,
    code_odd: Code,
    j: int,
    dagger: bool,
    budget: int = DEFAULT_BUDGET,
) -> QubitOperator:
    """Single ladder operator using separate codes for the two particle sectors.

    Annihilators read an even-sector word and update it into the odd
    encoding; creators do the reverse. The projector and parity functions
    therefore come from the incoming sector's code while the update pattern
    re-encodes through the outgoing code: the map runs on the code of the
    outgoing encode and the incoming decode.
    """
    if code_even.n_qubits != code_odd.n_qubits or code_even.n_modes != code_odd.n_modes:
        raise DimensionError("sector codes must share mode and qubit counts")
    term = FermionTerm.of(1, (j, dagger))
    term.check_modes(code_even.n_modes)
    incoming, outgoing = (code_odd, code_even) if dagger else (code_even, code_odd)
    # The q form even where the outgoing encode is linear: e_out(d_in(w)) != w.
    code = Code(incoming.n_modes, incoming.n_qubits, outgoing.encode, incoming.decode)
    items = _items(code, [next(pack_terms([term]))], q_form=True)
    return _operator(code.n_qubits, _expand(code, items, budget))


# -- reordering and segment dressing --------------------------------------------


def normal_order_blocks(h: FermionHamiltonian) -> FermionHamiltonian:
    """Rewrite every term into creation/annihilation pair blocks.

    Uses the anticommutation relations, so the action on every occupation
    state is unchanged; contraction terms from same-mode swaps drop two
    operators and may leave pure scalars. Requires particle-conserving
    terms (equal creation and annihilation counts).
    """
    out: list[FermionTerm] = []
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
                out.append(FermionTerm(coeff, tuple(ops)))
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
    return FermionHamiltonian(h.n_modes, tuple(out)).merged()


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
    with overfilled outputs removed.

    The dressed terms are counted before each term's product is built; a
    running total over ``budget`` (default ``DEFAULT_BUDGET``) raises
    ``BudgetError`` naming the term.
    """
    seg_of: dict[int, int] = {}
    for idx, seg in enumerate(segments):
        for m in seg:
            if m in seg_of:
                raise DimensionError(f"mode {m} assigned to two segments")
            seg_of[m] = idx
    out: list[FermionTerm] = []
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
        out += (FermionTerm(c, ops) for c, ops in dressed)
    return FermionHamiltonian(h.n_modes, tuple(out)).merged()

"""Ground-truth fermionic semantics and transform verification.

On a basis word a ladder-operator product and a Pauli string have the same
form: a flip mask, a Z-mask parity sign and a coefficient, and for the
ladder product a check that the touched modes start at the occupations it
needs. A Hamiltonian's items are those of its live products, cached for the
operator map too (``h.packed``); an operator's are read off its columns
(``_string_columns``), and two kernels apply them:

- ``_image`` maps one basis word, as Python ints, to its targets in the
  order its acting items meet them, the items converted once per call
  (``_int_items``, or ``_pack_strings`` off an operator's ``terms``). The
  single-state helpers use it, where arrays would only add overhead, and so
  does every question of order: the targets an escape detail or a
  ``fock_matrix`` error names.
- ``_amplitudes`` maps many basis words at once, as numpy arrays of 64-bit
  limbs (one limb up to 64 modes or qubits), and says only which amplitude
  goes to which flip group: items with the same flip send a state to the
  same target. An item's action factors over the low and the high half of
  the word, so each group is summed in the way of fewest cells: per state,
  one ``np.add.at`` cell that adds the acting items in packed order, the
  sum ``_image`` forms bit for bit; or through a table over the distinct
  halves of the words, which adds the same terms in another order.
  ``verify_equivalence`` and ``fock_matrix`` use it.

Verification encodes each fermionic image and compares it amplitude by
amplitude with the qubit-side action. It flags basis states that are not in
the code space (``d(e(v)) != v``) and Hamiltonians whose image leaves it.
Encoding and the round-trip checks use the code's own cached evaluator,
``Code.encode_words``/``decode_words``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bitmath import BitVec, _ints, _labels, _words
from .codes import Code
from .errors import DimensionError, UnsupportedCodeError
from .pauli import QubitOperator
from .transform import FermionHamiltonian, FermionTerm, transform_op_linear


def _int_items(columns: tuple) -> list[tuple[int, int, int, int, complex]]:
    """Item columns as ``_image``'s tuples of Python ints."""
    return list(zip(*map(_ints, columns[:4]), columns[4].tolist()))


def _string_columns(op: QubitOperator) -> tuple[np.ndarray, ...]:
    """The action item of each Pauli string as columns ``(flip, z, care,
    want, c)``, read from the operator's: X flips, Z signs, and ``y`` Y
    factors multiply ``c`` by ``1j ** y``, the Python power."""
    x, z, c = op.columns
    y = np.bitwise_count(x & z).sum(axis=1, dtype=np.intp)
    phases = np.array([1j**k for k in range(int(y.max(initial=0)) + 1)])
    zero = np.zeros_like(x)  # care and want: no occupation check
    return x, z, zero, zero, c * phases[y]


def _pack_strings(op: QubitOperator) -> list[tuple[int, int, int, int, complex]]:
    """The items of ``_string_columns`` as Python ints, for ``_image``, read
    off ``terms``: the single-state helpers call this once per state."""
    return [(s.x, s.z, 0, 0, c * 1j ** s.y_count()) for s, c in op.terms.items()]


def _image(word: int, items: list) -> dict[int, complex]:
    """Image of basis word ``word`` under a sum of packed action items.

    Item ``(flip, z, care, want, c)`` maps ``|w>`` to
    ``c (-1)^|w & z| |w ^ flip>`` when ``w & care == want``, else to 0.
    """
    out: dict[int, complex] = {}
    for flip, z, care, want, c in items:
        if word & care != want:
            continue
        nb = word ^ flip
        out[nb] = out.get(nb, 0.0) + (-c if (word & z).bit_count() & 1 else c)
    return out


def _apply_sparse(items: list, amplitudes: dict, n: int) -> dict[BitVec, complex]:
    """Linear extension of ``_image`` over a sparse state, pruned at 1e-15."""
    out: dict[int, complex] = {}
    for key, amp in amplitudes.items():
        for k, v in _image(key.value, items).items():
            out[k] = out.get(k, 0.0) + amp * v
    return {BitVec.from_int(k, n): v for k, v in out.items() if abs(v) > 1e-15}


# Cells (state x item, or half x item) one table-filling step handles. A cell
# costs about 0.1 KiB of temporaries; 2^13 cells keep a step within 1 MiB,
# as fast as 2^14 cells in measurements. A combining step handles at least
# one state's split keys. The split tables (distinct halves x keys) and the
# words' half labels are held for a whole ``_amplitudes`` call.
_CELLS = 1 << 13

# (state, item) cells up to which a batch is summed directly, unlabelled:
# labelling the halves and the keys costs about 1 ms, more than the split
# saves on small batches. On prefixes of the perfbench batches (both sides of
# hubbard_segment and molecular_bk) the split first wins at 2^16.8 to 2^18.1.
_DIRECT = 1 << 17


class _Batch:
    """Packed items as limb arrays (``h.packed`` or ``_string_columns``),
    with the distinct flips they move states by, in first-appearance order.

    Item ``i`` sends an acting state ``w`` to ``w ^ flips[group[i]]``.
    ``halves`` masks the low and the high half of a word.
    """

    def __init__(self, columns: tuple, n_bits: int):
        flip, self.z, self.care, self.want, self.coeff = columns[:5]
        label, first = _labels(flip)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        self.group, self.flips = rank[label], flip[np.sort(first)]
        low = (1 << n_bits // 2) - 1
        self.halves = _words([low, low ^ (1 << n_bits) - 1], n_bits)

    def plan(self, words: np.ndarray) -> tuple[np.ndarray, list]:
        """Per flip group, the plan of fewest cells on the ``S`` ``words``, and
        the labels it counted them with. Plan 0 sums each state's ``N_g``
        items, ``S N_g`` cells. Plan ``1 + h`` sums the items over the ``U_h``
        distinct ``h`` halves of the words per key, the items' (z, care,
        want) on the other half, then each state over the group's ``K_g``
        keys, ``U_h N_g + S K_g`` cells. ``labels[h]`` holds the ``_labels``
        of the words' ``h`` halves and of the keys, numbered group-major; it
        is empty for a batch of at most ``_DIRECT`` cells, all on plan 0."""
        n = np.bincount(self.group, minlength=len(self.flips))
        if len(words) * len(self.coeff) <= _DIRECT:
            return np.zeros(len(n), dtype=np.int64), []
        cost, labels = [len(words) * n], []
        for h, other in zip(self.halves, self.halves[::-1]):
            keys = [a & other for a in (self.z, self.care, self.want)]
            keys.append(self.group[:, None].astype(np.uint64))
            labels.append((_labels(words & h), _labels(np.hstack(keys))))
            u, one = labels[-1][0][1], labels[-1][1][1]
            cost.append(len(u) * n + len(words) * np.bincount(self.group[one], minlength=len(n)))
        return np.argmin(cost, axis=0), labels


def _sum(u: np.ndarray, b: _Batch, items, half, keys, width: int, c) -> np.ndarray:
    """``table[r, k]``: the sum of ``c[j] [u & care == want] (-1)^|u & z|`` at
    ``u = u[r]`` over the ``items[j]`` of key ``keys[j] = k``, with care and
    want on ``half``. ``np.add.at`` adds in index order, so each cell adds
    its items in the order of ``items``. A step covers about ``_CELLS`` cells."""
    table = np.zeros((len(u), width), dtype=c.dtype)
    tile = min(max(len(items), 1), _CELLS)
    step = _CELLS // tile
    for j in range(0, len(items), tile):
        i, cj = items[j : j + tile], c[j : j + tile]
        for r0 in range(0, len(u), step):
            w = u[r0 : r0 + step, None]
            acts = ((w & b.care[i]) == b.want[i] & half).all(axis=2)
            odd = np.bitwise_xor.reduce(np.bitwise_count(w & b.z[i]), axis=2) & 1
            cells = np.arange(r0, r0 + len(w))[:, None] * width + keys[j : j + tile]
            terms = np.where(acts, np.where(odd, -cj, cj), 0)
            np.add.at(table.reshape(-1), cells.ravel(), terms.ravel())
    return table


def _amplitudes(words: np.ndarray, b: _Batch, step: int):
    """Yield ``out[s, g]``, ``step`` states at a time: the amplitude state
    ``s`` sends to ``words[s] ^ b.flips[g]``, summed by the group's
    ``b.plan``. Plan 0 is ``_sum`` over the states in packed order, the sum
    ``_image`` forms bit for bit. Plan ``1 + h`` is ``_sum`` over the distinct
    ``h`` halves per key, times each key's factor on the other half, added
    over the group's keys by ``np.add.reduceat``."""
    plan, labels = b.plan(words)
    plan = plan[b.group]
    split = []
    for h, ((ku, u), (at, one)) in enumerate(labels):
        used = plan[one] == 1 + h  # the keys of the groups on this plan
        if not used.any():
            continue
        items, one = np.flatnonzero(plan == 1 + h), one[used]
        at, k = (np.cumsum(used) - 1)[at[items]], len(one)  # still group-major
        (kv, v), half, other = labels[1 - h][0], b.halves[h], b.halves[1 - h]
        table = _sum(words[u] & half, b, items, half, at, k, b.coeff[items])
        sign = _sum(words[v] & other, b, one, other, np.arange(k), k, np.ones(k, np.int8))
        runs = np.flatnonzero(np.diff(b.group[one], prepend=-1))
        split.append((ku, kv, table, sign, runs, b.group[one[runs]]))
    direct, full = np.flatnonzero(plan == 0), b.halves[0] | b.halves[1]
    for r0 in range(0, len(words), step):
        w = words[r0 : r0 + step]
        out = _sum(w, b, direct, full, b.group[direct], len(b.flips), b.coeff[direct])
        for ku, kv, table, sign, runs, groups in split:
            rows = max(1, _CELLS // table.shape[1])
            for s0 in range(0, len(w), rows):
                s = slice(r0 + s0, r0 + min(s0 + rows, len(w)))
                cells = table[ku[s]] * sign[kv[s]]
                out[s0 : s0 + rows, groups] = np.add.reduceat(cells, runs, axis=1)
        yield out


def _lookup(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row of ``table`` (distinct limb rows) equal to each key row, -1 if none.

    Table and key rows are numbered together by their distinct value.
    """
    label, _ = _labels(np.concatenate([table, keys]))
    row = np.full(len(label), -1)
    row[label[: len(table)]] = np.arange(len(table))
    return row[label[len(table) :]]


class _SparseState:
    """Shared constructor and comparison of the two sparse state types."""

    @classmethod
    def basis_state(cls, word: BitVec):
        return cls(word.n, {word: 1.0 + 0.0j})

    def isclose(self, other, atol: float = 1e-9) -> bool:
        keys = self.amplitudes.keys() | other.amplitudes.keys()
        return all(
            abs(self.amplitudes.get(k, 0.0) - other.amplitudes.get(k, 0.0)) <= atol
            for k in keys
        )


@dataclass(frozen=True)
class FockStateVector(_SparseState):
    """Sparse amplitudes over occupation vectors."""

    n_modes: int
    amplitudes: dict[BitVec, complex] = field(default_factory=dict)


@dataclass(frozen=True)
class QubitStateVector(_SparseState):
    """Sparse amplitudes over computational basis words."""

    n_qubits: int
    amplitudes: dict[BitVec, complex] = field(default_factory=dict)


def apply_fermion_term(term: FermionTerm, nu: BitVec) -> tuple[complex, BitVec] | None:
    """Image (coefficient, state) of one basis state; None when annihilated."""
    items = _int_items(FermionHamiltonian(nu.n, (term,)).packed)
    for occ, coeff in _image(nu.value, items).items():
        return coeff, BitVec.from_int(occ, nu.n)
    return None


def apply_hamiltonian_fock(h: FermionHamiltonian, state: FockStateVector) -> FockStateVector:
    if h.n_modes != state.n_modes:
        raise DimensionError("mode count mismatch")
    out = _apply_sparse(_int_items(h.packed), state.amplitudes, h.n_modes)
    return FockStateVector(h.n_modes, out)


def apply_qubit_operator(op: QubitOperator, state: QubitStateVector) -> QubitStateVector:
    if op.n != state.n_qubits:
        raise DimensionError("qubit count mismatch")
    out = _apply_sparse(_pack_strings(op), state.amplitudes, op.n)
    return QubitStateVector(op.n, out)


@dataclass
class EquivalenceReport:
    """Per-basis-state comparison of fermionic and qubit-side actions."""

    status: str  # "pass" | "fail" | "incompatible"
    max_deviation: float
    failures: list[dict]
    states_checked: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "max_deviation": self.max_deviation,
                "states_checked": self.states_checked,
                "failures": self.failures,
            },
            indent=2,
        )

    def summary(self) -> str:
        return (
            f"status={self.status} states={self.states_checked} "
            f"max_deviation={self.max_deviation:.3g} failures={len(self.failures)}"
        )


def verify_equivalence(
    code: Code, h: FermionHamiltonian, hq: QubitOperator, basis: list[BitVec], tol: float = 1e-9
) -> EquivalenceReport:
    """Check that the qubit operator replicates the Hamiltonian on the basis.

    For every basis vector v the fermionic image of |v> is computed exactly;
    if v itself does not round-trip (d(e(v)) != v), or any component of its
    image falls outside the code's encoded set, the Hamiltonian is
    incompatible with the code on this basis (its action cannot be
    represented). Otherwise the encoded image is compared with the qubit
    operator applied to |e(v)>. The kernels yield a tile of states at a time;
    only the per-state deviation and the report lists outlive a tile.
    """
    if h.n_modes != code.n_modes or hq.n != code.n_qubits:
        raise DimensionError("code, Hamiltonian, and operator sizes must agree")
    for i, nu in enumerate(basis):
        if nu.n != code.n_modes:
            raise DimensionError(f"basis[{i}] = {nu} has {nu.n} modes, code encodes {code.n_modes}")
    terms, items = _Batch(h.packed, code.n_modes), None
    strings = _Batch(_string_columns(hq), code.n_qubits)
    words = _words([nu.value for nu in basis], code.n_modes)
    encoded = code.encode_words(words)
    decoded = code.decode_words(encoded)
    escaped = (decoded != words).any(axis=1)
    # Report entries by basis index. A state outside the code space is
    # reported as such and never passed through the kernels.
    escapes: dict[int, dict] = {}
    for i, k in zip(np.flatnonzero(escaped).tolist(), _ints(decoded[escaped])):
        at = BitVec.from_int(k, basis[i].n)
        detail = f"state is outside the encoded basis (it decodes as {at})"
        escapes[i] = {"nu": str(basis[i]), "detail": detail}
    inside = np.flatnonzero(~escaped)
    dev = np.zeros(len(basis))
    step = max(1, _CELLS // max(len(terms.flips), len(strings.flips), 1))
    fermion = _amplitudes(words[inside], terms, step)
    qubit = _amplitudes(encoded[inside], strings, step)
    for r0, amp, diff in zip(range(0, len(inside), step), fermion, qubit):
        rows = inside[r0 : r0 + step]
        w, ew = words[rows], encoded[rows]
        s, g = np.nonzero(np.abs(amp) > 1e-13)
        image = w[s] ^ terms.flips[g]
        ek = code.encode_words(image)
        outside = ~(code.decode_words(ek) == image).all(axis=1)
        bad: dict[int, set[int]] = {}
        for row, k in zip(rows[s[outside]].tolist(), _ints(image[outside])):
            bad.setdefault(row, set()).add(k)
        for i, targets in bad.items():
            items = _int_items(h.packed) if items is None else items
            nu = basis[i]
            at = [BitVec.from_int(k, nu.n) for k in _image(nu.value, items) if k in targets]
            detail = "image leaves the encoded basis at " + ", ".join(map(str, at[:4]))
            escapes[i] = {"nu": str(nu), "detail": detail}
            escaped[i] = True
        # The qubit-side image of e(v) minus the encoded fermionic one. The
        # images of an in-basis state encode to distinct words, so each is
        # subtracted once; an image the qubit side misses counts in full.
        hit = _lookup(strings.flips, ek ^ ew[s])
        found = hit >= 0
        diff[s[found], hit[found]] -= amp[s[found], g[found]]
        d = np.abs(diff).max(axis=1, initial=0.0)
        np.maximum.at(d, s[~found], np.abs(amp[s[~found], g[~found]]))
        dev[rows] = d
    failures = [
        {"nu": str(basis[i]), "detail": f"amplitude deviation {dev[i]:.3g}"}
        for i in np.flatnonzero(~escaped & (dev > tol)).tolist()
    ]
    max_dev = float(dev[~escaped].max(initial=0.0))
    if escapes:
        listed = [escapes[i] for i in sorted(escapes)]
        return EquivalenceReport("incompatible", max_dev, listed + failures, len(basis))
    status = "pass" if not failures else "fail"
    return EquivalenceReport(status, max_dev, failures, len(basis))


@dataclass
class AnticommutationReport:
    ok: bool
    failures: list[str]

    def summary(self) -> str:
        return "all anticommutation relations hold" if self.ok else (
            f"{len(self.failures)} violations, first: {self.failures[0]}"
        )


def verify_anticommutation(code: Code, atol: float = 1e-12) -> AnticommutationReport:
    """Check the transformed ladder operators' anticommutation relations.

    Builds every single operator through the index-set form (full-Fock
    linear codes only) and verifies {c_i, c_j^dag} = delta_ij, {c_i, c_j} = 0,
    and {c_i^dag, c_j^dag} = 0 as operator identities.
    """
    if code.matrix is None:
        raise UnsupportedCodeError("anticommutation check needs a linear n = N code")
    n = code.n_modes
    annihilate = [transform_op_linear(code, j, dagger=False) for j in range(1, n + 1)]
    create = [transform_op_linear(code, j, dagger=True) for j in range(1, n + 1)]
    failures = []
    zero = QubitOperator.zero(code.n_qubits)
    one = QubitOperator.identity(code.n_qubits)

    def anticommutes_to(a: QubitOperator, b: QubitOperator, target: QubitOperator = zero) -> bool:
        return (a * b + b * a).isclose(target, atol)

    for i in range(n):
        for j in range(n):
            if not anticommutes_to(annihilate[i], create[j], one if i == j else zero):
                failures.append(f"{{c_{i + 1}, c_{j + 1}^dag}} != {'I' if i == j else '0'}")
            if j >= i and not anticommutes_to(annihilate[i], annihilate[j]):
                failures.append(f"{{c_{i + 1}, c_{j + 1}}} != 0")
            if j >= i and not anticommutes_to(create[i], create[j]):
                failures.append(f"{{c_{i + 1}^dag, c_{j + 1}^dag}} != 0")
    return AnticommutationReport(not failures, failures)


def fock_matrix(h: FermionHamiltonian, basis: list[BitVec]) -> np.ndarray:
    """Dense matrix of the Hamiltonian over an occupation basis list."""
    if any(nu.n != h.n_modes for nu in basis):
        raise DimensionError("mode count mismatch")
    terms = _Batch(h.packed, h.n_modes)
    words = _words([nu.value for nu in basis], h.n_modes)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    step = max(1, _CELLS // max(len(terms.flips), 1))
    for c0, amp in zip(range(0, len(basis), step), _amplitudes(words, terms, step)):
        w = words[c0 : c0 + step]
        s, g = np.nonzero(amp)
        image = w[s] ^ terms.flips[g]
        row = _lookup(words, image)
        escape = (row < 0) & (np.abs(amp[s, g]) > 1e-15)
        if escape.any():
            col = s[escape][0]
            nu = basis[c0 + col]
            missing = set(_ints(image[escape & (s == col)]))
            k = next(k for k in _image(nu.value, _int_items(h.packed)) if k in missing)
            raise ValueError(
                f"Hamiltonian maps {nu} outside the given basis "
                f"(to {BitVec.from_int(k, h.n_modes)})"
            )
        inside = row >= 0
        out[row[inside], c0 + s[inside]] = amp[s[inside], g[inside]]
    return out

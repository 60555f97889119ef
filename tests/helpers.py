"""Independent dense oracles and random inputs shared by the test modules.

The dense matrices are built from first principles with numpy kron products
so the package's sparse algebra is checked against a separate code path.
Basis states are indexed with qubit/mode 1 as the fastest (least
significant) bit. ``nonlinear_codes`` draws random truth-table codes;
``reference_transform`` sums per-term operators as the merge once did;
``reference_serialize`` writes an operator's text as ``serialize`` once did;
``reference_validate_code``, ``reference_decode_image`` and
``reference_is_degenerate_image`` check a code one word at a time, as
``fermicode.codes`` once did. ``reference_pack`` walks each ladder product
in Python ints, as ``fermicode.transform.pack_terms`` once did, and
``item_columns`` turns such items into the oracle's limb-row columns.
"""

import functools

import numpy as np
from hypothesis import strategies as st

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def dense_pauli(n, factors):
    """Dense matrix of a Pauli-letter assignment {index: letter}."""
    out = np.eye(1, dtype=complex)
    for j in range(n, 0, -1):
        out = np.kron(out, PAULI[factors.get(j, "I")])
    return out


def dense_operator(op):
    """Dense matrix of a QubitOperator via per-term kron products."""
    dim = 1 << op.n
    out = np.zeros((dim, dim), dtype=complex)
    for s, c in op.terms.items():
        out += c * dense_pauli(op.n, s.factors)
    return out


def dense_annihilator(n_modes, j):
    """Fermionic annihilator as a dense matrix over occupation bit-strings.

    Standard realization: parity Z-string below mode j times |0><1| on j.
    """
    factors = {i: "Z" for i in range(1, j)}
    out = np.eye(1, dtype=complex)
    for m in range(n_modes, 0, -1):
        if m == j:
            out = np.kron(out, LOWER)
        else:
            out = np.kron(out, PAULI[factors.get(m, "I")])
    return out


def dense_creator(n_modes, j):
    return dense_annihilator(n_modes, j).conj().T


@functools.lru_cache(maxsize=64)
def _ladder_columns(n_modes, mode, dagger):
    """Row and value of the one nonzero (or a zero) in each column of a ladder
    operator's dense matrix."""
    m = dense_creator(n_modes, mode) if dagger else dense_annihilator(n_modes, mode)
    rows = np.abs(m).argmax(axis=0)
    return rows, m[rows, np.arange(len(rows))]


def _term_columns(n_modes, term):
    """Row and value of the one nonzero (or a zero) in each column of a
    FermionTerm's dense matrix (leftmost operator applied last).

    Every ladder matrix has at most one nonzero per column, and so has their
    product: column c of ``A @ B`` is column ``rows_B[c]`` of A scaled by
    ``values_B[c]``.
    """
    dim = 1 << n_modes
    rows, values = np.arange(dim), np.full(dim, term.coeff, dtype=complex)
    for mode, dagger in reversed(term.ops):
        op_rows, op_values = _ladder_columns(n_modes, mode, dagger)
        rows, values = op_rows[rows], op_values[rows] * values
    return rows, values


def dense_fermion_term(n_modes, term):
    """Dense matrix of a FermionTerm (leftmost operator applied last)."""
    dim = 1 << n_modes
    rows, values = _term_columns(n_modes, term)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, np.arange(dim)] = values
    return out


def dense_fermion_hamiltonian(h):
    dim = 1 << h.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        rows, values = _term_columns(h.n_modes, t)
        out[rows, np.arange(dim)] += values
    return out


def random_boolpoly(rng, num_vars, max_monomials=6):
    from fermicode.bitmath import BoolPoly

    k = rng.randrange(0, max_monomials + 1)
    masks = [rng.randrange(0, 1 << num_vars) for _ in range(k)]
    return BoolPoly(num_vars, masks)


def random_invertible_bitmat(rng, n):
    from fermicode.bitmath import BitMat
    from fermicode.errors import SingularMatrixError

    while True:
        rows = [rng.randrange(0, 1 << n) for _ in range(n)]
        m = BitMat.from_int_rows(rows, n)
        try:
            m.inverse()
            return m
        except SingularMatrixError:
            continue


@st.composite
def nonlinear_codes(draw):
    """A basis V of one or two weight sectors over N <= 6 modes and a random
    injective code on it, n between ceil(log2 |V|) and N.

    Encode and decode are truth tables turned into polynomials: states
    outside V encode to 0, and the code words no state uses decode to a
    designated word outside V.
    """
    from fermicode.bitmath import BitVec, BoolPoly
    from fermicode.codes import BasisSpec, Code, enumerate_basis

    n_modes = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, n_modes), min_size=1, max_size=2, unique=True))
    basis = enumerate_basis(BasisSpec.single(n_modes, weights))
    n_qubits = draw(st.integers(max(1, (len(basis) - 1).bit_length()), n_modes))
    words = draw(st.permutations(range(1 << n_qubits)))[: len(basis)]
    inside = {nu.value for nu in basis}
    outside = [v for v in range(1 << n_modes) if v not in inside]
    degenerate = None
    if len(basis) < 1 << n_qubits:
        degenerate = draw(st.sampled_from(outside))
    enc = [0] * (1 << n_modes)
    dec = [degenerate] * (1 << n_qubits)
    for nu, w in zip(basis, words):
        enc[nu.value] = w
        dec[w] = nu.value
    code = Code(
        n_modes=n_modes,
        n_qubits=n_qubits,
        encode=tuple(
            BoolPoly.from_truth_table(n_modes, [e >> i & 1 for e in enc]) for i in range(n_qubits)
        ),
        decode=tuple(
            BoolPoly.from_truth_table(n_qubits, [d >> j & 1 for d in dec]) for j in range(n_modes)
        ),
        degenerate_image=None if degenerate is None else BitVec.from_int(degenerate, n_modes),
    )
    return code, basis


def reference_transform(code, h):
    """The Hamiltonian's image merged the per-term way: each term's
    ``transform_term`` operator summed into a dict on ``PauliString`` keys, in
    term order from a complex +0.0, then pruned as ``QubitOperator`` does."""
    from fermicode.pauli import QubitOperator
    from fermicode.transform import transform_term

    acc = {}
    for term in h.terms:
        for s, c in transform_term(code, term).terms.items():
            acc[s] = acc.get(s, 0j) + c
    return QubitOperator(code.n_qubits, acc)


def reference_serialize(op):
    """``QubitOperator.serialize`` the per-string way: the terms sorted on
    ``PauliString.sort_key``, one f-string per line."""
    keyed = sorted(op.terms.items(), key=lambda item: item[0].sort_key())
    return "".join(f"{c.real:.15g} {c.imag:.15g} {s.text()}\n" for s, c in keyed)


def reference_is_degenerate_image(code, nu):
    """Degenerate-image test by recursion over ``Code.parts``: a part's block
    round-trips or is one of its degenerate images, and at least one is."""
    from fermicode.bitmath import BitVec

    if code.parts:
        offset = 0
        saw_degenerate = False
        for part in code.parts:
            block = BitVec.from_int((nu.value >> offset) & ((1 << part.n_modes) - 1), part.n_modes)
            if part.in_basis(block):
                pass
            elif reference_is_degenerate_image(part, block):
                saw_degenerate = True
            else:
                return False
            offset += part.n_modes
        return saw_degenerate
    image = code.degenerate_image
    return image is not None and nu == image and not code.in_basis(nu)


def reference_decode_image(code):
    """Distinct decode images of all code words, decoded one by one, sorted."""
    from fermicode.bitmath import BitVec

    seen = {}
    for w in range(1 << code.n_qubits):
        seen[code.decode_vec(BitVec.from_int(w, code.n_qubits))] = True
    return sorted(seen, key=str)


def reference_validate_code(code, spec, budget, sample=None, seed=0):
    """``validate_code``'s report, checking one vector or word at a time."""
    import random

    from fermicode.bitmath import BitVec
    from fermicode.codes import ValidationReport, enumerate_basis

    declared = set(enumerate_basis(spec, budget))
    failures = [nu for nu in sorted(declared, key=str) if not code.in_basis(nu)]
    total = 1 << code.n_qubits
    if total <= budget:
        words = [BitVec.from_int(w, code.n_qubits) for w in range(total)]
    else:
        rng = random.Random(seed)
        words = [BitVec.from_int(rng.randrange(total), code.n_qubits) for _ in range(sample)]
    images_outside = []
    degenerate = []
    one_to_one = True
    for w in words:
        nu = code.decode_vec(w)
        if nu not in declared:
            if reference_is_degenerate_image(code, nu):
                degenerate.append((w, nu))
            else:
                images_outside.append((w, nu))
        if code.encode_vec(nu) != w:
            one_to_one = False
    return ValidationReport(failures, images_outside, degenerate, one_to_one, len(words))


def reference_pack(terms):
    """Action item ``(flip, z, care, want, c)`` of each ladder product, or None
    when it vanishes on every state, walked operator by operator on Python
    ints: the product maps ``|w>`` to ``c (-1)^|w & z| |w ^ flip>`` when
    ``w & care == want``, else to 0."""
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


def item_columns(items, n_bits):
    """Python-int items ``(flip, z, care, want, c)`` as the oracle's columns:
    limb rows of the four masks, and the coefficients."""
    from fermicode.bitmath import _words

    rows = [_words([it[k] for it in items], n_bits) for k in range(4)]
    return (*rows, np.array([it[4] for it in items], dtype=complex))

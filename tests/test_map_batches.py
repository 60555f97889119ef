"""The batched operator map: ``transform_hamiltonian`` runs ``pauli._expand``
over chunks of terms and merges their columns once.

Its output must equal the per-term sum (``helpers.reference_transform``) bit
for bit and in term order, on random nonlinear codes and on linear and
segment codes, with non-dyadic complex coefficients. Its budget errors must
be the ones the per-term map raised first: the earliest term, in that
term's own check order, with each term's merge check before any check of
the next term, also when the terms fall into different chunks. The
messages below were recorded from the per-term map. The images of single
terms keep their signed zeros.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicode import codes, pauli
from fermicode.bitmath import BoolPoly
from fermicode.codes import Code, bravyi_kitaev, concat, jordan_wigner, load_code
from fermicode.errors import BudgetError
from fermicode.transform import (
    FermionHamiltonian,
    FermionTerm,
    transform_hamiltonian,
    transform_term,
)

from helpers import nonlinear_codes, reference_transform

CODES = st.one_of(
    nonlinear_codes().map(lambda drawn: drawn[0]),
    st.integers(1, 6).map(bravyi_kitaev),
    st.sampled_from(["segment:1:2", "segment:2:2", "segment:1:1+segment:1:2"]).map(load_code),
)
# Non-dyadic parts, and zero.
PARTS = st.integers(-10**6, 10**6).map(lambda k: k / 999_983)


@st.composite
def hamiltonians(draw, n_modes):
    """A few ladder products over the code's modes, drawn with repeats so
    that terms share strings, each with a complex coefficient."""
    op = st.tuples(st.integers(1, n_modes), st.booleans())
    pool = draw(st.lists(st.lists(op, max_size=4).map(tuple), min_size=1, max_size=6))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    terms = [FermionTerm.of(complex(draw(PARTS), draw(PARTS)), *ops) for ops in chosen]
    return FermionHamiltonian(n_modes, tuple(terms))


def _assert_same_as_per_term(code, h):
    got = transform_hamiltonian(code, h, check_hermiticity=False)
    want = reference_transform(code, h)
    assert got.serialize() == want.serialize()
    assert list(got.terms) == list(want.terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_map_equals_per_term_sum(data):
    code = data.draw(CODES)
    _assert_same_as_per_term(code, data.draw(hamiltonians(code.n_modes)))


def test_batched_map_past_64_qubits_equals_per_term_sum():
    # 99 modes on 66 qubits: the merge keys span three 64-bit words. The
    # terms act on the first and the last segment, whose pieces lie past bit 64.
    code = load_code("segment:1:33")
    pairs = [(1, 2), (2, 1), (98, 99), (99, 97), (3, 3), (97, 97), (2, 2), (98, 98)]
    terms = [FermionTerm.of(complex((i + 1) / 7, -(i % 3) / 11), (p, True), (q, False))
             for i, (p, q) in enumerate(pairs)]
    terms.append(FermionTerm.of(0.3, (1, True), (2, False), (98, True), (99, False)))
    terms.append(FermionTerm.of(-0.3, (99, True), (98, False), (2, True), (1, False)))
    _assert_same_as_per_term(code, FermionHamiltonian(99, tuple(terms)))


# Each image below was serialized by the per-term map; "-0" fields come from
# the products of complex coefficients with a negative zero part.
SIGNED_ZEROS = [
    ("jordan_wigner:3", FermionTerm.of(complex(-1.0, -0.0), (1, True), (2, False)),
     "-0.25 -0 X1*X2\n0 -0.25 X1*Y2\n-0 0.25 Y1*X2\n-0.25 -0 Y1*Y2\n"),
    ("bravyi_kitaev:4", FermionTerm.of(complex(-0.0, -0.75), (2, True), (3, False)),
     "0 -0.1875 X2*X3\n0.1875 0 X2*Y3\n-0.1875 -0 Z1*Y2*X3\n0 -0.1875 Z1*Y2*Y3\n"),
    ("bravyi_kitaev:4", FermionTerm.of(complex(-2.0, -0.0), (3, True), (3, False)),
     "-1 -0 I\n1 0 Z3\n"),
    ("jordan_wigner:2", FermionTerm(complex(-0.5, -0.0), ()), "-0.5 -0 I\n"),
    ("binary_addressing_k2:2", FermionTerm.of(complex(-0.0, 0.3), (4, True), (4, False)),
     "-0 0.1125 I\n-0 0.0375 Z1\n-0 0.0375 Z2\n0 -0.1125 Z3\n0 -0.0375 Z1*Z2\n"
     "0 -0.0375 Z1*Z3\n0 -0.0375 Z2*Z3\n-0 0.0375 Z1*Z2*Z3\n"),
    ("segment:1:2",
     FermionTerm.of(complex(-1.5, -0.0), (1, True), (2, False), (2, True), (3, False)),
     "-0.375 -0 X2\n0 -0.375 Y2\n0.375 0 Z1*X2\n-0 0.375 Z1*Y2\n"),
]


@pytest.mark.parametrize("spec, term, text", SIGNED_ZEROS)
def test_single_term_images_keep_signed_zeros(spec, term, text):
    assert transform_term(load_code(spec), term).serialize() == text


def _numbers(modes):
    return [(m, d) for m in modes for d in (True, False)]


def _flip_pattern_code():
    """Modes 1-4 on an encoding whose update at q = 0 has 14 flip patterns
    over all four qubits, then four Jordan-Wigner modes."""
    eps = [BoolPoly.from_text(4, t) for t in ("x1 + x2*x3", "x2", "x3 + x1*x4", "x4")]
    encode = tuple(e + BoolPoly.variable(4, j) for j, e in enumerate(eps, 1))
    variables = tuple(BoolPoly.variable(4, j) for j in range(1, 5))
    return concat(Code(4, 4, encode, variables), jordan_wigner(4))


T = FermionTerm.of
# (code, terms, budget, message): a later term's own check would fail too.
BUDGET_ORDER = [
    # Term 2's merge check comes before term 3's affine tables.
    ("jordan_wigner:6", [T(0.3, (1, True), (2, False)), T(0.45, (3, True), (4, False)),
                         T(0.7, *_numbers(range(1, 7)))], 6,
     "merge: term 2 (((0.45+0j)) +3 -4) brings the merged operator to 8 terms, "
     "over the budget of 6"),
    ("jordan_wigner:6", [T(0.3, (1, True), (2, False)), T(0.45, (3, True), (4, False)),
                         T(0.7, *_numbers(range(1, 7)))], 8,
     "term 3 (((0.7+0j)) +1 -1 +2 -2 +3 -3 +4 -4 +5 -5 +6 -6): "
     "expansion reached 16 terms, budget 8"),
    # Term 1's affine tables fit 4 rows; its update group then needs a
    # table over 3 qubits, before term 2's 16 affine rows.
    ("jordan_wigner:4+binary_addressing_k2:2",
     [T(0.3, (1, True), (2, False), (5, True), (6, False)), T(0.7, *_numbers(range(1, 5)))], 4,
     "term 1 (((0.3+0j)) +1 -2 +5 -6): table over a support of 3 qubits exceeds budget 4"),
    ("jordan_wigner:4+binary_addressing_k2:2",
     [T(0.3, (1, True), (2, False), (5, True), (6, False)), T(0.7, *_numbers(range(1, 5)))], 16,
     "term 2 (((0.7+0j)) +1 -1 +2 -2 +3 -3 +4 -4): expansion reached 20 terms, budget 16"),
    # Term 1's projector passes; its flip patterns fail before term 2's
    # eight affine tables reach 32 rows.
    (_flip_pattern_code, [T(0.3, *_numbers([1])), T(0.7, *_numbers(range(1, 9)))], 16,
     "term 1 (((0.3+0j)) +1 -1): 14 flip patterns need at least 196 terms, budget 16"),
]


@pytest.mark.parametrize("rows", [None, 1, 4])
@pytest.mark.parametrize("spec, terms, budget, message", BUDGET_ORDER)
def test_budget_errors_keep_the_per_term_order(monkeypatch, rows, spec, terms, budget, message):
    # rows=1 puts every term in a chunk of its own, rows=4 a few together.
    if rows is not None:
        monkeypatch.setattr(pauli, "_CHUNK_ROWS", rows)
    code = spec() if callable(spec) else load_code(spec)
    h = FermionHamiltonian(code.n_modes, tuple(terms))
    with pytest.raises(BudgetError) as exc:
        transform_hamiltonian(code, h, budget=budget, check_hermiticity=False)
    assert str(exc.value) == message


def test_small_chunks_give_the_same_operator(monkeypatch):
    code = load_code("segment:1:1+segment:1:2")
    terms = [T(complex(k / 7, 1 / (k + 3)), (p, True), (q, False))
             for k, (p, q) in enumerate([(1, 2), (2, 1), (3, 5), (5, 3), (4, 4), (1, 6)])]
    h = FermionHamiltonian(code.n_modes, tuple(terms))
    whole = transform_hamiltonian(code, h, check_hermiticity=False)
    monkeypatch.setattr(pauli, "_CHUNK_ROWS", 1)
    chunked = transform_hamiltonian(code, h, check_hermiticity=False)
    assert chunked.serialize() == whole.serialize()
    assert list(chunked.terms) == list(whole.terms)


def test_projectors_read_the_decode_tables(monkeypatch):
    # One-body and density-density terms through binary_addressing_k2:3: a
    # projector onto a nonlinear d_m reads the code's decode of its grid, so
    # the map tabulates no decode component itself (184 tables held one when
    # each projector tabulated its own, 8 when the map kept its own per grid)
    # and the code's table of the components its groups read, each of the 8
    # once, is built once over two calls.
    modes = range(1, 9)
    h = FermionHamiltonian(8, tuple(
        [T(0.5, (p, True), (q, False)) for p in modes for q in modes]
        + [T(0.3, *_numbers([i, j])) for i in modes for j in modes if i < j]))
    code = load_code("binary_addressing_k2:3")
    components = {id(d.masks) for d in code.decode}
    calls = {pauli: [], codes: []}

    def counting(module):
        real = module._table

        def table(polys, n_vars, width):
            polys = list(polys)
            calls[module].extend(id(masks) in components for _, masks in polys)
            return real(polys, n_vars, width)

        return table

    for module in calls:
        monkeypatch.setattr(module, "_table", counting(module))
    transform_hamiltonian(code, h)
    transform_hamiltonian(code, h)
    assert (sum(calls[pauli]), sum(calls[codes])) == (0, 8)

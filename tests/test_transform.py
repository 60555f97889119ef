import hashlib
import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermicode import pauli, transform
from fermicode.bitmath import BitMat, BitVec, BoolPoly
from fermicode.codes import (
    Code,
    binary_addressing_k1,
    binary_addressing_k2,
    bravyi_kitaev,
    checksum_code,
    concat,
    enumerate_basis,
    jordan_wigner,
    linear_code,
    load_code,
    parity_code,
    parse_basis_spec,
    segment_code,
)
from fermicode.cli import h2_code, h2_hamiltonian, hubbard_hamiltonian
from fermicode.errors import (
    BudgetError,
    DimensionError,
    InputFormatError,
    NonHermitianError,
    UnsupportedCodeError,
)
from fermicode.fock_oracle import (
    FockStateVector,
    QubitStateVector,
    apply_hamiltonian_fock,
    apply_qubit_operator,
    verify_anticommutation,
    verify_equivalence,
)
from fermicode.pauli import DEFAULT_PRUNE, PauliString, QubitOperator, flip_operator
from fermicode.transform import (
    FermionHamiltonian,
    FermionTerm,
    LinearSets,
    adjust_for_segments,
    format_fermion_file,
    linear_sets,
    normal_order_blocks,
    parity_function,
    parse_fermion_file,
    transform_hamiltonian,
    transform_op_linear,
    transform_single_two_codes,
    transform_term,
    update_operator,
)

from helpers import (
    dense_fermion_hamiltonian,
    dense_fermion_term,
    dense_operator,
    nonlinear_codes,
    random_invertible_bitmat,
)


class TestParityFunction:
    def test_jw_examples(self):
        jw = jordan_wigner(4)
        assert parity_function(jw, 1).is_zero()
        assert parity_function(jw, 3) == BoolPoly.from_text(4, "x1 + x2")

    def test_checksum_example(self):
        c = checksum_code(4, "even")
        assert parity_function(c, 4) == BoolPoly.from_text(3, "x1 + x2 + x3")

    def test_replaced_code_gets_fresh_cache(self):
        from dataclasses import replace

        jw = jordan_wigner(4)
        assert parity_function(jw, 3) == BoolPoly.from_text(4, "x1 + x2")
        zeros = replace(jw, decode=tuple(BoolPoly.zero(4) for _ in range(4)))
        assert parity_function(zeros, 3).is_zero()

    def test_mode_out_of_range_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match=r"^mode 5 outside 1\.\.4$"):
            parity_function(jordan_wigner(4), 5)


class TestUpdateOperator:
    def test_jw_constant(self):
        jw = jordan_wigner(3)
        u = update_operator(jw, BitVec("110"))
        assert u == QubitOperator.x_string(3, 0b011)

    def test_linear_code_constant_equals_aq(self):
        rng = random.Random(5)
        a = random_invertible_bitmat(rng, 5)
        c = linear_code(a)
        q = BitVec.from_int(rng.randrange(1 << 5), 5)
        u = update_operator(c, q)
        assert u == QubitOperator.x_string(5, (a @ q).value)

    def test_binary_addressing_example(self):
        c = binary_addressing_k1(2)
        q = BitVec("1100")  # u1 + u2
        u = update_operator(c, q)
        got = apply_qubit_operator(u, QubitStateVector.basis_state(BitVec("00")))
        assert got.isclose(QubitStateVector.basis_state(BitVec("10")), 1e-12)

    def test_jw_x_string(self):
        jw = jordan_wigner(4)
        u = update_operator(jw, BitVec("1100"))
        assert u == QubitOperator.x_string(4, 0b0011)

    def test_parity_code_column(self):
        c = parity_code(4)
        u = update_operator(c, BitVec("0100"))
        assert u == QubitOperator.x_string(4, 0b1110)

    def test_nonlinear_demand_binary_addressing(self):
        from fermicode.codes import binary_addressing_k1

        c = binary_addressing_k1(2)
        q = BitVec("1010")  # u1 + u3
        u = update_operator(c, q)
        for mode in (1, 3):
            nu = BitVec.unit(4, mode)
            got = apply_qubit_operator(u, QubitStateVector.basis_state(c.encode_vec(nu)))
            want = QubitStateVector.basis_state(c.encode_vec(nu + q))
            assert got.isclose(want, 1e-12)

    def test_k2_r6_update_moves_encoded_pairs(self):
        # 64 modes on 11 qubits: each occupation word fills a whole 64-bit limb.
        c = binary_addressing_k2(6)
        q = BitVec.unit(64, 1) + BitVec.unit(64, 41)
        u = update_operator(c, q)
        for a, b in [(1, 2), (1, 64), (7, 41), (41, 63)]:
            nu = BitVec.unit(64, a) + BitVec.unit(64, b)
            got = apply_qubit_operator(u, QubitStateVector.basis_state(c.encode_vec(nu)))
            want = QubitStateVector.basis_state(c.encode_vec(nu + q))
            assert got.isclose(want, 1e-12), (a, b)

    def test_term_count_over_budget_raises(self):
        # The update has 400 terms; it must abort, not return them.
        c = concat(binary_addressing_k2(2), binary_addressing_k2(2))
        q = BitVec.from_int(0b11, 8)
        assert update_operator(c, q).num_terms == 400
        with pytest.raises(BudgetError, match="budget 100"):
            update_operator(c, q, budget=100)

    @pytest.mark.parametrize("make, arg", [(jordan_wigner, 3), (binary_addressing_k2, 2)])
    def test_wrong_length_q_raises_for_both_code_kinds(self, make, arg):
        c = make(arg)
        with pytest.raises(DimensionError, match=f"q has length 5, expected {c.n_modes}$"):
            update_operator(c, BitVec.zeros(5))

    def test_table_over_budget_names_support(self):
        c = binary_addressing_k2(2)  # epsilon components span all 3 qubits
        q = BitVec.from_int(0b11, 4)
        assert update_operator(c, q).num_terms == 20
        with pytest.raises(BudgetError, match="support of 3 qubits"):
            update_operator(c, q, budget=7)


def _composed_epsilon(encode, decode, q):
    """Reference update flips w -> encode(decode(w) + q) + w, composed symbolically."""
    n = decode[0].num_vars
    shifted = [d + BoolPoly.constant(n, q[m]) for m, d in enumerate(decode, 1)]
    return [e.compose(shifted) + BoolPoly.variable(n, j) for j, e in enumerate(encode, 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_update_matches_composed_epsilon(data):
    code, _ = data.draw(nonlinear_codes())
    # A linear encoding takes the constant mask e(q), equal to eps on e(V) only.
    assume(not code.encode_is_linear)
    q = BitVec.from_int(data.draw(st.integers(0, (1 << code.n_modes) - 1)), code.n_modes)
    eps = _composed_epsilon(code.encode, code.decode, q)
    assert update_operator(code, q) == flip_operator(code.n_qubits, eps)


@st.composite
def linear_encodings(draw):
    """Builtin codes with linear encodings (N up to 70, past one 64-bit word),
    a concatenation of two of them, or a random invertible matrix's code."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        return linear_code(random_invertible_bitmat(rng, draw(st.integers(1, 70))))
    weight = draw(st.integers(1, 2))  # concatenated segment codes share one K
    names = st.one_of(
        st.builds("{}:{}".format, st.sampled_from(["jordan_wigner", "parity", "bravyi_kitaev"]),
                  st.integers(1, 70)),
        st.builds("checksum:{}:{}".format, st.integers(2, 70), st.sampled_from(["even", "odd"])),
        st.builds("segment:{}:{}".format, st.just(weight), st.integers(1, 3)),
    )
    return load_code("+".join(draw(st.lists(names, min_size=1, max_size=2))))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_update_is_the_encoded_difference(data):
    code = data.draw(linear_encodings())
    n = code.n_modes
    v, q = (BitVec.from_int(data.draw(st.integers(0, (1 << n) - 1)), n) for _ in range(2))
    flips = code.encode_vec(v + q) + code.encode_vec(v)
    assert update_operator(code, q) == QubitOperator.x_string(code.n_qubits, flips.value)


@st.composite
def sector_code_pairs(draw):
    """An even/odd checksum pair, or a random code and its copy with every
    code word XOR-ed by a fixed mask, so the two sectors' codes differ."""
    if draw(st.booleans()):
        n_modes = draw(st.integers(2, 6))
        return checksum_code(n_modes, "even"), checksum_code(n_modes, "odd")
    code, _ = draw(nonlinear_codes())
    n, mask = code.n_qubits, draw(st.integers(1, (1 << code.n_qubits) - 1))
    moved = [BoolPoly.variable(n, i) + BoolPoly.constant(n, mask >> i - 1 & 1)
             for i in range(1, n + 1)]
    other = replace(
        code,
        encode=tuple(e + BoolPoly.constant(code.n_modes, mask >> i & 1)
                     for i, e in enumerate(code.encode)),
        decode=tuple(d.compose(moved) for d in code.decode),
    )
    return code, other


@settings(max_examples=40, deadline=None)
@given(codes=sector_code_pairs(), data=st.data())
def test_two_code_single_matches_composed_epsilon(codes, data):
    even, odd = codes
    j = data.draw(st.integers(1, even.n_modes))
    dagger = data.draw(st.booleans())
    incoming, outgoing = (odd, even) if dagger else (even, odd)
    eps = _composed_epsilon(outgoing.encode, incoming.decode, BitVec.unit(even.n_modes, j))
    n = even.n_qubits
    expected = np.zeros((1 << n, 1 << n))
    for w in range(1 << n):
        occupied = [d.evaluate(w) for d in incoming.decode]
        if occupied[j - 1] != dagger:
            t = sum(e.evaluate(w) << i for i, e in enumerate(eps))
            expected[w ^ t, w] = (-1.0) ** sum(occupied[: j - 1])
    got = dense_operator(transform_single_two_codes(even, odd, j, dagger))
    assert np.allclose(got, expected, atol=1e-12)


@st.composite
def affine_codes(draw):
    """``(code, basis, odd_terms)``: a random affine n = N code (invertible A
    and offset c, e(v) = A v + c and d(w) = A^-1 (w + c)) on all 2^N states,
    or ``checksum:N:even|odd`` on its parity sector, for N = 2..6. A
    checksum code keeps only parity-conserving terms in its sector."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        flavor = draw(st.sampled_from(["even", "odd"]))
        parity = int(flavor == "odd")
        basis = [BitVec.from_int(v, n) for v in range(1 << n) if v.bit_count() % 2 == parity]
        return checksum_code(n, flavor), basis, False
    base = linear_code(random_invertible_bitmat(random.Random(draw(st.integers(0, 2**32))), n))
    c = draw(st.integers(0, (1 << n) - 1))
    encode = tuple(e + BoolPoly.constant(n, c >> i & 1) for i, e in enumerate(base.encode))
    code = Code(n, n, encode, tuple(d + BoolPoly.constant(n, d.evaluate(c)) for d in base.decode))
    return code, [BitVec.from_int(v, n) for v in range(1 << n)], True


def assert_matches_dense(code, basis, term):
    """``transform_term`` acts on the encoded ``basis`` as ``term`` does. The
    map drops strings with |c| <= ``DEFAULT_PRUNE``, and a matrix element is
    a sum over at most 2**n strings, so it may be off by that much."""
    occupied = [nu.value for nu in basis]
    encoded = [code.encode_vec(nu).value for nu in basis]
    expected = np.zeros((1 << code.n_qubits, len(basis)), dtype=complex)
    expected[encoded] = dense_fermion_term(code.n_modes, term)[np.ix_(occupied, occupied)]
    got = dense_operator(transform_term(code, term))[:, encoded]
    np.testing.assert_allclose(got, expected, atol=1e-12 + 2**code.n_qubits * DEFAULT_PRUNE)


@settings(max_examples=80, deadline=None)
@given(codes=affine_codes(), data=st.data())
def test_affine_decodes_match_dense_action(codes, data):
    # Every factor is affine; the checksum's decode rows are dependent, so
    # its projector products meet and cancel in the Z-mask dict.
    code, basis, odd_terms = codes
    n = code.n_modes
    length = data.draw(st.sampled_from([1, 2, 3, 4] if odd_terms else [2, 4]))
    ops = data.draw(st.lists(st.tuples(st.integers(1, n), st.booleans()),
                             min_size=length, max_size=length))
    term = FermionTerm.of(complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1))), *ops)
    assert_matches_dense(code, basis, term)


def test_coefficient_at_the_prune_threshold_matches_dense_action():
    # Decode (x1 + x2, x1): both image strings of c_1 have |c| = 7.1e-13 <=
    # DEFAULT_PRUNE, so the map returns 0 against a 1.41e-12 matrix element.
    code = linear_code(BitMat(["01", "11"]))
    term = FermionTerm.of(1e-12 + 1e-12j, (1, False))
    assert transform_term(code, term).is_zero()
    assert_matches_dense(code, [BitVec.from_int(v, 2) for v in range(4)], term)


class TestTransformTerm:
    def test_jw_number_operator(self):
        jw = jordan_wigner(3)
        op = transform_term(jw, FermionTerm.of(1.0, (2, True), (2, False)))
        want = QubitOperator.identity(3, 0.5) + QubitOperator.z_string(3, 0b010, -0.5)
        assert op.isclose(want, 1e-12)

    def test_jw_singles_formula(self):
        # 1/2 (X_j + i(-1)^b Y_j) Z_{<j}
        jw = jordan_wigner(3)
        for j in range(1, 4):
            for dagger in (False, True):
                op = transform_term(jw, FermionTerm.of(1.0, (j, dagger)))
                zmask = (1 << (j - 1)) - 1
                sign = -1j if dagger else 1j
                want = QubitOperator(
                    3,
                    {
                        PauliString.from_masks(3, 1 << (j - 1), zmask): 0.5,
                        PauliString.from_masks(3, 1 << (j - 1), zmask | (1 << (j - 1))): 0.5 * sign,
                    },
                )
                assert op.isclose(want, 1e-12), (j, dagger)

    def test_identity_term(self):
        jw = jordan_wigner(2)
        op = transform_term(jw, FermionTerm.of(2.5))
        assert op == QubitOperator.identity(2, 2.5)

    def test_term_matches_dense_fermion_matrix(self):
        rng = random.Random(13)
        jw = jordan_wigner(4)
        for _ in range(30):
            length = rng.choice([1, 2, 3, 4])
            ops = tuple((rng.randrange(1, 5), rng.random() < 0.5) for _ in range(length))
            term = FermionTerm(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), ops)
            got = dense_operator(transform_term(jw, term))
            want = dense_fermion_term(4, term)
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("ops", [((1, True), (1, True)),
                                     ((1, True), (6, False), (1, True), (1, False))])
    def test_vanishing_product_is_zero_under_any_budget(self, ops):
        # A product that needs mode 1 both empty and occupied builds no
        # factor, so no group table can trip a budget of 1.
        code = load_code("segment:2:2+segment:2:2")
        term = FermionTerm.of(1.0, *ops)
        assert transform_term(code, term).is_zero()
        assert transform_term(code, term, budget=1).is_zero()

    @pytest.mark.parametrize("mode", [0, 5])
    def test_out_of_range_mode_is_named(self, mode):
        term = FermionTerm.of(1.0, (mode, True))
        with pytest.raises(DimensionError, match=rf"^mode {mode} outside 1\.\.4$"):
            transform_term(jordan_wigner(4), term)
        with pytest.raises(DimensionError, match=rf"^mode {mode} outside 1\.\.4$"):
            transform_single_two_codes(checksum_code(4, "even"), checksum_code(4, "odd"), mode, True)

    def test_h2_support(self):
        code = h2_code()
        h = h2_hamiltonian(1.0, 0.5, 0.2, 0.2, 0.3, 0.1)
        total = transform_hamiltonian(code, h)
        support = {s.text() for s in total.terms}
        assert support == {"I", "X1*X2", "Z1", "Z2", "Z1*Z2"}


class TestLinearSets:
    def test_jw_sets(self):
        jw = jordan_wigner(4)
        s = linear_sets(jw, 3)
        assert s.parity_set == {1, 2}
        assert s.flip_set == {3}
        assert s.update_set == {3}

    def test_parity_sets(self):
        c = parity_code(4)
        s2 = linear_sets(c, 2)
        assert s2.flip_set == {1, 2}
        assert s2.update_set == {2, 3, 4}
        assert linear_sets(c, 1).parity_set == frozenset()

    def test_sets_read_the_parity_function_and_the_matrices(self):
        # The parity set XORs the decode's Z masks below j: the support of
        # parity_function(code, j), row j of R A^-1.
        rng = random.Random(71)
        for n in range(1, 9):
            code = linear_code(random_invertible_bitmat(rng, n))
            for j in range(1, n + 1):
                s = linear_sets(code, j)
                assert s.parity_set == frozenset(BitVec.from_int(
                    parity_function(code, j).support(), n).ones())
                assert s.flip_set == frozenset(code.matrix_inv.row(j).ones())
                assert s.update_set == frozenset(code.matrix.col(j).ones())
        with pytest.raises(DimensionError, match=r"^mode 0 outside 1\.\.4$"):
            linear_sets(jordan_wigner(4), 0)

    def test_requires_linear_code(self):
        with pytest.raises(UnsupportedCodeError):
            linear_sets(checksum_code(4, "even"), 1)
        x1, x2 = BoolPoly.variable(2, 1), BoolPoly.variable(2, 2)
        not_inverse = Code(2, 2, encode=(x1, x2), decode=(x1, x1 + x2))
        affine = Code(2, 2, encode=(x1, x2), decode=(x1 + BoolPoly.one(2), x2))
        for code in (segment_code(1, 2), binary_addressing_k1(2), binary_addressing_k2(2),
                     not_inverse, affine):
            assert code.matrix is None and code.matrix_inv is None
            with pytest.raises(UnsupportedCodeError):
                linear_sets(code, 1)


class TestLinearFastPath:
    def test_mode_out_of_range_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match=r"^mode 7 outside 1\.\.4$"):
            transform_op_linear(jordan_wigner(4), 7, True)

    def test_jw_creation_formula(self):
        jw = jordan_wigner(3)
        op = transform_op_linear(jw, 2, dagger=True)
        want = QubitOperator(
            3,
            {
                PauliString(3, {1: "Z", 2: "X"}): 0.5,
                PauliString(3, {1: "Z", 2: "Y"}): -0.5j,
            },
        )
        assert op.isclose(want, 1e-12)

    def test_parity_transform_formula(self):
        # 1/2 (Z_{j-1} X_j + i(-1)^b Y_j) X_{>j}
        c = parity_code(4)
        for j in range(2, 5):
            for dagger in (True, False):
                op = transform_op_linear(c, j, dagger)
                tail = ((1 << 4) - 1) & ~((1 << j) - 1)
                sign = -1j if dagger else 1j
                want = QubitOperator(
                    4,
                    {
                        PauliString.from_masks(
                            4, (1 << (j - 1)) | tail, 1 << (j - 2)
                        ): 0.5,
                        PauliString.from_masks(
                            4, (1 << (j - 1)) | tail, 1 << (j - 1)
                        ): 0.5 * sign,
                    },
                )
                assert op.isclose(want, 1e-12), (j, dagger)

    @pytest.mark.parametrize("make", [jordan_wigner, parity_code, bravyi_kitaev])
    def test_equals_general_map(self, make):
        for n in (2, 3, 5):
            code = make(n)
            for j in range(1, n + 1):
                for dagger in (False, True):
                    fast = transform_op_linear(code, j, dagger)
                    general = transform_term(code, FermionTerm.of(1.0, (j, dagger)))
                    assert fast.isclose(general, 1e-12)
            # composed two-operator products agree as well
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                composed = transform_op_linear(code, i, True) * transform_op_linear(
                    code, j, False
                )
                general = transform_term(
                    code, FermionTerm.of(1.0, (i, True), (j, False))
                )
                assert composed.isclose(general, 1e-12)

    def test_matrices_follow_replaced_encode_and_decode(self):
        bk = bravyi_kitaev(3)
        code = replace(jordan_wigner(3), encode=bk.encode, decode=bk.decode)
        assert (code.matrix, code.matrix_inv) == (bk.matrix, bk.matrix_inv)
        for j in range(1, 4):
            for dagger in (False, True):
                general = transform_term(code, FermionTerm.of(1.0, (j, dagger)))
                assert transform_op_linear(code, j, dagger).isclose(general, 1e-12)

    def test_concatenated_linear_codes_take_the_fast_path(self):
        code = concat(jordan_wigner(2), bravyi_kitaev(2))
        assert linear_sets(code, 4) == LinearSets(
            parity_set=frozenset({1, 2, 3}), flip_set=frozenset({3, 4}), update_set=frozenset({4}),
        )
        assert verify_anticommutation(code).ok
        for j in range(1, 5):
            for dagger in (False, True):
                general = transform_term(code, FermionTerm.of(1.0, (j, dagger)))
                assert transform_op_linear(code, j, dagger).isclose(general, 1e-12)


class TestTwoCodeSingles:
    def setup_method(self):
        self.even = checksum_code(4, "even")
        self.odd = checksum_code(4, "odd")
        self.even_states = [
            BitVec.from_int(v, 4) for v in range(16) if bin(v).count("1") % 2 == 0
        ]

    def _matches_on_even_basis(self, op, ref):
        for nu in self.even_states:
            w = QubitStateVector.basis_state(self.even.encode_vec(nu))
            if not apply_qubit_operator(op, w).isclose(apply_qubit_operator(ref, w), 1e-9):
                return False
        return True

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_number_operator_product(self, j):
        prod = transform_single_two_codes(
            self.even, self.odd, j, True
        ) * transform_single_two_codes(self.even, self.odd, j, False)
        ref = transform_term(self.even, FermionTerm.of(1.0, (j, True), (j, False)))
        assert self._matches_on_even_basis(prod, ref)

    def test_hops_match_pair_recipe(self):
        for i, j in itertools.permutations(range(1, 5), 2):
            prod = transform_single_two_codes(
                self.even, self.odd, i, True
            ) * transform_single_two_codes(self.even, self.odd, j, False)
            ref = transform_term(self.even, FermionTerm.of(1.0, (i, True), (j, False)))
            assert self._matches_on_even_basis(prod, ref), (i, j)

    def test_annihilates_unencodable_images(self):
        even = checksum_code(2, "even")
        odd = checksum_code(2, "odd")
        # creation on an occupied mode must vanish
        op = transform_single_two_codes(even, odd, 1, True)
        w = QubitStateVector.basis_state(odd.encode_vec(BitVec("10")))
        assert not apply_qubit_operator(op, w).amplitudes


class TestTransformPair:
    def test_diagonal_case(self):
        jw = jordan_wigner(3)
        got = transform_term(jw, FermionTerm.of(1.0, (2, True), (2, False)))
        want = QubitOperator.identity(3, 0.5) + QubitOperator.z_string(3, 0b010, -0.5)
        assert got.isclose(want, 1e-12)

    def test_h2_code_pairs_against_oracle(self):
        code = h2_code()
        basis = [BitVec("0101"), BitVec("0110"), BitVec("1001"), BitVec("1010")]
        for i, j in [(1, 2), (2, 1), (3, 4), (4, 3)]:
            term = FermionTerm.of(1.0, (i, True), (j, False))
            op = transform_term(code, term)
            for nu in basis:
                from fermicode.fock_oracle import apply_fermion_term

                hit = apply_fermion_term(term, nu)
                want = (
                    QubitStateVector(code.n_qubits, {})
                    if hit is None or not code.in_basis(hit[1])
                    else QubitStateVector(
                        code.n_qubits, {code.encode_vec(hit[1]): hit[0]}
                    )
                )
                got = apply_qubit_operator(
                    op, QubitStateVector.basis_state(code.encode_vec(nu))
                )
                assert got.isclose(want, 1e-9), (i, j, str(nu))


class TestNormalOrdering:
    def test_already_blocked_unchanged(self):
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True), (2, False)),))
        out = normal_order_blocks(h)
        assert out.terms == h.terms

    def test_printed_rewrite(self):
        h = FermionHamiltonian(
            2, (FermionTerm.of(1.0, (1, True), (2, True), (2, False), (1, False)),)
        )
        out = normal_order_blocks(h)
        assert len(out.terms) == 1
        assert out.terms[0].ops == ((1, True), (1, False), (2, True), (2, False))
        assert out.terms[0].coeff == 1.0

    def test_action_preserved_on_all_occupations(self):
        h = FermionHamiltonian(
            2, (FermionTerm.of(1.0, (1, True), (2, True), (1, False), (2, False)),)
        )
        out = normal_order_blocks(h)
        assert np.allclose(
            dense_fermion_hamiltonian(h), dense_fermion_hamiltonian(out), atol=1e-12
        )

    def test_random_sequences_preserved(self):
        rng = random.Random(19)
        for _ in range(40):
            n = 4
            length = rng.choice([2, 4, 6])
            modes = [rng.randrange(1, n + 1) for _ in range(length)]
            daggers = [True] * (length // 2) + [False] * (length // 2)
            rng.shuffle(daggers)
            term = FermionTerm(1.0, tuple(zip(modes, daggers)))
            h = FermionHamiltonian(n, (term,))
            out = normal_order_blocks(h)
            for t in out.terms:
                assert all(d == (idx % 2 == 0) for idx, (_, d) in enumerate(t.ops))
            assert np.allclose(
                dense_fermion_hamiltonian(h), dense_fermion_hamiltonian(out), atol=1e-12
            )

    def test_rejects_non_conserving(self):
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True)),))
        with pytest.raises(UnsupportedCodeError):
            normal_order_blocks(h)

    def test_each_merged_term_is_built_once(self, monkeypatch):
        h = hubbard_hamiltonian(2, 5)
        built = _counting_terms(monkeypatch)
        blocked = normal_order_blocks(h)
        assert (len(built), len(blocked.terms)) == (70, 70)


def _counting_terms(monkeypatch) -> list:
    """A list that grows by one at each ``FermionTerm.__init__`` call from now on."""
    built, real = [], FermionTerm.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(FermionTerm, "__init__", counting)
    return built


class TestSegmentAdjustment:
    SEGMENTS = ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))

    def test_same_segment_untouched(self):
        h = FermionHamiltonian(10, (FermionTerm.of(1.0, (1, True), (2, False)),))
        out = adjust_for_segments(h, self.SEGMENTS, 2)
        assert out.terms == h.terms

    def test_full_target_segment_annihilates(self):
        # two particles in segment A plus one at j in B: the dressed hop
        # must send the state to zero instead of overfilling A
        hop = FermionHamiltonian(10, (FermionTerm.of(1.0, (5, True), (6, False)),))
        dressed = adjust_for_segments(hop, self.SEGMENTS, 2)
        from fermicode.fock_oracle import FockStateVector, apply_hamiltonian_fock

        state = FockStateVector.basis_state(BitVec("1100010000"))
        out = apply_hamiltonian_fock(dressed, state)
        assert not out.amplitudes
        # with only one particle in A the hop goes through unchanged
        state2 = FockStateVector.basis_state(BitVec("1000010000"))
        out2 = apply_hamiltonian_fock(dressed, state2)
        assert out2.amplitudes == {BitVec("1000100000"): 1.0}

    def test_action_preserved_on_capped_states(self):
        hop = FermionHamiltonian(
            10,
            (
                FermionTerm.of(1.0, (5, True), (6, False)),
                FermionTerm.of(1.0, (6, True), (5, False)),
            ),
        )
        dressed = adjust_for_segments(hop, self.SEGMENTS, 2)
        from fermicode.fock_oracle import FockStateVector, apply_hamiltonian_fock

        rng = random.Random(3)
        for _ in range(40):
            a = rng.sample(range(1, 6), rng.randrange(0, 3))
            b = rng.sample(range(6, 11), rng.randrange(0, 3))
            occ = sum(1 << (m - 1) for m in a + b)
            nu = BitVec.from_int(occ, 10)
            s = FockStateVector.basis_state(nu)
            raw = apply_hamiltonian_fock(hop, s)
            adj = apply_hamiltonian_fock(dressed, s)
            raw_capped = {
                k: v
                for k, v in raw.amplitudes.items()
                if all(
                    sum(k[m] for m in seg) <= 2 for seg in self.SEGMENTS
                )
            }
            assert adj.amplitudes == raw_capped

    def test_dressed_pair_hermitian_dense(self):
        # reduced-size lattice: 8 modes, segments of two, dense check
        h = hubbard_hamiltonian(2, 2, 1.0, 1.0, periodic_lateral=False)
        segments = ((1, 2), (3, 4), (5, 6), (7, 8))
        for weight in (1, 2):
            dressed = adjust_for_segments(normal_order_blocks(h), segments, weight)
            m = dense_fermion_hamiltonian(dressed)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_unblocked_term_is_dressed(self):
        # c6 c5^dag c1^dag c1 gains one particle in A and loses one in B; out
        # of block form it takes the same caps, so it acts as its
        # normal-ordered form dressed.
        term = FermionTerm.of(0.5, (6, False), (5, True), (1, True), (1, False))
        h = FermionHamiltonian(10, (term, _adjoint(term)))
        dressed = adjust_for_segments(h, self.SEGMENTS, 2)
        assert dressed.terms[0] == term
        assert len(dressed.terms) == 2 * 11 * 11
        assert np.array_equal(
            dense_fermion_hamiltonian(dressed),
            dense_fermion_hamiltonian(adjust_for_segments(normal_order_blocks(h), self.SEGMENTS, 2)),
        )

    def test_gain_of_two_needs_room_for_two(self):
        # c1^dag c2^dag gains two in A, so with K = 2 it acts only where A is empty.
        from fermicode.fock_oracle import FockStateVector, apply_hamiltonian_fock

        pair = FermionTerm.of(1.0, (1, True), (2, True))
        dressed = adjust_for_segments(FermionHamiltonian(10, (pair,)), self.SEGMENTS, 2)
        for occ, want in [("0000000000", {BitVec("1100000000"): 1.0}),
                          ("0010000000", {}),
                          ("0000010000", {BitVec("1100010000"): 1.0})]:
            out = apply_hamiltonian_fock(dressed, FockStateVector.basis_state(BitVec(occ)))
            assert out.amplitudes == want, occ

    def test_gain_above_weight_drops_out(self):
        # Three creations in A cannot act on states with at most two there.
        fill = FermionTerm.of(1.0, (1, True), (2, True), (3, True))
        hop = FermionHamiltonian(10, (FermionTerm.of(1.0, (1, True), (6, False)),))
        h = FermionHamiltonian(10, (fill, _adjoint(fill)) + hop.terms)
        assert adjust_for_segments(h, self.SEGMENTS, 2).terms == (
            adjust_for_segments(hop, self.SEGMENTS, 2).terms
        )

    def test_each_dressed_term_is_built_once(self, monkeypatch):
        h = hubbard_hamiltonian(2, 5)
        code = load_code("segment:2:2+segment:2:2")
        built = _counting_terms(monkeypatch)
        dressed = adjust_for_segments(h, code.segments, code.segment_weight)
        assert (len(built), len(dressed.terms)) == (2470, 2470)

    def test_segment_mode_outside_the_hamiltonian_is_named(self):
        # Hubbard 1x12 has 24 modes; segment:2:3+segment:2:3 has segments up to mode 30.
        h = hubbard_hamiltonian(1, 12, 1.0, 1.0)
        code = load_code("segment:2:3+segment:2:3")
        message = r"^segment mode 25 outside the Hamiltonian's 1\.\.24$"
        with pytest.raises(DimensionError, match=message):
            adjust_for_segments(h, code.segments, code.segment_weight)
        with pytest.raises(DimensionError, match=r"^segment mode 0 outside"):
            adjust_for_segments(h, ((0, 1),), 1)


def _adjoint(term):
    return FermionTerm.of(term.coeff.conjugate(), *((m, not d) for m, d in reversed(term.ops)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dressing_acts_as_the_projected_hamiltonian(data):
    # Ladder products in any order and of any particle change, each with its
    # adjoint: the dressed Hamiltonian is hermitian on the full Fock space, on
    # states with at most K particles per segment it acts as the raw one with
    # overfilled outputs removed, and its image verifies on that basis.
    weight = data.draw(st.integers(1, 2))
    code = segment_code(weight, data.draw(st.integers(1, 3 if weight == 1 else 2)))
    n = code.n_modes
    products = st.lists(st.tuples(st.integers(1, n), st.booleans()), min_size=1, max_size=4)
    coeffs = st.sampled_from([1.0, -0.5, 0.25 + 0.75j])
    terms = []
    for ops, coeff in data.draw(st.lists(st.tuples(products, coeffs), min_size=1, max_size=2)):
        term = FermionTerm.of(coeff, *ops)
        terms += [term, _adjoint(term)]
    h = FermionHamiltonian(n, tuple(terms))
    dressed = adjust_for_segments(h, code.segments, weight)
    m = dense_fermion_hamiltonian(dressed)
    assert np.max(np.abs(m - m.conj().T), initial=0.0) < 1e-12
    states = np.arange(1 << n)
    counts = [sum(states >> (j - 1) & 1 for j in seg) for seg in code.segments]
    capped = np.all([c <= weight for c in counts], axis=0)
    raw = dense_fermion_hamiltonian(h)[:, capped]
    raw[~capped] = 0
    assert np.allclose(m[:, capped], raw, atol=1e-12)
    hq = transform_hamiltonian(code, dressed)
    spec = ";".join(
        f"{seg[0]}-{seg[-1]}:{','.join(map(str, range(weight + 1)))}" for seg in code.segments
    )
    basis = enumerate_basis(parse_basis_spec(spec, n))
    assert verify_equivalence(code, dressed, hq, basis).status == "pass"


def _dressed_hubbard_2x5():
    code = load_code("segment:2:2+segment:2:2")
    h = hubbard_hamiltonian(2, 5, 1.0, 1.0, periodic_lateral=True)
    return code, adjust_for_segments(h, code.segments, code.segment_weight)


class TestHamiltonianTransform:
    def test_empty_hamiltonian(self):
        jw = jordan_wigner(3)
        out = transform_hamiltonian(jw, FermionHamiltonian(3, ()))
        assert out.is_zero()

    def test_k2_r6_hamiltonian_moves_encoded_pairs(self):
        # 64 modes on 11 qubits: hops and densities on modes 1, 41, 63 and 64
        # through the nonlinear encoding, with every occupation word filling
        # a whole limb. The sha256 was recorded before the map's group tables
        # moved onto the shared evaluator.
        c = binary_addressing_k2(6)
        h = FermionHamiltonian(64, (
            FermionTerm.of(0.5, (1, True), (41, False)),
            FermionTerm.of(0.5, (41, True), (1, False)),
            FermionTerm.of(-0.25, (63, True), (64, False)),
            FermionTerm.of(-0.25, (64, True), (63, False)),
            FermionTerm.of(0.75, (64, True), (64, False)),
            FermionTerm.of(0.3, (41, True), (41, False), (63, True), (63, False)),
        ))
        hq = transform_hamiltonian(c, h)
        assert hashlib.sha256(hq.serialize().encode()).hexdigest() == (
            "3661f8d869cb78ee338046d8d1fd6ffaf49f1b09444f6132ff0ee49ad520ae73")
        for a, b in [(1, 63), (1, 64), (41, 63), (41, 64), (7, 41)]:
            nu = BitVec.unit(64, a) + BitVec.unit(64, b)
            image = apply_hamiltonian_fock(h, FockStateVector.basis_state(nu)).amplitudes
            want = QubitStateVector(11, {c.encode_vec(m): v for m, v in image.items()})
            got = apply_qubit_operator(hq, QubitStateVector.basis_state(c.encode_vec(nu)))
            assert got.isclose(want, 1e-12), (a, b)

    def test_h2_five_terms(self):
        code = h2_code()
        hq = transform_hamiltonian(code, h2_hamiltonian(1.0, 0.5, 0.2, 0.2, 0.3, 0.1))
        assert hq.num_terms == 5
        ok, _ = hq.check_hermitian()
        assert ok

    def test_wrap_hop_across_three_blocks_verifies(self):
        # Periodic 1x9 Hubbard: the wrap hop 1 <-> 9 of each spin crosses all
        # three segment blocks, so its parity spans them too.
        code = load_code("segment:1:3+segment:1:3")
        h = hubbard_hamiltonian(1, 9, 1.0, 1.0, periodic_lateral=True)
        prepared = adjust_for_segments(
            normal_order_blocks(h), code.segments, code.segment_weight
        )
        hq = transform_hamiltonian(code, prepared)
        basis = enumerate_basis(parse_basis_spec("1-9:1;10-18:1", 18))
        assert verify_equivalence(code, prepared, hq, basis).status == "pass"

    def test_segment_past_64_qubits_matches_first_segment(self):
        # Segment 33 of 33 sits on qubits 65-66, so its nonlinear pieces are
        # tabulated on a grid of Python ints, where segment 1 uses int64.
        def hop_and_density(offset):
            return (
                FermionTerm.of(-1.0, (offset + 1, True), (offset + 2, False)),
                FermionTerm.of(-1.0, (offset + 2, True), (offset + 1, False)),
                FermionTerm.of(0.5, (offset + 3, True), (offset + 3, False)),
            )

        code = load_code("segment:1:33")
        assert (code.n_modes, code.n_qubits) == (99, 66)
        h = FermionHamiltonian(99, hop_and_density(96))
        hq = transform_hamiltonian(code, h)
        first = transform_hamiltonian(
            load_code("segment:1:1"), FermionHamiltonian(3, hop_and_density(0))
        )
        assert first.num_terms == 6
        assert hq.terms == {
            PauliString.from_masks(66, s.x << 64, s.z << 64): c
            for s, c in first.terms.items()
        }
        basis = enumerate_basis(parse_basis_spec("1-96:0;97-99:0,1", 99))
        assert verify_equivalence(code, h, hq, basis).status == "pass"

    def test_budget_error_names_the_term(self):
        code = binary_addressing_k2(2)
        h = hubbard_hamiltonian(1, 2, 1.0, 1.0, periodic_lateral=False)
        with pytest.raises(BudgetError, match=rf"^term 1 \({re.escape(str(h.terms[0]))}\): "):
            transform_hamiltonian(code, h, budget=2)

    @pytest.mark.parametrize(
        "code, line, budget, reached",
        [
            (jordan_wigner(4), "1 0 : +1 -3", 1, 2),  # an affine table
            (binary_addressing_k2(3), "1 0 : +1 -5", 40, 52),  # a group table
            # Dependent affine Z masks: the count is of the rows formed, before the merge.
            (checksum_code(3), "0.3 0 : +1 -1 +2 -2 +3 -3", 4, 8),
            # 70 projectors: 2**70 rows would overflow an int64 count.
            (jordan_wigner(70), "1 0 : " + " ".join(f"+{m} -{m}" for m in range(1, 71)),
             1 << 20, 1 << 21),
        ],
    )
    def test_expansion_over_budget_names_the_term(self, code, line, budget, reached):
        h = parse_fermion_file(line, code.n_modes)
        with pytest.raises(
            BudgetError,
            match=rf"^term 1 \({re.escape(str(h.terms[0]))}\): "
            rf"expansion reached {reached} terms, budget {budget}$",
        ):
            transform_hamiltonian(code, h, budget=budget)

    def test_vanishing_products_never_reach_expand(self, monkeypatch):
        # 1440 of the 2470 dressed terms need some mode both empty and occupied.
        code, h = _dressed_hubbard_2x5()
        items = []
        real = transform._expand

        def counting(code, batch, *args):
            items.append(len(batch.qs))
            return real(code, batch, *args)

        monkeypatch.setattr(transform, "_expand", counting)
        hq = transform_hamiltonian(code, h)
        assert (len(h.terms), sum(items), hq.num_terms) == (2470, 1030, 1855)

    def test_each_group_table_is_built_once(self, monkeypatch):
        code, h = _dressed_hubbard_2x5()
        built = Counter()
        real = pauli._group_terms

        def counting(n, mask, members, flips, budget, memo):
            built[mask, tuple(members)] += 1
            return real(n, mask, members, flips, budget, memo)

        monkeypatch.setattr(pauli, "_group_terms", counting)
        transform_hamiltonian(code, h)
        assert built and set(built.values()) == {1}
        assert sum(built.values()) < len(h.terms)

    def test_each_decode_table_is_built_once_per_call(self, monkeypatch):
        # One-body and density-density terms on 8 modes: every group of
        # binary_addressing_k2:3 lies on one grid, which the code decodes once
        # per call on each set of components a group reads (all 8 for the
        # update groups), twice over two calls.
        modes = range(1, 9)
        h = FermionHamiltonian(8, tuple(
            [FermionTerm.of(0.5, (p, True), (q, False)) for p in modes for q in modes]
            + [FermionTerm.of(0.3, (i, True), (i, False), (j, True), (j, False))
               for i, j in itertools.combinations(modes, 2)]))
        code = load_code("binary_addressing_k2:3")
        grids, decoded = Counter(), Counter()
        real_terms, real_decode = pauli._group_terms, type(code).decode_words

        class Spy:  # the call's memo, counting the grids stored in it
            def __init__(self, memo):
                self.memo = memo

            def __contains__(self, key):
                return key in self.memo

            def __getitem__(self, key):
                return self.memo[key]

            def __setitem__(self, key, value):
                if isinstance(key, int):  # a grid: (rows, its decodes)
                    grids[key] += 1
                self.memo[key] = value

        def counting(code, mask, members, q, budget, memo):
            return real_terms(code, mask, members, q, budget, Spy(memo))

        def decoding(self, rows, modes=None):
            decoded[modes] += 1
            return real_decode(self, rows, modes)

        monkeypatch.setattr(pauli, "_group_terms", counting)
        monkeypatch.setattr(type(code), "decode_words", decoding)
        transform_hamiltonian(code, h)
        assert grids == {(1 << code.n_qubits) - 1: 1}
        assert 0xFF in decoded and set(decoded.values()) == {1}
        transform_hamiltonian(code, h)
        assert set(grids.values()) == set(decoded.values()) == {2}

    def test_a_projector_decodes_its_component_alone(self, monkeypatch):
        # binary_addressing_k1:8 has 256 decode components, each reading all 8
        # qubits; the number term on mode 200 decodes d_200 alone, not all 256.
        code = load_code("binary_addressing_k1:8")
        decoded = []
        real = type(code).decode_words

        def decoding(self, rows, modes=None):
            decoded.append(modes)
            return real(self, rows, modes)

        monkeypatch.setattr(type(code), "decode_words", decoding)
        transform_term(code, FermionTerm.of(1, (200, True), (200, False)))
        assert decoded == [1 << 199]

    def test_group_tables_do_not_outlive_the_call(self):
        # A table kept from the first call would let term 1 skip its table's
        # budget check in the second.
        code, h = _dressed_hubbard_2x5()
        transform_hamiltonian(code, h)
        with pytest.raises(
            BudgetError,
            match=rf"^term 1 \({re.escape(str(h.terms[0]))}\): table over a support of 4 qubits",
        ):
            transform_hamiltonian(code, h, budget=15)

    def test_non_hermitian_flagged(self):
        code = segment_code(2, 2)
        hop = FermionHamiltonian(
            10,
            (
                FermionTerm.of(1.0, (6, True), (1, False)),
                FermionTerm.of(1.0, (1, True), (6, False)),
            ),
        )
        with pytest.raises(NonHermitianError):
            transform_hamiltonian(code, hop)


class TestFermionFiles:
    def test_round_trip(self):
        h = hubbard_hamiltonian(1, 2, 1.0, 2.0, periodic_lateral=False)
        text = format_fermion_file(h)
        back = parse_fermion_file(text)
        assert back.n_modes == h.n_modes
        assert back.terms == h.terms

    def test_comments_and_blanks(self):
        text = "# a comment\n\n1 0 : +1 -2  # inline\n"
        h = parse_fermion_file(text)
        assert h.terms == (FermionTerm.of(1.0, (1, True), (2, False)),)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_fermion_file("1 0 : +1 -1\n1 0 +2\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_fermion_file("1 0 : ++1\n")
        with pytest.raises(InputFormatError, match="line 1: bad operator token '\\+\u0663'"):
            parse_fermion_file("1 0 : +\u0663 -3\n")

    def test_round_trip_keeps_empty_top_modes(self):
        h = FermionHamiltonian(4, (FermionTerm.of(0.5, (1, True), (1, False)),))
        back = parse_fermion_file(format_fermion_file(h))
        assert back.n_modes == 4 and back.terms == h.terms
        # an explicit mode count still wins over the header
        assert parse_fermion_file(format_fermion_file(h), n_modes=6).n_modes == 6

    @pytest.mark.parametrize("coeff", ["nan 0", "0 inf", "-inf 1", "1 -nan"])
    def test_non_finite_coefficient_names_its_line(self, coeff):
        with pytest.raises(InputFormatError, match="line 2: non-finite"):
            parse_fermion_file(f"1 0 : +1 -1\n{coeff} : +1 -1\n")

    @pytest.mark.parametrize("coeff", ["1_0 0", "\u0663 0", "0 2_5", "1 \uff11"])
    def test_coefficients_are_ascii_reals(self, coeff):
        with pytest.raises(InputFormatError, match="line 3: bad coefficient: could not convert"):
            parse_fermion_file(f"# modes: 2\n1 0 : +1 -1\n{coeff} : +2 -2\n")

    def test_coefficients_take_float_syntax(self):
        h = parse_fermion_file("1e-3 -2.5E+1 : +1 -1\n.5 +1 : +2 -2\n")
        assert [t.coeff for t in h.terms] == [0.001 - 25j, 0.5 + 1j]

    @pytest.mark.parametrize("header", ["# modes: four", "# modes: -1", "# modes:"])
    def test_bad_mode_header_names_its_line(self, header):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_fermion_file(f"1 0 : +1 -1\n{header}\n")

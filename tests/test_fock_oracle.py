import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicode import fock_oracle
from fermicode.bitmath import BitVec
from fermicode.codes import (
    BasisSpec,
    _ints,
    _words,
    binary_addressing_k2,
    checksum_code,
    enumerate_basis,
    jordan_wigner,
    linear_code,
    load_code,
    parity_code,
    parse_basis_spec,
    segment_code,
)
from fermicode.cli import hubbard_hamiltonian
from fermicode.errors import DimensionError
from fermicode.fock_oracle import (
    FockStateVector,
    QubitStateVector,
    _amplitudes,
    _Batch,
    _image,
    _pack_strings,
    _int_items,
    _string_columns,
    apply_fermion_term,
    apply_hamiltonian_fock,
    apply_qubit_operator,
    fock_matrix,
    verify_anticommutation,
    verify_equivalence,
)
from fermicode.pauli import PauliString, QubitOperator
from fermicode.transform import (
    FermionHamiltonian,
    FermionTerm,
    adjust_for_segments,
    normal_order_blocks,
    transform_hamiltonian,
)

from helpers import (
    dense_annihilator,
    dense_creator,
    dense_fermion_hamiltonian,
    dense_fermion_term,
    dense_operator,
    item_columns,
    nonlinear_codes,
    random_invertible_bitmat,
)


class TestFermionAction:
    def test_annihilating_vacuum(self):
        assert apply_fermion_term(FermionTerm.of(1.0, (1, False)), BitVec("000")) is None

    def test_creation_sign(self):
        coeff, out = apply_fermion_term(FermionTerm.of(1.0, (2, True)), BitVec("10"))
        assert coeff == -1.0 and out == BitVec("11")

    def test_number_product(self):
        coeff, out = apply_fermion_term(
            FermionTerm.of(1.0, (1, True), (3, True), (3, False), (1, False)),
            BitVec("101"),
        )
        assert coeff == 1.0 and out == BitVec("101")

    @pytest.mark.parametrize("mode", [0, 5])
    def test_out_of_range_mode_is_named(self, mode):
        with pytest.raises(DimensionError, match=rf"^mode {mode} outside 1\.\.4$"):
            apply_fermion_term(FermionTerm.of(1.0, (mode, True)), BitVec("0000"))

    def test_matches_dense_singles(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                for dagger in (False, True):
                    mat = dense_creator(n, j) if dagger else dense_annihilator(n, j)
                    term = FermionTerm.of(1.0, (j, dagger))
                    for occ in range(1 << n):
                        nu = BitVec.from_int(occ, n)
                        hit = apply_fermion_term(term, nu)
                        col = mat[:, occ]
                        if hit is None:
                            assert np.allclose(col, 0, atol=1e-12)
                        else:
                            coeff, out = hit
                            want = np.zeros(1 << n, dtype=complex)
                            want[out.value] = coeff
                            assert np.allclose(col, want, atol=1e-12)

    def test_matches_dense_random_sequences(self):
        rng = random.Random(29)
        # Products that vanish on every state: c1^dag c1^dag and c2 c2^dag c2 c2.
        fixed = [
            (3, FermionTerm.of(0.5, (1, True), (1, True))),
            (3, FermionTerm.of(0.5, (2, False), (2, True), (2, False), (2, False))),
        ]
        randoms = []
        for _ in range(100):
            n = rng.randrange(2, 7)
            length = rng.randrange(1, 7)
            term = FermionTerm(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                tuple((rng.randrange(1, n + 1), rng.random() < 0.5) for _ in range(length)),
            )
            randoms.append((n, term))
        for n, term in fixed + randoms:
            mat = dense_fermion_term(n, term)
            for occ in range(1 << n):
                nu = BitVec.from_int(occ, n)
                hit = apply_fermion_term(term, nu)
                col = mat[:, occ]
                if hit is None:
                    assert np.allclose(col, 0, atol=1e-12)
                else:
                    coeff, out = hit
                    assert abs(col[out.value] - coeff) < 1e-12
                    assert abs(np.sum(np.abs(col))) - abs(coeff) < 1e-12


WIDTHS = (1, 2, 3, 5, 8, 13, 31, 63, 64, 65, 70)


def batch_amplitudes(items, n, states, plan=None):
    """``_amplitudes`` of ``states`` as one array, yielded 5 rows at a time,
    with every flip group on ``plan`` when given, labelled as in a large batch."""
    b, words = _Batch(item_columns(items, n), n), _words(states, n)
    if plan is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock_oracle, "_DIRECT", -1)
            labels = b.plan(words)[1]
        b.plan = lambda words: (np.full(len(b.flips), plan), labels)
    tiles = list(_amplitudes(words, b, 5))
    return b, np.concatenate([np.zeros((0, len(b.flips)))] + tiles)


def assert_batch_matches_image(items, n, states):
    """Per state, the direct plan gives each target ``_image`` returns, zero
    sums included, exactly ``_image``'s amplitude, and every other flip group 0."""
    b, amp = batch_amplitudes(items, n, states, plan=0)
    amp = amp.tolist()
    for s, word in enumerate(states):
        image = _image(word, items)
        targets = _ints(_words([word], n) ^ b.flips)
        assert {k: amp[s][g] for g, k in enumerate(targets) if k in image} == image
        assert all(amp[s][g] == 0 for g, k in enumerate(targets) if k not in image)


def assert_plans_match_image(items, n, states):
    """Under each plan, every cell is within 1e-12 sum|c| of ``_image``'s
    amplitude, and exactly 0 where no item acts."""
    scale = 1e-12 * sum(abs(it[4]) for it in items)
    for plan in (0, 1, 2):
        b, amp = batch_amplitudes(items, n, states, plan)
        for s, word in enumerate(states):
            image = _image(word, items)
            targets = _ints(_words([word], n) ^ b.flips)
            for g, k in enumerate(targets):
                if k in image:
                    assert abs(amp[s, g] - image[k]) <= scale
                else:
                    assert amp[s, g] == 0


def ladder_items(rng, n):
    terms = [FermionTerm.of(0.5, (1, True), (1, True))]  # vanishes everywhere
    for _ in range(30):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ops = tuple(
            (rng.randrange(1, n + 1), rng.random() < 0.5) for _ in range(rng.randrange(1, 5))
        )
        terms.append(FermionTerm(c, ops))
        if rng.random() < 0.3:  # same target, amplitudes that cancel
            terms.append(FermionTerm(-c, ops))
    items = _int_items(FermionHamiltonian(n, terms).packed)
    states = [rng.getrandbits(n) for _ in range(12)]
    # states each of some items acts on, other bits random
    states += [want | (rng.getrandbits(n) & ~care) for _, _, care, want, _ in items[:12]]
    return items, states


def pauli_items(rng, n):
    flips = [rng.getrandbits(n) for _ in range(4)]
    terms = {}
    for _ in range(25):
        s = PauliString.from_masks(n, rng.choice(flips), rng.getrandbits(n))
        terms[s] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    # X1 and X1 Z2 cancel on every state with qubit 2 set
    terms[PauliString.from_masks(n, 1, 0)] = 0.25
    terms[PauliString.from_masks(n, 1, 0b10 if n > 1 else 0)] = 0.25
    op = QubitOperator(n, terms)
    assert any(s.y_count() for s in op.terms)
    states = [rng.getrandbits(n) for _ in range(12)] + [0b10 if n > 1 else 0]
    return _pack_strings(op), states


@pytest.fixture(params=["default", "tiny"])
def kernel_cells(request, monkeypatch):
    """Run with the default step size, and with 8-cell steps that tile the items."""
    if request.param == "tiny":
        monkeypatch.setattr(fock_oracle, "_CELLS", 8)


@pytest.mark.usefixtures("kernel_cells")
class TestBatchKernel:
    def test_ladder_products(self):
        rng = random.Random(43)
        for n in WIDTHS:
            items, states = ladder_items(rng, n)
            assert_batch_matches_image(items, n, states)

    def test_pauli_strings(self):
        rng = random.Random(47)
        for n in WIDTHS:
            items, states = pauli_items(rng, n)
            assert_batch_matches_image(items, n, states)

    def test_ladder_products_under_each_plan(self):
        rng = random.Random(59)
        for n in WIDTHS:
            items, states = ladder_items(rng, n)
            assert_plans_match_image(items, n, states)

    def test_pauli_strings_under_each_plan(self):
        rng = random.Random(61)
        for n in WIDTHS:
            items, states = pauli_items(rng, n)
            assert_plans_match_image(items, n, states)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plans_match_image_on_random_items(data):
    n = data.draw(st.sampled_from(WIDTHS))
    word = st.integers(0, (1 << n) - 1)
    coeff = st.sampled_from([1, -0.5, 0.3 + 0.7j, -2j, 1e-3])
    flip = st.sampled_from(data.draw(st.lists(word, min_size=1, max_size=3)))
    items = []
    for _ in range(data.draw(st.integers(1, 24))):
        flip_z_care = [data.draw(flip), data.draw(word), data.draw(word)]
        items.append((*flip_z_care, data.draw(word) & flip_z_care[2], data.draw(coeff)))
    if data.draw(st.booleans()):  # Pauli strings: no occupation check
        items = [(flip, z, 0, 0, c) for flip, z, _, _, c in items]
    states = data.draw(st.lists(word, min_size=1, max_size=12))
    assert_plans_match_image(items, n, states)


def two_particle_hamiltonian(rng, n):
    """Every one-body term and every density-density term n_i n_j, i < j."""
    terms = []
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            c = rng.uniform(-1, 1)
            terms.append(FermionTerm.of(c, (p, True), (q, False)))
            if p != q:
                terms.append(FermionTerm.of(c, (q, True), (p, False)))
                c = rng.uniform(-1, 1)
                terms.append(FermionTerm.of(c, (p, True), (p, False), (q, True), (q, False)))
    return FermionHamiltonian(n, tuple(terms))


class TestPlan:
    @pytest.fixture
    def no_direct_bound(self, monkeypatch):
        """Plans chosen by cell count alone, whatever the batch size."""
        monkeypatch.setattr(fock_oracle, "_DIRECT", -1)

    @pytest.mark.usefixtures("no_direct_bound")
    def test_z_masks_in_one_half_take_the_single_key_orientation(self):
        n = 16
        words = _words(list(range(0, 1 << n, 7)), n)
        for shift, plan in ((0, 1), (8, 2)):
            op = QubitOperator(
                n, {PauliString.from_masks(n, 0b101000, z << shift): 1 + z for z in range(1, 65)}
            )
            assert _Batch(_string_columns(op), n).plan(words)[0].tolist() == [plan]

    def test_tiny_batch_sums_directly(self):
        code = binary_addressing_k2(3)
        hq = transform_hamiltonian(code, two_particle_hamiltonian(random.Random(67), 8))
        basis = enumerate_basis(BasisSpec.single(8, [2]))
        words = code.encode_words(_words([nu.value for nu in basis], 8))
        b = _Batch(_string_columns(hq), code.n_qubits)
        assert (len(words), len(b.coeff)) == (28, 384)
        plan, labels = b.plan(words)
        assert not plan.any() and labels == []

    @pytest.mark.usefixtures("no_direct_bound")
    def test_plan_is_the_cheapest_of_three_cell_counts(self):
        code = load_code("segment:2:2+segment:2:2")
        h = adjust_for_segments(hubbard_hamiltonian(2, 5, 1.0, 1.0), code.segments, 2)
        hq = transform_hamiltonian(code, h)
        # 45 distinct low halves, 10 distinct high halves
        basis = enumerate_basis(parse_basis_spec("1-10:2;11-20:1", 20))
        words = _words([nu.value for nu in basis], 20)
        sides = [(_int_items(h.packed), words, 20),
                 (_pack_strings(hq), code.encode_words(words), code.n_qubits)]
        chosen = set()
        for items, w, n in sides:
            plan = _Batch(item_columns(items, n), n).plan(w)[0].tolist()
            ints = _ints(w)
            low = (1 << n // 2) - 1
            halves = (low, ((1 << n) - 1) ^ low)
            distinct = [len({k & m for k in ints}) for m in halves]
            flips = list(dict.fromkeys(it[0] for it in items))
            for g, flip in enumerate(flips):
                members = [it for it in items if it[0] == flip]
                keys = [len({(z & m, care & m, want & m) for _, z, care, want, _ in members})
                        for m in halves]
                cells = [
                    len(ints) * len(members),
                    distinct[0] * len(members) + len(ints) * keys[1],
                    distinct[1] * len(members) + len(ints) * keys[0],
                ]
                assert cells[plan[g]] == min(cells)
                chosen.add(plan[g])
        assert chosen == {0, 1, 2}


class TestHamiltonianAction:
    def test_number_operator_eigenstate(self):
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True), (1, False)),))
        out = apply_hamiltonian_fock(h, FockStateVector.basis_state(BitVec("10")))
        assert out.amplitudes == {BitVec("10"): 1.0}

    def test_single_hop(self):
        h = FermionHamiltonian(
            2,
            (
                FermionTerm.of(1.0, (1, True), (2, False)),
                FermionTerm.of(1.0, (2, True), (1, False)),
            ),
        )
        out = apply_hamiltonian_fock(h, FockStateVector.basis_state(BitVec("01")))
        assert out.amplitudes == {BitVec("10"): 1.0}


class TestQubitAction:
    def test_z_sign(self):
        op = QubitOperator.z_string(2, 0b01)
        out = apply_qubit_operator(op, QubitStateVector.basis_state(BitVec("10")))
        assert out.amplitudes == {BitVec("10"): -1.0}

    def test_x_flip(self):
        op = QubitOperator.x_string(2, 0b11)
        out = apply_qubit_operator(op, QubitStateVector.basis_state(BitVec("00")))
        assert out.amplitudes == {BitVec("11"): 1.0}

    def test_jw_creation_cross_check(self):
        op = QubitOperator(
            2,
            {
                PauliString(2, {1: "Z", 2: "X"}): 0.5,
                PauliString(2, {1: "Z", 2: "Y"}): -0.5j,
            },
        )
        out = apply_qubit_operator(op, QubitStateVector.basis_state(BitVec("10")))
        assert out.n_qubits == 2
        assert len(out.amplitudes) == 1
        assert abs(out.amplitudes[BitVec("11")] + 1.0) < 1e-12
        hit = apply_fermion_term(FermionTerm.of(1.0, (2, True)), BitVec("10"))
        assert hit == (-1.0, BitVec("11"))

    def test_y_convention(self):
        y = QubitOperator.from_string(PauliString(1, {1: "Y"}))
        up = apply_qubit_operator(y, QubitStateVector.basis_state(BitVec("0")))
        dn = apply_qubit_operator(y, QubitStateVector.basis_state(BitVec("1")))
        assert up.amplitudes == {BitVec("1"): 1j}
        assert dn.amplitudes == {BitVec("0"): -1j}

    def test_matches_dense(self):
        rng = random.Random(31)
        letters = ["X", "Y", "Z"]
        for _ in range(25):
            n = rng.randrange(1, 6)
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                f = {
                    j: rng.choice(letters)
                    for j in rng.sample(range(1, n + 1), rng.randrange(0, n + 1))
                }
                terms[PauliString(n, f)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            op = QubitOperator(n, terms)
            m = dense_operator(op)
            b = rng.randrange(1 << n)
            out = apply_qubit_operator(op, QubitStateVector.basis_state(BitVec.from_int(b, n)))
            col = np.zeros(1 << n, dtype=complex)
            for k, v in out.amplitudes.items():
                col[k.value] = v
            assert np.allclose(col, m[:, b], atol=1e-12)

    def test_norm_preserved_by_x_strings(self):
        op = QubitOperator.x_string(3, 0b101)
        state = QubitStateVector(3, {BitVec("000"): 0.6, BitVec("110"): 0.8j})
        out = apply_qubit_operator(op, state)
        norm = sum(abs(v) ** 2 for v in out.amplitudes.values())
        assert abs(norm - 1.0) < 1e-12

    def test_z_twice_is_identity(self):
        op = QubitOperator.z_string(3, 0b011)
        state = QubitStateVector(3, {BitVec("010"): 1.0})
        out = apply_qubit_operator(op, apply_qubit_operator(op, state))
        assert out.isclose(state, 1e-12)


def random_conserving_hamiltonian(rng, n, n_terms=6):
    terms = []
    for _ in range(n_terms):
        i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append(FermionTerm.of(c, (i, True), (j, False)))
        terms.append(FermionTerm.of(c.conjugate(), (j, True), (i, False)))
    return FermionHamiltonian(n, tuple(terms))


class TestEquivalence:
    def test_jw_random_hamiltonians(self):
        rng = random.Random(37)
        for n in (4, 5, 6):
            basis = [BitVec.from_int(v, n) for v in range(1 << n)]
            code = jordan_wigner(n)
            for _ in range(17):
                h = random_conserving_hamiltonian(rng, n)
                hq = transform_hamiltonian(code, h)
                report = verify_equivalence(code, h, hq, basis)
                assert report.ok and report.max_deviation < 1e-9

    def test_segment_incompatibility_and_fix(self):
        from fermicode.codes import decode_image

        code = segment_code(2, 2)
        hop = FermionHamiltonian(
            10,
            (
                FermionTerm.of(1.0, (6, True), (1, False)),
                FermionTerm.of(1.0, (1, True), (6, False)),
            ),
        )
        basis = decode_image(code)
        hq = transform_hamiltonian(code, hop, check_hermiticity=False)
        report = verify_equivalence(code, hop, hq, basis)
        assert report.status == "incompatible"
        assert any("leaves the encoded basis" in f["detail"] for f in report.failures)

        adjusted = adjust_for_segments(normal_order_blocks(hop), code.segments, 2)
        hq2 = transform_hamiltonian(code, adjusted)
        report2 = verify_equivalence(code, adjusted, hq2, basis)
        assert report2.ok

    def test_shifted_operator_fails_on_every_state(self):
        delta = 0.125
        h = hubbard_hamiltonian(1, 2, 1.0, 1.0, periodic_lateral=False)
        code = jordan_wigner(4)
        basis = [BitVec.from_int(v, 4) for v in range(16)]
        hq = transform_hamiltonian(code, h)
        assert verify_equivalence(code, h, hq, basis).max_deviation == 0.0
        shifted = hq + QubitOperator.identity(4, delta)
        report = verify_equivalence(code, h, shifted, basis)
        assert report.status == "fail"
        assert report.max_deviation == delta
        assert [f["nu"] for f in report.failures] == [str(nu) for nu in basis]

    def test_incompatible_report_is_pinned(self):
        # Cross-segment hops overfill a segment; the qubit side is the dressed
        # transform plus a diagonal error on the states whose qubit 1 or 6 is
        # set. The (1 - n2)-conditioned 1 <-> 9 hops come first, so on states
        # with mode 2 occupied the 1 <-> 9 targets are met after others.
        code = segment_code(2, 2)
        terms = [
            FermionTerm.of(0.4, (9, True), (2, False), (2, True), (1, False)),
            FermionTerm.of(0.4, (1, True), (2, False), (2, True), (9, False)),
        ]
        for i, j, c in [(1, 6, 1.0), (2, 8, 0.5), (1, 9, -0.75), (3, 7, 0.25),
                        (4, 10, 1.5), (2, 6, 0.3), (5, 6, 0.2)]:
            terms.append(FermionTerm.of(c, (j, True), (i, False)))
            terms.append(FermionTerm.of(c, (i, True), (j, False)))
        hop = FermionHamiltonian(10, tuple(terms))
        dressed = adjust_for_segments(normal_order_blocks(hop), code.segments, 2)
        hq = (
            transform_hamiltonian(code, dressed)
            + QubitOperator.identity(8, 0.0825)
            - QubitOperator.z_string(8, 0b1, 0.0625)
            - QubitOperator.z_string(8, 0b100000, 0.02)
        )
        basis = [
            BitVec(b)
            for b in (
                "0011010010 0000000000 0001100011 0100000001 0000100011 "
                "1000000000 0011010000 0010001000 0000000011 1100001001 0110010010"
            ).split()
        ]
        report = verify_equivalence(code, hop, hq, basis)
        leaves = "image leaves the encoded basis at "
        assert report.status == "incompatible"
        assert report.states_checked == 11
        assert repr(report.max_deviation) == "0.12500000000000003"
        assert report.failures == [
            {"nu": "0011010010",
             "detail": leaves + "1011010000, 1011000010, 0001011010, 0010010011"},
            {"nu": "0001100011", "detail": leaves + "1001100001, 0001010011"},
            {"nu": "0000100011", "detail": leaves + "0000010011"},
            {"nu": "0011010000", "detail": leaves + "1011000000, 0111000000, 0011100000"},
            {"nu": "1100001001",
             "detail": leaves + "0100011001, 1000001101, 0100001011, 1110000001"},
            {"nu": "0110010010",
             "detail": leaves + "1110000010, 0010010110, 1110010000, 0100011010"},
            {"nu": "0100000001", "detail": "amplitude deviation 0.04"},
            {"nu": "1000000000", "detail": "amplitude deviation 0.125"},
            {"nu": "0010001000", "detail": "amplitude deviation 0.04"},
            {"nu": "0000000011", "detail": "amplitude deviation 0.04"},
        ]

    def test_states_outside_the_code_are_escapes(self):
        # Two particles in a K = 1 segment: e(v) encodes another state, so the
        # comparison there says nothing about the transform. Every image stays
        # in V, so only the states themselves make the report incompatible.
        code = segment_code(1, 2)
        h = FermionHamiltonian(
            6, tuple(FermionTerm.of(1.0, (j, True), (i, False)) for i, j in ((1, 4), (4, 1)))
        )
        hq = transform_hamiltonian(code, adjust_for_segments(h, code.segments, 1))
        basis = enumerate_basis(BasisSpec(6, ((1, 2, 3), (4, 5, 6)), ((1, 2), (0,))))
        items = _int_items(h.packed)
        assert all(
            code.in_basis(BitVec.from_int(k, 6)) for nu in basis for k in _image(nu.value, items)
        )
        report = verify_equivalence(code, h, hq, basis)
        outside = "state is outside the encoded basis (it decodes as {})"
        assert (report.status, report.states_checked, report.max_deviation) == (
            "incompatible", 6, 0.0
        )
        assert report.failures == [
            {"nu": "011000", "detail": outside.format("100000")},
            {"nu": "101000", "detail": outside.format("010000")},
            {"nu": "110000", "detail": outside.format("001000")},
        ]

    def test_states_outside_the_code_skip_the_kernels(self, monkeypatch):
        # Unadjusted hops between K = 1 segments: a basis with states outside
        # the code space and states whose image leaves it. Both are listed in
        # basis order, and only the states in the code space reach a kernel.
        code = segment_code(1, 2)
        h = FermionHamiltonian(
            6, tuple(FermionTerm.of(1.0, (j, True), (i, False)) for i, j in ((1, 4), (4, 1)))
        )
        hq = transform_hamiltonian(code, h, check_hermiticity=False)
        basis = enumerate_basis(BasisSpec(6, ((1, 2, 3), (4, 5, 6)), ((0, 1, 2), (0, 1))))
        rows = []
        real = fock_oracle._amplitudes

        def counting(words, batch, step):
            rows.append(len(words))
            return real(words, batch, step)

        monkeypatch.setattr(fock_oracle, "_amplitudes", counting)
        report = verify_equivalence(code, h, hq, basis)
        outside = {str(nu) for nu in basis if not code.in_basis(nu)}
        assert outside and sum(rows) == 2 * (len(basis) - len(outside))
        escapes = [f for f in report.failures if not f["detail"].startswith("amplitude")]
        order = [str(nu) for nu in basis]
        listed = [f["nu"] for f in escapes]
        assert listed == sorted(listed, key=order.index)
        assert outside == {f["nu"] for f in escapes if f["detail"].startswith("state is outside")}
        assert len(escapes) > len(outside)

    def test_escapes_past_64_modes_list_targets_in_image_order(self):
        # Segments 61-63, 64-66 and 67-69 each hold one particle; hops between
        # them overfill a segment, and modes 65 and 66 lie past bit 64. The
        # (1 - n_j)-conditioned hops come first, so where they do not act
        # their targets are met later, by the plain hops.
        rng = random.Random(53)
        code = segment_code(1, 24)
        n = code.n_modes
        pairs = [(i, j) for i in (61, 62, 63) for j in (64, 65, 66)]
        pairs += [(i, j) for i in (64, 65, 66) for j in (67, 68, 69)]
        terms = []
        for i, j in rng.sample(pairs, 6):
            k = rng.choice((67, 68, 69))
            terms.append(FermionTerm.of(0.5, (j, True), (k, False), (k, True), (i, False)))
        for i, j in rng.sample(pairs, len(pairs)):
            c = rng.uniform(0.5, 1.5)
            terms.append(FermionTerm.of(c, (j, True), (i, False)))
            terms.append(FermionTerm.of(c, (i, True), (j, False)))
        h = FermionHamiltonian(n, tuple(terms))
        suits = (tuple(range(1, 61)), (61, 62, 63), (64, 65, 66), (67, 68, 69), (70, 71, 72))
        basis = enumerate_basis(BasisSpec(n, suits, ((0,), (1,), (1,), (1,), (0,))))
        report = verify_equivalence(code, h, QubitOperator.zero(code.n_qubits), basis)
        assert (report.status, len(report.failures)) == ("incompatible", len(basis))
        items = _int_items(h.packed)
        unsorted = 0
        for nu, f in zip(basis, report.failures):
            image = _image(nu.value, items)
            at = [k for k, a in image.items() if abs(a) > 1e-13]
            at = [k for k in at if not code.in_basis(BitVec.from_int(k, n))][:4]
            assert any(k >> 64 for k in at)
            assert f == {
                "nu": str(nu),
                "detail": "image leaves the encoded basis at "
                + ", ".join(str(BitVec.from_int(k, n)) for k in at),
            }
            unsorted += at != sorted(at)
        assert unsorted

    @pytest.mark.parametrize("k", [1, 2])
    def test_seventy_mode_chain(self, k):
        # Words wider than 64 bits; the corrupted hop 64-65 straddles bit 64.
        n = 70
        terms = []
        for i in range(1, n):
            terms.append(FermionTerm.of(1.0 + i / 64, (i + 1, True), (i, False)))
            terms.append(FermionTerm.of(1.0 + i / 64, (i, True), (i + 1, False)))
        for i in range(1, n + 1):
            terms.append(FermionTerm.of(0.25 * i, (i, True), (i, False)))
        h = FermionHamiltonian(n, tuple(terms))
        code = jordan_wigner(n)
        hq = transform_hamiltonian(code, h)
        basis = enumerate_basis(BasisSpec.single(n, [k]))
        assert len(basis) == (70, 2415)[k - 1]
        report = verify_equivalence(code, h, hq, basis)
        assert (report.status, report.max_deviation) == ("pass", 0.0)
        flipped = dict(hq.terms)
        for s in (PauliString(n, {64: "X", 65: "X"}), PauliString(n, {64: "Y", 65: "Y"})):
            flipped[s] = -flipped[s]
        report = verify_equivalence(code, h, QubitOperator(n, flipped), basis)
        assert (report.status, repr(report.max_deviation)) == ("fail", "4.0")
        assert report.failures == [
            {"nu": str(nu), "detail": "amplitude deviation 4"}
            for nu in basis
            if nu[64] != nu[65]
        ]

    @pytest.mark.parametrize("basis, wrong", [
        (["10", "01"], "basis[0] = 10 has 2 modes"),
        (["100", "1000", "0100"], "basis[1] = 1000 has 4 modes"),
    ])
    def test_rejects_basis_vectors_of_another_length(self, basis, wrong):
        code = jordan_wigner(3)
        h = FermionHamiltonian(3, (FermionTerm.of(1.0, (1, True), (2, False)),
                                   FermionTerm.of(1.0, (2, True), (1, False))))
        hq = transform_hamiltonian(code, h)
        with pytest.raises(DimensionError, match=rf"^{re.escape(wrong)}, code encodes 3$"):
            verify_equivalence(code, h, hq, [BitVec(b) for b in basis])

    def test_report_json_shape(self):
        import json

        code = jordan_wigner(2)
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True), (1, False)),))
        hq = transform_hamiltonian(code, h)
        report = verify_equivalence(code, h, hq, [BitVec("10")])
        data = json.loads(report.to_json())
        assert set(data) == {"status", "max_deviation", "states_checked", "failures"}


@st.composite
def conserving_hamiltonians(draw, n_modes):
    """One- and two-body particle-conserving terms, each with its conjugate."""
    mode = st.integers(1, n_modes)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = complex(draw(st.sampled_from([1, -0.5, 0.25 + 1j, -2j])))
        daggers = draw(st.sampled_from([(True, False), (True, True, False, False)]))
        ops = tuple((draw(mode), d) for d in daggers)
        terms.append(FermionTerm.of(c, *ops))
        terms.append(FermionTerm.of(c.conjugate(), *((m, not d) for m, d in reversed(ops))))
    return FermionHamiltonian(n_modes, tuple(terms))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_nonlinear_codes_match_dense_action(data):
    code, basis = data.draw(nonlinear_codes())
    h = data.draw(conserving_hamiltonians(code.n_modes))
    # off e(V) the image need not be hermitian; only its action on e(V) counts
    hq = transform_hamiltonian(code, h, check_hermiticity=False)
    assert verify_equivalence(code, h, hq, basis).status == "pass"
    occupied = [nu.value for nu in basis]
    encoded = [code.encode_vec(nu).value for nu in basis]
    expected = np.zeros((1 << code.n_qubits, len(basis)), dtype=complex)
    expected[encoded] = dense_fermion_hamiltonian(h)[np.ix_(occupied, occupied)]
    np.testing.assert_allclose(dense_operator(hq)[:, encoded], expected, atol=1e-9)


class TestAnticommutation:
    def test_jw_and_parity(self):
        assert verify_anticommutation(jordan_wigner(4)).ok
        assert verify_anticommutation(parity_code(4)).ok

    def test_random_linear_codes(self):
        rng = random.Random(41)
        for _ in range(5):
            code = linear_code(random_invertible_bitmat(rng, 5))
            assert verify_anticommutation(code).ok


class TestSpectra:
    def test_hubbard_1x2_jw_and_checksum(self):
        h = hubbard_hamiltonian(1, 2, 1.0, 1.0, periodic_lateral=False)
        full = [BitVec.from_int(v, 4) for v in range(16)]
        e_fock = np.linalg.eigvalsh(fock_matrix(h, full))
        e_jw = np.linalg.eigvalsh(dense_operator(transform_hamiltonian(jordan_wigner(4), h)))
        assert abs(e_fock[0] - e_jw[0]) < 1e-9
        # matched symmetry sector through an odd/odd checksum pair
        from fermicode.codes import concat

        code = concat(checksum_code(2, "odd"), checksum_code(2, "odd"))
        sector = enumerate_basis(BasisSpec(4, ((1, 2), (3, 4)), ((1,), (1,))))
        e_sector = np.linalg.eigvalsh(fock_matrix(h, sector))
        e_code = np.linalg.eigvalsh(dense_operator(transform_hamiltonian(code, h)))
        assert abs(e_sector[0] - e_code[0]) < 1e-9
        assert abs(e_sector[0] - e_fock[0]) < 1e-9  # the global ground sits here


class TestFockMatrix:
    def test_hermitian_hubbard(self):
        h = hubbard_hamiltonian(2, 2, 1.0, 1.0, periodic_lateral=False)
        basis = [BitVec.from_int(v, 8) for v in range(256)]
        m = fock_matrix(h, basis)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_keeps_tiny_in_basis_entries(self):
        # h = 1e-16 n_1 + (a+_2 a_1 + h.c.) on the one-particle sector
        h = FermionHamiltonian(
            2,
            (
                FermionTerm.of(1e-16, (1, True), (1, False)),
                FermionTerm.of(1.0, (2, True), (1, False)),
                FermionTerm.of(1.0, (1, True), (2, False)),
            ),
        )
        basis = enumerate_basis(parse_basis_spec("1-2:1", 2))
        assert basis == [BitVec("01"), BitVec("10")]
        assert fock_matrix(h, basis).tolist() == [[0, 1], [1, 1e-16]]

    def test_cancellation_residue_does_not_escape(self):
        # 0.1 + 0.2 - 0.3 leaves 5.6e-17 on |01>, which is not in the basis.
        h = FermionHamiltonian(
            2, tuple(FermionTerm.of(c, (2, True), (1, False)) for c in (0.1, 0.2, -0.3))
        )
        assert fock_matrix(h, [BitVec("10")]).tolist() == [[0]]

    def test_rejects_escaping_basis(self):
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True), (2, False)),))
        with pytest.raises(ValueError):
            fock_matrix(h, [BitVec("01")])

    def test_escape_names_first_column_and_image(self):
        # Columns 2 and 3 map outside the basis. On column 2 the (1 - n1)
        # hop 2 -> 4 does not act, so its target is met after the 2 -> 3 one.
        h = FermionHamiltonian(
            4,
            (
                FermionTerm.of(1.0, (4, True), (1, False), (1, True), (2, False)),
                FermionTerm.of(1.0, (3, True), (2, False)),
                FermionTerm.of(1.0, (4, True), (2, False)),
            ),
        )
        with pytest.raises(ValueError, match=r"maps 1100 outside the given basis \(to 1010\)"):
            fock_matrix(h, [BitVec("0010"), BitVec("1100"), BitVec("0100")])

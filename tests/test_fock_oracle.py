import random

import numpy as np
import pytest

from fermicode.bitmath import BitVec
from fermicode.codes import (
    BasisSpec,
    checksum_code,
    enumerate_basis,
    jordan_wigner,
    linear_code,
    parity_code,
    segment_code,
)
from fermicode.cli import hubbard_hamiltonian
from fermicode.fock_oracle import (
    FockStateVector,
    QubitStateVector,
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
    dense_fermion_term,
    dense_operator,
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

    def test_report_json_shape(self):
        import json

        code = jordan_wigner(2)
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True), (1, False)),))
        hq = transform_hamiltonian(code, h)
        report = verify_equivalence(code, h, hq, [BitVec("10")])
        data = json.loads(report.to_json())
        assert set(data) == {"status", "max_deviation", "states_checked", "failures"}


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

    def test_rejects_escaping_basis(self):
        h = FermionHamiltonian(2, (FermionTerm.of(1.0, (1, True), (2, False)),))
        with pytest.raises(ValueError):
            fock_matrix(h, [BitVec("01")])

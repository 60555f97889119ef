"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reproduced resource table.
"""

import functools
import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from fermicode.bitmath import BitVec
from fermicode.codes import (
    BasisSpec,
    binary_addressing_k1,
    binary_addressing_k2,
    bravyi_kitaev,
    checksum_code,
    concat,
    decode_image,
    enumerate_basis,
    jordan_wigner,
    linear_code,
    parity_code,
    parse_basis_spec,
    segment_code,
)
from fermicode.cli import h2_code, h2_hamiltonian, hubbard_hamiltonian
from fermicode.errors import NonHermitianError
from fermicode.fock_oracle import (
    QubitStateVector,
    apply_qubit_operator,
    fock_matrix,
    verify_anticommutation,
    verify_equivalence,
)
from fermicode.pauli import QubitOperator, cphase_expand, extract
from fermicode.transform import (
    FermionHamiltonian,
    FermionTerm,
    adjust_for_segments,
    normal_order_blocks,
    transform_hamiltonian,
    transform_op_linear,
    transform_term,
    update_operator,
)

from helpers import (
    dense_fermion_hamiltonian,
    dense_operator,
    random_boolpoly,
    random_invertible_bitmat,
)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared, computed once


@pytest.fixture(scope="module")
def hubbard():
    return hubbard_hamiltonian(2, 5, 1.0, 1.0, periodic_lateral=True)


ROW_ORDER = [
    ("Jordan-Wigner", 20),
    ("Bravyi-Kitaev", 20),
    ("checksum+checksum", 18),
    ("checksum+segment", 17),
    ("segment+segment", 16),
]

# (terms, gates, sha256 prefix of the serialized operator) per table row.
ROW_PINS = {
    "Jordan-Wigner": (91, 264, "48310d8063dfc3d3"),
    "Bravyi-Kitaev": (91, 326, "7d7bb5b5a5955640"),
    "checksum+checksum": (91, 304, "84256b386cd1c02b"),
    "checksum+segment": (893, 4466, "d8bef7de30c7d507"),
    "segment+segment": (1855, 9404, "40df80d791810262"),
}


@pytest.fixture(scope="module")
def table_rows(hubbard):
    codes = {
        "Jordan-Wigner": jordan_wigner(20),
        "Bravyi-Kitaev": bravyi_kitaev(20),
        "checksum+checksum": concat(
            checksum_code(10, "even"), checksum_code(10, "even")
        ),
        "checksum+segment": concat(checksum_code(10, "even"), segment_code(2, 2)),
        "segment+segment": concat(segment_code(2, 2), segment_code(2, 2)),
    }
    rows = {}
    for name, code in codes.items():
        if code.segments:
            prepared = adjust_for_segments(
                normal_order_blocks(hubbard), code.segments, code.segment_weight
            )
        else:
            prepared = hubbard
        start = time.monotonic()
        hq = transform_hamiltonian(code, prepared)
        elapsed = time.monotonic() - start
        rows[name] = (code, prepared, hq, elapsed)
    return rows


@pytest.fixture(scope="module")
def physical_basis():
    return enumerate_basis(parse_basis_spec("1-10:2;11-20:2", 20))


# ---------------------------------------------------------------------------


def test_criterion_1_h2_reduction():
    start = time.monotonic()
    code = h2_code()
    h = h2_hamiltonian(1.0, 0.5, 0.2, 0.2, 0.3, 0.1)
    hq = transform_hamiltonian(code, h)
    support = {s.text() for s in hq.terms}
    ok_support = support == {"I", "X1*X2", "Z1", "Z2", "Z1*Z2"}
    ok_real = all(abs(c.imag) < 1e-12 for c in hq.terms.values())
    basis = enumerate_basis(BasisSpec(4, ((1, 2), (3, 4)), ((1,), (1,))))
    report = verify_equivalence(code, h, hq, basis, tol=1e-9)
    elapsed = time.monotonic() - start
    _report(
        1,
        ok_support and ok_real and report.ok and elapsed < 1.0,
        f"support={sorted(support)} real={ok_real} oracle={report.status} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_2_resource_table(table_rows):
    lines = []
    ok = True
    for name, want_qubits in ROW_ORDER:
        code, _, hq, elapsed = table_rows[name]
        terms, gates = hq.stats()
        has_identity = any(s.is_identity() for s in hq.terms)
        terms_excl = terms - (1 if has_identity else 0)
        ok &= hq.n == want_qubits
        digest = hashlib.sha256(hq.serialize().encode()).hexdigest()[:16]
        ok &= (terms, gates, digest) == ROW_PINS[name]
        if name == "segment+segment":
            ok &= elapsed < 300.0
        lines.append(
            f"  {name:20s} qubits={hq.n:2d} terms={terms} "
            f"terms_excl_identity={terms_excl} gates={gates} sha256={digest} "
            f"({elapsed:.1f}s)"
        )
        # determinism: transforming again reproduces the bytes
        _, prepared, _, _ = table_rows[name]
        again = transform_hamiltonian(code, prepared)
        ok &= again.serialize() == hq.serialize()
    print("\n" + "\n".join(lines))
    qubits = {name: table_rows[name][2].n for name, _ in ROW_ORDER}
    _report(2, ok, f"qubit counts {qubits}")


def test_criterion_3_oracle_equivalence_full_scale(table_rows, physical_basis):
    ok = True
    details = []
    for name, _ in ROW_ORDER:
        code, prepared, hq, _ = table_rows[name]
        report = verify_equivalence(code, prepared, hq, physical_basis, tol=1e-9)
        ok &= report.ok and report.max_deviation < 1e-9
        details.append(f"{name}: {report.status} (dev {report.max_deviation:.2g})")
    _report(3, ok, "; ".join(details))


def test_criterion_4_extraction_properties():
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n = rng.randrange(1, 7)
        f = random_boolpoly(rng, n)
        g = random_boolpoly(rng, n)
        xf = extract(f)
        ok &= xf.is_diagonal()
        for w in range(1 << n):
            want = (-1.0) ** f.evaluate(w)
            got = sum(
                c * (-1.0 if (w & s.z).bit_count() & 1 else 1.0)
                for s, c in xf.terms.items()
            )
            ok &= abs(got - want) < 1e-9
        ok &= extract(f + g).isclose(extract(f) * extract(g), 1e-9)
    from fermicode.bitmath import BoolPoly

    f = BoolPoly.from_text(2, "1 + x1 + x1*x2")
    worked = extract(f).isclose(
        (-1.0) * (QubitOperator.z_string(2, 0b01) * cphase_expand([1, 2], 2)), 1e-12
    )
    ok &= worked
    _report(4, ok, "200 random extractions + worked controlled-phase example")


def test_criterion_5_linear_recovery_and_anticommutation():
    rng = random.Random(99)
    codes = [jordan_wigner(5), parity_code(5), bravyi_kitaev(5)]
    codes += [linear_code(random_invertible_bitmat(rng, 5)) for _ in range(20)]
    ok = True
    for code in codes:
        ok &= verify_anticommutation(code, atol=1e-12).ok
        for j in range(1, 6):
            for dagger in (False, True):
                ok &= transform_op_linear(code, j, dagger).isclose(
                    transform_term(code, FermionTerm.of(1.0, (j, dagger))), 1e-12
                )
        for i, j in itertools.product(range(1, 6), repeat=2):
            for b1, b2 in itertools.product((False, True), repeat=2):
                composed = transform_op_linear(code, i, b1) * transform_op_linear(
                    code, j, b2
                )
                general = transform_term(code, FermionTerm.of(1.0, (i, b1), (j, b2)))
                ok &= composed.isclose(general, 1e-12)
        if not ok:
            break
    _report(5, ok, f"{len(codes)} linear codes, singles and all two-operator products")


def _chain_qs(n):
    """Flip vectors arising from chain-model terms: hops, wrap, quartics."""
    qs = [BitVec.zeros(n)]
    for i in range(1, n):
        qs.append(BitVec.unit(n, i) + BitVec.unit(n, i + 1))
    if n > 2:
        qs.append(BitVec.unit(n, 1) + BitVec.unit(n, n))
    for i in range(1, n - 2, 2):
        qs.append(
            BitVec.unit(n, i)
            + BitVec.unit(n, i + 1)
            + BitVec.unit(n, i + 2)
            + BitVec.unit(n, min(i + 3, n))
        )
    return qs


def test_criterion_6_update_demand():
    cases = [
        jordan_wigner(12),
        parity_code(12),
        bravyi_kitaev(12),
        checksum_code(13, "even"),
        checksum_code(13, "odd"),
        binary_addressing_k1(2),
        binary_addressing_k1(3),
        binary_addressing_k1(4),
        binary_addressing_k2(2),
        binary_addressing_k2(3),
        segment_code(1, 2),
        segment_code(2, 2),
        segment_code(2, 3),
        segment_code(3, 1),
    ]
    ok = True
    checked = 0
    for code in cases:
        assert code.n_qubits <= 12
        if code.kind.startswith("binary_addressing"):
            k = 1 if code.kind.endswith("k1") else 2
            basis = [nu for nu in decode_image(code) if nu.weight() == k]
        else:
            basis = decode_image(code)
        encode = functools.cache(code.encode_vec)
        for q in _chain_qs(code.n_modes):
            u = update_operator(code, q)
            for nu in basis:
                got = apply_qubit_operator(
                    u, QubitStateVector.basis_state(encode(nu))
                )
                want = QubitStateVector.basis_state(encode(nu + q))
                if not got.isclose(want, 1e-9):
                    ok = False
                    break
                checked += 1
            if not ok:
                break
        if not ok:
            break
    _report(6, ok, f"{len(cases)} codes, {checked} state/flip checks, exhaustive over V")


def test_criterion_7_code_round_trips():
    ok = True
    count = 0
    for n in range(2, 11):
        for flavor in ("even", "odd"):
            code = checksum_code(n, flavor)
            want = 1 if flavor == "odd" else 0
            for value in range(1 << n):
                nu = BitVec.from_int(value, n)
                if nu.weight() % 2 == want:
                    ok &= code.in_basis(nu)
                    count += 1
    for r in (1, 2, 3, 4):
        code = binary_addressing_k1(r)
        for j in range(1, code.n_modes + 1):
            ok &= code.in_basis(BitVec.unit(code.n_modes, j))
            count += 1
    for r in (2, 3):
        code = binary_addressing_k2(r)
        for pair in itertools.combinations(range(1, code.n_modes + 1), 2):
            nu = BitVec.from_int(sum(1 << (m - 1) for m in pair), code.n_modes)
            ok &= code.in_basis(nu)
            count += 1
    for weight in (1, 2, 3):
        for m in (1, 2, 3):
            code = segment_code(weight, m)
            for combo in itertools.combinations(range(1, code.n_modes + 1), weight):
                nu = BitVec.from_int(sum(1 << (x - 1) for x in combo), code.n_modes)
                ok &= code.in_basis(nu)
                count += 1
    _report(7, ok, f"{count} exhaustive round-trips across all code families")


def test_criterion_8_segment_adjustment(table_rows, physical_basis):
    # unadjusted inter-segment hops escape the encoded basis
    suit = segment_code(2, 2)
    hop = FermionHamiltonian(
        10,
        (
            FermionTerm.of(1.0, (6, True), (1, False)),
            FermionTerm.of(1.0, (1, True), (6, False)),
        ),
    )
    hq_raw = transform_hamiltonian(suit, hop, check_hermiticity=False)
    raw_report = verify_equivalence(suit, hop, hq_raw, decode_image(suit))
    ok = raw_report.status == "incompatible"

    # at full model scale the unadjusted transform is non-hermitian
    h = hubbard_hamiltonian(2, 5, 1.0, 1.0, True)
    seg2 = concat(segment_code(2, 2), segment_code(2, 2))
    try:
        transform_hamiltonian(seg2, h)
        ok = False
        herm = "unexpectedly hermitian"
    except NonHermitianError:
        herm = "non-hermitian as expected"

    # the adjusted Hamiltonian passes the full-scale oracle check
    code, prepared, hq, _ = table_rows["segment+segment"]
    adj_report = verify_equivalence(code, prepared, hq, physical_basis, tol=1e-9)
    ok &= adj_report.ok

    # dressed pairs stay hermitian as dense matrices at reduced size (N = 8)
    small = hubbard_hamiltonian(2, 2, 1.0, 1.0, periodic_lateral=False)
    segments = ((1, 2), (3, 4), (5, 6), (7, 8))
    dressed = adjust_for_segments(normal_order_blocks(small), segments, 2)
    m = dense_fermion_hamiltonian(dressed)
    dense_ok = float(np.max(np.abs(m - m.conj().T))) < 1e-12
    ok &= dense_ok
    _report(
        8,
        ok,
        f"unadjusted: {raw_report.status}; full-scale: {herm}; "
        f"adjusted: {adj_report.status}; dense hermiticity at N=8: {dense_ok}",
    )


def test_criterion_9_small_model_spectra():
    ok = True
    details = []
    # 1 x 2 lattice: one particle per suit -> odd/odd checksum pair
    h = hubbard_hamiltonian(1, 2, 1.0, 1.0, periodic_lateral=False)
    sector = enumerate_basis(BasisSpec(4, ((1, 2), (3, 4)), ((1,), (1,))))
    e_full = np.linalg.eigvalsh(fock_matrix(h, [BitVec.from_int(v, 4) for v in range(16)]))
    e_jw = np.linalg.eigvalsh(dense_operator(transform_hamiltonian(jordan_wigner(4), h)))
    ok &= abs(e_full[0] - e_jw[0]) < 1e-9
    code = concat(checksum_code(2, "odd"), checksum_code(2, "odd"))
    e_sector = np.linalg.eigvalsh(fock_matrix(h, sector))
    e_code = np.linalg.eigvalsh(dense_operator(transform_hamiltonian(code, h)))
    ok &= abs(e_sector[0] - e_code[0]) < 1e-9
    details.append(f"1x2 ground {e_sector[0]:.9f}")

    # 2 x 2 lattice: two particles per suit -> even/even checksum pair
    h = hubbard_hamiltonian(2, 2, 1.0, 1.0, periodic_lateral=False)
    full = [BitVec.from_int(v, 8) for v in range(256)]
    e_full = np.linalg.eigvalsh(fock_matrix(h, full))
    e_jw = np.linalg.eigvalsh(dense_operator(transform_hamiltonian(jordan_wigner(8), h)))
    ok &= abs(e_full[0] - e_jw[0]) < 1e-9
    code = concat(checksum_code(4, "even"), checksum_code(4, "even"))
    sector = enumerate_basis(BasisSpec(8, (tuple(range(1, 5)), tuple(range(5, 9))), ((0, 2, 4), (0, 2, 4))))
    e_sector = np.linalg.eigvalsh(fock_matrix(h, sector))
    e_code = np.linalg.eigvalsh(dense_operator(transform_hamiltonian(code, h)))
    ok &= abs(e_sector[0] - e_code[0]) < 1e-9
    details.append(f"2x2 even-sector ground {e_sector[0]:.9f}")
    _report(9, ok, "; ".join(details))

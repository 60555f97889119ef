"""Serialized bytes of the benchmark's non-dyadic workloads, pinned in tier-1.

The molecular workload has random real coefficients, so the order in which
the merge sums each string's contributions fixes the last digits of the
output. Its seed-0 input and that of the two-particle workload are
regenerated from ``perfbench/models.py`` exactly as the benchmark does
(generate, format, parse) and checked against the sha256 recorded in
``perfbench/expected.json``, which is only read. Seeds 1 and 2 are pinned
by their own sha256 and also compared with ``helpers.reference_transform``,
the per-term merge; that reference runs the same kernel, so only the pins
catch an error both share. The Hubbard rows of the resource table and the
3x5 segment row are compared with the reference too: there
``transform_hamiltonian`` shares group tables across terms, where each
``transform_term`` builds its own. The 2-orbital molecular model through
the checksum codes, whose projectors' affine Z masks collide, is pinned by
its sha256.

With t = 0.7 and U = 1.3 the Hubbard coefficients are not dyadic, so the
order of every float product and sum shows in the bytes; the ``transform
--out`` files of two segment rows are pinned by their sha256.

Four entry points of the map other than ``transform_hamiltonian``
(``update_operator``, ``transform_single_two_codes``, ``flip_operator``,
``transform_term``) are pinned by the sha256 of their operators' texts.
Their ``terms`` dicts, and those of ``transform_hamiltonian`` on the
molecular workload and on the non-dyadic 2x5 segment row, are pinned in
order, bits of the coefficients included: ``terms`` is built from the
operator's columns when first read and must keep the merge's order.

The ``verify --out`` reports of the resource-table rows, of the same 2x5
model on an overfilled basis, and of the undressed segment row (which stops
at the hermiticity check and writes nothing) are pinned by their sha256.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from fermicode.bitmath import BitVec, BoolPoly
from fermicode.cli import hubbard_hamiltonian, main
from fermicode.codes import binary_addressing_k2, checksum_code, load_code
from fermicode.pauli import flip_operator
from fermicode.transform import (
    adjust_for_segments,
    format_fermion_file,
    normal_order_blocks,
    parse_fermion_file,
    transform_hamiltonian,
    transform_single_two_codes,
    transform_term,
    update_operator,
)

from helpers import reference_transform

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# expected.json key: (generator, size, code), as perfbench/run.py defines them.
WORKLOADS = {
    "molecular_bk": ("molecular", {"orbitals": 7}, "bravyi_kitaev:14"),
    "smoke:molecular_bk": ("molecular", {"orbitals": 2}, "bravyi_kitaev:4"),
    "addressing_k2": ("two_particle", {"modes": 8}, "binary_addressing_k2:3"),
    "smoke:addressing_k2": ("two_particle", {"modes": 4}, "binary_addressing_k2:2"),
}


@pytest.fixture(scope="module")
def models():
    spec = importlib.util.spec_from_file_location("perfbench_models", BENCH / "models.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _job_input(models, name, seed):
    model, size, code = WORKLOADS[name]
    text = format_fermion_file(models.GENERATORS[model](seed, **size))
    return load_code(code), parse_fermion_file(text)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_bytes_match_benchmark_record(models, name):
    expected = json.loads((BENCH / "expected.json").read_text())[name]
    code, h = _job_input(models, name, 0)
    hq = transform_hamiltonian(code, h)
    assert (hq.n, *hq.stats()) == (expected["qubits"], expected["pauli_terms"], expected["gates"])
    assert hashlib.sha256(hq.serialize().encode()).hexdigest() == expected["sha256"]


# (workload, seed): sha256 of the serialized operator at bench size.
SEED_PINS = {
    ("molecular_bk", 1): "a524cec9d4878782c83f04028e56b39f68d518affcef1d77f3092af39050c9d6",
    ("molecular_bk", 2): "edc79d892441067fe69e4cad11126e81aa2d3ea786cc0601e32e86b6109f2ddf",
    ("addressing_k2", 1): "7662d8bca9f456580e0626a09c409578a3e74297072cf06e8e2eecc8504e727b",
    ("addressing_k2", 2): "419b03b9d4694b81ae20d69731ed63b966d93778d7f106e8d88b2a77f00aab29",
}


@pytest.mark.parametrize("name, seed", sorted(SEED_PINS))
def test_merge_matches_per_term_reference(models, name, seed):
    code, h = _job_input(models, name, seed)
    hq = transform_hamiltonian(code, h)
    reference = reference_transform(code, h)
    assert hq == reference
    text = hq.serialize()
    assert text == reference.serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == SEED_PINS[name, seed]


# (flavor, seed): sha256 of the serialized operator of the 2-orbital molecular
# model through checksum:4; the checksum's last decode component is the sum
# of the others, so the affine Z masks of a term's projectors collide.
CHECKSUM_PINS = {
    ("even", 1): "97d1962539d6d66332ed40a2fde7d92ec8c4c9d59990ae1565c18c365c512990",
    ("even", 2): "67c3e832fae037898b08400d854500306fcddce3a5d82de0aa3316b2491ffd24",
    ("odd", 1): "3ca8649790eafd6bff991e87296c5f107a291e4cb521e270bed294cdae91c9cf",
    ("odd", 2): "7728566f75d7054925fa6c047ebaf31ff952352c46093e688113636a9f57000d",
}


@pytest.mark.parametrize("flavor, seed", sorted(CHECKSUM_PINS))
def test_colliding_affine_masks_bytes_are_pinned(models, flavor, seed):
    text = format_fermion_file(models.GENERATORS["molecular"](seed, orbitals=2))
    hq = transform_hamiltonian(load_code(f"checksum:4:{flavor}"), parse_fermion_file(text))
    digest = hashlib.sha256(hq.serialize().encode()).hexdigest()
    assert digest == CHECKSUM_PINS[flavor, seed]


def _entry_point_ops(models, entry):
    """The operators of one of ``ENTRY_POINT_PINS``' entry points."""
    k2 = binary_addressing_k2(3)
    if entry == "update_operator":
        return [update_operator(k2, BitVec.from_int(q, k2.n_modes)) for q in range(256)]
    if entry == "transform_single_two_codes":
        even, odd = checksum_code(5, "even"), checksum_code(5, "odd")
        return [transform_single_two_codes(even, odd, j, dagger)
                for j in range(1, 6) for dagger in (True, False)]
    if entry == "flip_operator":
        x1, x2, x3, x4 = (BoolPoly.variable(4, j) for j in range(1, 5))
        y1, y2, y3 = (BoolPoly.variable(3, j) for j in range(1, 4))
        return [flip_operator(4, [x1 * x2 + x3, x4]), flip_operator(3, [y1 * y2, y2 * y3, y1])]
    return [transform_term(k2, term) for term in models.two_particle(0, 8).terms]


# Entry point: sha256 of its operators' serialized texts joined by "\n--\n":
# the updates of binary_addressing_k2:3 for every q, the two-code recipe on
# checksum:5 for every ladder operator, two flip operators (one with fewer
# flips than qubits) and each term of the 8-mode two-particle model through
# binary_addressing_k2:3 on its own.
ENTRY_POINT_PINS = {
    "update_operator": "b82550c434c699e3a07db032d73abc78bc04390fdc634d7383577fd1afdfa1ea",
    "transform_single_two_codes": "957eaf62b6c52b4e4530d4e8ded00d2dc14f3eedb50655ba5f6265c125e6b2e1",
    "flip_operator": "a0950a5fdd0ffb48eb1004b84c1a31b0c463df7ab9f7dc52fa320bcb6e3c73e4",
    "transform_term": "76112d290a961ae267b7ba4a6c1e7c10ac2728aec570486343aa5f9e365db752",
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINT_PINS))
def test_entry_point_bytes_are_pinned(models, entry):
    text = "\n--\n".join(op.serialize() for op in _entry_point_ops(models, entry))
    assert hashlib.sha256(text.encode()).hexdigest() == ENTRY_POINT_PINS[entry]


def _terms_digest(ops):
    terms = [item for op in ops for item in op.terms.items()]
    rows = [f"{s.x:x} {s.z:x} {c.real.hex()} {c.imag.hex()}" for s, c in terms]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# Entry point or row: sha256 of ``(x, z, re, im)`` of each string in ``terms`` order.
TERMS_ORDER_PINS = {
    "flip_operator": "72f8b1e49a5b0834912e030f1cf1013e3bf0d52eaff05e4653583e617a18fa0b",
    "transform_single_two_codes": "a9de524ad541dd1db42102637845e5852f586c4d0e9ff19641b20901ea5c417d",
    "transform_term": "afdb4315f507af72a4d33b1595635991fdc289f8b909c8664df5fabe9a48344c",
    "update_operator": "6e9468cb76d8b0a96e5d67ff4e726e81664e4ce762c418cb73fe0c1b9573b076",
    "molecular_bk": "dc6329ea27448ffbe413c44633021d583faced2dccfb9ac3c9aea30c1957ba07",
    "hubbard_2x5": "c49bda7160eaeb17eb0dded48292cedba5284a0ec89947a858d30d7c2f732d87",
}


@pytest.mark.parametrize("entry", sorted(TERMS_ORDER_PINS))
def test_terms_order_is_pinned(models, entry):
    if entry == "molecular_bk":
        ops = [transform_hamiltonian(*_job_input(models, entry, 0))]
    elif entry == "hubbard_2x5":
        code = load_code("segment:2:2+segment:2:2")
        h = adjust_for_segments(hubbard_hamiltonian(2, 5, 0.7, 1.3), code.segments, 2)
        ops = [transform_hamiltonian(code, h)]
    else:
        ops = _entry_point_ops(models, entry)
    assert _terms_digest(ops) == TERMS_ORDER_PINS[entry]


# (rows, cols, code) of the periodic t = U = 1 Hubbard rows; the 3x5 row
# is pinned by the sha256 prefix of its serialized operator.
HUBBARD_ROWS = [
    (2, 5, "jordan_wigner:20"),
    (2, 5, "bravyi_kitaev:20"),
    (2, 5, "checksum:10:even+checksum:10:even"),
    (2, 5, "checksum:10:even+segment:2:2"),
    (2, 5, "segment:2:2+segment:2:2"),
    (3, 5, "segment:2:3+segment:2:3"),
]


@pytest.mark.parametrize("rows, cols, spec", HUBBARD_ROWS)
def test_shared_group_tables_match_per_term_reference(rows, cols, spec):
    code = load_code(spec)
    h = hubbard_hamiltonian(rows, cols, 1.0, 1.0, periodic_lateral=True)
    if code.segments:
        h = adjust_for_segments(normal_order_blocks(h), code.segments, code.segment_weight)
    text = transform_hamiltonian(code, h).serialize()
    assert text == reference_transform(code, h).serialize()
    if rows == 3:
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "10c79df1ec5bee0b"


# code: sha256 of ``transform --out`` on the 2x5 model with t = 0.7, U = 1.3.
NON_DYADIC_ROWS = {
    "segment:2:2+segment:2:2": "ef11277e3d3b79d05396c42477918b0c376a0c40493e26618d16e0b6dda8f2e2",
    "checksum:10:even+segment:2:2": "0254e242d777e3d0682a0113d08e9d483c0a657a2d4e200568f2ff9e4961be7a",
}


@pytest.mark.parametrize("spec", sorted(NON_DYADIC_ROWS))
def test_non_dyadic_transform_bytes_are_pinned(tmp_path, spec):
    model, out = tmp_path / "model.txt", tmp_path / "out.txt"
    assert main(["gen-model", "--model", "hubbard", "--rows", "2", "--cols", "5",
                 "--t", "0.7", "--u", "1.3", "--out", str(model)]) == 0
    assert main(["transform", "--hamiltonian", str(model), "--code", spec, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NON_DYADIC_ROWS[spec]


PASS_REPORT = "b06943748979624a92d23ea5162d3342bd4178c381011b1780cc2e1424095a1b"
# (code, basis, extra flags): (exit code, sha256 of the --out file)
VERIFY_REPORTS = {
    ("jordan_wigner:20", "1-10:2;11-20:2", ()): (0, PASS_REPORT),
    ("bravyi_kitaev:20", "1-10:2;11-20:2", ()): (0, PASS_REPORT),
    ("checksum:10:even+checksum:10:even", "1-10:2;11-20:2", ()): (0, PASS_REPORT),
    ("checksum:10:even+segment:2:2", "1-10:2;11-20:2", ()): (0, PASS_REPORT),
    ("segment:2:2+segment:2:2", "1-10:2;11-20:2", ()): (0, PASS_REPORT),
    ("segment:2:2+segment:2:2", "1-10:2;11-20:2", ("--no-adjust",)): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("segment:2:2+segment:2:2", "1-10:3;11-20:3", ()): (
        1, "eb6ce9fc96fcd3b2c0196a4ea1d7ffc5634efbc7afd1cc8df82c168b06cd66a4"
    ),
}


@pytest.mark.parametrize("spec, basis, flags", sorted(VERIFY_REPORTS))
def test_verify_report_bytes_are_pinned(tmp_path, spec, basis, flags):
    out = tmp_path / "report.json"
    rc = main(["verify", "--model", "hubbard", "--code", spec, "--basis", basis,
               "--out", str(out), *flags])
    digest = hashlib.sha256(out.read_bytes() if out.exists() else b"").hexdigest()
    assert (rc, digest) == VERIFY_REPORTS[spec, basis, flags]

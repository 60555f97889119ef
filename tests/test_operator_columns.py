"""The columnar ``QubitOperator``: the map's columns reach the text, the
counts, the hermiticity check and the oracle without any ``PauliString``.

``transform --verify`` on the 2x5 Hubbard row through
``segment:2:2+segment:2:2`` (the ``hubbard_segment`` benchmark workload)
runs ``transform_hamiltonian`` -> ``serialize`` -> ``stats`` ->
``verify_equivalence``; no string may be constructed on the way, and the
operator's lazy ``terms`` slot stays empty. The oracle's string batch read
from the columns equals, bit for bit, the one packed string by string.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from fermicode.cli import hubbard_hamiltonian
from fermicode.codes import enumerate_basis, load_code, parse_basis_spec
from fermicode.fock_oracle import _Batch, _pack_strings, _string_columns
from fermicode.fock_oracle import verify_equivalence
from fermicode.pauli import PauliString, QubitOperator
from fermicode.transform import adjust_for_segments, transform_hamiltonian

from helpers import item_columns

EXPECTED_JSON = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def test_transform_and_verify_build_no_pauli_string(monkeypatch):
    code = load_code("segment:2:2+segment:2:2")
    h = hubbard_hamiltonian(2, 5)
    dressed = adjust_for_segments(h, code.segments, code.segment_weight)
    basis = enumerate_basis(parse_basis_spec("1-10:2;11-20:2", code.n_modes))
    built = []

    def record(*args, **kwargs):
        built.append(args)
        raise AssertionError("a PauliString was built")

    monkeypatch.setattr(PauliString, "__new__", record)
    monkeypatch.setattr(PauliString, "from_masks", classmethod(record))
    hq = transform_hamiltonian(code, dressed)
    text = hq.serialize()
    stats = hq.stats()
    report = verify_equivalence(code, h, hq, basis)
    assert built == [] and hq._terms is None  # the dict behind ``terms`` was never built
    expected = json.loads(EXPECTED_JSON.read_text())["hubbard_segment"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]
    assert stats == (expected["pauli_terms"], expected["gates"])
    assert report.status == "pass" and report.states_checked == len(basis)


def test_string_batch_from_columns_equals_the_packed_items():
    rng = random.Random(71)
    for n in (1, 3, 16, 64, 65, 130):
        flips = [rng.getrandbits(n) for _ in range(5)]
        terms = {}
        for _ in range(40):
            s = PauliString.from_masks(n, rng.choice(flips), rng.getrandbits(n))
            terms[s] = complex(rng.choice([0.0, -0.0, rng.uniform(-1, 1)]), rng.uniform(-1, 1))
        op = QubitOperator(n, terms)
        got, want = _Batch(_string_columns(op), n), _Batch(item_columns(_pack_strings(op), n), n)
        for name in ("group", "flips", "z", "care", "want", "halves"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.coeff.tobytes() == want.coeff.tobytes()  # signed zeros too

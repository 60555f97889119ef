"""Mutation fuzz of the CLI inputs through ``cli.main``.

Each strategy starts from valid inputs (Hamiltonian lines, JSON code specs,
compact code names, basis specs) and mutates them. Every input must end in
an exit code, never a traceback: exit 2 prints ``input error:`` and exit 3
``resource budget exceeded:``. Exit 1 is a verification outcome, accepted
only with its own message. Integers stay small (no digit is inserted into a
JSON spec, and name and basis fields are swapped whole, never merged), so
no case builds a large code.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicode.cli import main

FUZZ = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2, 3), (rc, err)
    if rc == 2:
        assert err.startswith("input error: "), err
    if rc == 3:
        assert err.startswith("resource budget exceeded: "), err
    return rc, out, err


def mutate_chars(draw, text: str, alphabet: str) -> str:
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(alphabet))
        text = draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + text[i + 1:],
                                     text[:i] + c + text[i + 1:]]))
    return text


def mutate_fields(draw, text: str, separators: str, pool: list[str]) -> str:
    """Replace, drop or add the fields between ``separators``; fields never merge."""
    tokens = re.split(f"([{re.escape(separators)}])", text)  # fields at the even indices
    for _ in range(draw(st.integers(1, 3))):
        i = 2 * draw(st.integers(0, len(tokens) // 2))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace" or len(tokens) == 1:
            tokens[i] = draw(st.sampled_from(pool))
        elif action == "drop":
            start = i - 1 if i else 0
            del tokens[start:start + 2]
        else:
            tokens[i + 1:i + 1] = [draw(st.sampled_from(separators)), draw(st.sampled_from(pool))]
    return "".join(tokens)


HAMILTONIAN_LINES = [
    "1 0 : +1 -1", "0.5 0 : +1 -2", "0.5 0 : +2 -1", "2 0 : +1 -1 +2 -2",
    "-1 0.5 : +3 -4", "-1 -0.5 : +4 -3", "", "# comment", "1e-3 0 : +4 +3 -3 -4",
]


@st.composite
def hamiltonian_texts(draw):
    lines = draw(st.lists(st.sampled_from(HAMILTONIAN_LINES), min_size=1, max_size=5))
    text = "\n".join(["# modes: 4", *lines]) + "\n"
    return mutate_chars(draw, text, "0123456789 .:+-#e_\tx\u0663")


@FUZZ
@given(text=hamiltonian_texts())
def test_mutated_hamiltonian_files(scratch, text):
    path = scratch / "h.txt"
    path.write_text(text, encoding="utf-8")
    rc, _, err = run(["transform", f"--hamiltonian={path}", "--code=jordan_wigner:4"])
    if rc == 1:
        assert err.startswith("error: transformed Hamiltonian is not hermitian"), err


CODE_SPECS = [
    {"kind": "jordan_wigner", "n_modes": 4},
    {"kind": "checksum", "n_modes": 4, "flavor": "even"},
    {"kind": "binary_addressing_k1", "r": 2},
    {"kind": "binary_addressing_k2", "r": 2},
    {"kind": "segment", "weight": 1, "segments": 1},
    {"kind": "concat",
     "parts": [{"kind": "parity", "n_modes": 2}, {"kind": "bravyi_kitaev", "n_modes": 2}]},
    {"kind": "custom", "n_modes": 4, "n_qubits": 3, "encode": ["x1", "x2", "x3"],
     "decode": ["x1", "x2", "x3", "x1 + x2 + x3"], "decode_affine": [0, 0, 0, 1]},
]
SPEC_KEYS = ["kind", "n_modes", "n_qubits", "r", "weight", "segments", "flavor", "parts",
             "encode", "decode", "encode_affine", "decode_affine", "degenerate_image",
             "segmnets", "extra"]
POLY_TEXTS = ["x1", "x2", "1", "0", "1 + x1*x2", "x9", "", "x", "x1_0", "x\u0663"]
SPEC_VALUES = st.one_of(
    st.integers(-1, 5),
    st.booleans(),
    st.none(),
    st.floats(-2, 5),
    st.sampled_from(["even", "odd", "custom", "concat", "segment", *POLY_TEXTS]),
    st.lists(st.one_of(st.sampled_from(POLY_TEXTS), st.integers(0, 1)), max_size=5),
)


@st.composite
def code_spec_texts(draw):
    spec = dict(draw(st.sampled_from(CODE_SPECS)))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(SPEC_KEYS))
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(SPEC_VALUES)
    if draw(st.booleans()):
        spec = {"kind": "concat", "parts": [spec, draw(st.sampled_from(CODE_SPECS))]}
    text = json.dumps(spec)
    return mutate_chars(draw, text, '{}[]":, ') if draw(st.booleans()) else text


@FUZZ
@given(text=code_spec_texts())
def test_mutated_json_code_specs(scratch, text):
    path = scratch / "code.json"
    path.write_text(text, encoding="utf-8")
    rc, out, _ = run(["validate-code", f"--code={path}", "--basis=1-4:0,1,2,3,4"])
    if rc == 1:
        assert "round_trip=FAIL" in out, out


NAMES_AND_BASES = [
    ("jordan_wigner:4", "1-4:0,2,4"),
    ("checksum:4:odd", "1-4:1,3"),
    ("binary_addressing_k1:2", "1-4:1"),
    ("binary_addressing_k2:2", "1-4:2"),
    ("segment:1:2", "1-3:0,1;4-6:0,1"),
    ("parity:2+bravyi_kitaev:3", "1,2:1;3-5:0,1"),
]
FIELDS = ["0", "1", "2", "3", "4", "11", "01", "-1", "1_0", "\u0663", " 2", "+2", "", "x",
          "even", "odd", "2.0", "segment", "jordan_wigner", "binary_addressing_k2", "parity"]


@st.composite
def names_and_bases(draw):
    name, basis = draw(st.sampled_from(NAMES_AND_BASES))
    if draw(st.booleans()):
        name = mutate_fields(draw, name, ":+", FIELDS)
    if draw(st.booleans()):
        basis = mutate_fields(draw, basis, ";:,-", FIELDS)
    return name, basis


@FUZZ
@given(case=names_and_bases())
def test_mutated_code_names_and_basis_specs(case):
    name, basis = case
    rc, out, _ = run(["validate-code", f"--code={name}", f"--basis={basis}"])
    if rc == 1:
        assert "round_trip=FAIL" in out, out

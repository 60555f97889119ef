"""The columnar fermionic front end: the parse into columns, the walk that
packs every ladder product at once, and the one pack a Hamiltonian shares
between the map and the oracle.

``pack_terms`` is checked against ``helpers.reference_pack``, the walk it
replaced, item by item: the four masks, the term index and the ``repr`` of
every coefficient, signed zeros included. ``parse_fermion_file`` is checked
against itself with its fast pass switched off (``_TERM`` matching
nothing), so that every line goes through the per-line code: both give the
same Hamiltonian, or the same ``InputFormatError`` text.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicode import fock_oracle, transform
from fermicode.bitmath import _ints
from fermicode.codes import enumerate_basis, load_code, parse_basis_spec
from fermicode.errors import DimensionError, InputFormatError
from fermicode.pauli import QubitOperator
from fermicode.transform import (
    FermionHamiltonian,
    FermionTerm,
    format_fermion_file,
    pack_terms,
    parse_fermion_file,
    transform_hamiltonian,
)

from helpers import reference_pack

WIDTHS = (1, 63, 64, 65, 128)
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e-300, 3.0e300])


@st.composite
def hamiltonians(draw):
    """Terms over a few modes each, so that products repeat modes and some
    vanish; scalars and empty Hamiltonians included."""
    n = draw(st.sampled_from(WIDTHS))
    pool = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    op = st.tuples(st.sampled_from(pool), st.booleans())
    term = st.builds(
        FermionTerm, st.builds(complex, PARTS, PARTS), st.lists(op, max_size=6).map(tuple)
    )
    return FermionHamiltonian(n, draw(st.lists(term, max_size=8)))


def assert_packs_as_the_reference(h):
    flip, z, care, want, c, term = pack_terms(h)
    ref = list(reference_pack(h.terms))
    assert term.tolist() == [i for i, item in enumerate(ref) if item is not None]
    got = zip(*map(_ints, (flip, z, care, want)), c.tolist())
    assert [(*masks, repr(v)) for *masks, v in got] == [
        (*item[:4], repr(item[4])) for item in ref if item is not None
    ]


@settings(max_examples=300, deadline=None)
@given(h=hamiltonians())
def test_pack_matches_the_reference_walk(h):
    assert_packs_as_the_reference(h)


@pytest.mark.parametrize("n", WIDTHS + (2,))
def test_pack_of_vanishing_products_scalars_and_empty(n):
    top = n
    terms = [
        FermionTerm.of(1.0, (1, True), (1, True)),  # c1^dag c1^dag
        FermionTerm.of(complex(-0.0, 0.5), (top, False), (top, True), (top, False), (top, False)),
        FermionTerm.of(complex(-0.0, -0.0)),  # a scalar
        FermionTerm.of(complex(0.0, -1.0), (top, True), (1, False)),
        FermionTerm.of(2.0, (1, True), (1, False), (1, True), (1, False)),  # n_1 n_1 lives
    ]
    h = FermionHamiltonian(n, terms)
    assert_packs_as_the_reference(h)
    assert pack_terms(h)[5].tolist() == [2, 3, 4]
    empty = FermionHamiltonian(n, ())
    assert_packs_as_the_reference(empty)
    assert [column.shape[0] for column in pack_terms(empty)] == [0] * 6


def test_hamiltonian_columns_and_terms():
    h = parse_fermion_file("# modes: 5\n0.5 -0 : +3 -1\n\n-2 0 :\n1 1 : +5 +4 -4 -5\n")
    coeff, ops = h.coeff, h.ops
    assert coeff.view(np.float64).tolist() == [0.5, -0.0, -2.0, 0.0, 1.0, 1.0]
    assert np.signbit(coeff.imag).tolist() == [True, False, False]
    assert ops.tolist() == [[3, -1, 0, 0], [0, 0, 0, 0], [5, 4, -4, -5]]
    assert "terms" not in h.__dict__  # built only when read
    assert str(h.term(2)) == "((1+1j)) +5 +4 -4 -5"
    assert h.terms[0] == FermionTerm.of(complex(0.5, -0.0), (3, True), (1, False))
    assert h.terms[1] == FermionTerm.of(-2.0)
    again = FermionHamiltonian(5, h.terms)
    assert again == h and again.ops.tolist() == ops.tolist()


@pytest.mark.parametrize("mode", [0, -3, 7])
def test_hamiltonian_from_terms_checks_modes_on_the_columns(mode):
    terms = (FermionTerm.of(1, (1, True)), FermionTerm.of(1, (2, True), (mode, False), (9, True)))
    with pytest.raises(DimensionError, match=rf"^mode {mode} outside 1\.\.6$"):
        FermionHamiltonian(6, terms)


# -- the parse: fast pass against the per-line path ------------------------------

VALID_LINES = [
    "1 0 : +1 -1", "0.5 0 : +1 -2", "-1 0.5 : +3 -4", "1e-3 -2.5E+1 : +4 +3 -3 -4",
    ".5 +1 : +2 -2", "1. -0.0 : -012 +3", "-0 0 :", "3 0 : # scalar", "\t2 \t0\t:\t+1\t-4 ",
    "1 0 : +1 \x1c -1", "1e308 1e-400 : +2 -1", "2 0 : +4 -4  # inline", "", "# comment",
    "# modes: 6", "   ", "0 0 : +9 -9", "7 1 : +1 +2 -2 -1\r",
]
MUTATIONS = "0123456789 .:+-#e_\tx\u0663\x0c\x1c\r\n\u2028"


@st.composite
def hamiltonian_texts(draw):
    lines = draw(st.lists(st.sampled_from(VALID_LINES), max_size=8))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(MUTATIONS))
        text = draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + text[i + 1:]]))
    return text


def parsed(text, n_modes=None):
    """The parse as comparable values, or its error text."""
    try:
        h = parse_fermion_file(text, n_modes)
    except InputFormatError as exc:
        return str(exc)
    return h.n_modes, h.coeff.tobytes(), h.ops.shape, h.ops.tobytes(), h.terms


@settings(max_examples=400, deadline=None)
@given(text=hamiltonian_texts(), n_modes=st.sampled_from([None, 4, 9]))
def test_fast_pass_and_per_line_path_agree(text, n_modes):
    fast = parsed(text, n_modes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "_TERM", re.compile("(?!)(.)(.)(.)"))
        assert parsed(text, n_modes) == fast


@pytest.mark.parametrize("line, message", [
    ("1_0 0 : +1", "line 2: bad coefficient: could not convert string to float: '1_0'"),
    ("1e999 0 : +1", "line 2: non-finite coefficient '1e999 0'"),
    ("1 0 : +1_0", "line 2: bad operator token '+1_0'"),
    ("1 0 : +\u0663", "line 2: bad operator token '+\u0663'"),
    ("1 0 : +0", "line 2: modes are 1-based"),
    ("1 0 : +1-2", "line 2: bad operator token '+1-2'"),
    ("1 0 : +99999999999999999999", "line 2: mode 99999999999999999999 is over 2**63 - 1"),
])
def test_the_per_line_code_names_what_the_fast_pass_leaves(line, message):
    with pytest.raises(InputFormatError) as exc:
        parse_fermion_file(f"1 0 : +1 -1\n{line}\n")
    assert str(exc.value) == message


def test_modes_of_eighteen_digits_take_the_fast_pass():
    h = parse_fermion_file("1 0 : +999999999999999999 -0000000000000000000001\n")
    assert h.ops.tolist() == [[999999999999999999, -1]] and h.n_modes == 999999999999999999


# -- line numbers and the mode-count line --------------------------------------------


def test_lines_end_only_where_a_text_mode_file_ends_them():
    with pytest.raises(InputFormatError, match=r"^line 2: bad operator token '\+x'$"):
        parse_fermion_file("1 0 : +1 -1\x0c\n1 0 : +x\n")
    h = parse_fermion_file("1 0 : +1 \x1c -1\u2028\x85")
    assert h.ops.tolist() == [[1, -1]]
    with pytest.raises(InputFormatError, match=r"^line 3: bad operator token '\+x'$"):
        parse_fermion_file("1 0 : +1 -1\r\n\r1 0 : +x\r\n")


def test_deserialize_counts_lines_as_a_text_mode_file():
    with pytest.raises(ValueError, match=r"^line 2: "):
        QubitOperator.deserialize("1 0 X1\x0c\n1 0 Q1\n", 1)
    with pytest.raises(ValueError, match=r"^line 1: expected '<re> <im> <string>'$"):
        QubitOperator.deserialize("1 0 X1\x1c1 0 Z1\n", 1)
    op = QubitOperator.deserialize("1 0 X1\r\n-1 0 Z1\r0.5 0 I\n", 1)
    assert op.serialize() == "0.5 0 I\n1 0 X1\n-1 0 Z1\n"


def test_mode_over_the_count_names_the_first_line_with_one():
    text = "# modes: 3\n1 0 : +1 -2\n1 0 : +2 +5 -4 -2\n1 0 : +7 -1\n"
    with pytest.raises(InputFormatError, match=r"^line 3: mode 5 exceeds declared mode count 3$"):
        parse_fermion_file(text)
    with pytest.raises(InputFormatError, match=r"^line 4: mode 7 exceeds declared mode count 6$"):
        parse_fermion_file(text.replace("# modes: 3", "# modes: 6"))
    assert parse_fermion_file(text, n_modes=7).n_modes == 7


# -- deserialize overflow ---------------------------------------------------------------


@pytest.mark.parametrize("text, line", [
    ("1.7e308 1.7e308 I\n", 1),
    ("1 0 Z1\n1e308 0 X1\n1e308 0 X1\n", 3),
])
def test_deserialize_refuses_an_overflowing_coefficient(text, line):
    with pytest.raises(ValueError, match=rf"^line {line}: the coefficient of \S+ overflows$"):
        QubitOperator.deserialize(text, 1)


# -- one pack, no FermionTerm ----------------------------------------------------------------


def molecular_text(orbitals):
    """A molecular-style file: every spin-conserving one- and two-body term,
    with coefficients that keep it hermitian."""
    n, lines = 2 * orbitals, [f"# modes: {2 * orbitals}"]
    pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    for (p, q), (r, s) in ((a, b) for a in pairs for b in pairs):
        if sorted([p > orbitals, q > orbitals]) == sorted([r > orbitals, s > orbitals]):
            lines.append(f"{((p * q + r * s) % 7 - 3) / 8} 0 : +{p} +{q} -{r} -{s}")
    lines += [f"{0.1 * p} 0 : +{p} -{p}" for p in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def test_the_pipeline_builds_no_term_and_packs_once(monkeypatch):
    text, code = molecular_text(3), load_code("bravyi_kitaev:6")
    basis = enumerate_basis(parse_basis_spec("1-3:1;4-6:1", 6))
    h0 = parse_fermion_file(text)
    expected = transform_hamiltonian(code, FermionHamiltonian(6, h0.terms)).serialize()
    packs = []

    def counted(h):
        packs.append(h)
        return pack_terms(h)

    def no_term(*args, **kwargs):
        raise AssertionError("FermionTerm built")

    monkeypatch.setattr(transform, "pack_terms", counted)
    monkeypatch.setattr(FermionTerm, "__init__", no_term)
    h = parse_fermion_file(text)
    hq = transform_hamiltonian(code, h)
    assert hq.serialize() == expected
    report = fock_oracle.verify_equivalence(code, h, hq, basis)
    assert report.status == "pass" and report.states_checked == 9
    assert packs == [h]
    assert "terms" not in h.__dict__


def test_round_trip_through_the_text_keeps_the_columns():
    h = FermionHamiltonian(6, (
        FermionTerm.of(0.25, (1, True), (6, False)),
        FermionTerm.of(complex(-1.5, 0.5)),
        FermionTerm.of(-0.75, (2, True), (5, True), (5, False), (2, False)),
    ))
    back = parse_fermion_file(format_fermion_file(h))
    assert back == h
    assert back.ops.tolist() == h.ops.tolist() and back.coeff.tobytes() == h.coeff.tobytes()

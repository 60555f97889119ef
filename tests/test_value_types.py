"""The value contract of the GF(2) and Pauli value types.

``BitVec``, ``BitMat``, ``BoolPoly`` and ``PauliString`` are immutable, and
their hashes are those of their field tuples: set iteration order, and with
it every serialized byte, depends on those hash values.

``FermionHamiltonian`` and ``QubitOperator`` cache what they derive (the
packed items, the operator's terms or columns), so neither can be changed
in place: their columns are read-only arrays, an operator's ``terms`` a
read-only view, and their attributes cannot be assigned.
"""

import itertools

import pytest

from fermicode.bitmath import BitMat, BitVec, BoolPoly
from fermicode.codes import jordan_wigner
from fermicode.pauli import PauliString, QubitOperator
from fermicode.transform import FermionHamiltonian, parse_fermion_file, transform_hamiltonian


def _samples():
    return {
        "n": BitVec.from_int(5, 3),
        "rows": BitMat.from_int_rows([1, 2, 3], 2),
        "num_vars": BoolPoly(3, (0, 1, 6)),
        "x": PauliString.from_masks(3, 5, 6),
    }


@pytest.mark.parametrize("field", ["n", "rows", "num_vars", "x"])
def test_fields_and_new_attributes_cannot_be_assigned(field):
    value = _samples()[field]
    with pytest.raises(AttributeError):
        setattr(value, field, 7)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("n, v", [(0, 0), (3, 5), (64, (1 << 64) - 1), (70, 1 << 69)])
def test_bitvec_hashes_as_its_fields(n, v):
    assert hash(BitVec.from_int(v, n)) == hash((n, v))


def test_boolpoly_hashes_as_its_fields():
    for num_vars, masks in [(0, ()), (3, (0, 1, 6)), (70, (1 << 69, 3))]:
        p = BoolPoly(num_vars, masks)
        assert hash(p) == hash((num_vars, frozenset(masks)))


@pytest.mark.parametrize("n, x, z", [(1, 0, 0), (3, 5, 6), (66, 1 << 65, (1 << 66) - 1)])
def test_pauli_string_hashes_as_its_fields(n, x, z):
    assert hash(PauliString.from_masks(n, x, z)) == hash((n, x, z))


def test_values_of_different_classes_never_compare_equal():
    # Built with the same leading numbers, so only the class tells them apart.
    values = [
        BitVec.from_int(1, 2),
        BitMat.from_int_rows([1, 1], 2),
        BoolPoly(2, (1,)),
        PauliString.from_masks(2, 1, 0),
    ]
    for a, b in itertools.permutations(values, 2):
        assert a != b
        assert not a == b


def test_bitmat_equality_follows_rows_and_columns():
    m = BitMat.from_int_rows([1, 2], 2)
    assert m == BitMat([[1, 0], [0, 1]])
    assert hash(m) == hash(BitMat.identity(2))
    assert m != BitMat.from_int_rows([1, 2], 3)
    assert m != BitMat.from_int_rows([1, 2, 0], 2)
    assert m != BitMat.from_int_rows([2, 1], 2)


HOPS = "1 0 : +1 -2\n1 0 : +2 -1\n"


@pytest.mark.parametrize("source", ["parsed", "terms"])
def test_a_hamiltonian_cannot_change_behind_its_caches(source):
    h = parse_fermion_file(HOPS)
    h = FermionHamiltonian(2, h.terms) if source == "terms" else h
    mapped = transform_hamiltonian(jordan_wigner(2), h).serialize()
    for column in (h.coeff, h.ops, *h.packed):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 5
    for name in ("coeff", "ops", "packed", "terms", "n_modes", "extra"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)
    assert [h.term(0).coeff, h.terms[0].coeff, h.coeff[0]] == [1, 1, 1]
    assert transform_hamiltonian(jordan_wigner(2), h).serialize() == mapped


@pytest.mark.parametrize("source", ["mapped", "dict"])
def test_an_operator_cannot_change_behind_its_caches(source):
    if source == "mapped":
        op = transform_hamiltonian(jordan_wigner(2), parse_fermion_file(HOPS))
    else:
        op = QubitOperator(2, {PauliString(2, {1: "X"}): 1.0})
    text, z1 = op.serialize(), PauliString(2, {1: "Z"})
    for s in (next(iter(op.terms)), z1):
        with pytest.raises(TypeError):
            op.terms[s] = 9.0
    with pytest.raises(TypeError):
        del op.terms[next(iter(op.terms))]
    for column in op.columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    for name in ("terms", "columns", "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(op, name, None)
    assert op.serialize() == text and op.coefficient(z1) == 0

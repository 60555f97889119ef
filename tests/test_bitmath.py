import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicode.bitmath import BitMat, BitVec, BoolPoly, ascii_int, ascii_real, poly_sum
from fermicode.errors import BudgetError, DimensionError, NonFiniteError, SingularMatrixError

from helpers import random_boolpoly, random_invertible_bitmat


class TestBitVec:
    def test_construction_and_indexing(self):
        v = BitVec("0110")
        assert len(v) == 4
        assert [v[j] for j in (1, 2, 3, 4)] == [0, 1, 1, 0]
        assert v == BitVec([0, 1, 1, 0])

    def test_index_bounds_rejected(self):
        v = BitVec("01")
        with pytest.raises(IndexError):
            v[0]
        with pytest.raises(IndexError):
            v[3]

    def test_xor_weight_ones(self):
        assert BitVec("0110") ^ BitVec("0011") == BitVec("0101")
        assert BitVec("0111").weight() == 3
        assert BitVec("1010").ones() == [1, 3]
        with pytest.raises(DimensionError):
            BitVec("01") ^ BitVec("011")

    def test_unit_and_concat(self):
        assert BitVec.unit(4, 3) == BitVec("0010")
        assert BitVec("10").concat(BitVec("011")) == BitVec("10011")

    def test_str_lists_components_from_the_first(self):
        rng = random.Random(8)
        for n in range(71):
            for value in {0, (1 << n) - 1, rng.getrandbits(n), 1 << n >> 1}:
                v = BitVec.from_int(value, n)
                assert str(v) == "".join(str(b) for b in v.to_tuple())
                assert BitVec(str(v)) == v


class TestBitMat:
    def test_identity_inverse(self):
        for n in range(1, 6):
            m = BitMat.identity(n)
            assert m.inverse() == m

    def test_parity_matrix_inverse_is_bidiagonal(self):
        # lower-triangular all-ones inverts to the two-band matrix
        n = 6
        a = BitMat.from_int_rows([(1 << (i + 1)) - 1 for i in range(n)], n)
        a_inv = a.inverse()
        expect = BitMat.from_int_rows(
            [(1 << i) | (1 << (i - 1) if i else 0) for i in range(n)], n
        )
        assert a_inv == expect
        assert a @ a_inv == BitMat.identity(n)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            BitMat([[0, 0], [0, 0]]).inverse()

    def test_random_inverses_up_to_12(self):
        rng = random.Random(7)
        for n in range(1, 13):
            a = random_invertible_bitmat(rng, n)
            b = a.inverse()
            assert a @ b == BitMat.identity(n)
            assert b @ a == BitMat.identity(n)

    def test_matvec(self):
        a = BitMat([[1, 1], [0, 1]])
        assert a @ BitVec("10") == BitVec("10")
        assert a @ BitVec("11") == BitVec("01")
        with pytest.raises(DimensionError):
            a @ BitVec("111")

    def test_row_col_transpose(self):
        a = BitMat([[1, 0, 1], [0, 1, 1]])
        assert a.row(2) == BitVec("011")
        assert a.col(3) == BitVec("11")
        assert a.transpose().row(3) == BitVec("11")


class TestBoolPolyExamples:
    def test_eval_constant_one(self):
        one = BoolPoly.one(3)
        for bits in itertools.product((0, 1), repeat=3):
            assert one.evaluate(BitVec(bits)) == 1

    def test_eval_worked_function(self):
        # 1 + w1 + w1*w2 at (1,1) gives 1+1+1 = 1 mod 2
        p = BoolPoly.from_text(2, "1 + x1 + x1*x2")
        assert p.evaluate(BitVec("11")) == 1
        assert p.evaluate(BitVec("10")) == 0

    def test_eval_annihilated_product(self):
        p = BoolPoly.from_text(2, "x1*x2")
        assert p.evaluate(BitVec("10")) == 0

    def test_eval_length_mismatch(self):
        with pytest.raises(DimensionError):
            BoolPoly.one(2).evaluate(BitVec("101"))

    def test_add_cancellation(self):
        x1 = BoolPoly.variable(2, 1)
        assert (x1 + x1).is_zero()
        assert (BoolPoly.one(2) + x1) == BoolPoly.from_text(2, "1 + x1")

    def test_add_derived(self):
        a = BoolPoly.from_text(2, "x1 + x2")
        b = BoolPoly.from_text(2, "x2 + x1*x2")
        c = a + b
        # oracle: exhaustive evaluation over Z2^2
        for bits in itertools.product((0, 1), repeat=2):
            v = BitVec(bits)
            assert c.evaluate(v) == (a.evaluate(v) ^ b.evaluate(v))
        assert c == BoolPoly.from_text(2, "x1 + x1*x2")

    def test_mul_idempotence(self):
        x1 = BoolPoly.variable(2, 1)
        assert x1 * x1 == x1
        p = BoolPoly.from_text(2, "1 + x1")
        assert p * p == p

    def test_mul_derived(self):
        a = BoolPoly.from_text(2, "x1 + x2")
        b = BoolPoly.variable(2, 1)
        c = a * b
        for bits in itertools.product((0, 1), repeat=2):
            v = BitVec(bits)
            assert c.evaluate(v) == (a.evaluate(v) & b.evaluate(v))
        assert c == BoolPoly.from_text(2, "x1 + x1*x2")

    def test_compose_examples(self):
        p = BoolPoly.variable(1, 1)
        target = BoolPoly.from_text(2, "1 + x2")
        assert p.compose([target]) == target

        p = BoolPoly.from_text(2, "x1*x2")
        x1 = BoolPoly.variable(2, 1)
        assert p.compose([x1, x1]) == x1

        p = BoolPoly.from_text(2, "x1 + x2")
        subs = [BoolPoly.from_text(2, "x1*x2"), BoolPoly.from_text(2, "1 + x1*x2")]
        assert p.compose(subs) == BoolPoly.one(2)

    def test_compose_dimension_error(self):
        with pytest.raises(DimensionError):
            BoolPoly.from_text(2, "x1 + x2").compose([BoolPoly.one(1)])


@settings(max_examples=120, deadline=None)
@given(data=st.data(), num_vars=st.integers(min_value=1, max_value=6))
def test_ring_ops_match_truth_tables(data, num_vars):
    masks = st.lists(
        st.integers(min_value=0, max_value=(1 << num_vars) - 1), max_size=8
    )
    a = BoolPoly(num_vars, data.draw(masks))
    b = BoolPoly(num_vars, data.draw(masks))
    for x in range(1 << num_vars):
        assert (a + b).evaluate(x) == (a.evaluate(x) ^ b.evaluate(x))
        assert (a * b).evaluate(x) == (a.evaluate(x) & b.evaluate(x))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_commutes_with_evaluation(data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=4))
    masks_m = st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), max_size=6)
    masks_k = st.lists(st.integers(min_value=0, max_value=(1 << k) - 1), max_size=6)
    p = BoolPoly(m, data.draw(masks_m))
    subs = [BoolPoly(k, data.draw(masks_k)) for _ in range(m)]
    composed = p.compose(subs)
    for x in range(1 << k):
        inner = 0
        for i, s in enumerate(subs):
            inner |= s.evaluate(x) << i
        assert composed.evaluate(x) == p.evaluate(inner)


def test_anf_canonicity_different_construction_orders():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 6)
        a = random_boolpoly(rng, n)
        b = random_boolpoly(rng, n)
        c = random_boolpoly(rng, n)
        assert (a + b) * c == (c * a) + (c * b)
        assert hash((a + b) * c) == hash((c * a) + (c * b))


def test_from_truth_table_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 6)
        p = random_boolpoly(rng, n)
        table = [p.evaluate(x) for x in range(1 << n)]
        assert BoolPoly.from_truth_table(n, table) == p


def test_text_round_trip_and_zero():
    p = BoolPoly.from_text(3, "1 + x2 + x1*x3")
    assert BoolPoly.from_text(3, p.to_text()) == p
    assert BoolPoly.zero(3).to_text() == "0"
    assert BoolPoly.from_text(3, "0") == BoolPoly.zero(3)


def test_monomials_view():
    p = BoolPoly.from_text(3, "1 + x1*x3")
    assert p.monomials == frozenset({frozenset(), frozenset({1, 3})})


def test_budget_error_on_explosive_product():
    n = 16
    rng = random.Random(5)
    masks_a = [rng.randrange(1, 1 << n) for _ in range(600)]
    masks_b = [rng.randrange(1, 1 << n) for _ in range(600)]
    a = BoolPoly(n, masks_a)
    b = BoolPoly(n, masks_b)
    with pytest.raises(BudgetError):
        a.mul(b, budget=16)


def test_poly_sum_matches_pairwise_addition():
    rng = random.Random(9)
    polys = [random_boolpoly(rng, 4) for _ in range(5)]
    acc = BoolPoly.zero(4)
    for p in polys:
        acc = acc + p
    assert poly_sum(polys, 4) == acc


class TestNumberFields:
    @pytest.mark.parametrize(
        "text, value", [("1e-3", 1e-3), ("-2.5E+1", -25.0), (".5", 0.5), ("+1", 1.0), ("7", 7.0)]
    )
    def test_ascii_real_reads_float_syntax(self, text, value):
        assert ascii_real(text) == value

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "1\u00a0", "\uff11", "", "x", "1e"])
    def test_ascii_real_refuses_other_text(self, text):
        message = f"could not convert string to float: {text!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ascii_real(text)

    @pytest.mark.parametrize("text", ["nan", "-inf", "inf", "1e400", "NaN"])
    def test_ascii_real_refuses_non_finite_values(self, text):
        with pytest.raises(NonFiniteError, match=re.escape(f"non-finite value {text!r}")):
            ascii_real(text)

    @pytest.mark.parametrize("text", ["1_0", "\u0662", " 2", "+2", "-1", "", "2.0"])
    def test_ascii_int_takes_ascii_digits_only(self, text):
        assert ascii_int("102", "mode") == 102
        with pytest.raises(ValueError, match=f"^mode {re.escape(repr(text))} is not a decimal"):
            ascii_int(text, "mode")

    @pytest.mark.parametrize("text", ["x1_0", "x\u0662", "x 2", "x+1", "x"])
    def test_polynomial_variables_are_ascii_decimals(self, text):
        assert BoolPoly.from_text(10, "x10 + x1*x2") == BoolPoly(10, [1 << 9, 3])
        with pytest.raises(ValueError, match="variable .* is not a decimal number"):
            BoolPoly.from_text(10, text)

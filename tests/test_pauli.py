import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicode import pauli
from fermicode.bitmath import BitVec, BoolPoly, _words
from fermicode.codes import binary_addressing_k2
from fermicode.errors import BudgetError, DimensionError
from fermicode.fock_oracle import QubitStateVector, apply_qubit_operator
from fermicode.pauli import (
    PauliString,
    QubitOperator,
    cphase_expand,
    extract,
    flip_operator,
    pauli_mul,
)

from helpers import dense_operator, dense_pauli, random_boolpoly, reference_serialize


class TestPauliMul:
    def test_single_qubit_table(self):
        x1 = PauliString(1, {1: "X"})
        z1 = PauliString(1, {1: "Z"})
        phase, s = pauli_mul(x1, z1)
        assert phase == -1j and s == PauliString(1, {1: "Y"})
        phase, s = pauli_mul(z1, z1)
        assert phase == 1 and s.is_identity()

    def test_two_qubit_derived(self):
        xx = PauliString(2, {1: "X", 2: "X"})
        zz = PauliString(2, {1: "Z", 2: "Z"})
        phase, s = pauli_mul(xx, zz)
        assert phase == -1 and s == PauliString(2, {1: "Y", 2: "Y"})

    def test_matches_dense_matrices(self):
        rng = random.Random(17)
        letters = ["I", "X", "Y", "Z"]
        for _ in range(100):
            n = rng.randrange(1, 5)
            fa = {j: rng.choice(letters) for j in range(1, n + 1)}
            fb = {j: rng.choice(letters) for j in range(1, n + 1)}
            a = PauliString(n, {j: l for j, l in fa.items() if l != "I"})
            b = PauliString(n, {j: l for j, l in fb.items() if l != "I"})
            phase, s = pauli_mul(a, b)
            lhs = dense_pauli(n, a.factors) @ dense_pauli(n, b.factors)
            rhs = phase * dense_pauli(n, s.factors)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pauli_mul(PauliString(1), PauliString(2))


class TestOperatorAlgebra:
    def test_add_cancels(self):
        h = QubitOperator(2, {PauliString(2, {1: "X"}): 1.0, PauliString(2, {2: "Z"}): 0.5})
        assert (h + (-1.0) * h).is_zero()

    def test_sum_prunes_at_the_smaller_epsilon_in_first_appearance_order(self):
        x1, y1, z1 = (PauliString(2, {1: letter}) for letter in "XYZ")
        z2, y2 = PauliString(2, {2: "Z"}), PauliString(2, {2: "Y"})
        a = QubitOperator(2, {x1: 1.0, z2: 0.5, y1: 2.0})
        b = QubitOperator(2, {z1: 1e-13, x1: -1.0, y2: 3.0}, prune_epsilon=0.0)
        assert b.coefficient(z1) == 1e-13  # kept at prune_epsilon=0.0
        # At min(eps) = 0.0 only the exact cancellation on X1 goes.
        assert list((a + b).terms) == [z2, y1, z1, y2]
        assert list((b + a).terms) == [z1, y2, z2, y1]
        assert (a + b).prune_epsilon == 0.0
        # At the default, a sum of about 1e-13 goes too.
        assert list((a + QubitOperator(2, {z2: -0.5 + 1e-13})).terms) == [x1, y1]
        # A sum equal to eps goes: the bound is "at most".
        one = QubitOperator(1, {PauliString(1, {1: "Z"}): 1.0}, prune_epsilon=0.25)
        assert (one + QubitOperator(1, {PauliString(1, {1: "Z"}): -0.75}, 0.5)).is_zero()

    def test_scaling_and_cancelling_sums_leave_no_terms(self):
        a = QubitOperator(2, {PauliString(2, {1: "X"}): 1.0, PauliString(2, {2: "Y"}): 0.5j})
        assert ((0 * a).num_terms, (a + (-1.0) * a).num_terms, (a - a).num_terms) == (0, 0, 0)
        assert (0 * a).prune_epsilon == a.prune_epsilon

    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_product_drops_cancelling_strings(self, eps):
        # (X + Z)**2 = 2 I + XZ + ZX, and XZ = -iY cancels ZX = iY.
        s = QubitOperator(1, {PauliString(1, {1: "X"}): 1.0, PauliString(1, {1: "Z"}): 1.0}, eps)
        assert dict(s.mul(s).terms) == {PauliString.identity(1): 2.0}

    def test_projector_idempotent(self):
        p = QubitOperator.identity(1, 0.5) + QubitOperator.z_string(1, 1, -0.5)
        assert (p * p).isclose(p, 1e-12)

    def test_orthogonal_projectors(self):
        plus = QubitOperator.identity(1, 0.5) + QubitOperator.z_string(1, 1, 0.5)
        minus = QubitOperator.identity(1, 0.5) + QubitOperator.z_string(1, 1, -0.5)
        assert (plus * minus).is_zero()

    def test_isclose_rejects_one_distant_coefficient(self):
        a = QubitOperator.identity(1) + QubitOperator.z_string(1, 1, 0.5)
        b = QubitOperator.identity(1) + QubitOperator.z_string(1, 1, 0.5 + 1e-6)
        assert a.isclose(b, 1e-5)
        assert not a.isclose(b, 1e-7)
        assert not b.isclose(a, 1e-7)

    def test_product_over_budget_raises(self):
        # (I + Z)(I + X) = I + X + Z + iY: four strings
        a = QubitOperator.identity(1) + QubitOperator.z_string(1, 1)
        b = QubitOperator.identity(1) + QubitOperator.x_string(1, 1)
        assert a.mul(b, budget=4).num_terms == 4
        with pytest.raises(BudgetError, match="^operator product has 4 terms, budget 3$"):
            a.mul(b, budget=3)

    def test_product_stops_at_the_first_row_over_budget(self):
        # 600 x 600 strings on 24 qubits have up to 360,000 products; the
        # check after each row of the outer loop stops the first row past 10.
        rng = random.Random(67)

        def operator():
            masks = {(rng.getrandbits(24), rng.getrandbits(24)) for _ in range(600)}
            while len(masks) < 600:
                masks.add((rng.getrandbits(24), rng.getrandbits(24)))
            return QubitOperator(24, {PauliString.from_masks(24, x, z): 1.0 for x, z in masks})

        a, b = operator(), operator()
        pattern = r"^operator product has (\d+) terms, budget 10$"
        with pytest.raises(BudgetError, match=pattern) as err:
            a.mul(b, budget=10)
        assert int(re.match(pattern, str(err.value))[1]) <= 600 + 10

    def test_algebra_matches_dense(self):
        rng = random.Random(23)
        letters = ["I", "X", "Y", "Z"]
        for _ in range(20):
            n = rng.randrange(1, 4)
            ops = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randrange(1, 4)):
                    f = {j: rng.choice(letters) for j in range(1, n + 1)}
                    s = PauliString(n, {j: l for j, l in f.items() if l != "I"})
                    terms[s] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                ops.append(QubitOperator(n, terms, prune_epsilon=0.0))
            a, b = ops
            assert np.allclose(
                dense_operator(a * b), dense_operator(a) @ dense_operator(b), atol=1e-12
            )
            assert np.allclose(
                dense_operator(a + b), dense_operator(a) + dense_operator(b), atol=1e-12
            )


class TestExtract:
    def test_constant_functions(self):
        assert extract(BoolPoly.zero(2)).isclose(QubitOperator.identity(2), 0)
        assert extract(BoolPoly.one(2)).isclose(QubitOperator.identity(2, -1.0), 0)

    def test_linear_function_is_z(self):
        f = BoolPoly.variable(3, 2)
        assert extract(f) == QubitOperator.z_string(3, 0b010)

    def test_worked_example(self):
        # X[1 + w1 + w1w2] = -Z1 * CPhase(1,2)
        f = BoolPoly.from_text(2, "1 + x1 + x1*x2")
        got = extract(f)
        want = (-1.0) * (QubitOperator.z_string(2, 0b01) * cphase_expand([1, 2], 2))
        assert got.isclose(want, 1e-12)
        # and its diagonal realizes (-1)^f
        m = dense_operator(got)
        for w in range(4):
            assert abs(m[w, w] - (-1.0) ** f.evaluate(w)) < 1e-12

    def test_diagonal_entries_random(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(1, 7)
            f = random_boolpoly(rng, n)
            m = dense_operator(extract(f))
            assert np.allclose(m, np.diag(np.diag(m)), atol=1e-12)
            for w in range(1 << n):
                assert abs(m[w, w] - (-1.0) ** f.evaluate(w)) < 1e-12

    def test_multiplicativity(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randrange(1, 6)
            f = random_boolpoly(rng, n)
            g = random_boolpoly(rng, n)
            assert extract(f + g).isclose(extract(f) * extract(g), 1e-12)

    def test_outputs_commute(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randrange(1, 6)
            a = extract(random_boolpoly(rng, n))
            b = extract(random_boolpoly(rng, n))
            assert (a * b).isclose(b * a, 1e-12)

    def test_one_monomial_over_budget_names_support(self):
        with pytest.raises(BudgetError, match="support of 5 qubits"):
            extract(BoolPoly(5, [0b11111]), budget=16)


class TestExpand:
    BLOCKINGS = [((0, 2), (2, 3)), ((0, 3), (3, 3)), ((0, 2), (2, 2), (4, 2))]

    @staticmethod
    def _block_poly(rng, n, block):
        lo, size = block
        return BoolPoly(n, [rng.randrange(1 << size) << lo for _ in range(rng.randrange(1, 5))])

    @staticmethod
    def _expected(n, factors, eps):
        m = np.zeros((1 << n, 1 << n))
        for w in range(1 << n):
            t = sum(e.evaluate(w) << j for j, e in enumerate(eps))
            m[w ^ t, w] = np.prod([a + b * (-1.0) ** f.evaluate(w) for f, a, b in factors])
        return m

    def test_matches_dense_over_disjoint_blocks(self):
        # Functions live on 2-3 disjoint blocks, so the kernel expands one
        # table per block; affine factors span blocks and some eps_j are
        # constant.
        rng = random.Random(61)
        for trial in range(45):
            blocks = self.BLOCKINGS[trial % 3]
            n = sum(size for _, size in blocks)
            factors = []
            for _ in range(rng.randrange(1, 6)):
                a, b = rng.choice([(0, 1), (0.5, 0.5), (0.5, -0.5), (1.5, -0.5)])
                if rng.random() < 0.25:
                    f = BoolPoly.linear(BitVec.from_int(rng.randrange(1 << n), n), rng.randrange(2))
                else:
                    f = self._block_poly(rng, n, rng.choice(blocks))
                factors.append((f, a, b))
            eps = []
            for j in range(n):
                block = next(bl for bl in blocks if bl[0] <= j < bl[0] + bl[1])
                if rng.random() < 0.3:
                    eps.append(BoolPoly.constant(n, rng.randrange(2)))
                else:
                    eps.append(self._block_poly(rng, n, block))
            # eps(w) = encode(decode(w) + q) + w with decode = identity, q = 0
            encode = [e + BoolPoly.variable(n, j) for j, e in enumerate(eps, 1)]
            decode = [BoolPoly.variable(n, j) for j in range(1, n + 1)]
            got = dense_operator(pauli.expand(n, factors, (encode, decode, 0)))
            assert np.allclose(got, self._expected(n, factors, eps), atol=1e-12)
            diagonal = dense_operator(pauli.expand(n, factors, 0))
            assert np.allclose(diagonal, self._expected(n, factors, []), atol=1e-12)

    def test_shared_memo_tells_update_masks_apart(self):
        # Every q gives the same group of update members; only the key's q
        # keeps one q's table from serving another.
        code = binary_addressing_k2(2)
        memo: dict = {}
        for q in range(1 << code.n_modes):
            items = pauli._item(code.n_qubits, q=q)
            shared = list(pauli._expand(code, items, memo=memo))
            alone = list(pauli._expand(code, items))
            assert len(shared) == len(alone) == 1
            assert all(np.array_equal(a, b) for a, b in zip(shared[0], alone[0]))
        assert len(memo) > 1

    def test_zero_group_ends_the_expansion(self, monkeypatch):
        # Projectors onto x1 x2 = 1 and onto x1 x2 = 0: the first group's
        # table is empty, so the group on qubits 3 and 4 is never built.
        n = 4
        first, second = BoolPoly(n, [0b11]), BoolPoly(n, [0b1100])
        factors = [(first, 0.5, -0.5), (first, 0.5, 0.5), (second, 0.5, -0.5)]
        built = []
        real = pauli._group_terms

        def recording(n, mask, members, flips, budget, memo):
            built.append(mask)
            return real(n, mask, members, flips, budget, memo)

        monkeypatch.setattr(pauli, "_group_terms", recording)
        assert pauli.expand(n, factors, 0).is_zero()
        assert built == [0b11]

    def test_pruned_table_rows_do_not_count_against_the_budget(self):
        # The factor 1 + 0 * Z1 is the one row I, so two rows fit budget 2.
        x1, x2 = BoolPoly.variable(2, 1), BoolPoly.variable(2, 2)
        got = pauli.expand(2, [(x1, 1.0, 0.0), (x2, 0.5, 0.5)], 0, budget=2)
        assert got == QubitOperator(2, {PauliString(2): 0.5, PauliString(2, {2: "Z"}): 0.5})

    def test_factor_over_other_variable_count_raises(self):
        with pytest.raises(DimensionError, match="function over 2 variables on 3 qubits"):
            pauli.expand(3, [(BoolPoly(2, [3]), 0, 1)], 0)


class TestFlipOperator:
    @staticmethod
    def _expected(n, eps):
        m = np.zeros((1 << n, 1 << n))
        for w in range(1 << n):
            t = sum(e.evaluate(w) << j for j, e in enumerate(eps))
            m[w ^ t, w] = 1.0
        return m

    def test_action_on_every_word(self):
        # Compared on the whole qubit space, not only on code words.
        rng = random.Random(53)
        lists = [[BoolPoly.constant(3, b) for b in (1, 0, 1)]]
        for _ in range(60):
            n = rng.randrange(2, 6)
            eps = [random_boolpoly(rng, n) for _ in range(n)]
            eps[rng.randrange(n)] = BoolPoly.constant(n, rng.randrange(2))
            lists.append(eps)
        assert sum(not all(e.is_linear() for e in eps) for eps in lists) >= 40
        for eps in lists:
            n = eps[0].num_vars
            got = dense_operator(flip_operator(n, eps))
            assert np.array_equal(got, self._expected(n, eps))

    def test_all_constant_is_x_string(self):
        eps = [BoolPoly.constant(4, b) for b in (1, 0, 0, 1)]
        assert flip_operator(4, eps) == QubitOperator.x_string(4, 0b1001)

    def test_table_larger_than_budget_names_support(self):
        eps = [BoolPoly.from_text(4, "x1*x2 + x3"), BoolPoly.from_text(4, "x4")]
        with pytest.raises(BudgetError, match="support of 4 qubits"):
            flip_operator(4, eps, budget=15)

    def test_flip_pattern_bound_never_rejects_a_fitting_operator(self):
        # p flip patterns need at least p**2 terms, so with the budget at the
        # operator's own term count only a truth table wider than that
        # budget may raise.
        rng = random.Random(59)
        fitted = 0
        for _ in range(150):
            n = rng.randrange(2, 7)
            eps = [random_boolpoly(rng, n) for _ in range(n)]
            op = flip_operator(n, eps)
            p = len({sum(e.evaluate(w) << j for j, e in enumerate(eps)) for w in range(1 << n)})
            assert op.num_terms >= p * p
            try:
                assert flip_operator(n, eps, budget=op.num_terms) == op
                fitted += 1
            except BudgetError as exc:
                assert "support of" in str(exc)
        assert fitted >= 140

    def test_flip_patterns_over_budget_raise(self):
        eps = [BoolPoly.from_text(4, t) for t in ("x1 + x2*x3", "x2", "x3 + x1*x4", "x4")]
        p = len({sum(e.evaluate(w) << j for j, e in enumerate(eps)) for w in range(16)})
        assert p * p > 16  # the 16-entry table itself fits
        with pytest.raises(BudgetError, match=f"{p} flip patterns"):
            flip_operator(4, eps, budget=16)


class TestCPhase:
    def test_two_qubit_formula(self):
        got = cphase_expand([1, 2], 2)
        want = QubitOperator(
            2,
            {
                PauliString(2): 0.5,
                PauliString(2, {1: "Z"}): 0.5,
                PauliString(2, {2: "Z"}): 0.5,
                PauliString(2, {1: "Z", 2: "Z"}): -0.5,
            },
        )
        assert got.isclose(want, 1e-12)

    def test_single_index_is_z(self):
        assert cphase_expand([2], 3).isclose(QubitOperator.z_string(3, 0b010), 1e-12)

    def test_three_qubit_diagonal(self):
        m = dense_operator(cphase_expand([1, 2, 3], 3))
        diag = np.diag(m)
        assert abs(diag[0b111] + 1) < 1e-12
        for w in range(7):
            assert abs(diag[w] - 1) < 1e-12


class TestHermiticityAndStats:
    def test_hermitian_projector(self):
        p = QubitOperator.identity(1, 0.5) + QubitOperator.z_string(1, 1, -0.5)
        ok, witness = p.check_hermitian()
        assert ok and witness is None

    def test_non_hermitian_witnessed(self):
        op = QubitOperator.from_string(PauliString(1, {1: "X"}), 1j)
        ok, witness = op.check_hermitian()
        assert not ok and witness == PauliString(1, {1: "X"})

    def test_witness_ignores_insertion_order(self):
        # Tied imaginary parts: the witness is the first string in sort order.
        a = PauliString(3, {1: "X", 3: "Y"})
        b = PauliString(3, {1: "Y", 2: "Z", 3: "X"})
        terms = {a: 0.5 + 0.25j, b: -0.5 - 0.25j, PauliString(3, {2: "Z"}): 0.125j}
        forward = QubitOperator(3, terms).check_hermitian()
        backward = QubitOperator(3, dict(reversed(terms.items()))).check_hermitian()
        assert forward == backward == (False, a)

    def test_stats_examples(self):
        p = QubitOperator.identity(1, 0.5) + QubitOperator.z_string(1, 1, -0.5)
        assert p.stats() == (2, 1)
        assert QubitOperator.zero(3).stats() == (0, 0)
        h2_like = QubitOperator(
            2,
            {
                PauliString(2): 1.0,
                PauliString(2, {1: "X", 2: "X"}): 1.0,
                PauliString(2, {1: "Z"}): 1.0,
                PauliString(2, {2: "Z"}): 1.0,
                PauliString(2, {1: "Z", 2: "Z"}): 1.0,
            },
        )
        assert h2_like.stats() == (5, 6)


class TestSerialization:
    def test_canonical_order(self):
        op = QubitOperator(
            3,
            {
                PauliString(3, {1: "Z", 3: "Y"}): 1.0,
                PauliString(3, {2: "X"}): 2.0,
                PauliString(3): 3.0,
                PauliString(3, {1: "Y"}): 4.0,
                PauliString(3, {1: "X"}): 5.0,
            },
        )
        lines = op.serialize().splitlines()
        assert [l.split()[-1] for l in lines] == ["I", "X1", "Y1", "X2", "Z1*Y3"]

    def test_round_trip(self):
        rng = random.Random(43)
        letters = ["X", "Y", "Z"]
        terms = {}
        for _ in range(8):
            n = 4
            f = {j: rng.choice(letters) for j in rng.sample(range(1, n + 1), rng.randrange(0, n + 1))}
            terms[PauliString(4, f)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        op = QubitOperator(4, terms)
        text = op.serialize()
        back = QubitOperator.deserialize(text, 4)
        assert back.serialize() == text
        assert back.isclose(op, 1e-12)

    def test_dense_operator_matches_basis_action(self):
        op = QubitOperator(
            2, {PauliString(2, {1: "Y", 2: "Z"}): 1.0, PauliString(2, {2: "X"}): 0.5}
        )
        m = dense_operator(op)
        for b in range(4):
            col = np.zeros(4, dtype=complex)
            state = QubitStateVector.basis_state(BitVec.from_int(b, 2))
            for nb, amp in apply_qubit_operator(op, state).amplitudes.items():
                col[nb.value] = amp
            assert np.allclose(m[:, b], col, atol=1e-12)


def _reference_letters(s):
    """{qubit: letter} read off the masks one qubit at a time."""
    letters = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return {
        j + 1: letters[s.x >> j & 1, s.z >> j & 1]
        for j in range(s.n)
        if (s.x | s.z) >> j & 1
    }


def _reference_sort_key(s):
    f = _reference_letters(s)
    return len(f), tuple((j, "XYZ".index(f[j])) for j in sorted(f))


@st.composite
def operators(draw):
    """Random strings on up to 70 qubits with distinct coefficients exact in 15 digits."""
    n = draw(st.integers(1, 70))
    masks = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    pairs = draw(st.lists(masks, min_size=1, max_size=30, unique=True))
    terms = {}
    for x, z in pairs:
        re_, im_ = draw(st.tuples(st.integers(-64, 64), st.integers(-64, 64)).filter(any))
        terms[PauliString.from_masks(n, x, z)] = complex(re_ / 8, im_ / 8)
    return QubitOperator(n, terms)


@settings(max_examples=150, deadline=None)
@given(op=operators())
def test_serialize_order_and_round_trip(op):
    ordered = sorted(op.terms.items(), key=lambda item: _reference_sort_key(item[0]))
    lines = []
    for s, c in ordered:
        f = _reference_letters(s)
        text = "*".join(f"{f[j]}{j}" for j in sorted(f)) or "I"
        lines.append(f"{c.real:.15g} {c.imag:.15g} {text}\n")
    text = op.serialize()
    assert text == "".join(lines)
    assert [s.text() for s, _ in ordered] == [line.split()[2] for line in lines]
    assert min(op.terms, key=PauliString.sort_key) == ordered[0][0]
    back = QubitOperator.deserialize(text, op.n)
    assert back == op
    assert back.serialize() == text


# Parts with signed zeros, repeats (equal coefficients share one text) and
# doubles of any exponent up to 1e300, so that ``abs`` of a coefficient is finite.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -1e-300, 2.5e17]),
    st.floats(-1e300, 1e300),
)


@st.composite
def column_operators(draw):
    """Operators on widths around the 32-digit words and the 64-bit limbs,
    with the identity, strings of few qubits (so equal weights) and parts of
    -0.0, built from a dict or, as the map builds them, from columns."""
    n = draw(st.sampled_from([1, 5, 31, 32, 33, 64, 65, 97]))
    few = st.sets(st.integers(0, n - 1), max_size=3).map(lambda bits: sum(1 << b for b in bits))
    mask = st.one_of(st.integers(0, (1 << n) - 1), few)
    pairs = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=40, unique=True))
    if draw(st.booleans()) and (0, 0) not in pairs:
        pairs.insert(draw(st.integers(0, len(pairs))), (0, 0))
    kept = [(x, z, c) for x, z in pairs if abs(c := complex(draw(PARTS), draw(PARTS))) > 1e-12]
    if draw(st.booleans()):
        return QubitOperator(n, {PauliString.from_masks(n, x, z): c for x, z, c in kept})
    x, z, c = zip(*kept) if kept else ((), (), ())
    return pauli._operator(n, [(None, _words(x, n), _words(z, n), np.array(c, dtype=complex))])


@settings(max_examples=200, deadline=None)
@given(op=column_operators())
def test_column_readers_match_the_per_string_reference(op):
    assert op.serialize() == reference_serialize(op)
    ordered = sorted(op.terms, key=PauliString.sort_key)
    body = " + ".join(f"({op.terms[s]:.6g})*{s.text()}" for s in ordered)
    assert repr(op) == f"QubitOperator({op.n}, {body or '0'})"
    assert op.stats() == (len(op.terms), sum((s.x | s.z).bit_count() for s in op.terms))
    if ordered:  # with tol -1 the witness is the first string of largest |imag|
        worst = max(abs(c.imag) for c in op.terms.values())
        tied = [s for s in ordered if abs(op.terms[s].imag) == worst]
        assert op.check_hermitian(-1.0) == (False, tied[0])


class TestParsing:
    @pytest.mark.parametrize("text", ["X1_0", "X\u0661", "X+1", "X-1", "X 1", "X", "X1**Z2", "1"])
    def test_from_text_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="bad Pauli factor"):
            PauliString.from_text(text, 12)

    def test_from_text_reads_what_text_writes(self):
        s = PauliString(12, {1: "X", 10: "Y", 12: "Z"})
        assert s.text() == "X1*Y10*Z12"
        assert PauliString.from_text(" X1*Y10*Z12 ", 12) == s

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 0 X1**Z2\n", "line 1: bad Pauli factor '' in 'X1**Z2'"),
            ("1 0 X1\n\n2 0 X4\n", "line 3: qubit 4 outside 1..3"),
            ("1 0 X1\n1 zero Z2\n", "line 2: could not convert string to float: 'zero'"),
            ("1 0 W1\n", "line 1: unknown Pauli letter 'W'"),
            ("1 0 X1*X1\n", "line 1: duplicate qubit 1 in 'X1*X1'"),
            ("nan 0 X1\n", "line 1: non-finite value 'nan'"),
            ("1 0 X1\n0 -inf Z2\n", "line 2: non-finite value '-inf'"),
            ("1_0 0 Z1\n", "line 1: could not convert string to float: '1_0'"),
            ("1 \u0663 Z1\n", "line 1: could not convert string to float: '\u0663'"),
        ],
    )
    def test_deserialize_names_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            QubitOperator.deserialize(text, 3)
        assert str(info.value) == message

    def test_deserialize_reads_float_syntax(self):
        op = QubitOperator.deserialize("1e-3 -2.5E+1 X1\n.5 +1 Z2\n", 2)
        assert op.terms == {
            PauliString(2, {1: "X"}): 0.001 - 25j,
            PauliString(2, {2: "Z"}): 0.5 + 1j,
        }

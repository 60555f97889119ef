import itertools
import json
import math
import random
import re
from dataclasses import fields, replace
from functools import cached_property

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fermicode import bitmath, codes
from fermicode.bitmath import DEFAULT_BUDGET, BitMat, BitVec, BoolPoly
from fermicode.codes import (
    BasisSpec,
    Code,
    binary_addressing_k1,
    binary_addressing_k2,
    binary_switch,
    bravyi_kitaev,
    checksum_code,
    code_from_spec,
    concat,
    decode_image,
    enumerate_basis,
    jordan_wigner,
    linear_code,
    load_code,
    parity_code,
    parse_basis_spec,
    parse_builtin_code,
    segment_code,
    segment_subcode,
    validate_code,
)
from fermicode.codes import _ints, _table_size, _words
from fermicode.errors import BudgetError, DimensionError, InputFormatError

from helpers import (
    nonlinear_codes,
    random_invertible_bitmat,
    reference_decode_image,
    reference_is_degenerate_image,
    reference_validate_code,
)


def anf_evaluator(polys):
    """Packed values of ``polys`` at ``x``, summing the ANF coefficients of x's submasks.

    Costs 2**weight(x) lookups per call, against a pass over every monomial
    for ``BoolPoly.evaluate``.
    """
    coeffs: dict[int, int] = {}
    for i, p in enumerate(polys):
        for m in p.masks:
            coeffs[m] = coeffs.get(m, 0) ^ 1 << i

    def values(x: int) -> int:
        acc, sub = coeffs.get(0, 0), x
        while sub:
            acc ^= coeffs.get(sub, 0)
            sub = (sub - 1) & x
        return acc

    return values


def weight_k_vectors(n, k):
    for combo in itertools.combinations(range(1, n + 1), k):
        yield BitVec.from_int(sum(1 << (m - 1) for m in combo), n)


def _same(a, b) -> bool:
    """Equality that compares numpy arrays (the monomial tables) by value."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


CACHED = sorted(name for name, value in vars(Code).items() if isinstance(value, cached_property))


@pytest.mark.parametrize("spec, donor", [
    ("jordan_wigner:4", "bravyi_kitaev:4"),
    ("bravyi_kitaev:4", "jordan_wigner:4"),
    ("checksum:4:even", "checksum:4:odd"),
    ("segment:2:2", "checksum:5:even+checksum:5:odd"),
    ("binary_addressing_k2:2", "checksum:4:odd"),
])
def test_replaced_polynomials_leave_no_cached_property_stale(spec, donor):
    # Every cache of the original is filled before the replace; the replaced
    # code must then agree with a code built afresh from its public fields,
    # under a kind of its own so that it shares nothing with the original.
    code, other = load_code(spec), load_code(donor)
    assert {"decode_split", "flip_supports", "encode_columns", "_tables"} <= set(CACHED)
    # The whole encode and decode tables, read from occupation and code-word rows.
    whole = [(side, max(1, -(-n // 64))) for side, n in ((0, code.n_modes), (1, code.n_qubits))]
    for name in CACHED:
        getattr(code, name)
    for side, limbs in whole:
        code.table(side, None, limbs)
    replaced = replace(code, encode=other.encode, decode=other.decode)
    public = {f.name: getattr(replaced, f.name) for f in fields(Code) if not f.name.startswith("_")}
    fresh = Code(**{**public, "kind": "fresh " + spec})
    for c, (side, limbs) in itertools.product((replaced, fresh), whole):
        c.table(side, None, limbs)
    for name in CACHED:
        assert _same(getattr(replaced, name), getattr(fresh, name)), name
    assert not all(_same(getattr(code, name), getattr(fresh, name)) for name in CACHED)


@pytest.mark.parametrize("spec", [
    "binary_addressing_k2:3", "segment:2:2+checksum:4:odd", "binary_addressing_k1:7",
])
def test_cut_tables_evaluate_their_components_alone(spec):
    # A component mask keeps those components and reads 0 for the rest; a
    # decode cut's rows end at the mask's highest component (2 limbs for 128
    # modes, 1 for a mask below 64).
    code, rng = load_code(spec), random.Random(0)
    words = _words([rng.getrandbits(code.n_qubits) for _ in range(40)], code.n_qubits)
    decoded = _ints(code.decode_words(words))
    for modes in (1, 0b101, (1 << code.n_modes) - 2, rng.getrandbits(code.n_modes) | 1):
        assert _ints(code.decode_words(words, modes)) == [v & modes for v in decoded]
    occupations = _words([rng.getrandbits(code.n_modes) for _ in range(40)], code.n_modes)
    encoded = _ints(code.encode_words(occupations))
    for qubits in (1, (1 << code.n_qubits) - 2):
        assert _ints(code.encode_words(occupations, qubits)) == [v & qubits for v in encoded]


class TestClassicalTransforms:
    def test_jordan_wigner_identity(self):
        c = jordan_wigner(4)
        assert c.encode_vec(BitVec("0110")) == BitVec("0110")
        assert c.decode_vec(BitVec("1011")) == BitVec("1011")
        spec = BasisSpec.full_fock(4)
        report = validate_code(c, spec)
        assert report.round_trip_ok and report.one_to_one

    def test_jw_n1(self):
        c = jordan_wigner(1)
        assert c.encode_vec(BitVec("1")) == BitVec("1")

    def test_parity_code_examples(self):
        c = parity_code(2)
        assert c.encode_vec(BitVec("10")) == BitVec("11")
        assert c.decode_vec(BitVec("11")) == BitVec("10")

    def test_parity_matrices(self):
        for n in range(1, 13):
            c = parity_code(n)
            assert c.matrix @ c.matrix_inv == BitMat.identity(n)
            # encoding accumulates occupation parities
            assert c.matrix.row(n) == BitVec.from_int((1 << n) - 1, n)

    def test_bravyi_kitaev_small_matrices(self):
        assert bravyi_kitaev(1).matrix == BitMat.identity(1)
        assert bravyi_kitaev(2).matrix == BitMat([[1, 0], [1, 1]])
        expect4 = BitMat([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]])
        assert bravyi_kitaev(4).matrix == expect4
        assert bravyi_kitaev(4).matrix @ bravyi_kitaev(4).matrix_inv == BitMat.identity(4)

    def test_bravyi_kitaev_flip_sets_logarithmic(self):
        for n in (8, 16):
            c = bravyi_kitaev(n)
            bound = math.ceil(math.log2(n)) + 1
            for j in range(1, n + 1):
                assert c.matrix_inv.row(j).weight() <= bound

    def test_linear_polynomials_match_matrix_action(self):
        rng = random.Random(101)
        for _ in range(5):
            n = rng.randrange(2, 8)
            a = random_invertible_bitmat(rng, n)
            c = linear_code(a)
            for _ in range(40):
                v = BitVec.from_int(rng.randrange(1 << n), n)
                assert c.encode_vec(v) == a @ v
                assert c.decode_vec(v) == c.matrix_inv @ v


class TestChecksum:
    def test_even_flavor_example(self):
        c = checksum_code(4, "even")
        assert c.decode_vec(BitVec("011")) == BitVec("0110")

    def test_odd_flavor_example(self):
        c = checksum_code(4, "odd")
        assert c.decode_vec(BitVec("011")) == BitVec("0111")

    def test_weight_two_round_trips(self):
        c = checksum_code(4, "even")
        for nu in weight_k_vectors(4, 2):
            assert c.in_basis(nu)

    @pytest.mark.parametrize("flavor", ["even", "odd"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_exhaustive_parity_sector(self, n, flavor):
        c = checksum_code(n, flavor)
        want = 1 if flavor == "odd" else 0
        for value in range(1 << n):
            nu = BitVec.from_int(value, n)
            assert c.in_basis(nu) == (nu.weight() % 2 == want)

    def test_one_to_one(self):
        spec = BasisSpec.single(4, [0, 2, 4])
        report = validate_code(checksum_code(4, "even"), spec)
        assert report.round_trip_ok and report.one_to_one
        assert report.images_in_declared_basis


class TestBinaryAddressingK1:
    def test_examples(self):
        c = binary_addressing_k1(2)
        assert c.encode_vec(BitVec("0010")) == BitVec("01")
        assert c.decode_vec(BitVec("01")) == BitVec("0010")
        c1 = binary_addressing_k1(1)
        assert c1.decode_vec(BitVec("0")) == BitVec("10")
        assert c1.decode_vec(BitVec("1")) == BitVec("01")

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_round_trips_and_bijection(self, r):
        c = binary_addressing_k1(r)
        for nu in weight_k_vectors(c.n_modes, 1):
            assert c.in_basis(nu)
        seen = set()
        for w in range(1 << r):
            img = c.decode_vec(BitVec.from_int(w, r))
            assert img.weight() == 1
            seen.add(img)
        assert len(seen) == c.n_modes


class TestBinaryAddressingK2:
    @pytest.mark.parametrize("r", [2, 3])
    def test_weight_two_round_trips(self, r):
        c = binary_addressing_k2(r)
        assert c.n_qubits == 2 * r - 1
        for nu in weight_k_vectors(c.n_modes, 2):
            assert c.in_basis(nu)

    def test_images_weight_two_or_degenerate(self):
        c = binary_addressing_k2(2)
        degenerate = 0
        for w in range(8):
            img = c.decode_vec(BitVec.from_int(w, 3))
            if img.weight() == 0:
                assert c.is_degenerate_image(img)
                degenerate += 1
            else:
                assert img.weight() == 2
        assert degenerate == 2

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_every_word_decodes_to_the_pair_it_encodes(self, r):
        c = binary_addressing_k2(r)
        half = c.n_modes // 2
        diagonal = 0
        for w in range(1 << c.n_qubits):
            word = BitVec.from_int(w, c.n_qubits)
            img = c.decode_vec(word)
            if w % c.n_modes == (w >> r) + half:
                assert img == BitVec.zeros(c.n_modes)
                diagonal += 1
            else:
                assert img.weight() == 2 and c.encode_vec(img) == word
        assert diagonal == 1 << (r - 1)

    def test_r8_builds_and_round_trips_a_sample(self):
        c = binary_addressing_k2(8)
        assert (c.n_modes, c.n_qubits) == (256, 15)
        encode, decode = anf_evaluator(c.encode), anf_evaluator(c.decode)
        rng = random.Random(8)
        for i, j in rng.sample(list(itertools.combinations(range(256), 2)), 200):
            nu = 1 << i | 1 << j
            assert decode(encode(nu)) == nu
        word = c.encode_vec(BitVec.from_int(nu, 256))  # the evaluator against BoolPoly's
        assert word.value == encode(nu) and c.decode_vec(word).value == nu

    def test_table_bits_bound_at_the_edge(self):
        # k2(9) and k1(13) tabulate 2**26 bits and build; k2(10) and k1(14)
        # are refused before their tables exist.
        assert _table_size("binary_addressing_k2(9)", 17, 512) == 1 << 17
        assert _table_size("binary_addressing_k1(13)", 13, 1 << 13) == 1 << 13
        for make, r in ((binary_addressing_k2, 10), (binary_addressing_k1, 14)):
            with pytest.raises(BudgetError, match="over the budget of 67108864 bits"):
                make(r)

    def test_not_one_to_one_but_validates(self):
        c = binary_addressing_k2(2)
        spec = BasisSpec.single(4, [2])
        report = validate_code(c, spec)
        assert report.round_trip_ok
        assert not report.one_to_one
        assert report.images_in_declared_basis  # degenerates are designated
        assert len(report.degenerate_images) == 2


class TestSegmentCodes:
    def test_k1_subcode_matches_printed_form(self):
        c = segment_subcode(1)
        assert [p.to_text() for p in c.decode] == [
            "x1 + x1*x2",
            "x2 + x1*x2",
            "x1*x2",
        ]
        enc = BitMat([[1, 0, 1], [0, 1, 1]])
        for value in range(8):
            nu = BitVec.from_int(value, 3)
            assert c.encode_vec(nu) == enc @ nu

    def test_k2_switch_printed_polynomial(self):
        want = BoolPoly.from_text(
            4, "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4 + x1*x2*x3*x4"
        )
        assert binary_switch(2) == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_switch_is_weight_threshold(self, k):
        f = binary_switch(k)
        for w in range(1 << (2 * k)):
            assert f.evaluate(w) == (1 if w.bit_count() > k else 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subcode_encodes_low_weight_words(self, k):
        c = segment_subcode(k)
        for value in range(1 << c.n_modes):
            nu = BitVec.from_int(value, c.n_modes)
            assert c.in_basis(nu) == (nu.weight() <= k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_images_stay_capped_and_carry_switch_bit(self, k):
        # every decode image has weight <= K; the appended component is the
        # switch value, and without the switch the raw word exceeds K exactly
        # when the switch fires
        c = segment_subcode(k)
        f = binary_switch(k)
        for w in range(1 << c.n_qubits):
            word = BitVec.from_int(w, c.n_qubits)
            img = c.decode_vec(word)
            fired = f.evaluate(w)
            assert img.weight() <= k
            assert img[c.n_modes] == fired
            assert (word.weight() > k) == bool(fired)

    def test_segment_code_sizes(self):
        c = segment_code(2, 2)
        assert (c.n_modes, c.n_qubits) == (10, 8)
        assert c.segments == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
        c1 = segment_code(1, 1)
        sub = segment_subcode(1)
        assert c1.encode == sub.encode and c1.decode == sub.decode

    def test_k2_m2_weight_two_round_trips(self):
        c = segment_code(2, 2)
        for nu in weight_k_vectors(10, 2):
            assert c.in_basis(nu)

    def test_validate_weight_two_spec_reports_extra_images(self):
        c = segment_code(2, 2)
        report = validate_code(c, BasisSpec.single(10, [2]))
        assert report.round_trip_ok
        assert report.one_to_one
        extra_weights = {nu.weight() for _, nu in report.images_outside}
        assert extra_weights == {0, 1, 3, 4}


class TestConcat:
    def test_identity_blocks(self):
        c = concat(jordan_wigner(2), jordan_wigner(3))
        jw5 = jordan_wigner(5)
        assert c.encode == jw5.encode and c.decode == jw5.decode

    def test_blockwise_evaluation(self):
        rng = random.Random(77)
        a = checksum_code(4, "even")
        b = segment_subcode(1)
        c = concat(a, b)
        for _ in range(50):
            w1 = BitVec.from_int(rng.randrange(1 << a.n_qubits), a.n_qubits)
            w2 = BitVec.from_int(rng.randrange(1 << b.n_qubits), b.n_qubits)
            assert c.decode_vec(w1.concat(w2)) == a.decode_vec(w1).concat(b.decode_vec(w2))
            v1 = BitVec.from_int(rng.randrange(1 << a.n_modes), a.n_modes)
            v2 = BitVec.from_int(rng.randrange(1 << b.n_modes), b.n_modes)
            assert c.encode_vec(v1.concat(v2)) == a.encode_vec(v1).concat(b.encode_vec(v2))

    def test_h2_code_matches_displayed_matrices(self):
        block = code_from_spec(
            {
                "kind": "custom",
                "n_modes": 2,
                "n_qubits": 1,
                "encode": ["x2"],
                "decode": ["1 + x1", "x1"],
            }
        )
        c = concat(block, block)
        # decode matrix [[1,0],[1,0],[0,1],[0,1]] with affine (1,0,1,0)
        for value in range(4):
            w = BitVec.from_int(value, 2)
            d = BitVec([w[1] ^ 1, w[1], w[2] ^ 1, w[2]])
            assert c.decode_vec(w) == d
        # encode rows (0,1,0,0) and (0,0,0,1)
        for value in range(16):
            nu = BitVec.from_int(value, 4)
            assert c.encode_vec(nu) == BitVec([nu[2], nu[4]])
        v = [BitVec("0101"), BitVec("0110"), BitVec("1001"), BitVec("1010")]
        for nu in v:
            assert c.in_basis(nu)

    def test_checksum_pair_sizes(self):
        c = concat(checksum_code(10, "even"), checksum_code(10, "even"))
        assert (c.n_modes, c.n_qubits) == (20, 18)

    @pytest.mark.parametrize("name, message", [
        ("checksum:2000:even", "checksum_code(2000) needs 2000 x 1999 code entries"),
        ("segment:1:500", "concat of 500 codes needs 1500 x 1000 code entries"),
        # Each part passes its own check; a concatenation builds no matrix.
        ("jordan_wigner:600+jordan_wigner:600", "concat of 2 codes needs 1200 x 1200 code entries"),
    ])
    def test_oversized_code_raises_before_building(self, name, message):
        # N x n entries over the budget: memory grew quadratically with N.
        with pytest.raises(BudgetError, match=rf"^{re.escape(message)}, over the budget of 1048576$"):
            load_code(name)


class TestMetadata:
    def test_degenerate_image_needs_one_bit_per_mode(self):
        code = jordan_wigner(2)
        with pytest.raises(DimensionError, match="degenerate image needs one bit per mode"):
            replace(code, degenerate_image=BitVec("101"))

    def test_segments_need_a_weight(self):
        code = segment_subcode(1)
        with pytest.raises(DimensionError, match="segments need a segment_weight"):
            replace(code, segment_weight=None)


class TestBasisEnumeration:
    def test_single_suit_count(self):
        basis = enumerate_basis(BasisSpec.single(4, [2]))
        assert len(basis) == 6

    def test_h2_suits(self):
        spec = BasisSpec(4, ((1, 2), (3, 4)), ((1,), (1,)))
        basis = enumerate_basis(spec)
        assert [str(v) for v in basis] == ["0101", "0110", "1001", "1010"]

    def test_hubbard_suits_count(self):
        spec = parse_basis_spec("1-10:2;11-20:2", 20)
        assert len(enumerate_basis(spec)) == 2025

    def test_spec_text_round_trips(self):
        for text, n in (("1-10:2;11-20:2", 20), ("1,3,5-7:0,2;2,4:1", 7), ("1-40:20", 40)):
            spec = parse_basis_spec(text, n)
            assert str(spec) == text
            assert parse_basis_spec(str(spec), n) == spec

    def test_over_budget_raises_before_building(self):
        import tracemalloc

        spec = parse_basis_spec("1-40:20", 40)
        assert spec.size() == 137846528820
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"basis 1-40:20 has 137846528820 states"):
                enumerate_basis(spec)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        small = parse_basis_spec("1-10:2;11-20:2", 20)
        assert small.size() == 2025
        with pytest.raises(BudgetError, match=r"basis 1-10:2;11-20:2 has 2025 states"):
            enumerate_basis(small, budget=2024)
        assert len(enumerate_basis(small, budget=2025)) == 2025

    def test_lexicographic_order(self):
        basis = enumerate_basis(BasisSpec.single(3, [1, 2]))
        as_tuples = [v.to_tuple() for v in basis]
        assert as_tuples == sorted(as_tuples)

    def test_partition_enforced(self):
        with pytest.raises(Exception):
            BasisSpec(4, ((1, 2), (2, 3)), ((1,), (1,)))


class TestValidation:
    def test_budget_guard(self):
        c = jordan_wigner(24)
        with pytest.raises(BudgetError):
            validate_code(c, BasisSpec.single(24, [1]), budget=1 << 10)

    def test_sampled_scan(self):
        c = jordan_wigner(24)
        report = validate_code(c, BasisSpec.single(24, [1]), budget=1 << 10, sample=200)
        assert report.round_trip_ok and report.scanned_words == 200

    def test_decode_image_enumeration(self):
        c = checksum_code(4, "even")
        images = decode_image(c)
        assert len(images) == 8
        assert all(nu.weight() % 2 == 0 for nu in images)


@pytest.fixture(params=["default", "tiny"])
def eval_cells(request, monkeypatch):
    """Run with the default evaluation step, and with 3-cell steps, in which a
    table of two or more monomials takes one word per step."""
    if request.param == "tiny":
        monkeypatch.setattr(bitmath, "_EVAL_CELLS", 3)


def assert_matches_reference(code, spec, budget=DEFAULT_BUDGET, sample=None, seed=0):
    """``validate_code``, ``decode_image`` and ``is_degenerate_image`` give what
    the word-by-word reference gives."""
    report = validate_code(code, spec, budget, sample, seed)
    assert report == reference_validate_code(code, spec, budget, sample, seed)
    if 1 << code.n_qubits <= budget:
        images = decode_image(code, budget)
        assert images == reference_decode_image(code)
        for nu in images:
            assert code.is_degenerate_image(nu) == reference_is_degenerate_image(code, nu)
    return report


@st.composite
def codes_with_specs(draw):
    """A nonlinear code or the concatenation of two, with a basis spec that is
    each part's own basis or other weights over the same modes."""
    parts, suits, weights = [], [], []
    for _ in range(draw(st.integers(1, 2))):
        code, basis = draw(nonlinear_codes())
        own = sorted({nu.weight() for nu in basis})
        other = st.lists(st.integers(0, code.n_modes), min_size=1, max_size=3, unique=True)
        offset = sum(len(suit) for suit in suits)
        parts.append(code)
        suits.append(tuple(range(offset + 1, offset + code.n_modes + 1)))
        weights.append(tuple(draw(st.one_of(st.just(own), other))))
    code = concat(*parts)
    return code, BasisSpec(code.n_modes, tuple(suits), tuple(weights))


@pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 8192])
def test_words_round_trip(n_bits):
    rng = random.Random(n_bits)
    values = [0, 1, (1 << n_bits) - 1, 1 << (n_bits - 1)]
    values += [rng.getrandbits(n_bits) for _ in range(20)]
    words = _words(values, n_bits)
    assert words.shape == (len(values), -(-n_bits // 64))
    assert _ints(words) == values
    # limbs run least significant first
    assert words[1, 0] == 1 and not words[1, 1:].any()


NAMED_CASES = [
    # (round-trip failures, stray images, degenerate images)
    (concat(concat(binary_addressing_k2(2), binary_addressing_k1(2)),
            binary_addressing_k2(2)), "1-4:2;5-8:1;9-12:2", (0, 0, 112)),
    (concat(binary_addressing_k2(2), binary_addressing_k2(2)), "1-4:1,2;5-8:0,1",
     (50, 36, 16)),
    (load_code("segment:1:2"), "1-3:0,1;4-6:0,1", (0, 0, 0)),
    (load_code("segment:1:2"), "1-3:1;4-6:0,1", (0, 4, 0)),
    (load_code("segment:1:2"), "1-3:0,1,2;4-6:0,1", (12, 0, 0)),
    (load_code("checksum:4:odd+binary_addressing_k1:2"), "1-4:1,3;5-8:1", (0, 0, 0)),
]


@pytest.mark.usefixtures("eval_cells")
class TestBatchValidation:
    # ``eval_cells`` only sets a module constant, which holds for every example.
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(codes_with_specs())
    def test_random_codes_match_the_reference(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("code, basis, counts", NAMED_CASES)
    def test_named_codes_match_the_reference(self, code, basis, counts):
        report = assert_matches_reference(code, parse_basis_spec(basis, code.n_modes))
        found = (report.round_trip_failures, report.images_outside, report.degenerate_images)
        assert tuple(map(len, found)) == counts

    def test_sampled_scan_matches_the_reference(self):
        code = jordan_wigner(24)
        report = assert_matches_reference(
            code, BasisSpec.single(24, [1]), budget=1 << 10, sample=200, seed=3
        )
        assert report.summary() == (
            "round_trip=ok images_in_basis=no one_to_one=yes (scanned 200 words, "
            "0 round-trip failures, 200 stray images, 0 degenerate images)"
        )

    def test_chunked_scan_gives_the_same_report(self, monkeypatch):
        # 3-word chunks split every scan, the 200-word sample unevenly.
        cases = [
            (code, parse_basis_spec(basis, code.n_modes), {}) for code, basis, _ in NAMED_CASES
        ]
        cases.append(
            (jordan_wigner(24), BasisSpec.single(24, [1]), {"budget": 1 << 10, "sample": 200})
        )
        want = [validate_code(code, spec, **kw) for code, spec, kw in cases]
        monkeypatch.setattr(codes, "_SCAN_WORDS", 3)
        assert [validate_code(code, spec, **kw) for code, spec, kw in cases] == want

    def test_no_word_by_word_evaluation(self, monkeypatch):
        code = concat(binary_addressing_k2(2), binary_addressing_k1(2))
        spec = parse_basis_spec("1-4:1,2;5-8:1", 8)
        want = (reference_validate_code(code, spec, DEFAULT_BUDGET), reference_decode_image(code))

        def scalar(*args):
            raise AssertionError("evaluated one vector at a time")

        for name in ("encode_vec", "decode_vec", "in_basis", "is_degenerate_image"):
            monkeypatch.setattr(Code, name, scalar)
        assert (validate_code(code, spec), decode_image(code)) == want


class TestCodeSpecs:
    @pytest.mark.parametrize(
        "spec,n_modes,n_qubits",
        [
            ({"kind": "jordan_wigner", "n_modes": 4}, 4, 4),
            ({"kind": "parity", "n_modes": 3}, 3, 3),
            ({"kind": "bravyi_kitaev", "n_modes": 6}, 6, 6),
            ({"kind": "checksum", "n_modes": 5, "flavor": "odd"}, 5, 4),
            ({"kind": "binary_addressing_k1", "r": 3}, 8, 3),
            ({"kind": "binary_addressing_k2", "r": 2}, 4, 3),
            ({"kind": "segment", "weight": 2, "segments": 2}, 10, 8),
        ],
    )
    def test_builtin_kinds(self, spec, n_modes, n_qubits):
        c = code_from_spec(spec)
        assert (c.n_modes, c.n_qubits) == (n_modes, n_qubits)

    def test_concat_spec(self):
        spec = {
            "kind": "concat",
            "parts": [
                {"kind": "checksum", "n_modes": 10, "flavor": "even"},
                {"kind": "segment", "weight": 2, "segments": 2},
            ],
        }
        c = code_from_spec(spec)
        assert (c.n_modes, c.n_qubits) == (20, 17)
        assert c.segments == ((11, 12, 13, 14, 15), (16, 17, 18, 19, 20))

    def test_custom_with_affine(self):
        spec = {
            "kind": "custom",
            "n_modes": 2,
            "n_qubits": 1,
            "encode": ["x1"],
            "decode": ["x1", "x1"],
            "decode_affine": [0, 1],
        }
        c = code_from_spec(spec)
        assert c.decode_vec(BitVec("1")) == BitVec("10")

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("jordan_wigner:4", {"kind": "jordan_wigner", "n_modes": 4}),
            ("parity:3", {"kind": "parity", "n_modes": 3}),
            ("bravyi_kitaev:6", {"kind": "bravyi_kitaev", "n_modes": 6}),
            ("checksum:5:odd", {"kind": "checksum", "n_modes": 5, "flavor": "odd"}),
            ("binary_addressing_k1:3", {"kind": "binary_addressing_k1", "r": 3}),
            ("binary_addressing_k2:2", {"kind": "binary_addressing_k2", "r": 2}),
            ("segment:2:2", {"kind": "segment", "weight": 2, "segments": 2}),
        ],
    )
    def test_compact_name_fills_the_spec_fields_in_order(self, name, spec):
        assert parse_builtin_code(name) == code_from_spec(spec)

    def test_builtin_string_parse(self):
        c = parse_builtin_code("checksum:10:even+segment:2:2")
        assert (c.n_modes, c.n_qubits) == (20, 17)

    def test_load_code_from_file(self, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"kind": "parity", "n_modes": 4}))
        c = load_code(str(path))
        assert c.kind == "parity" and c.n_modes == 4

    def test_custom_takes_all_seven_fields(self):
        spec = {
            "kind": "custom",
            "n_modes": 2,
            "n_qubits": 1,
            "encode": ["x1"],
            "decode": ["x1", "x1"],
            "encode_affine": [1],
            "decode_affine": [1, 0],
            "degenerate_image": [0, 0],
        }
        c = code_from_spec(spec)
        assert c.encode_vec(BitVec("10")) == BitVec("0")
        assert c.decode_vec(BitVec("0")) == BitVec("10")
        assert c.degenerate_image == BitVec("00")

    def test_bad_specs_rejected(self):
        with pytest.raises(InputFormatError):
            code_from_spec({"kind": "nope"})
        with pytest.raises(InputFormatError):
            code_from_spec({"kind": "checksum", "n_modes": 4})
        with pytest.raises(InputFormatError):
            parse_builtin_code("segment:2")

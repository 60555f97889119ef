"""Binary codes pairing an encoding e: Z2^N -> Z2^n with a decoding d: Z2^n -> Z2^N.

A code is valid on a basis set V of occupation vectors when d(e(v)) = v for
every v in V and every code word decodes into V (or into a designated
degenerate image). Constructors cover the classical full-Fock transforms
(identity / parity accumulation / binary-tree) and the qubit-saving families:
checksum codes, binary addressing codes with target weight one or two, and
segment codes. Codes concatenate block-wise.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property

from .bitmath import DEFAULT_BUDGET, BitMat, BitVec, BoolPoly
from .errors import BudgetError, DimensionError, InputFormatError, UnsupportedCodeError


@dataclass(frozen=True)
class Code:
    """Encoding/decoding pair with construction metadata.

    ``encode`` holds n polynomials over N variables and ``decode`` N
    polynomials over n variables; affine parts live in the constant
    monomials. ``matrix``/``matrix_inv`` are set for purely linear n = N
    codes fit for the parity/flip/update-set machinery. ``segments`` lists
    mode blocks whose occupation the code caps at ``segment_weight``.

    Structure derived from encode/decode (prefix parities, linearity, the
    encode's linear masks) is computed on first use and kept on the
    instance; ``dataclasses.replace`` builds a new instance, so it never
    sees stale values.
    """

    n_modes: int
    n_qubits: int
    encode: tuple[BoolPoly, ...]
    decode: tuple[BoolPoly, ...]
    kind: str = "custom"
    parts: tuple["Code", ...] = ()
    degenerate_image: BitVec | None = None
    segments: tuple[tuple[int, ...], ...] = ()
    segment_weight: int | None = None
    matrix: BitMat | None = None
    matrix_inv: BitMat | None = None

    def __post_init__(self):
        if len(self.encode) != self.n_qubits:
            raise DimensionError("encode needs one component per qubit")
        if len(self.decode) != self.n_modes:
            raise DimensionError("decode needs one component per mode")
        for p in self.encode:
            if p.num_vars != self.n_modes:
                raise DimensionError("encode components must be over N variables")
        for p in self.decode:
            if p.num_vars != self.n_qubits:
                raise DimensionError("decode components must be over n variables")

    # -- evaluation ------------------------------------------------------

    def encode_vec(self, nu: BitVec) -> BitVec:
        if nu.n != self.n_modes:
            raise DimensionError(f"occupation length {nu.n}, expected {self.n_modes}")
        value = 0
        for i, p in enumerate(self.encode):
            value |= p.evaluate(nu.value) << i
        return BitVec.from_int(value, self.n_qubits)

    def decode_vec(self, omega: BitVec) -> BitVec:
        if omega.n != self.n_qubits:
            raise DimensionError(f"code word length {omega.n}, expected {self.n_qubits}")
        value = 0
        for i, p in enumerate(self.decode):
            value |= p.evaluate(omega.value) << i
        return BitVec.from_int(value, self.n_modes)

    def in_basis(self, nu: BitVec) -> bool:
        """Membership in V, i.e. the round-trip d(e(nu)) = nu holds."""
        return self.decode_vec(self.encode_vec(nu)) == nu

    def is_degenerate_image(self, nu: BitVec) -> bool:
        """Whether ``nu`` is a designated degenerate decode image outside V."""
        if self.parts:
            offset = 0
            saw_degenerate = False
            for part in self.parts:
                block = BitVec.from_int(
                    (nu.value >> offset) & ((1 << part.n_modes) - 1), part.n_modes
                )
                if part.in_basis(block):
                    pass
                elif part.is_degenerate_image(block):
                    saw_degenerate = True
                else:
                    return False
                offset += part.n_modes
            return saw_degenerate
        return (
            self.degenerate_image is not None
            and nu == self.degenerate_image
            and not self.in_basis(nu)
        )

    # -- structure ---------------------------------------------------------

    @cached_property
    def prefix_parities(self) -> tuple[BoolPoly, ...]:
        """Entry ``j - 1`` is the mod-2 sum of the decode components below mode j."""
        acc = BoolPoly.zero(self.n_qubits)
        out = []
        for d in self.decode:
            out.append(acc)
            acc = acc + d
        return tuple(out)

    @cached_property
    def encode_is_linear(self) -> bool:
        return all(p.is_linear() for p in self.encode)

    @cached_property
    def _encode_linear_masks(self) -> tuple[int, ...]:
        return tuple(p.linear_mask() for p in self.encode)

    def encode_linear_action(self, q: BitVec) -> BitVec:
        """Linear part of the encoding applied to ``q`` (affine part dropped)."""
        if q.n != self.n_modes:
            raise DimensionError(f"vector length {q.n}, expected {self.n_modes}")
        value = 0
        for i, mask in enumerate(self._encode_linear_masks):
            value |= ((mask & q.value).bit_count() & 1) << i
        return BitVec.from_int(value, self.n_qubits)


def linear_code(a: BitMat, kind: str = "linear") -> Code:
    """Full-Fock n = N code defined by an invertible matrix A."""
    if a.rows != a.cols:
        raise DimensionError("linear codes need a square matrix")
    n = a.rows
    a_inv = a.inverse()
    return Code(
        n_modes=n,
        n_qubits=n,
        encode=tuple(BoolPoly.linear(a.row(i)) for i in range(1, n + 1)),
        decode=tuple(BoolPoly.linear(a_inv.row(i)) for i in range(1, n + 1)),
        kind=kind,
        matrix=a,
        matrix_inv=a_inv,
    )


def jordan_wigner(n_modes: int) -> Code:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return linear_code(BitMat.identity(n_modes), kind="jordan_wigner")


def parity_code(n_modes: int) -> Code:
    """Mode j is stored as the running occupation parity of modes 1..j."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    a = BitMat.from_int_rows([(1 << (i + 1)) - 1 for i in range(n_modes)], n_modes)
    return linear_code(a, kind="parity")


def _bk_matrix(n_modes: int) -> BitMat:
    """Binary-tree partial-sum matrix, truncated to the leading N x N block."""
    size = 1
    while size < n_modes:
        size *= 2
    rows = [1]
    while len(rows) < size:
        half = len(rows)
        full = (1 << half) - 1
        rows = rows + [r << half for r in rows]
        rows[-1] |= full
    mask = (1 << n_modes) - 1
    return BitMat.from_int_rows([r & mask for r in rows[:n_modes]], n_modes)


def bravyi_kitaev(n_modes: int) -> Code:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return linear_code(_bk_matrix(n_modes), kind="bravyi_kitaev")


def checksum_code(n_modes: int, flavor: str = "even") -> Code:
    """n = N - 1 code for all words of fixed total parity.

    The encoding drops the last component; the decoding restores it as the
    parity of the rest, plus an affine 1 for the odd flavor.
    """
    if n_modes < 2:
        raise ValueError("checksum codes need at least two modes")
    if flavor not in ("even", "odd"):
        raise ValueError(f"flavor must be 'even' or 'odd', got {flavor!r}")
    n = n_modes - 1
    return Code(
        n_modes=n_modes,
        n_qubits=n,
        encode=tuple(BoolPoly.variable(n_modes, j) for j in range(1, n_modes)),
        decode=(
            *(BoolPoly.variable(n, j) for j in range(1, n_modes)),
            BoolPoly.linear(BitVec.from_int((1 << n) - 1, n), constant=int(flavor == "odd")),
        ),
        kind="checksum",
    )


def _address(index: int, bits: int) -> BitVec:
    """Address vector q with bin(q) + 1 = index; component 1 is least significant."""
    return BitVec.from_int(index - 1, bits)


def _match_product(num_vars: int, offset: int, target: BitVec, complement: bool) -> BoolPoly:
    """Product over components of (x_{offset+i} + target_i [+ 1]).

    With ``complement`` False the product is 1 exactly when the register
    equals ``target``; with True, exactly on the bitwise complement.
    """
    p = BoolPoly.one(num_vars)
    for i in range(1, target.n + 1):
        const = target[i] ^ (0 if complement else 1)
        p = p * (BoolPoly.variable(num_vars, offset + i) + BoolPoly.constant(num_vars, const))
    return p


def binary_addressing_k1(r: int) -> Code:
    """Weight-one code storing the particle coordinate as a binary number.

    N = 2**r modes on n = r qubits; decode component j is the indicator that
    the register holds the address of mode j.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    n_modes = 1 << r
    return Code(
        n_modes=n_modes,
        n_qubits=r,
        # qubit i is the sum of the modes whose address has bit i set
        encode=tuple(
            BoolPoly(n_modes, [1 << a for a in range(n_modes) if a >> i & 1]) for i in range(r)
        ),
        decode=tuple(
            _match_product(r, 0, _address(j, r), complement=False)
            for j in range(1, n_modes + 1)
        ),
        kind="binary_addressing_k1",
    )


def binary_addressing_k2(r: int) -> Code:
    """Weight-two binary addressing code: N = 2**r modes on n = 2r - 1 qubits.

    The code word is two registers alpha (r bits) and beta (r - 1 bits)
    holding dissected pair coordinates. Pairs with a particle above mode
    N/2 are stored directly; pairs entirely in the lower half are stored
    point-reflected. The comparator S picks the branch and T flags the
    excluded diagonal words, which all decode to the empty occupation.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    n_modes = 1 << r
    n = 2 * r - 1
    half = n_modes >> 1

    alpha = [BoolPoly.variable(n, i) for i in range(1, r + 1)]
    beta = [BoolPoly.variable(n, r + k) for k in range(1, r)]
    one = BoolPoly.one(n)

    # S = 1 iff alpha_r = 0 or bin(beta) > bin(alpha_1..r-1): the stored pair
    # has its larger coordinate above N/2 without reflection.
    cmp_sum = BoolPoly.zero(n)
    for j in range(1, r):
        term = (one + alpha[j - 1]) * beta[j - 1]
        for i in range(j + 1, r):
            term = term * (alpha[i - 1] + beta[i - 1] + one)
        cmp_sum = cmp_sum + term
    s_poly = alpha[r - 1] * cmp_sum + one + alpha[r - 1]

    # T = 1 iff alpha and beta agree on the first r - 1 components; together
    # with S = 0 that is the excluded diagonal.
    t_poly = one
    for i in range(1, r):
        t_poly = t_poly * (alpha[i - 1] + beta[i - 1] + one)

    not_s = one + s_poly
    reflected = not_s * (one + t_poly)

    decode = []
    for j in range(1, n_modes + 1):
        q = _address(j, r)
        top = q[r]
        comp = s_poly * _match_product(n, 0, q, complement=False)
        comp = comp + reflected * _match_product(n, 0, q, complement=True)
        beta_target = BitVec.from_int(q.value & (half - 1), r - 1)
        if top:
            comp = comp + s_poly * _match_product(n, r, beta_target, complement=False)
        else:
            comp = comp + reflected * _match_product(n, r, beta_target, complement=True)
        decode.append(comp)

    # Quadratic encoding: the code word for the occupied pair {i, j} is the
    # coefficient vector of the monomial x_i x_j.
    enc_masks = [set() for _ in range(n)]

    def put(i: int, j: int, word: int):
        mono = (1 << (i - 1)) | (1 << (j - 1))
        for bit in range(n):
            if (word >> bit) & 1:
                enc_masks[bit].add(mono)

    full_r = (1 << r) - 1
    full_r1 = (1 << (r - 1)) - 1
    for j in range(2, half + 1):
        # pair entirely in the lower half: stored point-reflected
        for i in range(1, j):
            word = (((j - 1) ^ full_r1) << r) | ((i - 1) ^ full_r)
            put(i, j, word)
    for j in range(half + 1, n_modes + 1):
        # larger coordinate above N/2: stored directly
        for i in range(1, j):
            word = ((j - half - 1) << r) | (i - 1)
            put(i, j, word)

    encode = tuple(BoolPoly(n_modes, masks) for masks in enc_masks)
    return Code(
        n_modes=n_modes,
        n_qubits=n,
        encode=encode,
        decode=tuple(decode),
        kind="binary_addressing_k2",
        degenerate_image=BitVec.zeros(n_modes),
    )


def binary_switch(weight: int) -> BoolPoly:
    """Indicator over 2K variables that the input weight exceeds K."""
    if weight < 1:
        raise ValueError("need weight >= 1")
    n = 2 * weight
    return BoolPoly.from_truth_table(n, [int(t.bit_count() > weight) for t in range(1 << n)])


def segment_subcode(weight: int) -> Code:
    """One segment: 2K + 1 modes on 2K qubits, encoding all words of weight <= K."""
    if weight < 1:
        raise ValueError("need weight >= 1")
    n_hat = 2 * weight
    big_n = n_hat + 1
    switch = binary_switch(weight)
    decode = [BoolPoly.variable(n_hat, j) + switch for j in range(1, n_hat + 1)]
    decode.append(switch)
    encode = tuple(
        BoolPoly.variable(big_n, j) + BoolPoly.variable(big_n, big_n)
        for j in range(1, n_hat + 1)
    )
    return Code(
        n_modes=big_n,
        n_qubits=n_hat,
        encode=encode,
        decode=tuple(decode),
        kind="segment_subcode",
        segments=(tuple(range(1, big_n + 1)),),
        segment_weight=weight,
    )


def segment_code(weight: int, n_segments: int) -> Code:
    """Concatenation of identical segment subcodes."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    return replace(concat(*[segment_subcode(weight)] * n_segments), kind="segment")


def concat(*codes: Code) -> Code:
    """Block-wise concatenation: d(w1 + w2) = d1(w1) + d2(w2) on disjoint blocks."""
    if not codes:
        raise ValueError("concat needs at least one code")
    if len(codes) == 1:
        return codes[0]
    n_modes = sum(c.n_modes for c in codes)
    n_qubits = sum(c.n_qubits for c in codes)
    encode: list[BoolPoly] = []
    decode: list[BoolPoly] = []
    segments: list[tuple[int, ...]] = []
    weights = {c.segment_weight for c in codes if c.segment_weight is not None}
    mode_offset = 0
    qubit_offset = 0
    for c in codes:
        encode.extend(p.shift_vars(mode_offset, n_modes) for p in c.encode)
        decode.extend(p.shift_vars(qubit_offset, n_qubits) for p in c.decode)
        segments.extend(
            tuple(m + mode_offset for m in seg) for seg in c.segments
        )
        mode_offset += c.n_modes
        qubit_offset += c.n_qubits
    if len(weights) > 1:
        raise UnsupportedCodeError("cannot concatenate segment codes of different weights")
    return Code(
        n_modes=n_modes,
        n_qubits=n_qubits,
        encode=tuple(encode),
        decode=tuple(decode),
        kind="concat",
        parts=tuple(codes),
        segments=tuple(segments),
        segment_weight=next(iter(weights)) if weights else None,
    )


# -- basis sets -------------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    """Occupation basis: per-suit index blocks with admitted Hamming weights."""

    n_modes: int
    suits: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.suits) != len(self.weights):
            raise DimensionError("one weight list per suit required")
        seen: set[int] = set()
        for suit in self.suits:
            for m in suit:
                if not 1 <= m <= self.n_modes or m in seen:
                    raise DimensionError("suits must partition 1..N exactly")
                seen.add(m)
        if len(seen) != self.n_modes:
            raise DimensionError("suits must partition 1..N exactly")
        for suit, ws in zip(self.suits, self.weights):
            for w in ws:
                if not 0 <= w <= len(suit):
                    raise DimensionError(f"weight {w} impossible for suit of {len(suit)}")

    def __str__(self) -> str:
        """The spec in ``parse_basis_spec`` syntax, runs of indices as ranges."""
        chunks = []
        for suit, ws in zip(self.suits, self.weights):
            runs: list[list[int]] = []
            for m in suit:
                if runs and m == runs[-1][1] + 1:
                    runs[-1][1] = m
                else:
                    runs.append([m, m])
            indices = ",".join(f"{a}-{b}" if a != b else str(a) for a, b in runs)
            chunks.append(f"{indices}:{','.join(map(str, ws))}")
        return ";".join(chunks)

    def size(self) -> int:
        """Number of vectors the spec admits: the product over suits of sum_w C(|suit|, w)."""
        return math.prod(
            sum(math.comb(len(suit), w) for w in set(ws))
            for suit, ws in zip(self.suits, self.weights)
        )

    @classmethod
    def single(cls, n_modes: int, weights) -> "BasisSpec":
        return cls(n_modes, (tuple(range(1, n_modes + 1)),), (tuple(weights),))

    @classmethod
    def full_fock(cls, n_modes: int) -> "BasisSpec":
        return cls.single(n_modes, range(n_modes + 1))


def parse_basis_spec(text: str, n_modes: int) -> BasisSpec:
    """Parse ``"1-10:2;11-20:2"`` style suit:weights lists."""
    suits = []
    weights = []
    try:
        for chunk in text.split(";"):
            idx_part, w_part = chunk.split(":")
            indices: list[int] = []
            for piece in idx_part.split(","):
                if "-" in piece:
                    lo, hi = piece.split("-")
                    indices.extend(range(int(lo), int(hi) + 1))
                else:
                    indices.append(int(piece))
            suits.append(tuple(indices))
            weights.append(tuple(int(w) for w in w_part.split(",")))
    except ValueError as exc:
        raise InputFormatError(f"bad basis spec {text!r}: {exc}") from exc
    return BasisSpec(n_modes, tuple(suits), tuple(weights))


def enumerate_basis(spec: BasisSpec, budget: int | None = None) -> list[BitVec]:
    """All vectors matching the per-suit weights, lexicographic with index 1
    as the most significant sort key.

    The vectors are counted first; more than ``budget`` (default
    ``DEFAULT_BUDGET``) raises ``BudgetError`` before any is built.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    count = spec.size()
    if count > budget:
        raise BudgetError(f"basis {spec} has {count} states, over the budget of {budget}")
    per_suit: list[list[int]] = []
    for suit, ws in zip(spec.suits, spec.weights):
        options = []
        for w in sorted(set(ws)):
            for combo in itertools.combinations(suit, w):
                value = 0
                for m in combo:
                    value |= 1 << (m - 1)
                options.append(value)
        per_suit.append(options)
    vectors = []
    for combo in itertools.product(*per_suit):
        value = 0
        for v in combo:
            value |= v
        vectors.append(BitVec.from_int(value, spec.n_modes))
    vectors.sort(key=str)
    return vectors


def decode_image(code: Code, budget: int = 1 << 22) -> list[BitVec]:
    """Distinct decode images over all code words, sorted; requires small n."""
    if (1 << code.n_qubits) > budget:
        raise BudgetError(f"2**{code.n_qubits} code words exceed budget {budget}")
    seen = {}
    for w in range(1 << code.n_qubits):
        nu = code.decode_vec(BitVec.from_int(w, code.n_qubits))
        seen[nu] = True
    return sorted(seen, key=str)


@dataclass
class ValidationReport:
    """Outcome of checking a code against a declared basis."""

    round_trip_failures: list[BitVec]
    images_outside: list[tuple[BitVec, BitVec]]
    degenerate_images: list[tuple[BitVec, BitVec]]
    one_to_one: bool
    scanned_words: int

    @property
    def round_trip_ok(self) -> bool:
        return not self.round_trip_failures

    @property
    def images_in_declared_basis(self) -> bool:
        return not self.images_outside

    def summary(self) -> str:
        return (
            f"round_trip={'ok' if self.round_trip_ok else 'FAIL'} "
            f"images_in_basis={'ok' if self.images_in_declared_basis else 'no'} "
            f"one_to_one={'yes' if self.one_to_one else 'no'} "
            f"(scanned {self.scanned_words} words, "
            f"{len(self.round_trip_failures)} round-trip failures, "
            f"{len(self.images_outside)} stray images, "
            f"{len(self.degenerate_images)} degenerate images)"
        )


def validate_code(
    code: Code,
    spec: BasisSpec,
    budget: int = DEFAULT_BUDGET,
    sample: int | None = None,
    seed: int = 0,
) -> ValidationReport:
    """Check round-trips on the declared basis and scan decode images.

    The code-word scan is exhaustive when 2**n fits the budget; otherwise
    ``sample`` random words must be requested explicitly.
    """
    if spec.n_modes != code.n_modes:
        raise DimensionError("basis spec does not match the code's mode count")
    declared = set(enumerate_basis(spec, budget))
    failures = [nu for nu in sorted(declared, key=str) if not code.in_basis(nu)]

    total = 1 << code.n_qubits
    if total <= budget:
        words = (BitVec.from_int(w, code.n_qubits) for w in range(total))
        scanned = total
    elif sample is not None:
        rng = random.Random(seed)
        words = (
            BitVec.from_int(rng.randrange(total), code.n_qubits) for _ in range(sample)
        )
        scanned = sample
    else:
        raise BudgetError(
            f"2**{code.n_qubits} code words exceed budget {budget}; pass a sample size"
        )

    images_outside = []
    degenerate = []
    one_to_one = True
    for w in words:
        nu = code.decode_vec(w)
        if nu not in declared:
            if code.is_degenerate_image(nu):
                degenerate.append((w, nu))
            else:
                images_outside.append((w, nu))
        if code.encode_vec(nu) != w:
            one_to_one = False
    return ValidationReport(failures, images_outside, degenerate, one_to_one, scanned)


# -- code-spec files ---------------------------------------------------------


_SPEC_TYPES = {int: "a positive integer", str: "a string", list: "a list"}


def _spec_field(spec: dict, key: str, kind: type = int):
    """``spec[key]``, checked to be a ``kind``; integers must be positive."""
    if key not in spec:
        raise InputFormatError(f"code spec is missing field {key!r}")
    value = spec[key]
    if not isinstance(value, kind) or (
        kind is int and (isinstance(value, bool) or value < 1)
    ):
        raise InputFormatError(
            f"code spec field {key!r} must be {_SPEC_TYPES[kind]}, got {value!r}"
        )
    return value


def _spec_polys(spec: dict, key: str, num_vars: int) -> list[BoolPoly]:
    polys = []
    for i, text in enumerate(_spec_field(spec, key, list)):
        try:
            polys.append(BoolPoly.from_text(num_vars, text))
        except (AttributeError, ValueError, IndexError) as exc:
            raise InputFormatError(f"code spec field {key!r} entry {i}: {exc}") from exc
    return polys


def _spec_bits(spec: dict, key: str, length: int) -> list[int]:
    bits = spec[key]
    if not (isinstance(bits, list) and len(bits) == length and all(b in (0, 1) for b in bits)):
        raise InputFormatError(f"code spec field {key!r} must be {length} bits, got {bits!r}")
    return [int(b) for b in bits]


def _custom_code(spec: dict) -> Code:
    n_modes = _spec_field(spec, "n_modes")
    n_qubits = _spec_field(spec, "n_qubits")
    encode = _spec_polys(spec, "encode", n_modes)
    decode = _spec_polys(spec, "decode", n_qubits)
    for key, polys in (("encode_affine", encode), ("decode_affine", decode)):
        if spec.get(key) is not None:
            for i, b in enumerate(_spec_bits(spec, key, len(polys))):
                if b:
                    polys[i] = polys[i] + BoolPoly.one(polys[i].num_vars)
    degenerate = spec.get("degenerate_image")
    if degenerate is not None:
        degenerate = BitVec(_spec_bits(spec, "degenerate_image", n_modes))
    return Code(
        n_modes=n_modes,
        n_qubits=n_qubits,
        encode=tuple(encode),
        decode=tuple(decode),
        kind="custom",
        degenerate_image=degenerate,
    )


# Builtin kinds: constructor and its fields with their types, in the order of
# the compact ``kind:v1:v2`` syntax.
_KINDS = {
    "jordan_wigner": (jordan_wigner, {"n_modes": int}),
    "parity": (parity_code, {"n_modes": int}),
    "bravyi_kitaev": (bravyi_kitaev, {"n_modes": int}),
    "checksum": (checksum_code, {"n_modes": int, "flavor": str}),
    "binary_addressing_k1": (binary_addressing_k1, {"r": int}),
    "binary_addressing_k2": (binary_addressing_k2, {"r": int}),
    "segment": (segment_code, {"weight": int, "segments": int}),
}


def code_from_spec(spec: dict) -> Code:
    """Build a code from a parsed code-spec dictionary.

    Malformed specs raise ``InputFormatError`` naming the field at fault.
    """
    if not isinstance(spec, dict):
        raise InputFormatError(f"code spec must be a JSON object, got {type(spec).__name__}")
    kind = _spec_field(spec, "kind", str)
    if kind in _KINDS:
        build, fields = _KINDS[kind]
        return build(*(_spec_field(spec, key, type_) for key, type_ in fields.items()))
    if kind == "concat":
        return concat(*(code_from_spec(p) for p in _spec_field(spec, "parts", list)))
    if kind == "custom":
        return _custom_code(spec)
    raise InputFormatError(f"unknown code kind {kind!r}")


def parse_builtin_code(name: str) -> Code:
    """Parse compact builtin syntax, e.g. ``checksum:10:even+segment:2:2``.

    Each chunk's values fill its kind's fields by position and then pass the
    same checks as a JSON spec.
    """
    parts = []
    for chunk in name.split("+"):
        chunk = chunk.strip()
        kind, *values = chunk.split(":")
        if kind not in _KINDS:
            raise InputFormatError(f"unknown builtin code {kind!r}")
        fields = _KINDS[kind][1]
        if len(values) != len(fields):
            raise InputFormatError(
                f"builtin code {chunk!r} must have the form {':'.join([kind, *fields])}"
            )
        spec = {"kind": kind}
        for (key, type_), text in zip(fields.items(), values):
            try:
                spec[key] = type_(text)
            except ValueError:
                raise InputFormatError(f"bad {key} {text!r} in builtin code {chunk!r}") from None
        parts.append(code_from_spec(spec))
    return concat(*parts)


def load_code(path_or_name: str) -> Code:
    """Load a code from a JSON spec file or builtin-name syntax."""
    head = path_or_name.split("+")[0].split(":")[0]
    if head in _KINDS:
        return parse_builtin_code(path_or_name)
    try:
        with open(path_or_name) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read code spec {path_or_name!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON in {path_or_name!r}: {exc}") from exc
    return code_from_spec(spec)

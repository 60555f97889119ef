"""Binary codes pairing an encoding e: Z2^N -> Z2^n with a decoding d: Z2^n -> Z2^N.

A code is valid on a basis set V of occupation vectors when d(e(v)) = v for
every v in V and every code word decodes into V (or into a designated
degenerate image). Constructors cover the classical full-Fock transforms
(identity / parity accumulation / binary-tree) and the qubit-saving families:
checksum codes, binary addressing codes with target weight one or two, and
segment codes. Codes concatenate block-wise. A code evaluates many words at
once (rows of 64-bit limbs) by ``bitmath._evaluate`` on its cached monomial
tables, the one evaluator that validation, the oracle and the map share.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bitmath import DEFAULT_BUDGET, BitMat, BitVec, BoolPoly, ascii_int, moebius
from .bitmath import _evaluate, _ints, _table, _words
from .errors import BudgetError, DimensionError, InputFormatError, UnsupportedCodeError

# Code words ``validate_code`` scans at once; their rows, images and checks
# are dropped before the next chunk, so the scan's memory does not grow with 2^n.
_SCAN_WORDS = 1 << 12


@dataclass(frozen=True)
class Code:
    """Encoding/decoding pair with construction metadata.

    ``encode`` holds n polynomials over N variables and ``decode`` N
    polynomials over n variables; affine parts live in the constant
    monomials. ``segments`` lists mode blocks whose occupation the code
    caps at ``segment_weight``.

    Structure derived from encode/decode (linearity, the encode's linear
    columns, each decode component's split into Z mask, constant, support
    and nonlinear monomials, each update flip piece's qubit support, a
    linear code's matrices, the monomial tables, the leaf blocks) is
    computed on first use and kept on the instance; ``dataclasses.replace``
    builds a new instance, so it never sees stale values.
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
        if self.degenerate_image is not None and self.degenerate_image.n != self.n_modes:
            raise DimensionError("the degenerate image needs one bit per mode")
        if self.segments and self.segment_weight is None:
            raise DimensionError("segments need a segment_weight")

    # -- evaluation ------------------------------------------------------
    # encode_vec, decode_vec and in_basis evaluate one vector through
    # ``BoolPoly.evaluate``: their callers ask for one vector at a time, where
    # a one-row batch of ``encode_words`` would only add numpy's overhead.

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

    def encode_words(self, rows: np.ndarray, qubits: int | None = None) -> np.ndarray:
        """e at each occupation row of limbs (``_words``), as code-word rows;
        only the components in a ``qubits`` mask, if given (``table``)."""
        return _evaluate(self.table(0, qubits, rows.shape[1]), rows)

    def decode_words(self, rows: np.ndarray, modes: int | None = None) -> np.ndarray:
        """d at each code-word row of limbs, as occupation rows; only the
        components in a ``modes`` mask, if given (``table``)."""
        return _evaluate(self.table(1, modes, rows.shape[1]), rows)

    def degenerate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Whether each occupation row is a designated degenerate decode image
        outside V: it fails d(e(row)) = row, and each leaf block round-trips or
        holds its designated image (so a failing block holds its image)."""
        moved = rows ^ self.decode_words(self.encode_words(rows))
        out = moved.any(axis=1)
        for mask, image in self.blocks:
            (m,) = _words([mask], self.n_modes)
            ok = ~(moved & m).any(axis=1)
            if image is not None:
                ok |= ((rows & m) == _words([image], self.n_modes)).all(axis=1)
            out &= ok
        return out

    def is_degenerate_image(self, nu: BitVec) -> bool:
        """Whether ``nu`` is a designated degenerate decode image outside V."""
        return bool(self.degenerate_rows(_words([nu.value], self.n_modes))[0])

    # -- structure ---------------------------------------------------------

    @cached_property
    def _tables(self) -> dict:
        return {}

    def table(self, side: int, mask: int | None, limbs: int) -> tuple[np.ndarray, np.ndarray]:
        """The encode (side 0) or decode (side 1) as a ``bitmath._evaluate``
        table (``_table``), only its components in ``mask`` (None for all),
        kept per key: read from rows of ``limbs`` limbs and, for a decode,
        written to rows of the mask's bit length (for the map)."""
        polys = (self.encode, self.decode)[side]
        mask = (1 << len(polys)) - 1 if mask is None else mask
        if (side, mask, limbs) not in self._tables:
            picked = [(i, polys[i].masks) for i in range(len(polys)) if mask >> i & 1]
            width = mask.bit_length() if side else self.n_qubits
            self._tables[side, mask, limbs] = _table(picked, 64 * limbs, width)
        return self._tables[side, mask, limbs]

    @cached_property
    def blocks(self) -> tuple[tuple[int, int | None], ...]:
        """Leaf blocks as (mode mask, designated degenerate image or None): one
        over all modes for an atomic code, the parts' blocks shifted into place
        for a concatenation."""
        if not self.parts:
            image = self.degenerate_image
            return (((1 << self.n_modes) - 1, None if image is None else image.value),)
        out = []
        offset = 0
        for part in self.parts:
            out += [(m << offset, None if i is None else i << offset) for m, i in part.blocks]
            offset += part.n_modes
        return tuple(out)

    @cached_property
    def encode_columns(self) -> tuple[int, ...]:
        """Entry ``j - 1`` is the qubit mask of the encode components whose
        linear part reads mode j: column j of a linear encoding's matrix A."""
        rows = BitMat.from_int_rows([p.split()[0] for p in self.encode], self.n_modes)
        return rows.transpose().packed

    @cached_property
    def decode_split(self) -> tuple[tuple[int, int, int, frozenset], ...]:
        """``BoolPoly.split`` of each decode component, as ``pauli._expand`` reads it."""
        return tuple(d.split() for d in self.decode)

    @cached_property
    def encode_supports(self) -> tuple[int, ...]:
        """Mode support of each encode component: the d_m that e_j reads."""
        return tuple(e.support() for e in self.encode)

    @cached_property
    def flip_supports(self) -> tuple[int, ...]:
        """Qubit support of each flip piece of the update ``e(d(w) + q) + w``:
        entry j is qubit j and the supports of the decode components that
        e_j reads, the qubits that group it in ``pauli._expand``."""
        reads = [support for _, _, support, _ in self.decode_split]
        out = []
        for j, modes in enumerate(self.encode_supports):
            support = 1 << j
            for m, read in enumerate(reads):
                if modes >> m & 1:
                    support |= read
            out.append(support)
        return tuple(out)

    @cached_property
    def matrix(self) -> BitMat | None:
        """Encode matrix A of a linear code fit for the parity/flip/update sets.

        Set when encode and decode are homogeneous linear, n = N and the
        decode matrix is A^-1; None otherwise.
        """
        polys = self.encode + self.decode
        if self.n_modes != self.n_qubits or any(m.bit_count() != 1 for p in polys for m in p.masks):
            return None
        a = _linear_matrix(self.encode)
        return a if a @ _linear_matrix(self.decode) == BitMat.identity(self.n_modes) else None

    @cached_property
    def matrix_inv(self) -> BitMat | None:
        """Decode matrix A^-1 when ``matrix`` is set; None otherwise."""
        return None if self.matrix is None else _linear_matrix(self.decode)

    @cached_property
    def encode_is_linear(self) -> bool:
        return all(p.is_linear() for p in self.encode)


def _linear_matrix(polys: tuple[BoolPoly, ...]) -> BitMat:
    """Square matrix whose row i is the linear part of ``polys[i - 1]``."""
    return BitMat.from_int_rows([p.split()[0] for p in polys], len(polys))


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
    )


def _check_size(constructor: str, n_modes: int, n_qubits: int, matrix: bool = False) -> None:
    """``BudgetError`` before building a code of more N x n entries than the
    budget, since its components (and a linear code's N x N ``matrix`` and
    its inverse) take memory and time quadratic in N."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if n_modes * n_qubits > DEFAULT_BUDGET:
        entries = f"{n_modes}**2 matrix" if matrix else f"{n_modes} x {n_qubits} code"
        raise BudgetError(
            f"{constructor} needs {entries} entries, over the budget of {DEFAULT_BUDGET}"
        )


def jordan_wigner(n_modes: int) -> Code:
    _check_size(f"jordan_wigner({n_modes})", n_modes, n_modes, matrix=True)
    return linear_code(BitMat.identity(n_modes), kind="jordan_wigner")


def parity_code(n_modes: int) -> Code:
    """Mode j is stored as the running occupation parity of modes 1..j."""
    _check_size(f"parity_code({n_modes})", n_modes, n_modes, matrix=True)
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
    _check_size(f"bravyi_kitaev({n_modes})", n_modes, n_modes, matrix=True)
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
    _check_size(f"checksum_code({n_modes})", n_modes, n)
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


def _table_size(what: str, n_vars: int, width: int = 1) -> int:
    """``2**n_vars`` truth-table entries of ``width`` bits; ``BudgetError``
    before building more entries than the budget or more bits than 64 times it."""
    if n_vars >= DEFAULT_BUDGET.bit_length():  # 2**n_vars > DEFAULT_BUDGET
        raise BudgetError(
            f"{what} needs 2**{n_vars} truth-table entries, over the budget of {DEFAULT_BUDGET}"
        )
    if (bits := width << n_vars) > 64 * DEFAULT_BUDGET:
        raise BudgetError(f"{what} needs 2**{n_vars} truth-table entries of {width} bits "
                          f"({bits} bits), over the budget of {64 * DEFAULT_BUDGET} bits")
    return 1 << n_vars


def _addressing_code(kind: str, r: int, n_qubits: int, occupation) -> Code:
    """Code on N = 2**r modes whose word w stores the modes set in ``occupation(w)``.

    One Moebius transform of the occupation masks gives every decode
    component in ANF at once: bit j of entry x is the coefficient of
    monomial x in component j + 1. The encoding is quadratic (or linear):
    each stored monomial, the product of its word's occupied modes, joins
    every encode component that the word sets. Words that store nothing
    decode to the empty occupation, the ``degenerate_image``.
    """
    n_modes = 1 << r
    size = _table_size(f"{kind}({r})", n_qubits, n_modes)
    table = [occupation(w) for w in range(size)]
    decode: list[list[int]] = [[] for _ in range(n_modes)]
    for x, coeffs in enumerate(moebius(table)):
        while coeffs:
            low = coeffs & -coeffs
            decode[low.bit_length() - 1].append(x)
            coeffs ^= low
    encode: list[list[int]] = [[] for _ in range(n_qubits)]
    for w, mono in enumerate(table):
        if mono:
            for i in range(n_qubits):
                if w >> i & 1:
                    encode[i].append(mono)
    return Code(
        n_modes=n_modes,
        n_qubits=n_qubits,
        encode=tuple(BoolPoly(n_modes, masks) for masks in encode),
        decode=tuple(BoolPoly(n_qubits, masks) for masks in decode),
        kind=kind,
        degenerate_image=BitVec.zeros(n_modes) if 0 in table else None,
    )


def binary_addressing_k1(r: int) -> Code:
    """Weight-one code storing the particle coordinate as a binary number.

    N = 2**r modes on n = r qubits; word w stores the particle at mode w + 1.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    return _addressing_code("binary_addressing_k1", r, r, lambda w: 1 << w)


def binary_addressing_k2(r: int) -> Code:
    """Weight-two binary addressing code: N = 2**r modes on n = 2r - 1 qubits.

    The code word is two registers, alpha = w mod 2**r and beta = w >> r
    (r - 1 bits). A word with alpha < beta + N/2 stores the pair
    {alpha + 1, beta + N/2 + 1}, whose larger coordinate is above N/2; one
    with alpha > beta + N/2 stores the point-reflected pair
    {(~alpha mod N/2) + 1, (~beta mod N/2) + 1} in the lower half. The
    2**(r-1) diagonal words alpha = beta + N/2 store nothing.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    half = 1 << (r - 1)

    def occupation(w: int) -> int:
        alpha, upper = w % (2 * half), (w >> r) + half  # upper = beta + N/2
        if alpha < upper:
            return 1 << alpha | 1 << upper
        if alpha > upper:
            return 1 << (~alpha % half) | 1 << (~upper % half)
        return 0

    return _addressing_code("binary_addressing_k2", r, 2 * r - 1, occupation)


def binary_switch(weight: int) -> BoolPoly:
    """Indicator over 2K variables that the input weight exceeds K."""
    if weight < 1:
        raise ValueError("need weight >= 1")
    n = 2 * weight
    size = _table_size(f"binary_switch({weight})", n)
    return BoolPoly.from_truth_table(n, [int(t.bit_count() > weight) for t in range(size)])


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
    _check_size(f"concat of {len(codes)} codes", n_modes, n_qubits)
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
        if sorted(m for suit in self.suits for m in suit) != list(range(1, self.n_modes + 1)):
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
    """Parse ``"1-10:2;11-20:2"`` style suit:weights lists of ASCII decimals."""
    suits = []
    weights = []

    try:
        for chunk in text.split(";"):
            idx_part, w_part = chunk.split(":")
            indices: list[int] = []
            for piece in idx_part.split(","):
                ends = [ascii_int(end, "mode") for end in piece.split("-", 1)]
                indices.extend(range(ends[0], ends[-1] + 1))
            suits.append(tuple(indices))
            weights.append(tuple(ascii_int(w, "weight") for w in w_part.split(",")))
    except ValueError as exc:
        raise InputFormatError(f"bad basis spec {text!r}: {exc}") from exc
    return BasisSpec(n_modes, tuple(suits), tuple(weights))


def enumerate_basis(spec: BasisSpec, budget: int = DEFAULT_BUDGET) -> list[BitVec]:
    """All vectors matching the per-suit weights, lexicographic with index 1
    as the most significant sort key.

    The vectors are counted first; more than ``budget`` (default
    ``DEFAULT_BUDGET``) raises ``BudgetError`` before any is built.
    """
    count = spec.size()
    if count > budget:
        raise BudgetError(f"basis {spec} has {count} states, over the budget of {budget}")
    per_suit: list[list[int]] = []
    for suit, ws in zip(spec.suits, spec.weights):
        options = []
        for w in sorted(set(ws)):
            options += [sum(1 << (m - 1) for m in c) for c in itertools.combinations(suit, w)]
        per_suit.append(options)
    # Suits are disjoint, so a sum of their masks is their union.
    vectors = [BitVec.from_int(sum(c), spec.n_modes) for c in itertools.product(*per_suit)]
    vectors.sort(key=str)
    return vectors


def decode_image(code: Code, budget: int = DEFAULT_BUDGET) -> list[BitVec]:
    """Distinct decode images over all code words, sorted; requires small n."""
    if (1 << code.n_qubits) > budget:
        raise BudgetError(f"2**{code.n_qubits} code words exceed budget {budget}")
    images = set(_ints(code.decode_words(_words(list(range(1 << code.n_qubits)), code.n_qubits))))
    return sorted((BitVec.from_int(v, code.n_modes) for v in images), key=str)


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
    basis = enumerate_basis(spec, budget)
    rows = _words([nu.value for nu in basis], code.n_modes)
    round_trip = (code.decode_words(code.encode_words(rows)) == rows).all(axis=1)
    failures = [nu for nu, ok in zip(basis, round_trip.tolist()) if not ok]

    total = 1 << code.n_qubits
    if total <= budget:
        words = range(total)
    elif sample is not None:
        rng = random.Random(seed)
        words = [rng.randrange(total) for _ in range(sample)]
    else:
        raise BudgetError(
            f"2**{code.n_qubits} code words exceed budget {budget}; pass a sample size"
        )

    declared = {nu.value for nu in basis}
    outside, degenerate = [], []
    one_to_one = True
    for c0 in range(0, len(words), _SCAN_WORDS):
        chunk = words[c0 : c0 + _SCAN_WORDS]
        scanned = _words(chunk, code.n_qubits)
        images = code.decode_words(scanned)
        stray = [i for i, v in enumerate(_ints(images)) if v not in declared]
        flags = code.degenerate_rows(images[stray]).tolist()
        for i, v, is_degenerate in zip(stray, _ints(images[stray]), flags):
            pair = (BitVec.from_int(chunk[i], code.n_qubits), BitVec.from_int(v, code.n_modes))
            (degenerate if is_degenerate else outside).append(pair)
        one_to_one &= bool((code.encode_words(images) == scanned).all())
    return ValidationReport(failures, outside, degenerate, one_to_one, len(words))


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
# Fields of the kinds that have no compact name.
_OTHER_KINDS = {
    "concat": ("parts",),
    "custom": ("n_modes", "n_qubits", "encode", "decode", "encode_affine", "decode_affine",
               "degenerate_image"),
}


def code_from_spec(spec: dict) -> Code:
    """Build a code from a parsed code-spec dictionary.

    Malformed specs raise ``InputFormatError`` naming the field at fault.
    """
    if not isinstance(spec, dict):
        raise InputFormatError(f"code spec must be a JSON object, got {type(spec).__name__}")
    kind = _spec_field(spec, "kind", str)
    fields = _KINDS[kind][1] if kind in _KINDS else _OTHER_KINDS.get(kind)
    if fields is None:
        raise InputFormatError(f"unknown code kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in fields:
            raise InputFormatError(
                f"code spec of kind {kind!r} has unknown field {key!r}; "
                f"allowed fields: kind, {', '.join(fields)}"
            )
    if kind in _KINDS:
        return _KINDS[kind][0](*(_spec_field(spec, key, type_) for key, type_ in fields.items()))
    if kind == "concat":
        return concat(*(code_from_spec(p) for p in _spec_field(spec, "parts", list)))
    return _custom_code(spec)


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
            if type_ is int and not (text.isascii() and text.isdigit()):
                raise InputFormatError(f"bad {key} {text!r} in builtin code {chunk!r}")
            spec[key] = type_(text)
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

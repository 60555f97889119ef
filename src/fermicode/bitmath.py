"""Exact GF(2) arithmetic: bit vectors, bit matrices, boolean polynomials.

Component indices are 1-based everywhere, so component 1 of a vector is the
first orbital or qubit. Internally a vector is packed into an int whose bit
``i - 1`` holds component ``i``; the same packing is used for matrix rows and
for polynomial monomials.

Boolean polynomials are kept in algebraic normal form: a set of AND-monomials
combined by XOR. Each monomial is stored as an int mask of the participating
variables, the empty mask being the constant monomial 1 and an empty monomial
set the zero polynomial. ANF is canonical, so equality of polynomials is
equality of their monomial sets.

``BitVec``, ``BitMat`` and ``BoolPoly`` are named tuples of their fields
(``(n, value)``, ``(rows, cols, packed)`` with the packed row ints,
``(num_vars, masks)``): immutable, and equal and hashed as those tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, DimensionError, NonFiniteError, SingularMatrixError

# Cap on the number of monomials (or operator terms) an operation may create;
# composing nonlinear functions can blow up exponentially, and silently
# truncating would corrupt results, so we abort instead.
DEFAULT_BUDGET = 1 << 20


def _words(values: list[int], n_bits: int) -> np.ndarray:
    """Rows of 64-bit limbs, least significant first, one row per int: a
    read-only view of each value's little-endian bytes."""
    limbs = max(1, -(-n_bits // 64))
    raw = b"".join(v.to_bytes(8 * limbs, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").reshape(len(values), limbs)


def _ints(words: np.ndarray) -> list[int]:
    """The ints of limb rows (inverse of ``_words``), read from each row's bytes."""
    rows = np.ascontiguousarray(words, dtype="<u8").view(f"V{8 * words.shape[1]}")[:, 0]
    return [int.from_bytes(row, "little") for row in rows.tolist()]


def _labels(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's number among the distinct rows, in ``np.lexsort`` order (last
    column first), and the index of the first row of each number: its
    earliest row, as ``np.lexsort`` is stable."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    label = np.empty(len(rows), dtype=np.int64)
    label[order] = np.cumsum(new) - 1
    return label, order[new]


# (monomial, word) cells one evaluation step holds, a few dozen bytes of
# temporaries each; 2^18 cells ran up to a quarter faster at 4x the memory.
_EVAL_CELLS = 1 << 16


def _table(polys: Iterable[tuple[int, Iterable[int]]], n_vars: int, width: int) -> tuple:
    """``_evaluate`` table of ``(i, masks)`` pairs, the polynomial with
    monomial ``masks`` over ``n_vars`` variables as bit ``i`` of ``width``:
    the distinct monomials and, for each, the mask of the bits it occurs in,
    as limb rows."""
    owners: dict[int, int] = {}
    for i, masks in polys:
        for m in masks:
            owners[m] = owners.get(m, 0) ^ 1 << i
    return _words(list(owners), n_vars), _words(list(owners.values()), width)


def _evaluate(table: tuple[np.ndarray, np.ndarray], words: np.ndarray) -> np.ndarray:
    """Rows whose bit ``i`` is polynomial ``i`` of ``table`` (``_table``) at
    each row of ``words``: the XOR of the owner masks of the monomials a word
    contains. A step covers about ``_EVAL_CELLS`` (monomial, word) cells."""
    monomials, owners = (rows[:, None] for rows in table)  # (monomial, word, limb)
    out = np.empty((len(words), owners.shape[2]), dtype=np.uint64)
    step = max(1, _EVAL_CELLS // max(len(monomials), 1))
    for r0 in range(0, len(words), step):
        w = words[r0 : r0 + step]
        hit = ((w & monomials) == monomials).all(axis=2, keepdims=True)
        out[r0 : r0 + step] = np.bitwise_xor.reduce(hit * owners, axis=0)
    return out


def ascii_real(text: str) -> float:
    """A finite real written as ``float`` reads it, in ASCII without ``_``
    separators (``1e-3``, ``-2.5E+1``, ``.5``, ``+1``). Other text raises
    ``ValueError`` with ``float``'s message; an infinity or NaN raises
    ``NonFiniteError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite value {text!r}")
    return value


def ascii_int(text: str, what: str) -> int:
    """An index written in ASCII decimal digits only; ``ValueError`` naming
    ``what`` otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} {text!r} is not a decimal number")
    return int(text)


def text_lines(text: str) -> list[str]:
    """The lines of ``text`` as text-mode ``open()`` ends them, unlike ``str.splitlines``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_bits(bits) -> tuple[int, int]:
    """Return (packed value, length) for an iterable or string of bits."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    value = 0
    n = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit components must be 0 or 1, got {b!r}")
        value |= b << n
        n += 1
    return value, n


class BitVec(namedtuple("BitVec", "n value")):
    """Immutable bit vector over GF(2) with 1-based component access."""

    __slots__ = ()

    def __new__(cls, bits):
        value, n = _parse_bits(bits)
        return tuple.__new__(cls, (n, value))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVec":
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        return tuple.__new__(cls, (n, value))

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls.from_int(0, n)

    @classmethod
    def unit(cls, n: int, j: int) -> "BitVec":
        """Unit vector with component ``j`` set."""
        if not 1 <= j <= n:
            raise IndexError(f"component {j} outside 1..{n}")
        return cls.from_int(1 << (j - 1), n)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise IndexError(f"component {j} outside 1..{self.n}")
        return (self.value >> (j - 1)) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return BitVec.from_int(self.value ^ other.value, self.n)

    __add__ = __xor__  # mod-2 addition

    def weight(self) -> int:
        return self.value.bit_count()

    def ones(self) -> list[int]:
        """1-based indices of the set components, ascending."""
        return [j + 1 for j in range(self.n) if (self.value >> j) & 1]

    def concat(self, other: "BitVec") -> "BitVec":
        return BitVec.from_int(
            self.value | (other.value << self.n), self.n + other.n
        )

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.value >> j) & 1 for j in range(self.n))

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")[::-1] if self.n else ""

    def __repr__(self) -> str:
        return f"BitVec('{self}')"


class BitMat(namedtuple("BitMat", "rows cols packed")):
    """Immutable GF(2) matrix; row ``i``, column ``j`` are 1-based."""

    __slots__ = ()

    def __new__(cls, rows: Iterable):
        packed = []
        cols = None
        for row in rows:
            value, n = _parse_bits(row)
            if cols is None:
                cols = n
            elif n != cols:
                raise DimensionError("ragged rows in BitMat")
            packed.append(value)
        if cols is None:
            raise ValueError("BitMat needs at least one row")
        return tuple.__new__(cls, (len(packed), cols, tuple(packed)))

    @classmethod
    def from_int_rows(cls, row_values: Sequence[int], cols: int) -> "BitMat":
        return tuple.__new__(cls, (len(row_values), cols, tuple(row_values)))

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls.from_int_rows([1 << i for i in range(n)], n)

    def row(self, i: int) -> BitVec:
        return BitVec.from_int(self.packed[i - 1], self.cols)

    def col(self, j: int) -> BitVec:
        value = 0
        for i, r in enumerate(self.packed):
            value |= ((r >> (j - 1)) & 1) << i
        return BitVec.from_int(value, self.rows)

    def transpose(self) -> "BitMat":
        return BitMat.from_int_rows(
            [self.col(j).value for j in range(1, self.cols + 1)], self.rows
        )

    def __matmul__(self, other):
        if isinstance(other, BitVec):
            if other.n != self.cols:
                raise DimensionError(
                    f"matrix with {self.cols} columns times length-{other.n} vector"
                )
            value = 0
            for i, r in enumerate(self.packed):
                value |= ((r & other.value).bit_count() & 1) << i
            return BitVec.from_int(value, self.rows)
        if isinstance(other, BitMat):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            bt = other.transpose().packed
            out = []
            for r in self.packed:
                v = 0
                for k, c in enumerate(bt):
                    v |= ((r & c).bit_count() & 1) << k
                out.append(v)
            return BitMat.from_int_rows(out, other.cols)
        return NotImplemented

    def inverse(self) -> "BitMat":
        """Gauss-Jordan inverse mod 2; raises SingularMatrixError if none."""
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.rows
        work = list(self.packed)
        aug = [1 << i for i in range(n)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if (work[r] >> col) & 1), None
            )
            if pivot is None:
                raise SingularMatrixError(f"matrix is singular at column {col + 1}")
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
            for r in range(n):
                if r != col and (work[r] >> col) & 1:
                    work[r] ^= work[col]
                    aug[r] ^= aug[col]
        return BitMat.from_int_rows(aug, n)

    def __repr__(self) -> str:
        body = ", ".join(f"'{self.row(i)}'" for i in range(1, self.rows + 1))
        return f"BitMat([{body}])"


def moebius(values: Sequence[int]) -> list[int]:
    """Binary Moebius transform over the subset lattice, bitwise on int entries.

    ``values`` has ``2**k`` entries, entry ``x`` a function's value at the
    assignment packed into ``x``. Each bit position is a separate boolean
    function: bit j of output entry ``x`` is the ANF coefficient of
    monomial ``x`` in the function that bit j of the values tabulates.
    """
    coeffs = list(values)
    size = len(coeffs)
    bit = 1
    while bit < size:
        for x in range(size):
            if x & bit:
                coeffs[x] ^= coeffs[x ^ bit]
        bit <<= 1
    return coeffs


def _reduce_mod2(masks: Iterable[int]) -> frozenset:
    """XOR-reduce a monomial multiset: keep masks occurring an odd number of times."""
    seen = set()
    for m in masks:
        if m in seen:
            seen.discard(m)
        else:
            seen.add(m)
    return frozenset(seen)


class BoolPoly(namedtuple("BoolPoly", "num_vars masks")):
    """Boolean polynomial in canonical algebraic normal form.

    ``masks`` is a frozenset of int monomial masks over ``num_vars``
    variables; two polynomials over the same variable count are equal iff
    their monomial sets are equal.
    """

    __slots__ = ()

    def __new__(cls, num_vars: int, masks: Iterable[int] = ()):
        masks = _reduce_mod2(masks)
        for m in masks:
            if m < 0 or m >> num_vars:
                raise DimensionError(
                    f"monomial mask {m:#x} uses variables beyond {num_vars}"
                )
        return tuple.__new__(cls, (num_vars, masks))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "BoolPoly":
        return cls(num_vars)

    @classmethod
    def one(cls, num_vars: int) -> "BoolPoly":
        return cls(num_vars, (0,))

    @classmethod
    def constant(cls, num_vars: int, bit: int) -> "BoolPoly":
        return cls.one(num_vars) if bit & 1 else cls.zero(num_vars)

    @classmethod
    def variable(cls, num_vars: int, j: int) -> "BoolPoly":
        if not 1 <= j <= num_vars:
            raise IndexError(f"variable {j} outside 1..{num_vars}")
        return cls(num_vars, (1 << (j - 1),))

    @classmethod
    def linear(cls, coeffs: BitVec, constant: int = 0) -> "BoolPoly":
        """Affine function ``constant + sum_j coeffs_j x_j``."""
        masks = [1 << j for j in range(coeffs.n) if (coeffs.value >> j) & 1]
        if constant & 1:
            masks.append(0)
        return cls(coeffs.n, masks)

    @classmethod
    def from_truth_table(cls, num_vars: int, values: Sequence[int]) -> "BoolPoly":
        """ANF of a function given by its ``2**num_vars`` truth-table values.

        ``values[x]`` is f at the assignment packed into int ``x``; only its
        bit 0 counts.
        """
        size = 1 << num_vars
        if len(values) != size:
            raise DimensionError(f"need {size} truth-table entries, got {len(values)}")
        coeffs = moebius([v & 1 for v in values])
        return cls(num_vars, (x for x in range(size) if coeffs[x]))

    # -- text form -----------------------------------------------------

    @classmethod
    def from_text(cls, num_vars: int, text: str) -> "BoolPoly":
        """Parse the serialized form, e.g. ``"1 + x1 + x1*x2"`` or ``"0"``."""
        text = text.strip()
        if text == "0":
            return cls.zero(num_vars)
        masks = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if chunk == "1":
                masks.append(0)
                continue
            m = 0
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor.startswith("x"):
                    raise ValueError(f"bad monomial factor {factor!r}")
                j = ascii_int(factor[1:], "variable")
                if not 1 <= j <= num_vars:
                    raise IndexError(f"variable {j} outside 1..{num_vars}")
                m |= 1 << (j - 1)
            masks.append(m)
        return cls(num_vars, masks)

    def to_text(self) -> str:
        if not self.masks:
            return "0"
        parts = []
        for m in sorted(self.masks, key=lambda m: (m.bit_count(), m)):
            if m == 0:
                parts.append("1")
            else:
                parts.append(
                    "*".join(f"x{j + 1}" for j in range(self.num_vars) if (m >> j) & 1)
                )
        return " + ".join(parts)

    # -- queries --------------------------------------------------------

    @property
    def monomials(self) -> frozenset:
        """Monomials as frozensets of 1-based variable indices."""
        return frozenset(
            frozenset(j + 1 for j in range(self.num_vars) if (m >> j) & 1)
            for m in self.masks
        )

    def is_linear(self) -> bool:
        """Degree at most 1 (affine functions included)."""
        return not self.split()[3]

    def is_zero(self) -> bool:
        return not self.masks

    def support(self) -> int:
        """Mask of all variables occurring in any monomial."""
        s = 0
        for m in self.masks:
            s |= m
        return s

    def split(self) -> tuple[int, int, int, frozenset]:
        """``(linear mask, constant bit, support, monomials)``: the packed
        coefficients of the degree-1 monomials and of the constant 1, the mask
        of all variables, and ``masks`` when some monomial has degree 2 or
        more, else the empty set (the function is affine)."""
        linear = support = nonlinear = 0
        for m in self.masks:
            support |= m
            if m & (m - 1):
                nonlinear = 1
            else:
                linear |= m
        return linear, int(0 in self.masks), support, self.masks if nonlinear else frozenset()

    def evaluate(self, x) -> int:
        """Evaluate at a BitVec or packed-int assignment."""
        if isinstance(x, BitVec):
            if x.n != self.num_vars:
                raise DimensionError(
                    f"assignment of length {x.n} for {self.num_vars} variables"
                )
            x = x.value
        acc = 0
        for m in self.masks:
            if (x & m) == m:
                acc ^= 1
        return acc

    # -- ring operations -------------------------------------------------

    def _check_vars(self, other: "BoolPoly"):
        if self.num_vars != other.num_vars:
            raise DimensionError(
                f"variable count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "BoolPoly") -> "BoolPoly":
        self._check_vars(other)
        return tuple.__new__(BoolPoly, (self.num_vars, self.masks ^ other.masks))

    def mul(self, other: "BoolPoly", budget: int = DEFAULT_BUDGET) -> "BoolPoly":
        self._check_vars(other)
        if len(self.masks) * len(other.masks) > 4 * budget:
            raise BudgetError(
                f"product of {len(self.masks)} x {len(other.masks)} monomials "
                f"exceeds budget {budget}"
            )
        counts: dict[int, int] = {}
        for a in self.masks:
            for b in other.masks:
                m = a | b
                counts[m] = counts.get(m, 0) ^ 1
        masks = frozenset(m for m, c in counts.items() if c)
        if len(masks) > budget:
            raise BudgetError(f"{len(masks)} monomials exceed budget {budget}")
        return tuple.__new__(BoolPoly, (self.num_vars, masks))

    def __mul__(self, other: "BoolPoly") -> "BoolPoly":
        return self.mul(other)

    def compose(self, subs: Sequence["BoolPoly"], budget: int = DEFAULT_BUDGET) -> "BoolPoly":
        """Substitute ``subs[i]`` (all over k variables) for variable ``i+1``."""
        if len(subs) != self.num_vars:
            raise DimensionError(
                f"need {self.num_vars} substitutions, got {len(subs)}"
            )
        k = subs[0].num_vars if subs else 0
        for s in subs:
            if s.num_vars != k:
                raise DimensionError("substitutions must share a variable count")
        acc = BoolPoly.zero(k)
        one = BoolPoly.one(k)
        for m in self.masks:
            prod = one
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                prod = prod.mul(subs[j], budget)
                mm &= mm - 1
            acc = acc + prod
            if len(acc.masks) > budget:
                raise BudgetError(f"{len(acc.masks)} monomials exceed budget {budget}")
        return acc

    def shift_vars(self, offset: int, num_vars: int) -> "BoolPoly":
        """Re-index variables by ``offset`` into a wider variable space."""
        if offset < 0 or self.support() << offset >> num_vars:
            raise DimensionError("shifted monomials do not fit the variable space")
        return BoolPoly(num_vars, (m << offset for m in self.masks))

    def __repr__(self) -> str:
        return f"BoolPoly({self.num_vars}, '{self.to_text()}')"


def poly_sum(polys: Iterable[BoolPoly], num_vars: int) -> BoolPoly:
    """Mod-2 sum of polynomials over a shared variable count."""
    masks: set[int] = set()
    for p in polys:
        if p.num_vars != num_vars:
            raise DimensionError("variable count mismatch in poly_sum")
        masks ^= p.masks
    return BoolPoly(num_vars, masks)

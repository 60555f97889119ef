"""Sparse Pauli-string algebra with exact phase tracking.

A Pauli string is stored symplectically as a pair of masks (x, z) over the
qubits, with letters X=(1,0), Z=(0,1), Y=(1,1); the letter form equals
``i**y * X^x Z^z`` where y counts the Y factors. All phase bookkeeping is
exact, in powers of i. ``PauliString`` is the named tuple ``(n, x, z)``:
immutable, and equal and hashed as that tuple. A ``QubitOperator`` holds
its strings as columns: limb rows of the masks, and the coefficients.

The module also maps boolean functions to qubit operators through one
kernel, ``_expand``: the update operator ``sum_t X^t [eps(w) = t]`` times
the diagonal ``prod_k (a_k + b_k * (-1)**f_k(w))`` for a batch of action
items held as columns (``Items``), each ``f_k`` a decode component of a
``Code`` and the flips ``eps`` a constant mask or the code's update
``eps(w) = encode(decode(w) + q) + w``. It runs over all items at once on
rows of 64-bit limbs, one path for every width. Every factor is a table of
``(t, z, c)`` rows: an item starts as one row, its flips and its signs'
affine Z masks; an affine factor is the two rows ``a I`` and ``+-b Z^f``;
the nonlinear rest splits into groups on disjoint qubits, each a
Walsh-Hadamard transform of truth tables read on the group's grid, which
the code decodes (``Code.decode_words``) and, for ``eps``, encodes again
(``Code.encode_words``). One tensor product per item (``_products``)
multiplies the tables and merges the rows once. Every merge sorts packed
keys (``_merge``) and adds in row order, so its sums (from a complex +0.0)
and its first-appearance order are a dict's. ``expand`` (so ``extract``,
``cphase_expand``, ``flip_operator``) builds a code of its functions and
runs the kernel on one item, and ``transform_hamiltonian`` runs it on
chunks of terms; each hands its columns over as the operator's.
``serialize`` orders them with one ``np.lexsort`` (``_order``) and spells
them from a per-qubit token table (``_spelled``), building no string.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitmath import DEFAULT_BUDGET, BoolPoly, ascii_real, text_lines
from .bitmath import _evaluate, _ints, _labels, _table, _words
from .codes import Code
from .errors import BudgetError, DimensionError

_LETTER_XZ = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# Coefficients of magnitude at most this are dropped as cancellation residue.
DEFAULT_PRUNE = 1e-12

Factors = Sequence[tuple[BoolPoly, float, float]]
Flips = int | tuple[Sequence[BoolPoly], Sequence[BoolPoly], int]

class PauliString(namedtuple("PauliString", "n x z")):
    """Tensor product of single-qubit Paulis; identity on unlisted qubits."""

    __slots__ = ()

    def __new__(cls, n: int, factors: dict[int, str] | None = None):
        x = z = 0
        for j, letter in (factors or {}).items():
            if not 1 <= j <= n:
                raise IndexError(f"qubit {j} outside 1..{n}")
            try:
                fx, fz = _LETTER_XZ[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            bit = 1 << (j - 1)
            x |= fx * bit
            z |= fz * bit
        return tuple.__new__(cls, (n, x, z))

    @classmethod
    def from_masks(cls, n: int, x: int, z: int) -> "PauliString":
        return tuple.__new__(cls, (n, x, z))

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls.from_masks(n, 0, 0)

    @property
    def factors(self) -> dict[int, str]:
        return {c // 3: "XYZ"[c % 3] for c in self.sort_key()[1:]}

    def is_identity(self) -> bool:
        return not (self.x | self.z)

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def text(self) -> str:
        return "*".join(f"{letter}{j}" for j, letter in self.factors.items()) or "I"

    @classmethod
    def from_text(cls, text: str, n: int) -> "PauliString":
        """Inverse of ``text``; qubit indices are ASCII decimal digits."""
        text = text.strip()
        if text == "I":
            return cls.identity(n)
        factors = {}
        for part in text.split("*"):
            part = part.strip()
            digits = part[1:]
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"bad Pauli factor {part!r} in {text!r}")
            idx = int(digits)
            if idx in factors:
                raise ValueError(f"duplicate qubit {idx} in {text!r}")
            factors[idx] = part[0]
        return cls(n, factors)

    def sort_key(self) -> tuple[int, ...]:
        return _sort_key(self.x, self.z)

    def __repr__(self) -> str:
        return f"PauliString({self.n}, '{self.text()}')"


def _sort_key(x: int, z: int) -> tuple[int, ...]:
    """Canonical order: the weight, then ``3 * qubit + rank`` of each factor in
    qubit order (rank 0, 1, 2 for X, Y, Z), ordered as the (qubit, rank) pairs."""
    key = [0]
    occupied = x | z
    while occupied:
        low = occupied & -occupied
        key.append(3 * low.bit_length() + (2 if not x & low else 1 if z & low else 0))
        occupied ^= low
    key[0] = len(key) - 1
    return tuple(key)


def _mul_masks(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """(x, z, i-exponent) of the letter-form product, left applied after right."""
    x = x1 ^ x2
    z = z1 ^ z2
    k = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x & z).bit_count()
        + 2 * (z1 & x2).bit_count()
    ) & 3
    return x, z, k


def pauli_mul(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product ``a * b`` in the Pauli group: (phase in {1,i,-1,-i}, string)."""
    if a.n != b.n:
        raise DimensionError(f"qubit count mismatch: {a.n} vs {b.n}")
    x, z, k = _mul_masks(a.x, a.z, b.x, b.z)
    return _PHASES[k], PauliString.from_masks(a.n, x, z)


class QubitOperator:
    """Sparse complex combination of Pauli strings on ``n`` qubits.

    Coefficients with magnitude at most ``prune_epsilon`` are dropped, which
    removes exact-zero cancellation residue; everything else is kept exactly.
    The strings are held as read-only ``columns``, limb rows ``x`` and ``z``
    and the complex ``c``, in first-appearance order, as the map's ``_Sum``
    holds them; ``terms``, a read-only view of ``{PauliString: c}`` in that
    order, is built when first read, and a dict-built operator's columns likewise.
    """

    __slots__ = ("n", "prune_epsilon", "_terms", "_columns")

    def __init__(self, n: int, terms: dict | None = None, prune_epsilon: float = DEFAULT_PRUNE):
        kept: dict[PauliString, complex] = {}
        for s, c in (terms or {}).items():
            if s.n != n:
                raise DimensionError(f"string on {s.n} qubits in {n}-qubit operator")
            if abs(c) > prune_epsilon:
                kept[s] = complex(c)
        self._hold(n, prune_epsilon, kept, None)

    def _hold(self, n, eps, terms, columns):
        for column in columns or ():
            column.setflags(write=False)
        terms = MappingProxyType(terms) if isinstance(terms, dict) else terms  # a view, or None
        for name, value in zip(self.__slots__, (n, eps, terms, columns)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, n, eps, columns) -> "QubitOperator":
        """Operator of pruned ``(x, z, c)`` columns on distinct strings (a dict: ``__init__``)."""
        op = object.__new__(cls)
        op._hold(n, eps, None, columns)
        return op

    @classmethod
    def zero(cls, n: int) -> "QubitOperator":
        return cls(n)

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n, {PauliString.identity(n): coeff})

    @classmethod
    def from_string(cls, s: PauliString, coeff: complex = 1.0) -> "QubitOperator":
        return cls(s.n, {s: coeff})

    @classmethod
    def x_string(cls, n: int, mask: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n, {PauliString.from_masks(n, mask, 0): coeff})

    @classmethod
    def z_string(cls, n: int, mask: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n, {PauliString.from_masks(n, 0, mask): coeff})

    def __setattr__(self, *_):
        raise AttributeError("QubitOperator is immutable; operations return new values")

    @property
    def terms(self) -> MappingProxyType:
        if self._terms is None:
            x, z, c = self._columns
            strings = (tuple.__new__(PauliString, (self.n, *s)) for s in zip(_ints(x), _ints(z)))
            self._hold(self.n, self.prune_epsilon, dict(zip(strings, c.tolist())), self._columns)
        return self._terms

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._columns is None:
            x, z = (_words([s[k] for s in self._terms], self.n) for k in (1, 2))
            c = np.fromiter(self._terms.values(), dtype=complex, count=len(self._terms))
            self._hold(self.n, self.prune_epsilon, self._terms, (x, z, c))
        return self._columns

    def _check_n(self, other: "QubitOperator"):
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")

    @property
    def num_terms(self) -> int:
        return len(self._terms if self._terms is not None else self._columns[2])

    def is_zero(self) -> bool:
        return not self.num_terms

    def is_diagonal(self) -> bool:
        return not self.columns[0].any()

    def coefficient(self, s: PauliString) -> complex:
        return self.terms.get(s, 0.0 + 0.0j)

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        self._check_n(other)
        eps = min(self.prune_epsilon, other.prune_epsilon)
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0.0) + c
        return QubitOperator(self.n, out, eps)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "QubitOperator":
        if isinstance(scalar, (int, float, complex)):
            out = {s: scalar * c for s, c in self.terms.items()}
            return QubitOperator(self.n, out, self.prune_epsilon)
        return NotImplemented

    def mul(self, other: "QubitOperator", budget: int = DEFAULT_BUDGET) -> "QubitOperator":
        """Operator product (self applied after other)."""
        self._check_n(other)
        eps = min(self.prune_epsilon, other.prune_epsilon)
        acc: dict[tuple[int, int], complex] = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                x, z, k = _mul_masks(s1.x, s1.z, s2.x, s2.z)
                acc[x, z] = acc.get((x, z), 0.0) + c1 * c2 * _PHASES[k]
            if len(acc) > budget:  # checked per row, before the rest is formed
                raise BudgetError(f"operator product has {len(acc)} terms, budget {budget}")
        out = {PauliString.from_masks(self.n, *s): c for s, c in acc.items()}
        return QubitOperator(self.n, out, eps)

    def __mul__(self, other):
        if isinstance(other, QubitOperator):
            return self.mul(other)
        if isinstance(other, (int, float, complex)):
            return other * self
        return NotImplemented

    def isclose(self, other: "QubitOperator", atol: float = 1e-9) -> bool:
        self._check_n(other)
        for s in self.terms.keys() | other.terms.keys():
            if abs(self.coefficient(s) - other.coefficient(s)) > atol:
                return False
        return True

    def check_hermitian(self, tol: float = 1e-9) -> tuple[bool, PauliString | None]:
        """Pauli strings are self-adjoint, so hermiticity means real coefficients.

        Returns (ok, witness); the witness is the string with the largest
        imaginary part when the check fails, the first in ``sort_key`` order
        (``_order``) among ties, so it does not depend on the order of ``terms``."""
        x, z, c = self.columns
        imag = np.abs(c.imag)
        worst = imag.max(initial=0.0)
        if worst <= tol:
            return True, None
        tied = np.flatnonzero(imag == worst)
        at = tied[_order(_digits(self.n, x[tied], z[tied]))[:1]]
        return False, PauliString.from_masks(self.n, *(_ints(m[at])[0] for m in (x, z)))

    def stats(self) -> tuple[int, int]:
        """(number of stored terms, total Pauli weight); identity weighs 0."""
        x, z, c = self.columns
        return len(c), int(np.bitwise_count(x | z).sum())

    def serialize(self) -> str:
        """Canonical text form: one ``<re> <im> <string>`` line per term, in
        ``sort_key`` order (``_order``). Each distinct float is formatted
        once, told apart by its bits (so 0.0 from -0.0, which print
        differently); the lines are rows of bytes (``_spelled``) joined
        ``_CHUNK_ROWS`` at a time."""
        x, z, c = self.columns
        if not len(c):
            return ""
        digits = _digits(self.n, x, z)
        order = _order(digits)
        parts = c[order].view(np.float64)  # re, im of each line
        label, first = _labels(parts.view(np.uint64)[:, None])
        texts = np.array([f"{v:.15g} " for v in parts[first].tolist()], dtype=bytes)
        texts = texts.view(np.uint8).reshape(len(first), texts.itemsize)
        label, out = label.reshape(-1, 2), []
        for r0 in range(0, len(c), _CHUNK_ROWS):
            rows = slice(r0, r0 + _CHUNK_ROWS)
            spelled = _spelled(self.n, digits[order[rows]])
            lines = np.hstack([texts[label[rows, 0]], texts[label[rows, 1]], spelled])
            out.append(lines[lines != 0].tobytes())
        return b"".join(out).decode("ascii")

    @classmethod
    def deserialize(cls, text: str, n: int) -> "QubitOperator":
        """``serialize``'s text read back; a bad line raises ``ValueError`` naming it."""
        terms: dict[PauliString, complex] = {}
        for lineno, line in enumerate(text_lines(text), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected '<re> <im> <string>'")
            try:
                ps = PauliString.from_text(parts[2], n)
                c = complex(ascii_real(parts[0]), ascii_real(parts[1]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            terms[ps] = c = terms.get(ps, 0.0) + c
            if math.hypot(c.real, c.imag) == math.inf:
                raise ValueError(f"line {lineno}: the coefficient of {parts[2]} overflows")
        return cls(n, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, QubitOperator) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        x, z, c = self.columns
        digits = _digits(self.n, x, z)
        order = _order(digits)
        texts = _spelled(self.n, digits[order])
        names = texts[texts != 0].tobytes().decode("ascii").split()
        body = " + ".join(f"({v:.6g})*{name}" for v, name in zip(c[order].tolist(), names))
        return f"QubitOperator({self.n}, {body or '0'})"


def _digits(n: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``uint8`` rows of each string's base-4 digit per qubit: X 0, Y 1, Z 2
    and 3 where the qubit is absent."""
    xb, zb = (np.unpackbits(m.view(np.uint8), axis=1, count=n, bitorder="little") for m in (x, z))
    return (xb ^ 1) << 1 | xb ^ zb ^ 1


def _order(digits: np.ndarray) -> np.ndarray:
    """Row order of ``PauliString.sort_key``: one ``np.lexsort`` on the
    weight, then on the ``_digits`` with qubit 1 most significant, 32 to a
    ``uint64`` word. At the first qubit where two strings of one weight
    differ, one has a letter of lower rank or the other has none (digit 3),
    so this is the order of their ``(qubit, rank)`` pairs."""
    rows, n = digits.shape
    words = max(1, -(-n // 32))
    q = np.pad(digits, ((0, 0), (0, 32 * words - n)), constant_values=3).reshape(rows, 8 * words, 4)
    octets = q[..., 0] << 6 | q[..., 1] << 4 | q[..., 2] << 2 | q[..., 3]
    keys = octets.view(">u8").astype(np.uint64)
    return np.lexsort([*keys.T[::-1], (digits != 3).sum(axis=1)])


def _spelled(n: int, digits: np.ndarray) -> np.ndarray:
    """``uint8`` rows of each string's text and a newline, padded with NUL
    bytes: the factors from a per-qubit token table (``X1*`` at qubit 1,
    digit 0, and no bytes at digit 3), the last ``*`` of a row turned into
    the newline, and ``I`` for the identity."""
    width = len(str(n)) + 2
    names = [name for j in range(1, n + 1) for name in (f"X{j}*", f"Y{j}*", f"Z{j}*", "")]
    tokens = np.array(names, dtype=f"S{width}")
    rows = np.zeros((len(digits), n * width + 2), dtype=np.uint8)
    rows[:, :-2] = tokens[digits + np.arange(0, 4 * n, 4)].view(np.uint8)
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)
    rows[np.arange(len(rows)), last] = ord("\n")
    rows[(digits == 3).all(axis=1), -2] = ord("I")
    return rows


def _fwht(values: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform over the packed-bit index, the last axis."""
    h = 1
    while h < values.shape[-1]:
        pairs = values.reshape(-1, values.shape[-1] // (2 * h), 2, h)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        low[...], high[...] = low + high, low - high
        h *= 2
    return values


def poly_table(masks: Iterable[int], grid: np.ndarray) -> np.ndarray:
    """Truth table of the polynomial with monomial ``masks`` at each limb row of
    ``grid``: the one-polynomial call of ``bitmath._evaluate``."""
    return _evaluate(_table([(0, masks)], 64 * grid.shape[1], 1), grid)[:, 0] == 1


def _group_terms(
    code: Code, mask: int, members: list, q: int | None, budget: int, memo: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sum c X^t Z^z`` for one group of qubits, as read-only columns: the
    limb rows of ``t`` and ``z`` and the coefficients ``c``.

    ``members`` are ``(0, monomial)`` of the sign, ``(1, (m, a, b))``
    factors ``a + b * (-1)**d_m`` and ``(2, j)`` update components, flipping
    qubit j by ``e_j(d(w) + q) + w_j`` (see ``_expand``). Every truth table is
    read on the group's grid: limb rows, row g holding bit i of g on the
    group's i-th qubit, so also the Z masks. ``memo`` keeps the grid with
    its decodes, each on the ``d_m`` some group's factors and update ``e_j``
    read (``code.decode_words``); the flips are those ``e_j`` of the decode XOR
    ``q`` (``code.encode_words``), XOR the grid. The shares of the table, one
    per flip pattern in X-mask order, are the rows of one array that one pass
    Walsh-transforms; without update members the one pattern is 0. The table
    and the terms count against ``budget``, the terms up to the first share over it.
    """
    n, k = code.n_qubits, mask.bit_count()
    if 1 << k > budget:
        raise BudgetError(f"table over a support of {k} qubits exceeds budget {budget}")
    update_qubits, modes = 0, sum({1 << p[0] for kind, p in members if kind == 1})
    for j in (j for kind, j in members if kind == 2):
        update_qubits, modes = update_qubits | 1 << j, modes | code.encode_supports[j]
    if mask not in memo:
        grid = np.zeros((1, max(1, -(-n // 64))), dtype=np.uint64)
        for j in (j for j in range(n) if mask >> j & 1):
            grid = np.concatenate([grid, grid | _words([1 << j], n)])
        memo[mask] = grid, {}
    grid, decodes = memo[mask]
    if modes not in decodes:
        decodes[modes] = code.decode_words(grid, modes)
    sign = [m for kind, m in members if kind == 0]
    values = 1.0 - 2.0 * poly_table(sign, grid) if sign else np.ones(1 << k)
    for m, a, b in (piece for kind, piece in members if kind == 1):
        values *= a + b * (1.0 - 2.0 * (decodes[modes][:, m // 64] >> np.uint64(m % 64) & 1))
    patterns, shares = np.zeros((1, grid.shape[1]), dtype=np.uint64), values[None]
    if update_qubits:
        rows = decodes[modes] ^ _words([q], code.n_modes)[:, : decodes[modes].shape[1]]
        t = (code.encode_words(rows, update_qubits) ^ grid) & _words([update_qubits], n)
        nonzero = np.flatnonzero(values)
        label, first = _labels(t[nonzero])
        # Pattern t's share has at least 2**k / |its grid points| terms, so
        # the p shares together have at least p**2.
        p = len(first)
        if p * p > budget:
            raise BudgetError(f"{p} flip patterns need at least {p * p} terms, budget {budget}")
        patterns, shares = t[nonzero[first]], np.zeros((p, 1 << k))
        shares[label, nonzero] = values[nonzero]
    coeffs = _fwht(shares)
    coeffs /= 1 << k
    row, point = np.nonzero(np.abs(coeffs) > DEFAULT_PRUNE)  # pattern-major
    if len(row) > budget:  # the terms through the first share that passes it
        reached = np.searchsorted(row, row[budget], "right")
        raise BudgetError(f"expansion reached {reached} terms, budget {budget}")
    t, z, c = patterns[row], grid[point], coeffs[row, point]
    for column in (t, z, c):
        column.setflags(write=False)
    return t, z, c


# Rows the map holds at once, each a few limbs and floats: ``_expand`` forms
# the tensor products of at most this many rows at a time,
# ``transform_hamiltonian`` hands it terms whose affine tables multiply to at
# most this many rows (``_chunked``), and ``_Sum`` merges its rows at least
# this many at a time, so memory does not grow with the number of terms.
_CHUNK_ROWS = 1 << 13

# The action items of one ``_expand`` call, as columns. ``signs`` are
# ``(item, piece)`` rows of the sign factors ``(-1)**f``; ``factors`` are
# ``(item, piece, a, b)`` rows of the factors ``a + b * (-1)**f``, in item
# order; ``flips`` are limb rows of each item's constant flip mask; ``qs``
# hold each item's mode mask ``q`` of the update, or None; ``scale`` the
# complex scale of each item.
Items = namedtuple("Items", "signs factors flips qs scale")


def _item(n: int, signs=(), factors=(), flips: int = 0, q: int | None = None) -> Items:
    """``Items`` of one action item with scale 1: the pieces of its sign
    factors, its ``(piece, a, b)`` factors, its constant flip mask and its
    update's ``q`` (None for no update)."""
    rest = np.array(factors, dtype=float).reshape(-1, 3)
    return Items(
        (np.zeros(len(signs), dtype=np.intp), np.array(signs, dtype=np.intp)),
        (np.zeros(len(rest), dtype=np.intp), rest[:, 0].astype(np.intp), rest[:, 1], rest[:, 2]),
        _words([flips], n),
        [q],
        np.ones(1, dtype=complex),
    )


def _bits(rows: np.ndarray, width: int) -> np.ndarray:
    """Boolean rows: entry ``(r, i)`` is bit ``i`` of limb row ``rows[r]``."""
    octets = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little").view(bool)


def _packed(fields: Sequence[tuple]) -> np.ndarray:
    """Rows of 64-bit words holding the limbs of the ``(limb rows, width)``
    fields side by side, each limb inside one word; a field of width w has
    values below ``2**w``."""
    words = [np.zeros(len(fields[0][0]), dtype=np.uint64)]
    at = 0
    for limbs, width in fields:
        for i in range(limbs.shape[1]):
            bits = min(64, width - 64 * i)
            if at + bits > 64:
                words.append(np.zeros(len(limbs), dtype=np.uint64))
                at = 0
            words[-1] |= limbs[:, i] << np.uint64(at)
            at += bits
    return np.column_stack(words)


def _merge(fields: Sequence[tuple], values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, sums)`` of the rows grouped by equal ``_packed`` fields
    (``_labels``): the row where each distinct key first appears, ascending,
    and its values summed from +0.0 (a complex +0.0 for complex values) in
    row order, as ``np.add.at`` is unbuffered. Packed, the fields give
    ``np.lexsort`` fewer keys: an item and two masks on 14 qubits fit one
    word instead of three, which sorts 60k rows about 8 times faster."""
    label, first = _labels(_packed(fields))
    seen = np.zeros(len(values), dtype=bool)
    seen[first] = True
    rank = np.cumsum(seen) - 1  # a first row's place among the first rows
    sums = np.zeros(len(first), dtype=values.dtype)
    np.add.at(sums, rank[first][label], values)
    return np.flatnonzero(seen), sums


def _join(groups: dict, found: list) -> dict:
    """``groups``, connected components keyed by disjoint qubit masks, with
    the ``(mask, kind, payload)`` members merged in turn. A popped list is
    only read (``joined +=`` extends a new list), so ``groups`` may share its
    lists with another dict, a shallow copy."""
    for mask, kind, payload in found:
        joined = [(kind, payload)]
        for g in [g for g in groups if g & mask]:
            joined += groups.pop(g)
            mask |= g
        groups[mask] = joined
    return groups


def _expand(code: Code, items: Items, budget: int = DEFAULT_BUDGET, memo: dict | None = None):
    """Image of each action item, yielded as columns ``(item, x, z, c)`` over
    ranges of items: letter strings ``(x, z)`` as limb rows, each once per
    item, and ``c`` the complex coefficient including the phase
    ``i**(-|x & z|)`` of ``X^x Z^z``, times the item's scale.

    Item ``i`` stands for ``scale[i] * sum_t X^t [eps(w) = t] * prod (a + b *
    (-1)**d_m(w))`` over its sign factors (``a, b = 0, 1``) and factors, each
    piece ``m`` a decode component of ``code``, read as ``code.decode_split``,
    with ``eps`` its constant flips or, when its ``q`` is set, the code's
    update ``encode(decode(w) + q) + w``, whose flip of qubit j groups with
    the qubits ``code.flip_supports[j]``. An item with no factors or flips is
    its scale times the identity, emitted as is.

    Every factor is a table of ``(t, z, c)`` rows. An item starts as one
    row: its constant flips, the XOR of its signs' affine Z masks and
    ``(-1)`` to their constants. An affine factor is the two rows ``a I``
    and ``+-b Z^f``, less those of magnitude at most ``DEFAULT_PRUNE``. The
    nonlinear rest splits into groups on disjoint qubits (``_group_terms``),
    kept in ``memo`` across calls on the same code, and keyed by the group's
    qubit mask, its members and, for a group with update members, ``q``. An
    item's count of rows is the product of its tables' lengths, the affine
    tables first: the rows formed before the merge, also where its affine Z
    masks are dependent. The group tables are built in turn while the count
    is within ``budget`` and nonzero, so an empty table (an image of zero)
    stops the item's later groups; a count over ``budget`` raises.
    ``_products`` forms each item's tensor product and merges it, at most
    ``_CHUNK_ROWS`` rows at a time, and the rows are then phased, scaled and
    pruned.

    A ``BudgetError`` is raised with ``item`` set to the first item that
    runs out of budget, in that item's own check order, after the columns of
    every item before it have been yielded.
    """
    (s_item, s_piece), (f_item, f_piece, fa, fb), flips, qs, scale = items
    n, pieces, count = code.n_qubits, code.decode_split, len(qs)
    memo = {} if memo is None else memo
    piece_z = _words([p[0] for p in pieces], n)
    piece_bit = np.array([p[1] for p in pieces], dtype=bool)
    affine = np.array([not p[3] for p in pieces], dtype=bool)
    plain = np.bincount(s_item, minlength=count) + np.bincount(f_item, minlength=count) == 0
    plain &= ~flips.any(axis=1) & np.array([q is None for q in qs], dtype=bool)

    # Each item's first row; (-1)**f of an affine f is a Z-string, negated by f's constant.
    z = np.zeros((count, piece_z.shape[1]), dtype=np.uint64)
    np.bitwise_xor.at(z, s_item, piece_z[s_piece])
    c = 1.0 - 2.0 * (np.bincount(s_item[piece_bit[s_piece]], minlength=count) & 1)
    # The k-th affine factor's table: rows bounds[k] to bounds[k + 1] of rows_z, rows_c.
    on = affine[f_piece]
    a_item, a_piece = f_item[on], f_piece[on]
    rows_z = np.zeros((2 * len(a_item), z.shape[1]), dtype=np.uint64)
    rows_z[1::2] = piece_z[a_piece]
    signed = np.where(piece_bit[a_piece], -fb[on], fb[on])
    rows_c = np.column_stack([fa[on], signed]).ravel()
    kept = np.abs(rows_c) > DEFAULT_PRUNE
    rows_z, rows_c = rows_z[kept], rows_c[kept]
    length = kept[0::2] + kept[1::2].astype(np.intp)
    bounds = np.concatenate([[0], np.cumsum(length)])
    fail, error, bits = count, None, min(int(budget).bit_length(), 62)
    # Rows of each affine product: 0 past an empty table, else 2**twos, capped
    # at the first power of 2 over the budget (and at 2**62, within int64).
    twos = np.bincount(a_item, length == 2, count).astype(np.intp)
    empty = np.bincount(a_item, length == 0, count) > 0
    sizes = np.where(empty, 0, np.left_shift(1, np.minimum(twos, bits)))

    # Groups: the sign's nonlinear monomials, nonlinear factors and updates.
    sign: dict[int, frozenset] = {}
    nonlinear = ~affine[s_piece]
    for i, p in zip(s_item[nonlinear].tolist(), s_piece[nonlinear].tolist()):
        sign[i] = sign.get(i, frozenset()) ^ pieces[p][3]
    members: dict[int, list] = {}
    for i, p, a, b in zip(*(col[~on].tolist() for col in (f_item, f_piece, fa, fb))):
        members.setdefault(i, []).append((pieces[p][2], 1, (p, a, b)))
    updated = any(q is not None for q in qs)  # the update members' components, once per call
    updates = _join({}, [(s, 2, j) for j, s in enumerate(code.flip_supports)] if updated else [])
    grouped: list[tuple] = []  # (item, its group tables) of each item with groups
    visit = sign.keys() | members.keys() | {i for i, q in enumerate(qs) if q is not None}
    visit |= set(np.flatnonzero(sizes > budget).tolist())  # affine rows alone pass the budget
    for i in sorted(visit):
        q = qs[i]
        found = members.get(i, []) + [(m, 0, m) for m in sign.get(i, ()) if m & (m - 1)]
        groups = _join(dict(updates) if q is not None else {}, found)
        size, got = int(sizes[i]), []
        try:
            for mask, joined in groups.items():
                if not 0 < size <= budget:
                    break
                key = (mask, tuple(joined), q if any(kind == 2 for kind, _ in joined) else None)
                part = memo.get(key)
                if part is None:
                    part = memo[key] = _group_terms(code, mask, joined, q, budget, memo)
                size *= len(part[2])
                got.append(part)
            if size > budget:
                raise BudgetError(f"expansion reached {size} terms, budget {budget}")
        except BudgetError as exc:
            fail, error = i, exc
            break
        sizes[i] = size
        if size:
            grouped.append((i, got))

    # Tensor products, merge, phase and scale over ranges of items.
    g_item = np.array([i for i, _ in grouped], dtype=np.intp)
    for lo, hi in _chunked(sizes[:fail]):
        a0, a1 = np.searchsorted(a_item, [lo, hi])
        g0, g1 = np.searchsorted(g_item, [lo, hi])
        rows = slice(bounds[a0], bounds[a1])
        affines = a_item[a0:a1], length[a0:a1], rows_z[rows], rows_c[rows]
        ri = lo + np.flatnonzero(sizes[lo:hi])
        ri, rt, rz, rc = _products(n, lo, hi, affines, grouped[g0:g1], ri, flips[ri], z[ri], c[ri])
        if not len(ri):
            continue
        phase = np.bitwise_count(rt & rz).sum(axis=1) & 3
        cr = np.where(phase == 0, rc, np.where(phase == 2, -rc, 0.0))
        ci = np.where(phase == 1, -rc, np.where(phase == 3, rc, 0.0))
        sr, si = scale.real[ri], scale.imag[ri]
        out = np.empty(len(ri), dtype=complex)
        out.real = np.where(plain[ri], sr, sr * cr - si * ci)
        out.imag = np.where(plain[ri], si, sr * ci + si * cr)
        keep = np.abs(out) > DEFAULT_PRUNE
        yield ri[keep], rt[keep], rz[keep], out[keep]
    if error is not None:
        error.item = fail
        raise error


def _products(n, lo, hi, affines, grouped, item, t, z, c):
    """The rows of items ``lo`` to ``hi`` times each item's tables, as tensor
    products in emission order (rows outer, table rows inner), then merged
    per item and pruned. ``affines`` are the affine tables (the item and row
    count of each, then their rows ``z, c`` in order), ``grouped`` the
    ``(item, group tables)`` of the items with groups."""
    a_item, length, a_z, a_c = affines
    parts = list({id(part): part for _, got in grouped for part in got}.values())
    numbers = {id(part): 1 + len(a_item) + k for k, part in enumerate(parts)}
    gi = np.repeat([i for i, _ in grouped], [len(got) for _, got in grouped]).astype(np.intp)
    # Table 0 is the one row I, past an item's last table; 1 + k the k-th affine one.
    before = np.bincount(a_item - lo, minlength=hi - lo)  # affine tables of each item
    depth = before + np.bincount(gi - lo, minlength=hi - lo)
    slot = np.zeros((hi - lo, int(depth.max())), dtype=np.intp)
    a_at = np.arange(len(a_item)) - np.searchsorted(a_item, a_item)
    slot[a_item - lo, a_at] = 1 + np.arange(len(a_item))
    g_at = before[gi - lo] + np.arange(len(gi)) - np.searchsorted(gi, gi)
    slot[gi - lo, g_at] = [numbers[id(part)] for _, got in grouped for part in got]
    lengths = np.concatenate([[1], length, [len(p[2]) for p in parts]]).astype(np.intp)
    starts = np.cumsum(lengths) - lengths
    pt = np.concatenate([np.zeros((1 + len(a_c), t.shape[1]), np.uint64)] + [p[0] for p in parts])
    pz = np.concatenate([np.zeros((1, t.shape[1]), np.uint64), a_z] + [p[1] for p in parts])
    pc = np.concatenate([[1.0], a_c] + [p[2] for p in parts])
    for g in range(slot.shape[1]):
        table = slot[item - lo, g]
        m = lengths[table]
        rows = np.repeat(np.arange(len(item)), m)
        at = np.repeat(starts[table] - (np.cumsum(m) - m), m) + np.arange(len(rows))
        item, t, z, c = item[rows], t[rows] ^ pt[at], z[rows] ^ pz[at], c[rows] * pc[at]
    key = (item - lo)[:, None].astype(np.uint64)
    first, c = _merge([(key, (hi - lo - 1).bit_length()), (t, n), (z, n)], c)
    keep = np.abs(c) > DEFAULT_PRUNE
    first = first[keep]
    return item[first], t[first], z[first], c[keep]


def _operator(n: int, parts) -> QubitOperator:
    """The operator holding ``_expand``'s columns ``(item, x, z, c)`` on distinct strings."""
    empty = np.zeros((0, max(1, -(-n // 64))), dtype=np.uint64)
    columns = [(empty, empty, np.zeros(0, dtype=complex))] + [part[1:] for part in parts]
    return QubitOperator._of(n, DEFAULT_PRUNE, tuple(map(np.concatenate, zip(*columns))))


def _chunked(rows: np.ndarray) -> Iterator[tuple[int, int]]:
    """Ranges ``lo, hi`` of the entries, in order, whose ``rows`` add up to at
    most ``_CHUNK_ROWS`` (an entry over it on its own)."""
    ends, lo = np.cumsum(rows), 0
    while lo < len(rows):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _CHUNK_ROWS, "right")))
        yield lo, hi
        lo = hi


class _Sum:
    """Columns ``(x, z, c)`` summed in the order they are added, as a dict
    on ``(x, z)`` sums them: each string once, in first-appearance order,
    its coefficient summed from a complex +0.0 in row order. Added rows wait
    until a merge is due: a merge sorts the held strings again, so it waits
    for half as many new rows, and for at least ``_CHUNK_ROWS``."""

    def __init__(self, n: int):
        self.n = n
        self.x = self.z = np.zeros((0, max(1, -(-n // 64))), dtype=np.uint64)
        self.c = np.zeros(0, dtype=complex)
        self.waiting: list[tuple] = []

    def add(self, item: np.ndarray, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> bool:
        """Hold the rows, each tagged with its ``item``; True once a merge is due."""
        self.waiting.append((item, x, z, c))
        return sum(len(w[3]) for w in self.waiting) >= max(len(self.c) // 2, _CHUNK_ROWS)

    def merge(self) -> np.ndarray:
        """Merge the waiting rows; return the item of each that brought a new
        string, in row order. A held sum is never -0.0, so summing it again
        from +0.0 keeps it."""
        if not self.waiting:
            return np.zeros(0, dtype=np.intp)
        item, x, z, c = (np.concatenate(column) for column in zip(*self.waiting))
        self.waiting.clear()
        held = len(self.c)
        x, z = np.concatenate([self.x, x]), np.concatenate([self.z, z])
        first, self.c = _merge([(x, self.n), (z, self.n)], np.concatenate([self.c, c]))
        self.x, self.z = x[first], z[first]
        return item[first[held:] - held]

    def operator(self) -> QubitOperator:
        """The merged sum's columns as an operator, without |c| <= ``DEFAULT_PRUNE``."""
        kept = np.abs(self.c) > DEFAULT_PRUNE
        return _operator(self.n, [(None, self.x[kept], self.z[kept], self.c[kept])])


def expand(n: int, factors: Factors, flips: Flips, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Operator ``sum_t X^t [eps(w) = t] * prod_k (a_k + b_k * (-1)**f_k(w))``.

    ``factors`` are ``(f_k, a_k, b_k)``: ``(f, 0, 1)`` is the sign
    ``(-1)**f`` and ``(f, 1/2, -1/2)`` the projector onto ``f = 1``.
    ``flips`` is the mask of a constant ``eps``, or a code's ``(encode,
    decode, q)`` with ``n`` encode components and ``q`` a mode mask, for
    ``eps(w) = encode(decode(w) + q) + w``. This checks the variable counts
    and runs the kernel ``_expand`` on one item of the ``Code`` whose decode
    is ``decode`` and then the ``f_k``, and whose encode is ``encode`` read
    on those first modes (zero for a constant ``eps``).
    """
    encode, decode, q = ((), (), None) if isinstance(flips, int) else flips
    for f in [f for f, _, _ in factors] + list(decode):
        if f.num_vars != n:
            raise DimensionError(f"function over {f.num_vars} variables on {n} qubits")
    modes = len(decode) + len(factors)
    widened = [BoolPoly.zero(modes)] * n if q is None else [e.shift_vars(0, modes) for e in encode]
    code = Code(modes, n, tuple(widened), (*decode, *(f for f, _, _ in factors)))
    signs = [len(decode) + k for k, (_, a, b) in enumerate(factors) if a == 0 and b == 1]
    rest = [(len(decode) + k, a, b) for k, (_, a, b) in enumerate(factors) if (a, b) != (0, 1)]
    items = _item(n, signs, rest, flips if q is None else 0, q)
    return _operator(n, _expand(code, items, budget))


def extract(f: BoolPoly, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Diagonal operator with eigenvalue ``(-1)**f(w)`` on basis state ``|w>``."""
    return expand(f.num_vars, [(f, 0, 1)], 0, budget)


def cphase_expand(indices: Iterable[int], n: int) -> QubitOperator:
    """Decomposed multi-controlled phase over an index set (single index: Z)."""
    mask = 0
    for j in indices:
        if not 1 <= j <= n:
            raise IndexError(f"qubit {j} outside 1..{n}")
        mask |= 1 << (j - 1)
    if mask == 0:
        raise ValueError("cphase_expand needs a nonempty index set")
    return expand(n, [(BoolPoly(n, [mask]), 0, 1)], 0)


def flip_operator(n: int, eps: Sequence[BoolPoly], budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Operator ``sum_t X^t [eps(w) = t]`` sending ``|w>`` to ``|w + eps(w)>``."""
    encode = [e + BoolPoly.variable(n, j) for j, e in enumerate(eps, 1)]
    decode = [BoolPoly.variable(n, j) for j in range(1, n + 1)]
    return expand(n, [], (encode + decode[len(encode):], decode, 0), budget)

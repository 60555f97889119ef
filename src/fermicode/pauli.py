"""Sparse Pauli-string algebra with exact phase tracking.

A Pauli string is stored symplectically as a pair of masks (x, z) over the
qubits, with letters X=(1,0), Z=(0,1), Y=(1,1); the letter form equals
``i**y * X^x Z^z`` where y counts the Y factors. All phase bookkeeping is
exact, in powers of i. ``PauliString`` is the named tuple ``(n, x, z)``:
immutable, and equal and hashed as that tuple.

The module also maps boolean functions to qubit operators through one
kernel, ``expand``: the update operator ``sum_t X^t [eps(w) = t]`` times
the diagonal ``prod_k (a_k + b_k * (-1)**f_k(w))``. The flips ``eps`` are
a constant mask or a code's ``(encode, decode, q)``, standing for
``eps(w) = encode(decode(w) + q) + w``. The kernel ``_expand`` reads each
factor as ``BoolPoly.split`` gives it (Z mask, constant, support, and the
monomials of a nonlinear one) and its flips as ``update_flips`` builds
them, with each flip piece's qubit support (``flip_supports``); a code
derives both once (``Code.decode_split``, ``Code.flip_supports``). Affine
factors multiply as Z-strings and the sign's linear part is an XOR of
masks; the nonlinear rest splits into groups on disjoint qubits, each a
Walsh-Hadamard transform of its own truth table, where ``eps`` is
evaluated too, and the groups combine as a tensor product. A group whose
table is zero makes the whole image zero, so the expansion stops there.
``_expand`` returns ``(x, z, c)`` int-mask triples, each string's phase in
``c``; ``transform_hamiltonian`` passes one memo to all of its terms, so
each distinct group table, and each decode component's table over a
group's grid, is built once per call, and merges the triples.
``serialize`` sorts on masks, and ``expand`` (so ``extract``,
``cphase_expand``, ``flip_operator``) wraps the triples.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

import numpy as np

from .bitmath import DEFAULT_BUDGET, BoolPoly, ascii_real
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
        return _spell(self.sort_key(), _letter_table(self.n))

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


def _letter_table(n: int) -> list[str]:
    """Factor text by code ``3 * qubit + rank``: X1, Y1, Z1 at 3, 4, 5, ..."""
    return [f"{letter}{j}" for j in range(n + 1) for letter in "XYZ"]


def _spell(key: tuple[int, ...], names: list[str]) -> str:
    return "*".join([names[c] for c in key[1:]]) or "I"


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
    """

    __slots__ = ("n", "terms", "prune_epsilon")

    def __init__(
        self,
        n: int,
        terms: dict[PauliString, complex] | None = None,
        prune_epsilon: float = DEFAULT_PRUNE,
    ):
        kept: dict[PauliString, complex] = {}
        for s, c in (terms or {}).items():
            if s.n != n:
                raise DimensionError(f"string on {s.n} qubits in {n}-qubit operator")
            if abs(c) > prune_epsilon:
                kept[s] = complex(c)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", kept)
        object.__setattr__(self, "prune_epsilon", prune_epsilon)

    @classmethod
    def _from_clean(cls, n, terms, eps) -> "QubitOperator":
        op = object.__new__(cls)
        object.__setattr__(op, "n", n)
        object.__setattr__(op, "terms", terms)
        object.__setattr__(op, "prune_epsilon", eps)
        return op

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple], eps=DEFAULT_PRUNE) -> "QubitOperator":
        """Operator of ``(x, z, c)`` triples on distinct strings, keeping ``|c| > eps``."""
        terms = {tuple.__new__(PauliString, (n, x, z)): c for x, z, c in triples if abs(c) > eps}
        return cls._from_clean(n, terms, eps)

    @classmethod
    def zero(cls, n: int) -> "QubitOperator":
        return cls._from_clean(n, {}, DEFAULT_PRUNE)

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

    def _check_n(self, other: "QubitOperator"):
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_diagonal(self) -> bool:
        return all(s.x == 0 for s in self.terms)

    def coefficient(self, s: PauliString) -> complex:
        return self.terms.get(s, 0.0 + 0.0j)

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        self._check_n(other)
        eps = min(self.prune_epsilon, other.prune_epsilon)
        out = dict(self.terms)
        for s, c in other.terms.items():
            v = out.get(s, 0.0) + c
            if abs(v) > eps:
                out[s] = v
            else:
                out.pop(s, None)
        return QubitOperator._from_clean(self.n, out, eps)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "QubitOperator":
        if isinstance(scalar, (int, float, complex)):
            eps = self.prune_epsilon
            out = {}
            for s, c in self.terms.items():
                v = scalar * c
                if abs(v) > eps:
                    out[s] = v
            return QubitOperator._from_clean(self.n, out, eps)
        return NotImplemented

    def mul(self, other: "QubitOperator", budget: int = DEFAULT_BUDGET) -> "QubitOperator":
        """Operator product (self applied after other)."""
        self._check_n(other)
        eps = min(self.prune_epsilon, other.prune_epsilon)
        acc: dict[tuple[int, int], complex] = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                x, z, k = _mul_masks(s1.x, s1.z, s2.x, s2.z)
                acc_key = (x, z)
                acc[acc_key] = acc.get(acc_key, 0.0) + c1 * c2 * _PHASES[k]
            if len(acc) > budget:  # checked per row, before the rest is formed
                raise BudgetError(f"operator product has {len(acc)} terms, budget {budget}")
        return QubitOperator.from_triples(self.n, ((x, z, c) for (x, z), c in acc.items()), eps)

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
        among ties, so it does not depend on the order of ``terms``.
        """
        worst = max((abs(c.imag) for c in self.terms.values()), default=0.0)
        if worst <= tol:
            return True, None
        tied = (s for s, c in self.terms.items() if abs(c.imag) == worst)
        return False, min(tied, key=PauliString.sort_key)

    def stats(self) -> tuple[int, int]:
        """(number of stored terms, total Pauli weight); identity weighs 0."""
        return len(self.terms), sum((s.x | s.z).bit_count() for s in self.terms)

    # -- serialization --------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form: one ``<re> <im> <string>`` line per term, in
        ``sort_key`` order."""
        names = _letter_table(self.n)
        keyed = sorted([(_sort_key(s.x, s.z), c) for s, c in self.terms.items()])
        lines = [f"{c.real:.15g} {c.imag:.15g} {_spell(key, names)}\n" for key, c in keyed]
        return "".join(lines)

    @classmethod
    def deserialize(cls, text: str, n: int) -> "QubitOperator":
        terms: dict[PauliString, complex] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
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
            terms[ps] = terms.get(ps, 0.0) + c
        return cls(n, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QubitOperator)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        body = " + ".join(
            f"({self.terms[s]:.6g})*{s.text()}"
            for s in sorted(self.terms, key=PauliString.sort_key)
        )
        return f"QubitOperator({self.n}, {body or '0'})"


def _fwht(values: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform over the packed-bit index."""
    h = 1
    while h < len(values):
        pairs = values.reshape(-1, 2, h)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
        h *= 2
    return values


def poly_table(masks: Iterable[int], grid: np.ndarray) -> np.ndarray:
    """Truth table of the polynomial with monomial ``masks`` at each assignment of ``grid``."""
    m = np.array(list(masks), dtype=grid.dtype)[:, None]
    return np.bitwise_xor.reduce((grid & m) == m, axis=0)


def _group_terms(
    n: int, mask: int, members: list, flips, budget: int, memo: dict
) -> list[tuple[int, int, float]]:
    """``(t, z, c)`` terms of ``sum c X^t Z^z`` for one group of qubits.

    ``members`` are ``(0, monomial)`` of the sign, ``(1, (split, a, b))``
    nonlinear factors and ``(2, (j, e_j))`` update components, with
    ``flips = (encode, decode, supports, q)`` as in ``_expand``. Each decode
    component that an ``e_j`` reads is tabulated over the group's qubits
    once per ``memo``, keyed by (group mask, mode); XOR-ed with ``q`` they
    give the occupation word at every grid point, on which ``e_j`` is
    evaluated and grid bit ``j`` XOR-ed in. Each flip pattern's share of the
    table is Walsh-transformed; the table and the terms count against
    ``budget``.
    """
    k = mask.bit_count()
    if 1 << k > budget:
        raise BudgetError(f"table over a support of {k} qubits exceeds budget {budget}")
    # grid[g] is the assignment whose i-th qubit of the group is bit i of g;
    # Python ints once a mask no longer fits an int64.
    grid = np.zeros(1, dtype=np.int64 if n < 64 else object)
    for j in (j for j in range(n) if mask >> j & 1):
        grid = np.concatenate([grid, grid | (1 << j)])
    sign = [m for kind, m in members if kind == 0]
    values = 1.0 - 2.0 * poly_table(sign, grid) if sign else np.ones(1 << k)
    for (_, _, _, masks), a, b in (piece for kind, piece in members if kind == 1):
        values *= a + b * (1.0 - 2.0 * poly_table(masks, grid))
    updates = [piece for kind, piece in members if kind == 2]
    rows = [(0, values)]
    if updates:
        _, decode, _, q = flips
        # Occupation words span all modes: Python ints from 64 modes on.
        occupation = np.full(1 << k, q, dtype=np.int64 if len(decode) < 64 else object)
        read = 0
        for _, e in updates:
            read |= e.support()
        for m in (m for m in range(len(decode)) if read >> m & 1):
            if (mask, m) not in memo:
                memo[mask, m] = poly_table(decode[m].masks, grid).astype(occupation.dtype) << m
                memo[mask, m].setflags(write=False)
            occupation ^= memo[mask, m]
        pattern = np.zeros(1 << k, dtype=np.int64)
        for r, (j, e) in enumerate(updates):
            flip = poly_table(e.masks, occupation) ^ (grid >> j & 1).astype(bool)
            pattern |= flip.astype(np.int64) << r
        patterns = np.unique(pattern[values != 0]).tolist()
        # Pattern t's share has at least 2**k / |its grid points| terms, so
        # the p shares together have at least p**2.
        p = len(patterns)
        if p * p > budget:
            raise BudgetError(f"{p} flip patterns need at least {p * p} terms, budget {budget}")
        rows = [
            (sum(1 << j for r, (j, _) in enumerate(updates) if t >> r & 1),
             np.where(pattern == t, values, 0.0))
            for t in patterns
        ]
    terms: list[tuple[int, int, float]] = []
    for t, row in rows:
        coeffs = _fwht(row) / (1 << k)
        idx = np.flatnonzero(np.abs(coeffs) > DEFAULT_PRUNE)
        terms.extend(zip([t] * len(idx), grid[idx].tolist(), coeffs[idx].tolist()))
        if len(terms) > budget:
            raise BudgetError(f"expansion reached {len(terms)} terms, budget {budget}")
    return terms


def flip_supports(encode: Sequence[BoolPoly], decode: Sequence[BoolPoly]) -> tuple[int, ...]:
    """Qubit support of each flip piece of ``encode(decode(w) + q) + w``: qubit
    j and the supports of the decode components ``encode[j]`` reads."""
    reads = [d.support() for d in decode]
    out = []
    for j, e in enumerate(encode):
        support, modes = 1 << j, e.support()
        for m, read in enumerate(reads):
            if modes >> m & 1:
                support |= read
        out.append(support)
    return tuple(out)


def update_flips(encode, decode, q: int, supports: tuple | None = None) -> tuple:
    """``_expand`` flips ``(encode, decode, supports, q)`` of ``eps(w) =
    encode(decode(w) + q) + w``, with ``supports = flip_supports(encode,
    decode)`` unless given (a code keeps them as ``Code.flip_supports``)."""
    return encode, decode, flip_supports(encode, decode) if supports is None else supports, q


def _expand(
    n: int, factors: Sequence[tuple], flips, budget: int = DEFAULT_BUDGET, memo: dict | None = None
) -> list[tuple]:
    """``expand`` as ``(x, z, c)`` triples: letter string ``(x, z)`` with ``c``
    including the phase ``i**(-|x & z|)`` of ``X^x Z^z``; each string once.

    ``factors`` are ``(f.split(), a, b)`` and ``flips`` a mask or
    ``update_flips(encode, decode, q)``, so no polynomial is scanned here.
    ``memo`` holds, across calls that share ``n``, the code's encode and
    decode, and ``budget``, the group tables, keyed by the group's qubit mask,
    its members and, for a group with update members, ``q``, and the decode
    tables of ``_group_terms``; all are read-only. A group whose table is
    empty makes the whole image zero, so the remaining groups are not built.
    """
    if isinstance(flips, int):
        t0, q, pieces = flips, 0, []  # (qubit mask, kind, payload), kinds as in _group_terms
    else:
        encode, _, supports, q = flips
        t0, pieces = 0, [(s, 2, (j, e)) for j, (s, e) in enumerate(zip(supports, encode))]
    linear = odd = 0
    sign: frozenset = frozenset()
    affine = {0: 1.0}  # Z mask -> coefficient; the flips are t0 until the groups
    for split, a, b in factors:
        zf, bit, support, masks = split
        if a == 0 and b == 1:
            linear, odd = linear ^ zf, odd ^ bit
            if masks:
                sign = sign ^ masks
        elif masks:
            pieces.append((support, 1, (split, a, b)))
        else:  # (-1)**f is a Z-string, negated by f's constant
            bf = -b if bit else b
            step: dict[int, float] = {}
            for z, c in affine.items():
                step[z] = step.get(z, 0.0) + c * a
                step[z ^ zf] = step.get(z ^ zf, 0.0) + c * bf
            if len(step) > budget:
                raise BudgetError(f"expansion reached {len(step)} terms, budget {budget}")
            affine = {z: c for z, c in step.items() if abs(c) > DEFAULT_PRUNE}
    pieces += [(m, 0, m) for m in sign if m & (m - 1)]
    s0 = -1.0 if odd else 1.0
    terms = [(t0, z ^ linear, s0 * c) for z, c in affine.items()]
    groups: dict[int, list] = {}  # connected components: disjoint qubit masks
    for mask, kind, payload in pieces:
        members = [(kind, payload)]
        for g in [g for g in groups if g & mask]:
            members += groups.pop(g)
            mask |= g
        groups[mask] = members
    memo = {} if memo is None else memo
    for mask, members in groups.items():
        key = (mask, tuple(members), q if any(kind == 2 for kind, _ in members) else None)
        part = memo.get(key)
        if part is None:
            part = memo[key] = tuple(_group_terms(n, mask, members, flips, budget, memo))
        if not part:
            return []
        if len(terms) * len(part) > budget:
            raise BudgetError(f"expansion reached {len(terms) * len(part)} terms, budget {budget}")
        terms = [(t ^ tg, z ^ zg, c * cg) for t, z, c in terms for tg, zg, cg in part]
    if groups:  # the affine strings are distinct, the products need not be
        merged: dict[tuple[int, int], float] = {}
        for t, z, c in terms:
            merged[t, z] = merged.get((t, z), 0.0) + c
        terms = [(t, z, c) for (t, z), c in merged.items() if abs(c) > DEFAULT_PRUNE]
    out = []
    for t, z, c in terms:  # times i**-k, k = |t & z| mod 4, exactly
        k = (t & z).bit_count() & 3
        out.append((t, z, complex(c, 0.0) if k == 0 else complex(0.0, -c) if k == 1
                    else complex(-c, 0.0) if k == 2 else complex(0.0, c)))
    return out


def expand(n: int, factors: Factors, flips: Flips, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Operator ``sum_t X^t [eps(w) = t] * prod_k (a_k + b_k * (-1)**f_k(w))``.

    ``factors`` are ``(f_k, a_k, b_k)``: ``(f, 0, 1)`` is the sign
    ``(-1)**f`` and ``(f, 1/2, -1/2)`` the projector onto ``f = 1``.
    ``flips`` is the mask of a constant ``eps``, or a code's ``(encode,
    decode, q)`` with ``q`` a mode mask, for ``eps(w) = encode(decode(w) +
    q) + w``. The signs add mod 2 into one function; affine factors multiply
    in as ``a + b * Z-string`` on a dict keyed by the Z mask. The nonlinear
    rest (the sign's nonlinear monomials, nonlinear factors, and each
    ``eps_j`` on qubit ``j`` and the qubits of the decode components
    ``encode[j]`` reads) splits into groups on disjoint qubits
    (``_group_terms``), which combine as a tensor product. The kernel
    ``_expand`` returns the terms as ``(x, z, c)`` triples; this checks the
    variable counts, splits the factors and wraps the triples.
    """
    encode, decode, q = ((), (), 0) if isinstance(flips, int) else flips
    for f in [f for f, _, _ in factors] + list(decode):
        if f.num_vars != n:
            raise DimensionError(f"function over {f.num_vars} variables on {n} qubits")
    if not isinstance(flips, int):
        flips = update_flips(encode, decode, q)
    triples = _expand(n, [(f.split(), a, b) for f, a, b in factors], flips, budget)
    return QubitOperator.from_triples(n, triples)


def extract(f: BoolPoly, n: int | None = None, budget: int = DEFAULT_BUDGET) -> QubitOperator:
    """Diagonal operator with eigenvalue ``(-1)**f(w)`` on basis state ``|w>``."""
    return expand(f.num_vars if n is None else n, [(f, 0, 1)], 0, budget)


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
    return expand(n, [], (encode, [BoolPoly.variable(n, j) for j in range(1, n + 1)], 0), budget)

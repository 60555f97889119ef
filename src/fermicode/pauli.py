"""Sparse Pauli-string algebra with exact phase tracking.

A Pauli string is stored symplectically as a pair of masks (x, z) over the
qubits, with letters X=(1,0), Z=(0,1), Y=(1,1); the letter form equals
``i**y * X^x Z^z`` where y counts the Y factors. All phase bookkeeping is
exact, in powers of i.

The module also maps boolean functions to qubit operators, and both halves
of the fermionic operator map expand through one truth-table grid
(``_diagonal_from_values``, a Walsh-Hadamard transform over the functions'
joint support). ``diagonal(n, factors)`` has eigenvalue
``prod_k (a_k + b_k * (-1)**f_k(w))`` on ``|w>`` and alone decides how to
expand it (affine Z-string product, the grid over at most ``_GRID_CAP``
qubits, or per-factor product with monomial expansions); ``extract(f)`` is
its single-factor case ``(-1)**f(w)``. ``flip_operator(n, eps)`` is the
update operator ``|w> -> |w + eps(w)>``: the grid, grouped by flip pattern.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .bitmath import DEFAULT_BUDGET, BoolPoly
from .errors import BudgetError, DimensionError

_LETTER_XZ = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_LETTER = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_RANK = {"X": 0, "Y": 1, "Z": 2}
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# Coefficients of magnitude at most this are dropped as cancellation residue.
DEFAULT_PRUNE = 1e-12

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class PauliString:
    """Tensor product of single-qubit Paulis; identity on unlisted qubits."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, factors: dict[int, str] | None = None):
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_masks(cls, n: int, x: int, z: int) -> "PauliString":
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "x", x)
        object.__setattr__(s, "z", z)
        return s

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls.from_masks(n, 0, 0)

    def __setattr__(self, *_):
        raise AttributeError("PauliString is immutable")

    @property
    def factors(self) -> dict[int, str]:
        out = {}
        occupied = self.x | self.z
        j = 1
        while occupied:
            if occupied & 1:
                out[j] = _XZ_LETTER[((self.x >> (j - 1)) & 1, (self.z >> (j - 1)) & 1)]
            occupied >>= 1
            j += 1
        return out

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return not (self.x | self.z)

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def text(self) -> str:
        if self.is_identity():
            return "I"
        f = self.factors
        return "*".join(f"{f[j]}{j}" for j in sorted(f))

    @classmethod
    def from_text(cls, text: str, n: int) -> "PauliString":
        text = text.strip()
        if text == "I":
            return cls.identity(n)
        factors = {}
        for part in text.split("*"):
            part = part.strip()
            letter, idx = part[0], int(part[1:])
            if idx in factors:
                raise ValueError(f"duplicate qubit {idx} in {text!r}")
            factors[idx] = letter
        return cls(n, factors)

    def sort_key(self):
        f = self.factors
        return (self.weight, tuple((j, _LETTER_RANK[f[j]]) for j in sorted(f)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliString({self.n}, '{self.text()}')"


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

    def __neg__(self) -> "QubitOperator":
        return (-1.0) * self

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

    def mul(self, other: "QubitOperator", budget: int | None = None) -> "QubitOperator":
        """Operator product (self applied after other)."""
        self._check_n(other)
        budget = DEFAULT_BUDGET if budget is None else budget
        eps = min(self.prune_epsilon, other.prune_epsilon)
        acc: dict[tuple[int, int], complex] = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                x, z, k = _mul_masks(s1.x, s1.z, s2.x, s2.z)
                acc_key = (x, z)
                acc[acc_key] = acc.get(acc_key, 0.0) + c1 * c2 * _PHASES[k]
        if len(acc) > budget:
            raise BudgetError(f"operator product has {len(acc)} terms, budget {budget}")
        out = {
            PauliString.from_masks(self.n, x, z): c
            for (x, z), c in acc.items()
            if abs(c) > eps
        }
        return QubitOperator._from_clean(self.n, out, eps)

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

        Returns (ok, witness); the witness is a string with a non-real
        coefficient when the check fails.
        """
        worst = None
        worst_imag = tol
        for s, c in self.terms.items():
            if abs(c.imag) > worst_imag:
                worst_imag = abs(c.imag)
                worst = s
        return worst is None, worst

    def stats(self) -> tuple[int, int]:
        """(number of stored terms, total Pauli weight); identity weighs 0."""
        return len(self.terms), sum(s.weight for s in self.terms)

    # -- serialization --------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form: one ``<re> <im> <string>`` line per term."""
        lines = []
        for s in sorted(self.terms, key=PauliString.sort_key):
            c = self.terms[s]
            lines.append(f"{c.real:.15g} {c.imag:.15g} {s.text()}")
        return "\n".join(lines) + ("\n" if lines else "")

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
            re_, im_, s = parts
            ps = PauliString.from_text(s, n)
            terms[ps] = terms.get(ps, 0.0) + complex(float(re_), float(im_))
        return cls(n, terms)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; basis index packs qubit ``j`` into bit ``j - 1``."""
        dim = 1 << self.n
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self.terms.items():
            f = s.factors
            m = np.eye(1, dtype=complex)
            for j in range(self.n, 0, -1):
                m = np.kron(m, _PAULI_MATRICES[f.get(j, "I")])
            out += c * m
        return out

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


def _diagonal_from_values(
    n: int,
    support: list[int],
    values: np.ndarray,
    budget: int,
    flips: np.ndarray | None = None,
) -> QubitOperator:
    """Operator from its eigenvalues over the support-variable grid.

    ``values[g]`` is the eigenvalue on assignments whose support bits are the
    bits of ``g`` (support[i] maps to grid bit i); qubits outside the support
    must not affect the eigenvalue. With ``flips`` the result is
    ``sum_t X^t D_t``, ``D_t`` keeping the eigenvalues where ``flips == t``;
    ``X^t Z^z`` is the letter string ``(t, z)`` times ``i**(-|t & z|)``.
    """
    k = len(support)
    if flips is None:
        groups = [(0, values)]
    else:
        groups = [(int(t), np.where(flips == t, values, 0)) for t in np.unique(flips)]
    terms: dict[PauliString, complex] = {}
    for t, group in groups:
        coeffs = _fwht(group.astype(float)) / (1 << k)
        for g in np.flatnonzero(np.abs(coeffs) > DEFAULT_PRUNE).tolist():
            zmask = 0
            gg = g
            while gg:
                i = (gg & -gg).bit_length() - 1
                zmask |= 1 << (support[i] - 1)
                gg &= gg - 1
            c = float(coeffs[g])
            parts = ((c, 0.0), (0.0, c), (-c, 0.0), (0.0, -c))[-(t & zmask).bit_count() & 3]
            terms[PauliString.from_masks(n, t, zmask)] = complex(*parts)
        if len(terms) > budget:
            raise BudgetError(f"expansion reached {len(terms)} terms, budget {budget}")
    return QubitOperator._from_clean(n, terms, DEFAULT_PRUNE)


def poly_table(p: BoolPoly, support: list[int]) -> np.ndarray:
    """Truth table of ``p`` over the grid of its support variables.

    ``support`` must contain every variable occurring in ``p`` (1-based);
    entry ``g`` is p at the assignment with support[i] set iff bit i of g.
    """
    k = len(support)
    pos = {v: i for i, v in enumerate(support)}
    grid = np.arange(1 << k, dtype=np.int64)
    out = np.zeros(1 << k, dtype=np.int64)
    for m in p.masks:
        local = 0
        mm = m
        while mm:
            j = (mm & -mm).bit_length()
            local |= 1 << pos[j]
            mm &= mm - 1
        out ^= ((grid & local) == local).astype(np.int64)
    return out


def _monomial_extract(n: int, mask: int) -> QubitOperator:
    """Expansion of the diagonal operator with eigenvalue (-1)**prod(w_j) on mask.

    Equals ``I - 2 * prod_{j in mask} (I - Z_j)/2`` written out in Z-strings.
    """
    k = mask.bit_count()
    scale = 2.0 ** (1 - k)
    terms: dict[PauliString, complex] = {}
    ident = 1.0 - scale
    if abs(ident) > DEFAULT_PRUNE:
        terms[PauliString.identity(n)] = ident
    sub = mask
    while True:
        if sub:
            sign = -1.0 if sub.bit_count() & 1 else 1.0
            terms[PauliString.from_masks(n, 0, sub)] = -scale * sign
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return QubitOperator._from_clean(n, terms, DEFAULT_PRUNE)


def cphase_expand(indices: Iterable[int], n: int) -> QubitOperator:
    """Decomposed multi-controlled phase over an index set (single index: Z)."""
    mask = 0
    for j in indices:
        if not 1 <= j <= n:
            raise IndexError(f"qubit {j} outside 1..{n}")
        mask |= 1 << (j - 1)
    if mask == 0:
        raise ValueError("cphase_expand needs a nonempty index set")
    return _monomial_extract(n, mask)


def _joint_support(n: int, polys: Sequence[BoolPoly]) -> list[int]:
    """Qubits (1-based) occurring in any of ``polys``, each over ``n`` variables."""
    mask = 0
    for f in polys:
        if f.num_vars != n:
            raise DimensionError(f"function over {f.num_vars} variables on {n} qubits")
        mask |= f.support()
    return [j + 1 for j in range(n) if (mask >> j) & 1]


# Largest nonlinear support that diagonal() tabulates instead of multiplying
# per-factor expansions; 2**16 eigenvalues is still cheap.
_GRID_CAP = 16


def diagonal(
    n: int,
    factors: Sequence[tuple[BoolPoly, float, float]],
    budget: int | None = None,
) -> QubitOperator:
    """Diagonal operator with eigenvalue ``prod_k (a_k + b_k * (-1)**f_k(w))``.

    ``factors`` is a non-empty list of ``(f_k, a_k, b_k)``: ``(f, 0, 1)`` is
    the sign ``(-1)**f`` and ``(f, 1/2, -1/2)`` the projector onto ``f = 1``.
    Affine factors multiply as signed Z-strings. A nonlinear product whose
    joint support has at most ``_GRID_CAP`` qubits is tabulated over that
    support and expanded once; a larger one multiplies per-factor
    expansions, a lone nonlinear sign via its monomials. Factors are
    multiplied in order, each new one from the left.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    for f, _, _ in factors:
        if f.num_vars != n:
            raise DimensionError(f"function over {f.num_vars} variables on {n} qubits")
    if not all(f.is_linear() for f, _, _ in factors):
        support = _joint_support(n, [f for f, _, _ in factors])
        if len(support) <= _GRID_CAP:
            values = np.ones(1 << len(support))
            for f, a, b in factors:
                values = values * (a + b * (1.0 - 2.0 * poly_table(f, support)))
            return _diagonal_from_values(n, support, values, budget)
        if len(factors) == 1 and factors[0][1:] == (0, 1):
            f = factors[0][0]
            op = QubitOperator.identity(n, -1.0 if f.constant_part() else 1.0)
            for mask in sorted(m for m in f.masks if m):
                if mask.bit_count() == 1:
                    factor = QubitOperator.z_string(n, mask)
                else:
                    factor = _monomial_extract(n, mask)
                op = op.mul(factor, budget=budget)
            return op
    op = None
    for f, a, b in factors:
        if f.is_linear():  # (-1)**f is a Z-string, negated by f's constant
            sign = QubitOperator.z_string(n, f.linear_mask(), -1.0 if f.constant_part() else 1.0)
        else:
            sign = diagonal(n, [(f, 0, 1)], budget)
        factor = sign if (a, b) == (0, 1) else QubitOperator.identity(n, a) + b * sign
        op = factor if op is None else factor.mul(op, budget=budget)
    return op


def extract(f: BoolPoly, n: int | None = None, budget: int | None = None) -> QubitOperator:
    """Diagonal operator with eigenvalue ``(-1)**f(w)`` on basis state ``|w>``."""
    return diagonal(f.num_vars if n is None else n, [(f, 0, 1)], budget)


def flip_operator(n: int, eps: Sequence[BoolPoly], budget: int | None = None) -> QubitOperator:
    """Operator ``sum_t X^t [eps(w) = t]`` sending ``|w>`` to ``|w + eps(w)>``.

    ``eps[j]`` flips qubit ``j + 1``. The components are tabulated over their
    joint support ``S`` and each flip pattern's projector is expanded on that
    grid; the ``2**|S|`` table counts against ``budget``, as does the result.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    support = _joint_support(n, eps)
    k = len(support)
    if 1 << k > budget:
        raise BudgetError(f"update table over a support of {k} qubits exceeds budget {budget}")
    # Python-int masks once the flip pattern no longer fits an int64.
    flips = np.zeros(1 << k, dtype=np.int64 if n < 64 else object)
    for j, e in enumerate(eps):
        flips |= poly_table(e, support).astype(flips.dtype) << j
    return _diagonal_from_values(n, support, np.ones(1 << k), budget, flips)

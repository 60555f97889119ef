"""Ground-truth fermionic semantics and transform verification.

One kernel, ``_image``, holds all the action code. On a basis word a ladder-
operator product and a Pauli string have the same form: a flip mask, a
Z-mask parity sign and a coefficient, and for the ladder product a check that
the touched modes start at the occupations it needs. Each term or string is
packed once into such an item (``_pack_terms``/``_pack_strings``); the
sparse-vector helpers, ``fock_matrix`` and ``verify_equivalence`` are built
on ``_image``.
Verification encodes each fermionic image and compares it amplitude by
amplitude with the qubit-side action, flagging Hamiltonians whose image
leaves the encoded basis.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .bitmath import BitVec
from .codes import Code
from .errors import DimensionError, UnsupportedCodeError
from .pauli import QubitOperator
from .transform import FermionHamiltonian, FermionTerm, transform_op_linear


def _pack_terms(terms: Iterable[FermionTerm]) -> list[tuple[int, int, int, int, complex]]:
    """One action item per ladder product; products that vanish on every state drop out.

    Walking the operators in application order, mode ``m`` must start at the
    occupation its operator needs once the earlier flips are undone; its
    parity string joins ``z``, and the earlier flips below ``m`` fix the sign.
    """
    items = []
    for t in terms:
        flip = z = care = want = 0
        c = t.coeff
        for m, dagger in reversed(t.ops):
            bit = 1 << (m - 1)
            need = (0 if dagger else bit) ^ (flip & bit)
            if care & bit and want & bit != need:
                break
            care |= bit
            want |= need
            z ^= bit - 1
            if (flip & (bit - 1)).bit_count() & 1:
                c = -c
            flip ^= bit
        else:
            items.append((flip, z, care, want, c))
    return items


def _pack_strings(op: QubitOperator) -> list[tuple[int, int, int, int, complex]]:
    """One action item per Pauli string: X flips, Z signs, each Y adds a factor i."""
    return [(s.x, s.z, 0, 0, c * 1j ** s.y_count()) for s, c in op.terms.items()]


def _image(word: int, items: list) -> dict[int, complex]:
    """Image of basis word ``word`` under a sum of packed action items.

    Item ``(flip, z, care, want, c)`` maps ``|w>`` to
    ``c (-1)^|w & z| |w ^ flip>`` when ``w & care == want``, else to 0.
    """
    out: dict[int, complex] = {}
    for flip, z, care, want, c in items:
        if word & care != want:
            continue
        nb = word ^ flip
        out[nb] = out.get(nb, 0.0) + (-c if (word & z).bit_count() & 1 else c)
    return out


def _apply_sparse(items: list, amplitudes: dict, n: int) -> dict[BitVec, complex]:
    """Linear extension of ``_image`` over a sparse state, pruned at 1e-15."""
    out: dict[int, complex] = {}
    for key, amp in amplitudes.items():
        for k, v in _image(key.value, items).items():
            out[k] = out.get(k, 0.0) + amp * v
    return {BitVec.from_int(k, n): v for k, v in out.items() if abs(v) > 1e-15}


class _SparseState:
    """Shared constructor and comparison of the two sparse state types."""

    @classmethod
    def basis_state(cls, word: BitVec):
        return cls(word.n, {word: 1.0 + 0.0j})

    def isclose(self, other, atol: float = 1e-9) -> bool:
        keys = self.amplitudes.keys() | other.amplitudes.keys()
        return all(
            abs(self.amplitudes.get(k, 0.0) - other.amplitudes.get(k, 0.0)) <= atol
            for k in keys
        )


@dataclass(frozen=True)
class FockStateVector(_SparseState):
    """Sparse amplitudes over occupation vectors."""

    n_modes: int
    amplitudes: dict[BitVec, complex] = field(default_factory=dict)


@dataclass(frozen=True)
class QubitStateVector(_SparseState):
    """Sparse amplitudes over computational basis words."""

    n_qubits: int
    amplitudes: dict[BitVec, complex] = field(default_factory=dict)


def apply_fermion_term(
    term: FermionTerm, nu: BitVec
) -> tuple[complex, BitVec] | None:
    """Image (coefficient, state) of one basis state; None when annihilated."""
    for occ, coeff in _image(nu.value, _pack_terms([term])).items():
        return coeff, BitVec.from_int(occ, nu.n)
    return None


def apply_hamiltonian_fock(h: FermionHamiltonian, state: FockStateVector) -> FockStateVector:
    if h.n_modes != state.n_modes:
        raise DimensionError("mode count mismatch")
    out = _apply_sparse(_pack_terms(h.terms), state.amplitudes, h.n_modes)
    return FockStateVector(h.n_modes, out)


def apply_qubit_operator(op: QubitOperator, state: QubitStateVector) -> QubitStateVector:
    if op.n != state.n_qubits:
        raise DimensionError("qubit count mismatch")
    out = _apply_sparse(_pack_strings(op), state.amplitudes, op.n)
    return QubitStateVector(op.n, out)


@dataclass
class EquivalenceReport:
    """Per-basis-state comparison of fermionic and qubit-side actions."""

    status: str  # "pass" | "fail" | "incompatible"
    max_deviation: float
    failures: list[dict]
    states_checked: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "max_deviation": self.max_deviation,
                "states_checked": self.states_checked,
                "failures": self.failures,
            },
            indent=2,
        )

    def summary(self) -> str:
        return (
            f"status={self.status} states={self.states_checked} "
            f"max_deviation={self.max_deviation:.3g} failures={len(self.failures)}"
        )


def verify_equivalence(
    code: Code,
    h: FermionHamiltonian,
    hq: QubitOperator,
    basis: list[BitVec],
    tol: float = 1e-9,
) -> EquivalenceReport:
    """Check that the qubit operator replicates the Hamiltonian on the basis.

    For every basis vector v the fermionic image of |v> is computed exactly;
    if any component falls outside the code's encoded set the Hamiltonian is
    incompatible with the code (its action cannot be represented). Otherwise
    the encoded image is compared with the qubit operator applied to |e(v)>.
    """
    if h.n_modes != code.n_modes or hq.n != code.n_qubits:
        raise DimensionError("code, Hamiltonian, and operator sizes must agree")
    strings = _pack_strings(hq)
    terms = _pack_terms(h.terms)

    @functools.cache
    def encoded(value: int) -> int:
        return code.encode_vec(BitVec.from_int(value, code.n_modes)).value

    @functools.cache
    def in_basis(value: int) -> bool:
        nu = BitVec.from_int(value, code.n_modes)
        return code.decode_vec(BitVec.from_int(encoded(value), code.n_qubits)) == nu

    max_dev = 0.0
    failures: list[dict] = []
    escapes: list[dict] = []
    for nu in basis:
        image = _image(nu.value, terms)
        expected = {k: v for k, v in image.items() if abs(v) > 1e-13}
        bad = [k for k in expected if not in_basis(k)]
        if bad:
            escapes.append(
                {
                    "nu": str(nu),
                    "detail": "image leaves the encoded basis at "
                    + ", ".join(str(BitVec.from_int(k, code.n_modes)) for k in bad[:4]),
                }
            )
            continue
        expected_q: dict[int, complex] = {}
        for k, v in expected.items():
            ek = encoded(k)
            expected_q[ek] = expected_q.get(ek, 0.0) + v
        actual = _image(encoded(nu.value), strings)
        dev = 0.0
        for k in expected_q.keys() | actual.keys():
            dev = max(dev, abs(expected_q.get(k, 0.0) - actual.get(k, 0.0)))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(
                {"nu": str(nu), "detail": f"amplitude deviation {dev:.3g}"}
            )
    if escapes:
        return EquivalenceReport("incompatible", max_dev, escapes + failures, len(basis))
    status = "pass" if not failures else "fail"
    return EquivalenceReport(status, max_dev, failures, len(basis))


@dataclass
class AnticommutationReport:
    ok: bool
    failures: list[str]

    def summary(self) -> str:
        return "all anticommutation relations hold" if self.ok else (
            f"{len(self.failures)} violations, first: {self.failures[0]}"
        )


def verify_anticommutation(code: Code, atol: float = 1e-12) -> AnticommutationReport:
    """Check the transformed ladder operators' anticommutation relations.

    Builds every single operator through the index-set form (full-Fock
    linear codes only) and verifies {c_i, c_j^dag} = delta_ij, {c_i, c_j} = 0,
    and {c_i^dag, c_j^dag} = 0 as operator identities.
    """
    if code.matrix is None:
        raise UnsupportedCodeError("anticommutation check needs a linear n = N code")
    n = code.n_modes
    annihilate = [transform_op_linear(code, j, dagger=False) for j in range(1, n + 1)]
    create = [transform_op_linear(code, j, dagger=True) for j in range(1, n + 1)]
    failures = []
    zero = QubitOperator.zero(code.n_qubits)
    for i in range(n):
        for j in range(n):
            anti = annihilate[i] * create[j] + create[j] * annihilate[i]
            target = (
                QubitOperator.identity(code.n_qubits) if i == j else zero
            )
            if not anti.isclose(target, atol):
                failures.append(f"{{c_{i + 1}, c_{j + 1}^dag}} != {'I' if i == j else '0'}")
            if j >= i:
                if not (
                    annihilate[i] * annihilate[j] + annihilate[j] * annihilate[i]
                ).isclose(zero, atol):
                    failures.append(f"{{c_{i + 1}, c_{j + 1}}} != 0")
                if not (create[i] * create[j] + create[j] * create[i]).isclose(
                    zero, atol
                ):
                    failures.append(f"{{c_{i + 1}^dag, c_{j + 1}^dag}} != 0")
    return AnticommutationReport(not failures, failures)


def fock_matrix(h: FermionHamiltonian, basis: list[BitVec]) -> np.ndarray:
    """Dense matrix of the Hamiltonian over an occupation basis list."""
    index = {nu.value: i for i, nu in enumerate(basis)}
    terms = _pack_terms(h.terms)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, nu in enumerate(basis):
        if nu.n != h.n_modes:
            raise DimensionError("mode count mismatch")
        for mu, amp in _image(nu.value, terms).items():
            if abs(amp) <= 1e-15:
                continue
            row = index.get(mu)
            if row is None:
                raise ValueError(
                    f"Hamiltonian maps {nu} outside the given basis "
                    f"(to {BitVec.from_int(mu, h.n_modes)})"
                )
            out[row, col] = amp
    return out

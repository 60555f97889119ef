"""Fermion-to-qubit transpilation through binary codes."""

from .bitmath import BitMat, BitVec, BoolPoly
from .codes import (
    BasisSpec,
    Code,
    binary_addressing_k1,
    binary_addressing_k2,
    binary_switch,
    bravyi_kitaev,
    checksum_code,
    concat,
    enumerate_basis,
    jordan_wigner,
    linear_code,
    parity_code,
    segment_code,
    segment_subcode,
    validate_code,
)
from .errors import (
    BudgetError,
    DimensionError,
    FermicodeError,
    InputFormatError,
    NonHermitianError,
    SingularMatrixError,
    UnsupportedCodeError,
)
from .fock_oracle import (
    FockStateVector,
    QubitStateVector,
    apply_fermion_term,
    apply_hamiltonian_fock,
    apply_qubit_operator,
    fock_matrix,
    verify_anticommutation,
    verify_equivalence,
)
from .pauli import PauliString, QubitOperator, cphase_expand, extract, pauli_mul
from .transform import (
    FermionHamiltonian,
    FermionTerm,
    LinearSets,
    adjust_for_segments,
    linear_sets,
    normal_order_blocks,
    parity_function,
    transform_hamiltonian,
    transform_op_linear,
    transform_single_two_codes,
    transform_term,
    update_operator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

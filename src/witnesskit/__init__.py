"""Entanglement detection for bipartite density matrices.

Builds entanglement witnesses from permutation-indexed positive maps and a
rotated rank-4 family, and decides states through four sufficient criteria:
partial transpose, realignment, an entry-based permutation search, and a
distillability certificate search. Eigenvalues and singular values come
from LAPACK through numpy.
"""

__version__ = "0.1.0"

from .numkit import (
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    hermitian_eigensystem,
    singular_values,
    singular_values_stack,
)
from .states import (
    BipartiteDims,
    DensityMatrix,
    DomainError,
    FormatError,
    H_MAJOR,
    K_MAJOR,
    PureState,
    basis_index,
    example_34,
    example_35,
    maximally_entangled,
    partial_transpose_first,
    random_separable,
    realignment,
    reorder,
    schmidt,
    state_from_dict,
    state_to_dict,
    validate,
)
from .witnesses import (
    NotAWitnessError,
    Permutation,
    Witness,
    WitnessSpec,
    choi_witness,
    conjugate_witness,
    phi_kappa,
    phi_kappa_ps,
    phi_rank4,
    rank4_witness,
    rotated_rank4_value,
    witness_from_dict,
    witness_kps,
    witness_to_dict,
    witness_value,
)
from .detection import (
    DetectConfig,
    DetectionReport,
    DistillCertificate,
    EntryCertificate,
    ccnr_check,
    detect,
    distill_search,
    entry_search,
    entry_value_indices,
    entry_value_perms,
    indices_to_perms,
    ppt_check,
    pure_check,
    report_to_dict,
    scan_criteria,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Dense complex matrix helpers.

Hermitian eigenvalues and singular values, as descending float arrays, on
plain ``numpy`` arrays (``complex128``). Eigenvalues come from LAPACK through
``np.linalg.eigvalsh``/``eigh`` on the symmetrised input, singular values
from ``np.linalg.svd`` on the matrix itself (never from the Gram matrix
a^dagger a, whose rounding noise would turn a zero singular value into
~1e-8). The ``*_stack`` forms take an (R, m, n) stack and make one batched
LAPACK call for all R matrices, returning an (R, n) array whose rows equal
the single-matrix forms. This module owns the input checks (finite, square,
Hermitian, per matrix), the one Hermitian-defect kernel every Hermiticity
check in the package uses, and the descending order; a LAPACK failure
surfaces as ``np.linalg.LinAlgError``.

Indices in user-facing arguments are 1-based throughout the package, matching
the usual ket labeling |1>, |2>, ...; everything internal is 0-based numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "error_bound",
    "hermitian_defect",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_stack",
    "hermitian_eigensystem",
    "singular_values",
    "singular_values_stack",
]


def _as_matrix(a, ndim=2) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != ndim:
        what = "matrix" if ndim == 2 else "stack of matrices"
        raise ValueError(f"expected a {ndim}-d {what}, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def error_bound(a):
    """Absolute error bound on each LAPACK eigen- or singular value of ``a``,
    or of each matrix of an (R, m, n) stack, as an (R,) array.

    The LAPACK Users' Guide (sections 4.7 and 4.9) bounds the error of every
    computed eigenvalue of a Hermitian matrix, and of every singular value, by
    p(n) * eps * ||a||_2 with p(n) a modestly growing function of the order;
    taking p(n) = n (the larger dimension) and the Frobenius norm
    (>= ||a||_2) keeps the bound safe.
    """
    m = np.asarray(a)
    return max(m.shape[-2:]) * np.finfo(float).eps * np.linalg.norm(m, axis=(-2, -1))


def hermitian_defect(a):
    """max |a - a^dagger| / max |a|, of one square matrix or of each matrix
    of an (R, n, n) stack; 0 for a zero matrix."""
    m = np.asarray(a)
    defect = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    return defect / np.maximum(np.abs(m).max(axis=(-2, -1), initial=0.0), 1e-300)


def _hermitian_input(m):
    """Symmetrised copy of a checked matrix, or stack of matrices, each
    Hermitian to 1e-9 relative to its largest modulus."""
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got {m.shape[-2:]}")
    defect = hermitian_defect(m)
    if np.any(defect > 1e-9):
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dagger| / max |a| = "
            f"{np.max(defect):.3e} exceeds 1e-9"
        )
    return 0.5 * (m + m.conj().swapaxes(-2, -1))


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Non-Hermitian input raises ValueError; a LAPACK failure raises
    ``np.linalg.LinAlgError``.
    """
    return np.linalg.eigvalsh(_hermitian_input(_as_matrix(a)))[::-1]


def hermitian_eigenvalues_stack(a) -> np.ndarray:
    """:func:`hermitian_eigenvalues` of each matrix of an (R, n, n) stack, as
    the rows of an (R, n) array, from one batched LAPACK call; each matrix is
    checked on its own."""
    return np.linalg.eigvalsh(_hermitian_input(_as_matrix(a, ndim=3)))[:, ::-1]


def hermitian_eigensystem(a):
    """Like :func:`hermitian_eigenvalues` but also returns eigenvectors.

    Returns ``(values, vectors)`` with the k-th column of ``vectors`` the
    unit eigenvector for ``values[k]``.
    """
    vals, vecs = np.linalg.eigh(_hermitian_input(_as_matrix(a)))
    return vals[::-1], vecs[:, ::-1]


def singular_values(a) -> np.ndarray:
    """Singular values, descending, straight from the SVD of ``a``.

    Only values are produced (no vectors), which is all the trace norm and
    Schmidt coefficients need.
    """
    return np.linalg.svd(_as_matrix(a), compute_uv=False)


def singular_values_stack(a) -> np.ndarray:
    """:func:`singular_values` of each matrix of an (R, m, n) stack, as the
    rows of an (R, min(m, n)) array, from one batched LAPACK call."""
    return np.linalg.svd(_as_matrix(a, ndim=3), compute_uv=False)

"""Dense complex matrix helpers.

Kronecker products, adjoints, Hermitian eigenvalues, singular values and the
trace norm, all on plain ``numpy`` arrays (``complex128``). Eigenvalues come
from LAPACK through ``np.linalg.eigvalsh``/``eigh`` on the symmetrised input,
singular values from ``np.linalg.svd`` on the matrix itself (never from the
Gram matrix a^dagger a, whose rounding noise would turn a zero singular value
into ~1e-8). This module owns the input checks (finite, square, Hermitian)
and the descending order; a LAPACK failure surfaces as
``np.linalg.LinAlgError``.

Indices in user-facing arguments are 1-based throughout the package, matching
the usual ket labeling |1>, |2>, ...; everything internal is 0-based numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "kron",
    "adjoint",
    "is_hermitian",
    "frobenius",
    "hermitian_eigenvalues",
    "hermitian_eigensystem",
    "singular_values",
    "trace_norm",
]

@dataclass(frozen=True)
class Spectrum:
    """Real eigen- or singular values, sorted descending.

    ``tolerance`` is an absolute error bound on each value (callers comparing
    against thresholds can take it into account instead of guessing).
    """

    values: np.ndarray
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    @property
    def max(self) -> float:
        return float(self.values[0])

    @property
    def min(self) -> float:
        return float(self.values[-1])


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(_as_matrix(a)))


def is_hermitian(a, tol) -> bool:
    """True iff ``a`` is square and max |a - a^dagger| <= tol entrywise."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"hermiticity is only defined for square matrices, got {m.shape}")
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def _error_bound(norm: float, order: int) -> float:
    """Absolute error bound on each LAPACK eigen- or singular value.

    The LAPACK Users' Guide (sections 4.7 and 4.9) bounds the error of every
    computed eigenvalue of a Hermitian matrix, and of every singular value, by
    p(n) * eps * ||a||_2 with p(n) a modestly growing function of the order;
    taking p(n) = n and the Frobenius norm (>= ||a||_2) keeps the bound safe.
    """
    return order * np.finfo(float).eps * norm


def _hermitian_input(a):
    """Checked square Hermitian input, symmetrised, and its Frobenius norm."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    norm = float(np.linalg.norm(m))
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > 1e-9 * max(norm, 1e-300):
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dagger| = {defect:.3e} "
            f"exceeds 1e-9 * ||a|| = {1e-9 * norm:.3e}"
        )
    return 0.5 * (m + m.conj().T), norm


def hermitian_eigenvalues(a) -> Spectrum:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Non-Hermitian input raises ValueError; a LAPACK failure raises
    ``np.linalg.LinAlgError``.
    """
    m, norm = _hermitian_input(a)
    vals = np.linalg.eigvalsh(m)[::-1]
    return Spectrum(vals, tolerance=_error_bound(norm, m.shape[0]))


def hermitian_eigensystem(a):
    """Like :func:`hermitian_eigenvalues` but also returns eigenvectors.

    Returns ``(spectrum, vectors)`` with the k-th column of ``vectors`` the
    unit eigenvector for ``spectrum.values[k]``.
    """
    m, norm = _hermitian_input(a)
    vals, vecs = np.linalg.eigh(m)
    return Spectrum(vals[::-1], tolerance=_error_bound(norm, m.shape[0])), vecs[:, ::-1]


def singular_values(a) -> Spectrum:
    """Singular values, descending, straight from the SVD of ``a``.

    Only values are produced (no vectors), which is all the trace norm and
    Schmidt coefficients need.
    """
    m = _as_matrix(a)
    vals = np.linalg.svd(m, compute_uv=False)
    return Spectrum(vals, tolerance=_error_bound(float(np.linalg.norm(m)), max(m.shape)))


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(singular_values(a).values.sum())

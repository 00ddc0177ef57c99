"""Dense complex matrix helpers.

Kronecker products, Hermitian eigenvalues, singular values and the trace
norm, all on plain ``numpy`` arrays (``complex128``). Eigenvalues come
from LAPACK through ``np.linalg.eigvalsh``/``eigh`` on the symmetrised input,
singular values from ``np.linalg.svd`` on the matrix itself (never from the
Gram matrix a^dagger a, whose rounding noise would turn a zero singular value
into ~1e-8). The ``*_stack`` forms take an (R, m, n) stack and make one
batched LAPACK call for all R matrices; the single-matrix forms are their
stack-of-one case. This module owns the input checks (finite, square,
Hermitian, per matrix) and the descending order; a LAPACK failure surfaces
as ``np.linalg.LinAlgError``.

Indices in user-facing arguments are 1-based throughout the package, matching
the usual ket labeling |1>, |2>, ...; everything internal is 0-based numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "kron",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_stack",
    "hermitian_eigensystem",
    "singular_values",
    "singular_values_stack",
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


def _as_matrix(a, ndim=2) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != ndim:
        what = "matrix" if ndim == 2 else "stack of matrices"
        raise ValueError(f"expected a {ndim}-d {what}, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def _error_bound(norm: float, order: int) -> float:
    """Absolute error bound on each LAPACK eigen- or singular value.

    The LAPACK Users' Guide (sections 4.7 and 4.9) bounds the error of every
    computed eigenvalue of a Hermitian matrix, and of every singular value, by
    p(n) * eps * ||a||_2 with p(n) a modestly growing function of the order;
    taking p(n) = n and the Frobenius norm (>= ||a||_2) keeps the bound safe.
    """
    return order * np.finfo(float).eps * norm


def _hermitian_input(m):
    """Symmetrised copy of a checked (R, n, n) stack of Hermitian matrices,
    and the Frobenius norm of each."""
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got {m.shape[-2:]}")
    norm = np.linalg.norm(m, axis=(-2, -1))
    mh = m.conj().swapaxes(-2, -1)
    defect = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)
    bad = defect > 1e-9 * np.maximum(norm, 1e-300)
    if bad.any():
        i = bad.argmax()
        raise ValueError(
            f"matrix is not Hermitian: max |a - a^dagger| = {defect[i]:.3e} "
            f"exceeds 1e-9 * ||a|| = {1e-9 * norm[i]:.3e}"
        )
    return 0.5 * (m + mh), norm


def _eigenvalues(m) -> list:
    m, norm = _hermitian_input(m)
    vals = np.linalg.eigvalsh(m)[:, ::-1]
    tol = _error_bound(norm, m.shape[-1])
    return [Spectrum(v, tolerance=t) for v, t in zip(vals, tol.tolist())]


def hermitian_eigenvalues(a) -> Spectrum:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Non-Hermitian input raises ValueError; a LAPACK failure raises
    ``np.linalg.LinAlgError``.
    """
    return _eigenvalues(_as_matrix(a)[None])[0]


def hermitian_eigenvalues_stack(a) -> list:
    """:func:`hermitian_eigenvalues` of each matrix of an (R, n, n) stack,
    from one batched LAPACK call; each matrix is checked on its own."""
    return _eigenvalues(_as_matrix(a, ndim=3))


def hermitian_eigensystem(a):
    """Like :func:`hermitian_eigenvalues` but also returns eigenvectors.

    Returns ``(spectrum, vectors)`` with the k-th column of ``vectors`` the
    unit eigenvector for ``spectrum.values[k]``.
    """
    m, norm = _hermitian_input(_as_matrix(a)[None])
    vals, vecs = np.linalg.eigh(m[0])
    return Spectrum(vals[::-1], tolerance=_error_bound(norm[0], m.shape[-1])), vecs[:, ::-1]


def _singular_values(m) -> list:
    vals = np.linalg.svd(m, compute_uv=False)
    tol = _error_bound(np.linalg.norm(m, axis=(-2, -1)), max(m.shape[1:]))
    return [Spectrum(v, tolerance=t) for v, t in zip(vals, tol.tolist())]


def singular_values(a) -> Spectrum:
    """Singular values, descending, straight from the SVD of ``a``.

    Only values are produced (no vectors), which is all the trace norm and
    Schmidt coefficients need.
    """
    return _singular_values(_as_matrix(a)[None])[0]


def singular_values_stack(a) -> list:
    """:func:`singular_values` of each matrix of an (R, m, n) stack, from one
    batched LAPACK call."""
    return _singular_values(_as_matrix(a, ndim=3))


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(singular_values(a).values.sum())

"""Bipartite density matrices and their standard transformations.

A state lives on a tensor product H (x) K with dim_h * dim_k = matrix order.
Two index orderings for the product basis are supported and carried as an
explicit tag on every state:

* ``h_major`` -- |i, j'> sits at position (i-1)*dim_k + j. This is the
  ordering ``numpy.kron`` produces and the canonical one inside the package.
* ``k_major`` -- |i, j'> sits at position (j-1)*dim_h + i (the K index
  changes slowest). The parametric example families are laid out naturally
  in this ordering, so constructing them k_major keeps their matrices
  literal entry for entry.

Conversion between the two is a fixed permutation of rows and columns and
changes nothing spectral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit

__all__ = [
    "H_MAJOR",
    "K_MAJOR",
    "ORDERINGS",
    "DomainError",
    "FormatError",
    "BipartiteDims",
    "DensityMatrix",
    "PureState",
    "basis_index",
    "reorder",
    "validate",
    "maximally_entangled",
    "schmidt",
    "example_34",
    "example_35",
    "partial_transpose_first",
    "realignment",
    "random_separable",
    "state_to_dict",
    "state_from_dict",
]

H_MAJOR = "h_major"
K_MAJOR = "k_major"
ORDERINGS = (H_MAJOR, K_MAJOR)

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
POSITIVITY_TOL = -1e-9


class DomainError(ValueError):
    """A state-family parameter violates its validity domain."""


class FormatError(ValueError):
    """Serialized state data is malformed or fails validation."""


@dataclass(frozen=True)
class BipartiteDims:
    dim_h: int
    dim_k: int

    def __post_init__(self):
        if self.dim_h < 2 or self.dim_k < 2:
            raise ValueError(
                f"both factor dimensions must be >= 2, got {self.dim_h}x{self.dim_k}"
            )

    @property
    def order(self) -> int:
        return self.dim_h * self.dim_k


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite state: dims, basis ordering tag, and the dense matrix.

    Construction checks shape and finiteness only; the physics invariants
    (Hermitian, unit trace, positive semidefinite) are checked by
    :func:`validate`, which builders and parsers call where the invariants
    are not already guaranteed by construction.
    """

    dims: BipartiteDims
    ordering: str
    mat: np.ndarray

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (self.dims.order, self.dims.order):
            raise ValueError(
                f"matrix shape {m.shape} does not match dims "
                f"{self.dims.dim_h}x{self.dims.dim_k}"
            )
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("state matrix contains non-finite entries")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class PureState:
    """A normalized pure state given by its coefficient matrix.

    ``coeffs[i, j]`` is the amplitude on |i+1, (j+1)'>; the matrix has shape
    dim_h x dim_k and unit Frobenius norm.
    """

    dims: BipartiteDims
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.dims.dim_h, self.dims.dim_k):
            raise ValueError(
                f"coefficient shape {c.shape} does not match dims "
                f"{self.dims.dim_h}x{self.dims.dim_k}"
            )
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"pure state is not normalized: ||C|| = {norm!r}")
        object.__setattr__(self, "coeffs", c)

    def density(self, ordering: str = H_MAJOR) -> DensityMatrix:
        """|psi><psi| as a DensityMatrix."""
        vec = self.coeffs.reshape(-1)  # h_major vectorization
        rho = DensityMatrix(self.dims, H_MAJOR, np.outer(vec, vec.conj()))
        return reorder(rho, ordering)


def basis_index(i: int, j: int, dims: BipartiteDims, ordering: str) -> int:
    """1-based position of the product ket |i, j'> under the ordering."""
    if not (1 <= i <= dims.dim_h and 1 <= j <= dims.dim_k):
        raise ValueError(
            f"basis labels ({i},{j}) out of range for {dims.dim_h}x{dims.dim_k}"
        )
    if ordering == H_MAJOR:
        return (i - 1) * dims.dim_k + j
    if ordering == K_MAJOR:
        return (j - 1) * dims.dim_h + i
    raise ValueError(f"unknown ordering {ordering!r}")


def _k_to_h_perm(dims: BipartiteDims) -> np.ndarray:
    """perm[h_pos] = k_pos, so mat_h = mat_k[ix_(perm, perm)] (0-based)."""
    dh, dk = dims.dim_h, dims.dim_k
    return (np.arange(dk) * dh + np.arange(dh)[:, None]).ravel()


def reorder(rho: DensityMatrix, target: str) -> DensityMatrix:
    """The same state expressed in the target basis ordering."""
    if target not in ORDERINGS:
        raise ValueError(f"unknown ordering {target!r}")
    if target == rho.ordering:
        return rho
    perm = _k_to_h_perm(rho.dims)
    if target == H_MAJOR:
        mat = rho.mat[np.ix_(perm, perm)]
    else:
        inv = np.argsort(perm)
        mat = rho.mat[np.ix_(inv, inv)]
    return DensityMatrix(rho.dims, target, mat)


def validate(rho: DensityMatrix) -> list:
    """Diagnostic check of the three state invariants.

    Returns an empty list when the state is Hermitian (entrywise, relative
    to its largest modulus), has unit trace, and is positive semidefinite up
    to eigensolver noise. Each violation is reported as a human-readable
    string naming the invariant and the measured defect.
    """
    violations = []
    m = rho.mat
    herm_defect = float(numkit.hermitian_defect(m))
    if herm_defect > HERMITICITY_TOL:
        violations.append(
            f"hermiticity: max |m - m^dagger| / max |m| = {herm_defect:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e}"
        )
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        violations.append(f"trace: expected 1, got {tr.real:.12g}{tr.imag:+.3e}j")
    if not violations:
        min_eig = float(numkit.hermitian_eigenvalues(m)[-1])
        if min_eig < POSITIVITY_TOL:
            violations.append(
                f"positivity: minimum eigenvalue {min_eig:.3e} below {POSITIVITY_TOL:.0e}"
            )
    return violations


def maximally_entangled(n: int, dims: BipartiteDims, ordering: str = H_MAJOR) -> DensityMatrix:
    """rho_+ for the uniform rank-n entangled vector, embedded in dims.

    The vector is (|1,1'> + ... + |n,n'>)/sqrt(n); n must not exceed either
    factor dimension.
    """
    if not (2 <= n <= min(dims.dim_h, dims.dim_k)):
        raise ValueError(
            f"n = {n} out of range 2..{min(dims.dim_h, dims.dim_k)} for dims "
            f"{dims.dim_h}x{dims.dim_k}"
        )
    coeffs = np.zeros((dims.dim_h, dims.dim_k), dtype=complex)
    coeffs[np.arange(n), np.arange(n)] = 1.0 / np.sqrt(n)
    return PureState(dims, coeffs).density(ordering)


def schmidt(psi: PureState) -> np.ndarray:
    """Schmidt coefficients, descending: singular values of the coefficient
    matrix."""
    return numkit.singular_values(psi.coeffs)


def _check_domain(pairs, one_sum, products):
    """Shared domain validation for the example families.

    ``pairs``: (name, value) for the diagonal weights; ``one_sum``: their
    required total; ``products``: (name, |amp|^2, bound_name, bound) for the
    off-diagonal amplitudes.
    """
    for name, val in pairs:
        if val < -1e-15:
            raise DomainError(f"{name} must be nonnegative, got {val}")
    total = sum(v for _, v in pairs)
    if abs(total - one_sum) > 1e-12:
        names = "+".join(n for n, _ in pairs)
        raise DomainError(f"{names} must equal {one_sum}, got {total!r}")
    for name, sq, bound_name, bound in products:
        if sq > bound + 1e-12:
            raise DomainError(
                f"|{name}|^2 <= {bound_name} violated: |{name}|^2 = {sq:.6g}, "
                f"{bound_name} = {bound:.6g}"
            )


def example_34(q1: float, q2: float, q3: float, a: complex, b: complex, c: complex) -> DensityMatrix:
    """The 3x3-block one-parameter-family state (9x9, k_major, scale 1/3).

    Weights q1, q2, q3 must be nonnegative and sum to 1; the off-diagonal
    amplitudes a, b, c must each satisfy |.|^2 <= q2*q3 (the 2x2 positivity
    bound of the blocks they live in).
    """
    _check_domain(
        [("q1", q1), ("q2", q2), ("q3", q3)], 1.0,
        [("a", abs(a) ** 2, "q2*q3", q2 * q3),
         ("b", abs(b) ** 2, "q2*q3", q2 * q3),
         ("c", abs(c) ** 2, "q2*q3", q2 * q3)],
    )
    ac, bc, cc = np.conj(a), np.conj(b), np.conj(c)
    M = np.array([
        [q1, 0,  0,  0,  q1, 0,  0,  0,  q1],
        [0,  q3, a,  0,  0,  0,  0,  0,  0],
        [0,  ac, q2, 0,  0,  0,  0,  0,  0],
        [0,  0,  0,  q2, 0,  b,  0,  0,  0],
        [q1, 0,  0,  0,  q1, 0,  0,  0,  q1],
        [0,  0,  0,  bc, 0,  q3, 0,  0,  0],
        [0,  0,  0,  0,  0,  0,  q3, c,  0],
        [0,  0,  0,  0,  0,  0,  cc, q2, 0],
        [q1, 0,  0,  0,  q1, 0,  0,  0,  q1],
    ], dtype=complex)
    return DensityMatrix(BipartiteDims(3, 3), K_MAJOR, M / 3.0)


def example_35(q1: float, q2: float, q3: float, q4: float,
               a: complex, b: complex, c: complex, d: complex) -> DensityMatrix:
    """The 4x4-block companion family (16x16, k_major, scale 1/4).

    Weights q1..q4 sum to 1; each off-diagonal amplitude obeys
    |.|^2 <= q3*q4.
    """
    _check_domain(
        [("q1", q1), ("q2", q2), ("q3", q3), ("q4", q4)], 1.0,
        [("a", abs(a) ** 2, "q3*q4", q3 * q4),
         ("b", abs(b) ** 2, "q3*q4", q3 * q4),
         ("c", abs(c) ** 2, "q3*q4", q3 * q4),
         ("d", abs(d) ** 2, "q3*q4", q3 * q4)],
    )
    ac, bc, cc, dc = np.conj(a), np.conj(b), np.conj(c), np.conj(d)
    M = np.array([
        [q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1],
        [0,  q4, a,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
        [0,  ac, q3, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  q2, q2, 0,  0,  0,  0,  q2, 0,  0,  0,  0,  q2, 0],
        [0,  0,  0,  q2, q2, 0,  0,  0,  0,  q2, 0,  0,  0,  0,  q2, 0],
        [q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1],
        [0,  0,  0,  0,  0,  0,  q4, b,  0,  0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  bc, q3, 0,  0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  q3, 0,  0,  c,  0,  0,  0,  0],
        [0,  0,  0,  q2, q2, 0,  0,  0,  0,  q2, 0,  0,  0,  0,  q2, 0],
        [q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1],
        [0,  0,  0,  0,  0,  0,  0,  0,  cc, 0,  0,  q4, 0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q4, d,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  dc, q3, 0,  0],
        [0,  0,  0,  q2, q2, 0,  0,  0,  0,  q2, 0,  0,  0,  0,  q2, 0],
        [q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q1],
    ], dtype=complex)
    return DensityMatrix(BipartiteDims(4, 4), K_MAJOR, M / 4.0)


def partial_transpose_first(rho: DensityMatrix) -> np.ndarray:
    """Transpose of the H factor, returned in the state's own ordering.

    Entrywise: <i,j'| out |k,l'> = <k,j'| rho |i,l'>.
    """
    dh, dk = rho.dims.dim_h, rho.dims.dim_k
    D = rho.dims.order
    if rho.ordering == H_MAJOR:
        return rho.mat.reshape(dh, dk, dh, dk).transpose(2, 1, 0, 3).reshape(D, D)
    return rho.mat.reshape(dk, dh, dk, dh).transpose(0, 3, 2, 1).reshape(D, D)


def realignment(rho: DensityMatrix) -> np.ndarray:
    """Block-to-row realignment, a dh^2 x dk^2 matrix.

    Working from the h_major block form rho = [A_ik] with
    A_ik[j, l] = <i,j'| rho |k,l'>, the output row is indexed by (i, k) with
    k fastest and the column by (j, l) with l fastest:
    out[(i,k), (j,l)] = A_ik[j, l]. Both orderings are read in place.
    """
    dh, dk = rho.dims.dim_h, rho.dims.dim_k
    if rho.ordering == H_MAJOR:
        out = rho.mat.reshape(dh, dk, dh, dk).transpose(0, 2, 1, 3)
    else:
        out = rho.mat.reshape(dk, dh, dk, dh).transpose(1, 3, 0, 2)
    return out.reshape(dh * dh, dk * dk)


def random_separable(dims: BipartiteDims, terms: int, seed: int) -> DensityMatrix:
    """A seeded convex combination of random pure product states (h_major).

    Weights are uniform on the simplex; each product factor is a normalized
    complex-normal vector. The output is separable by construction, so it is
    the standard negative control for every detection criterion.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    D = dims.order
    mat = np.zeros((D, D), dtype=complex)
    for t in range(terms):
        x = rng.standard_normal(dims.dim_h) + 1j * rng.standard_normal(dims.dim_h)
        y = rng.standard_normal(dims.dim_k) + 1j * rng.standard_normal(dims.dim_k)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        v = np.kron(x, y)
        mat += weights[t] * np.outer(v, v.conj())
    return DensityMatrix(dims, H_MAJOR, mat)


# ----------------------------------------------------------------- JSON I/O

def state_to_dict(rho: DensityMatrix) -> dict:
    """Shared JSON form: dims, ordering, and [re, im] pairs row-major."""
    entries = [[float(z.real), float(z.imag)] for z in rho.mat.reshape(-1)]
    return {
        "dim_h": rho.dims.dim_h,
        "dim_k": rho.dims.dim_k,
        "ordering": rho.ordering,
        "entries": entries,
    }


def state_from_dict(payload: dict) -> DensityMatrix:
    """Parse and validate the shared JSON form.

    Rejects, with a FormatError naming the field (and the index of a bad
    entry), an ``entries`` that is not a list, wrong entry counts, entries
    that are not pairs of finite numbers, unknown orderings, and states
    failing the physics invariants (all violations listed).
    """
    try:
        dims = BipartiteDims(int(payload["dim_h"]), int(payload["dim_k"]))
        ordering = payload["ordering"]
        entries = payload["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad state payload: {exc}") from exc
    if ordering not in ORDERINGS:
        raise FormatError(f"field 'ordering' must be one of {ORDERINGS}, got {ordering!r}")
    D = dims.order
    if not isinstance(entries, (list, tuple)):
        raise FormatError(
            f"field 'entries' must be a list of [re, im] pairs, got {type(entries).__name__}"
        )
    if len(entries) != D * D:
        raise FormatError(
            f"field 'entries' must have {D * D} [re, im] pairs, got {len(entries)}"
        )
    flat = np.empty(D * D, dtype=complex)
    for idx, pair in enumerate(entries):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise FormatError(f"entries[{idx}] is not an [re, im] pair")
        try:
            re, im = float(pair[0]), float(pair[1])
        except (TypeError, ValueError):
            raise FormatError(f"entries[{idx}] is not a pair of numbers: {pair!r}") from None
        if not (np.isfinite(re) and np.isfinite(im)):
            raise FormatError(f"entries[{idx}] is not finite")
        flat[idx] = complex(re, im)
    rho = DensityMatrix(dims, ordering, flat.reshape(D, D))
    violations = validate(rho)
    if violations:
        raise FormatError("state fails validation: " + "; ".join(violations))
    return rho

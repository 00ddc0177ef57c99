"""Entanglement witnesses built from permutation-indexed positive maps.

The two families implemented here:

* a rank-4 witness supported on a 2x2-dimensional corner of H (x) K, plus
  its rotations by local unitaries, and
* for each permutation triple (kappa, pi, sigma) on {1..n} with kappa != id,
  a positive-but-not-completely-positive map together with its Choi matrix,
  which is the witness the entry-based detection layer scores states
  against.

Maps act entrywise (O(n^2)); the Choi construction realizes the same
witnesses as dense matrices, and the two routes are kept independent so one
can be tested against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .states import (
    BipartiteDims,
    DensityMatrix,
    H_MAJOR,
    K_MAJOR,
    ORDERINGS,
    basis_index,
    reorder,
)

__all__ = [
    "NEGATIVITY_TOL",
    "NotAWitnessError",
    "Permutation",
    "WitnessSpec",
    "Witness",
    "phi_rank4",
    "rank4_witness",
    "rotated_rank4_value",
    "conjugate_witness",
    "phi_kappa",
    "phi_kappa_ps",
    "choi_witness",
    "witness_kps",
    "witness_value",
    "witness_to_dict",
    "witness_from_dict",
]

# A witness must have at least one eigenvalue this far below zero.
NEGATIVITY_TOL = -1e-10

ORTHO_TOL = 1e-10
UNITARY_TOL = 1e-10


class NotAWitnessError(ValueError):
    """The candidate matrix fails a witness invariant (Hermitian, non-positive)."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images (1-based)."""

    image: tuple

    def __post_init__(self):
        img = tuple(int(v) for v in self.image)
        n = len(img)
        if n == 0 or sorted(img) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image!r}")
        object.__setattr__(self, "image", img)

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"argument {i} outside 1..{self.n}")
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: result(i) = self(other(i))."""
        if other.n != self.n:
            raise ValueError(f"cannot compose permutations on {self.n} and {other.n} letters")
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    def is_identity(self) -> bool:
        return self.image == tuple(range(1, self.n + 1))


@dataclass(frozen=True)
class WitnessSpec:
    """Parameters (n, kappa, pi, sigma) of a permutation witness on dims."""

    n: int
    kappa: Permutation
    pi: Permutation
    sigma: Permutation
    dims: BipartiteDims

    def __post_init__(self):
        lo, hi = 2, min(self.dims.dim_h, self.dims.dim_k)
        if not lo <= self.n <= hi:
            raise ValueError(
                f"n = {self.n} outside {lo}..{hi} for dims "
                f"{self.dims.dim_h}x{self.dims.dim_k}"
            )
        for name, p in (("kappa", self.kappa), ("pi", self.pi), ("sigma", self.sigma)):
            if p.n != self.n:
                raise ValueError(f"{name} acts on {p.n} letters, expected {self.n}")
        if self.kappa.is_identity():
            raise ValueError(
                "kappa must not be the identity (the map is completely positive "
                "there and admits no witness)"
            )


@dataclass(frozen=True)
class Witness:
    """A realized witness matrix: Hermitian with an eigenvalue < -1e-10.

    ``spec`` is either a :class:`WitnessSpec` or the tag ``"rank4"``. Both
    invariants are enforced at construction, so holding a Witness means
    holding something that can actually detect.
    """

    spec: object
    dims: BipartiteDims
    ordering: str
    mat: np.ndarray

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        m = np.asarray(self.mat, dtype=complex)
        D = self.dims.order
        if m.shape != (D, D):
            raise ValueError(f"witness shape {m.shape} does not match dims order {D}")
        defect = float(numkit.hermitian_defect(m))
        if defect > 1e-10:
            raise NotAWitnessError(
                f"witness matrix is not Hermitian: max |W - W^dagger| / max |W| = {defect:.3e}"
            )
        object.__setattr__(self, "mat", m)
        min_eig = float(numkit.hermitian_eigenvalues(m)[-1])
        if not min_eig < NEGATIVITY_TOL:
            raise NotAWitnessError(
                f"matrix is positive within tolerance (min eigenvalue {min_eig:.3e}); "
                "it cannot detect anything"
            )


def phi_rank4(a: np.ndarray) -> np.ndarray:
    """The positive map behind the rank-4 witness.

    Acts on the leading 2x2 block as
    [[a11, a12], [a21, a22]] -> [[a22, -a12], [-a21, a11]]
    and sends everything else to zero. Positive but not completely positive.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("matrix order must be >= 2")
    out = np.zeros_like(a)
    out[0, 0] = a[1, 1]
    out[0, 1] = -a[0, 1]
    out[1, 0] = -a[1, 0]
    out[1, 1] = a[0, 0]
    return out


def rank4_witness(dims: BipartiteDims, ordering: str = H_MAJOR) -> Witness:
    """|1,2'><1,2'| + |2,1'><2,1'| - |1,1'><2,2'| - |2,2'><1,1'| in dims.

    Rank 4, eigenvalues {1, 1, 1, -1} on its support.
    """
    D = dims.order
    W = np.zeros((D, D), dtype=complex)
    terms = [
        (1.0, (1, 2), (1, 2)),
        (1.0, (2, 1), (2, 1)),
        (-1.0, (1, 1), (2, 2)),
        (-1.0, (2, 2), (1, 1)),
    ]
    for coeff, ket, bra in terms:
        r = basis_index(ket[0], ket[1], dims, ordering) - 1
        c = basis_index(bra[0], bra[1], dims, ordering) - 1
        W[r, c] += coeff
    return Witness("rank4", dims, ordering, W)


def _check_pair(u1, u2, dim, label):
    u1 = np.asarray(u1, dtype=complex).reshape(-1)
    u2 = np.asarray(u2, dtype=complex).reshape(-1)
    if u1.shape != (dim,) or u2.shape != (dim,):
        raise ValueError(f"{label} vectors must have length {dim}")
    n1 = abs(np.linalg.norm(u1) - 1.0)
    n2 = abs(np.linalg.norm(u2) - 1.0)
    ov = abs(np.vdot(u1, u2))
    if n1 > ORTHO_TOL or n2 > ORTHO_TOL or ov > ORTHO_TOL:
        raise ValueError(
            f"{label} vectors are not an orthonormal pair: "
            f"norm defects ({n1:.3e}, {n2:.3e}), overlap {ov:.3e}"
        )
    return u1, u2


def rotated_rank4_value(rho: DensityMatrix, x, z, y, w) -> float:
    """Tr(W' rho) for the rank-4 witness rotated into the frames (x,z), (y,w).

    (x, z) must be an orthonormal pair in H and (y, w) one in K. With
    W' = |x,w><x,w| + |z,y><z,y| - |x,y><z,w| - |z,w><x,y| the value is

        <x(x)w| rho |x(x)w> + <z(x)y| rho |z(x)y> - 2 Re <x(x)y| rho |z(x)w>.

    On a product state e (x) f this equals |<x|e><w|f> - <z|e><y|f>|^2 >= 0,
    so a negative value certifies entanglement. When x, z and y, w are
    Schmidt vectors of a pure state the two quadratic terms vanish and only
    the cross term -2 Re <x(x)y| rho |z(x)w> survives.
    """
    x, z = _check_pair(x, z, rho.dims.dim_h, "H-side")
    y, w = _check_pair(y, w, rho.dims.dim_k, "K-side")
    m = reorder(rho, H_MAJOR).mat
    xw = np.kron(x, w)
    zy = np.kron(z, y)
    xy = np.kron(x, y)
    zw = np.kron(z, w)
    val = (
        np.vdot(xw, m @ xw).real
        + np.vdot(zy, m @ zy).real
        - 2.0 * np.vdot(xy, m @ zw).real
    )
    return float(val)


def _check_unitary(u, label):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{label} must be a square matrix, got shape {u.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > UNITARY_TOL:
        raise ValueError(f"{label} is not unitary: max |u^dagger u - I| = {defect:.3e}")
    return u


def conjugate_witness(w: Witness, u, v) -> Witness:
    """(u (x) v) W (u (x) v)^dagger -- the witness in rotated local frames."""
    u = _check_unitary(u, "u")
    v = _check_unitary(v, "v")
    if u.shape[0] != w.dims.dim_h or v.shape[0] != w.dims.dim_k:
        raise ValueError(
            f"unitary sizes {u.shape[0]}x{v.shape[0]} do not match witness dims "
            f"{w.dims.dim_h}x{w.dims.dim_k}"
        )
    big = np.kron(u, v) if w.ordering == H_MAJOR else np.kron(v, u)
    mat = big @ w.mat @ big.conj().T
    return Witness(w.spec, w.dims, w.ordering, 0.5 * (mat + mat.conj().T))


def phi_kappa(a: np.ndarray, n: int, kappa: Permutation) -> np.ndarray:
    """The permutation map with pi = sigma = id, acting entrywise.

    On the leading n x n block: diagonal entry i becomes
    (n-2) a_ii + a_{kappa(i) kappa(i)}, off-diagonal entries flip sign, and
    rows/columns beyond n are zeroed. Positive for every kappa; completely
    positive only when kappa = id.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n < 2 or a.shape[0] < n:
        raise ValueError(f"need matrix order >= n >= 2, got order {a.shape[0]}, n = {n}")
    if kappa.n != n:
        raise ValueError(f"kappa acts on {kappa.n} letters, expected {n}")
    out = np.zeros_like(a)
    out[:n, :n] = -a[:n, :n]
    for i in range(1, n + 1):
        k = kappa(i)
        out[i - 1, i - 1] = (n - 2) * a[i - 1, i - 1] + a[k - 1, k - 1]
    return out


def phi_kappa_ps(a: np.ndarray, spec: WitnessSpec) -> np.ndarray:
    """The (kappa, pi, sigma) map, acting entrywise on the leading n x n block.

    Matrix units map as E_ij -> -E_{sp(i), sp(j)} for i != j and
    E_ii -> (n-2) E_{sp(i), sp(i)} + E_{sk(i), sk(i)}, where
    sp = sigma pi^{-1} and sk = sigma kappa^{-1} pi^{-1}; indices beyond n
    are annihilated. With pi = sigma = id this is :func:`phi_kappa`.
    """
    a = np.asarray(a, dtype=complex)
    n = spec.n
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < n:
        raise ValueError(f"matrix order {a.shape[0]} smaller than n = {n}")
    pi_inv = spec.pi.inverse()
    kappa_inv = spec.kappa.inverse()
    sp = [spec.sigma(pi_inv(i)) for i in range(1, n + 1)]
    sk = [spec.sigma(kappa_inv(pi_inv(i))) for i in range(1, n + 1)]
    out = np.zeros_like(a)
    for i in range(1, n + 1):
        out[sp[i - 1] - 1, sp[i - 1] - 1] += (n - 2) * a[i - 1, i - 1]
        out[sk[i - 1] - 1, sk[i - 1] - 1] += a[i - 1, i - 1]
        for j in range(1, n + 1):
            if i != j:
                out[sp[i - 1] - 1, sp[j - 1] - 1] -= a[i - 1, j - 1]
    return out


def choi_witness(map_fn, n: int, dims: BipartiteDims) -> Witness:
    """The Choi matrix of ``map_fn``: block (i, j) holds map_fn(E_ij).

    Blocks run over i, j = 1..n and the result is laid out k_major, so the
    (i, j) block is the dim_h x dim_h image of the matrix unit E_ij. Equals
    n (Phi (x) I) rho_+ for the uniform rank-n entangled state. Raises when
    the map is not Hermiticity-preserving or when the Choi matrix is
    positive (completely positive maps yield no witness).
    """
    dh = dims.dim_h
    if not 2 <= n <= min(dims.dim_h, dims.dim_k):
        raise ValueError(
            f"n = {n} outside 2..{min(dims.dim_h, dims.dim_k)} for dims "
            f"{dims.dim_h}x{dims.dim_k}"
        )
    D = dims.order
    W = np.zeros((D, D), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((dh, dh), dtype=complex)
            e[i, j] = 1.0
            blk = np.asarray(map_fn(e), dtype=complex)
            if blk.shape != (dh, dh):
                raise ValueError(
                    f"map returned shape {blk.shape}, expected {(dh, dh)}"
                )
            W[i * dh:(i + 1) * dh, j * dh:(j + 1) * dh] = blk
    defect = float(numkit.hermitian_defect(W))
    if defect > 1e-10:
        raise ValueError(
            f"map is not Hermiticity-preserving: relative Choi defect {defect:.3e}"
        )
    return Witness("choi", dims, K_MAJOR, W)


def witness_kps(spec: WitnessSpec, ordering: str = K_MAJOR) -> Witness:
    """The explicit witness of a permutation triple, as a dense matrix.

    W = (n-2) sum_i |sp(i), i'><sp(i), i'| + sum_i |sk(i), i'><sk(i), i'|
        - sum_{i != j} |sp(i), i'><sp(j), j'|

    with sp = sigma pi^{-1}, sk = sigma kappa^{-1} pi^{-1}. Coincident
    diagonal positions accumulate. Entrywise equal to
    choi_witness(phi_kappa_ps(., spec), n, dims).
    """
    n, dims = spec.n, spec.dims
    pi_inv = spec.pi.inverse()
    kappa_inv = spec.kappa.inverse()
    sp = [spec.sigma(pi_inv(i)) for i in range(1, n + 1)]
    sk = [spec.sigma(kappa_inv(pi_inv(i))) for i in range(1, n + 1)]
    D = dims.order
    W = np.zeros((D, D), dtype=complex)
    pos = [basis_index(sp[i - 1], i, dims, ordering) - 1 for i in range(1, n + 1)]
    for i in range(1, n + 1):
        W[pos[i - 1], pos[i - 1]] += n - 2
        q = basis_index(sk[i - 1], i, dims, ordering) - 1
        W[q, q] += 1.0
        for j in range(1, n + 1):
            if i != j:
                W[pos[i - 1], pos[j - 1]] -= 1.0
    return Witness(spec, dims, ordering, W)


def witness_value(w: Witness, rho: DensityMatrix) -> float:
    """Tr(W rho); negative means rho is detected as entangled."""
    if rho.dims != w.dims:
        raise ValueError(
            f"dimension mismatch: witness on {w.dims.dim_h}x{w.dims.dim_k}, "
            f"state on {rho.dims.dim_h}x{rho.dims.dim_k}"
        )
    m = reorder(rho, w.ordering).mat
    val = complex(np.einsum("ij,ji->", w.mat, m))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"witness value has imaginary part {val.imag:.3e}")
    return float(val.real)


# ----------------------------------------------------------------- JSON I/O

def witness_to_dict(w: Witness, include_matrix: bool = False) -> dict:
    """Witness JSON: family tag, permutation data, dims, optional matrix."""
    if isinstance(w.spec, WitnessSpec):
        payload = {
            "type": "kps",
            "n": w.spec.n,
            "kappa": list(w.spec.kappa.image),
            "pi": list(w.spec.pi.image),
            "sigma": list(w.spec.sigma.image),
        }
    else:
        payload = {"type": str(w.spec)}
    payload["dim_h"] = w.dims.dim_h
    payload["dim_k"] = w.dims.dim_k
    payload["ordering"] = w.ordering
    if include_matrix:
        payload["matrix"] = [[float(z.real), float(z.imag)] for z in w.mat.reshape(-1)]
    return payload


def witness_from_dict(payload: dict) -> Witness:
    """Rebuild a witness from its JSON form (the matrix field is ignored)."""
    try:
        kind = payload["type"]
        dims = BipartiteDims(int(payload["dim_h"]), int(payload["dim_k"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad witness payload: {exc}") from exc
    ordering = payload.get("ordering", H_MAJOR)
    if ordering not in ORDERINGS:
        raise ValueError(f"field 'ordering' must be one of {ORDERINGS}, got {ordering!r}")
    if kind == "rank4":
        return rank4_witness(dims, ordering)
    if kind == "kps":
        try:
            spec = WitnessSpec(
                int(payload["n"]),
                Permutation(tuple(payload["kappa"])),
                Permutation(tuple(payload["pi"])),
                Permutation(tuple(payload["sigma"])),
                dims,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad witness payload: {exc}") from exc
        return witness_kps(spec, ordering)
    raise ValueError(f"unknown witness type {kind!r}")

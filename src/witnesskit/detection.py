"""Entanglement verdicts: PPT, realignment, entry-based search, distillability.

Four criteria, each sufficient for entanglement and silent otherwise:

* ``ppt_check`` -- negative partial-transpose eigenvalue.
* ``ccnr_check`` -- realignment trace norm above 1.
* ``entry_search`` -- minimizes a value read off n diagonal entries, n more
  diagonal entries, and the off-diagonal entries coupling the first set,
  over permutation choices. A negative minimum comes with an index
  certificate and the permutation witness realizing the same value.
* ``distill_search`` -- looks for orthonormal pairs (x, z) in H and (y, w)
  in K making a rotated rank-4 witness negative; success additionally
  certifies 1-distillability. All restarts are refined together as one
  stacked numpy batch; each seed follows its own trajectory and stopping
  rule, so the batch finds what refining the seeds one by one would, up
  to rounding.

The searches are deterministic for a fixed seed. Certificates are always
re-verified against the witness layer before being returned, so a returned
certificate is sound even though a ``None`` proves nothing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import numkit, states
from .states import BipartiteDims, DensityMatrix, H_MAJOR, K_MAJOR, PureState, basis_index, reorder
from .witnesses import Permutation, WitnessSpec, rotated_rank4_value

__all__ = [
    "FIRE_TOL",
    "MAX_RESTARTS",
    "PPT_TOL",
    "CCNR_TOL",
    "InfeasibleAssignmentError",
    "EntryCertificate",
    "DistillCertificate",
    "DetectConfig",
    "DetectionReport",
    "ppt_check",
    "ccnr_check",
    "entry_value_indices",
    "entry_value_perms",
    "indices_to_perms",
    "assignment_min_forbidden",
    "entry_search",
    "pure_check",
    "distill_search",
    "detect",
    "report_to_dict",
]

# A criterion fires only strictly below this, keeping eigensolver and
# arithmetic noise from ever producing a false entanglement claim.
FIRE_TOL = -1e-10
# The distill search refines all its seeds as one stacked batch, so it
# bounds the batch it allocates.
MAX_RESTARTS = 1000
PPT_TOL = -1e-9
CCNR_TOL = 1e-9


def _check_restarts(value, name):
    if not isinstance(value, (int, np.integer)) or not 1 <= value <= MAX_RESTARTS:
        raise ValueError(f"{name} must be an integer in 1..{MAX_RESTARTS}, got {value!r}")


class InfeasibleAssignmentError(ValueError):
    """No permutation avoids the forbidden cells."""


@dataclass(frozen=True)
class EntryCertificate:
    """An entry-based entanglement certificate.

    ``k_indices``/``h_indices`` are the global k_major positions of the
    diagonal entries involved; ``pi1``/``sigma1`` their block residues. The
    value equals the trace of the associated permutation witness against
    the state, so the certificate can be checked independently.
    """

    n: int
    k_indices: tuple
    h_indices: tuple
    pi1: Permutation
    sigma1: Permutation
    value: float
    witness_spec: WitnessSpec


@dataclass(frozen=True)
class DistillCertificate:
    """Orthonormal pairs making the rotated rank-4 witness negative.

    x, z: orthonormal pair in H; y, w: orthonormal pair in K. A negative
    value certifies the state is entangled and 1-distillable.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    value: float


@dataclass(frozen=True)
class DetectConfig:
    n_cap: int = 6           # largest block size tried by the entry search
    exact_max: int = 6       # exact enumeration up to here, heuristic beyond
    distill_restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_restarts(self.distill_restarts, "distill_restarts")


@dataclass(frozen=True)
class DetectionReport:
    ppt_min_eig: float
    ccnr_norm: float
    entry_best: object
    distill_best: object
    verdict: str
    fired: tuple
    timings_ms: dict = field(default_factory=dict)


def ppt_check(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; < -1e-9 means entangled."""
    pt = states.partial_transpose_first(rho)
    return numkit.hermitian_eigenvalues(0.5 * (pt + pt.conj().T)).min


def ccnr_check(rho: DensityMatrix) -> float:
    """Trace norm of the realignment; > 1 + 1e-9 means entangled."""
    return numkit.trace_norm(states.realignment(rho))


def _check_entry_indices(k, h, n):
    """Validate the index-set rules, naming the violated constraint."""
    k = tuple(int(v) for v in k)
    h = tuple(int(v) for v in h)
    if len(k) != n or len(h) != n:
        raise ValueError(f"need {n} k-indices and {n} h-indices, got {len(k)} and {len(h)}")
    for name, idx in (("k", k), ("h", h)):
        for i, v in enumerate(idx, start=1):
            lo, hi = (i - 1) * n, i * n
            if not lo < v <= hi:
                raise ValueError(
                    f"block range: {name}_{i} = {v} outside ({lo}, {hi}]"
                )
    for i in range(n):
        if k[i] == h[i]:
            raise ValueError(f"k_{i + 1} = h_{i + 1} = {k[i]}; the two index sets must differ in every slot")
    target = n * (n * n + 1) // 2
    for name, idx in (("k", k), ("h", h)):
        res = tuple(idx[i] - i * n for i in range(n))
        if sorted(res) != list(range(1, n + 1)):
            msg = f"residues of the {name}-indices {res} are not a permutation of 1..{n}"
            if sum(idx) == target:
                msg += " (the index-sum condition alone is not sufficient)"
            raise ValueError(msg)
    return k, h


def entry_value_indices(rho: DensityMatrix, k, h) -> float:
    """The entry criterion value read directly off the matrix entries.

    Indices are 1-based global positions in k_major ordering on an n (x) n
    state (order n^2):

        (n-2) * sum_i rho[k_i, k_i] + sum_i rho[h_i, h_i]
              - sum_{i != j} rho[k_i, k_j]

    Negative output certifies entanglement.
    """
    n = len(k)
    if rho.dims.dim_h != n or rho.dims.dim_k != n:
        raise ValueError(
            f"index form needs an n (x) n state with n = {n}, "
            f"got {rho.dims.dim_h}x{rho.dims.dim_k}"
        )
    k, h = _check_entry_indices(k, h, n)
    m = reorder(rho, K_MAJOR).mat
    kp = np.array(k) - 1
    hp = np.array(h) - 1
    sub = m[np.ix_(kp, kp)]
    tr = sub.trace()
    val = (n - 2) * tr + m[hp, hp].sum() - (sub.sum() - tr)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"entry value has imaginary part {val.imag:.3e}")
    return float(val.real)


def entry_value_perms(rho: DensityMatrix, n: int, pi: Permutation, sigma: Permutation) -> float:
    """The entry criterion value in permutation form, any ambient dims.

        (n-2) sum_i <pi(i), i'| rho |pi(i), i'>
            + sum_i <sigma(i), i'| rho |sigma(i), i'>
            - sum_{i != j} <pi(i), i'| rho |pi(j), j'>

    requires pi(i) != sigma(i) in every slot.
    """
    dims = rho.dims
    if not 2 <= n <= min(dims.dim_h, dims.dim_k):
        raise ValueError(
            f"n = {n} outside 2..{min(dims.dim_h, dims.dim_k)} for dims "
            f"{dims.dim_h}x{dims.dim_k}"
        )
    if pi.n != n or sigma.n != n:
        raise ValueError(f"permutations act on {pi.n}/{sigma.n} letters, expected {n}")
    clashes = [i for i in range(1, n + 1) if pi(i) == sigma(i)]
    if clashes:
        raise ValueError(f"pi and sigma coincide at slots {clashes}; they must differ everywhere")
    m = rho.mat
    o = rho.ordering
    p = np.array([basis_index(pi(i), i, dims, o) - 1 for i in range(1, n + 1)])
    q = np.array([basis_index(sigma(i), i, dims, o) - 1 for i in range(1, n + 1)])
    sub = m[np.ix_(p, p)]
    tr = sub.trace()
    val = (n - 2) * tr + m[q, q].sum() - (sub.sum() - tr)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"entry value has imaginary part {val.imag:.3e}")
    return float(val.real)


def indices_to_perms(k, h, n: int, dims: BipartiteDims = None):
    """Residue permutations and the witness spec behind an index pair.

    Returns (pi1, sigma1, spec) with pi1(i) = k_i - (i-1)n,
    sigma1(i) = h_i - (i-1)n, and spec = (kappa = sigma1^{-1} pi1, pi = id,
    sigma = pi1) on dims (default n (x) n). The witness of ``spec`` traced
    against any state reproduces entry_value_indices for (k, h).
    """
    k, h = _check_entry_indices(k, h, n)
    pi1 = Permutation(tuple(k[i] - i * n for i in range(n)))
    sigma1 = Permutation(tuple(h[i] - i * n for i in range(n)))
    kappa = sigma1.inverse().compose(pi1)
    if dims is None:
        dims = BipartiteDims(n, n)
    spec = WitnessSpec(n, kappa, Permutation.identity(n), pi1, dims)
    return pi1, sigma1, spec


def _lsa_total(C) -> float:
    try:
        r, c = linear_sum_assignment(C)
    except ValueError as exc:
        raise InfeasibleAssignmentError(
            f"no permutation avoids the forbidden cells: {exc}"
        ) from exc
    total = float(C[r, c].sum())
    if not np.isfinite(total):
        raise InfeasibleAssignmentError("no permutation avoids the forbidden cells")
    return total


def assignment_min_forbidden(cost, forbidden=()):
    """Minimize sum_i cost[sigma(i), i] over permutations avoiding cells.

    ``forbidden`` holds 1-based (value, slot) pairs that sigma must avoid.
    Exact optimum; among permutations within 1e-12 of it, the one with
    lexicographically smallest image is returned.
    """
    C0 = np.asarray(cost, dtype=float)
    if C0.ndim != 2 or C0.shape[0] != C0.shape[1]:
        raise ValueError(f"cost must be square, got shape {C0.shape}")
    n = C0.shape[0]
    C = C0.copy()
    for v, i in forbidden:
        if not (1 <= v <= n and 1 <= i <= n):
            raise ValueError(f"forbidden cell ({v}, {i}) outside 1..{n}")
        C[v - 1, i - 1] = np.inf
    best_total = _lsa_total(C)
    # Lexicographic refinement: fix slots left to right, keeping optimality.
    W = C.copy()
    image = []
    used = set()
    for i in range(n):
        chosen = None
        for v in range(1, n + 1):
            if v in used or not np.isfinite(W[v - 1, i]):
                continue
            T = W.copy()
            T[:, i] = np.inf
            T[v - 1, i] = W[v - 1, i]
            try:
                total = _lsa_total(T)
            except InfeasibleAssignmentError:
                continue
            if total <= best_total + 1e-12:
                chosen = v
                W = T
                break
        if chosen is None:
            raise InfeasibleAssignmentError("no permutation avoids the forbidden cells")
        used.add(chosen)
        image.append(chosen)
    sigma = Permutation(tuple(image))
    value = float(sum(C0[image[i] - 1, i] for i in range(n)))
    return sigma, value


def _entry_tables(rho: DensityMatrix, n: int):
    """Positions and the diagonal cost table for the entry search."""
    dims, o, m = rho.dims, rho.ordering, rho.mat
    pos = np.array(
        [[basis_index(s, i, dims, o) - 1 for i in range(1, n + 1)] for s in range(1, n + 1)]
    )
    diag = m[pos, pos].real.copy()
    return pos, diag


def _pi_part(m, pos, pi_img, n):
    P = [pos[pi_img[i] - 1, i] for i in range(n)]
    sub = m[np.ix_(P, P)]
    tr = sub.trace()
    return float(((n - 2) * tr - (sub.sum() - tr)).real)


def entry_search(rho: DensityMatrix, n: int, mode: str = "exact", seed: int = 0):
    """Minimize the entry criterion value over permutation pairs.

    Exact mode enumerates all n! choices of pi (n <= 8); for each, the
    sigma term is a linear assignment over the diagonal entries with the
    cells sigma(i) = pi(i) forbidden. Heuristic mode runs a seeded
    multi-restart 2-swap local search on pi with the same inner solve.
    Returns an EntryCertificate when the minimum is < -1e-10, else None.
    Ties within 1e-12 resolve to the lexicographically smallest pi, then
    sigma.
    """
    dims = rho.dims
    if not 2 <= n <= min(dims.dim_h, dims.dim_k):
        raise ValueError(
            f"n = {n} outside 2..{min(dims.dim_h, dims.dim_k)} for dims "
            f"{dims.dim_h}x{dims.dim_k}"
        )
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if mode == "exact" and n > 8:
        raise ValueError(f"exact mode supports n <= 8, got {n}; use heuristic")
    m = rho.mat
    pos, diag = _entry_tables(rho, n)

    def sigma_total(pi_img):
        C = diag.copy()
        for i in range(n):
            C[pi_img[i] - 1, i] = np.inf
        return _lsa_total(C)

    def total_for(pi_img):
        return _pi_part(m, pos, pi_img, n) + sigma_total(pi_img)

    best_pi, best_total = None, np.inf
    if mode == "exact":
        for pi_img in itertools.permutations(range(1, n + 1)):
            t = total_for(pi_img)
            if t < best_total - 1e-12:
                best_pi, best_total = pi_img, t
    else:
        rng = np.random.default_rng(seed)
        restarts = max(8, 2 * n)
        for _ in range(restarts):
            cur = tuple(int(v) + 1 for v in rng.permutation(n))
            cur_t = total_for(cur)
            improved = True
            while improved:
                improved = False
                for a in range(n - 1):
                    for b in range(a + 1, n):
                        cand = list(cur)
                        cand[a], cand[b] = cand[b], cand[a]
                        cand = tuple(cand)
                        t = total_for(cand)
                        if t < cur_t - 1e-12:
                            cur, cur_t = cand, t
                            improved = True
            if cur_t < best_total - 1e-12 or (best_pi is None):
                best_pi, best_total = cur, cur_t
            elif cur_t <= best_total + 1e-12 and cur < best_pi:
                best_pi = cur
    pi = Permutation(best_pi)
    forbidden = [(best_pi[i], i + 1) for i in range(n)]
    sigma, _ = assignment_min_forbidden(diag, forbidden)
    value = entry_value_perms(rho, n, pi, sigma)
    if not value < FIRE_TOL:
        return None
    k_idx = tuple(basis_index(pi(i), i, dims, K_MAJOR) for i in range(1, n + 1))
    h_idx = tuple(basis_index(sigma(i), i, dims, K_MAJOR) for i in range(1, n + 1))
    kappa = sigma.inverse().compose(pi)
    spec = WitnessSpec(n, kappa, Permutation.identity(n), pi, dims)
    return EntryCertificate(n, k_idx, h_idx, pi, sigma, value, spec)


def pure_check(psi: PureState):
    """(entangled?, -2 * delta1 * delta2) from the Schmidt coefficients.

    The value is the best rotated rank-4 witness can do on the state; it is
    negative exactly when the Schmidt rank is at least 2.
    """
    s = states.schmidt(psi)
    d1, d2 = float(s.values[0]), float(s.values[1])
    # The SVD errs by at most max(dims) * eps * ||C||_F (~1e-15 on a unit C)
    # per value, so a product state's d2 stays far below 1e-10.
    return d2 > 1e-10, -2.0 * d1 * d2


# ------------------------------------------------------- distill search

_S2 = 1.0 / np.sqrt(2.0)
# Columns: an orthonormal basis of 2 (x) 2 (h_major) in which a vector has
# all-real coordinates up to global phase iff both its Schmidt coefficients
# equal 1/sqrt(2).
_MAGIC = np.array(
    [
        [_S2, -1j * _S2, 0, 0],
        [0, 0, _S2, -1j * _S2],
        [0, 0, -_S2, -1j * _S2],
        [_S2, 1j * _S2, 0, 0],
    ],
    dtype=complex,
)


def _balanced_min_exact_2x2(Mh):
    """Exact minimum of the rotated value on 2 (x) 2, with its witness vector.

    Over orthonormal pairs the rotated value is 2 <phi| rho^{T_1} |phi> with
    phi ranging over the balanced Schmidt-rank-2 vectors, i.e. the real
    span of the magic basis; minimizing the real symmetric part there is
    exact.
    """
    P = Mh.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    Mt = _MAGIC.conj().T @ P @ _MAGIC
    S = 0.5 * (Mt.real + Mt.real.T)
    vals, vecs = np.linalg.eigh(S)
    return 2.0 * float(vals[0]), _MAGIC @ vecs[:, 0]


def _pairs_from_phi(phi, dh, dk):
    """Split phi ~ (xbar (x) w - zbar (x) y)/sqrt(2) into the four vectors."""
    E = phi.reshape(dh, dk)
    U, s, Vh = np.linalg.svd(E)
    return U[:, 0].conj(), -U[:, 1].conj(), Vh[1, :].copy(), Vh[0, :].copy()


def _rot_values(Mh, X, Z, Y, W):
    """rotated_rank4_value of S stacked pairs against an h_major matrix.

    Rows of X, Z (S, dh) and Y, W (S, dk) form the pairs; no input checks.
    """
    S = X.shape[0]
    xw = (X[:, :, None] * W[:, None, :]).reshape(S, -1)
    zy = (Z[:, :, None] * Y[:, None, :]).reshape(S, -1)
    xy = (X[:, :, None] * Y[:, None, :]).reshape(S, -1)
    zw = (Z[:, :, None] * W[:, None, :]).reshape(S, -1)
    # Row s of kets @ Mh.T is Mh applied to ket s.
    img = np.concatenate([xw, zy, zw]) @ Mh.T
    return (
        np.einsum("si,si->s", xw.conj(), img[:S]).real
        + np.einsum("si,si->s", zy.conj(), img[S:2 * S]).real
        - 2.0 * np.einsum("si,si->s", xy.conj(), img[2 * S:]).real
    )


def _best_pairs(M):
    """Per reduced matrix M_s, the orthonormal pair (p, q) aligned with its
    top singular pair, phased so that p^H M_s q is real and nonnegative.

    The top singular vectors are projected onto the closest orthonormal pair
    (Loewdin: B (B^H B)^{-1/2}) through one batched eigh of the 2x2 Grams.
    """
    U, _, Vh = np.linalg.svd(M)
    B = np.stack([U[:, :, 0], Vh[:, 0, :].conj()], axis=2)
    vals, vecs = np.linalg.eigh(B.conj().transpose(0, 2, 1) @ B)
    vals = np.clip(vals, 1e-30, None)
    Gi = (vecs * vals[:, None, :] ** -0.5) @ vecs.conj().transpose(0, 2, 1)
    Bo = B @ Gi
    p, q = Bo[:, :, 0], Bo[:, :, 1]
    c = np.einsum("si,sij,sj->s", p.conj(), M, q)
    mag = np.abs(c)
    phase = np.divide(c.conj(), mag, out=np.ones_like(c), where=mag > 1e-300)
    return p, q * phase[:, None]


def _refine_batch(Mh, X, Z, Y, W):
    """Alternating maximization of the cross term from S stacked seeds.

    Every seed follows its own trajectory: with (y, w) held the H-side pair
    comes from the reduced matrix M = <y|rho|w>, then the K-side pair from
    N = <x|rho|z>. A seed leaves the active set once its cross term
    Re <x (x) y| rho |z (x) w> rises by no more than 1e-14 in a step. Each
    seed keeps the iterate with the strictly lowest rotated value seen.
    The loop ends when no seed is active or after 40 steps. Returns
    (values, X, Z, Y, W) of those best iterates, one row per seed.
    """
    dh, dk = X.shape[1], Y.shape[1]
    R4 = Mh.reshape(dh, dk, dh, dk)
    best = [_rot_values(Mh, X, Z, Y, W), X.copy(), Z.copy(), Y.copy(), W.copy()]
    act = np.arange(X.shape[0])
    cross_prev = np.full(act.size, -np.inf)

    def keep_better(act, x, z, y, w):
        v = _rot_values(Mh, x, z, y, w)
        better = v < best[0][act]
        rows = act[better]
        for arr, new in zip(best, (v, x, z, y, w)):
            arr[rows] = new[better]

    for _ in range(40):
        if act.size == 0:
            break
        M = np.einsum("sk,ikjl,sl->sij", Y.conj(), R4, W)
        X, Z = _best_pairs(M)
        keep_better(act, X, Z, Y, W)
        N = np.einsum("si,ikjl,sj->skl", X.conj(), R4, Z)
        Y, W = _best_pairs(N)
        keep_better(act, X, Z, Y, W)
        cross = np.einsum("sk,skl,sl->s", Y.conj(), N, W).real
        go = cross > cross_prev + 1e-14
        act, cross_prev = act[go], cross[go]
        X, Z, Y, W = X[go], Z[go], Y[go], W[go]
    return tuple(best)


def distill_search(rho: DensityMatrix, restarts: int = 20, seed: int = 0):
    """Search for a distillability certificate; None proves nothing.

    Alternating maximization of the cross term Re <x (x) y| rho |z (x) w>
    over orthonormal pairs: with (y, w) held, the best (x, z) comes from the
    top singular pair of a reduced H-side matrix (projected back to an
    orthonormal pair); symmetrically for (y, w). Seeds: the exact balanced
    minimizer on 2 (x) 2, splittings of the most negative partial-transpose
    eigenvectors, then random pairs up to ``restarts`` in total
    (1 <= restarts <= MAX_RESTARTS). All seeds are refined together as one
    stacked batch, one numpy call per operation per step, but each seed
    follows its own trajectory and stopping rule. Every iterate is scored by
    the full rotated value and each seed keeps its best, so the output never
    degrades on a good seed; across seeds the first minimum wins. The
    returned certificate is re-verified. PPT input, on which no rotated
    value can fire, returns None before any refinement.
    """
    _check_restarts(restarts, "restarts")
    dh, dk = rho.dims.dim_h, rho.dims.dim_k
    Mh = reorder(rho, H_MAJOR).mat
    pt = states.partial_transpose_first(reorder(rho, H_MAJOR))
    pe_spec, pv = numkit.hermitian_eigensystem(0.5 * (pt + pt.conj().T))
    # Every search value is 2 <phi| rho^Gamma |phi> >= 2 lambda_min for a unit
    # phi. When that bound, less the eigensolver's error, stays above
    # FIRE_TOL / 2, no restart can fire: the rounding in the search's own
    # value (~order * eps) is far below the remaining FIRE_TOL / 2 margin.
    if 2.0 * (pe_spec.min - pe_spec.tolerance) >= FIRE_TOL / 2:
        return None
    pe = pe_spec.values  # descending
    rng = np.random.default_rng(seed)

    seeds = []
    if dh == 2 and dk == 2:
        _, phi = _balanced_min_exact_2x2(Mh)
        seeds.append(_pairs_from_phi(phi, dh, dk))
    for idx in range(len(pe) - 1, max(len(pe) - 4, -1), -1):
        if pe[idx] >= 0:
            break
        E = pv[:, idx].reshape(dh, dk)
        U, s, Vh = np.linalg.svd(E)
        if len(s) >= 2:
            xbar, zbar = U[:, 0], -U[:, 1]
            seeds.append((xbar.conj(), zbar.conj(), Vh[1, :], Vh[0, :]))
            seeds.append((xbar.conj(), -zbar.conj(), Vh[1, :], Vh[0, :]))
    n_rand = restarts - len(seeds)
    if n_rand > 0:
        # Drawn seed by seed (H side, then K side), as a sequential search
        # would draw them; the QRs then run as two batched calls.
        draws = [rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
                 for _ in range(n_rand) for d in (dh, dk)]
        Qh, _ = np.linalg.qr(np.array(draws[0::2]))
        Qk, _ = np.linalg.qr(np.array(draws[1::2]))
        seeds.extend(zip(Qh[:, :, 0], Qh[:, :, 1], Qk[:, :, 0], Qk[:, :, 1]))
    X, Z, Y, W = (np.array(v) for v in zip(*seeds))

    vals, X, Z, Y, W = _refine_batch(Mh, X, Z, Y, W)
    i = int(np.argmin(vals))
    if not vals[i] < FIRE_TOL:
        return None
    x, z, y, w = X[i].copy(), Z[i].copy(), Y[i].copy(), W[i].copy()
    value = rotated_rank4_value(rho, x, z, y, w)
    if not value < FIRE_TOL:
        return None
    return DistillCertificate(x, z, y, w, value)


# ---------------------------------------------------------------- detect

def detect(rho: DensityMatrix, config: DetectConfig = None) -> DetectionReport:
    """Run every criterion and aggregate the verdict.

    The caller is responsible for handing in a valid state (the CLI
    validates on parse). Verdict is "entangled" iff at least one criterion
    fired; "undetected" never asserts separability.
    """
    if config is None:
        config = DetectConfig()
    timings = {}
    fired = []

    t0 = time.perf_counter()
    ppt = ppt_check(rho)
    timings["ppt"] = (time.perf_counter() - t0) * 1e3
    if ppt < PPT_TOL:
        fired.append("ppt")

    t0 = time.perf_counter()
    ccnr = ccnr_check(rho)
    timings["ccnr"] = (time.perf_counter() - t0) * 1e3
    if ccnr > 1.0 + CCNR_TOL:
        fired.append("ccnr")

    t0 = time.perf_counter()
    entry_best = None
    for n in range(2, min(rho.dims.dim_h, rho.dims.dim_k, config.n_cap) + 1):
        mode = "exact" if n <= config.exact_max else "heuristic"
        cert = entry_search(rho, n, mode=mode, seed=config.seed)
        if cert is not None and (entry_best is None or cert.value < entry_best.value):
            entry_best = cert
    timings["entry"] = (time.perf_counter() - t0) * 1e3
    if entry_best is not None:
        fired.append("entry_criterion")

    t0 = time.perf_counter()
    distill_best = distill_search(rho, restarts=config.distill_restarts, seed=config.seed)
    timings["distill"] = (time.perf_counter() - t0) * 1e3
    if distill_best is not None:
        fired.append("distill")

    verdict = "entangled" if fired else "undetected"
    return DetectionReport(
        ppt_min_eig=float(ppt),
        ccnr_norm=float(ccnr),
        entry_best=entry_best,
        distill_best=distill_best,
        verdict=verdict,
        fired=tuple(fired),
        timings_ms=timings,
    )


def _vec_pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


def report_to_dict(report: DetectionReport) -> dict:
    """Report JSON with certificates expanded; complex numbers as [re, im]."""
    entry = None
    if report.entry_best is not None:
        c = report.entry_best
        entry = {
            "n": c.n,
            "k_indices": list(c.k_indices),
            "h_indices": list(c.h_indices),
            "pi1": list(c.pi1.image),
            "sigma1": list(c.sigma1.image),
            "value": c.value,
            "witness": {
                "type": "kps",
                "n": c.witness_spec.n,
                "kappa": list(c.witness_spec.kappa.image),
                "pi": list(c.witness_spec.pi.image),
                "sigma": list(c.witness_spec.sigma.image),
                "dim_h": c.witness_spec.dims.dim_h,
                "dim_k": c.witness_spec.dims.dim_k,
            },
        }
    distill = None
    if report.distill_best is not None:
        c = report.distill_best
        distill = {
            "x": _vec_pairs(c.x),
            "z": _vec_pairs(c.z),
            "y": _vec_pairs(c.y),
            "w": _vec_pairs(c.w),
            "value": c.value,
        }
    return {
        "verdict": report.verdict,
        "ppt_min_eig": report.ppt_min_eig,
        "ccnr_trace_norm": report.ccnr_norm,
        "entry_certificate": entry,
        "distill_certificate": distill,
        "fired": list(report.fired),
        "timings_ms": {k: round(v, 3) for k, v in report.timings_ms.items()},
    }

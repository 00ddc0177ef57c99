"""Entanglement verdicts: PPT, realignment, entry-based search, distillability.

Four criteria, each sufficient for entanglement and silent otherwise:

* ``ppt_check`` -- negative partial-transpose eigenvalue.
* ``ccnr_check`` -- realignment trace norm above 1.
* ``entry_search`` -- minimizes a value read off n diagonal entries, n more
  diagonal entries, and the off-diagonal entries coupling the first set,
  over permutation choices, for n <= 8. Exact mode scores every permutation
  pair in one vectorised numpy sweep (no assignment solver, no scipy). A
  negative minimum comes with an index certificate and the permutation
  witness realizing the same value.
* ``distill_search`` -- looks for orthonormal pairs (x, z) in H and (y, w)
  in K making a rotated rank-4 witness negative; success additionally
  certifies 1-distillability. All restarts are refined together as one
  stacked numpy batch; each seed follows its own trajectory and stopping
  rule, so the batch finds what refining the seeds one by one would, up
  to rounding.

``scan_criteria`` is the one criteria pass: it runs PPT, CCNR and the
exact entry sweep on a stack of same-dims states at once (one batched
eigvalsh of the states, one of their partial transposes, one batched SVD
and one sweep per n for each block of up to 512 states) and decides which
criteria fire. ``detect`` is that pass on a stack of one plus
``distill_search``. Exact ``entry_search`` is the stack-of-one case of
the same sweep; ``ppt_check`` and ``ccnr_check`` take numkit's
single-matrix forms, whose values equal the stacked rows bit for bit.

The searches are deterministic for a fixed seed. Certificates are always
re-verified against the witness layer before being returned, so a returned
certificate is sound even though a ``None`` proves nothing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import numkit, states
from .states import BipartiteDims, DensityMatrix, H_MAJOR, K_MAJOR, PureState, basis_index, reorder
from .witnesses import Permutation, WitnessSpec, rotated_rank4_value

__all__ = [
    "FIRE_TOL",
    "MAX_RESTARTS",
    "EXACT_MAX_N",
    "PPT_TOL",
    "CCNR_TOL",
    "EntryCertificate",
    "DistillCertificate",
    "DetectConfig",
    "DetectionReport",
    "ppt_check",
    "ccnr_check",
    "entry_value_indices",
    "entry_value_perms",
    "indices_to_perms",
    "entry_search",
    "scan_criteria",
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
# The entry search enumerates the n! permutations pi, so n stops here.
EXACT_MAX_N = 8
PPT_TOL = -1e-9
CCNR_TOL = 1e-9


def _check_int(value, name, lo, hi):
    if not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {value!r}")


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
    n_cap: int = 6           # largest block size tried by the entry search, <= 8
    distill_restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_int(self.n_cap, "n_cap", 2, EXACT_MAX_N)
        _check_int(self.distill_restarts, "distill_restarts", 1, MAX_RESTARTS)


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
    """Minimum eigenvalue of the partial transpose; < -1e-9 means entangled.

    rho must be Hermitian to 1e-9 relative to its largest modulus (as a
    validated state is); otherwise ValueError.
    """
    return float(numkit.hermitian_eigenvalues(states.partial_transpose_first(rho))[-1])


def ccnr_check(rho: DensityMatrix) -> float:
    """Trace norm of the realignment; > 1 + 1e-9 means entangled."""
    return float(numkit.singular_values(states.realignment(rho)).sum())


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
    # k_i = (i-1)n + pi1(i) is the k_major position of |pi1(i), i'>, so the
    # permutation form reads the same entries.
    pi1, sigma1, _ = indices_to_perms(k, h, n)
    return entry_value_perms(rho, n, pi1, sigma1)


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
    sub = m[p[:, None], p]
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


# ------------------------------------------------------------ entry search

# Elements one vectorised gather of the entry search may hold at a time.
_GATHER_ELEMS = 1 << 18


@functools.cache
def _perm_table(n):
    """Every permutation of 0..n-1, lexicographic, as cells (value * n + slot).

    Returns (cells, masks): cells is (n!, n), and masks[p] has bit c set for
    each cell c of permutation p, so two permutations differ in every slot
    iff their masks share no bit (n * n <= 64). Built on first use of n.
    """
    perms = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        # lexicographic permutations of k: each first value f, followed by
        # those of k - 1 relabelled past f
        perms = np.concatenate([
            np.column_stack([np.full(len(perms), f), perms + (perms >= f)])
            for f in range(k)
        ])
    cells = perms * n + np.arange(n)
    masks = np.left_shift(np.uint64(1), cells.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
    cells.flags.writeable = masks.flags.writeable = False
    return cells, masks


def _take(a, idx):
    """a[:, idx] for an (R, m) array, without the state axis when R = 1:
    a single row goes through numpy's 1-d gather, several times faster on
    a large idx."""
    return a[0][idx] if len(a) == 1 else a[:, idx]


@functools.cache
def _slot_pairs(n):
    """The slot pairs i < j of n slots, as two index arrays."""
    return np.triu_indices(n, 1)


def _entry_tables(mats, dims, ordering, n: int):
    """The real n^2 x n^2 submatrices on the kets |s, i'> (s, i <= n) of an
    (R, d, d) stack of states of one dims and ordering, row s * n + i
    (0-based), from index arithmetic on the ordering."""
    s, i = np.divmod(np.arange(n * n), n)
    idx = s * dims.dim_k + i if ordering == H_MAJOR else i * dims.dim_h + s
    return mats[:, idx[:, None], idx].real


class _EntryCosts:
    """Totals min_sigma value(pi, sigma) for batches of pi on R states at once.

    A pi, as cells p (value * n + slot), contributes (n-2) sum_i Q[p_i, p_i]
    - sum_{i != j} Q[p_i, p_j]; sigma contributes its diagonal cost
    c(sigma) = sum_i Q[s_i, s_i], minimized over sigma differing from pi in
    every slot. That minimum is the first sigma, in each state's own order
    of c, whose mask shares no bit with pi's. Only the value of that first
    sigma is read, so the sort need not be stable: best_sigmas picks sigma
    itself by the lexicographic rule. Results have one row per state.
    """

    def __init__(self, Q, n):
        self.n = n
        R = len(Q)
        self.diag = Q.diagonal(0, 1, 2).copy()
        self.iu, self.ju = _slot_pairs(n)
        # Q[a, b] + Q[b, a] at flat index a * n^2 + b
        self.off = (Q + Q.transpose(0, 2, 1)).reshape(R, -1)
        self.bits = np.left_shift(np.uint64(1), np.arange(n * n, dtype=np.uint64))
        cells, self.masks = _perm_table(n)
        self.c = _take(self.diag, cells).sum(axis=-1).reshape(R, -1)
        order = np.argsort(self.c, axis=1)
        # each state's c in its own order, by one 1-d gather
        self.sorted_c = self.c.ravel()[order + len(cells) * np.arange(R)[:, None]]
        self.sorted_masks = self.masks[order]

    def pi_parts(self, cells):
        n, R = self.n, len(self.diag)
        out = np.empty((R, len(cells)))
        step = max(1, _GATHER_ELEMS // (R * max(1, len(self.iu))))
        for a in range(0, len(cells), step):
            p = cells[a:a + step]
            off = _take(self.off, p[:, self.iu] * (n * n) + p[:, self.ju]).sum(axis=-1)
            out[:, a:a + step] = (n - 2) * _take(self.diag, p).sum(axis=-1) - off
        return out

    def sigma_mins(self, cells, masks):
        """Constrained sigma minima, (R, B) for B = len(cells) with pi masks
        ``masks``. All (state, pi) pairs are resolved together, pair t being
        state t // B and pi t % B, over growing chunks of the sorted sigma."""
        R, B = len(self.diag), len(cells)
        out = np.empty(R * B)
        todo = np.arange(R * B)
        pmask = masks if R == 1 else np.tile(masks, R)
        start, width = 0, 16
        while todo.size:
            width = min(2 * width, max(8, _GATHER_ELEMS // todo.size))
            # one state's chunk of sorted sigma broadcasts over all its
            # pairs; with several states, each pair gathers its state's
            chunk = self.sorted_masks[:, start:start + width]
            if R > 1:
                rows = todo // B
                chunk = chunk[rows]
            ok = (pmask[:, None] & chunk) == 0
            hit = ok.any(axis=1)
            first = start + ok[hit].argmax(axis=1)
            out[todo[hit]] = self.sorted_c[0][first] if R == 1 else self.sorted_c[rows[hit], first]
            miss = ~hit
            todo, pmask = todo[miss], pmask[miss]
            start += width
        return out.reshape(R, B)

    def totals(self, pis):
        """Totals for a (B, n) batch of 0-based pi images, shape (R, B)."""
        cells = pis * self.n + np.arange(self.n)
        masks = self.bits[cells].sum(axis=1)
        return self.pi_parts(cells) + self.sigma_mins(cells, masks)

    def best_sigmas(self, rows, pis):
        """sigma for pis[f] (0-based images) on state rows[f], by the
        lexicographic rule: the first permutation within 1e-12 of the
        constrained optimum. (F, n) 1-based images."""
        n = self.n
        cells, _ = _perm_table(n)
        pmask = self.bits[pis * n + np.arange(n)].sum(axis=1)
        avoid = (self.masks & pmask[:, None]) == 0
        c = self.c[rows]
        cmin = np.where(avoid, c, np.inf).min(axis=1)
        s = np.argmax(avoid & (c <= cmin[:, None] + 1e-12), axis=1)
        return cells[s] // n + 1


def _heuristic_pi(costs, n, seed):
    """Seeded multi-restart first-improvement 2-swap search on pi, on the
    single state of ``costs``.

    Pairs (a, b) are tried in order; the first that lowers the total by more
    than 1e-12 is taken and the scan goes on from the next pair. The totals
    of all remaining pairs are scored as one batch, which leaves the
    trajectory that of trying them one at a time.
    """
    a_idx, b_idx = _slot_pairs(n)
    rng = np.random.default_rng(seed)
    best_pi, best_total = None, np.inf
    for _ in range(max(8, 2 * n)):
        cur = rng.permutation(n)
        cur_t = costs.totals(cur[None])[0, 0]
        improved, j = False, 0
        while True:
            if j == len(a_idx):
                if not improved:
                    break
                improved, j = False, 0
            a, b = a_idx[j:], b_idx[j:]
            cand = np.repeat(cur[None], len(a), axis=0)
            rows = np.arange(len(a))
            cand[rows, a], cand[rows, b] = cur[b], cur[a]
            t = costs.totals(cand)[0]
            better = np.flatnonzero(t < cur_t - 1e-12)
            if better.size == 0:
                j = len(a_idx)
                continue
            k = better[0]
            cur, cur_t, improved, j = cand[k], t[k], True, j + k + 1
        key = tuple(int(v) + 1 for v in cur)
        if cur_t < best_total - 1e-12 or best_pi is None:
            best_pi, best_total = key, cur_t
        elif cur_t <= best_total + 1e-12 and key < best_pi:
            best_pi = key
    return best_pi, best_total


def _certify(rhos, n, costs, pis, totals):
    """Certificates for pi = pis[r] (0-based images) on each state r whose
    search total totals[r] may fire; None for the others, and for any whose
    value, re-read off the entries, does not fire."""
    out = [None] * len(rhos)
    # A certificate value re-sums the same entries as its total, so on
    # unit-trace input the two differ by rounding only (~n^2 eps); a total
    # this far above FIRE_TOL cannot fire, and its sigma is never resolved.
    fire = np.flatnonzero(totals < FIRE_TOL + 1e-9)
    if not fire.size:
        return out
    for r, sigma in zip(fire.tolist(), costs.best_sigmas(fire, pis[fire])):
        rho, pi, sigma = rhos[r], Permutation(pis[r] + 1), Permutation(sigma)
        value = entry_value_perms(rho, n, pi, sigma)
        if not value < FIRE_TOL:
            continue
        k_idx = tuple(basis_index(pi(i), i, rho.dims, K_MAJOR) for i in range(1, n + 1))
        h_idx = tuple(basis_index(sigma(i), i, rho.dims, K_MAJOR) for i in range(1, n + 1))
        kappa = sigma.inverse().compose(pi)
        spec = WitnessSpec(n, kappa, Permutation.identity(n), pi, rho.dims)
        out[r] = EntryCertificate(n, k_idx, h_idx, pi, sigma, value, spec)
    return out


def _entry_sweep(rhos, mats, n):
    """Exact entry search on states of one dims and ordering, their
    matrices stacked in ``mats``, as one sweep: an EntryCertificate or None
    per state."""
    costs = _EntryCosts(_entry_tables(mats, rhos[0].dims, rhos[0].ordering, n), n)
    cells, masks = _perm_table(n)
    totals = costs.pi_parts(cells) + costs.sigma_mins(cells, masks)
    best = totals.min(axis=1)
    w = np.argmax(totals <= best[:, None] + 1e-12, axis=1)
    return _certify(rhos, n, costs, cells[w] // n, best)


def entry_search(rho: DensityMatrix, n: int, mode: str = "exact", seed: int = 0):
    """Minimize the entry criterion value over permutation pairs.

    The value splits into a pi part (n^2 entries) and a sigma part c(sigma),
    a sum of n diagonal entries, with sigma(i) != pi(i) in every slot.
    Exact mode (n <= 8) is one vectorised sweep, the stack-of-one case of
    the sweep ``scan_criteria`` runs over a whole grid: the pi parts of all
    n! pi come from one chunked gather; c is computed for every sigma at
    once and sorted, and each pi's constrained minimum is the first sorted
    sigma that differs from it in every slot, resolved for all pi together
    by scanning the sorted sigma in growing chunks. Heuristic mode (also
    n <= 8) runs a seeded multi-restart 2-swap local search on pi with the
    same sigma minimum. Tie rules: pi is the lexicographically first
    within 1e-12 of the minimum (heuristic: of the restarts' results); sigma
    is then the lexicographically first within 1e-12 of pi's constrained
    minimum. Returns an EntryCertificate when the minimum is < -1e-10, else
    None.
    """
    dims = rho.dims
    if not 2 <= n <= min(dims.dim_h, dims.dim_k):
        raise ValueError(
            f"n = {n} outside 2..{min(dims.dim_h, dims.dim_k)} for dims "
            f"{dims.dim_h}x{dims.dim_k}"
        )
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if n > EXACT_MAX_N:
        raise ValueError(f"entry search supports n <= {EXACT_MAX_N}, got {n}")
    if mode == "exact":
        return _entry_sweep([rho], rho.mat[None], n)[0]
    costs = _EntryCosts(_entry_tables(rho.mat[None], dims, rho.ordering, n), n)
    best_pi, best_total = _heuristic_pi(costs, n, seed)
    return _certify([rho], n, costs, np.array([best_pi]) - 1, np.array([best_total]))[0]


def pure_check(psi: PureState):
    """(entangled?, -2 * delta1 * delta2) from the Schmidt coefficients.

    The value is the best rotated rank-4 witness can do on the state; it is
    negative exactly when the Schmidt rank is at least 2.
    """
    s = states.schmidt(psi)
    d1, d2 = float(s[0]), float(s[1])
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
    _check_int(restarts, "restarts", 1, MAX_RESTARTS)
    dh, dk = rho.dims.dim_h, rho.dims.dim_k
    Mh = reorder(rho, H_MAJOR).mat
    pt = states.partial_transpose_first(reorder(rho, H_MAJOR))
    pe, pv = numkit.hermitian_eigensystem(pt)  # descending
    # Every search value is 2 <phi| rho^Gamma |phi> >= 2 lambda_min for a unit
    # phi. When that bound, less the eigensolver's error, stays above
    # FIRE_TOL / 2, no restart can fire: the rounding in the search's own
    # value (~order * eps) is far below the remaining FIRE_TOL / 2 margin.
    if 2.0 * (pe[-1] - numkit.error_bound(pt)) >= FIRE_TOL / 2:
        return None
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

# scan_criteria stacks at most this many states at a time, so that its
# stacks (about 25 kB a state at 16 x 16) stay bounded on long grids.
_SCAN_BLOCK = 512


def scan_criteria(rhos) -> list:
    """PPT, CCNR and the exact entry criterion on a list of states at once.

    The states share their dims and their ordering. Returns one
    DetectionReport per state, with distill_best None, from the entry
    search over n = 2..min(dh, dk, 8) and the fire rules of ``detect``,
    tr rho_- margins included; every value equals ppt_check, ccnr_check and
    exact entry_search on that state alone. Each block of up to 512 states
    costs one batched eigvalsh of the states, one of their partial
    transposes, one batched SVD and one exact sweep per n; a report's
    timings_ms are those of its whole block. A state that is not Hermitian
    to 1e-9 relative to its largest modulus raises ValueError.
    """
    if not rhos:
        return []
    dims, ordering = rhos[0].dims, rhos[0].ordering
    if any(rho.dims != dims or rho.ordering != ordering for rho in rhos):
        raise ValueError("scan_criteria needs states of one dims and one ordering")
    return [rep for a in range(0, len(rhos), _SCAN_BLOCK)
            for rep in _criteria_block(rhos[a:a + _SCAN_BLOCK], EXACT_MAX_N)]


def _criteria_block(rhos, n_cap, distill_restarts=None, seed=0):
    """The criteria pass on one block of states of one dims and ordering,
    and the only place that decides which criteria fire. ``detect`` hands
    in its one state with ``distill_restarts`` and ``seed``, and that state
    also gets a distill_search.

    Validation admits eigenvalues down to -1e-9, so write rho = rho_+ -
    rho_-. A criterion fires only if it would still fire on rho_+: for a
    witness W, Tr(W rho_+) <= Tr(W rho) + ||W||_op tr rho_-, with
    ||W||_op = n - 1 for the entry witness and <= 1 for (|v><v|)^Gamma
    with a unit v (PPT; distill, whose value is twice such a trace). For
    CCNR, ||R(rho)||_1 <= tr rho_+ + min(dh, dk) tr rho_- when rho_+ is
    separable.
    """
    dims = rhos[0].dims
    mats = np.stack([rho.mat for rho in rhos])
    eig = numkit.hermitian_eigenvalues_stack(mats)
    neg = (-np.minimum(eig, 0.0).sum(axis=1)).tolist()
    pos = np.maximum(eig, 0.0).sum(axis=1).tolist()
    timings = {}

    t0 = time.perf_counter()
    pts = np.stack([states.partial_transpose_first(rho) for rho in rhos])
    ppt = numkit.hermitian_eigenvalues_stack(pts)[:, -1].tolist()
    timings["ppt"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    realigned = np.stack([states.realignment(rho) for rho in rhos])
    ccnr = numkit.singular_values_stack(realigned).sum(axis=1).tolist()
    timings["ccnr"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    entry = [None] * len(rhos)
    for n in range(2, min(dims.dim_h, dims.dim_k, n_cap) + 1):
        for r, cert in enumerate(_entry_sweep(rhos, mats, n)):
            if cert is None or not cert.value + (n - 1) * neg[r] < FIRE_TOL:
                continue
            if entry[r] is None or cert.value < entry[r].value:
                entry[r] = cert
    timings["entry"] = (time.perf_counter() - t0) * 1e3

    distill = [None] * len(rhos)
    if distill_restarts is not None:
        (rho,) = rhos
        t0 = time.perf_counter()
        cert = distill_search(rho, restarts=distill_restarts, seed=seed)
        if cert is not None and cert.value + 2.0 * neg[0] < FIRE_TOL:
            distill[0] = cert
        timings["distill"] = (time.perf_counter() - t0) * 1e3

    reports = []
    for r in range(len(rhos)):
        fired = tuple(name for name, hit in (
            ("ppt", ppt[r] + neg[r] < PPT_TOL),
            ("ccnr", ccnr[r] - min(dims.dim_h, dims.dim_k) * neg[r] > pos[r] + CCNR_TOL),
            ("entry_criterion", entry[r] is not None),
            ("distill", distill[r] is not None),
        ) if hit)
        reports.append(DetectionReport(
            ppt_min_eig=ppt[r],
            ccnr_norm=ccnr[r],
            entry_best=entry[r],
            distill_best=distill[r],
            verdict="entangled" if fired else "undetected",
            fired=fired,
            timings_ms=dict(timings),
        ))
    return reports


def detect(rho: DensityMatrix, config: DetectConfig = None) -> DetectionReport:
    """Run every criterion and aggregate the verdict.

    The criteria pass of ``scan_criteria`` on a stack of one, with entry
    search up to config.n_cap, plus ``distill_search``; a criterion fires
    only if it would still fire on the positive part of rho (see
    ``_criteria_block``). The caller is responsible for handing in a valid
    state (the CLI validates on parse); a rho that is not Hermitian to
    1e-9 relative to its largest modulus raises ValueError. Verdict is
    "entangled" iff at least one criterion fired; "undetected" never
    asserts separability.
    """
    if config is None:
        config = DetectConfig()
    return _criteria_block([rho], config.n_cap, config.distill_restarts, config.seed)[0]


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

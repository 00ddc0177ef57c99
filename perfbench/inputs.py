"""Seeded inputs of the four workloads, built with numpy alone.

Every state is made here from the workload seed; the program under test only
receives the finished matrices, state files or CLI arguments. The structure
of each pool (dimensions, kinds, modes, grid sizes) is the same for every
seed, so that runs on different seeds do the same amount of work and only the
random numbers change.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

H_MAJOR = "h_major"
K_MAJOR = "k_major"

# Paper points and the verdicts the README and selfcheck document for them.
E34_POINT = (1 / 5, 1 / 10, 7 / 10, 1 / 20, 1 / 20, 1 / 20)
E35_POINT = (1 / 20, 1 / 10, 17 / 40, 17 / 40, 1 / 40, 1 / 40, 1 / 40, 1 / 40)
PAPER_VERDICTS = {
    "e34": {"fired": ("ccnr", "entry_criterion"), "entry_value": -0.1},
    "e35": {"fired": ("entry_criterion",), "entry_value": -0.05},
}

# Known-entangled inputs are built to clear the firing thresholds by this much.
NPT_MARGIN = 1e-3


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _normalize(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def k_to_h_perm(dh: int, dk: int) -> np.ndarray:
    """perm[h_pos] = k_pos for the product ket |i, j'> (0-based)."""
    i, j = np.meshgrid(np.arange(dh), np.arange(dk), indexing="ij")
    return (j * dh + i).reshape(-1)


def to_ordering(mat: np.ndarray, dh: int, dk: int, src: str, dst: str) -> np.ndarray:
    if src == dst:
        return mat
    perm = k_to_h_perm(dh, dk)
    if dst == H_MAJOR:
        return mat[np.ix_(perm, perm)]
    inv = np.argsort(perm)
    return mat[np.ix_(inv, inv)]


def pt_min_eig(mat_h: np.ndarray, dh: int, dk: int) -> float:
    """Minimum eigenvalue of the partial transpose on H (h_major input)."""
    D = dh * dk
    pt = mat_h.reshape(dh, dk, dh, dk).transpose(2, 1, 0, 3).reshape(D, D)
    return float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))[0])


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre(rng, dh, dk, rank):
    D = dh * dk
    g = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    return _normalize(g @ g.conj().T)


def separable(rng, dh, dk, terms):
    """Convex mixture of random product pure states: separable by construction."""
    w = rng.dirichlet(np.ones(terms))
    m = np.zeros((dh * dk, dh * dk), dtype=complex)
    for t in range(terms):
        v = np.kron(_unit(rng, dh), _unit(rng, dk))
        m += w[t] * np.outer(v, v.conj())
    return _normalize(m)


def npt_full_rank(rng, dh, dk):
    """A maximally entangled state in random local bases, mixed with a
    full-rank Ginibre state; the weight grows until the partial transpose is
    negative by NPT_MARGIN."""
    r = min(dh, dk)
    c = np.zeros((dh, dk), dtype=complex)
    c[np.arange(r), np.arange(r)] = 1 / np.sqrt(r)
    v = (_haar(rng, dh) @ c @ _haar(rng, dk).T).reshape(-1)
    phi = np.outer(v, v.conj())
    g = ginibre(rng, dh, dk, dh * dk)
    for p in (0.5, 0.6, 0.7, 0.8, 0.9):
        m = _normalize(p * phi + (1 - p) * g)
        if pt_min_eig(m, dh, dk) < -NPT_MARGIN:
            return m
    return m


def max_ent_mixture(rng, d, p=0.6):
    """p * |Phi_d><Phi_d| + (1-p) * Ginibre in the computational basis; the
    entry criterion fires on it (see oracle.entry_candidates)."""
    c = np.eye(d, dtype=complex) / np.sqrt(d)
    v = c.reshape(-1)
    return _normalize(p * np.outer(v, v.conj()) + (1 - p) * ginibre(rng, d, d, d * d))


def example_34(q1, q2, q3, a, b, c):
    """The 9x9 paper family, k_major, built from its definition."""
    M = np.zeros((9, 9), dtype=complex)
    for r in (0, 4, 8):
        for s in (0, 4, 8):
            M[r, s] = q1
    for idx, q in ((1, q3), (2, q2), (3, q2), (5, q3), (6, q3), (7, q2)):
        M[idx, idx] = q
    for (r, s), amp in (((1, 2), a), ((3, 5), b), ((6, 7), c)):
        M[r, s] = amp
        M[s, r] = np.conj(amp)
    return M / 3.0


def example_35(q1, q2, q3, q4, a, b, c, d):
    """The 16x16 paper family, k_major, built from its definition."""
    M = np.zeros((16, 16), dtype=complex)
    for block, q in (((0, 5, 10, 15), q1), ((3, 4, 9, 14), q2)):
        for r in block:
            for s in block:
                M[r, s] = q
    for idx in (1, 6, 11, 12):
        M[idx, idx] = q4
    for idx in (2, 7, 8, 13):
        M[idx, idx] = q3
    for (r, s), amp in (((1, 2), a), ((6, 7), b), ((8, 11), c), ((12, 13), d)):
        M[r, s] = amp
        M[s, r] = np.conj(amp)
    return M / 4.0


def _state(name, kind, dh, dk, ordering, mat_h):
    return {
        "name": name, "kind": kind, "dims": [dh, dk], "ordering": ordering,
        "mat": to_ordering(mat_h, dh, dk, H_MAJOR, ordering),
    }


def _paper_states():
    return [
        {"name": "e34", "kind": "paper", "dims": [3, 3], "ordering": K_MAJOR,
         "mat": example_34(*E34_POINT)},
        {"name": "e35", "kind": "paper", "dims": [4, 4], "ordering": K_MAJOR,
         "mat": example_35(*E35_POINT)},
    ]


def _mixed_state(seed, kind, dh, dk, draw=0):
    rng = _rng(seed, f"{kind}-{dh}x{dk}" + (f"-{draw}" if draw else ""))
    name = f"{kind}_{dh}x{dk}" + (f"_{draw}" if draw else "")
    if kind == "npt_full":
        return _state(name, kind, dh, dk, H_MAJOR, npt_full_rank(rng, dh, dk))
    if kind == "low_rank":
        return _state(name, kind, dh, dk, K_MAJOR, ginibre(rng, dh, dk, 2))
    return _state(name, kind, dh, dk, H_MAJOR, separable(rng, dh, dk, dh * dk + 2))


def detect_mixed_pool(seed, tiny=False):
    """Every (dims, kind) once, a second draw of each 4x4..7x7 class and two
    more full-rank NPT draws at 4x4, 2x5, 5x2 and 3x4. Below 4x4 the distill
    search's cost varies several-fold from state to state; the extra draws
    put the median among full-rank NPT states of about 110 ms, whose cost
    varies little with the seed."""
    dims = [(2, 2), (3, 3), (2, 5)] if tiny else [
        (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (2, 5), (5, 2), (3, 4)]
    states = _paper_states()
    for kind in ("npt_full", "low_rank", "separable"):
        states += [_mixed_state(seed, kind, dh, dk) for dh, dk in dims]
        if not tiny:
            states += [_mixed_state(seed, kind, d, d, draw=1) for d in (4, 5, 6, 7)]
    if not tiny:
        states += [_mixed_state(seed, "npt_full", dh, dk, draw=draw)
                   for dh, dk in ((4, 4), (2, 5), (5, 2), (3, 4)) for draw in (2, 3)]
    return {"states": states, "items": [{"state": i} for i in range(len(states))]}


def cli_detect_pool(seed, tiny=False):
    npt = [(2, 2), (3, 3)] if tiny else [(2, 2), (3, 3), (4, 4), (2, 5), (5, 2)]
    sep = [(2, 3)] if tiny else [(3, 3), (2, 4), (2, 2)]
    states = _paper_states()
    states += [_mixed_state(seed, "npt_full", dh, dk) for dh, dk in npt]
    states += [_mixed_state(seed, "separable", dh, dk) for dh, dk in sep]
    if not tiny:
        # three 7x7 states: the latency tail lands on the lightest of them,
        # not on the edge between a 7x7 state and the smaller ones
        states += [_mixed_state(seed, kind, 7, 7) for kind in ("low_rank", "npt_full", "separable")]
    return {"states": states, "items": [{"state": i} for i in range(len(states))]}


def entry_large_n_pool(seed, tiny=False):
    """Three states of each kind per size. The heuristic's cost depends on
    the state; with twelve heuristic n=7 calls per pass the median, which
    falls among them, is steadier than with fewer."""
    sizes = [4] if tiny else [7, 8]
    states, items = [], []
    for d in sizes:
        ordering = H_MAJOR if d % 2 else K_MAJOR
        for kind, draw in [(k, r) for r in range(1 if tiny else 3)
                           for k in ("max_ent_mix", "ginibre")]:
            rng = _rng(seed, f"{kind}-{d}" + (f"-{draw}" if draw else ""))
            mat = max_ent_mixture(rng, d) if kind == "max_ent_mix" else ginibre(rng, d, d, d * d)
            states.append(_state(f"{kind}_{d}x{d}_{draw}", kind, d, d, ordering, mat))
            for n in ([3, 4] if tiny else range(6, d + 1)):
                for mode in ("heuristic", "exact"):
                    items.append({"state": len(states) - 1, "n": n, "mode": mode})
    return {"states": states, "items": items}


def _fmt(vals):
    return ",".join(f"{v:.17g}" for v in vals)


def _scan_item(family, q, amps, lo, hi, count, paper=False):
    argv = ["scan", "--family", family, "--q", _fmt(q),
            "--abc" if family == "e34" else "--abcd", _fmt(amps),
            "--vary", "q2", "--range", f"{lo!r},{hi!r},{count}"]
    return {"family": family, "argv": argv, "paper": paper, "points": count}


def _seeded_e35(rng, count):
    q1, q3 = rng.uniform(0.02, 0.15), rng.uniform(0.2, 0.4)
    lo, hi = 0.02, 0.95 - q1 - q3
    grid = np.linspace(lo, hi, count)
    bound = np.sqrt(np.min(q3 * (1 - q1 - q3 - grid)))
    amps = bound * rng.uniform(0.0, 0.95, 4)
    return _scan_item("e35", (q1, lo, q3, 1 - q1 - lo - q3), amps, lo, hi, count)


def _seeded_e34(rng, count):
    q1 = rng.uniform(0.05, 0.4)
    lo, hi = 0.02, 0.95 - q1
    grid = np.linspace(lo, hi, count)
    bound = np.sqrt(np.min(grid * (1 - q1 - grid)))
    amps = bound * rng.uniform(0.0, 0.95, 3)
    return _scan_item("e34", (q1, lo, 1 - q1 - lo), amps, lo, hi, count)


def scan_family_pool(seed, tiny=False):
    """Paper-point grids, short seeded e34/e35 grids and three long e35 sweeps.

    Every grid point is in the family's domain: the absorbing weight stays
    >= 0.05 and each amplitude is below 0.95 of its smallest bound over the
    grid. The cost of a grid point depends on its parameters, so many short
    grids average that out. Thirteen e35 grids against seven e34 grids keep
    the median latency inside the e35 group, and the long sweeps are the
    items the latency tail lands on, so the tail reports a long scan, not
    timer jitter.
    """
    count = 3 if tiny else 6
    items = [
        _scan_item("e34", E34_POINT[:3], E34_POINT[3:], 0.05, 0.3, 6, paper=True),
        _scan_item("e35", E35_POINT[:4], E35_POINT[4:], 0.05, 0.3, 6, paper=True),
    ]
    items += [_seeded_e35(_rng(seed, f"scan-e35-{k}"), count) for k in range(1 if tiny else 12)]
    items += [_seeded_e34(_rng(seed, f"scan-e34-{k}"), count) for k in range(1 if tiny else 6)]
    if not tiny:
        items += [_seeded_e35(_rng(seed, f"scan-e35-long-{k}"), 24) for k in range(3)]
    return {"states": [], "items": items}


POOLS = {
    "cli_detect": cli_detect_pool,
    "detect_mixed": detect_mixed_pool,
    "scan_family": scan_family_pool,
    "entry_large_n": entry_large_n_pool,
}


def state_to_json(state) -> str:
    """The state-file format the CLI reads."""
    dh, dk = state["dims"]
    entries = [[float(z.real), float(z.imag)] for z in state["mat"].reshape(-1)]
    return json.dumps({"dim_h": dh, "dim_k": dk, "ordering": state["ordering"],
                       "entries": entries})

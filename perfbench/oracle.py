"""Output checks that share no code with witnesskit.

Every value the program reports is recomputed here from the benchmark's own
copy of the input with plain numpy: PPT and CCNR from ``eigvalsh`` and
``svd``, the entry minimum by brute force over all (pi, sigma) for n <= 6,
entry and distill certificates by direct contraction. Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from inputs import (H_MAJOR, K_MAJOR, PAPER_VERDICTS, example_34, example_35, pt_min_eig,
                    to_ordering)

# The program's documented firing rules.
PPT_FIRE = -1e-9
CCNR_FIRE = 1.0 + 1e-9
FIRE_TOL = -1e-10

# Agreement tolerances. The Jacobi eigensolver targets 1e-10 * ||a|| per
# eigenvalue; singular values come from square roots of Gram eigenvalues, so
# a singular value near zero may be off by sqrt(1e-10 * ||a||^2) ~ 1e-5 * ||a||
# and the trace norm sums up to 64 of them.
PPT_ABS_TOL = 1e-8
CCNR_ABS_TOL = 1e-4
VALUE_TOL = 1e-10      # certificate values recomputed from the same entries
ORTHO_TOL = 1e-8       # distill vector norms and overlaps
# A criterion must fire (or stay silent) only when numpy puts the state this
# far past the threshold; closer than that either answer is accepted.
MARGIN = 1e-6
BRUTE_MAX_N = 6
DETECT_N_CAP = 6


class Reference:
    """numpy's view of one state: both orderings, PPT, CCNR, entry minima."""

    def __init__(self, mat, dh, dk, ordering):
        self.dh, self.dk = dh, dk
        self.mat_h = to_ordering(mat, dh, dk, ordering, H_MAJOR)
        self.mat_k = to_ordering(mat, dh, dk, ordering, K_MAJOR)
        self.ppt = pt_min_eig(self.mat_h, dh, dk)
        r = self.mat_h.reshape(dh, dk, dh, dk).transpose(0, 2, 1, 3).reshape(dh * dh, dk * dk)
        self.ccnr = float(np.linalg.svd(r, compute_uv=False).sum())
        self._entry = {}

    @property
    def npt(self):
        return self.ppt < PPT_FIRE - MARGIN

    @property
    def ccnr_fires(self):
        return self.ccnr > CCNR_FIRE + MARGIN

    def pos(self, s, i):
        """0-based k_major position of |s, i'> (both labels 1-based)."""
        return (i - 1) * self.dh + s - 1

    def entry_value(self, pi, sigma):
        """(n-2) sum_i r[p_i,p_i] + sum_i r[q_i,q_i] - sum_{i!=j} r[p_i,p_j]."""
        n = len(pi)
        p = [self.pos(pi[i], i + 1) for i in range(n)]
        q = [self.pos(sigma[i], i + 1) for i in range(n)]
        sub = self.mat_k[np.ix_(p, p)]
        tr = sub.trace()
        return float(((n - 2) * tr + self.mat_k[q, q].sum() - (sub.sum() - tr)).real)

    def entry_min(self, n):
        """Exact minimum of the entry value over pi, sigma with pi(i) != sigma(i)."""
        if n not in self._entry:
            perms = _perms(n)
            slots = np.arange(1, n + 1)
            P = (slots[None, :] - 1) * self.dh + perms - 1
            diag = self.mat_k.diagonal().real
            sub = self.mat_k.real[P[:, :, None], P[:, None, :]]
            tr = np.trace(sub, axis1=1, axis2=2)
            a = (n - 2) * tr - (sub.sum(axis=(1, 2)) - tr)
            b = diag[P].sum(axis=1)
            clash = (perms[:, None, :] == perms[None, :, :]).any(axis=2)
            vals = np.where(clash, np.inf, a[:, None] + b[None, :])
            self._entry[n] = float(vals.min())
        return self._entry[n]


@lru_cache(maxsize=None)
def _perms(n):
    return np.array(list(itertools.permutations(range(1, n + 1))))


def _pairs(v):
    a = np.asarray(v, dtype=float)
    return a[:, 0] + 1j * a[:, 1]


def _is_perm(img, n):
    return sorted(img) == list(range(1, n + 1))


def _kps_witness(ref, n, kappa, pi, sigma):
    """Dense witness of the permutation triple, k_major, from its formula:
    W = (n-2) sum |sp(i),i'><sp(i),i'| + sum |sk(i),i'><sk(i),i'|
        - sum_{i!=j} |sp(i),i'><sp(j),j'|, sp = sigma pi^-1, sk = sigma kappa^-1 pi^-1."""
    def inv(p):
        return [p.index(v) + 1 for v in range(1, n + 1)]

    pi_inv, kappa_inv = inv(list(pi)), inv(list(kappa))
    sp = [sigma[pi_inv[i] - 1] for i in range(n)]
    sk = [sigma[kappa_inv[pi_inv[i] - 1] - 1] for i in range(n)]
    D = ref.dh * ref.dk
    W = np.zeros((D, D))
    pos = [ref.pos(sp[i], i + 1) for i in range(n)]
    for i in range(n):
        W[pos[i], pos[i]] += n - 2
        q = ref.pos(sk[i], i + 1)
        W[q, q] += 1.0
        for j in range(n):
            if i != j:
                W[pos[i], pos[j]] -= 1.0
    return W


def check_entry_cert(cert, ref):
    """Index rules, the value read off the entries, and the witness trace."""
    n, k, h = cert["n"], list(cert["k_indices"]), list(cert["h_indices"])
    if not 2 <= n <= min(ref.dh, ref.dk) or len(k) != n or len(h) != n:
        return [f"entry: bad sizes n={n}, |k|={len(k)}, |h|={len(h)}"]
    res_k = [k[i] - i * ref.dh for i in range(n)]
    res_h = [h[i] - i * ref.dh for i in range(n)]
    problems = []
    if not (_is_perm(res_k, n) and _is_perm(res_h, n)):
        problems.append(f"entry: index residues {res_k}, {res_h} are not permutations")
    if any(a == b for a, b in zip(k, h)):
        problems.append("entry: k and h share a slot")
    if list(cert["pi1"]) != res_k or list(cert["sigma1"]) != res_h:
        problems.append("entry: pi1/sigma1 disagree with the indices")
    value = cert["value"]
    if not value < FIRE_TOL:
        problems.append(f"entry: value {value} does not fire")
    if problems:
        return problems
    direct = ref.entry_value(res_k, res_h)  # k_i = (i-1) dim_h + res_k(i)
    if abs(direct - value) > VALUE_TOL:
        problems.append(f"entry: value {value} but the entries give {direct}")
    w = cert["witness"]
    kappa, pi, sigma = list(w["kappa"]), list(w["pi"]), list(w["sigma"])
    if (w["n"], w["dim_h"], w["dim_k"]) != (n, ref.dh, ref.dk) or not all(
            _is_perm(p, n) for p in (kappa, pi, sigma)) or kappa == list(range(1, n + 1)):
        return problems + ["entry: malformed witness spec"]
    traced = float(np.einsum("ij,ji->", _kps_witness(ref, n, kappa, pi, sigma), ref.mat_k).real)
    if abs(traced - value) > VALUE_TOL:
        problems.append(f"entry: witness trace {traced} differs from value {value}")
    return problems


def check_distill_cert(cert, ref):
    """Orthonormal pairs, and the rotated rank-4 value by direct contraction."""
    x, z, y, w = (_pairs(cert[key]) for key in ("x", "z", "y", "w"))
    if x.shape != (ref.dh,) or z.shape != (ref.dh,) or y.shape != (ref.dk,) or w.shape != (ref.dk,):
        return ["distill: vector lengths do not match the dims"]
    problems = []
    for a, b, side in ((x, z, "H"), (y, w, "K")):
        defect = max(abs(np.linalg.norm(a) - 1), abs(np.linalg.norm(b) - 1), abs(np.vdot(a, b)))
        if defect > ORTHO_TOL:
            problems.append(f"distill: {side}-side pair not orthonormal ({defect:.2e})")
    T = ref.mat_h.reshape(ref.dh, ref.dk, ref.dh, ref.dk)

    def amp(a, b, c, d):
        return np.einsum("i,j,ijkl,k,l->", a.conj(), b.conj(), T, c, d)

    direct = float(amp(x, w, x, w).real + amp(z, y, z, y).real - 2 * amp(x, y, z, w).real)
    value = cert["value"]
    if abs(direct - value) > VALUE_TOL:
        problems.append(f"distill: value {value} but contraction gives {direct}")
    if not value < FIRE_TOL:
        problems.append(f"distill: value {value} does not fire")
    if ref.ppt >= 0:
        problems.append("distill: certificate on a state numpy finds PPT")
    return problems


def check_detect(report, ref, kind, name):
    """A detect() report (timings removed). Returns (problems, known, detected)."""
    problems = []
    if abs(report["ppt_min_eig"] - ref.ppt) > PPT_ABS_TOL:
        problems.append(f"ppt_min_eig {report['ppt_min_eig']} vs numpy {ref.ppt}")
    if abs(report["ccnr_trace_norm"] - ref.ccnr) > CCNR_ABS_TOL:
        problems.append(f"ccnr_trace_norm {report['ccnr_trace_norm']} vs numpy {ref.ccnr}")
    fired = set(report["fired"])
    for crit, must, must_not in (
        ("ppt", ref.npt, ref.ppt > PPT_FIRE + MARGIN),
        ("ccnr", ref.ccnr_fires, ref.ccnr < CCNR_FIRE - MARGIN),
    ):
        if (must and crit not in fired) or (must_not and crit in fired):
            problems.append(f"{crit} fired={crit in fired} contradicts numpy")
    entry, distill = report["entry_certificate"], report["distill_certificate"]
    if (entry is not None) != ("entry_criterion" in fired):
        problems.append("entry certificate and fired list disagree")
    if (distill is not None) != ("distill" in fired):
        problems.append("distill certificate and fired list disagree")
    if report["verdict"] != ("entangled" if fired else "undetected"):
        problems.append(f"verdict {report['verdict']} with fired {sorted(fired)}")
    true_min = min(
        (ref.entry_min(n) for n in range(2, min(ref.dh, ref.dk, DETECT_N_CAP) + 1)),
        default=np.inf,
    )
    if entry is not None:
        problems += check_entry_cert(entry, ref)
        if abs(entry["value"] - true_min) > VALUE_TOL:
            problems.append(f"entry value {entry['value']} is not the minimum {true_min}")
    elif true_min < FIRE_TOL - MARGIN:
        problems.append(f"entry criterion silent, brute-force minimum {true_min}")
    if distill is not None:
        problems += check_distill_cert(distill, ref)
    if kind == "separable" and report["verdict"] != "undetected":
        problems.append(f"separable input reported {report['verdict']}")
    paper = PAPER_VERDICTS.get(name) if kind == "paper" else None
    if paper is not None:
        if fired != set(paper["fired"]):
            problems.append(f"{name}: fired {sorted(fired)}, documented {paper['fired']}")
        if entry is None or abs(entry["value"] - paper["entry_value"]) > VALUE_TOL:
            problems.append(f"{name}: entry value differs from {paper['entry_value']}")
    known = ref.npt or ref.ccnr_fires or paper is not None
    return problems, known, report["verdict"] == "entangled"


def entry_candidates(ref, n, name, count=32):
    """Entry values at (pi = id, sigma = cyclic shift) and seeded random pairs."""
    ident = list(range(1, n + 1))
    vals = [ref.entry_value(ident, ident[1:] + ident[:1])]
    rng = np.random.default_rng([n, sum(map(ord, name))])
    while len(vals) <= count:
        pi, sigma = list(rng.permutation(n) + 1), list(rng.permutation(n) + 1)
        if all(a != b for a, b in zip(pi, sigma)):
            vals.append(ref.entry_value(pi, sigma))
    return vals


def check_entry_search(cert, ref, n, mode, kind, name):
    """One entry_search result. The exact minimum is brute-forced for
    n <= 6; beyond that the exact result must beat every candidate pair."""
    problems = []
    if cert is not None:
        if cert["n"] != n:
            problems.append(f"certificate for n={cert['n']}, asked n={n}")
        problems += check_entry_cert(cert, ref)
    value = np.inf if cert is None else cert["value"]
    if n <= BRUTE_MAX_N:
        true_min = ref.entry_min(n)
        if value < true_min - VALUE_TOL:
            problems.append(f"value {value} below the true minimum {true_min}")
        if mode == "exact" and (cert is not None or true_min < FIRE_TOL - MARGIN) \
                and abs(value - true_min) > VALUE_TOL:
            problems.append(f"exact value {value}, true minimum {true_min}")
    elif mode == "exact":
        best = min(entry_candidates(ref, n, name))
        if best < FIRE_TOL - MARGIN and value > best + VALUE_TOL:
            problems.append(f"exact value {value} above a candidate pair's {best}")
    if kind == "max_ent_mix" and mode == "exact" and cert is None:
        problems.append("exact search silent on a maximally entangled mixture")
    return problems


def check_entry_pair(exact, heuristic):
    """Heuristic never beats exact; returns (problems, values match)."""
    ev = np.inf if exact is None else exact["value"]
    hv = np.inf if heuristic is None else heuristic["value"]
    if hv < ev - VALUE_TOL:
        return [f"heuristic value {hv} below exact {ev}"], False
    return [], exact is not None and abs(hv - ev) <= 1e-9


def check_scan(payload, item):
    """One scan output. Returns (problems, known rows, detected known rows)."""
    family, points = item["family"], item["points"]
    rows = payload.get("rows", [])
    problems = [] if len(rows) == points else [f"{len(rows)} rows, expected {points}"]
    known = detected = 0
    for row in rows:
        if family == "e34":
            mat = example_34(row["q1"], row["q2"], row["q3"], row["a"], row["b"], row["c"])
            dims = 3
        else:
            mat = example_35(row["q1"], row["q2"], row["q3"], row["q4"],
                             row["a"], row["b"], row["c"], row["d"])
            dims = 4
        ref = Reference(mat, dims, dims, K_MAJOR)
        where = f"{family} q2={row['q2']:.6g}"
        if abs(row["ppt_min_eig"] - ref.ppt) > PPT_ABS_TOL:
            problems.append(f"{where}: ppt_min_eig {row['ppt_min_eig']} vs numpy {ref.ppt}")
        if abs(row["ccnr_trace_norm"] - ref.ccnr) > CCNR_ABS_TOL:
            problems.append(f"{where}: ccnr {row['ccnr_trace_norm']} vs numpy {ref.ccnr}")
        true_min = min(ref.entry_min(n) for n in range(2, dims + 1))
        got = row["entry_value"]
        if got is None:
            if true_min < FIRE_TOL - MARGIN:
                problems.append(f"{where}: entry silent, brute-force minimum {true_min}")
        elif abs(got - true_min) > VALUE_TOL:
            problems.append(f"{where}: entry value {got}, brute-force minimum {true_min}")
        fires = (row["ppt_min_eig"] < PPT_FIRE or row["ccnr_trace_norm"] > CCNR_FIRE
                 or got is not None)
        if row["verdict"] != ("entangled" if fires else "undetected"):
            problems.append(f"{where}: verdict {row['verdict']} contradicts its own values")
        paper = item["paper"] and abs(row["q2"] - 0.1) < 1e-12
        if paper:
            doc = PAPER_VERDICTS[family]
            if got is None or abs(got - doc["entry_value"]) > VALUE_TOL:
                problems.append(f"{where}: paper point entry value {got}")
            if ("ccnr" in doc["fired"]) != (row["ccnr_trace_norm"] > CCNR_FIRE) \
                    or row["ppt_min_eig"] < PPT_FIRE:
                problems.append(f"{where}: paper point PPT/CCNR differ from the documented verdict")
        if ref.npt or ref.ccnr_fires or paper:
            known += 1
            detected += row["verdict"] == "entangled"
    return problems, known, detected

"""The acceptance suite: ten numbered checks over the whole stack.

Each check returns (name, passed, detail). ``run_all`` executes them in
order; the CLI ``selfcheck`` command prints one line per check and the
acceptance tests assert each one individually. Everything is seeded, so a
failure reproduces exactly.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import numkit, states, witnesses, detection
from .states import BipartiteDims, DensityMatrix, H_MAJOR, K_MAJOR, PureState
from .witnesses import Permutation, WitnessSpec

__all__ = ["run_all", "CHECKS"]


def _ginibre_state(dims: BipartiteDims, rng, rank=None) -> DensityMatrix:
    D = dims.order
    k = D if rank is None else rank
    G = rng.standard_normal((D, k)) + 1j * rng.standard_normal((D, k))
    m = G @ G.conj().T
    return DensityMatrix(dims, H_MAJOR, m / np.trace(m).real)


def _random_perm(n, rng) -> tuple:
    return tuple(int(v) + 1 for v in rng.permutation(n))


def _clashfree_pair(n, rng):
    p = _random_perm(n, rng)
    while True:
        s = _random_perm(n, rng)
        if all(a != b for a, b in zip(p, s)):
            return p, s


def check_entry_closed_forms():
    """1: closed-form entry values of the 9x9 family, 100 parameter draws."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        q = rng.dirichlet([1.0, 1.0, 1.0])
        bound = np.sqrt(q[1] * q[2])
        a, b, c = (
            bound * rng.uniform(0.0, 0.99) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(3)
        )
        rho = states.example_34(q[0], q[1], q[2], a, b, c)
        v1 = detection.entry_value_indices(rho, (1, 5, 9), (3, 4, 8))
        v2 = detection.entry_value_indices(rho, (1, 5, 9), (2, 6, 7))
        worst = max(worst, abs(v1 - (q[1] - q[0])), abs(v2 - (q[2] - q[0])))
    return worst <= 1e-12, f"max |value - closed form| = {worst:.2e} over 100 draws (tol 1e-12)"


def check_pt_spectrum_34():
    """2: partial-transpose spectrum of the 9x9 family at the fixed point."""
    rho = states.example_34(1 / 5, 1 / 10, 7 / 10, 1 / 20, 1 / 20, 1 / 20)
    got = np.sort(numkit.hermitian_eigenvalues(states.partial_transpose_first(rho)))
    root = np.sqrt(61.0)
    expected = np.sort(
        [(8 + root) / 60, (8 - root) / 60, 1 / 4, 1 / 4, 1 / 60, 1 / 60, 1 / 15, 1 / 15, 1 / 15]
    )
    defect = float(np.max(np.abs(got - expected)))
    return defect <= 1e-10, f"max eigenvalue defect {defect:.2e} (tol 1e-10)"


def check_family_35():
    """3: the 16x16 family at its fixed point — PT spectrum, realignment norm,
    entry value, and silent PPT/CCNR in the aggregate report."""
    rho = states.example_35(1 / 20, 1 / 10, 17 / 40, 17 / 40, 1 / 40, 1 / 40, 1 / 40, 1 / 40)
    got = np.sort(numkit.hermitian_eigenvalues(states.partial_transpose_first(rho)))
    expected = np.sort(
        [0.0054, 0.0054, 0.0069, 0.0069, 0.0223, 0.0223, 0.0235, 0.0235,
         0.0821, 0.0821, 0.1027, 0.1027, 0.1212, 0.1212, 0.1359, 0.1359]
    )
    d_pt = float(np.max(np.abs(got - expected)))
    ccnr = detection.ccnr_check(rho)
    report = detection.detect(rho)
    entry_ok = report.entry_best is not None and abs(report.entry_best.value - (-0.05)) <= 1e-10
    silent_ok = "ppt" not in report.fired and "ccnr" not in report.fired
    passed = d_pt <= 1e-4 and abs(ccnr - 0.8303) <= 5e-4 and entry_ok and silent_ok
    entry_val = None if report.entry_best is None else report.entry_best.value
    return passed, (
        f"PT defect {d_pt:.2e} (tol 1e-4); ||R||_1 = {ccnr:.6f} (0.8303 +/- 5e-4); "
        f"entry value {entry_val} (-0.05 +/- 1e-10); fired = {list(report.fired)}"
    )


def check_choi_identity():
    """4: dense witness equals the Choi matrix of its map — exhaustive n=3,
    100 sampled specs at n=4, entrywise 1e-12."""
    worst = 0.0
    count3 = 0
    d33 = BipartiteDims(3, 3)
    perms3 = list(itertools.permutations((1, 2, 3)))
    for kap in perms3:
        if kap == (1, 2, 3):
            continue
        for pi in perms3:
            for sg in perms3:
                spec = WitnessSpec(3, Permutation(kap), Permutation(pi), Permutation(sg), d33)
                wa = witnesses.witness_kps(spec, K_MAJOR)
                wb = witnesses.choi_witness(lambda m: witnesses.phi_kappa_ps(m, spec), 3, d33)
                worst = max(worst, float(np.max(np.abs(wa.mat - wb.mat))))
                count3 += 1
    rng = np.random.default_rng(13)
    d44 = BipartiteDims(4, 4)
    count4 = 0
    while count4 < 100:
        kap = _random_perm(4, rng)
        if kap == (1, 2, 3, 4):
            continue
        spec = WitnessSpec(
            4, Permutation(kap), Permutation(_random_perm(4, rng)),
            Permutation(_random_perm(4, rng)), d44,
        )
        wa = witnesses.witness_kps(spec, K_MAJOR)
        wb = witnesses.choi_witness(lambda m: witnesses.phi_kappa_ps(m, spec), 4, d44)
        worst = max(worst, float(np.max(np.abs(wa.mat - wb.mat))))
        count4 += 1
    return worst <= 1e-12, (
        f"max entrywise defect {worst:.2e} over {count3} specs at n=3 "
        f"(exhaustive) + {count4} sampled at n=4 (tol 1e-12)"
    )


def _sampled_witnesses(rng):
    """5 witnesses on 2x2 (the whole family) + 45 on 3x3 -> 50 total."""
    d22, d33 = BipartiteDims(2, 2), BipartiteDims(3, 3)
    ws = [witnesses.rank4_witness(d22, H_MAJOR)]
    swap = Permutation((2, 1))
    for pi in ((1, 2), (2, 1)):
        for sg in ((1, 2), (2, 1)):
            spec = WitnessSpec(2, swap, Permutation(pi), Permutation(sg), d22)
            ws.append(witnesses.witness_kps(spec, H_MAJOR))
    ws33 = [witnesses.rank4_witness(d33, H_MAJOR)]
    seen = set()
    while len(ws33) < 45:
        n = int(rng.integers(2, 4))
        kap = _random_perm(n, rng)
        if kap == tuple(range(1, n + 1)):
            continue
        pi, sg = _random_perm(n, rng), _random_perm(n, rng)
        key = (n, kap, pi, sg)
        if key in seen:
            continue
        seen.add(key)
        spec = WitnessSpec(n, Permutation(kap), Permutation(pi), Permutation(sg), d33)
        ws33.append(witnesses.witness_kps(spec, H_MAJOR))
    return ws, ws33


def check_witness_soundness():
    """5: 10^4 separable states vs 50 witnesses — never negative beyond
    tolerance; every witness genuinely non-positive."""
    rng = np.random.default_rng(17)
    ws22, ws33 = _sampled_witnesses(rng)
    d22, d33 = BipartiteDims(2, 2), BipartiteDims(3, 3)
    worst = np.inf
    for i in range(5000):
        rho = states.random_separable(d22, int(rng.integers(2, 7)), seed=i)
        for w in ws22:
            worst = min(worst, witnesses.witness_value(w, rho))
    for i in range(5000):
        rho = states.random_separable(d33, int(rng.integers(2, 7)), seed=5000 + i)
        for w in ws33:
            worst = min(worst, witnesses.witness_value(w, rho))
    neg = [float(numkit.hermitian_eigenvalues(w.mat)[-1]) for w in ws22 + ws33]
    max_neg = max(neg)
    passed = worst >= -1e-9 and max_neg <= -1e-10
    return passed, (
        f"min Tr(W rho) = {worst:.3e} over 10^4 separables x 50 witnesses "
        f"(tol -1e-9); largest witness min-eigenvalue {max_neg:.3e} (need <= -1e-10)"
    )


def check_map_positivity():
    """6: both maps preserve positive semidefiniteness, 10^3 inputs per spec."""
    rng = np.random.default_rng(19)
    worst = np.inf
    samples = [
        WitnessSpec(2, Permutation((2, 1)), Permutation((2, 1)), Permutation((1, 2)), BipartiteDims(2, 2)),
        WitnessSpec(3, Permutation((2, 3, 1)), Permutation((3, 1, 2)), Permutation((2, 1, 3)), BipartiteDims(3, 3)),
        WitnessSpec(4, Permutation((2, 1, 4, 3)), Permutation((1, 3, 2, 4)), Permutation((4, 2, 3, 1)), BipartiteDims(4, 4)),
    ]
    for spec in samples:
        order = spec.n + int(spec.n < 4)  # exercise the zeroed complement too
        for _ in range(1000):
            G = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            a = G @ G.conj().T
            a /= np.trace(a).real
            for out in (witnesses.phi_kappa(a, spec.n, spec.kappa), witnesses.phi_kappa_ps(a, spec)):
                worst = min(worst, float(numkit.hermitian_eigenvalues(out)[-1]))
    return worst >= -1e-9, (
        f"min output eigenvalue {worst:.3e} over 3 specs x 10^3 PSD inputs x 2 maps (tol -1e-9)"
    )


def check_pure_universality():
    """7: pure-state verdicts match the Schmidt rank; the optimal value is
    realized by the rotated witness at the top Schmidt pairs."""
    rng = np.random.default_rng(23)
    dims = BipartiteDims(3, 4)
    agree = 0
    worst = 0.0
    for _ in range(1000):
        C = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        C /= np.linalg.norm(C)
        psi = PureState(dims, C)
        entangled, value = detection.pure_check(psi)
        U, s, Vh = np.linalg.svd(C)
        truth = bool(s[1] > 1e-10)
        if entangled == truth:
            agree += 1
        rv = witnesses.rotated_rank4_value(psi.density(), U[:, 0], U[:, 1], Vh[0], Vh[1])
        worst = max(worst, abs(value - rv))
    plus = PureState(BipartiteDims(2, 2), np.eye(2, dtype=complex) / np.sqrt(2.0))
    _, vplus = detection.pure_check(plus)
    plus_defect = abs(vplus - (-1.0))
    passed = agree == 1000 and worst <= 1e-9 and plus_defect <= 1e-12
    return passed, (
        f"verdict agreement {agree}/1000; max |value - rotated| = {worst:.2e} (tol 1e-9); "
        f"uniform two-qubit state value defect {plus_defect:.2e}"
    )


def _double_enumeration(rho, n):
    """Full (pi, sigma) enumeration with the searcher's tie rules: the
    lexicographically first pi within 1e-12 of the minimum over all pi,
    then the lexicographically first sigma within 1e-12 of that pi's
    constrained optimum."""
    perms = list(itertools.permutations(range(1, n + 1)))

    def sigma_values(p):
        out = []
        for s in perms:
            if any(a == b for a, b in zip(p, s)):
                continue
            out.append((s, detection.entry_value_perms(rho, n, Permutation(p), Permutation(s))))
        return out

    totals = [min(v for _, v in sigma_values(p)) for p in perms]
    best_total = min(totals)
    best_pi = next(p for p, t in zip(perms, totals) if t <= best_total + 1e-12)
    pairs = sigma_values(best_pi)
    vmin = min(v for _, v in pairs)
    sig_img = next(s for s, v in pairs if v <= vmin + 1e-12)
    value = detection.entry_value_perms(rho, n, Permutation(best_pi), Permutation(sig_img))
    if not value < detection.FIRE_TOL:
        return None
    return best_pi, sig_img, value


def check_entry_search_exactness():
    """8: the exact searcher equals double enumeration on 100 3x3 states."""
    rng = np.random.default_rng(23 * 41)
    dims = BipartiteDims(3, 3)
    fired = 0
    for i in range(100):
        if i % 3 == 0:
            rho = _ginibre_state(dims, rng, rank=int(rng.integers(1, 10)))
        elif i % 3 == 1:
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            v /= np.linalg.norm(v)
            t = rng.uniform(0.3, 1.0)
            m = t * np.outer(v, v.conj()) + (1 - t) * np.eye(9) / 9
            rho = DensityMatrix(dims, H_MAJOR, m)
        else:
            # diagonal-dominant family states, which fire about half the time
            q = rng.dirichlet([1.0, 1.0, 1.0])
            bound = np.sqrt(q[1] * q[2]) * rng.uniform(0.0, 0.99)
            rho = states.example_34(q[0], q[1], q[2], bound, bound / 2, 0.0)
        cert = detection.entry_search(rho, 3, mode="exact")
        oracle = _double_enumeration(rho, 3)
        if (cert is None) != (oracle is None):
            return False, f"state {i}: searcher and oracle disagree on firing"
        if cert is not None:
            p, s, v = oracle
            fired += 1
            if cert.pi1.image != p or cert.sigma1.image != s or abs(cert.value - v) > 1e-12:
                return False, (
                    f"state {i}: searcher ({cert.pi1.image}, {cert.sigma1.image}, {cert.value}) "
                    f"!= oracle ({p}, {s}, {v})"
                )
    return True, f"100/100 states match the double enumeration ({fired} fired)"


def check_certificate_chain():
    """9: index value == trace against the reconstructed witness, 10^3 pairs."""
    rng = np.random.default_rng(29)
    worst = 0.0
    cache = {}
    for n in (3, 4):
        dims = BipartiteDims(n, n)
        for _ in range(500):
            rho = _ginibre_state(dims, rng)
            rho = states.reorder(rho, K_MAJOR)
            p1, s1 = _clashfree_pair(n, rng)
            k = tuple((i - 1) * n + p1[i - 1] for i in range(1, n + 1))
            h = tuple((i - 1) * n + s1[i - 1] for i in range(1, n + 1))
            v1 = detection.entry_value_indices(rho, k, h)
            _, _, spec = detection.indices_to_perms(k, h, n)
            key = (n, spec.kappa.image, spec.sigma.image)
            if key not in cache:
                cache[key] = witnesses.witness_kps(spec, K_MAJOR)
            v2 = witnesses.witness_value(cache[key], rho)
            worst = max(worst, abs(v1 - v2))
    return worst <= 1e-10, (
        f"max |entry value - witness trace| = {worst:.2e} over 10^3 pairs at n=3,4 (tol 1e-10)"
    )


def check_distill():
    """10: no certificate on separables (hard); >= 95/100 on seeded NPT
    two-qubit states with 20 restarts (power target)."""
    false_pos = 0
    for i in range(100):
        rho = states.random_separable(BipartiteDims(2, 2), 2 + i % 5, seed=i)
        if detection.distill_search(rho, restarts=8, seed=i) is not None:
            false_pos += 1
    for i in range(50):
        rho = states.random_separable(BipartiteDims(3, 3), 2 + i % 5, seed=100 + i)
        if detection.distill_search(rho, restarts=8, seed=i) is not None:
            false_pos += 1
    rng = np.random.default_rng(31)
    dims = BipartiteDims(2, 2)
    hits = 0
    for i in range(100):
        while True:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            t = rng.uniform(0.75, 1.0)
            m = t * np.outer(v, v.conj()) + (1 - t) * np.eye(4) / 4
            rho = DensityMatrix(dims, H_MAJOR, m)
            if detection.ppt_check(rho) < -1e-6:
                break
        if detection.distill_search(rho, restarts=20, seed=1000 + i) is not None:
            hits += 1
    passed = false_pos == 0 and hits >= 95
    return passed, (
        f"false positives {false_pos}/150 separables (need 0); "
        f"certificates on {hits}/100 NPT two-qubit states (need >= 95)"
    )


CHECKS = [
    ("entry_closed_forms", check_entry_closed_forms),
    ("pt_spectrum_9x9_family", check_pt_spectrum_34),
    ("16x16_family_point", check_family_35),
    ("choi_identity", check_choi_identity),
    ("witness_soundness", check_witness_soundness),
    ("map_positivity", check_map_positivity),
    ("pure_state_universality", check_pure_universality),
    ("entry_search_exactness", check_entry_search_exactness),
    ("certificate_witness_chain", check_certificate_chain),
    ("distill_soundness_and_power", check_distill),
]


def run_all(printer=None):
    """Run every check; returns a list of (name, passed, detail, seconds)."""
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        passed, detail = fn()
        dt = time.perf_counter() - t0
        results.append((name, passed, detail, dt))
        if printer is not None:
            status = "PASS" if passed else "FAIL"
            printer(f"[{status}] {name} ({dt:.1f}s): {detail}")
    return results

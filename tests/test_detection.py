import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from witnesskit import (
    BipartiteDims,
    DensityMatrix,
    H_MAJOR,
    K_MAJOR,
    Permutation,
    PureState,
    ccnr_check,
    detect,
    distill_search,
    entry_search,
    entry_value_indices,
    entry_value_perms,
    example_34,
    example_35,
    indices_to_perms,
    maximally_entangled,
    ppt_check,
    pure_check,
    random_separable,
    reorder,
    report_to_dict,
    rotated_rank4_value,
    validate,
    witness_kps,
    witness_value,
)
from witnesskit import detection, selfcheck

D22 = BipartiteDims(2, 2)
D33 = BipartiteDims(3, 3)
D44 = BipartiteDims(4, 4)

P34 = (1 / 5, 1 / 10, 7 / 10, 1 / 20, 1 / 20, 1 / 20)
P35 = (1 / 20, 1 / 10, 17 / 40, 17 / 40, 1 / 40, 1 / 40, 1 / 40, 1 / 40)
G35 = (0.13, 0.22, 0.35, 0.30, 0.09 + 0.05j, 0.07 - 0.11j, 0.12 + 0.03j, 0.02 - 0.08j)


def _ginibre(dims, seed, rank=None):
    rng = np.random.default_rng(seed)
    d = dims.order
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    m = g @ g.conj().T
    return DensityMatrix(dims, H_MAJOR, m / np.trace(m).real)


# ---------------------------------------------------------- scalar criteria

def test_ppt_check_values():
    assert abs(ppt_check(maximally_entangled(2, D22)) + 0.5) < 1e-12
    assert abs(ppt_check(example_34(*P34)) - (8 - np.sqrt(61)) / 60) < 1e-10
    assert ppt_check(random_separable(D33, 4, seed=0)) > -1e-10


def test_ccnr_check_values():
    assert abs(ccnr_check(maximally_entangled(2, D22)) - 2.0) < 1e-12
    assert abs(ccnr_check(example_34(*P34)) - 1.1074090046117058) < 1e-12
    assert abs(ccnr_check(example_35(*P35)) - 0.8304888690172844) < 1e-12


# ------------------------------------------------------------- entry values

def test_entry_closed_forms_34():
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = rng.dirichlet([1.0, 1.0, 1.0])
        bound = np.sqrt(q[1] * q[2])
        amps = [bound * rng.uniform(0, 0.99) * np.exp(2j * np.pi * rng.uniform())
                for _ in range(3)]
        rho = example_34(q[0], q[1], q[2], *amps)
        assert abs(entry_value_indices(rho, (1, 5, 9), (3, 4, 8)) - (q[1] - q[0])) < 1e-12
        assert abs(entry_value_indices(rho, (1, 5, 9), (2, 6, 7)) - (q[2] - q[0])) < 1e-12


def test_entry_pair_values_35():
    rho = example_35(*P35)
    q = P35[:4]
    pairs = [((1, 6, 11, 16), (4, 5, 10, 15), q[1] - q[0]),
             ((1, 6, 11, 16), (3, 8, 9, 14), q[2] - q[0]),
             ((1, 6, 11, 16), (2, 7, 12, 13), q[3] - q[0]),
             ((4, 5, 10, 15), (1, 6, 11, 16), q[0] - q[1]),
             ((4, 5, 10, 15), (3, 8, 9, 14), q[2] - q[1]),
             ((4, 5, 10, 15), (2, 7, 12, 13), q[3] - q[1])]
    for k, h, expected in pairs:
        assert abs(entry_value_indices(rho, k, h) - expected) < 1e-12


def test_entry_pair_attribution_at_generic_parameters():
    # h = (2,7,12,13) picks up the q4 weight; degenerate q3 = q4 points hide
    # the distinction, so pin it where all four weights differ
    rho = example_35(*G35)
    v = entry_value_indices(rho, (1, 6, 11, 16), (2, 7, 12, 13))
    assert abs(v - (G35[3] - G35[0])) < 1e-12
    v2 = entry_value_indices(rho, (1, 6, 11, 16), (3, 8, 9, 14))
    assert abs(v2 - (G35[2] - G35[0])) < 1e-12


def test_entry_value_indices_matches_perm_form():
    rho = reorder(_ginibre(D33, seed=3), K_MAJOR)
    k = (2, 4, 9)   # pi1 = (2, 1, 3)
    h = (3, 5, 7)   # sigma1 = (3, 2, 1)
    v1 = entry_value_indices(rho, k, h)
    pi1, sigma1, spec = indices_to_perms(k, h, 3)
    assert pi1.image == (2, 1, 3) and sigma1.image == (3, 2, 1)
    v2 = entry_value_perms(rho, 3, pi1, sigma1)
    assert abs(v1 - v2) < 1e-12
    # kappa = sigma1^{-1} . pi1
    assert spec.kappa.image == sigma1.inverse().compose(pi1).image


def test_entry_index_validation():
    rho = reorder(_ginibre(D33, seed=4), K_MAJOR)
    with pytest.raises(ValueError, match=r"outside \(3, 6\]"):
        entry_value_indices(rho, (1, 7, 9), (3, 4, 8))
    with pytest.raises(ValueError, match="differ in every slot"):
        entry_value_indices(rho, (1, 5, 9), (1, 4, 8))
    with pytest.raises(ValueError, match="not a permutation"):
        entry_value_indices(rho, (1, 4, 7), (3, 5, 8))
    # residues fail while the index sums still look right
    with pytest.raises(ValueError, match="index-sum condition"):
        entry_value_indices(rho, (2, 5, 8), (1, 6, 7))
    with pytest.raises(ValueError, match="need 3"):
        entry_value_indices(rho, (1, 5, 9), (3, 4))
    with pytest.raises(ValueError, match="got 3x3"):
        entry_value_indices(rho, (1, 4), (2, 3))


def test_entry_value_requires_square_blocks():
    rho = _ginibre(BipartiteDims(2, 3), seed=5)
    with pytest.raises(ValueError):
        entry_value_indices(rho, (1, 4), (2, 3))


def test_entry_value_rejects_complex_diagonal():
    rho = DensityMatrix(D22, H_MAJOR, np.diag([0.25 + 1e-6j] * 4))
    with pytest.raises(ValueError, match="imaginary part"):
        entry_value_perms(rho, 2, Permutation.identity(2), Permutation((2, 1)))


def test_entry_value_perms_rejects_clashes():
    rho = reorder(_ginibre(D33, seed=6), K_MAJOR)
    with pytest.raises(ValueError, match="coincide at slots"):
        entry_value_perms(rho, 3, Permutation((1, 2, 3)), Permutation((1, 3, 2)))


# ------------------------------------------------------------- entry search

def test_entry_search_34():
    cert = entry_search(example_34(*P34), 3, mode="exact")
    assert cert is not None
    assert abs(cert.value + 0.1) < 1e-12
    assert cert.k_indices == (1, 5, 9) and cert.h_indices == (3, 4, 8)


def test_entry_search_35():
    rho = example_35(*P35)
    cert = entry_search(rho, 4, mode="exact")
    assert cert is not None and abs(cert.value + 0.05) < 1e-12
    # smaller blocks see nothing at these parameters
    assert entry_search(rho, 2, mode="exact") is None
    assert entry_search(rho, 3, mode="exact") is None


def test_entry_search_certificate_chain():
    # the certificate's witness reproduces its value as a trace
    cert = entry_search(example_34(*P34), 3, mode="exact")
    w = witness_kps(cert.witness_spec)
    assert abs(witness_value(w, example_34(*P34)) - cert.value) < 1e-10
    v = entry_value_indices(reorder(example_34(*P34), K_MAJOR),
                            cert.k_indices, cert.h_indices)
    assert abs(v - cert.value) < 1e-12


def test_entry_search_silent_on_separables():
    for seed in range(5):
        rho = random_separable(D33, terms=3, seed=seed)
        assert entry_search(rho, 3, mode="exact") is None


def test_entry_search_heuristic_agrees_when_it_fires():
    rho = example_34(*P34)
    exact = entry_search(rho, 3, mode="exact")
    heur = entry_search(rho, 3, mode="heuristic", seed=1)
    assert heur is not None
    assert heur.value <= exact.value + 1e-12


def _pin_state(n, kind, seed):
    rng = np.random.default_rng(seed)
    d = n * n
    g = rng.standard_normal((d, d if kind != "low_rank" else 2))
    g = g + 1j * rng.standard_normal(g.shape)
    m = g @ g.conj().T
    m /= np.trace(m).real
    if kind != "ginibre":
        # a maximally entangled vector on the cells (perm(i), i), mixed with
        # white noise and the random state drawn above
        perm = rng.permutation(n)
        v = np.zeros(d)
        v[perm * n + np.arange(n)] = 1 / np.sqrt(n)
        t = rng.uniform(0.3, 0.7)
        m = t * np.outer(v, v) + (1 - t) * (0.7 * np.eye(d) / d + 0.3 * m)
    rho = DensityMatrix(BipartiteDims(n, n), H_MAJOR, m)
    return reorder(rho, K_MAJOR) if seed % 2 else rho


# Exact-mode certificates of the per-pi assignment search (one solver call
# per pi) that the sweep replaced, recorded from it: (n, kind, seed, None or
# (pi1, sigma1, value)).
PINNED_ENTRY = [
    (2, "ginibre", 200, None),
    (2, "low_rank", 201, ((1, 2), (2, 1), -0.03324083956954693)),
    (2, "max_ent_mix", 202, ((1, 2), (2, 1), -0.08445148444307327)),
    (3, "ginibre", 300, None),
    (3, "low_rank", 301, ((2, 3, 1), (1, 2, 3), -0.03117115035361795)),
    (3, "max_ent_mix", 302, None),
    (4, "ginibre", 400, None),
    (4, "low_rank", 401, None),
    (4, "max_ent_mix", 402, None),
    (4, "low_rank", 411, None),
    (4, "max_ent_mix", 412, ((1, 2, 4, 3), (4, 3, 1, 2), -0.4725495129535695)),
    (5, "ginibre", 500, None),
    (5, "low_rank", 501, ((5, 4, 1, 2, 3), (3, 1, 4, 5, 2), -0.27981116570841813)),
    (5, "max_ent_mix", 502, None),
    (6, "ginibre", 600, None),
    (6, "low_rank", 601, ((4, 3, 1, 6, 5, 2), (3, 2, 4, 5, 1, 6), -0.4385465252011067)),
    (6, "max_ent_mix", 602, ((3, 4, 2, 6, 5, 1), (2, 1, 6, 4, 3, 5), -0.06660967118448413)),
    (7, "ginibre", 700, None),
    (7, "low_rank", 701, ((1, 4, 6, 7, 5, 3, 2), (4, 2, 5, 6, 1, 7, 3), -0.426386678917845)),
    (7, "max_ent_mix", 702, None),
]


@pytest.mark.parametrize("n, kind, seed, expected", PINNED_ENTRY)
def test_entry_sweep_matches_recorded_certificates(n, kind, seed, expected):
    cert = entry_search(_pin_state(n, kind, seed), n, mode="exact")
    if expected is None:
        assert cert is None
    else:
        pi1, sigma1, value = expected
        assert cert is not None
        assert cert.pi1.image == pi1 and cert.sigma1.image == sigma1
        assert abs(cert.value - value) < 1e-12


def _tie_chain_state():
    # A mixture of maximally entangled vectors on three disjoint cyclic
    # shifts tau_k of 4 (x) 4, weights p_k; the fourth shift carries no
    # weight, so each tau_k scores -p_k with sigma = tau_3. The weights step
    # by 0.8e-12 in lexicographic order of tau_0 < tau_1 < tau_2, a chain of
    # near-ties: the minimum is tau_2's and the lexicographically first pi
    # within 1e-12 of it is tau_1. (A sequential strict-improvement scan,
    # keeping the first pi unless another beats it by 1e-12, ends at tau_2.)
    step = 0.8e-12
    p = (1 - 3 * step) / 3 + np.array([0.0, step, 2 * step])
    m = np.zeros((16, 16))
    for k in range(3):
        v = np.zeros(16)
        v[(np.arange(4) + k) % 4 * 4 + np.arange(4)] = 0.5
        m += p[k] * np.outer(v, v)
    return DensityMatrix(D44, H_MAJOR, m), p


def test_entry_sweep_pi_tie_rule():
    rho, p = _tie_chain_state()
    cert = entry_search(rho, 4, mode="exact")
    assert cert.pi1.image == (2, 3, 4, 1) and cert.sigma1.image == (4, 1, 2, 3)
    assert abs(cert.value + p[1]) < 1e-14


def test_selfcheck_enumeration_follows_the_pi_tie_rule():
    # check 8's reference enumerates every (pi, sigma) pair; on the chain
    # of near-ties it must pick the pi the searcher's documented rule picks
    rho, p = _tie_chain_state()
    pi, sigma, value = selfcheck._double_enumeration(rho, 4)
    assert pi == (2, 3, 4, 1) and sigma == (4, 1, 2, 3)
    assert abs(value + p[1]) < 1e-14


def _stack_state(dh, dk, seed, ordering):
    # Ginibre states, two in three mixed with a maximally entangled vector
    # of rank r on labels 1..r, so that a stack holds firing and silent
    # states at every n
    rng = np.random.default_rng(seed)
    d = dh * dk
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    if seed % 3:
        r = 2 + seed % (min(dh, dk) - 1)
        v = np.zeros(d)
        v[rng.permutation(r) * dk + rng.permutation(r)] = 1 / np.sqrt(r)
        t = rng.uniform(0.3, 0.9)
        m = t * np.outer(v, v) + (1 - t) * m
    return reorder(DensityMatrix(BipartiteDims(dh, dk), H_MAJOR, m), ordering)


def _costs(rhos, n):
    mats = np.stack([rho.mat for rho in rhos])
    return detection._EntryCosts(detection._entry_tables(mats, rhos[0].dims, rhos[0].ordering, n), n)


@pytest.mark.parametrize("ordering", [H_MAJOR, K_MAJOR])
@pytest.mark.parametrize("dh, dk", [(3, 3), (4, 4), (3, 4)])
def test_entry_sweep_rows_match_single_state_search(dh, dk, ordering):
    rhos = [_stack_state(dh, dk, 100 * dh + 10 * dk + s, ordering) for s in range(12)]
    fired = 0
    for n in range(2, min(dh, dk) + 1):
        # every (state, pi) total of the stack, before any certificate
        cells, masks = detection._perm_table(n)
        stack = _costs(rhos, n)
        totals = stack.pi_parts(cells) + stack.sigma_mins(cells, masks)
        perms = list(itertools.permutations(range(1, n + 1)))
        for rho, row in zip(rhos, totals):
            one = _costs([rho], n)
            assert np.array_equal(row, one.pi_parts(cells)[0] + one.sigma_mins(cells, masks)[0])
            enumerated = [
                min(entry_value_perms(rho, n, Permutation(p), Permutation(s))
                    for s in perms if all(a != b for a, b in zip(p, s)))
                for p in perms
            ]
            assert np.allclose(row, enumerated, rtol=0, atol=1e-12)
        swept = detection._entry_sweep(rhos, np.stack([rho.mat for rho in rhos]), n)
        assert len(swept) == len(rhos)
        for rho, cert in zip(rhos, swept):
            single = entry_search(rho, n, mode="exact")
            assert (cert is None) == (single is None)
            if cert is not None:
                fired += 1
                assert (cert.pi1, cert.sigma1) == (single.pi1, single.sigma1)
                assert cert.value == single.value
                assert cert == single
    assert 0 < fired < len(rhos) * (min(dh, dk) - 1)


def test_scan_criteria_rows_and_input_checks(monkeypatch):
    rhos = [_stack_state(3, 4, 340 + s, K_MAJOR) for s in range(6)]
    reports = detection.scan_criteria(rhos)
    assert len(reports) == len(rhos)
    for rho, rep in zip(rhos, reports):
        assert rep.ppt_min_eig == ppt_check(rho) and rep.ccnr_norm == ccnr_check(rho)
        certs = [c for c in (entry_search(rho, n) for n in (2, 3)) if c is not None]
        assert rep.entry_best == (min(certs, key=lambda c: c.value) if certs else None)
        assert rep.distill_best is None
    assert {rep.entry_best is None for rep in reports} == {True, False}
    # a list longer than one block runs block by block, with the same rows
    monkeypatch.setattr(detection, "_SCAN_BLOCK", 4)
    assert detection.scan_criteria(rhos) == reports
    assert detection.scan_criteria([]) == []
    with pytest.raises(ValueError, match="one dims"):
        detection.scan_criteria([rhos[0], _stack_state(3, 3, 1, K_MAJOR)])
    with pytest.raises(ValueError, match="one ordering"):
        detection.scan_criteria([rhos[0], reorder(rhos[1], H_MAJOR)])


def _slack_3x3(eps):
    # |33><33| - (eps/2)(|11> - |22>)(<11| - <22|): valid, since validation
    # admits eigenvalues down to -1e-9, and its positive part is a product
    # state, so no criterion may certify it
    v = np.zeros(9)
    v[0], v[4] = 1.0, -1.0
    m = -(eps / 2) * np.outer(v, v)
    m[8, 8] += 1.0
    return DensityMatrix(D33, H_MAJOR, m)


@pytest.mark.parametrize("eps", [3e-10, 5e-10, 9e-10])
def test_scan_criteria_sound_inside_validation_slack(eps):
    rho = _slack_3x3(eps)
    assert validate(rho) == []
    # without the tr rho_- margin the n = 2 entry value -eps would fire
    assert abs(entry_search(rho, 2).value + eps) < 1e-15
    (rep,) = detection.scan_criteria([rho])
    assert rep.verdict == "undetected" and rep.fired == ()
    assert rep.entry_best is None
    alone = detect(rho)
    assert (alone.verdict, alone.entry_best) == (rep.verdict, rep.entry_best)
    # in a stack, each state's margin is its own tr rho_-
    e34 = reorder(example_34(*P34), H_MAJOR)
    assert [r.fired for r in detection.scan_criteria([e34, rho])] == [
        ("ccnr", "entry_criterion"), ()]


def test_scan_criteria_ccnr_bound_uses_each_states_trace():
    # product states whose traces drift to either side of 1 within the
    # validation tolerance: ||R||_1 = tr rho, which CCNR must not read as
    # entanglement against another state's tr rho_+
    rhos = []
    for c in (1 - 9e-10, 1 + 9e-10):
        m = np.zeros((9, 9))
        m[0, 0] = c
        rhos.append(DensityMatrix(D33, H_MAJOR, m))
        assert validate(rhos[-1]) == []
    reports = detection.scan_criteria(rhos)
    assert reports[1].ccnr_norm > 1 + 5e-10
    assert [r.fired for r in reports] == [(), ()]


def _werner(lam):
    # p |psi-><psi-| + (1 - p) I/4 with lambda_min(rho^Gamma) = (1 - 3p)/4 = lam
    p = (1 - 4 * lam) / 3
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    return DensityMatrix(D22, H_MAJOR, p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4)


@pytest.mark.parametrize("lam", [-3e-10, -8e-10, -2e-9])
def test_ppt_fires_wherever_distill_fires(lam):
    # PPT and distill share one fire rule, and distill runs only where PPT
    # fired
    rep = detect(_werner(lam))
    assert abs(rep.ppt_min_eig - lam) < 1e-15
    assert "distill" in rep.fired and "ppt" in rep.fired
    assert rep.distill_best.value < 2 * lam + 1e-15


def test_distill_does_not_run_where_ppt_is_silent(monkeypatch):
    calls = []
    monkeypatch.setattr(detection, "distill_search", lambda rho: calls.append(rho))
    for rho in (_werner(2e-2), example_34(*P34), _slack_3x3(9e-10)):
        rep = detect(rho)
        assert "ppt" not in rep.fired and rep.distill_best is None
    assert calls == []


def test_detect_takes_a_state_and_nothing_else():
    assert list(inspect.signature(detect).parameters) == ["rho"]


@pytest.mark.parametrize("ordering", [H_MAJOR, K_MAJOR])
@pytest.mark.parametrize("dh, dk", [(2, 3), (3, 2), (3, 3), (4, 4)])
def test_scan_criteria_reports_equal_detect(dh, dk, ordering):
    rhos = [_stack_state(dh, dk, 500 + 10 * dh + dk + s, ordering) for s in range(6)]
    rhos.append(random_separable(BipartiteDims(dh, dk), terms=3, seed=dh + dk))
    rhos[-1] = reorder(rhos[-1], ordering)
    seen = set()
    for rho, rep in zip(rhos, detection.scan_criteria(rhos)):
        one = detect(rho)
        assert rep.ppt_min_eig == one.ppt_min_eig and rep.ccnr_norm == one.ccnr_norm
        assert rep.entry_best == one.entry_best
        assert rep.distill_best is None
        assert rep.fired == tuple(f for f in one.fired if f != "distill")
        assert rep.verdict == ("entangled" if rep.fired else "undetected")
        seen.add(rep.fired)
    assert () in seen and any("entry_criterion" in f for f in seen)


def test_criteria_reject_non_hermitian_input():
    # DensityMatrix checks shape and finiteness only; the criteria pass
    # leaves the Hermiticity check to numkit, which raises past 1e-9 * max |rho|
    m = np.eye(9) / 9
    m[0, 1] = 1e-6
    rho = DensityMatrix(D33, H_MAJOR, m)
    for run in (ppt_check, detect, lambda r: detection.scan_criteria([r])):
        with pytest.raises(ValueError, match="not Hermitian"):
            run(rho)


def test_entry_search_heuristic_size_cap():
    rho = DensityMatrix(BipartiteDims(9, 9), H_MAJOR, np.eye(81) / 81)
    for mode in ("heuristic", "exact"):
        with pytest.raises(ValueError, match="n <= 8"):
            entry_search(rho, 9, mode=mode)


def test_entry_search_input_checks():
    rho = example_34(*P34)
    with pytest.raises(ValueError, match="mode"):
        entry_search(rho, 3, mode="fast")
    with pytest.raises(ValueError):
        entry_search(rho, 5)
    with pytest.raises(ValueError):
        entry_search(rho, 1)


# --------------------------------------------------------------- pure states

def test_pure_check_product_and_entangled():
    product = PureState(D22, np.array([[1.0, 0.0], [0.0, 0.0]]))
    ent, val = pure_check(product)
    assert not ent and val == 0.0
    bell = PureState(D22, np.eye(2) / np.sqrt(2))
    ent, val = pure_check(bell)
    assert ent and abs(val + 1.0) < 1e-12


def test_pure_check_silent_on_product_vectors():
    rng = np.random.default_rng(41)
    for dh, dk in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 5), (5, 2), (7, 7)]:
        for _ in range(5):
            x = rng.standard_normal(dh) + 1j * rng.standard_normal(dh)
            y = rng.standard_normal(dk) + 1j * rng.standard_normal(dk)
            c = np.outer(x, y)
            ent, _ = pure_check(PureState(BipartiteDims(dh, dk), c / np.linalg.norm(c)))
            assert not ent


def test_pure_check_matches_rotated_value():
    rng = np.random.default_rng(23)
    dims = BipartiteDims(3, 4)
    for _ in range(10):
        c = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        c /= np.linalg.norm(c)
        psi = PureState(dims, c)
        ent, val = pure_check(psi)
        u, s, vh = np.linalg.svd(c)
        assert ent == (s[1] > 1e-10)
        direct = rotated_rank4_value(psi.density(), u[:, 0], u[:, 1],
                                     vh[0], vh[1])
        assert abs(val - direct) < 1e-9
        assert abs(val + 2 * s[0] * s[1]) < 1e-12


# ------------------------------------------------------------ distillability

def test_distill_on_maximally_entangled():
    cert = distill_search(maximally_entangled(2, D22), restarts=10, seed=0)
    assert cert is not None and abs(cert.value + 1.0) < 1e-9
    # returned vectors are orthonormal pairs and reproduce the value
    for a, b in ((cert.x, cert.z), (cert.y, cert.w)):
        assert abs(np.vdot(a, a) - 1) < 1e-10 and abs(np.vdot(a, b)) < 1e-10
    direct = rotated_rank4_value(maximally_entangled(2, D22),
                                 cert.x, cert.z, cert.y, cert.w)
    assert abs(direct - cert.value) < 1e-10


def test_distill_silent_on_ppt_states():
    assert distill_search(example_35(*P35), restarts=5, seed=0) is None
    for seed in range(5):
        assert distill_search(random_separable(D22, 3, seed=seed), restarts=8, seed=0) is None


def test_distill_skips_search_on_ppt_input(monkeypatch):
    def no_search(*args):
        raise AssertionError("distill search ran on a PPT state")

    monkeypatch.setattr(detection, "_refine_batch", no_search)
    assert distill_search(example_34(*P34), seed=0) is None
    assert distill_search(random_separable(D33, 4, seed=0), seed=0) is None


# Certificate values of the sequential (one seed at a time) search, recorded
# before the seeds were batched: (dims, state seed, rank, value or None), each
# at restarts=20 with seed = state seed. The batch changes only the rounding.
SEQUENTIAL_DISTILL = [
    ((2, 2), 0, None, None),
    ((2, 2), 4, 2, None),
    ((2, 2), 5, 3, None),
    ((2, 2), 2, None, -0.03191711613999193),
    ((3, 3), 5, None, -0.02308291474813881),
    ((3, 3), 0, 2, -0.589729370649664),
    ((4, 4), 0, None, -0.05016078784385361),
    ((2, 5), 3, None, -0.07686282852681237),
    ((5, 2), 3, None, -0.06140030783085325),
    ((3, 4), 1, None, -0.07675354893589635),
    ((3, 4), 4, 3, -0.4676292190029036),
]


@pytest.mark.parametrize("dims, seed, rank, value", SEQUENTIAL_DISTILL)
def test_distill_matches_sequential_search(dims, seed, rank, value):
    rho = _ginibre(BipartiteDims(*dims), seed, rank)
    assert ppt_check(rho) < -1e-9
    cert = distill_search(rho, restarts=20, seed=seed)
    if value is None:
        assert cert is None
    else:
        assert cert is not None and abs(cert.value - value) < 1e-12


@pytest.mark.parametrize("dims, seed", [((2, 2), 1), ((3, 3), 2), ((4, 4), 3), ((2, 5), 4), ((5, 2), 5)])
def test_distill_more_restarts_never_worse(dims, seed):
    # The seeds for 5 restarts are a prefix of those for 20, and every seed
    # follows its own trajectory; the bound allows for rounding only.
    rho = _ginibre(BipartiteDims(*dims), seed)
    few = distill_search(rho, restarts=5, seed=seed)
    many = distill_search(rho, restarts=20, seed=seed)
    if few is not None:
        assert many is not None and many.value <= few.value + 1e-12


@pytest.mark.parametrize("dims, seed", [((2, 2), 6), ((3, 4), 7), ((5, 2), 8)])
def test_distill_batch_rows_match_single_seed_runs(dims, seed):
    # Each seed must follow its own trajectory and stopping rule inside the
    # batch: refining the stack gives, row by row, what refining that seed
    # alone gives.
    dims = BipartiteDims(*dims)
    rho = _ginibre(dims, seed, rank=3)
    Mh = reorder(rho, H_MAJOR).mat
    rng = np.random.default_rng(seed)

    def pairs(d):
        a = rng.standard_normal((12, d, 2)) + 1j * rng.standard_normal((12, d, 2))
        q, _ = np.linalg.qr(a)
        return q[:, :, 0], q[:, :, 1]

    X, Z = pairs(dims.dim_h)
    Y, W = pairs(dims.dim_k)
    batch = detection._refine_batch(Mh, X, Z, Y, W)
    for s in range(12):
        alone = detection._refine_batch(Mh, X[s:s + 1], Z[s:s + 1], Y[s:s + 1], W[s:s + 1])
        assert abs(alone[0][0] - batch[0][s]) < 1e-12


@pytest.mark.parametrize("restarts", [0, -1, 1001, 2.5])
def test_distill_restarts_out_of_range(restarts):
    rho = maximally_entangled(2, D22)
    with pytest.raises(ValueError, match="restarts must be an integer in 1..1000"):
        distill_search(rho, restarts=restarts)


def test_distill_finds_noisy_pure_states():
    rng = np.random.default_rng(31)
    found = 0
    for i in range(8):
        while True:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            t = rng.uniform(0.75, 1.0)
            m = t * np.outer(v, v.conj()) + (1 - t) * np.eye(4) / 4
            rho = DensityMatrix(D22, H_MAJOR, m)
            if ppt_check(rho) < -1e-6:
                break
        cert = distill_search(rho, restarts=20, seed=1000 + i)
        if cert is not None:
            assert cert.value < -1e-10
            found += 1
    assert found == 8


# -------------------------------------------------------------- aggregation

def test_detect_maximally_entangled_fires_everything():
    rep = detect(maximally_entangled(2, D22))
    assert rep.verdict == "entangled"
    assert rep.fired == ("ppt", "ccnr", "entry_criterion", "distill")


def test_detect_34_reference_point():
    rep = detect(example_34(*P34))
    assert rep.verdict == "entangled"
    assert rep.fired == ("ccnr", "entry_criterion")
    assert rep.ppt_min_eig > 0
    assert abs(rep.entry_best.value + 0.1) < 1e-12


def test_detect_35_reference_point():
    rep = detect(example_35(*P35))
    assert rep.verdict == "entangled"
    assert rep.fired == ("entry_criterion",)
    assert rep.ppt_min_eig > 0 and rep.ccnr_norm < 1
    assert abs(rep.entry_best.value + 0.05) < 1e-10
    assert rep.distill_best is None


def test_detect_separable():
    rep = detect(random_separable(D33, terms=4, seed=2))
    assert rep.verdict == "undetected" and rep.fired == ()
    assert rep.entry_best is None and rep.distill_best is None


LOW_RANK_DIMS = [(d, d) for d in range(2, 8)] + [(2, k) for k in range(3, 8)] + [
    (k, 2) for k in range(3, 8)]


@pytest.mark.parametrize("dh,dk", LOW_RANK_DIMS)
@pytest.mark.parametrize("terms", [1, 2])
def test_detect_silent_on_low_rank_separables(dh, dk, terms):
    for seed in range(3):
        rep = detect(random_separable(BipartiteDims(dh, dk), terms, seed))
        assert rep.verdict == "undetected", (seed, rep.fired, rep.ccnr_norm)


def test_detect_entry_search_is_exact_up_to_n_cap_8():
    # a maximally entangled vector on 8 (x) 8 mixed with noise: block n
    # scores about -0.9 n / 8 + 0.1 n (n - 1) / 64, lowest at n = 8
    rng = np.random.default_rng(88)
    v = np.zeros(64)
    v[np.arange(8) * 9] = 1 / np.sqrt(8)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    noise = g @ g.conj().T
    m = 0.9 * np.outer(v, v) + 0.1 * (0.5 * np.eye(64) / 64 + 0.5 * noise / np.trace(noise).real)
    rho = DensityMatrix(BipartiteDims(8, 8), H_MAJOR, m)
    certs = {n: entry_search(rho, n, mode="exact") for n in range(2, 9)}
    assert all(c is not None for c in certs.values())
    # scan_criteria searches n = 2..8, detect n = 2..DETECT_MAX_N = 6
    (scanned,) = detection.scan_criteria([rho])
    assert scanned.entry_best == min(certs.values(), key=lambda c: c.value)
    assert scanned.entry_best.n == 8
    rep = detect(rho)
    assert detection.DETECT_MAX_N == 6
    assert rep.entry_best == min((certs[n] for n in range(2, 7)), key=lambda c: c.value)
    assert rep.entry_best.n == 6


def test_import_is_lazy_and_scipy_free():
    # scipy.optimize once cost most of a CLI process; the permutation tables
    # of the entry search are built on first use of each n, never at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, witnesskit; from witnesskit import detection; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(detection._perm_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert out[0] == "[]"
    assert out[1] == "0"


def test_report_to_dict_is_json_ready():
    rep = detect(example_34(*P34))
    payload = report_to_dict(rep)
    assert payload["verdict"] == "entangled"
    assert payload["fired"] == ["ccnr", "entry_criterion"]
    assert payload["distill_certificate"] is None
    cert = payload["entry_certificate"]
    assert cert["n"] == 3 and cert["k_indices"] == [1, 5, 9]
    assert cert["witness"]["type"] == "kps"
    # results only: no wall-clock telemetry, so equal input gives equal JSON
    assert set(payload) == {"verdict", "ppt_min_eig", "ccnr_trace_norm", "entry_certificate",
                            "distill_certificate", "fired"}
    json.dumps(payload)  # round-trips through the serializer without help


def test_report_distill_certificate_serialization():
    rep = detect(maximally_entangled(2, D22))
    payload = report_to_dict(rep)
    cert = payload["distill_certificate"]
    assert len(cert["x"]) == 2 and len(cert["x"][0]) == 2  # [re, im] pairs
    assert abs(cert["value"] + 1.0) < 1e-9

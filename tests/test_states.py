import json

import numpy as np
import pytest

from witnesskit import states
from witnesskit import (
    BipartiteDims,
    DensityMatrix,
    DomainError,
    FormatError,
    H_MAJOR,
    K_MAJOR,
    PureState,
    basis_index,
    example_34,
    example_35,
    maximally_entangled,
    partial_transpose_first,
    random_separable,
    realignment,
    reorder,
    schmidt,
    singular_values,
    state_from_dict,
    state_to_dict,
    validate,
)

D22 = BipartiteDims(2, 2)
D33 = BipartiteDims(3, 3)
D44 = BipartiteDims(4, 4)
D23 = BipartiteDims(2, 3)

# parameter points used throughout: the reference points with known closed-form
# behavior and a generic complex set that breaks every accidental symmetry
# (q3 != q4, amplitudes all distinct)
P34 = (1 / 5, 1 / 10, 7 / 10, 1 / 20, 1 / 20, 1 / 20)
P35 = (1 / 20, 1 / 10, 17 / 40, 17 / 40, 1 / 40, 1 / 40, 1 / 40, 1 / 40)
G34 = (0.31, 0.21, 0.48, 0.11 + 0.07j, 0.05 - 0.09j, 0.13 + 0.02j)
G35 = (0.13, 0.22, 0.35, 0.30, 0.09 + 0.05j, 0.07 - 0.11j, 0.12 + 0.03j, 0.02 - 0.08j)


def _ginibre(dims, seed, rank=None):
    rng = np.random.default_rng(seed)
    d = dims.order
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    m = g @ g.conj().T
    return DensityMatrix(dims, H_MAJOR, m / np.trace(m).real)


# ----------------------------------------------------- expected matrices
# Written out entry by entry, independently of the builders under test.

def e34_expected(q1, q2, q3, a, b, c):
    ac, bc, cc = np.conj(a), np.conj(b), np.conj(c)
    m = np.array([
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
    return m / 3.0


def e35_expected(q1, q2, q3, q4, a, b, c, d):
    ac, bc, cc, dc = np.conj(a), np.conj(b), np.conj(c), np.conj(d)
    m = np.array([
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
    return m / 4.0


def e34_pt_expected(q1, q2, q3, a, b, c):
    ac, bc, cc = np.conj(a), np.conj(b), np.conj(c)
    m = np.array([
        [q1, 0,  0,  0,  0,  0,  0,  0,  0],
        [0,  q3, ac, q1, 0,  0,  0,  0,  0],
        [0,  a,  q2, 0,  0,  0,  q1, 0,  0],
        [0,  q1, 0,  q2, 0,  bc, 0,  0,  0],
        [0,  0,  0,  0,  q1, 0,  0,  0,  0],
        [0,  0,  0,  b,  0,  q3, 0,  q1, 0],
        [0,  0,  q1, 0,  0,  0,  q3, cc, 0],
        [0,  0,  0,  0,  0,  q1, c,  q2, 0],
        [0,  0,  0,  0,  0,  0,  0,  0,  q1],
    ], dtype=complex)
    return m / 3.0


def e35_pt_expected(q1, q2, q3, q4, a, b, c, d):
    ac, bc, cc, dc = np.conj(a), np.conj(b), np.conj(c), np.conj(d)
    m = np.array([
        [q1, 0,  0,  0,  0,  0,  0,  q2, 0,  0,  0,  0,  0,  0,  0,  0],
        [0,  q4, ac, 0,  q1, 0,  0,  0,  0,  0,  0,  q2, 0,  0,  0,  0],
        [0,  a,  q3, 0,  0,  0,  0,  0,  q1, 0,  0,  0,  0,  0,  0,  q2],
        [0,  0,  0,  q2, 0,  0,  0,  0,  0,  0,  0,  0,  q1, 0,  0,  0],
        [0,  q1, 0,  0,  q2, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  0,  q1, 0,  0,  q2, 0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  q4, bc, 0,  q1, 0,  0,  q2, 0,  0,  0],
        [q2, 0,  0,  0,  0,  0,  b,  q3, 0,  0,  0,  0,  0,  q1, 0,  0],
        [0,  0,  q1, 0,  0,  q2, 0,  0,  q3, 0,  0,  cc, 0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  q1, 0,  0,  q2, 0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q1, 0,  0,  q2, 0,  0],
        [0,  q2, 0,  0,  0,  0,  0,  0,  c,  0,  0,  q4, 0,  0,  q1, 0],
        [0,  0,  0,  q1, 0,  0,  q2, 0,  0,  0,  0,  0,  q4, dc, 0,  0],
        [0,  0,  0,  0,  0,  0,  0,  q1, 0,  0,  q2, 0,  d,  q3, 0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q1, 0,  0,  q2, 0],
        [0,  0,  q2, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q1],
    ], dtype=complex)
    return m / 4.0


def e35_realign_expected(q1, q2, q3, q4, a, b, c, d):
    ac, bc, cc, dc = np.conj(a), np.conj(b), np.conj(c), np.conj(d)
    m = np.array([
        [q1, 0,  0,  0,  0,  q4, ac, 0,  0,  a,  q3, 0,  0,  0,  0,  q2],
        [0,  q1, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q2, 0,  0,  0],
        [0,  0,  q1, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q2, 0,  0],
        [0,  0,  0,  q1, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q2, 0],
        [0,  0,  0,  q2, q1, 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
        [q2, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  q4, bc, 0,  0,  b,  q3],
        [0,  q2, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  0,  0,  0,  0,  0],
        [0,  0,  q2, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  q2, q1, 0,  0,  0,  0,  0,  0,  0],
        [0,  0,  0,  0,  q2, 0,  0,  0,  0,  q1, 0,  0,  0,  0,  0,  0],
        [q3, 0,  0,  cc, 0,  q2, 0,  0,  0,  0,  q1, 0,  c,  0,  0,  q4],
        [0,  0,  0,  0,  0,  0,  q2, 0,  0,  0,  0,  q1, 0,  0,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  q2, q1, 0,  0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  q2, 0,  0,  0,  0,  q1, 0,  0],
        [0,  0,  0,  0,  0,  0,  0,  0,  0,  q2, 0,  0,  0,  0,  q1, 0],
        [q4, dc, 0,  0,  d,  q3, 0,  0,  0,  0,  q2, 0,  0,  0,  0,  q1],
    ], dtype=complex)
    return m / 4.0


def test_example_34_matrix():
    rho = example_34(*G34)
    assert rho.ordering == K_MAJOR and rho.dims == D33
    np.testing.assert_array_equal(rho.mat, e34_expected(*G34))


def test_example_35_matrix():
    rho = example_35(*G35)
    assert rho.ordering == K_MAJOR and rho.dims == D44
    np.testing.assert_array_equal(rho.mat, e35_expected(*G35))


@pytest.mark.parametrize("builder,params", [(example_34, P34), (example_35, P35),
                                            (example_34, G34), (example_35, G35)])
def test_family_states_are_valid(builder, params):
    rho = builder(*params)
    assert validate(rho) == []
    assert abs(np.trace(rho.mat) - 1.0) < 1e-15
    np.testing.assert_array_equal(rho.mat, rho.mat.conj().T)


def test_partial_transpose_34_entrywise():
    got = partial_transpose_first(example_34(*G34))
    np.testing.assert_allclose(got, e34_pt_expected(*G34), atol=1e-15)


def test_partial_transpose_35_entrywise():
    got = partial_transpose_first(example_35(*G35))
    np.testing.assert_allclose(got, e35_pt_expected(*G35), atol=1e-15)


def test_realignment_entrywise_rule():
    # out[(i,k), (j,l)] = <i,j'| rho |k,l'>, k fastest in rows, l fastest in cols
    rho = _ginibre(D23, seed=6)
    r = realignment(rho)
    dh, dk = 2, 3
    for i in range(dh):
        for k in range(dh):
            for j in range(dk):
                for l in range(dk):
                    assert r[i * dh + k, j * dk + l] == rho.mat[i * dk + j, k * dk + l]


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_realignment_reads_either_ordering_in_place(dims):
    # the k_major carrier is read without reordering; the entries must be
    # exactly those of the h_major rule above, on asymmetric dims too
    rho = _ginibre(BipartiteDims(*dims), seed=7)
    expected = realignment(rho)
    assert np.array_equal(realignment(reorder(rho, K_MAJOR)), expected)


def test_realignment_35_against_tabulation():
    # the reference tabulation uses the adjoint layout (rows (j,l), columns
    # (i,k), entries conjugated); same singular values either way
    rho = example_35(*G35)
    np.testing.assert_allclose(realignment(rho), e35_realign_expected(*G35).conj().T,
                               atol=1e-15)


def test_pt_spectrum_34_closed_form():
    vals = np.sort(np.linalg.eigvalsh(partial_transpose_first(example_34(*P34))))
    s61 = np.sqrt(61.0)
    expected = np.sort([(8 + s61) / 60, (8 - s61) / 60,
                        1 / 4, 1 / 4, 1 / 60, 1 / 60, 1 / 15, 1 / 15, 1 / 15])
    np.testing.assert_allclose(vals, expected, atol=1e-10)


def test_pt_spectrum_35_reference_values():
    vals = np.sort(np.linalg.eigvalsh(partial_transpose_first(example_35(*P35))))
    expected = np.sort([0.0054, 0.0054, 0.0069, 0.0069, 0.0223, 0.0223, 0.0235, 0.0235,
                        0.0821, 0.0821, 0.1027, 0.1027, 0.1212, 0.1212, 0.1359, 0.1359])
    assert np.max(np.abs(vals - expected)) < 1e-4  # reference list is 4-decimal


def test_realignment_trace_norm_35():
    rho_h = reorder(example_35(*P35), H_MAJOR)
    assert abs(singular_values(realignment(rho_h)).sum() - 0.8304888690172844) < 1e-12


# -------------------------------------------------------------- domain checks

def test_example_34_rejects_bad_weights():
    with pytest.raises(DomainError, match="q1"):
        example_34(-0.1, 0.4, 0.7, 0, 0, 0)
    with pytest.raises(DomainError, match="must equal 1"):
        example_34(0.5, 0.5, 0.5, 0, 0, 0)


def test_example_34_rejects_oversized_amplitudes():
    q1, q2, q3 = 0.2, 0.1, 0.7
    bound = np.sqrt(q2 * q3)
    with pytest.raises(DomainError, match=r"\|a\|\^2"):
        example_34(q1, q2, q3, bound * 1.01, 0, 0)
    # right at the bound is allowed
    assert validate(example_34(q1, q2, q3, bound, 0, 0)) == []


def test_example_35_rejects_oversized_amplitudes():
    q = (0.1, 0.2, 0.4, 0.3)
    bound = np.sqrt(q[2] * q[3])
    with pytest.raises(DomainError, match=r"\|c\|\^2"):
        example_35(*q, 0, 0, bound * 1.01, 0)


def test_complex_amplitudes_accepted():
    q1, q2, q3 = 0.2, 0.1, 0.7
    amp = 0.8 * np.sqrt(q2 * q3) * np.exp(0.7j)
    assert validate(example_34(q1, q2, q3, amp, 0, 0)) == []


# ------------------------------------------------------------ index plumbing

def test_basis_index_conventions():
    # h_major: j fastest; k_major: i fastest
    assert basis_index(1, 1, D23, H_MAJOR) == 1
    assert basis_index(1, 2, D23, H_MAJOR) == 2
    assert basis_index(2, 1, D23, H_MAJOR) == 4
    assert basis_index(1, 2, D23, K_MAJOR) == 3
    assert basis_index(2, 1, D23, K_MAJOR) == 2
    assert basis_index(2, 3, D23, K_MAJOR) == 6


def test_basis_index_range_errors():
    with pytest.raises(ValueError):
        basis_index(0, 1, D23, H_MAJOR)
    with pytest.raises(ValueError):
        basis_index(1, 4, D23, H_MAJOR)
    with pytest.raises(ValueError):
        basis_index(1, 1, D23, "diagonal")


def test_reorder_round_trip_and_spectrum():
    rho = _ginibre(D23, seed=5)
    rk = reorder(rho, K_MAJOR)
    assert rk.ordering == K_MAJOR
    np.testing.assert_array_equal(reorder(rk, H_MAJOR).mat, rho.mat)
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.mat),
                               np.linalg.eigvalsh(rk.mat), atol=1e-12)
    # reorder moves entries where basis_index says they go
    for i, j, k, l in [(1, 1, 2, 3), (2, 2, 1, 1), (1, 3, 2, 2)]:
        r = basis_index(i, j, D23, H_MAJOR) - 1
        cidx = basis_index(k, l, D23, H_MAJOR) - 1
        rk_r = basis_index(i, j, D23, K_MAJOR) - 1
        rk_c = basis_index(k, l, D23, K_MAJOR) - 1
        assert rho.mat[r, cidx] == rk.mat[rk_r, rk_c]


def test_k_to_h_perm_matches_its_definition():
    # perm[i * dk + j] = j * dh + i: the h_major position of |i, j'> holds
    # its k_major position
    for dh in range(2, 9):
        for dk in range(2, 9):
            perm = states._k_to_h_perm(BipartiteDims(dh, dk))
            expected = [j * dh + i for i in range(dh) for j in range(dk)]
            assert perm.tolist() == expected, (dh, dk)


def test_partial_transpose_is_ordering_consistent():
    rho = _ginibre(D23, seed=7)
    eh = np.linalg.eigvalsh(partial_transpose_first(rho))
    ek = np.linalg.eigvalsh(partial_transpose_first(reorder(rho, K_MAJOR)))
    np.testing.assert_allclose(eh, ek, atol=1e-12)


def test_partial_transpose_involution_and_trace():
    rho = _ginibre(D23, seed=8)
    pt = partial_transpose_first(rho)
    np.testing.assert_allclose(pt, pt.conj().T, atol=1e-15)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    back = partial_transpose_first(DensityMatrix(D23, H_MAJOR, pt))
    np.testing.assert_allclose(back, rho.mat, atol=1e-15)


def test_realignment_is_carrier_invariant():
    rho = _ginibre(D23, seed=9)
    t1 = singular_values(realignment(rho)).sum()
    t2 = singular_values(realignment(reorder(rho, K_MAJOR))).sum()
    assert abs(t1 - t2) < 1e-12


def test_realignment_shape():
    assert realignment(_ginibre(D23, seed=10)).shape == (4, 9)


# ----------------------------------------------------------- special states

def test_maximally_entangled():
    rho = maximally_entangled(3, D33)
    assert validate(rho) == []
    vals = np.linalg.eigvalsh(rho.mat)
    np.testing.assert_allclose(np.sort(vals)[-1], 1.0, atol=1e-12)  # rank one
    assert abs(np.linalg.eigvalsh(partial_transpose_first(rho)).min() + 1 / 3) < 1e-12


def test_maximally_entangled_rejects_bad_rank():
    with pytest.raises(ValueError):
        maximally_entangled(4, D33)
    with pytest.raises(ValueError):
        maximally_entangled(1, D33)


def test_pure_state_and_schmidt():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    c /= np.linalg.norm(c)
    psi = PureState(D23, c)
    sv = schmidt(psi)
    np.testing.assert_allclose(sv, np.linalg.svd(c, compute_uv=False),
                               atol=1e-12)
    rho = psi.density()
    assert validate(rho) == []
    np.testing.assert_allclose(rho.mat @ rho.mat, rho.mat, atol=1e-12)  # projector


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureState(D22, np.ones((2, 2)))


def test_random_separable_is_valid_and_undetectable():
    for seed in range(3):
        rho = random_separable(D23, terms=4, seed=seed)
        assert validate(rho) == []
        assert np.linalg.eigvalsh(partial_transpose_first(rho)).min() > -1e-12
        assert singular_values(realignment(rho)).sum() <= 1.0 + 1e-9


def test_random_separable_is_deterministic():
    a = random_separable(D33, terms=3, seed=42)
    b = random_separable(D33, terms=3, seed=42)
    np.testing.assert_array_equal(a.mat, b.mat)
    with pytest.raises(ValueError):
        random_separable(D33, terms=0, seed=1)


# ------------------------------------------------------------------ checking

def test_validate_flags_each_violation():
    good = maximally_entangled(2, D22)
    bad_trace = DensityMatrix(D22, H_MAJOR, 2.0 * good.mat)
    assert any("trace" in v for v in validate(bad_trace))
    m = good.mat.copy()
    m[0, 1] += 0.1
    assert any("hermiticity" in v for v in validate(DensityMatrix(D22, H_MAJOR, m)))
    neg = DensityMatrix(D22, H_MAJOR, np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex))
    assert any("positivity" in v for v in validate(neg))


def test_validate_hermiticity_threshold_is_relative_to_max_modulus():
    # max |m| = 1/2 here, so the 1e-9 threshold sits at an absolute defect
    # of 5e-10
    good = maximally_entangled(2, D22)
    assert validate(good) == []
    for defect, flagged in ((2.5e-10, False), (1e-9, True)):
        m = good.mat.copy()
        m[0, 1] = defect
        found = [v for v in validate(DensityMatrix(D22, H_MAJOR, m)) if "hermiticity" in v]
        assert bool(found) == flagged, (defect, found)


def test_density_matrix_constructor_checks():
    with pytest.raises(ValueError, match="ordering"):
        DensityMatrix(D22, "rowwise", np.eye(4) / 4)
    with pytest.raises(ValueError):
        DensityMatrix(D22, H_MAJOR, np.eye(3) / 3)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(D22, H_MAJOR, np.full((4, 4), np.inf))


def test_bipartite_dims_bounds():
    with pytest.raises(ValueError):
        BipartiteDims(1, 3)
    assert BipartiteDims(2, 5).order == 10


# -------------------------------------------------------------------- JSON

def test_state_json_round_trip():
    rho = example_34(*G34)
    payload = state_to_dict(rho)
    back = state_from_dict(payload)
    assert back.ordering == rho.ordering and back.dims == rho.dims
    np.testing.assert_array_equal(back.mat, rho.mat)
    # serialized form is plain JSON

    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("mutate,message", [
    (lambda p: p.pop("dim_h"), "dim_h"),
    (lambda p: p.update(ordering="diagonal"), "ordering"),
    (lambda p: p.update(entries=p["entries"][:-1]), "pairs"),
    (lambda p: p["entries"].__setitem__(0, [1.0]), "pair"),
    (lambda p: p["entries"].__setitem__(0, [np.inf, 0.0]), "finite"),
])
def test_state_json_rejects_malformed(mutate, message):
    payload = state_to_dict(maximally_entangled(2, D22))
    mutate(payload)
    with pytest.raises(FormatError, match=message):
        state_from_dict(payload)


def test_state_json_rejects_invalid_state():
    payload = state_to_dict(maximally_entangled(2, D22))
    payload["entries"] = [[v * 2, 0.0] for pair in payload["entries"]
                          for v in [pair[0]]]
    with pytest.raises(FormatError, match="validation"):
        state_from_dict(payload)

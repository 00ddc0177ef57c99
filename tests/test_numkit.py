import numpy as np
import pytest

from witnesskit import numkit


def _random_hermitian(m, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return g + g.conj().T


# --------------------------------------------------------- closed-form cases

def test_eigenvalues_2x2_closed_form():
    # [[a, b], [conj(b), d]] has eigenvalues (a+d)/2 +/- sqrt(((a-d)/2)^2 + |b|^2)
    a, d, b = 1.7, -0.4, 0.3 - 1.2j
    mean = (a + d) / 2
    rad = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    vals = numkit.hermitian_eigenvalues(np.array([[a, b], [np.conj(b), d]]))
    np.testing.assert_allclose(vals, [mean + rad, mean - rad], atol=1e-12)


def test_eigenvalues_3x3_closed_form():
    # tridiagonal [[2,1,0],[1,2,1],[0,1,2]]: eigenvalues 2 + sqrt(2), 2, 2 - sqrt(2)
    m = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=complex)
    vals = numkit.hermitian_eigenvalues(m)
    s2 = np.sqrt(2.0)
    np.testing.assert_allclose(vals, [2 + s2, 2.0, 2 - s2], atol=1e-12)


def test_offdiagonal_pair_with_zero_diagonal():
    # equal diagonal entries: eigenvalues +/- 1
    vals = numkit.hermitian_eigenvalues(np.array([[0, -1], [-1, 0]], dtype=complex))
    np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-14)


# ------------------------------------------------------------- cross checks

@pytest.mark.parametrize("m", [2, 3, 5, 9, 16])
def test_eigenvalues_match_lapack(m):
    a = _random_hermitian(m, seed=m)
    got = numkit.hermitian_eigenvalues(a)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(got - ref)) <= numkit.error_bound(a)


@pytest.mark.parametrize("m", [2, 4, 9])
def test_eigensystem_residual_and_orthonormality(m):
    a = _random_hermitian(m, seed=100 + m)
    vals, vecs = numkit.hermitian_eigensystem(a)
    scale = np.linalg.norm(a)
    assert np.max(np.abs(a @ vecs - vecs @ np.diag(vals))) < 1e-9 * scale
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(m), atol=1e-10)


def test_trace_and_frobenius_invariants():
    a = _random_hermitian(7, seed=3)
    vals = numkit.hermitian_eigenvalues(a)
    assert abs(vals.sum() - np.trace(a).real) < 1e-10 * np.linalg.norm(a)
    assert abs((vals**2).sum() - np.linalg.norm(a) ** 2) < 1e-8 * np.linalg.norm(a) ** 2


def test_spectrum_invariant_under_unitary_conjugation():
    a = _random_hermitian(5, seed=11)
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((5, 5))
                        + 1j * np.random.default_rng(13).standard_normal((5, 5)))
    b = q @ a @ q.conj().T
    va = numkit.hermitian_eigenvalues(a)
    vb = numkit.hermitian_eigenvalues(b)
    np.testing.assert_allclose(va, vb, atol=1e-10 * np.linalg.norm(a))


# ---------------------------------------------------------- singular values

def test_singular_values_match_lapack_both_orientations():
    rng = np.random.default_rng(21)
    for shape in [(3, 5), (5, 3), (4, 4)]:
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = numkit.singular_values(b)
        ref = np.linalg.svd(b, compute_uv=False)
        assert len(got) == min(shape)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.linalg.norm(b)


def test_singular_values_of_rank_one():
    u = np.array([[3.0], [4.0]])  # norm 5
    v = np.array([[1.0, 2.0, 2.0]]) / 3.0  # unit norm
    sv = numkit.singular_values(u @ v)
    np.testing.assert_allclose(sv, [5.0, 0.0], atol=1e-12)
    # complex rank one: a Gram-matrix route returns sqrt(rounding) ~ 1e-8
    rng = np.random.default_rng(24)
    u = rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1))
    v = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    assert np.max(numkit.singular_values(u @ v)[1:]) < 1e-13 * np.linalg.norm(u @ v)


# ------------------------------------------------------------ array contract

def test_values_are_descending_float_arrays_and_stacks_match_rows():
    vals = numkit.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert isinstance(vals, np.ndarray) and vals.dtype == float
    assert vals.tolist() == [3.0, 2.0, 1.0]
    rng = np.random.default_rng(25)
    herm = np.stack([_random_hermitian(6, seed=s) for s in range(4)])
    rect = rng.standard_normal((4, 4, 9)) + 1j * rng.standard_normal((4, 4, 9))
    for single, stack, mats in (
        (numkit.hermitian_eigenvalues, numkit.hermitian_eigenvalues_stack, herm),
        (numkit.singular_values, numkit.singular_values_stack, rect),
    ):
        rows = stack(mats)
        assert isinstance(rows, np.ndarray) and rows.dtype == float
        assert rows.shape == (4, min(mats.shape[1:]))
        assert np.all(np.diff(rows, axis=1) <= 0)
        for m, row in zip(mats, rows):
            np.testing.assert_array_equal(single(m), row)
        # row sums, as the criteria pass takes them, equal the single form's sum
        assert rows.sum(axis=1).tolist() == [float(single(m).sum()) for m in mats]
    # eigh is another LAPACK driver than eigvalsh: same order, equal to rounding
    vals, vecs = numkit.hermitian_eigensystem(herm[0])
    assert isinstance(vals, np.ndarray) and vals.dtype == float and vecs.shape == (6, 6)
    np.testing.assert_allclose(vals, numkit.hermitian_eigenvalues(herm[0]),
                               atol=numkit.error_bound(herm[0]))


def test_error_bound_is_order_eps_frobenius():
    a = _random_hermitian(5, seed=26)
    eps = np.finfo(float).eps
    assert numkit.error_bound(a) == pytest.approx(5 * eps * np.linalg.norm(a), rel=1e-12)
    assert numkit.error_bound(np.ones((3, 7))) == pytest.approx(7 * eps * np.sqrt(21.0), rel=1e-12)
    # one bound per matrix of a stack, each equal to the single-matrix bound
    stack = np.stack([a, 3 * a, np.zeros((5, 5))])
    bounds = numkit.error_bound(stack)
    assert bounds.shape == (3,)
    assert bounds.tolist() == [numkit.error_bound(m) for m in stack]


def test_hermitian_defect_is_relative_to_max_modulus():
    m = np.diag([2.0, -4.0, 1.0]).astype(complex)
    assert numkit.hermitian_defect(m) == 0.0
    assert numkit.hermitian_defect(np.zeros((3, 3))) == 0.0
    m[0, 2] = 1e-3
    assert numkit.hermitian_defect(m) == 1e-3 / 4.0
    np.testing.assert_array_equal(
        numkit.hermitian_defect(np.stack([m, m.conj().T, np.eye(3)])), [2.5e-4, 2.5e-4, 0.0])


# ------------------------------------------------------------- error paths

def test_rejects_non_square():
    with pytest.raises(ValueError):
        numkit.hermitian_eigenvalues(np.ones((2, 3)))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        numkit.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermiticity_is_checked_against_max_modulus_not_frobenius():
    # max |a| = 1 but ||a||_F = 10, so a defect of 5e-9 lies between
    # 1e-9 * max |a| and 1e-9 * ||a||_F: the max-modulus scale rejects it
    a = np.eye(100, dtype=complex)
    a[0, 1] = 5e-9
    assert 1e-9 * np.abs(a).max() < 5e-9 < 1e-9 * np.linalg.norm(a)
    for run in (numkit.hermitian_eigenvalues, numkit.hermitian_eigensystem,
                lambda m: numkit.hermitian_eigenvalues_stack(m[None])):
        with pytest.raises(ValueError, match="not Hermitian"):
            run(a)
    a[0, 1] = 5e-10
    assert numkit.hermitian_eigenvalues(a)[-1] > 0.99


def test_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        numkit.hermitian_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError):
        numkit.hermitian_eigenvalues(np.ones(4))


def test_trivial_orders_skip_iteration():
    # 1x1 and all-zero matrices come back exactly
    np.testing.assert_array_equal(
        numkit.hermitian_eigenvalues(np.array([[4.0]])), [4.0])
    np.testing.assert_array_equal(
        numkit.hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))

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
    spec = numkit.hermitian_eigenvalues(np.array([[a, b], [np.conj(b), d]]))
    np.testing.assert_allclose(spec.values, [mean + rad, mean - rad], atol=1e-12)


def test_eigenvalues_3x3_closed_form():
    # tridiagonal [[2,1,0],[1,2,1],[0,1,2]]: eigenvalues 2 + sqrt(2), 2, 2 - sqrt(2)
    m = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=complex)
    spec = numkit.hermitian_eigenvalues(m)
    s2 = np.sqrt(2.0)
    np.testing.assert_allclose(spec.values, [2 + s2, 2.0, 2 - s2], atol=1e-12)


def test_offdiagonal_pair_with_zero_diagonal():
    # equal diagonal entries: eigenvalues +/- 1
    spec = numkit.hermitian_eigenvalues(np.array([[0, -1], [-1, 0]], dtype=complex))
    np.testing.assert_allclose(spec.values, [1.0, -1.0], atol=1e-14)


# ------------------------------------------------------------- cross checks

@pytest.mark.parametrize("m", [2, 3, 5, 9, 16])
def test_eigenvalues_match_lapack(m):
    a = _random_hermitian(m, seed=m)
    got = numkit.hermitian_eigenvalues(a)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(got.values - ref)) <= got.tolerance


@pytest.mark.parametrize("m", [2, 4, 9])
def test_eigensystem_residual_and_orthonormality(m):
    a = _random_hermitian(m, seed=100 + m)
    spec, vecs = numkit.hermitian_eigensystem(a)
    scale = np.linalg.norm(a)
    assert np.max(np.abs(a @ vecs - vecs @ np.diag(spec.values))) < 1e-9 * scale
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(m), atol=1e-10)


def test_trace_and_frobenius_invariants():
    a = _random_hermitian(7, seed=3)
    spec = numkit.hermitian_eigenvalues(a)
    assert abs(spec.values.sum() - np.trace(a).real) < 1e-10 * np.linalg.norm(a)
    assert abs((spec.values**2).sum() - np.linalg.norm(a) ** 2) < 1e-8 * np.linalg.norm(a) ** 2


def test_spectrum_invariant_under_unitary_conjugation():
    a = _random_hermitian(5, seed=11)
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((5, 5))
                        + 1j * np.random.default_rng(13).standard_normal((5, 5)))
    b = q @ a @ q.conj().T
    va = numkit.hermitian_eigenvalues(a).values
    vb = numkit.hermitian_eigenvalues(b).values
    np.testing.assert_allclose(va, vb, atol=1e-10 * np.linalg.norm(a))


# ---------------------------------------------------------- singular values

def test_singular_values_match_lapack_both_orientations():
    rng = np.random.default_rng(21)
    for shape in [(3, 5), (5, 3), (4, 4)]:
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = numkit.singular_values(b)
        ref = np.linalg.svd(b, compute_uv=False)
        assert len(got) == min(shape)
        assert np.max(np.abs(got.values - ref)) < 1e-10 * np.linalg.norm(b)


def test_trace_norm():
    rng = np.random.default_rng(22)
    b = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert abs(numkit.trace_norm(b) - np.linalg.svd(b, compute_uv=False).sum()) < 1e-9
    assert numkit.trace_norm(np.zeros((3, 3))) == 0.0


def test_singular_values_of_rank_one():
    u = np.array([[3.0], [4.0]])  # norm 5
    v = np.array([[1.0, 2.0, 2.0]]) / 3.0  # unit norm
    sv = numkit.singular_values(u @ v)
    np.testing.assert_allclose(sv.values, [5.0, 0.0], atol=1e-12)
    # complex rank one: a Gram-matrix route returns sqrt(rounding) ~ 1e-8
    rng = np.random.default_rng(24)
    u = rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1))
    v = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    assert np.max(numkit.singular_values(u @ v).values[1:]) < 1e-13 * np.linalg.norm(u @ v)


# ------------------------------------------------------------ small helpers

def test_kron_block_structure():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]])
    k = numkit.kron(a, b)
    assert k.shape == (4, 4)
    np.testing.assert_array_equal(k[:2, 2:], 2 * b)


def test_spectrum_container_behavior():
    spec = numkit.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert list(spec) == [3.0, 2.0, 1.0]
    assert len(spec) == 3
    assert spec[0] == spec.max == 3.0
    assert spec.min == 1.0
    assert spec.tolerance >= 0.0


# ------------------------------------------------------------- error paths

def test_rejects_non_square():
    with pytest.raises(ValueError):
        numkit.hermitian_eigenvalues(np.ones((2, 3)))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        numkit.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        numkit.hermitian_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError):
        numkit.hermitian_eigenvalues(np.ones(4))


def test_trivial_orders_skip_iteration():
    # 1x1 and all-zero matrices come back exactly
    np.testing.assert_array_equal(
        numkit.hermitian_eigenvalues(np.array([[4.0]])).values, [4.0])
    np.testing.assert_array_equal(
        numkit.hermitian_eigenvalues(np.zeros((3, 3))).values, np.zeros(3))

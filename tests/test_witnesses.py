import itertools

import numpy as np
import pytest

from witnesskit import (
    BipartiteDims,
    DensityMatrix,
    H_MAJOR,
    K_MAJOR,
    NotAWitnessError,
    Permutation,
    Witness,
    WitnessSpec,
    choi_witness,
    conjugate_witness,
    maximally_entangled,
    phi_kappa,
    phi_kappa_ps,
    phi_rank4,
    random_separable,
    rank4_witness,
    reorder,
    rotated_rank4_value,
    witness_from_dict,
    witness_kps,
    witness_to_dict,
    witness_value,
)

D22 = BipartiteDims(2, 2)
D33 = BipartiteDims(3, 3)
D34 = BipartiteDims(3, 4)


def _haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------- permutations

def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.n == 3 and p(1) == 2 and p(3) == 1
    assert p.inverse().image == (3, 1, 2)
    assert p.compose(p.inverse()).is_identity()
    assert Permutation.identity(4).image == (1, 2, 3, 4)
    # compose applies the right factor first
    q = Permutation((1, 3, 2))
    assert p.compose(q).image == tuple(p(q(i)) for i in (1, 2, 3))


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((2, 3, 1))(4)
    with pytest.raises(ValueError, match="compose"):
        Permutation((2, 1)).compose(Permutation((1, 2, 3)))


def test_witness_spec_constraints():
    kappa = Permutation((2, 1))
    spec = WitnessSpec(2, kappa, Permutation.identity(2), Permutation.identity(2), D33)
    assert spec.n == 2
    with pytest.raises(ValueError, match="identity"):
        WitnessSpec(2, Permutation.identity(2), Permutation.identity(2),
                    Permutation.identity(2), D33)
    with pytest.raises(ValueError, match="letters"):
        WitnessSpec(3, kappa, Permutation.identity(3), Permutation.identity(3), D33)
    with pytest.raises(ValueError):
        WitnessSpec(4, Permutation((2, 3, 4, 1)), Permutation.identity(4),
                    Permutation.identity(4), D33)  # n exceeds min(dims)


# ------------------------------------------------------------ rank-4 family

def test_rank4_matrix_and_spectrum():
    w = rank4_witness(D22, H_MAJOR)
    expected = np.array([
        [0, 0, 0, -1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [-1, 0, 0, 0],
    ], dtype=complex)
    np.testing.assert_array_equal(w.mat, expected)
    np.testing.assert_allclose(np.linalg.eigvalsh(w.mat), [-1, 1, 1, 1], atol=1e-12)


def test_rank4_value_on_maximally_entangled():
    w = rank4_witness(D22, H_MAJOR)
    assert abs(witness_value(w, maximally_entangled(2, D22)) + 1.0) < 1e-12


def test_rank4_orderings_agree():
    wh = rank4_witness(D22, H_MAJOR)
    wk = rank4_witness(D22, K_MAJOR)
    as_state = DensityMatrix(D22, K_MAJOR, wk.mat / np.trace(wk.mat).real)
    np.testing.assert_allclose(reorder(as_state, H_MAJOR).mat * np.trace(wk.mat).real,
                               wh.mat, atol=1e-15)


def test_rank4_embeds_in_larger_dims():
    w = rank4_witness(D34, H_MAJOR)
    assert w.mat.shape == (12, 12)
    vals = np.linalg.eigvalsh(w.mat)
    assert abs(vals.min() + 1.0) < 1e-12
    # acts like the 2x2-block witness on the embedded maximally entangled state
    rho = maximally_entangled(2, D34)
    assert abs(witness_value(w, rho) + 1.0) < 1e-12


def test_phi_rank4_action():
    a = np.array([[1.0, 2.0 + 1j], [3.0 - 2j, 4.0]])
    out = phi_rank4(a)
    np.testing.assert_array_equal(out, np.array([[4.0, -2.0 - 1j], [-3.0 + 2j, 1.0]]))
    padded = phi_rank4(np.diag([1.0, 2.0, 5.0]).astype(complex))
    assert padded.shape == (3, 3)
    assert np.all(padded[2, :] == 0) and np.all(padded[:, 2] == 0)
    with pytest.raises(ValueError, match=">= 2"):
        phi_rank4(np.array([[1.0]]))


def test_phi_kappa_n2_is_phi_rank4():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(phi_kappa(a, 2, Permutation((2, 1))), phi_rank4(a),
                               atol=1e-15)


def test_rank4_choi_identity():
    wc = choi_witness(phi_rank4, 2, D22)
    assert wc.ordering == K_MAJOR
    as_state = DensityMatrix(D22, K_MAJOR, wc.mat)
    wh = rank4_witness(D22, H_MAJOR)
    np.testing.assert_allclose(reorder(as_state, H_MAJOR).mat, wh.mat, atol=1e-12)


# ----------------------------------------------------------- rotated values

def test_rotated_value_on_maximally_entangled():
    e1, e2 = np.eye(2, dtype=complex)
    rho = maximally_entangled(2, D22)
    assert abs(rotated_rank4_value(rho, e1, e2, e1, e2) + 1.0) < 1e-12


def test_rotated_value_nonnegative_on_product_states():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rho = random_separable(D22, terms=1, seed=int(rng.integers(10**6)))
        x, z = _haar_unitary(2, int(rng.integers(10**6)))[:, :2].T
        y, w = _haar_unitary(2, int(rng.integers(10**6)))[:, :2].T
        assert rotated_rank4_value(rho, x, z, y, w) >= -1e-12


def test_rotated_value_equals_conjugated_witness_trace():
    # the rotated functional is the expectation of the conjugated witness
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    rho = DensityMatrix(D22, H_MAJOR, m / np.trace(m).real)
    for seed in range(5):
        u = _haar_unitary(2, 20 + seed)
        v = _haar_unitary(2, 40 + seed)
        wc = conjugate_witness(rank4_witness(D22, H_MAJOR), u, v)
        direct = rotated_rank4_value(rho, u[:, 0], u[:, 1], v[:, 0], v[:, 1])
        assert abs(direct - witness_value(wc, rho)) < 1e-10


def test_rotated_value_rejects_bad_pairs():
    rho = maximally_entangled(2, D22)
    e1, e2 = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        rotated_rank4_value(rho, e1, e1, e1, e2)
    with pytest.raises(ValueError, match="orthonormal"):
        rotated_rank4_value(rho, 2 * e1, e2, e1, e2)
    with pytest.raises(ValueError, match="length"):
        rotated_rank4_value(rho, np.ones(3), e2, e1, e2)


def test_conjugate_witness_preserves_spectrum():
    w = rank4_witness(D22, H_MAJOR)
    u, v = _haar_unitary(2, 5), _haar_unitary(2, 6)
    wc = conjugate_witness(w, u, v)
    np.testing.assert_allclose(np.linalg.eigvalsh(wc.mat), np.linalg.eigvalsh(w.mat),
                               atol=1e-12)
    with pytest.raises(ValueError, match="unitary"):
        conjugate_witness(w, 2 * u, v)
    with pytest.raises(ValueError, match="do not match"):
        conjugate_witness(w, _haar_unitary(3, 7), v)


# ------------------------------------------------------- permutation family

def test_phi_kappa_ps_entry_action():
    # n = 2, kappa = swap, pi = sigma = id: diagonal goes to the swapped
    # diagonal, off-diagonal block is negated
    spec = WitnessSpec(2, Permutation((2, 1)), Permutation.identity(2),
                       Permutation.identity(2), D33)
    a = np.arange(9, dtype=complex).reshape(3, 3)
    out = phi_kappa_ps(a, spec)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = a[1, 1]
    expected[1, 1] = a[0, 0]
    expected[0, 1] = -a[0, 1]
    expected[1, 0] = -a[1, 0]
    np.testing.assert_array_equal(out, expected)


def test_choi_identity_exhaustive_n3():
    # every spec on three letters: explicit builder == Choi matrix of the map
    count = 0
    for kappa in itertools.permutations((1, 2, 3)):
        if kappa == (1, 2, 3):
            continue
        for pi in itertools.permutations((1, 2, 3)):
            for sigma in itertools.permutations((1, 2, 3)):
                spec = WitnessSpec(3, Permutation(kappa), Permutation(pi),
                                   Permutation(sigma), D33)
                wa = witness_kps(spec, K_MAJOR)
                wb = choi_witness(lambda m: phi_kappa_ps(m, spec), 3, D33)
                np.testing.assert_allclose(wa.mat, wb.mat, atol=1e-12)
                count += 1
    assert count == 180


def test_witness_kps_value_on_maximally_entangled():
    spec = WitnessSpec(3, Permutation((2, 3, 1)), Permutation.identity(3),
                       Permutation.identity(3), D33)
    w = witness_kps(spec)
    rho = maximally_entangled(3, D33)
    # kappa is fixed-point-free here, so the trace hits the floor value -1
    assert abs(witness_value(w, rho) + 1.0) < 1e-12


def test_witness_kps_minimum_eigenvalue_bound():
    # min eig <= #fix(kappa)/n - 1 < 0
    rng = np.random.default_rng(14)
    for n, dims in ((2, D33), (3, D33), (3, D34)):
        for _ in range(10):
            while True:
                kappa = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
                if not kappa.is_identity():
                    break
            pi = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
            sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
            spec = WitnessSpec(n, kappa, pi, sigma, dims)
            w = witness_kps(spec)
            fix = sum(1 for i in range(1, n + 1) if kappa(i) == i)
            assert np.linalg.eigvalsh(w.mat).min() <= fix / n - 1 + 1e-12


def test_witness_kps_nonnegative_on_separables():
    spec = WitnessSpec(3, Permutation((2, 3, 1)), Permutation((1, 3, 2)),
                       Permutation((3, 2, 1)), D33)
    w = witness_kps(spec)
    for seed in range(40):
        rho = random_separable(D33, terms=3, seed=seed)
        assert witness_value(w, rho) >= -1e-10


def test_witness_value_is_ordering_independent():
    spec = WitnessSpec(2, Permutation((2, 1)), Permutation.identity(2),
                       Permutation.identity(2), D33)
    w = witness_kps(spec)
    rho = random_separable(D33, terms=4, seed=77)
    v1 = witness_value(w, rho)
    v2 = witness_value(w, reorder(rho, K_MAJOR))
    assert abs(v1 - v2) < 1e-12


def test_witness_value_rejects_dim_mismatch():
    w = rank4_witness(D22, H_MAJOR)
    with pytest.raises(ValueError, match="mismatch"):
        witness_value(w, maximally_entangled(3, D33))


# ------------------------------------------------------------- construction

def test_witness_constructor_rejects_psd():
    with pytest.raises(NotAWitnessError):
        Witness("test", D22, H_MAJOR, np.eye(4, dtype=complex))


def test_witness_constructor_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotAWitnessError, match="Hermitian"):
        Witness("test", D22, H_MAJOR, m)


def test_hermiticity_thresholds_on_the_relative_defect():
    # Witness and choi_witness reject once max |W - W^dagger| / max |W|
    # passes 1e-10, and accept an exactly Hermitian matrix
    w = rank4_witness(D22, H_MAJOR).mat
    scale = np.abs(w).max()
    for factor, ok in ((0.0, True), (0.5, True), (2.0, False)):
        m = w.copy()
        m[0, 1] += factor * 1e-10 * scale
        if ok:
            Witness("test", D22, H_MAJOR, m)
        else:
            with pytest.raises(NotAWitnessError, match="not Hermitian"):
                Witness("test", D22, H_MAJOR, m)
    # phi + c * i * id adds i * c to the Choi matrix on the entries of
    # n rho_+, a defect of 2c
    scale = np.abs(choi_witness(phi_rank4, 2, D22).mat).max()
    for factor, ok in ((0.0, True), (0.5, True), (2.0, False)):
        c = factor * 1e-10 * scale / 2
        run = lambda: choi_witness(lambda a: phi_rank4(a) + c * 1j * a, 2, D22)
        if ok:
            run()
        else:
            with pytest.raises(ValueError, match="Hermiticity"):
                run()


def test_choi_witness_rejects_completely_positive_maps():
    with pytest.raises(NotAWitnessError):
        choi_witness(lambda a: a, 2, D22)  # identity map is CP


def test_choi_witness_rejects_non_hermiticity_preserving():
    with pytest.raises(ValueError, match="Hermiticity"):
        choi_witness(lambda a: 1j * a, 2, D22)


def test_choi_witness_range_check():
    with pytest.raises(ValueError):
        choi_witness(phi_rank4, 5, D22)


# -------------------------------------------------------------------- JSON

def test_witness_json_round_trip_kps():
    spec = WitnessSpec(3, Permutation((3, 1, 2)), Permutation((2, 1, 3)),
                       Permutation((1, 3, 2)), D34)
    w = witness_kps(spec)
    payload = witness_to_dict(w)
    back = witness_from_dict(payload)
    np.testing.assert_array_equal(back.mat, w.mat)
    assert back.ordering == w.ordering and back.dims == w.dims


def test_witness_json_round_trip_rank4():
    w = rank4_witness(D22, H_MAJOR)
    payload = witness_to_dict(w, include_matrix=True)
    assert len(payload["matrix"]) == 16
    back = witness_from_dict(payload)  # matrix field is advisory, rebuilt fresh
    np.testing.assert_array_equal(back.mat, w.mat)


def test_witness_json_rejects_unknown_type():
    with pytest.raises(ValueError, match="type"):
        witness_from_dict({"type": "mystery", "dim_h": 2, "dim_k": 2,
                           "ordering": H_MAJOR})

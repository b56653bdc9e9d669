import numpy as np
import pytest

from sdeim.errors import DimensionError, RankError
from sdeim.pod import BasisMatrix, compute_pod, singular_values, truncation_error
from sdeim.properties import _random_orthonormal


# every case runs on a wide (N <= K) and a tall (N > K) snapshot matrix:
# compute_pod takes a different route for each
WIDE_AND_TALL = pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])


def graded_tall(rng, n=200, k=40, graded=30):
    """n x k snapshots whose singular values fall geometrically from 1 to
    1e-9 over the first `graded`, then are exactly zero."""
    u, _ = np.linalg.qr(rng.normal(size=(n, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    sigma = np.zeros(k)
    sigma[:graded] = np.logspace(0, -9, graded)
    return (u * sigma) @ v.T, sigma


class TestComputePod:
    @WIDE_AND_TALL
    def test_rank_one_snapshots(self, tall):
        col = np.array([3.0, 0.0, 4.0] * (5 if tall else 1))
        snaps = np.tile(col[:, None], (1, 7))
        basis = compute_pod(snaps, 1)
        direction = basis.phi[:, 0]
        assert np.allclose(np.abs(direction), np.abs(col) / np.linalg.norm(col))

    @WIDE_AND_TALL
    def test_orthonormal_output(self, tall):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 30))
        basis = compute_pod(x.T if tall else x, 4)
        gram = basis.phi.T @ basis.phi
        assert np.linalg.norm(gram - np.eye(4)) < 1e-10

    @WIDE_AND_TALL
    def test_full_spectrum_attached(self, tall):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 12))
        x = x.T if tall else x
        basis = compute_pod(x, 2)
        assert basis.singular_values.shape == (5,)
        assert np.allclose(basis.singular_values, np.linalg.svd(x, compute_uv=False))
        assert np.allclose(singular_values(x), basis.singular_values, rtol=1e-13, atol=0)

    @WIDE_AND_TALL
    def test_m_beyond_rank_raises_with_rank_in_message(self, tall):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 20))
        with pytest.raises(RankError, match="rank 3"):
            compute_pod(x.T if tall else x, 4)

    def test_graded_spectrum_tall(self):
        rng = np.random.default_rng(10)
        x, sigma = graded_tall(rng)
        eps = np.finfo(float).eps
        ref_u, ref_s, _ = np.linalg.svd(x, full_matrices=False)
        basis = compute_pod(x, 30)
        # singular values to the absolute accuracy of a backward-stable SVD
        assert np.max(np.abs(basis.singular_values - ref_s)) < eps * max(x.shape) * sigma[0]
        for m in (5, 12, 25, 30):
            phi = compute_pod(x, m).phi
            assert np.linalg.norm(phi.T @ phi - np.eye(m)) < 1e-12
            if m < 30:
                # sin of the largest angle between the leading-m subspaces
                gap = ref_s[m - 1] - ref_s[m]
                dist = np.linalg.norm(phi - ref_u[:, :m] @ (ref_u[:, :m].T @ phi), 2)
                assert dist < 10 * eps * sigma[0] / gap
        with pytest.raises(RankError, match="rank 30"):
            compute_pod(x, 31)

    @WIDE_AND_TALL
    def test_no_n_by_k_matrix_reaches_svd(self, tall, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 50))
        x = x.T if tall else x
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        compute_pod(x, 3)
        singular_values(x)
        assert calls == [(12, 12), (12, 12)]


class TestBasisMatrix:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            BasisMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_leading_sub_basis(self):
        rng = np.random.default_rng(4)
        basis = BasisMatrix(_random_orthonormal(rng, 7, 4))
        sub = basis.leading(2)
        assert sub.n_modes == 2
        assert np.array_equal(sub.phi, basis.phi[:, :2])


class TestTruncationError:
    def test_in_range_state_has_zero_error(self):
        rng = np.random.default_rng(5)
        basis = BasisMatrix(_random_orthonormal(rng, 8, 3))
        u = basis.phi @ rng.normal(size=3)
        assert truncation_error(u, basis) < 1e-12 * np.linalg.norm(u)

    def test_orthogonal_state_keeps_full_norm(self):
        rng = np.random.default_rng(6)
        q = _random_orthonormal(rng, 8, 4)
        basis = BasisMatrix(q[:, :2])
        u = q[:, 3] * 2.5
        assert truncation_error(u, basis) == pytest.approx(2.5, rel=1e-12)

    def test_monotone_in_mode_count(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 40))
        b1 = compute_pod(x, 2)
        b2 = compute_pod(x, 5)
        for _ in range(10):
            u = rng.normal(size=10)
            assert truncation_error(u, b2) <= truncation_error(u, b1) + 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        basis = BasisMatrix(_random_orthonormal(rng, 6, 2))
        with pytest.raises(DimensionError):
            truncation_error(np.ones(5), basis)

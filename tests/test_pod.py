import tracemalloc

import numpy as np
import pytest

from sdeim import pod
from sdeim.errors import DimensionError, RankError
from sdeim.pod import BasisMatrix, compute_pod, truncation_error
from sdeim.properties import _random_orthonormal


# every case runs on a wide (N <= K) and a tall (N > K) snapshot matrix:
# compute_pod takes a different route for each. "blocked" is the tall one
# with QR_BLOCK_ENTRIES at 1, so that _tall_r's blocks have the floor of
# 2 K rows: every tall matrix below then takes two or more blocks and two
# or more levels
WIDE_AND_TALL = pytest.mark.parametrize("tall", ["wide", "tall", "blocked"], indirect=True)


@pytest.fixture
def tall(request, monkeypatch):
    if request.param == "blocked":
        monkeypatch.setattr(pod, "QR_BLOCK_ENTRIES", 1)
    return request.param != "wide"


def qr_r_shapes(monkeypatch):
    """Shapes of the matrices that np.linalg.qr(., mode="r") is called on."""
    shapes = []
    qr = np.linalg.qr

    def counted(a, mode="reduced"):
        if mode == "r":
            shapes.append(np.shape(a))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return shapes


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
        # one route for every spectrum: the mode count does not move a bit
        assert np.array_equal(compute_pod(x, 1).singular_values, basis.singular_values)

    @WIDE_AND_TALL
    def test_m_beyond_rank_raises_with_rank_in_message(self, tall):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 20))
        with pytest.raises(RankError, match="rank 3"):
            compute_pod(x.T if tall else x, 4)

    @pytest.mark.parametrize("tall", ["tall", "blocked"], indirect=True)
    def test_graded_spectrum_tall(self, tall):
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
        assert calls == [(12, 12)]

    def test_blocked_levels(self, monkeypatch):
        # 200 x 40 in blocks of 80 rows: 3 blocks, then a 120-row stack in
        # 2 blocks, then an 80-row stack factored whole
        monkeypatch.setattr(pod, "QR_BLOCK_ENTRIES", 1)
        shapes = qr_r_shapes(monkeypatch)
        x, _ = graded_tall(np.random.default_rng(12))
        pod._tall_r(x)
        assert shapes == [(80, 40), (80, 40), (40, 40), (80, 40), (40, 40), (80, 40)]

    @pytest.mark.parametrize("shape", [(300, 20), (20, 300)], ids=["tall", "wide"])
    def test_single_block_is_the_direct_qr(self, monkeypatch, shape):
        x = np.random.default_rng(13).normal(size=shape)
        t = x if shape[0] > shape[1] else x.T
        monkeypatch.setattr(pod, "QR_BLOCK_ENTRIES", t.size)
        shapes = qr_r_shapes(monkeypatch)
        r = pod._tall_r(x)
        assert shapes == [(300, 20)]
        assert np.array_equal(r, np.linalg.qr(t, mode="r"))

    @pytest.mark.parametrize("entries", [64, 80], ids=["k-above-block", "k-at-block"])
    def test_k_at_or_above_the_block_width_terminates(self, monkeypatch, entries):
        # QR_BLOCK_ENTRIES // K is 0 or 1 row, so blocks take the 2 K floor
        monkeypatch.setattr(pod, "QR_BLOCK_ENTRIES", entries)
        x = np.random.default_rng(14).normal(size=(700, 80))
        shapes = qr_r_shapes(monkeypatch)
        s = compute_pod(x, 1).singular_values
        assert len(shapes) >= 3 and max(rows for rows, _ in shapes) <= 160
        ref = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(s - ref)) < 10 * np.finfo(float).eps * max(x.shape) * ref[0]

    @pytest.mark.parametrize("m", [True, 2.0, 0], ids=["bool", "float", "zero"])
    def test_m_not_a_count_rejected(self, m):
        x = np.random.default_rng(16).normal(size=(6, 20))
        with pytest.raises(DimensionError, match=f"m must be an integer >= 1, got {m!r}"):
            compute_pod(x, m)

    def test_peak_memory_below_half_the_data(self, monkeypatch):
        # a copy of x (numpy's astype for one whole QR) alone is x.nbytes
        monkeypatch.setattr(pod, "QR_BLOCK_ENTRIES", 2**14)
        x = np.random.default_rng(17).normal(size=(4096, 32))
        assert x.size >= 4 * pod.QR_BLOCK_ENTRIES
        tracemalloc.start()
        try:
            compute_pod(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2


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

    @pytest.mark.parametrize("m", [True, 2.0, 0], ids=["bool", "float", "zero"])
    def test_leading_rejects_non_counts(self, m):
        basis = BasisMatrix(_random_orthonormal(np.random.default_rng(18), 7, 4))
        with pytest.raises(DimensionError, match=f"m must be an integer >= 1, got {m!r}"):
            basis.leading(m)


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

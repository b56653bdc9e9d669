import warnings

import numpy as np
import pytest

from sdeim import linalg
from sdeim.errors import AssumptionError, DimensionError
from sdeim.pod import BasisMatrix
from sdeim.properties import _random_orthonormal
from sdeim.sensing import (
    NoiseSpec,
    ObservationSeries,
    SensorSelection,
    add_noise,
    build_deim_core,
    observe,
    observe_trajectory,
    qdeim_place,
)


class TestSensorSelection:
    def test_rejects_duplicates(self):
        with pytest.raises(DimensionError):
            SensorSelection(5, [1, 1])

    @pytest.mark.parametrize("indices", [[5], [-1], [0.5], [1.7], [True, False]],
                             ids=["5", "-1", "0.5", "1.7", "bool"])
    def test_rejects_out_of_range(self, indices):
        # non-integer indices are out of range too: casting would pick a sensor
        with pytest.raises(DimensionError):
            SensorSelection(5, indices)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError, match="need at least one sensor index"):
            SensorSelection(5, [])

    def test_csv_round_trip(self, tmp_path):
        sel = SensorSelection(9, [4, 0, 7])
        path = tmp_path / "sensors.csv"
        sel.to_csv(path)
        back = np.loadtxt(path, delimiter=",", dtype=int, ndmin=1)
        assert np.array_equal(back, sel.indices)


class TestQdeimPlace:
    def test_identity_basis_permutation(self):
        basis = BasisMatrix(np.eye(5))
        sel = qdeim_place(basis, 5)
        assert sorted(sel.indices.tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        basis = BasisMatrix(_random_orthonormal(rng, 15, 4))
        a = qdeim_place(basis, 3)
        b = qdeim_place(basis, 3)
        assert np.array_equal(a.indices, b.indices)

    def test_picks_dominant_row_for_single_mode(self):
        phi = np.array([[0.1], [0.9], [0.1]])
        phi = phi / np.linalg.norm(phi)
        sel = qdeim_place(BasisMatrix(phi), 1)
        assert sel.indices[0] == 1

    def test_n_larger_than_dim_rejected(self):
        basis = BasisMatrix(np.eye(3))
        with pytest.raises(DimensionError):
            qdeim_place(basis, 4)

    def test_invariant_under_mode_reordering(self):
        # pivot norms are Gram quantities, so permuting basis columns
        # cannot change the greedy choices when norms differ strictly
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(12, 4)))
        a = qdeim_place(BasisMatrix(q), 3)
        b = qdeim_place(BasisMatrix(q[:, [2, 0, 3, 1]]), 3)
        assert np.array_equal(a.indices, b.indices)


def fourier_basis(n, modes):
    """cos/sin modes on a uniform periodic grid: many near-tied pivot norms."""
    x = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(1, modes // 2 + 1)
    waves = np.hstack([np.cos(np.outer(x, k)), np.sin(np.outer(x, k))])
    return waves / np.linalg.norm(waves, axis=0)


@pytest.mark.parametrize(
    "phi",
    [
        _random_orthonormal(np.random.default_rng(20), 15, 4),
        _random_orthonormal(np.random.default_rng(21), 500, 12),
        np.eye(4)[:, ::-1],
        fourier_basis(64, 10),
    ],
    ids=["random15x4", "random500x12", "tie-break", "fourier64x10"],
)
def test_qdeim_place_is_the_pivoted_qr_prefix(phi):
    # n steps and no Q must give the full factorization's first n pivots
    basis = BasisMatrix(phi)
    perm = linalg.qr_column_pivot(basis.phi.T).perm
    for n in range(1, basis.n_modes + 1):
        assert np.array_equal(qdeim_place(basis, n).indices, perm[:n])


class TestObserveScatter:
    def test_full_selection_is_identity(self):
        u = np.array([3.0, 1.0, 4.0])
        sel = SensorSelection(3, [0, 1, 2])
        assert np.array_equal(observe(u, sel), u)

    def test_unobserved_basis_vector_gives_zero(self):
        sel = SensorSelection(4, [0, 2])
        u = np.zeros(4)
        u[3] = 1.0
        assert np.array_equal(observe(u, sel), np.zeros(2))

    def test_observe_respects_order(self):
        sel = SensorSelection(4, [2, 0])
        u = np.array([10.0, 20.0, 30.0, 40.0])
        assert np.array_equal(observe(u, sel), [30.0, 10.0])

    @pytest.mark.parametrize("strided", [False, True])
    def test_result_is_a_fresh_copy(self, strided):
        # a 1-D state, or a column of a C-order snapshot matrix (a strided view)
        snapshots = np.arange(15.0).reshape(5, 3)
        u = snapshots[:, 1] if strided else snapshots[1].copy()
        assert u.flags.c_contiguous != strided
        before = u.copy()
        y = observe(u, SensorSelection(u.size, [2, 0]))
        assert not np.shares_memory(y, u)
        y[:] = -1.0
        assert np.array_equal(u, before)


class TestAddNoise:
    def _series(self, k=64, n=2):
        t = 0.1 * np.arange(k)
        samples = np.sin(np.outer(t, np.arange(1, n + 1)))
        return ObservationSeries(t, samples)

    def test_zero_std_is_identity(self):
        series = self._series()
        noisy = add_noise(series, NoiseSpec(0.0, seed=1))
        assert np.array_equal(noisy.samples, series.samples)

    def test_same_seed_bit_identical(self):
        series = self._series()
        a = add_noise(series, NoiseSpec(0.1, seed=42))
        b = add_noise(series, NoiseSpec(0.1, seed=42))
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        series = self._series()
        a = add_noise(series, NoiseSpec(0.1, seed=1))
        b = add_noise(series, NoiseSpec(0.1, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_statistics(self):
        # 1e5 draws: sample std within 5 sigma of the estimator spread
        t = np.arange(100000) * 0.5
        series = ObservationSeries(t, np.zeros((100000, 1)))
        noisy = add_noise(series, NoiseSpec(0.1, seed=3))
        draws = noisy.samples.ravel()
        assert 0.098 <= draws.std() <= 0.102
        assert -0.002 <= draws.mean() <= 0.002


class TestObservationSeries:
    def test_rejects_nonuniform_spacing(self):
        with pytest.raises(DimensionError):
            ObservationSeries(np.array([0.0, 0.1, 0.3]), np.zeros((3, 1)))

    @pytest.mark.parametrize("times", [
        *(pytest.param(np.where(np.arange(3) == i, np.nan, 0.1 * np.arange(3)), id=str(i))
          for i in range(3)),
        pytest.param([0.0, np.inf], id="inf"),
        pytest.param([-np.inf, 0.0], id="-inf"),
        pytest.param([np.nan], id="lone-nan"),
    ])
    def test_rejects_a_nan_time(self, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError):
                ObservationSeries(np.array(times), np.zeros((len(times), 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_a_nonfinite_sample(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError):
                ObservationSeries([0.0, 0.1, 0.2], [[bad], [1.0], [2.0]])

    def test_csv_round_trip(self, tmp_path):
        t = 0.2 * np.arange(5)
        series = ObservationSeries(t, np.arange(10.0).reshape(5, 2))
        path = tmp_path / "obs.csv"
        series.to_csv(path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(back[:, 0], series.times)
        assert np.array_equal(back[:, 1:], series.samples)

    def test_observe_trajectory(self):
        t = 0.1 * np.arange(4)
        states = np.arange(12.0).reshape(4, 3)
        sel = SensorSelection(3, [2, 0])
        series = observe_trajectory(t, states, sel)
        assert np.array_equal(series.samples[:, 0], states[:, 2])
        assert np.array_equal(series.samples[:, 1], states[:, 0])


class TestDeimCore:
    def test_square_core_has_empty_kernel(self):
        rng = np.random.default_rng(1)
        basis = BasisMatrix(_random_orthonormal(rng, 8, 3))
        sel = qdeim_place(basis, 3)
        core = build_deim_core(basis, sel)
        assert core.kernel_matrix.shape == (3, 0)

    def test_kernel_dimension_count(self):
        rng = np.random.default_rng(2)
        basis = BasisMatrix(_random_orthonormal(rng, 8, 3))
        sel = qdeim_place(basis, 1)
        core = build_deim_core(basis, sel)
        assert core.kernel_matrix.shape == (3, 2)
        assert np.linalg.norm(core.s_phi @ core.kernel_matrix) < 1e-12
        assert np.linalg.norm(core.kernel_matrix.T @ core.kernel_matrix - np.eye(2)) < 1e-12

    def test_kernel_orthogonal_to_pinv_range(self):
        rng = np.random.default_rng(3)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 5))
        sel = qdeim_place(basis, 2)
        core = build_deim_core(basis, sel)
        assert np.linalg.norm(core.kernel_matrix.T @ core.s_phi_pinv) < 1e-10

    def test_right_inverse_when_underdetermined(self):
        rng = np.random.default_rng(4)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        sel = qdeim_place(basis, 3)
        core = build_deim_core(basis, sel)
        assert np.linalg.norm(core.s_phi @ core.s_phi_pinv - np.eye(3)) < 1e-10

    def test_rank_deficient_sampling_rejected(self):
        # second sensed row is zero: S^T Phi loses rank
        phi = np.zeros((4, 2))
        phi[0, 0] = 1.0
        phi[1, 1] = 1.0
        basis = BasisMatrix(phi)
        sel = SensorSelection(4, [0, 3])
        with pytest.raises(AssumptionError):
            build_deim_core(basis, sel)

    def test_prefactor_matches_pinv_norm(self):
        rng = np.random.default_rng(5)
        basis = BasisMatrix(_random_orthonormal(rng, 9, 4))
        sel = qdeim_place(basis, 2)
        core = build_deim_core(basis, sel)
        expect = np.linalg.svd(core.s_phi_pinv, compute_uv=False)[0]
        assert core.prefactor == pytest.approx(expect, rel=1e-12)
        sigma_min = np.linalg.svd(core.s_phi, compute_uv=False)[-1]
        assert core.prefactor == pytest.approx(1.0 / sigma_min, rel=1e-12)

    def test_one_svd_per_core(self, monkeypatch):
        rng = np.random.default_rng(6)
        basis = BasisMatrix(_random_orthonormal(rng, 30, 6))
        sel = qdeim_place(basis, 3)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        build_deim_core(basis, sel)
        assert calls == [(3, 6)]

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_lifts_match_products_and_are_column_major(self, n):
        rng = np.random.default_rng(7)
        basis = BasisMatrix(_random_orthonormal(rng, 40, 5))
        idx = rng.choice(40, size=n, replace=False)
        core = build_deim_core(basis, SensorSelection(40, idx))
        phi = basis.phi
        assert core.lift.shape == (40, n)
        assert core.kernel_lift.shape == (40, core.kernel_dim)
        assert np.max(np.abs(core.lift - phi @ core.s_phi_pinv)) < 1e-12
        assert np.max(np.abs(core.kernel_lift - phi @ core.kernel_matrix), initial=0.0) < 1e-12
        assert core.lift.flags.f_contiguous and core.kernel_lift.flags.f_contiguous

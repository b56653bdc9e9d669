import math
from operator import mul

import numpy as np
import pytest

from sdeim import assimilate
from sdeim.assimilate import (
    contraction_rate_on_range,
    das_deim,
    interpolate_obs,
    kernel_rhs,
    one_sided_lipschitz_linear,
    post_transient_mean,
    relative_error_series,
)
from sdeim.dynamics import (
    DIVERGENCE_LIMIT,
    Trajectory,
    VectorField,
    integrate,
    linear_field,
    lorenz63,
    lorenz96,
)
from sdeim.errors import DimensionError, DivergenceError, ObservationRangeError
from sdeim.pod import BasisMatrix, compute_pod
from sdeim.properties import _random_core, _random_orthonormal
from sdeim.reconstruct import vanilla_deim
from sdeim.sensing import ObservationSeries, SensorSelection, build_deim_core, observe, qdeim_place


def reference_kernel_path(core, f, series, xi0, n_sub):
    """Plain RK4 over kernel_rhs, one observation interval at a time: the
    kernel state after every substep, with the time it was reached, up to
    the first state beyond DIVERGENCE_LIMIT."""
    times = series.times
    h = series.dt / n_sub

    def rhs(t, x):
        return kernel_rhs(core, f, series, min(t, times[-1]), x)

    xi = np.asarray(xi0, dtype=float)
    out = [(times[0], xi)]
    for j in range(times.size - 1):
        for i in range(n_sub):
            t = times[j] + i * h
            k1 = rhs(t, xi)
            k2 = rhs(t + 0.5 * h, xi + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, xi + 0.5 * h * k2)
            k4 = rhs(t + h, xi + h * k3)
            xi = xi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append((t + h, xi))
            if not np.max(np.abs(xi)) <= DIVERGENCE_LIMIT:
                return out
    return out


def shifted(f, offset):
    """f seen from coordinates v = u - offset, v' = f(v + offset), on float
    lists when f is: the route das_deim's offset replaced, and the field
    kernel_rhs is given for a centred case."""
    shift = offset.tolist()

    def rhs(v):
        if type(v) is list:
            return f.rhs([a + b for a, b in zip(v, shift)])
        return f.rhs(v + offset)

    return VectorField(dim=f.dim, rhs=rhs)


def assimilation_case(f, train_ic, test_ic, m, n, centred=True):
    """A basis with m modes from twenty time units of f and n Q-DEIM
    sensors, with one time unit of observations; centred (the Lorenz
    presets' setting) or on the raw states. Returns (core, f, series,
    offset), offset being the training mean, or zeros when not centred."""
    train = integrate(f, np.array(train_ic), 20.0, 1e-2)
    mean = train.states.mean(axis=0) if centred else np.zeros(f.dim)
    basis = compute_pod((train.states - mean).T, m)
    core = build_deim_core(basis, qdeim_place(basis.leading(n), n))
    test = integrate(f, np.array(test_ic), 1.0, 1e-3, record_every=10)
    series = ObservationSeries(test.times, (test.states - mean)[:, core.selection.indices])
    return core, f, series, mean


def lorenz63_assimilation_case(centred=True):
    """m = 3 modes and n = 1 sensor, as in the lorenz63 preset: the float path."""
    return assimilation_case(lorenz63(), [1.0, 1.0, 1.0], [-5.0, 4.0, 20.0], 3, 1, centred)


def lorenz96_assimilation_case():
    """Eight chaotic sites (F = 8), m = 4 modes and n = 2 sensors: the array path."""
    u0 = 8.0 + np.eye(8)[0]
    return assimilation_case(lorenz96(8, 8.0), u0, 8.0 - 2.0 * np.eye(8)[3], 4, 2)


@pytest.fixture
def interpolate_calls(monkeypatch):
    """das_deim's calls of assimilate.interpolate_obs: for each, whether
    the series was held as float lists (the float path)."""
    calls = []

    def counted(series, t):
        calls.append(type(series.times) is list)
        return interpolate_obs(series, t)

    monkeypatch.setattr(assimilate, "interpolate_obs", counted)
    return calls


class TestInterpolateObs:
    def _series(self):
        return ObservationSeries(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [2.0], [2.0]]))

    def test_exact_at_samples(self):
        series = self._series()
        for k, t in enumerate(series.times):
            assert np.array_equal(interpolate_obs(series, t), series.samples[k])

    def test_midpoint_of_equal_neighbors(self):
        series = self._series()
        assert interpolate_obs(series, 1.5)[0] == pytest.approx(2.0)

    def test_linear_midpoint(self):
        series = self._series()
        assert interpolate_obs(series, 0.5)[0] == pytest.approx(1.0)

    def test_no_extrapolation(self):
        series = self._series()
        floats = assimilate._FloatSeries(series.times.tolist(), series.samples.tolist())
        for s, t in [(s, t) for s in (series, floats) for t in (-0.1, 2.1, math.nan)]:
            with pytest.raises(ObservationRangeError):
                interpolate_obs(s, t)


class TestKernelRhs:
    def test_zero_field_gives_zero(self):
        rng = np.random.default_rng(0)
        core = _random_core(rng, 6, 4, 2)
        f = linear_field(np.zeros((6, 6)))
        series = ObservationSeries(0.1 * np.arange(4), rng.normal(size=(4, 2)))
        out = kernel_rhs(core, f, series, 0.2, np.zeros(core.kernel_dim))
        assert np.array_equal(out, np.zeros(core.kernel_dim))

    def test_matches_brute_force_minimizer_with_observation_derivative(self):
        # dense least squares including an explicit finite-difference y'
        rng = np.random.default_rng(1)
        core = _random_core(rng, 6, 4, 2)
        f = linear_field(rng.normal(size=(6, 6)))
        series = ObservationSeries(0.1 * np.arange(6), rng.normal(size=(6, 2)))
        xi = rng.normal(size=core.kernel_dim)
        t = 0.23
        val = kernel_rhs(core, f, series, t, xi)
        eps = 1e-6
        y_dot = (interpolate_obs(series, t + eps) - interpolate_obs(series, t - eps)) / (2 * eps)
        phi = core.basis.phi
        u_rec = phi @ (core.s_phi_pinv @ interpolate_obs(series, t)) + phi @ core.kernel_matrix @ xi
        target = f.rhs(u_rec) - phi @ (core.s_phi_pinv @ y_dot)
        xi_dot, *_ = np.linalg.lstsq(phi @ core.kernel_matrix, target, rcond=None)
        assert np.linalg.norm(val - xi_dot) < 1e-8

    def test_affine_in_xi_for_linear_field(self):
        rng = np.random.default_rng(2)
        core = _random_core(rng, 6, 4, 2)
        f = linear_field(rng.normal(size=(6, 6)))
        series = ObservationSeries(0.1 * np.arange(4), rng.normal(size=(4, 2)))
        xi_a, xi_b = rng.normal(size=2), rng.normal(size=2)
        lam = 0.4
        mixed = kernel_rhs(core, f, series, 0.15, lam * xi_a + (1 - lam) * xi_b)
        split = lam * kernel_rhs(core, f, series, 0.15, xi_a) + (1 - lam) * kernel_rhs(
            core, f, series, 0.15, xi_b
        )
        assert np.linalg.norm(mixed - split) < 1e-10

    def test_requires_nonempty_kernel(self):
        rng = np.random.default_rng(3)
        core = _random_core(rng, 6, 2, 2)
        f = linear_field(np.zeros((6, 6)))
        series = ObservationSeries(0.1 * np.arange(4), rng.normal(size=(4, 2)))
        with pytest.raises(DimensionError):
            kernel_rhs(core, f, series, 0.1, np.zeros(0))


class TestDasDeim:
    def test_square_core_reduces_to_vanilla_pointwise(self):
        # m == n: empty kernel; the run must equal the plain estimate
        # sample by sample
        f = lorenz63()
        traj = integrate(f, np.array([1.0, 2.0, 3.0]), 1.0, 1e-3, record_every=100)
        basis = BasisMatrix(np.eye(3))
        core = build_deim_core(basis, SensorSelection(3, [0, 1, 2]))
        series = ObservationSeries(traj.times, traj.states[:, [0, 1, 2]])
        run = das_deim(core, f, series, dt=series.dt / 2)
        expected = np.array([vanilla_deim(core, y) for y in series.samples])
        assert np.allclose(run.reconstruction.states, expected, atol=1e-12)
        assert run.xi_path.shape == (len(series.times), 0)

    def test_clean_run_keeps_interpolation_property(self):
        rng = np.random.default_rng(5)
        core = _random_core(rng, 6, 4, 2)
        a = rng.normal(size=(6, 6))
        a = -np.eye(6) + 0.1 * a
        f = linear_field(a)
        u0 = core.basis.phi @ rng.normal(size=4)
        traj = integrate(f, u0, 2.0, 1e-3, record_every=50)
        series = ObservationSeries(traj.times, traj.states[:, core.selection.indices])
        run = das_deim(core, f, series, dt=0.05 / 10)
        for k in range(len(series.times)):
            resid = observe(run.reconstruction.states[k], core.selection) - series.samples[k]
            assert np.linalg.norm(resid) < 1e-8

    def test_xi_path_shape_and_times(self):
        rng = np.random.default_rng(6)
        core = _random_core(rng, 6, 4, 2)
        f = linear_field(-np.eye(6))
        times = 0.1 * np.arange(11)
        series = ObservationSeries(times, rng.normal(size=(11, 2)))
        run = das_deim(core, f, series, dt=0.01)
        assert run.xi_path.shape == (11, 2)
        assert np.array_equal(run.reconstruction.times, times)

    @pytest.mark.parametrize("system", ["linear", "lorenz63", "lorenz63-uncentred", "linear-large"])
    def test_xi_path_matches_reference_rk4_over_kernel_rhs(self, system):
        rng = np.random.default_rng(11)
        if system == "linear":
            core = _random_core(rng, 6, 4, 2)
            f = linear_field(-np.eye(6) + 0.3 * rng.normal(size=(6, 6)))
            series = ObservationSeries(0.05 * np.arange(21), rng.normal(size=(21, 2)))
            offset = np.zeros(6)
        elif system == "linear-large":
            core = _random_core(rng, 12, 5, 2)
            f = linear_field(-np.eye(12) + 0.3 * rng.normal(size=(12, 12)))
            series = ObservationSeries(0.05 * np.arange(21), rng.normal(size=(21, 2)))
            offset = np.zeros(12)
        else:
            core, f, series, offset = lorenz63_assimilation_case(centred=system == "lorenz63")
        xi0 = rng.normal(size=core.kernel_dim)
        n_sub = 8
        run = das_deim(core, f, series, xi0=xi0, dt=series.dt / n_sub, offset=offset)
        path = reference_kernel_path(core, shifted(f, offset), series, xi0, n_sub)
        ref = np.array([xi for _, xi in path[::n_sub]])
        assert np.linalg.norm(run.xi_path - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", [lorenz63_assimilation_case, lorenz96_assimilation_case],
                             ids=["lorenz63", "lorenz96"])
    def test_offset_gives_the_old_centred_route_bits(self, case):
        # the centred route before das_deim took an offset: the field seen
        # from v = u - mean, and the mean added to the reconstruction after
        core, f, series, mean = case()
        assert f.on_lists == (case is lorenz63_assimilation_case)
        run = das_deim(core, f, series, offset=mean)
        old = das_deim(core, shifted(f, mean), series)
        assert np.array_equal(run.xi_path, old.xi_path)
        assert np.array_equal(run.reconstruction.times, old.reconstruction.times)
        assert np.array_equal(run.reconstruction.states, mean + old.reconstruction.states)
        assert np.ptp(run.xi_path) > 0.1  # the kernel path moved

    @pytest.mark.parametrize("case", [lorenz63_assimilation_case, lorenz96_assimilation_case],
                             ids=["lorenz63", "lorenz96"])
    def test_offset_none_gives_the_zero_offset_bits(self, case):
        core, f, series, _ = case()
        xi0 = np.ones(core.kernel_dim)
        run = das_deim(core, f, series, xi0=xi0)
        zero = das_deim(core, f, series, xi0=xi0, offset=np.zeros(core.dim))
        assert np.array_equal(run.xi_path, zero.xi_path)
        assert np.array_equal(run.reconstruction.states, zero.reconstruction.states)

    @pytest.mark.parametrize("offset", [np.zeros(4), np.zeros(6), np.zeros((1, 5)),
                                        [0.0, 0.0, 0.0, 0.0, math.nan],
                                        [0.0, 0.0, -math.inf, 0.0, 0.0]],
                             ids=["short", "long", "row", "nan", "inf"])
    def test_offset_not_a_finite_state_rejected(self, offset):
        rng = np.random.default_rng(15)
        core = _random_core(rng, 5, 4, 2)
        series = ObservationSeries(0.1 * np.arange(5), rng.normal(size=(5, 2)))
        with pytest.raises(DimensionError, match="offset"):
            das_deim(core, linear_field(-np.eye(5)), series, offset=offset)

    def test_divergence_reports_last_finite_step_time(self):
        # xi' = 50 xi for an orthonormal basis: the kernel path blows up
        rng = np.random.default_rng(12)
        core = _random_core(rng, 6, 4, 2)
        f = linear_field(50.0 * np.eye(6))
        series = ObservationSeries(0.1 + 0.1 * np.arange(11), np.zeros((11, 2)))
        xi0 = np.ones(core.kernel_dim)
        path = reference_kernel_path(core, f, series, xi0, 10)
        assert np.max(np.abs(path[-1][1])) > DIVERGENCE_LIMIT
        with pytest.raises(DivergenceError) as err:
            das_deim(core, f, series, xi0=xi0, dt=0.01)
        assert err.value.t_last == pytest.approx(path[-2][0], abs=1e-12)

    @pytest.mark.parametrize("n_state, m, n", [(3, 3, 1), (6, 4, 2), (7, 4, 2), (40, 3, 1)])
    @pytest.mark.parametrize("list_rhs", [True, False], ids=["list-rhs", "linear_field"])
    def test_float_path_chosen_by_rhs_result_type(self, interpolate_calls, n_state, m, n, list_rhs):
        rng = np.random.default_rng(13)
        core = _random_core(rng, n_state, m, n)
        a = -np.eye(n_state) + 0.3 * rng.normal(size=(n_state, n_state))
        f = linear_field(a)
        if list_rhs:
            rows = a.tolist()

            def rhs(u):  # the same field, mapping a list to a list of row sums
                return [sum(map(mul, row, u)) for row in rows] if type(u) is list else a @ u

            f = VectorField(dim=n_state, rhs=rhs)
        series = ObservationSeries(0.05 * np.arange(11), rng.normal(size=(11, n)))
        run = das_deim(core, f, series, dt=0.05 / 4)
        # one call a stage: 4 stages x 4 substeps x 10 intervals, all on
        # lists, or (a @ u maps a list to an array) all on arrays, at any dim
        n_stages = 4 * 4 * 10
        assert interpolate_calls == [list_rhs] * n_stages
        ref = np.array([xi for _, xi in reference_kernel_path(core, f, series, np.zeros(m - n), 4)[::4]])
        assert np.linalg.norm(run.xi_path - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_lorenz63_core_takes_the_float_path(self, interpolate_calls):
        core, f, series, mean = lorenz63_assimilation_case()
        rhs_calls = []
        g = VectorField(dim=3, rhs=lambda u: rhs_calls.append(type(u)) or f.rhs(u))
        rhs_calls.clear()  # the probe when g was built
        run = das_deim(core, g, series, offset=mean)  # the default step
        n_stages = 4 * assimilate.KERNEL_SUBSTEPS * (series.times.size - 1)
        # one field call and one interpolation a stage, all on lists
        assert interpolate_calls == [True] * n_stages and rhs_calls == [list] * n_stages
        explicit = das_deim(core, f, series, dt=series.dt / assimilate.KERNEL_SUBSTEPS, offset=mean)
        assert np.all(np.isfinite(run.xi_path))
        assert np.array_equal(run.xi_path, explicit.xi_path)

    def test_array_only_small_field_takes_the_array_path(self, interpolate_calls):
        # the lorenz63 case's field behind an rhs written for arrays only
        # (a list + 0.0 raises): the field is built with on_lists false and
        # every stage runs on arrays
        core, f, series, mean = lorenz63_assimilation_case()
        g = VectorField(dim=3, rhs=lambda u: f.rhs(u + 0.0))
        xi0 = np.ones(core.kernel_dim)
        n_sub = 8
        run = das_deim(core, g, series, xi0=xi0, dt=series.dt / n_sub, offset=mean)
        n_stages = 4 * n_sub * (series.times.size - 1)
        assert not g.on_lists and interpolate_calls == [False] * n_stages
        path = reference_kernel_path(core, shifted(f, mean), series, xi0, n_sub)
        ref = np.array([xi for _, xi in path[::n_sub]])
        assert np.linalg.norm(run.xi_path - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_float_series_interpolates_as_arrays_do(self):
        # at every stage time, past the end and backwards, a series held as
        # float lists gives the array series' bracketing index, weight and bits;
        # the stage times are those of das_deim's default step
        core, _, series, _ = lorenz63_assimilation_case()
        lifted = ObservationSeries(series.times, vanilla_deim(core, series.samples))
        floats = assimilate._FloatSeries(lifted.times.tolist(), lifted.samples.tolist())
        n_sub = assimilate.KERNEL_SUBSTEPS
        h = series.dt / n_sub
        stage_times = [series.times[0] + k * h + c for k in range(n_sub * (series.times.size - 1))
                       for c in (0.0, 0.5 * h, 0.5 * h, h)]
        stage_times += [series.times[-1] + 1e-12, *stage_times[::-1]]
        for t in stage_times:
            t = min(t, series.times[-1])
            u = interpolate_obs(floats, t)
            assert type(u) is list and u == interpolate_obs(lifted, t).tolist()
        with pytest.raises(ObservationRangeError):
            interpolate_obs(floats, series.times[-1] + 1e-12)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_nan_in_any_state_component_stops_the_float_path(self, i):
        # u' = 50 u: xi' = 50 xi; component i of the field turns NaN once
        # a component of u passes 10
        def rhs(u):
            is_list = type(u) is list
            u = u if is_list else u.tolist()
            big = max(map(abs, u)) > 10.0
            du = [math.nan if k == i and big else 50.0 * v for k, v in enumerate(u)]
            return du if is_list else np.array(du)

        rng = np.random.default_rng(14)
        core = _random_core(rng, 3, 3, 1)
        f = VectorField(dim=3, rhs=rhs)
        series = ObservationSeries(0.1 + 0.1 * np.arange(11), np.zeros((11, 1)))
        xi0 = np.ones(core.kernel_dim)
        path = reference_kernel_path(core, f, series, xi0, 10)
        assert np.isnan(path[-1][1]).any()
        with pytest.raises(DivergenceError) as err:
            das_deim(core, f, series, xi0=xi0, dt=0.01)
        assert err.value.t_last == pytest.approx(path[-2][0], abs=1e-12)

    def test_rejects_nondividing_step(self):
        rng = np.random.default_rng(7)
        core = _random_core(rng, 6, 4, 2)
        f = linear_field(-np.eye(6))
        series = ObservationSeries(0.1 * np.arange(5), rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            das_deim(core, f, series, dt=0.03)

    @pytest.mark.parametrize("dt", [0.0, -0.025, math.nan, math.inf])
    def test_rejects_step_that_is_not_positive_and_finite(self, dt):
        rng = np.random.default_rng(7)
        core = _random_core(rng, 6, 4, 2)
        series = ObservationSeries(0.1 * np.arange(5), rng.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            das_deim(core, linear_field(-np.eye(6)), series, dt=dt)


class TestRelativeErrorSeries:
    def _pair(self, scale):
        t = 0.1 * np.arange(4)
        truth = Trajectory(t, np.ones((4, 3)))
        rec = Trajectory(t, scale * np.ones((4, 3)))
        return rec, truth

    def test_exact_reconstruction_gives_zeros(self):
        rec, truth = self._pair(1.0)
        assert np.allclose(relative_error_series(rec, truth), 0.0)

    def test_double_gives_ones(self):
        rec, truth = self._pair(2.0)
        assert np.allclose(relative_error_series(rec, truth), 1.0)

    def test_zero_reconstruction_gives_ones(self):
        rec, truth = self._pair(0.0)
        assert np.allclose(relative_error_series(rec, truth), 1.0)

    def test_zero_norm_truth_flagged_and_excluded(self):
        t = 0.1 * np.arange(3)
        truth = Trajectory(t, np.array([[1.0], [0.0], [1.0]]))
        rec = Trajectory(t, np.array([[1.0], [1.0], [2.0]]))
        errs = relative_error_series(rec, truth)
        assert np.isnan(errs[1])
        assert post_transient_mean(errs) == pytest.approx(0.5)


class TestOneSidedLipschitz:
    def test_negative_identity_full_projection(self):
        assert one_sided_lipschitz_linear(-np.eye(4), np.eye(4)) == pytest.approx(-1.0)

    def test_zero_projection(self):
        assert one_sided_lipschitz_linear(np.eye(4), np.zeros((4, 4))) == pytest.approx(0.0)

    def test_sampled_inequality(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        q = _random_orthonormal(rng, 5, 2)
        p = q @ q.T
        rho = one_sided_lipschitz_linear(a, p)
        for _ in range(1000):
            du = rng.normal(size=5)
            assert du @ (p @ (a @ du)) <= (rho + 1e-9) * (du @ du)

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError):
            one_sided_lipschitz_linear(np.eye(3), 2 * np.eye(3))

    def test_restricted_rate_rejects_non_square_a(self):
        with pytest.raises(DimensionError):
            contraction_rate_on_range(np.ones((3, 4)), np.eye(3))

    def test_restricted_rate_can_be_negative(self):
        rng = np.random.default_rng(9)
        q = _random_orthonormal(rng, 6, 2)
        p = q @ q.T
        a = -np.eye(6)
        assert one_sided_lipschitz_linear(a, p) == pytest.approx(0.0, abs=1e-12)
        assert contraction_rate_on_range(a, p) == pytest.approx(-1.0)


class TestSyntheticConvergence:
    def test_exponential_decay_within_envelope(self):
        # stable linear field with the basis range invariant; truth at the
        # attractor (origin), so observations are exactly representable
        rng = np.random.default_rng(10)
        phi = _random_orthonormal(rng, 8, 5)
        basis = BasisMatrix(phi)
        sel = qdeim_place(basis, 2)
        core = build_deim_core(basis, sel)
        skew = rng.normal(size=(5, 5))
        b = -0.8 * np.eye(5) + 0.5 * (skew - skew.T)
        a = phi @ b @ phi.T - 2.0 * (np.eye(8) - phi @ phi.T)
        p = phi @ core.kernel_matrix @ core.kernel_matrix.T @ phi.T
        rho = contraction_rate_on_range(a, p)
        assert rho < 0
        f = linear_field(a)
        times = 0.05 * np.arange(101)
        series = ObservationSeries(times, np.zeros((101, 2)))
        xi0 = rng.normal(size=core.kernel_dim)
        run = das_deim(core, f, series, xi0=xi0, dt=0.05 / 20)
        err0 = np.linalg.norm(run.reconstruction.states[0])
        for k, t in enumerate(times):
            err = np.linalg.norm(run.reconstruction.states[k])
            assert err <= err0 * np.exp(rho * t) * (1 + 1e-3)

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sdeim
from sdeim.dynamics import (
    DIVERGENCE_LIMIT,
    Trajectory,
    VectorField,
    advance,
    integrate,
    linear_field,
    lorenz63,
    lorenz96,
    rk4_drive,
    rk4_step,
)
from sdeim.errors import DimensionError, DivergenceError
from sdeim.experiments import load_preset


def goes_bad_at_one(i, bad):
    """u' = (1, 1, 1), except that component i's rate is `bad` once
    u_i >= 1: a Lorenz63-sized field, list-in list-out and array-in
    array-out, whose state goes bad in component i only."""

    def rhs(u):
        is_list = type(u) is list
        du = [bad if k == i and v >= 1.0 else 1.0 for k, v in enumerate(u if is_list else u.tolist())]
        return du if is_list else np.array(du)

    return VectorField(dim=3, rhs=rhs)


def last_good_step_time(f, u0, dt):
    """The time of the last rk4_step whose state has every component
    finite and within DIVERGENCE_LIMIT."""
    u, k = np.asarray(u0, dtype=float), 0
    while np.all(np.abs(u) <= DIVERGENCE_LIMIT):
        u, k = rk4_step(f, u, dt), k + 1
    return (k - 1) * dt


class TestLorenz63:
    def test_origin_is_fixed_point(self):
        f = lorenz63()
        assert np.array_equal(f.rhs(np.zeros(3)), np.zeros(3))

    def test_default_parameters(self):
        f = lorenz63()
        assert f.params == {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}

    def test_hand_substitution_at_ones(self):
        f = lorenz63()
        assert np.allclose(f.rhs(np.ones(3)), [0.0, 26.0, 1.0 - 8.0 / 3.0])

    def test_matches_indexed_expression_bitwise(self):
        sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
        f = lorenz63(sigma, rho, beta)
        for u in np.random.default_rng(0).normal(scale=20.0, size=(1000, 3)):
            expect = np.array([
                sigma * (u[1] - u[0]),
                u[0] * (rho - u[2]) - u[1],
                u[0] * u[1] - beta * u[2],
            ])
            assert np.array_equal(f.rhs(u), expect)


class TestLorenz96:
    def test_uniform_forcing_state_is_equilibrium(self):
        f = lorenz96(12, 3.5)
        u = 3.5 * np.ones(12)
        assert np.allclose(f.rhs(u), np.zeros(12), atol=1e-14)

    def test_default_parameters(self):
        f = lorenz96()
        assert f.params == {"N": 40, "F": 2.0}

    def test_cyclic_shift_equivariance(self):
        rng = np.random.default_rng(0)
        f = lorenz96(10, 2.0)
        u = rng.normal(size=10)
        shifted = np.roll(u, 3)
        assert np.array_equal(f.rhs(shifted), np.roll(f.rhs(u), 3))

    def test_small_lattice_rejected(self):
        with pytest.raises(DimensionError):
            lorenz96(3, 1.0)


class TestLinearField:
    def test_zero_matrix(self):
        f = linear_field(np.zeros((3, 3)))
        assert np.array_equal(f.rhs(np.ones(3)), np.zeros(3))

    def test_negative_identity_decays(self):
        f = linear_field(-np.eye(2))
        traj = integrate(f, np.array([1.0, 2.0]), 1.0, 1e-3, record_every=1000)
        assert np.allclose(traj.states[-1], np.exp(-1.0) * np.array([1.0, 2.0]), rtol=1e-9)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        f = linear_field(a)
        u0 = rng.normal(size=4)
        traj = integrate(f, u0, 1.0, 1e-3, record_every=1000)
        ref = scipy.linalg.expm(a) @ u0
        assert np.linalg.norm(traj.states[-1] - ref) < 1e-6 * np.linalg.norm(ref)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linear_field(np.zeros((2, 3)))


class TestIntegrate:
    def test_zero_field_is_constant(self):
        f = linear_field(np.zeros((2, 2)))
        traj = integrate(f, np.array([1.0, -2.0]), 0.5, 0.01, record_every=10)
        assert np.all(traj.states == traj.states[0])

    def test_scalar_decay_against_exact_solution(self):
        f = linear_field(np.array([[-1.0]]))
        traj = integrate(f, np.array([1.0]), 1.0, 0.01)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_order_four_richardson_ratio(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        a /= np.linalg.norm(a, 2)
        f = linear_field(a)
        u0 = rng.normal(size=3)
        ref = scipy.linalg.expm(a) @ u0
        e1 = np.linalg.norm(integrate(f, u0, 1.0, 0.05).states[-1] - ref)
        e2 = np.linalg.norm(integrate(f, u0, 1.0, 0.025).states[-1] - ref)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_records_endpoints_and_stride(self):
        f = linear_field(-np.eye(1))
        traj = integrate(f, np.array([1.0]), 1.0, 0.1, record_every=3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.allclose(traj.times[1:3], [0.3, 0.6])

    def test_divergence_guard(self):
        # t_last is the time of the last step that stayed below the limit
        f = linear_field(np.array([[50.0]]))
        dt = 0.01
        u, k = np.array([1.0]), 0
        while abs(u[0]) <= DIVERGENCE_LIMIT:
            u, k = rk4_step(f, u, dt), k + 1
        for run in (integrate, advance):
            with pytest.raises(DivergenceError) as err:
                run(f, np.array([1.0]), 10.0, dt)
            assert err.value.t_last == pytest.approx((k - 1) * dt, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e12])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_divergence_guard_in_every_component(self, i, bad):
        # max(map(abs, x)) would skip a NaN in component 1 or 2
        f, dt = goes_bad_at_one(i, bad), 0.1
        t_last = last_good_step_time(f, np.zeros(3), dt)
        for run in (integrate, advance):
            with pytest.raises(DivergenceError) as err:
                run(f, np.zeros(3), 10.0, dt)
            assert err.value.t_last == pytest.approx(t_last, abs=1e-12)

    def test_stage_order_matches_rk4_step_bit_for_bit(self):
        f = lorenz63()
        u = np.array([1.0, 1.0, 1.0])
        ref = [u]
        for _ in range(2000):
            u = rk4_step(f, u, 1e-3)
            ref.append(u)
        traj = integrate(f, ref[0], 2.0, 1e-3)
        assert np.array_equal(traj.states, np.array(ref))

    def test_divergence_limit_defined_once(self):
        sources = Path(sdeim.__file__).parent.glob("*.py")
        found = sum(len(re.findall(r"^DIVERGENCE_LIMIT\s*=", p.read_text(), re.M)) for p in sources)
        assert found == 1

    def test_advance_matches_integrate_endpoint(self):
        f = lorenz63()
        u0 = np.array([1.0, 1.0, 1.0])
        end_a = advance(f, u0, 2.0, 1e-3)
        end_b = integrate(f, u0, 2.0, 1e-3, record_every=2000).states[-1]
        assert np.array_equal(end_a, end_b)


class TestStartChecks:
    @pytest.mark.parametrize("span, dt", [(-1.0, 0.01), (1.0, -0.01), (1.0, 0.0),
                                          (1.0, math.nan), (math.nan, 0.01), (math.inf, 0.01)])
    def test_advance_rejects_bad_span_or_step(self, span, dt):
        with pytest.raises(ValueError):
            advance(lorenz63(), np.ones(3), span, dt)

    @pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan, math.inf])
    def test_integrate_rejects_bad_step(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(lorenz63(), np.ones(3), 1.0, dt)

    @pytest.mark.parametrize("record_every", [0, -1, 2.5, 10.0, True])
    def test_integrate_rejects_bad_record_every(self, record_every):
        with pytest.raises(DimensionError, match="record_every must be an integer >= 1"):
            integrate(lorenz63(), np.ones(3), 1.0, 0.01, record_every=record_every)

    @pytest.mark.parametrize("run", [integrate, advance])
    @pytest.mark.parametrize("u0", [np.ones(4), np.ones(2), np.ones((3, 1)), 1.0],
                             ids=["4-vector", "2-vector", "column", "scalar"])
    def test_misshapen_state_rejected(self, run, u0):
        with pytest.raises(DimensionError):
            run(lorenz63(), u0, 1.0, 0.01)

    @pytest.mark.parametrize("run", [integrate, advance])
    @pytest.mark.parametrize("span, dt", [(1.05, 0.1), (0.04, 0.1)])
    def test_span_not_a_whole_number_of_steps_rejected(self, run, span, dt):
        # not rounded to 10 steps, or to none
        with pytest.raises(ValueError, match=f"time span {span} is not a whole number of steps"):
            run(lorenz63(), np.ones(3), span, dt)

    def test_advance_by_zero_returns_the_state(self):
        u0 = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(advance(lorenz63(), u0, 0.0, 0.01), u0)


def _drive_both(f, u0, n_steps, dt=1e-3, record_every=1):
    """rk4_drive over f from u0 on arrays, then on float lists."""

    def rhs(t, x):
        return f.rhs(x)

    u0 = np.asarray(u0, dtype=float)
    return [rk4_drive(rhs, x0, dt, n_steps, record_every) for x0 in (u0, u0.tolist())]


class TestKernelSets:
    def test_lorenz63_list_and_array_paths_bitwise_equal(self):
        (t_a, x_a), (t_l, x_l) = _drive_both(lorenz63(), [1.0, 1.0, 1.0], 20000)
        assert np.array_equal(t_a, t_l)
        assert np.array_equal(x_a, x_l)
        assert np.ptp(x_a[:, 0]) > 10.0  # the run left the start and crossed lobes

    @pytest.mark.parametrize("f", [
        linear_field(np.random.default_rng(3).normal(size=(6, 6))),
        lorenz96(6, 8.0),
        VectorField(dim=2, rhs=lambda u: -u),
        VectorField(dim=2, rhs=lambda u: u + u),
        VectorField(dim=3, rhs=lambda u: np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.5]]).dot(u)),
    ], ids=["linear", "lorenz96", "negate", "concatenate", "dot"])
    def test_small_array_fields_give_the_array_path_bits(self, f):
        # linear_field's a @ u maps a list to an array; the others are array
        # code that raises on a list (u[index_array], -u, u.dot) or, as u + u
        # does, concatenates two lists into one of the wrong length
        assert not f.on_lists
        u0 = np.linspace(-1.0, 2.0, f.dim)
        t_a, x_a = rk4_drive(lambda t, x: f.rhs(x), u0, 1e-3, 2000)
        traj = integrate(f, u0, 2.0, 1e-3)
        assert np.array_equal(traj.times, t_a)
        assert np.array_equal(traj.states, x_a)
        assert np.array_equal(advance(f, u0, 2.0, 1e-3), x_a[-1])

    def test_a_list_field_raising_midway_raises_its_own_error(self):
        # u' = (sqrt(1 - u_0), 1): u_0 = 1 - (1 - t/2)^2 reaches 1 at t = 2,
        # where an RK4 stage overshoots and math.sqrt raises; that error is
        # the caller's, and the run is not repeated on arrays
        seen = []

        def rhs(u):
            seen.append(type(u))
            if type(u) is list:
                return [math.sqrt(1.0 - u[0]), 1.0]
            return np.array([np.sqrt(1.0 - u[0]), 1.0])

        f = VectorField(dim=2, rhs=rhs)
        assert f.on_lists
        with pytest.raises(ValueError, match="math domain error") as err:
            integrate(f, np.zeros(2), 4.0, 0.01)
        assert type(err.value) is ValueError
        assert len(seen) > 4 * 150 and set(seen) == {list}

    def test_a_probe_error_other_than_the_array_ones_propagates(self):
        def rhs(u):
            return [1.0 / v for v in u]

        with pytest.raises(ZeroDivisionError):
            VectorField(dim=2, rhs=rhs)

    @pytest.mark.parametrize("wrong", [-1, 1], ids=["shorter", "longer"])
    def test_wrong_length_list_result_rejected(self, wrong):
        # u' = (1, 1, 1), whose list rhs gives 3 + wrong entries once u_0 passes
        # 0.5025: the step from t = 0.5 (dt = 0.01) is the first with a stage
        # there (its second, at u_0 = 0.505), and the run stops in that step
        seen = []

        def rhs(u):
            seen.append(u[0])
            return [1.0] * (3 + wrong if u[0] > 0.5025 else 3)

        f = VectorField(dim=3, rhs=rhs)
        assert f.on_lists
        with pytest.raises(DimensionError, match=r"in the step from t=0\.5$"):
            integrate(f, np.zeros(3), 1.0, 0.01)
        assert len(seen) == 1 + 4 * 51  # the probe, then four stages a step
        assert max(seen) == pytest.approx(0.51)

    @pytest.mark.parametrize("dim", [2.5, -1, 0, True])
    def test_bad_dim_rejected_before_the_probe(self, dim):
        seen = []

        def rhs(u):
            seen.append(u)
            return -u

        with pytest.raises(DimensionError, match="dim"):
            VectorField(dim=dim, rhs=rhs)
        assert seen == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2 * DIVERGENCE_LIMIT])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_both_paths_stop_at_the_same_step(self, i, bad):
        f = goes_bad_at_one(i, bad)
        errs = []
        for x0 in (np.zeros(3), [0.0, 0.0, 0.0]):
            with pytest.raises(DivergenceError) as err:
                rk4_drive(lambda t, x: f.rhs(x), x0, 0.1, 100)
            errs.append(err.value.t_last)
        assert errs[0] == errs[1] == pytest.approx(last_good_step_time(f, np.zeros(3), 0.1), abs=1e-12)

    @pytest.mark.parametrize("f", [
        linear_field(np.random.default_rng(4).normal(size=(3, 3))),
        load_preset("linear8").vector_field,
    ], ids=["linear3", "linear8"])
    def test_linear_field_is_probed_once_then_steps_on_arrays(self, f):
        # a @ u maps a list to an array: the one list call is the probe when
        # the field is built, and every stage gets an array, at any dim
        seen = []

        def rhs(u):
            seen.append(type(u))
            return f.rhs(u)

        g = VectorField(dim=f.dim, rhs=rhs)
        assert seen == [list] and not g.on_lists
        integrate(g, np.ones(f.dim), 0.01, 1e-3)
        assert seen == [list] + [np.ndarray] * (4 * 10)

    def test_small_fields_return_lists_for_lists(self):
        u = [1.0, -2.0, 3.0]
        f = lorenz63()
        assert f.on_lists
        out = f.rhs(u)
        assert type(out) is list and all(type(v) is float for v in out)
        assert out == f.rhs(np.array(u)).tolist()
        with pytest.raises(TypeError):  # the field decides, no caller
            VectorField(dim=3, rhs=lorenz63().rhs, on_lists=True)


class TestTrajectory:
    def test_rejects_decreasing_times(self):
        for times in ([0.0, 0.2, 0.1], [0.0, math.nan, 0.2], [0.0, 0.1, math.inf],
                      [-math.inf, 0.0, 0.1], [math.nan]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DimensionError):
                    Trajectory(np.array(times), np.zeros((len(times), 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_states(self, bad):
        with pytest.raises(DimensionError):
            Trajectory([0.0, 0.1], [[0.0, 1.0], [bad, 1.0]])

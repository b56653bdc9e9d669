import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sdeim
from sdeim.dynamics import (
    DIVERGENCE_LIMIT,
    Trajectory,
    advance,
    integrate,
    linear_field,
    lorenz63,
    lorenz96,
    rk4_step,
    shifted_field,
)
from sdeim.errors import DimensionError, DivergenceError


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


class TestShiftedField:
    def test_linear_shift(self):
        a = np.array([[2.0, 0.0], [0.0, -1.0]])
        offset = np.array([1.0, 3.0])
        g = shifted_field(linear_field(a), offset)
        v = np.array([0.5, -0.5])
        assert np.allclose(g.rhs(v), a @ (v + offset))


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


class TestTrajectory:
    def test_csv_round_trip(self, tmp_path):
        t = np.array([0.0, 0.1, 0.2])
        x = np.arange(6.0).reshape(3, 2)
        traj = Trajectory(t, x)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(back[:, 0], t)
        assert np.array_equal(back[:, 1:], x)

    def test_rejects_decreasing_times(self):
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.2, 0.1]), np.zeros((3, 1)))

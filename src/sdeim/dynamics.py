"""Vector fields and fixed-step time integration."""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionError, DivergenceError

DIVERGENCE_LIMIT = 1e8


@dataclass(frozen=True)
class VectorField:
    """Autonomous ODE right-hand side u' = rhs(u) on R^dim."""

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution: times (K,) strictly increasing, states (K, dim)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.atleast_2d(np.asarray(self.states, dtype=float))
        if x.shape[0] != t.size:
            raise DimensionError("times and states length mismatch")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise DimensionError("times must be strictly increasing")
        if not np.all(np.isfinite(x)):
            raise DimensionError("states contain non-finite entries")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def dim(self):
        return self.states.shape[1]

    def to_csv(self, path):
        linalg.save_matrix_csv(path, np.column_stack([self.times, self.states]))


def lorenz63(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """Classic three-variable convection model:
    u1' = sigma (u2 - u1), u2' = u1 (rho - u3) - u2, u3' = u1 u2 - beta u3.
    """

    def rhs(u):
        # Python floats: the same IEEE arithmetic as indexing numpy
        # scalars, without eight scalar boxings per call
        x, y, z = u.tolist()
        return np.array([
            sigma * (y - x),
            x * (rho - z) - y,
            x * y - beta * z,
        ])

    return VectorField(dim=3, rhs=rhs, params={"sigma": sigma, "rho": rho, "beta": beta})


def lorenz96(n_sites=40, forcing=2.0):
    """Cyclic lattice model u_i' = (u_{i+1} - u_{i-2}) u_{i-1} - u_i + F
    with periodic index wrapping; needs at least 4 sites."""
    if n_sites < 4:
        raise DimensionError("lorenz96 needs n_sites >= 4")
    ip1 = np.roll(np.arange(n_sites), -1)
    im1 = np.roll(np.arange(n_sites), 1)
    im2 = np.roll(np.arange(n_sites), 2)

    def rhs(u):
        return (u[ip1] - u[im2]) * u[im1] - u + forcing

    return VectorField(dim=n_sites, rhs=rhs, params={"N": n_sites, "F": forcing})


def linear_field(a):
    """u' = A u for a square matrix A."""
    a = linalg._as_matrix(a, "linear field matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionError("linear field needs a square matrix")

    def rhs(u):
        return a @ u

    return VectorField(dim=a.shape[0], rhs=rhs, params={"a": a})


def shifted_field(f, offset):
    """The field seen from coordinates v = u - offset: v' = f(v + offset)."""
    offset = np.asarray(offset, dtype=float)
    if offset.shape != (f.dim,):
        raise DimensionError("offset length does not match field dimension")

    def rhs(v):
        return f.rhs(v + offset)

    return VectorField(dim=f.dim, rhs=rhs, params=dict(f.params, offset=offset))


def rk4_step(f, u, dt):
    k1 = f.rhs(u)
    k2 = f.rhs(u + 0.5 * dt * k1)
    k3 = f.rhs(u + 0.5 * dt * k2)
    k4 = f.rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_drive(rhs, x0, h, n_steps, record_every=1, t0=0.0):
    """Classical fixed-step RK4 for x' = rhs(t, x), the one time stepper:
    n_steps steps of size h from (t0, x0), recording the initial state,
    every record_every-th step and the last; returns (times, states).
    Stages combine in rk4_step's order, bit for bit. A NaN or a component
    beyond DIVERGENCE_LIMIT after any step raises DivergenceError."""
    x = np.array(x0, dtype=float)
    steps = [*range(0, n_steps, record_every), n_steps]
    states = np.empty((len(steps), x.size))
    states[0] = x
    half, sixth = 0.5 * h, h / 6.0
    row = 1
    for k in range(n_steps):
        t = t0 + k * h
        k1 = rhs(t, x)
        k2 = rhs(t + half, x + half * k1)
        k3 = rhs(t + half, x + half * k2)
        k4 = rhs(t + h, x + h * k3)
        acc = k1 + 2.0 * k2
        acc += 2.0 * k3
        acc += k4
        acc *= sixth
        x += acc
        if not abs(x).max() <= DIVERGENCE_LIMIT:
            raise DivergenceError(f"state diverged at t={t + h:.6g}", t_last=t)
        if k + 1 == steps[row]:
            states[row] = x
            row += 1
    return t0 + h * np.array(steps), states


def integrate(f, u0, t_end, dt, record_every=1):
    """Classical fixed-step RK4 from t=0 to t_end.

    Records every record_every-th step plus the initial and final states;
    raises DivergenceError (with the last valid time) if the state leaves
    the finite range.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    u = np.asarray(u0, dtype=float)
    if u.shape != (f.dim,):
        raise DimensionError(f"initial state length {u.shape} does not match dim {f.dim}")
    n_steps = int(round(t_end / dt))
    return Trajectory(*rk4_drive(lambda t, x: f.rhs(x), u, dt, n_steps, record_every))


def advance(f, u0, t_span, dt):
    """Endpoint state only (spin-up helper; nothing recorded)."""
    n_steps = int(round(t_span / dt))
    return rk4_drive(lambda t, x: f.rhs(x), u0, dt, n_steps, max(n_steps, 1))[1][-1]

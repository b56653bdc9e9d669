"""Vector fields and fixed-step time integration."""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionError, DivergenceError

DIVERGENCE_LIMIT = 1e8


@dataclass(frozen=True)
class VectorField:
    """Autonomous ODE right-hand side u' = rhs(u) on R^dim; rhs takes and
    returns arrays. Every field is first stepped on float lists (see
    drive_field): an rhs that also maps a list to a list of floats runs
    there, any other is stepped on arrays."""

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
        if not np.all(np.diff(t) > 0):
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
        is_list = type(u) is list
        x, y, z = u if is_list else u.tolist()
        du = [
            sigma * (y - x),
            x * (rho - z) - y,
            x * y - beta * z,
        ]
        return du if is_list else np.array(du)

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
    shift = offset.tolist()

    def rhs(v):
        if type(v) is list:
            return f.rhs([a + b for a, b in zip(v, shift)])
        return f.rhs(v + offset)

    return VectorField(dim=f.dim, rhs=rhs, params=dict(f.params, offset=offset))


def rk4_step(f, u, dt):
    k1 = f.rhs(u)
    k2 = f.rhs(u + 0.5 * dt * k1)
    k3 = f.rhs(u + 0.5 * dt * k2)
    k4 = f.rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# The two kernel sets rk4_drive steps with: x + a k, the four-stage combine
# x + (((k1 + 2 k2) + 2 k3) + k4) h/6, and the divergence test (false for a
# NaN, an infinity or a component beyond DIVERGENCE_LIMIT). Elementwise IEEE
# arithmetic in the same order, so both give the same bits.


def _array_axpy(x, a, k):
    return x + a * k


def _array_combine(x, sixth, k1, k2, k3, k4):
    acc = k1 + 2.0 * k2
    acc += 2.0 * k3
    acc += k4
    acc *= sixth
    x += acc
    return x


def _array_bounded(x):
    return abs(x).max() <= DIVERGENCE_LIMIT


def _list_axpy(x, a, k):
    return [xi + a * ki for xi, ki in zip(x, k, strict=True)]


def _list_combine(x, sixth, k1, k2, k3, k4):
    return [xi + (((a + 2.0 * b) + 2.0 * c) + d) * sixth
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4, strict=True)]


def _list_bounded(x):
    # not max(map(abs, x)), which skips a NaN that is not the first item
    return all(abs(v) <= DIVERGENCE_LIMIT for v in x)


def rk4_drive(rhs, x0, h, n_steps, record_every=1, t0=0.0):
    """Classical fixed-step RK4 for x' = rhs(t, x), the one time stepper:
    n_steps steps of size h from (t0, x0), recording the initial state,
    every record_every-th step and the last; returns (times, states) as
    arrays. A list x0 steps on Python float lists (rhs then takes and
    returns lists), anything else on numpy arrays; both combine the stages
    in rk4_step's order, bit for bit. A NaN or a component beyond
    DIVERGENCE_LIMIT after any step raises DivergenceError."""
    if type(x0) is list:
        x = [float(v) for v in x0]
        axpy, combine, bounded = _list_axpy, _list_combine, _list_bounded
    else:
        x = np.array(x0, dtype=float)
        axpy, combine, bounded = _array_axpy, _array_combine, _array_bounded
    steps = [*range(0, n_steps, record_every), n_steps]
    states = np.empty((len(steps), len(x)))
    states[0] = x
    half, sixth = 0.5 * h, h / 6.0
    row = 1
    for k in range(n_steps):
        t = t0 + k * h
        k1 = rhs(t, x)
        k2 = rhs(t + half, axpy(x, half, k1))
        k3 = rhs(t + half, axpy(x, half, k2))
        k4 = rhs(t + h, axpy(x, h, k3))
        x = combine(x, sixth, k1, k2, k3, k4)
        if not bounded(x):
            raise DivergenceError(f"state diverged at t={t + h:.6g}", t_last=t)
        if k + 1 == steps[row]:
            states[row] = x
            row += 1
    return t0 + h * np.array(steps), states


# What array code raises when handed a list (-u, u.dot, u[index_array]),
# what the list kernels' strict zips raise for a list of the wrong length
# (u + u), and what _list_result raises for a result that is no list (a @ u).
_NOT_ON_LISTS = (TypeError, AttributeError, ValueError)


def _list_result(r):
    """r, the value of an rhs handed a list, if it is a list, else TypeError."""
    if type(r) is not list:
        raise TypeError(f"rhs mapped a list to {type(r).__name__}")
    return r


def drive_field(make_rhs, x0, h, n_steps, record_every=1, t0=0.0):
    """rk4_drive from the array x0 with the step rhs make_rhs(on_lists):
    first on float lists, and if that raises what array code raises on a
    list (or _list_result raises), again on arrays, so an rhs that does
    not map a list to a list gives the array path's result."""
    try:
        return rk4_drive(make_rhs(True), x0.tolist(), h, n_steps, record_every, t0)
    except _NOT_ON_LISTS:
        pass
    return rk4_drive(make_rhs(False), x0, h, n_steps, record_every, t0)


def _start(f, u0, span, dt):
    """u0 as an array of shape (f.dim,) and the number of steps of size dt
    in span."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 <= span < np.inf:
        raise ValueError(f"time span must be finite and nonnegative, got {span}")
    u = np.asarray(u0, dtype=float)
    if u.shape != (f.dim,):
        raise DimensionError(f"initial state length {u.shape} does not match dim {f.dim}")
    return u, int(round(span / dt))


def _field_rhs(f):
    """drive_field's make_rhs for stepping f itself: f.rhs on either path."""

    def on_arrays(t, x):
        return f.rhs(x)

    def on_lists(t, x):
        return _list_result(f.rhs(x))

    return lambda lists: on_lists if lists else on_arrays


def integrate(f, u0, t_end, dt, record_every=1):
    """Classical fixed-step RK4 from t=0 to t_end.

    Records every record_every-th step plus the initial and final states;
    raises DivergenceError (with the last valid time) if the state leaves
    the finite range.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    u, n_steps = _start(f, u0, t_end, dt)
    return Trajectory(*drive_field(_field_rhs(f), u, dt, n_steps, record_every))


def advance(f, u0, t_span, dt):
    """Endpoint state only (spin-up helper; nothing recorded)."""
    u, n_steps = _start(f, u0, t_span, dt)
    return drive_field(_field_rhs(f), u, dt, n_steps, max(n_steps, 1))[1][-1]

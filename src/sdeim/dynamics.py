"""Vector fields and fixed-step time integration."""

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionError, DivergenceError

DIVERGENCE_LIMIT = 1e8


@dataclass(frozen=True)
class VectorField:
    """Autonomous ODE right-hand side u' = rhs(u) on R^dim; rhs takes and
    returns arrays. dim must be an integer >= 1 (a bool is not), else
    DimensionError. When the field is built, rhs is called once, on the
    zero state as a list of floats: on_lists is true if that returns a
    list of dim entries, and the field is then stepped on float lists,
    otherwise on arrays. A TypeError, AttributeError or ValueError from
    that call (what array code raises on a list: -u, u.dot, u[index_array])
    means arrays; any other exception propagates."""

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    on_lists: bool = field(init=False)

    def __post_init__(self):
        linalg.check_count(self.dim, "dim")
        try:
            r = self.rhs([0.0] * self.dim)
        except (TypeError, AttributeError, ValueError):
            r = None
        # the length test rejects u + u, which concatenates two lists
        object.__setattr__(self, "on_lists", type(r) is list and len(r) == self.dim)


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution: times (K,) finite, strictly increasing; states (K, dim) finite."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t, x = linalg._as_record(self.times, self.states, "states")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)


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


def lorenz96(N=40, F=2.0):
    """Cyclic lattice model u_i' = (u_{i+1} - u_{i-2}) u_{i-1} - u_i + F
    with periodic index wrapping on N sites; N must be an integer >= 4."""
    if not isinstance(N, numbers.Integral) or N < 4:
        raise DimensionError(f"lorenz96 needs an integer N >= 4, got {N!r}")
    ip1, im1, im2 = (np.roll(np.arange(N), k) for k in (-1, 1, 2))

    def rhs(u):
        return (u[ip1] - u[im2]) * u[im1] - u + F

    return VectorField(dim=N, rhs=rhs, params={"N": N, "F": F})


def linear_field(matrix):
    """u' = A u for a square matrix A."""
    a = linalg._as_matrix(matrix, "linear field matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionError("linear field needs a square matrix")

    def rhs(u):
        return a @ u

    return VectorField(dim=a.shape[0], rhs=rhs, params={"matrix": a})


def rk4_step(f, u, dt):
    k1 = f.rhs(u)
    k2 = f.rhs(u + 0.5 * dt * k1)
    k3 = f.rhs(u + 0.5 * dt * k2)
    k4 = f.rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_drive(rhs, x0, h, n_steps, record_every=1, t0=0.0):
    """Classical fixed-step RK4 for x' = rhs(t, x), the one time stepper:
    n_steps steps of size h from (t0, x0), recording the initial state,
    every record_every-th step and the last; returns (times, states) as
    arrays. A list x0 steps on Python float lists (rhs then takes and
    returns lists), anything else on numpy arrays. The step is written out
    once per kernel set inside the one loop; both combine the stages in
    rk4_step's order, x + (((k1 + 2 k2) + 2 k3) + k4) h/6, elementwise in
    IEEE arithmetic, so both give the same bits. On lists, the four stage
    results and the state must all have the same length, else
    DimensionError naming the step's time. Callers stepping a VectorField
    pass a list when the field's on_lists is true. A NaN, an infinity or a
    component beyond DIVERGENCE_LIMIT after any step raises
    DivergenceError."""
    on_lists = type(x0) is list
    x = [float(v) for v in x0] if on_lists else np.array(x0, dtype=float)
    steps = [*range(0, n_steps, record_every), n_steps]
    states = np.empty((len(steps), len(x)))
    states[0] = x
    half, sixth = 0.5 * h, h / 6.0
    row = 1
    for k in range(n_steps):
        t = t0 + k * h
        if on_lists:
            k1 = rhs(t, x)
            k2 = rhs(t + half, [a + half * b for a, b in zip(x, k1)])
            k3 = rhs(t + half, [a + half * b for a, b in zip(x, k2)])
            k4 = rhs(t + h, [a + h * b for a, b in zip(x, k3)])
            if not len(k1) == len(k2) == len(k3) == len(k4) == len(x):
                raise DimensionError(f"rhs returned a list of the wrong length "
                                     f"in the step from t={t:.6g}")
            x = [xi + (((a + 2.0 * b) + 2.0 * c) + d) * sixth
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            # not max(map(abs, x)), which skips a NaN that is not the first item
            bounded = all(abs(v) <= DIVERGENCE_LIMIT for v in x)
        else:
            k1 = rhs(t, x)
            k2 = rhs(t + half, x + half * k1)
            k3 = rhs(t + half, x + half * k2)
            k4 = rhs(t + h, x + h * k3)
            acc = k1 + 2.0 * k2
            acc += 2.0 * k3
            acc += k4
            acc *= sixth
            x += acc
            bounded = abs(x).max() <= DIVERGENCE_LIMIT
        if not bounded:
            raise DivergenceError(f"state diverged at t={t + h:.6g}", t_last=t)
        if k + 1 == steps[row]:
            states[row] = x
            row += 1
    return t0 + h * np.array(steps), states


def whole_steps(span, dt):
    """The number of steps of size dt in span, round(span / dt), which must
    be whole to 1e-9 relative: a span of 1.05 at dt = 0.1, or a nonzero
    span shorter than half a step, is a ValueError, not a rounded count.
    dt must be positive and finite, span finite and nonnegative."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 <= span < np.inf:
        raise ValueError(f"time span must be finite and nonnegative, got {span}")
    ratio = span / dt
    n = int(round(ratio))
    if abs(ratio - n) > 1e-9 * n:
        raise ValueError(f"time span {span} is not a whole number of steps dt={dt}")
    return n


def _start(f, u0, span, dt):
    """u0 as rk4_drive steps f (a float list if f.on_lists, else an array
    of shape (f.dim,)) and whole_steps(span, dt)."""
    n_steps = whole_steps(span, dt)
    u = linalg.check_shape(u0, (f.dim,), "initial state")
    return (u.tolist() if f.on_lists else u), n_steps


def integrate(f, u0, t_end, dt, record_every=1):
    """Classical fixed-step RK4 from t=0 to t_end, a whole number of
    steps dt (whole_steps).

    Records every record_every-th step (an integer >= 1, else
    DimensionError) plus the initial and final states; raises
    DivergenceError (with the last valid time) if the state leaves the
    finite range.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    linalg.check_count(record_every, "record_every")
    u, n_steps = _start(f, u0, t_end, dt)
    return Trajectory(*rk4_drive(lambda t, x: f.rhs(x), u, dt, n_steps, record_every))


def advance(f, u0, t_span, dt):
    """Endpoint state after t_span, a whole number of steps dt
    (whole_steps); spin-up helper, nothing recorded."""
    u, n_steps = _start(f, u0, t_span, dt)
    return rk4_drive(lambda t, x: f.rhs(x), u, dt, n_steps, max(n_steps, 1))[1][-1]

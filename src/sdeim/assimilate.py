"""Kernel-ODE data assimilation driven by observational time series.

The reconstruction u~(xi) = Phi (S^T Phi)^+ y(t) + Phi Z xi is pinned to
the observations at the sensors; the free kernel coordinates xi evolve so
the reconstruction tracks the governing equations as closely as the
observed subspace allows:

    xi' = Z^T Phi^T f(u~(xi)).

This is the instantaneous least-squares fit of the reconstruction's time
derivative to the vector field; the observation derivative drops out of
the minimizer because the range of (S^T Phi)^+ is orthogonal to the
kernel, so noisy y(t) is never differentiated.
"""

from bisect import bisect_right
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from . import linalg
from .dynamics import Trajectory, rk4_drive, whole_steps
from .errors import DimensionError, ObservationRangeError
from .reconstruct import _check_xi, sdeim, vanilla_deim
from .sensing import ObservationSeries

# Leading share of an error series treated as the assimilation transient.
TRANSIENT_FRACTION = 0.25

# RK4 substeps per observation interval in das_deim's default step.
KERNEL_SUBSTEPS = 20


class _FloatSeries(NamedTuple):
    """An observation series held as float lists (das_deim's float path)."""

    times: list
    samples: list


def interpolate_obs(series, t):
    """Piecewise-linear interpolation of the samples; exact at sample
    points, no extrapolation. A series of float lists gives a list, with
    the same bracketing index, weight and bits as the arrays give."""
    times, samples = series.times, series.samples
    if not times[0] <= t <= times[-1]:
        raise ObservationRangeError(
            f"t={t} outside observation window [{times[0]}, {times[-1]}]"
        )
    on_lists = type(times) is list
    j = (bisect_right(times, t) if on_lists else times.searchsorted(t, side="right")) - 1
    if j >= len(times) - 1:
        return samples[-1].copy()
    lam = (t - times[j]) / (times[j + 1] - times[j])
    y0, y1 = samples[j], samples[j + 1]
    if on_lists:
        return [a + lam * (b - a) for a, b in zip(y0, y1)]
    return y0 + lam * (y1 - y0)


def kernel_rhs(core, f, series, t, xi):
    """Kernel ODE right-hand side Z^T Phi^T f(u~(xi)) at time t: the
    pointwise reference that tests check das_deim's own right-hand side
    (_kernel_ode, one per kernel set) and a brute-force minimizer against."""
    if core.kernel_dim == 0:
        raise DimensionError("kernel ODE needs m > n (nonempty kernel)")
    xi = _check_xi(core, xi, ())
    pz = core.kernel_lift
    return f.rhs(core.lift.dot(interpolate_obs(series, t)) + pz.dot(xi)).dot(pz)


@dataclass(frozen=True)
class AssimilationRun:
    """Kernel path and reconstruction recorded at the observation times."""

    xi_path: np.ndarray
    reconstruction: Trajectory


def _kernel_ode(rhs, lifted, pz, offset, on_lists):
    """The kernel ODE's right-hand side: the lifted series interpolated at
    the stage time (the last stage may overshoot the last sample time by
    rounding, so it is clamped there), plus PZ xi, plus the offset, through
    rhs and projected onto PZ's columns. On float lists the two products
    are Python sums over PZ's rows and columns."""
    t_end = float(lifted.times[-1])
    if not on_lists:
        def kernel_ode(t, xi):
            return rhs(interpolate_obs(lifted, t_end if t > t_end else t) + pz.dot(xi) + offset).dot(pz)

        return kernel_ode
    lifted = _FloatSeries(lifted.times.tolist(), lifted.samples.tolist())
    pz_rows, pz_cols, shift = pz.tolist(), pz.T.tolist(), offset.tolist()

    def kernel_ode(t, xi):
        u = interpolate_obs(lifted, t_end if t > t_end else t)
        r = rhs([a + sum(map(mul, row, xi)) + s for a, row, s in zip(u, pz_rows, shift)])
        return [sum(map(mul, r, col)) for col in pz_cols]

    return kernel_ode


def das_deim(core, f, series, xi0=None, dt=None, offset=None):
    """Assimilate an observation series by integrating the kernel ODE.

    Fixed-step RK4 with step dt (default spacing / KERNEL_SUBSTEPS); the
    observation spacing must be a whole number of steps dt (whole_steps).
    The samples are lifted to full states once (u~ is affine in y) and the
    lifted series is interpolated at stage times; at observation times it
    is the recorded sample itself, so clean runs keep the interpolation
    property along the whole path.

    offset (zero when None; a finite vector of length core.dim, else
    DimensionError) is the point the core's coordinates are taken about,
    such as the training mean of a centred basis: f is evaluated at
    offset + u~(xi), and the reconstruction is offset + sdeim of the
    samples and the kernel path.

    The kernel path is stepped by dynamics.rk4_drive on float lists if
    f.on_lists, otherwise on arrays; f.rhs is called once a stage. Every
    stage calls interpolate_obs on the lifted series, held as float lists
    on the float path, so both paths take the same stage inputs; they
    differ only in how the PZ products round (~1e-16 relative in xi).
    """
    spacing = series.dt
    if dt is None:
        dt = spacing / KERNEL_SUBSTEPS
    n_sub = whole_steps(spacing, dt)
    xi0 = _check_xi(core, xi0, ())
    offset = np.zeros(core.dim) if offset is None else linalg.check_shape(
        offset, (core.dim,), "offset")
    if not np.isfinite(offset).all():
        raise DimensionError("offset must be finite")
    times = series.times
    lifted = ObservationSeries(times, vanilla_deim(core, series.samples))
    if core.kernel_dim == 0:
        xi_path = np.zeros((times.size, 0))
    else:
        ode = _kernel_ode(f.rhs, lifted, core.kernel_lift, offset, f.on_lists)
        x0 = xi0.tolist() if f.on_lists else xi0
        _, xi_path = rk4_drive(ode, x0, spacing / n_sub, (times.size - 1) * n_sub, n_sub,
                               float(times[0]))
    return AssimilationRun(
        xi_path=xi_path,
        reconstruction=Trajectory(times.copy(), offset + sdeim(core, series.samples, xi_path)),
    )


def relative_error_series(rec, truth):
    """e(t_k) = ||u~(t_k) - u(t_k)|| / ||u(t_k)|| between two trajectories
    on a shared time grid; zero-norm truth samples yield NaN (excluded
    from means)."""
    if rec.states.shape != truth.states.shape or not np.allclose(
        rec.times, truth.times, rtol=0.0, atol=1e-9
    ):
        raise DimensionError("reconstruction and truth grids do not match")
    diff = np.linalg.norm(rec.states - truth.states, axis=1)
    denom = np.linalg.norm(truth.states, axis=1)
    out = np.full(diff.shape, np.nan)
    ok = denom > 0
    out[ok] = diff[ok] / denom[ok]
    return out


def post_transient(errors):
    """The series past its leading transient: the first TRANSIENT_FRACTION is cut."""
    errors = np.asarray(errors, dtype=float)
    return errors[int(len(errors) * TRANSIENT_FRACTION):]


def post_transient_mean(errors):
    """Mean over the post-transient tail, skipping NaN-flagged samples."""
    return float(np.nanmean(post_transient(errors)))


def _check_projection(a, p):
    """A and P as float arrays, A square and P an orthogonal projection of
    the same shape."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or p.shape != a.shape:
        raise DimensionError("need square A and P of equal shape")
    if np.linalg.norm(p @ p - p) > 1e-10 or np.linalg.norm(p - p.T) > 1e-10:
        raise ValueError("P is not an orthogonal projection")
    return a, p


def one_sided_lipschitz_linear(a, p):
    """Tight one-sided Lipschitz constant of g(u) = P A u over all of R^N:
    the largest eigenvalue of (P A + A^T P) / 2. P must be an orthogonal
    projection."""
    a, p = _check_projection(a, p)
    sym = 0.5 * (p @ a + a.T @ p)
    return float(np.linalg.eigvalsh(sym)[-1])


def contraction_rate_on_range(a, p):
    """One-sided constant of g = P A restricted to R[P], the invariant
    subspace of the assimilation error. This is the rate that governs the
    error decay; the unrestricted constant is never negative for a
    singular projection (differences in N[P] make the quotient zero)."""
    a, p = _check_projection(a, p)
    evals, evecs = np.linalg.eigh(p)
    w = evecs[:, evals > 0.5]
    if w.shape[1] == 0:
        return 0.0
    sym = 0.5 * (p @ a + a.T @ p)
    return float(np.linalg.eigvalsh(w.T @ sym @ w)[-1])

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Trajectory, rk4_drive
from .errors import DimensionError, ObservationRangeError
from .sensing import ObservationSeries


def interpolate_obs(series, t):
    """Piecewise-linear interpolation of the samples; exact at sample
    points, no extrapolation."""
    times = series.times
    if t < times[0] or t > times[-1]:
        raise ObservationRangeError(
            f"t={t} outside observation window [{times[0]}, {times[-1]}]"
        )
    j = times.searchsorted(t, side="right") - 1
    if j >= times.size - 1:
        return series.samples[-1].copy()
    lam = (t - times[j]) / (times[j + 1] - times[j])
    y0 = series.samples[j]
    return y0 + lam * (series.samples[j + 1] - y0)


def _affine_parts(core):
    """u~(xi) = L y + (Phi Z) xi as (L, Phi Z): L = Phi (S^T Phi)^+ lifts
    observations to full states; Z^T Phi^T is (Phi Z)^T."""
    phi = core.basis.phi
    return phi @ core.s_phi_pinv, phi @ core.kernel_matrix


def kernel_rhs(core, f, series, t, xi):
    """Kernel ODE right-hand side Z^T Phi^T f(u~(xi)) at time t."""
    if core.kernel_dim == 0:
        raise DimensionError("kernel ODE needs m > n (nonempty kernel)")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (core.kernel_dim,):
        raise DimensionError(f"xi length {xi.shape} does not match kernel dim {core.kernel_dim}")
    lift, pz = _affine_parts(core)
    return f.rhs(lift.dot(interpolate_obs(series, t)) + pz.dot(xi)).dot(pz)


@dataclass(frozen=True)
class AssimilationRun:
    """Kernel path and reconstruction recorded at the observation times."""

    times: np.ndarray
    xi_path: np.ndarray
    reconstruction: Trajectory
    error_series: Optional[np.ndarray] = None


def das_deim(core, f, series, xi0=None, dt=None):
    """Assimilate an observation series by integrating the kernel ODE.

    Fixed-step RK4 with step dt (must divide the observation spacing);
    default dt = spacing / 20. The samples are lifted to full states once
    (u~ is affine in y) and the lifted series is interpolated at stage
    times; at observation times it is the recorded sample itself, so clean
    runs keep the interpolation property along the whole path.
    """
    spacing = series.dt
    if dt is None:
        dt = spacing / 20.0
    n_sub = int(round(spacing / dt))
    if n_sub < 1 or abs(n_sub * dt - spacing) > 1e-9 * spacing:
        raise ValueError(f"dt={dt} does not divide the observation spacing {spacing}")
    k_dim = core.kernel_dim
    xi0 = np.zeros(k_dim) if xi0 is None else np.asarray(xi0, dtype=float)
    if xi0.shape != (k_dim,):
        raise DimensionError(f"xi0 length {xi0.shape} does not match kernel dim {k_dim}")
    times = series.times
    lift, pz = _affine_parts(core)
    lifted = ObservationSeries(times, series.samples @ lift.T)
    if k_dim == 0:
        xi_path = np.zeros((times.size, 0))
    else:
        rhs, t_end, n_steps = f.rhs, float(times[-1]), (times.size - 1) * n_sub

        def kernel_ode(t, xi):
            # the last stage may overshoot t_end by rounding
            return rhs(interpolate_obs(lifted, min(t, t_end)) + pz.dot(xi)).dot(pz)

        _, xi_path = rk4_drive(kernel_ode, xi0, spacing / n_sub, n_steps, n_sub, times[0])
    return AssimilationRun(
        times=times.copy(),
        xi_path=xi_path,
        reconstruction=Trajectory(times.copy(), lifted.samples + xi_path @ pz.T),
    )


def relative_error_series(run, truth):
    """e(t_k) = ||u~(t_k) - u(t_k)|| / ||u(t_k)|| on a shared time grid;
    zero-norm truth samples yield NaN (excluded from means)."""
    rec = run.reconstruction if isinstance(run, AssimilationRun) else run
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


def post_transient_mean(errors, discard_fraction=0.25):
    """Mean over the tail of the series, skipping the leading transient
    (and NaN-flagged samples)."""
    errors = np.asarray(errors, dtype=float)
    cut = int(len(errors) * discard_fraction)
    return float(np.nanmean(errors[cut:]))


def one_sided_lipschitz_linear(a, p):
    """Tight one-sided Lipschitz constant of g(u) = P A u over all of R^N:
    the largest eigenvalue of (P A + A^T P) / 2. P must be an orthogonal
    projection."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    if a.shape[0] != a.shape[1] or p.shape != a.shape:
        raise DimensionError("need square A and P of equal shape")
    if np.linalg.norm(p @ p - p) > 1e-10 or np.linalg.norm(p - p.T) > 1e-10:
        raise ValueError("P is not an orthogonal projection")
    sym = 0.5 * (p @ a + a.T @ p)
    return float(np.linalg.eigvalsh(sym)[-1])


def contraction_rate_on_range(a, p):
    """One-sided constant of g = P A restricted to R[P], the invariant
    subspace of the assimilation error. This is the rate that governs the
    error decay; the unrestricted constant is never negative for a
    singular projection (differences in N[P] make the quotient zero)."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.linalg.norm(p @ p - p) > 1e-10 or np.linalg.norm(p - p.T) > 1e-10:
        raise ValueError("P is not an orthogonal projection")
    evals, evecs = np.linalg.eigh(p)
    w = evecs[:, evals > 0.5]
    if w.shape[1] == 0:
        return 0.0
    sym = 0.5 * (p @ a + a.T @ p)
    return float(np.linalg.eigvalsh(w.T @ sym @ w)[-1])

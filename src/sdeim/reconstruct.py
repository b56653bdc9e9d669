"""State reconstruction from pointwise samples.

With n sensors and m modes, the least-squares coefficients solving
min ||S^T Phi c - y||^2 form an affine family c(z) = (S^T Phi)^+ y + z
over kernel vectors z = Z xi in N[S^T Phi], passed around as their
coordinates xi. The minimum-norm member (xi = 0) is the plain
interpolation estimate; a well-chosen kernel vector removes the in-range
error component the sensors cannot see.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError
from .sensing import SensorSelection, build_deim_core, check_full_rank, qdeim_place


def _check_obs(core, y):
    """One observation (n,) or a block of them (K, n); n is read off the
    stored lift (N x n)."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != core.lift.shape[1:] or y.ndim > 2:
        raise DimensionError(
            f"observations of shape {y.shape} are not (n,) or (K, n) with n={core.lift.shape[1]}"
        )
    return y


def _check_xi(core, xi, lead):
    """Kernel coordinates of shape lead + (kernel_dim,); zeros for None."""
    shape = lead + core.kernel_lift.shape[1:]
    if xi is None:
        return np.zeros(shape)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != shape:
        raise DimensionError(f"kernel coordinates of shape {xi.shape} are not {shape}")
    return xi


def _check_state(core, u):
    """The state as one contiguous vector: the products below read it
    twice as fast as a strided view (a column of a snapshot matrix)."""
    u = np.ascontiguousarray(u, dtype=float)
    if u.shape != core.lift.shape[:1]:
        raise DimensionError(f"state length {u.shape} does not match N={core.lift.shape[0]}")
    return u


def vanilla_deim(core, y):
    """Phi (S^T Phi)^+ y: the minimum-norm interpolation estimate, of one
    observation (n,) or row by row of a block (K, n). One BLAS call:
    ndarray.dot, which dispatches faster than the @ gufunc on the same
    routine and gives the same bits."""
    return _check_obs(core, y).dot(core.lift.T)


def sdeim(core, y, xi=None):
    """Phi ((S^T Phi)^+ y + Z xi): interpolation estimate shifted along the
    sampled-basis kernel by the coordinates xi (zero when None), one row
    of xi per row of y. Reproduces y exactly at the sensors for any xi.

    Two products, the second added in place: one product over [L | PZ]
    can round differently, and at xi = 0 this must equal vanilla_deim
    bit for bit."""
    y = _check_obs(core, y)
    rec = y.dot(core.lift.T)
    rec += _check_xi(core, xi, y.shape[:-1]).dot(core.kernel_lift.T)
    return rec


def optimal_kernel(core, u):
    """Kernel coordinates Z^T Phi^T u of the best kernel vector for a known
    full state (oracle: diagnostics and tests only)."""
    return core.kernel_lift.T.dot(_check_state(core, u))


@dataclass(frozen=True)
class ErrorReport:
    """Orthogonal error decomposition and its upper bound.

    total_sq = trunc_sq + oblique_sq + kernel_sq holds to rounding: the
    out-of-range truncation part, the obliquely mapped truncation part,
    and the kernel mismatch are mutually orthogonal.
    """

    total_sq: float
    trunc_sq: float
    oblique_sq: float
    kernel_sq: float
    upper_bound: float


def error_report(core, u, xi=None):
    """Full-state error decomposition of the reconstruction with kernel
    coordinates xi, plus the bound prefactor * E_m(u) + ||z - z_opt||
    for z = Z xi.

    Two passes over Phi: c = Phi^T u, then u_hat and the reconstruction
    from one product Phi [c, coef]. The oblique and kernel parts are
    taken in coefficient space, where Phi is an isometry; the total is
    taken from u - rec directly, so the identity stays a real check.
    """
    u = _check_state(core, u)
    phi = core.basis.phi
    kernel = core.kernel_matrix
    z_coef = kernel @ _check_xi(core, xi, ())
    y = u[core.selection.indices]
    c = phi.T @ u
    coef = core.s_phi_pinv @ y + z_coef
    u_hat, rec = (phi @ np.column_stack([c, coef])).T
    oblique = core.s_phi_pinv @ (y - core.s_phi @ c)
    z_opt = kernel @ (kernel.T @ c)
    trunc = float(np.linalg.norm(u - u_hat))
    kernel_err = float(np.linalg.norm(z_opt - z_coef))
    return ErrorReport(
        total_sq=float(np.linalg.norm(u - rec) ** 2),
        trunc_sq=trunc**2,
        oblique_sq=float(oblique @ oblique),
        kernel_sq=kernel_err**2,
        upper_bound=core.prefactor * trunc + kernel_err,
    )


def prefactor_curve(basis_full, n, m_range, replace_sensors=False):
    """||(S^T Phi_m)^+||_2 = 1 / sigma_min(S^T Phi_m) over mode counts m,
    from the singular values of the n x m sampled rows alone (no DeimCore).

    Sensors are placed once from the smallest-m sub-basis and held fixed
    (nonincreasing values by singular-value interlacing); with
    replace_sensors=True they are re-placed per m instead, which carries
    no monotonicity guarantee.
    """
    m_range = [int(m) for m in m_range]
    if any(m < n for m in m_range):
        raise DimensionError("prefactor curve needs m >= n throughout")
    sel = qdeim_place(basis_full.leading(min(m_range)), n)
    out = []
    for m in m_range:
        if replace_sensors:
            sel = qdeim_place(basis_full.leading(m), n)
        s = np.linalg.svd(basis_full.phi[sel.indices, :m], compute_uv=False)
        check_full_rank((n, m), s)
        out.append((m, float(1.0 / s[-1])))
    return out


def two_stage_sdeim(basis, sel1, sel2, y1, y2):
    """Reconstruct from a first sensor batch, then fit the kernel vector
    to a withheld second batch (minimum-norm fit). Equivalent to the plain
    estimate using all sensors at once. y2 must have shape (sel2.n,), and
    no sensor may be in both batches (DimensionError)."""
    core1 = build_deim_core(basis, sel1)
    y1 = np.asarray(y1, dtype=float)
    if y1.shape != (sel1.n,):
        raise DimensionError("first observation batch length mismatch")
    y2 = np.asarray(y2, dtype=float)
    if y2.shape != (sel2.n,):
        raise DimensionError("second observation batch length mismatch")
    combined = SensorSelection(basis.dim, np.concatenate([sel1.indices, sel2.indices]))
    s_union = basis.phi[combined.indices, :]
    check_full_rank(s_union.shape, np.linalg.svd(s_union, compute_uv=False))
    s2_phi = basis.phi[sel2.indices, :]
    c0 = core1.s_phi_pinv @ y1
    m_mat = s2_phi @ core1.kernel_matrix
    xi = linalg.pinv(m_mat) @ (y2 - s2_phi @ c0)
    return sdeim(core1, y1, xi)

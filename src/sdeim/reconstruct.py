"""State reconstruction from pointwise samples.

With n sensors and m modes, the least-squares coefficients solving
min ||S^T Phi c - y||^2 form an affine family c(z) = (S^T Phi)^+ y + z
over kernel vectors z in N[S^T Phi]. The minimum-norm member (z = 0) is
the plain interpolation estimate; a well-chosen kernel vector removes the
in-range error component the sensors cannot see.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError
from .pod import truncation_error
from .sensing import SensorSelection, build_deim_core

KERNEL_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class KernelVector:
    """Kernel vector in coordinates: z = Z xi.

    Storing the kernel coordinates xi makes membership in N[S^T Phi]
    automatic; z itself is derived against a core's kernel matrix.
    """

    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    @property
    def dim(self):
        return int(self.xi.size)

    def coefficients(self, core):
        """z in R^m for the given core."""
        if self.dim != core.kernel_dim:
            raise DimensionError(
                f"kernel coordinates of length {self.dim} against kernel of dim {core.kernel_dim}"
            )
        return core.kernel_matrix @ self.xi

    @classmethod
    def zero(cls, core):
        return cls(np.zeros(core.kernel_dim))

    @classmethod
    def from_coefficients(cls, core, z):
        """Validate membership of a raw m-vector z in N[S^T Phi]."""
        z = np.asarray(z, dtype=float)
        if z.shape != (core.n_modes,):
            raise DimensionError(f"z must have length m={core.n_modes}")
        resid = np.linalg.norm(core.s_phi @ z)
        if resid > KERNEL_MEMBERSHIP_TOL * (1.0 + np.linalg.norm(z)):
            raise ValueError(
                f"z is not a kernel vector: ||S^T Phi z|| = {resid:.3e}"
            )
        return cls(core.kernel_matrix.T @ z)


def _kernel_coeffs(core, z):
    """Accept a KernelVector, a raw m-vector (validated), or None."""
    if z is None:
        return np.zeros(core.n_modes)
    if isinstance(z, KernelVector):
        return z.coefficients(core)
    return KernelVector.from_coefficients(core, z).coefficients(core)


def _check_obs(core, y):
    y = np.asarray(y, dtype=float)
    if y.shape != (core.n_sensors,):
        raise DimensionError(f"observation length {y.shape} does not match n={core.n_sensors}")
    return y


def vanilla_deim(core, y):
    """Phi (S^T Phi)^+ y: the minimum-norm interpolation estimate."""
    y = _check_obs(core, y)
    return core.basis.phi @ (core.s_phi_pinv @ y)


def sdeim(core, y, z):
    """Phi ((S^T Phi)^+ y + z): interpolation estimate shifted along the
    sampled-basis kernel. Reproduces y exactly at the sensors for any
    valid z."""
    y = _check_obs(core, y)
    return core.basis.phi @ (core.s_phi_pinv @ y + _kernel_coeffs(core, z))


def optimal_kernel(core, u):
    """Best kernel vector Z Z^T Phi^T u for a known full state (oracle:
    diagnostics and tests only)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (core.dim,):
        raise DimensionError(f"state length {u.shape} does not match N={core.dim}")
    return KernelVector(core.kernel_matrix.T @ (core.basis.phi.T @ u))


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

    def csv_row(self):
        return "{:.17e},{:.17e},{:.17e},{:.17e},{:.17e}".format(
            self.total_sq**0.5,
            self.trunc_sq**0.5,
            self.oblique_sq**0.5,
            self.kernel_sq**0.5,
            self.upper_bound,
        )


def error_report(core, u, z):
    """Full-state error decomposition of the reconstruction with kernel
    vector z, plus the bound prefactor * E_m(u) + ||z - z_opt||."""
    u = np.asarray(u, dtype=float)
    if u.shape != (core.dim,):
        raise DimensionError(f"state length {u.shape} does not match N={core.dim}")
    phi = core.basis.phi
    z_coef = _kernel_coeffs(core, z)
    y = u[core.selection.indices]
    rec = phi @ (core.s_phi_pinv @ y + z_coef)
    u_hat = phi @ (phi.T @ u)
    resid = u - u_hat
    oblique = phi @ (core.s_phi_pinv @ resid[core.selection.indices])
    z_opt = core.kernel_matrix @ (core.kernel_matrix.T @ (phi.T @ u))
    trunc = float(np.linalg.norm(resid))
    kernel_err = float(np.linalg.norm(z_opt - z_coef))
    return ErrorReport(
        total_sq=float(np.linalg.norm(u - rec) ** 2),
        trunc_sq=trunc**2,
        oblique_sq=float(np.linalg.norm(oblique) ** 2),
        kernel_sq=kernel_err**2,
        upper_bound=core.prefactor * trunc + kernel_err,
    )


def prefactor_curve(basis_full, n, m_range, replace_sensors=False):
    """||(S^T Phi_m)^+||_2 over mode counts m.

    Sensors are placed once from the smallest-m sub-basis and held fixed
    (nonincreasing values by singular-value interlacing); with
    replace_sensors=True they are re-placed per m instead, which carries
    no monotonicity guarantee.
    """
    m_range = [int(m) for m in m_range]
    if any(m < n for m in m_range):
        raise DimensionError("prefactor curve needs m >= n throughout")
    from .sensing import qdeim_place

    sel = qdeim_place(basis_full.leading(min(m_range)), n)
    out = []
    for m in m_range:
        sub = basis_full.leading(m)
        if replace_sensors:
            sel = qdeim_place(sub, n)
        core = build_deim_core(sub, sel)
        out.append((m, core.prefactor))
    return out


def two_stage_sdeim(basis, sel1, sel2, y1, y2):
    """Reconstruct from a first sensor batch, then fit the kernel vector
    to a withheld second batch (minimum-norm fit). Equivalent to the plain
    estimate using all sensors at once."""
    if set(sel1.indices.tolist()) & set(sel2.indices.tolist() if sel2 is not None else []):
        raise DimensionError("sensor batches must be disjoint")
    core1 = build_deim_core(basis, sel1)
    y1 = np.asarray(y1, dtype=float)
    if y1.shape != (sel1.n,):
        raise DimensionError("first observation batch length mismatch")
    if sel2 is None or sel2.n == 0 or (y2 is not None and np.asarray(y2).size == 0):
        return vanilla_deim(core1, y1)
    y2 = np.asarray(y2, dtype=float)
    if y2.shape != (sel2.n,):
        raise DimensionError("second observation batch length mismatch")
    combined = SensorSelection(
        basis.dim, np.concatenate([sel1.indices, sel2.indices])
    )
    build_deim_core(basis, combined)  # full-rank assumption on the union
    s2_phi = basis.phi[sel2.indices, :]
    c0 = core1.s_phi_pinv @ y1
    m_mat = s2_phi @ core1.kernel_matrix
    xi = linalg.pinv(m_mat) @ (y2 - s2_phi @ c0)
    return basis.phi @ (c0 + core1.kernel_matrix @ xi)

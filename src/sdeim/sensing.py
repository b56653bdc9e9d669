"""Sensor placement, observation extraction, and noise injection."""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AssumptionError, DimensionError
from .pod import BasisMatrix

UNIFORM_SPACING_TOL = 1e-12


@dataclass(frozen=True)
class SensorSelection:
    """Ordered distinct row indices into a length-N state vector; stands in
    for the selection matrix S (columns of the identity)."""

    n_state: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size < 1:
            raise DimensionError("need at least one sensor index")
        if not np.issubdtype(idx.dtype, np.integer):  # bool is not an integer dtype
            raise DimensionError(f"sensor indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(int, copy=False)
        if idx.size > self.n_state:
            raise DimensionError("more sensors than state components")
        if np.any(idx < 0) or np.any(idx >= self.n_state):
            raise DimensionError(f"indices must lie in 0..{self.n_state - 1}")
        if len(set(idx.tolist())) != idx.size:
            raise DimensionError("sensor indices must be distinct")
        object.__setattr__(self, "indices", idx)

    @property
    def n(self):
        return int(self.indices.size)


@dataclass(frozen=True)
class ObservationSeries:
    """Uniformly spaced sensor samples: times (K,) finite, strictly increasing; samples (K, n) finite."""

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t, y = linalg._as_record(self.times, self.samples, "samples")
        if t.size < 2:
            raise DimensionError("need at least two samples")
        if np.ptp(np.diff(t)) > UNIFORM_SPACING_TOL * max(1.0, abs(t[-1])):
            raise DimensionError("observation spacing must be uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "samples", y)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])


def qdeim_place(basis, n):
    """Sensor placement from the column-pivot order of Phi^T: the first n
    pivots, from n pivoting steps and no Q (DimensionError unless
    1 <= n <= m, the basis's mode count). Deterministic given the basis
    (ties resolve to lowest index)."""
    linalg.check_count(n, "n")
    if n > basis.n_modes:
        raise DimensionError(f"n={n} sensors exceed the basis's n_modes={basis.n_modes}")
    return SensorSelection(basis.dim, linalg.column_pivots(basis.phi.T, n))


def observe(u, sel):
    """y = S^T u: pick the sensed components, as a fresh array (fancy
    indexing copies, so y shares no memory with u)."""
    return linalg.check_shape(u, (sel.n_state,), "state")[sel.indices]


def observe_trajectory(times, states, sel):
    """Sample a trajectory, states (K, N) with N = sel.n_state, at the
    sensor indices into an ObservationSeries."""
    states = np.asarray(states, dtype=float)
    if states.shape[1:] != (sel.n_state,):
        raise DimensionError(f"state length {states.shape[1:]} does not match N={sel.n_state}")
    return ObservationSeries(np.asarray(times, dtype=float), states[:, sel.indices])


def add_noise(series, std_dev, seed):
    """Independent N(0, std_dev) draws on every sample entry (ValueError
    unless std_dev is finite and nonnegative); the seeded generator makes
    equal seeds produce bit-identical output."""
    if not np.isfinite(std_dev) or std_dev < 0:
        raise ValueError("std_dev must be finite and nonnegative")
    if std_dev == 0.0:
        return ObservationSeries(series.times.copy(), series.samples.copy())
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, std_dev, size=series.samples.shape)
    return ObservationSeries(series.times.copy(), series.samples + noise)


@dataclass(frozen=True)
class DeimCore:
    """Everything reconstruction needs for one (basis, sensors) pair, built
    from one full SVD of s_phi = S^T Phi (n x m).

    s_phi_pinv is its pseudoinverse, kernel_matrix Z an orthonormal basis
    of N[S^T Phi] (m x (m-n) when n < m), and prefactor = 1 / sigma_min =
    ||(S^T Phi)^+||_2, the error-bound constant. Every estimate is affine
    in the samples and the kernel coordinates, u~ = lift @ y + kernel_lift
    @ xi, so the two N-row operators are stored: lift = Phi (S^T Phi)^+
    (N x n) and kernel_lift = Phi Z (N x (m-n)), both column-major, which
    makes the per-state products stream down contiguous columns.
    """

    basis: BasisMatrix
    selection: SensorSelection
    s_phi: np.ndarray
    s_phi_pinv: np.ndarray
    kernel_matrix: np.ndarray
    prefactor: float
    lift: np.ndarray
    kernel_lift: np.ndarray

    @property
    def dim(self):
        return self.basis.dim

    @property
    def n_modes(self):
        return self.basis.n_modes

    @property
    def n_sensors(self):
        return self.selection.n

    @property
    def kernel_dim(self):
        return self.kernel_matrix.shape[1]


def check_full_rank(shape, s):
    """The rank decision on S^T Phi of this shape from its descending
    singular values s; raises AssumptionError when it is rank deficient
    (the full-rank sampling assumption). Returns the rank, min(n, m)."""
    rank = linalg.numerical_rank(shape, s)
    if rank != min(shape):
        raise AssumptionError(
            f"rank(S^T Phi) = {rank} < min(n, m) = {min(shape)}: sampled basis is rank deficient"
        )
    return rank


def build_deim_core(basis, sel):
    """Factor S^T Phi with one SVD and one rank decision (check_full_rank)."""
    if sel.n_state != basis.dim:
        raise DimensionError("selection and basis dimension mismatch")
    phi = basis.phi
    s_phi = phi[sel.indices, :]
    n = s_phi.shape[0]
    u, s, vt = np.linalg.svd(s_phi, full_matrices=True)
    rank = check_full_rank(s_phi.shape, s)
    s_phi_pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    kernel = vt[rank:].T.copy()
    # one pass over Phi for both operators; the transposed product comes
    # out column-major, and column blocks of it stay column-major
    lifts = (np.hstack([s_phi_pinv, kernel]).T @ phi.T).T
    return DeimCore(
        basis=basis,
        selection=sel,
        s_phi=s_phi,
        s_phi_pinv=s_phi_pinv,
        kernel_matrix=kernel,
        prefactor=float(1.0 / s[rank - 1]),
        lift=lifts[:, :n],
        kernel_lift=lifts[:, n:],
    )

"""Orthonormal basis extraction from snapshot data."""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import RankError

ORTHONORMALITY_TOL = 1e-10

# _tall_r hands numpy's QR blocks of at most this many entries (8 MiB of
# float64), or of 2 K rows when K is too wide for that, so that each level
# at least halves the rows.
QR_BLOCK_ENTRIES = 2**20


@dataclass(frozen=True)
class BasisMatrix:
    """Orthonormal N x m basis with the full singular spectrum of the data
    it came from."""

    phi: np.ndarray
    singular_values: np.ndarray = field(default=None)

    def __post_init__(self):
        phi = linalg._as_matrix(self.phi, "phi")
        object.__setattr__(self, "phi", phi)
        gram_err = np.linalg.norm(phi.T @ phi - np.eye(phi.shape[1]))
        if gram_err > ORTHONORMALITY_TOL:
            raise ValueError(f"basis columns not orthonormal (||Phi^T Phi - I||_F = {gram_err:.3e})")
        sv = self.singular_values
        if sv is None:
            sv = np.ones(phi.shape[1])
        sv = np.asarray(sv, dtype=float)
        if np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be nonincreasing")
        object.__setattr__(self, "singular_values", sv)

    @property
    def dim(self):
        return self.phi.shape[0]

    @property
    def n_modes(self):
        return self.phi.shape[1]

    def leading(self, m):
        """Sub-basis of the first m modes (same spectrum); m must be an
        integer >= 1 (DimensionError) and at most n_modes (RankError)."""
        linalg.check_count(m, "m")
        if m > self.n_modes:
            raise RankError(f"m={m} outside 1..{self.n_modes}")
        return BasisMatrix(self.phi[:, :m].copy(), self.singular_values)


def _tall_r(x):
    """R factor of the tall orientation t of x (x^T when N <= K, else x):
    a square of order min(N, K) with the singular values of x, from
    Householder QRs that form no Q.

    Blocks have max(QR_BLOCK_ENTRIES // K, 2 K) rows. A t of at most one
    block (every t of at most QR_BLOCK_ENTRIES entries) is factored whole.
    A taller one is factored block by block; the stacked R factors have
    the same R^T R as t, and the stack is factored the same way (TSQR).
    Each level at least halves the rows, and numpy's QR copies only the
    block it factors, so at no time is there a second copy of t.
    """
    t = x.T if x.shape[0] <= x.shape[1] else x
    step = max(QR_BLOCK_ENTRIES // t.shape[1], 2 * t.shape[1])
    while t.shape[0] > step:
        t = np.vstack([np.linalg.qr(t[i:i + step], mode="r") for i in range(0, t.shape[0], step)])
    return np.linalg.qr(t, mode="r")


def compute_pod(snapshots, m):
    """Leading m left singular vectors of the N x K snapshot matrix (one
    state per column), as given (no mean subtraction). singular_values
    carries the full spectrum. m must be an integer >= 1 (DimensionError)
    and at most the numerical rank of x (RankError, naming the rank).

    Only the small R factor of the tall orientation (_tall_r, in row
    blocks when that orientation exceeds QR_BLOCK_ENTRIES) is decomposed,
    so no N x K singular-vector matrix is formed. Wide x (N <= K) is
    R^T Q^T, so the left singular vectors of the N x N R^T are those of x.
    Tall x is Q R, so the left singular vectors V of the K x K R^T are the
    right ones of x, and Phi is the thin-QR orthonormalisation of
    x V[:, :m] (signs fixed so its R has a positive diagonal): orthonormal
    to rounding even when sigma_m is near the rank tolerance, where
    x V / sigma would not be. Mode signs are defined up to +-1.
    """
    x = linalg._as_matrix(snapshots, "snapshots")
    linalg.check_count(m, "m")
    u, s, _ = np.linalg.svd(_tall_r(x).T)
    rank = linalg.numerical_rank(x.shape, s)
    if m > rank:
        raise RankError(f"m={m} exceeds the numerical rank {rank} of the snapshot matrix")
    if x.shape[0] <= x.shape[1]:
        return BasisMatrix(u[:, :m].copy(), s)
    phi, r_m = np.linalg.qr(x @ u[:, :m])
    phi[:, np.diag(r_m) < 0] *= -1.0
    return BasisMatrix(phi, s)


def truncation_error(u, basis):
    """|| u - Phi Phi^T u ||_2, the best-in-range approximation error."""
    u = linalg.check_shape(u, (basis.dim,), "state")
    phi = basis.phi
    return float(np.linalg.norm(u - phi @ (phi.T @ u)))

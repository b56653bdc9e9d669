"""Dense linear-algebra primitives with explicit contracts.

Matrices are plain float ndarrays. Factorizations that admit a vetted
LAPACK route (SVD and everything derived from it) use numpy; the
column-pivoted QR is hand-rolled so that the greedy pivot order and its
tie-breaking are fully specified.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# Trailing-norm ratios within TIE_RTOL of the running maximum count as a
# tie; the lowest original column index wins. Exact float ties never occur
# on measured data, so a strict comparison would make the documented
# tie-break unreachable.
TIE_RTOL = 1e-8


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError(f"{name} is empty (shape {a.shape})")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def default_rank_tol(shape, s0):
    """Standard numerical-rank threshold: max(rows, cols) * eps * s_max."""
    return max(shape) * np.finfo(float).eps * s0


@dataclass(frozen=True)
class PivotedQR:
    """Column-pivoted QR: A[:, perm] = q @ r with orthonormal q columns,
    upper-triangular r, and |r[k, k]| nonincreasing."""

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def qr_column_pivot(a):
    """Householder QR with greedy column pivoting.

    At step k the remaining column with the largest trailing Euclidean
    norm is moved to position k; near-ties (within TIE_RTOL relative)
    resolve to the lowest original column index.
    """
    a = _as_matrix(a, "qr input")
    rows, cols = a.shape
    k_max = min(rows, cols)
    r = a.copy()
    q = np.eye(rows)
    perm = np.arange(cols)
    for k in range(k_max):
        norms = np.linalg.norm(r[k:, k:], axis=0)
        best = norms.max()
        if best == 0.0:
            break
        j = k + int(np.argmax(norms >= best * (1.0 - TIE_RTOL)))
        if j != k:
            r[:, [k, j]] = r[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        x = r[k:, k]
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(nx, x[0]) if x[0] != 0 else nx
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        r[k:, :] -= 2.0 * np.outer(v, v @ r[k:, :])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ v, v)
    r_thin = np.triu(r[:k_max, :])
    # sign convention: nonnegative diagonal of R
    flip = np.diag(r_thin) < 0
    r_thin[flip, :] *= -1.0
    q_thin = q[:, :k_max].copy()
    q_thin[:, flip] *= -1.0
    return PivotedQR(q=q_thin, r=r_thin, perm=perm)


def svd_thin(a):
    """Thin SVD: a = u @ diag(s) @ v.T with s descending."""
    a = _as_matrix(a, "svd input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T


def pinv(a, rank_tol=None):
    """Moore-Penrose pseudoinverse; singular values below rank_tol are
    treated as exactly zero."""
    a = _as_matrix(a, "pinv input")
    u, s, v = svd_thin(a)
    if rank_tol is None:
        rank_tol = default_rank_tol(a.shape, s[0] if s.size else 0.0)
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    inv = np.where(s > rank_tol, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (v * inv) @ u.T


def matrix_rank(a, rank_tol=None):
    a = _as_matrix(a, "rank input")
    s = np.linalg.svd(a, compute_uv=False)
    if rank_tol is None:
        rank_tol = default_rank_tol(a.shape, s[0] if s.size else 0.0)
    return int(np.sum(s > rank_tol))


def nullspace_orthonormal(a, rank_tol=None):
    """Orthonormal basis of the null space; shape (cols, cols - rank)."""
    a = _as_matrix(a, "nullspace input")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    if rank_tol is None:
        rank_tol = default_rank_tol(a.shape, s[0] if s.size else 0.0)
    rank = int(np.sum(s > rank_tol))
    return vt[rank:].T.copy()


def spectral_norm(a):
    """Largest singular value."""
    a = _as_matrix(a, "spectral_norm input")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def save_matrix_csv(path, a):
    """One matrix row per line, comma-separated; %.17e round-trips float64
    exactly."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    np.savetxt(path, a, fmt="%.17e", delimiter=",")


def load_matrix_csv(path):
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return a

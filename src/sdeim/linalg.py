"""Dense linear-algebra primitives with explicit contracts.

Matrices are plain float ndarrays. Every factorization is numpy's
LAPACK route; only the greedy column-pivot order is hand-rolled, so that
it and its tie-breaking are fully specified.
"""

import numbers
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


def check_count(v, name):
    """The one rule for counts (modes, sensors, dimensions, strides): a
    DimensionError naming `name` unless v is an integer >= 1 (a bool is
    not)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
        raise DimensionError(f"{name} must be an integer >= 1, got {v!r}")


def check_shape(a, shape, name):
    """The one rule for fixed-shape inputs: a as a float array, or a
    DimensionError naming `name` unless its shape is exactly `shape`."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise DimensionError(f"{name}: shape {a.shape} is not {shape}")
    return a


def _as_record(times, values, name):
    """A time record as float arrays: values a finite K-row matrix, times
    (K,) finite and strictly increasing."""
    x = _as_matrix(np.atleast_2d(values), name)
    t = np.asarray(times, dtype=float)
    if t.shape != (x.shape[0],):
        raise DimensionError(f"times of shape {t.shape} do not match {x.shape[0]} rows")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise DimensionError("times must be finite and strictly increasing")
    return t, x


def numerical_rank(shape, s):
    """Rank of a matrix of this shape from its descending singular values s:
    the count above max(rows, cols) * eps * s[0]."""
    return int(np.sum(s > max(shape) * np.finfo(float).eps * s[0]))


@dataclass(frozen=True)
class PivotedQR:
    """Column-pivoted QR: A[:, perm] = q @ r with orthonormal q columns,
    upper-triangular r, and |r[k, k]| nonincreasing."""

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def _householder_pivot(a, steps):
    """The column order of the greedy column-pivoted Householder loop, run
    for `steps` steps on a copy of a. No step reads a Q, so none is formed."""
    r = a.copy()
    perm = np.arange(a.shape[1])
    for k in range(steps):
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
    return perm


def qr_column_pivot(a):
    """Householder QR with greedy column pivoting.

    At step k the remaining column with the largest trailing Euclidean
    norm is moved to position k; near-ties (within TIE_RTOL relative)
    resolve to the lowest original column index. Q and R are numpy's
    thin QR of the permuted columns.
    """
    a = _as_matrix(a, "qr input")
    perm = _householder_pivot(a, min(a.shape))
    q, r = np.linalg.qr(a[:, perm])
    # sign convention: nonnegative diagonal of R
    flip = np.diag(r) < 0
    r[flip, :] *= -1.0
    q[:, flip] *= -1.0
    return PivotedQR(q=q, r=r, perm=perm)


def column_pivots(a, n):
    """The first n entries of qr_column_pivot(a).perm, bit for bit, from
    only the first min(n, rows, cols) steps of the same loop."""
    a = _as_matrix(a, "qr input")
    check_count(n, "n")
    if n > a.shape[1]:
        raise DimensionError(f"n={n} outside 1..{a.shape[1]}")
    return _householder_pivot(a, min(n, *a.shape))[:n].copy()


def svd_thin(a):
    """Thin SVD: a = u @ diag(s) @ v.T with s descending."""
    a = _as_matrix(a, "svd input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T


def pinv(a):
    """Moore-Penrose pseudoinverse; singular values that numerical_rank
    does not count are treated as exactly zero."""
    a = _as_matrix(a, "pinv input")
    u, s, v = svd_thin(a)
    rank = numerical_rank(a.shape, s)
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (v * inv) @ u.T


def matrix_rank(a):
    a = _as_matrix(a, "rank input")
    return numerical_rank(a.shape, np.linalg.svd(a, compute_uv=False))


def nullspace_orthonormal(a):
    """Orthonormal basis of the null space; shape (cols, cols - rank)."""
    a = _as_matrix(a, "nullspace input")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    return vt[numerical_rank(a.shape, s):].T.copy()


def spectral_norm(a):
    """Largest singular value."""
    a = _as_matrix(a, "spectral_norm input")
    return float(np.linalg.svd(a, compute_uv=False)[0])

"""Reconstruction contracts over random (N, m, n), generated by hypothesis.

Derandomized and without an example database, so every run tests the
same examples and tier-1 stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdeim.errors import AssumptionError
from sdeim.pod import BasisMatrix
from sdeim.reconstruct import error_report, optimal_kernel, sdeim, vanilla_deim
from sdeim.sensing import SensorSelection, build_deim_core, observe, qdeim_place

PROPS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


@st.composite
def cores(draw):
    """A Q-DEIM core on a random orthonormal basis, with 1 <= n <= m <= N,
    and the generator that built it."""
    n_state = draw(st.integers(2, 40))
    m = draw(st.integers(1, min(n_state, 12)))
    n = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = BasisMatrix(orthonormal(rng, n_state, m))
    return build_deim_core(basis, qdeim_place(basis, n)), rng


@PROPS
@given(cores())
def test_lift_interpolates_the_samples(drawn):
    core, rng = drawn
    y = rng.normal(size=core.n_sensors)
    xi = rng.normal(size=core.kernel_dim)
    tol = 1e-10 * core.prefactor * (1.0 + np.linalg.norm(y))
    assert np.linalg.norm(core.lift[core.selection.indices] @ y - y) <= tol
    assert np.linalg.norm(observe(sdeim(core, y, xi), core.selection) - y) <= tol


@PROPS
@given(cores())
def test_vanilla_is_sdeim_with_zero_kernel_bitwise(drawn):
    core, rng = drawn
    y = rng.normal(size=core.n_sensors)
    zero = np.zeros(core.kernel_dim)
    assert np.array_equal(vanilla_deim(core, y), sdeim(core, y, zero))
    assert np.array_equal(vanilla_deim(core, y), sdeim(core, y, None))


@PROPS
@given(cores(), st.booleans())
def test_error_identity_on_strided_states(drawn, optimal):
    core, rng = drawn
    # a column of a row-major snapshot matrix: a strided view
    u = rng.normal(size=(core.dim, 3))[:, 1]
    assert not u.flags.c_contiguous
    xi = optimal_kernel(core, u) if optimal else rng.normal(size=core.kernel_dim)
    rep = error_report(core, u, xi)
    parts = rep.trunc_sq + rep.oblique_sq + rep.kernel_sq
    # relative, with a rounding floor for states the basis captures exactly
    assert abs(rep.total_sq - parts) <= 1e-10 * max(rep.total_sq, parts) + 1e-24 * (u @ u)
    assert rep == error_report(core, u.copy(), xi)
    # the same floor, square-rooted: both sides are rounding noise there
    assert np.sqrt(rep.total_sq) <= rep.upper_bound * (1.0 + 1e-10) + 1e-12 * np.linalg.norm(u)


@PROPS
@given(cores())
def test_kernel_orthogonal_to_pinv_range(drawn):
    core, _ = drawn
    z = core.kernel_matrix
    assert np.linalg.norm(z.T @ core.s_phi_pinv) <= 1e-12 * core.prefactor * core.n_modes
    assert np.linalg.norm(z.T @ z - np.eye(core.kernel_dim)) <= 1e-12 * core.n_modes
    assert np.linalg.norm(core.s_phi @ z) <= 1e-12 * core.n_modes


@PROPS
@given(st.data())
def test_rank_deficient_sampling_rejected(data):
    """Phi = [Q1 | Q2] with Q2 exactly zero on the sensed rows, so
    rank(S^T Phi) <= r = m - cols(Q2) < min(n, m)."""
    n_state = data.draw(st.integers(3, 40))
    m = data.draw(st.integers(2, min(n_state - 1, 12)))
    n = data.draw(st.integers(1, n_state - 1))
    r = data.draw(st.integers(max(0, m - (n_state - n)), min(n, m) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    idx = rng.choice(n_state, size=n, replace=False)
    rest = np.setdiff1d(np.arange(n_state), idx)
    q2 = np.zeros((n_state, m - r))
    q2[rest] = orthonormal(rng, rest.size, m - r)
    a = rng.normal(size=(n_state, r))
    q1 = np.linalg.qr(a - q2 @ (q2.T @ a))[0]
    basis = BasisMatrix(np.hstack([q1, q2]))
    with pytest.raises(AssumptionError):
        build_deim_core(basis, SensorSelection(n_state, idx))

import re

import numpy as np
import pytest

from sdeim import reconstruct
from sdeim.errors import AssumptionError, DimensionError, RankError
from sdeim.pod import BasisMatrix
from sdeim.properties import _random_core, _random_orthonormal
from sdeim.reconstruct import (
    error_report,
    optimal_kernel,
    prefactor_curve,
    sdeim,
    two_stage_sdeim,
    vanilla_deim,
)
from sdeim.sensing import SensorSelection, build_deim_core, observe, qdeim_place


def count_cores(monkeypatch):
    """Route reconstruct's build_deim_core through a counter; returns the
    list of mode counts it was called with."""
    calls = []

    def counted(basis, sel):
        calls.append(basis.n_modes)
        return build_deim_core(basis, sel)

    monkeypatch.setattr(reconstruct, "build_deim_core", counted)
    return calls


class TestVanillaDeim:
    def test_square_case_recovers_in_range_state(self):
        rng = np.random.default_rng(0)
        core = _random_core(rng, 8, 3, 3)
        u = core.basis.phi @ rng.normal(size=3)
        rec = vanilla_deim(core, observe(u, core.selection))
        assert np.linalg.norm(rec - u) < 1e-10 * np.linalg.norm(u)

    def test_equals_sdeim_with_zero_kernel_bitwise(self):
        rng = np.random.default_rng(1)
        core = _random_core(rng, 9, 5, 2)
        y = rng.normal(size=2)
        assert np.array_equal(vanilla_deim(core, y), sdeim(core, y, np.zeros(core.kernel_dim)))

    def test_dimension_check(self):
        rng = np.random.default_rng(2)
        core = _random_core(rng, 9, 5, 2)
        with pytest.raises(DimensionError, match=re.escape(
                "observations of shape (3,) are not (n,) or (K, n) with n=2")):
            vanilla_deim(core, np.ones(3))


class TestSdeim:
    def test_interpolation_property(self):
        rng = np.random.default_rng(3)
        core = _random_core(rng, 10, 6, 2)
        y = rng.normal(size=2)
        rec = sdeim(core, y, rng.normal(size=core.kernel_dim))
        assert np.linalg.norm(observe(rec, core.selection) - y) < 1e-10

    def test_exact_for_in_range_state_with_optimal_kernel(self):
        rng = np.random.default_rng(4)
        core = _random_core(rng, 10, 6, 2)
        u = core.basis.phi @ rng.normal(size=6)
        rec = sdeim(core, observe(u, core.selection), optimal_kernel(core, u))
        assert np.linalg.norm(rec - u) < 1e-8 * np.linalg.norm(u)

    def test_misshapen_observations_or_kernel_rejected(self):
        rng = np.random.default_rng(6)
        core = _random_core(rng, 10, 6, 2)
        y, xi = rng.normal(size=(5, 2)), rng.normal(size=(5, core.kernel_dim))
        for estimate in (vanilla_deim, sdeim):
            with pytest.raises(DimensionError, match=re.escape(
                    "observations of shape (1, 5, 2) are not (n,) or (K, n) with n=2")):
                estimate(core, y[None])
        with pytest.raises(DimensionError, match=re.escape(
                "kernel coordinates: shape (6, 4) is not (5, 4)")):
            sdeim(core, y, rng.normal(size=(6, core.kernel_dim)))
        with pytest.raises(DimensionError, match=re.escape(
                "kernel coordinates: shape (4,) is not (5, 4)")):
            sdeim(core, y, xi[0])
        # a kernel vector z = Z xi as a raw m-vector is not its coordinates
        z = core.kernel_matrix @ xi[0]
        with pytest.raises(DimensionError, match=re.escape(
                "kernel coordinates: shape (6,) is not (4,)")):
            sdeim(core, y[0], z)
        with pytest.raises(DimensionError, match=re.escape(
                "kernel coordinates: shape (6,) is not (4,)")):
            error_report(core, rng.normal(size=10), z)
        for oracle in (optimal_kernel, error_report):
            with pytest.raises(DimensionError, match=re.escape(
                    "state: shape (9,) is not (10,)")):
                oracle(core, rng.normal(size=9))


class TestBlocks:
    @pytest.mark.parametrize("n_state, m, n, k", [
        (40, 8, 3, 25), (40, 5, 1, 1), (8, 4, 2, 7), (12, 3, 3, 4),
    ])
    def test_rows_match_per_row_calls(self, n_state, m, n, k):
        rng = np.random.default_rng(26)
        core = _random_core(rng, n_state, m, n)
        y, xi = rng.normal(size=(k, n)), rng.normal(size=(k, core.kernel_dim))
        vanilla, shifted = vanilla_deim(core, y), sdeim(core, y, xi)
        assert vanilla.shape == shifted.shape == (k, n_state)
        for i in range(k):
            for block, row in ((vanilla[i], vanilla_deim(core, y[i])),
                               (shifted[i], sdeim(core, y[i], xi[i]))):
                assert np.linalg.norm(block - row) <= 1e-14 * np.linalg.norm(row)
        for rec in (vanilla, shifted):
            assert np.max(np.abs(rec[:, core.selection.indices] - y)) < 1e-10
        assert np.array_equal(sdeim(core, y), vanilla)


class TestProductBits:
    """Each estimator is its product with a stored lift, bit for bit."""

    @pytest.mark.parametrize("n_state, m, n", [(12, 6, 2), (40, 8, 8), (3, 3, 1), (3, 1, 1)])
    @pytest.mark.parametrize("lead", [(), (7,)])
    def test_estimates_equal_their_products(self, n_state, m, n, lead):
        rng = np.random.default_rng(27)
        core = _random_core(rng, n_state, m, n)
        y = rng.normal(size=lead + (n,))
        xi = rng.normal(size=lead + (core.kernel_dim,))
        expected = y @ core.lift.T
        assert np.array_equal(vanilla_deim(core, y), expected)
        expected += xi @ core.kernel_lift.T
        assert np.array_equal(sdeim(core, y, xi), expected)
        u = rng.normal(size=n_state)
        assert np.array_equal(optimal_kernel(core, u), core.kernel_lift.T @ u)


class TestOptimalKernel:
    def test_zero_for_orthogonal_state(self):
        rng = np.random.default_rng(7)
        q = _random_orthonormal(rng, 9, 6)
        basis = BasisMatrix(q[:, :4])
        core = build_deim_core(basis, qdeim_place(basis, 2))
        u = q[:, 5]
        assert np.linalg.norm(optimal_kernel(core, u)) < 1e-12

    def test_empty_when_square(self):
        rng = np.random.default_rng(8)
        core = _random_core(rng, 8, 3, 3)
        assert optimal_kernel(core, rng.normal(size=8)).size == 0

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(9)
        core = _random_core(rng, 8, 5, 2)
        u = rng.normal(size=8)
        xi_hat = optimal_kernel(core, u)
        base = core.basis.phi @ (core.s_phi_pinv @ observe(u, core.selection))
        phi_z = core.basis.phi @ core.kernel_matrix
        xi_ls, *_ = np.linalg.lstsq(phi_z, u - base, rcond=None)
        assert np.linalg.norm(xi_hat - xi_ls) < 1e-10


class TestErrorReport:
    def test_exact_reconstruction_vanishes(self):
        rng = np.random.default_rng(10)
        core = _random_core(rng, 10, 6, 2)
        u = core.basis.phi @ rng.normal(size=6)
        rep = error_report(core, u, optimal_kernel(core, u))
        assert rep.total_sq < 1e-16 * np.linalg.norm(u) ** 2

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            core = _random_core(rng, 10, 6, 3)
            u = rng.normal(size=10)
            rep = error_report(core, u, rng.normal(size=core.kernel_dim))
            lhs = rep.total_sq
            rhs = rep.trunc_sq + rep.oblique_sq + rep.kernel_sq
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_square_case_bound_reduces_to_inverse_norm(self):
        rng = np.random.default_rng(12)
        core = _random_core(rng, 8, 3, 3)
        u = rng.normal(size=8)
        rep = error_report(core, u, None)
        inv_norm = np.linalg.svd(np.linalg.inv(core.s_phi), compute_uv=False)[0]
        trunc = np.sqrt(rep.trunc_sq)
        assert rep.upper_bound == pytest.approx(inv_norm * trunc, rel=1e-10)

    def test_bound_dominates_error(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            core = _random_core(rng, 9, 5, 2)
            u = rng.normal(size=9)
            rep = error_report(core, u, rng.normal(size=core.kernel_dim))
            assert np.sqrt(rep.total_sq) <= rep.upper_bound + 1e-8 * (1 + rep.upper_bound)


class TestPrefactorCurve:
    def test_square_value_is_inverse_norm(self):
        rng = np.random.default_rng(15)
        basis = BasisMatrix(_random_orthonormal(rng, 9, 2))
        sel = qdeim_place(basis, 2)
        expect = np.linalg.svd(np.linalg.inv(basis.phi[sel.indices]), compute_uv=False)[0]
        for curve in prefactor_curve(basis, 2):
            assert [m for m, _ in curve] == [2]
            assert curve[0][1] == pytest.approx(expect, rel=1e-12)

    def test_nonincreasing_with_fixed_sensors(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            basis = BasisMatrix(_random_orthonormal(rng, 12, 6))
            fixed, replaced = prefactor_curve(basis, 2)
            assert [m for m, _ in fixed] == [m for m, _ in replaced] == [2, 3, 4, 5, 6]
            vals = [v for _, v in fixed]
            assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))

    def test_more_sensors_than_modes_rejected_before_placement(self, monkeypatch):
        rng = np.random.default_rng(26)
        basis = BasisMatrix(_random_orthonormal(rng, 9, 4))
        placed = []
        monkeypatch.setattr(reconstruct, "qdeim_place", lambda b, n: placed.append(n))
        with pytest.raises(RankError, match=r"m=5 outside 1\.\.4"):
            prefactor_curve(basis, 5)
        assert placed == []

    def test_matches_core_prefactor_without_building_cores(self, monkeypatch):
        rng = np.random.default_rng(22)
        basis = BasisMatrix(_random_orthonormal(rng, 30, 8))
        calls = count_cores(monkeypatch)
        fixed, replaced = prefactor_curve(basis, 3)
        assert calls == []
        held = qdeim_place(basis.leading(3), 3)
        for curve, place in ((fixed, lambda m: held),
                             (replaced, lambda m: qdeim_place(basis.leading(m), 3))):
            assert [m for m, _ in curve] == list(range(3, 9))
            for m, value in curve:
                expect = build_deim_core(basis.leading(m), place(m)).prefactor
                assert value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("bad_call", [0, 1], ids=["fixed", "replaced"])
    def test_rank_deficient_sampling_rejected(self, monkeypatch, bad_call):
        # sensors on a zero row of Phi: S^T Phi loses rank; the first
        # placement serves the fixed curve, the second the replaced one
        phi = np.zeros((4, 2))
        phi[0, 0] = 1.0
        phi[1, 1] = 1.0
        calls = []

        def place(basis, n):
            calls.append(n)
            return SensorSelection(4, [0, 3] if len(calls) - 1 == bad_call else [0, 1])

        monkeypatch.setattr(reconstruct, "qdeim_place", place)
        with pytest.raises(AssumptionError):
            prefactor_curve(BasisMatrix(phi), 2)
        assert len(calls) == bad_call + 1


class TestTwoStage:
    @pytest.mark.parametrize("y2", [np.array([]), np.ones(1), None], ids=["empty", "short", "none"])
    def test_misshapen_second_batch_rejected(self, y2):
        # the second batch's samples must match sel2
        rng = np.random.default_rng(25)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        sel1 = SensorSelection(10, [0, 3])
        with pytest.raises(DimensionError, match="second observation batch"):
            two_stage_sdeim(basis, sel1, SensorSelection(10, [7, 9]), np.ones(2), y2)

    def test_second_selection_over_another_state_rejected(self):
        rng = np.random.default_rng(27)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        with pytest.raises(DimensionError, match="selection and basis dimension mismatch"):
            two_stage_sdeim(basis, SensorSelection(10, [0, 3]), SensorSelection(50, [7, 9]),
                            np.ones(2), np.ones(2))

    def test_matches_single_stage_with_all_sensors(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
            idx = rng.choice(10, size=4, replace=False)
            sel1 = SensorSelection(10, idx[:2])
            sel2 = SensorSelection(10, idx[2:])
            u = rng.normal(size=10)
            rec2 = two_stage_sdeim(basis, sel1, sel2, u[idx[:2]], u[idx[2:]])
            core = build_deim_core(basis, SensorSelection(10, idx))
            rec1 = vanilla_deim(core, u[idx])
            assert np.linalg.norm(rec2 - rec1) <= 1e-8 * np.linalg.norm(rec1)

    def test_first_batch_interpolation_exact(self):
        rng = np.random.default_rng(20)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        sel1 = SensorSelection(10, [0, 3])
        sel2 = SensorSelection(10, [7, 9])
        u = rng.normal(size=10)
        rec = two_stage_sdeim(basis, sel1, sel2, u[[0, 3]], u[[7, 9]])
        assert np.linalg.norm(observe(rec, sel1) - u[[0, 3]]) < 1e-10

    def test_builds_only_the_first_batch_core(self, monkeypatch):
        rng = np.random.default_rng(23)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        calls = count_cores(monkeypatch)
        u = rng.normal(size=10)
        two_stage_sdeim(
            basis, SensorSelection(10, [0, 3]), SensorSelection(10, [7, 9]), u[[0, 3]], u[[7, 9]]
        )
        assert calls == [6]

    def test_rank_deficient_union_rejected(self):
        # row 9 of Phi is zero: the first batch is full rank, the union is not
        rng = np.random.default_rng(24)
        basis = BasisMatrix(np.vstack([_random_orthonormal(rng, 9, 6), np.zeros((1, 6))]))
        sel1 = SensorSelection(10, [0, 3])
        build_deim_core(basis, sel1)
        with pytest.raises(AssumptionError):
            two_stage_sdeim(basis, sel1, SensorSelection(10, [7, 9]), np.ones(2), np.ones(2))

    def test_overlapping_batches_rejected(self):
        rng = np.random.default_rng(21)
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        with pytest.raises(DimensionError):
            two_stage_sdeim(
                basis,
                SensorSelection(10, [0, 3]),
                SensorSelection(10, [3, 7]),
                np.zeros(2),
                np.zeros(2),
            )

import re

import numpy as np
import pytest

from sdeim import linalg
from sdeim.assimilate import das_deim
from sdeim.dynamics import integrate, linear_field
from sdeim.errors import AssumptionError, DimensionError, RankError
from sdeim.pod import compute_pod, truncation_error
from sdeim.properties import _random_core
from sdeim.reconstruct import optimal_kernel, sdeim, two_stage_sdeim
from sdeim.sensing import ObservationSeries, SensorSelection, check_full_rank, observe


class TestCheckShape:
    def test_returns_a_float_array_of_exactly_that_shape(self):
        a = linalg.check_shape([1, 2], (2,), "pair")
        assert a.dtype == float and a.shape == (2,)
        for bad in ([[1, 2]], [1, 2, 3], 1.0):
            with pytest.raises(DimensionError, match="pair: shape"):
                linalg.check_shape(bad, (2,), "pair")

    # every fixed-shape argument, one entry short, on a core with N = 6
    # states, n = 2 sensors and two kernel coordinates
    @pytest.mark.parametrize("name, shapes, call", [
        ("initial state", "(5,) is not (6,)",
         lambda c: integrate(linear_field(-np.eye(6)), np.ones(5), 1.0, 0.1)),
        ("state", "(5,) is not (6,)", lambda c: observe(np.ones(5), c.selection)),
        ("state", "(5,) is not (6,)", lambda c: truncation_error(np.ones(5), c.basis)),
        ("state", "(5,) is not (6,)", lambda c: optimal_kernel(c, np.ones(5))),
        ("kernel coordinates", "(1,) is not (2,)", lambda c: sdeim(c, np.ones(2), np.ones(1))),
        ("first observation batch", "(1,) is not (2,)", lambda c: two_stage_sdeim(
            c.basis, SensorSelection(6, [0, 3]), SensorSelection(6, [1, 4]), np.ones(1), np.ones(2))),
        ("second observation batch", "(1,) is not (2,)", lambda c: two_stage_sdeim(
            c.basis, SensorSelection(6, [0, 3]), SensorSelection(6, [1, 4]), np.ones(2), np.ones(1))),
        ("offset", "(5,) is not (6,)", lambda c: das_deim(
            c, linear_field(-np.eye(6)), ObservationSeries(0.1 * np.arange(4), np.ones((4, 2))),
            offset=np.zeros(5))),
    ], ids=["integrate", "observe", "truncation_error", "optimal_kernel", "sdeim",
            "two_stage_first", "two_stage_second", "das_deim_offset"])
    def test_misshapen_argument_named_at_every_site(self, name, shapes, call):
        core = _random_core(np.random.default_rng(30), 6, 4, 2)
        with pytest.raises(DimensionError, match=re.escape(f"{name}: shape {shapes}")):
            call(core)


class TestQRColumnPivot:
    def test_identity_keeps_natural_order(self):
        fac = linalg.qr_column_pivot(np.eye(3))
        assert list(fac.perm) == [0, 1, 2]
        assert np.allclose(fac.q, np.eye(3))
        assert np.allclose(fac.r, np.eye(3))

    def test_largest_column_norm_first(self):
        # column norms 2 and 1: column 0 must be the first pivot
        fac = linalg.qr_column_pivot(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert list(fac.perm) == [0, 1]

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        fac = linalg.qr_column_pivot(a)
        p = np.eye(4)[:, fac.perm]
        assert np.linalg.norm(a @ p - fac.q @ fac.r) / np.linalg.norm(a) < 1e-12
        assert np.linalg.norm(fac.q.T @ fac.q - np.eye(4)) < 1e-12

    def test_diagonal_of_r_nonincreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            fac = linalg.qr_column_pivot(a)
            d = np.abs(np.diag(fac.r))
            assert np.all(np.diff(d) <= 1e-12 * d[0])

    def test_wide_and_tall_shapes(self):
        rng = np.random.default_rng(5)
        for shape in [(3, 7), (7, 3)]:
            a = rng.normal(size=shape)
            fac = linalg.qr_column_pivot(a)
            k = min(shape)
            assert fac.q.shape == (shape[0], k)
            assert fac.r.shape == (k, shape[1])
            p = np.eye(shape[1])[:, fac.perm]
            assert np.linalg.norm(a @ p - fac.q @ fac.r) < 1e-12 * np.linalg.norm(a)

    def test_exact_ties_pick_lowest_index(self):
        # all columns have norm 1; pivot order must be the natural order
        a = np.eye(4)[:, ::-1] * 1.0
        fac = linalg.qr_column_pivot(a)
        assert fac.perm[0] == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            linalg.qr_column_pivot(np.zeros((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionError):
            linalg.qr_column_pivot(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("a", [
        np.outer([1.0, 0.0, 2.0, 0.0, 0.0], [3.0, 1.0, 0.0, 2.0]),
        np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.0, 0.0, 4.0]]),
        np.zeros((3, 5)),
        np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]]),
    ], ids=["rank-1 5x4", "zero column", "all-zero 3x5", "wide 2x3"])
    def test_factorization_when_the_trailing_columns_vanish(self, a):
        # the first three run out of nonzero trailing columns before
        # min(rows, cols) steps, so the loop stops early
        fac = linalg.qr_column_pivot(a)
        k = min(a.shape)
        assert fac.q.shape == (a.shape[0], k) and fac.r.shape == (k, a.shape[1])
        p = np.eye(a.shape[1])[:, fac.perm]
        assert np.linalg.norm(a @ p - fac.q @ fac.r) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(fac.q.T @ fac.q - np.eye(k)) < 1e-12
        assert np.array_equal(fac.r, np.triu(fac.r))
        assert np.all(np.diag(fac.r) >= 0)
        for n in range(1, a.shape[1] + 1):
            assert np.array_equal(fac.perm[:n], linalg.column_pivots(a, n))


class TestSvdThin:
    def test_diagonal_case(self):
        _, s, _ = linalg.svd_thin(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_rank_one(self):
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        u, s, v = linalg.svd_thin(a)
        assert np.sum(s > 1e-12 * s[0]) == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 3))
        u, s, v = linalg.svd_thin(a)
        assert np.linalg.norm(a - (u * s) @ v.T) / np.linalg.norm(a) < 1e-12
        assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(3)) < 1e-12
        assert np.all(np.diff(s) <= 0)


class TestPinv:
    def test_identity(self):
        assert np.allclose(linalg.pinv(np.eye(4)), np.eye(4))

    def test_row_vector_against_closed_form(self):
        # full row rank: pinv = A^T (A A^T)^(-1)
        a = np.array([[1.0, 2.0]])
        assert np.allclose(linalg.pinv(a), np.array([[0.2], [0.4]]))

    def test_right_inverse_for_full_row_rank(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 7))
        assert np.linalg.norm(a @ linalg.pinv(a) - np.eye(3)) < 1e-10


class TestNullspace:
    def test_full_rank_gives_empty(self):
        z = linalg.nullspace_orthonormal(np.eye(2))
        assert z.shape == (2, 0)

    def test_one_dimensional_kernel(self):
        z = linalg.nullspace_orthonormal(np.array([[1.0, 1.0]]))
        assert z.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(
            np.linalg.norm(z.ravel() - expected), np.linalg.norm(z.ravel() + expected)
        ) < 1e-12

    def test_defining_property(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 8))
        z = linalg.nullspace_orthonormal(a)
        assert z.shape == (8, 5)
        assert np.linalg.norm(a @ z) < 1e-10 * (1 + np.linalg.norm(a))
        assert np.linalg.norm(z.T @ z - np.eye(5)) < 1e-10


class TestRankRule:
    """numerical_rank is the one rank decision: every caller draws the same
    line."""

    # 1e-17 lies below the threshold max(2, 2) * eps * 1 = 4.4e-16
    A = np.diag([1.0, 1e-17])

    def test_callers_agree_on_a_tiny_singular_value(self):
        assert linalg.numerical_rank(self.A.shape, np.array([1.0, 1e-17])) == 1
        assert linalg.matrix_rank(self.A) == 1
        assert linalg.nullspace_orthonormal(self.A).shape == (2, 1)
        assert np.array_equal(linalg.pinv(self.A), np.diag([1.0, 0.0]))
        with pytest.raises(AssumptionError):
            check_full_rank(self.A.shape, np.linalg.svd(self.A, compute_uv=False))
        with pytest.raises(RankError):
            compute_pod(self.A, 2)


class TestSpectralNorm:
    def test_identity(self):
        assert linalg.spectral_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 4))
        v = rng.normal(size=4)
        for _ in range(500):
            v = a.T @ (a @ v)
            v /= np.linalg.norm(v)
        estimate = np.linalg.norm(a @ v)
        assert linalg.spectral_norm(a) == pytest.approx(estimate, rel=1e-8)


class TestCsvRoundTrip:
    def test_round_trip_preserves_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 3)) * np.pi
        path = tmp_path / "m.csv"
        linalg.save_matrix_csv(path, a)
        b = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(a, b)

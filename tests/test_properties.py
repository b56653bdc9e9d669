"""The invariant suites themselves, run in-process: the session's one
property report (tests/conftest.py), and negative controls that run a
suite on a corrupted basis."""

from types import SimpleNamespace

import numpy as np
import pytest

from sdeim import properties

# every check of run_all, in report order
EXPECTED_CHECKS = [
    ("matrix-core", "qr reconstruction A P = Q R"),
    ("matrix-core", "qr orthonormal Q"),
    ("matrix-core", "qr greedy pivot dominance"),
    ("matrix-core", "svd reconstruction"),
    ("matrix-core", "pinv Moore-Penrose identities"),
    ("matrix-core", "pinv of pinv returns input"),
    ("matrix-core", "nullspace annihilated and orthonormal"),
    ("pod-basis", "basis orthonormality"),
    ("pod-basis", "orthogonal reconstruction residual perpendicular to range"),
    ("pod-basis", "pod beats 100 random bases on summed truncation error"),
    ("pod-basis", "basis orthonormality (tall 50 x 10 snapshots)"),
    ("pod-basis",
     "orthogonal reconstruction residual perpendicular to range (tall 50 x 10 snapshots)"),
    ("pod-basis", "pod beats 100 random bases on summed truncation error (tall 50 x 10 snapshots)"),
    ("sensing", "placement deterministic"),
    ("sensing", "pseudoinverse is a right inverse (n < m)"),
    ("sensing", "kernel orthogonal to pinv range"),
    ("reconstruction", "interpolation property over 100 instances"),
    ("reconstruction", "projection property fails for n < m"),
    ("reconstruction", "projection property holds for n >= m"),
    ("reconstruction", "D Phi Phi^T is an orthogonal projection (n < m)"),
    ("reconstruction", "error decomposition identity over 100 instances"),
    ("reconstruction", "upper bound dominates actual error"),
    ("reconstruction", "projector norm identity ||D|| = ||I - D||"),
    ("reconstruction", "two-stage equals single-stage over 50 instances"),
    ("reconstruction", "optimal kernel matches least-squares oracle"),
    ("dynamics", "rk4 order-4 convergence ratio in [12, 20]"),
    ("dynamics", "lorenz96 F=2 stays bounded over 500 units"),
    ("assimilation", "restricted contraction rate is negative"),
    ("assimilation", "full-space one-sided constant is nonnegative for singular P"),
    ("assimilation", "exponential decay within e^(rho t) envelope"),
    ("assimilation", "kernel rhs independent of interpolation slopes"),
    ("assimilation", "kernel rhs matches brute-force instantaneous minimizer"),
    ("assimilation", "kernel rhs affine in xi for linear fields"),
    ("assimilation", "sampled one-sided inequality holds at computed constant"),
]


@pytest.mark.parametrize("suite_name", sorted(properties.ALL_SUITES))
def test_suite_passes(property_report, suite_name):
    checks = property_report.checks[suite_name]
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failures, failures


def test_corrupted_basis_fails_orthonormality(monkeypatch):
    def corrupted_pod(x, m):
        phi = np.eye(x.shape[0])[:, :m]
        phi[0, 0] = 1.01
        return SimpleNamespace(phi=phi, dim=x.shape[0])

    monkeypatch.setattr(properties, "compute_pod", corrupted_pod)
    pod_checks = dict((name, ok) for name, ok, _ in properties.pod_suite(seed=0))
    assert pod_checks["basis orthonormality"] is False


def test_report_counts_per_suite(property_report):
    report = property_report.checks
    assert list(report) == list(properties.ALL_SUITES)
    assert [(suite, name) for suite, checks in report.items() for name, _, _ in checks] == EXPECTED_CHECKS

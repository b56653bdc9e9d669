"""Machine-checkable invariant suites for every module.

Each suite returns a list of (name, passed, detail) tuples so the CLI can
emit a per-suite report and exit nonzero on any failure. The checks mirror
the library's documented contracts; tests reuse them directly.
"""

import numpy as np

from . import linalg
from .assimilate import (
    contraction_rate_on_range,
    das_deim,
    interpolate_obs,
    kernel_rhs,
    one_sided_lipschitz_linear,
)
from .dynamics import integrate, linear_field, lorenz96
from .pod import BasisMatrix, compute_pod, truncation_error
from .reconstruct import error_report, optimal_kernel, sdeim, two_stage_sdeim, vanilla_deim
from .sensing import ObservationSeries, SensorSelection, build_deim_core, observe, qdeim_place

# the least positive double: "worst < LEAST_POSITIVE" means none is above zero
LEAST_POSITIVE = np.nextafter(0.0, 1.0)


def _check(results, name, passed, detail=""):
    results.append((name, bool(passed), detail))


def _worst(results, name, tol, values, label="worst"):
    """Passes when the worst (largest) of values is below tol."""
    worst = np.max(values)
    _check(results, name, worst < tol, f"{label} {worst:.2e}")


def _random_orthonormal(rng, n, m):
    a = rng.normal(size=(n, m))
    q, _ = np.linalg.qr(a)
    return q[:, :m]


def _random_core(rng, n_state, m, n):
    phi = _random_orthonormal(rng, n_state, m)
    basis = BasisMatrix(phi)
    idx = rng.choice(n_state, size=n, replace=False)
    return build_deim_core(basis, SensorSelection(n_state, np.sort(idx)))


def _oblique(core):
    """The interpolation projector D = Phi (S^T Phi)^+ S^T and the
    orthogonal projector Phi Phi^T onto the basis range."""
    phi = core.basis.phi
    return phi @ core.s_phi_pinv @ np.eye(core.dim)[core.selection.indices, :], phi @ phi.T


def matrix_core_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []
    mats = [rng.normal(size=(8, 8)) for _ in range(20)]
    facs = [linalg.qr_column_pivot(a) for a in mats]
    _worst(res, "qr reconstruction A P = Q R", 1e-10,
           [np.linalg.norm(a[:, f.perm] - f.q @ f.r) / np.linalg.norm(a) for a, f in zip(mats, facs)],
           "worst rel resid")
    _worst(res, "qr orthonormal Q", 1e-10, [np.linalg.norm(f.q.T @ f.q - np.eye(8)) for f in facs])
    # greedy invariant: after k steps the trailing column norms are those
    # of r[k:, k:], and the pivot's, |r[k, k]|, dominates them
    trailing = [np.linalg.norm(f.r[k:, k:], axis=0) for f in facs for k in range(8)]
    _check(res, "qr greedy pivot dominance", all(t[0] >= t.max() * (1 - 1e-12) for t in trailing))

    svd = []
    for _ in range(20):
        a = rng.normal(size=(6, 4))
        u, s, v = linalg.svd_thin(a)
        svd.append(np.linalg.norm(a - (u * s) @ v.T) / np.linalg.norm(a))
    _worst(res, "svd reconstruction", 1e-10, svd)

    penrose, double = [], []
    for _ in range(20):
        a = rng.normal(size=(5, 3))
        ap = linalg.pinv(a)
        nrm = np.linalg.norm(a)
        penrose += [
            np.linalg.norm(a @ ap @ a - a) / nrm,
            np.linalg.norm(ap @ a @ ap - ap) / np.linalg.norm(ap),
            np.linalg.norm((a @ ap).T - a @ ap),
            np.linalg.norm((ap @ a).T - ap @ a),
        ]
        double.append(np.linalg.norm(linalg.pinv(ap) - a) / nrm)
    _worst(res, "pinv Moore-Penrose identities", 1e-10, penrose)
    _worst(res, "pinv of pinv returns input", 1e-8, double)

    null = []
    for _ in range(20):
        a = rng.normal(size=(3, 6))
        z = linalg.nullspace_orthonormal(a)
        null += [np.linalg.norm(a @ z) / (1 + np.linalg.norm(a)),
                 np.linalg.norm(z.T @ z - np.eye(z.shape[1]))]
    _worst(res, "nullspace annihilated and orthonormal", 1e-10, null)
    return res


def pod_suite(seed=0):
    """POD contracts on a rank-3 10 x 50 snapshot matrix, the wide
    orientation the presets take, and on its 50 x 10 transpose, the tall
    one large fields take."""
    rng = np.random.default_rng(seed)
    res = []
    x = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 50))
    _pod_checks(res, rng, x, "")
    _pod_checks(res, rng, x.T, " (tall 50 x 10 snapshots)")
    return res


def _pod_checks(res, rng, x, label):
    dim = x.shape[0]
    basis = compute_pod(x, 2)
    phi = basis.phi
    gram = np.linalg.norm(phi.T @ phi - np.eye(phi.shape[1]))
    _check(res, "basis orthonormality" + label, gram < 1e-10, f"||Phi^T Phi - I|| = {gram:.2e}")

    perp = []
    for _ in range(20):
        u = rng.normal(size=dim)
        c = rng.normal(size=2)
        u_hat = phi @ (phi.T @ u)
        perp.append(abs(np.dot(u - u_hat, phi @ c)) / (np.linalg.norm(u) * np.linalg.norm(c) + 1e-300))
    _worst(res, "orthogonal reconstruction residual perpendicular to range" + label, 1e-10, perp)

    pod_err = sum(truncation_error(x[:, k], basis) for k in range(x.shape[1]))
    beaten = 0
    for _ in range(100):
        rand_basis = BasisMatrix(_random_orthonormal(rng, dim, 2))
        rand_err = sum(truncation_error(x[:, k], rand_basis) for k in range(x.shape[1]))
        beaten += rand_err < pod_err - 1e-12
    _check(res, "pod beats 100 random bases on summed truncation error" + label, beaten == 0,
           f"beaten {beaten} times")


def sensing_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []
    basis = BasisMatrix(_random_orthonormal(rng, 12, 5))
    sel_a = qdeim_place(basis, 3)
    sel_b = qdeim_place(basis, 3)
    _check(res, "placement deterministic", np.array_equal(sel_a.indices, sel_b.indices))

    cores = [_random_core(rng, 12, 6, 3) for _ in range(20)]
    _worst(res, "pseudoinverse is a right inverse (n < m)", 1e-10,
           [np.linalg.norm(c.s_phi @ c.s_phi_pinv - np.eye(3)) for c in cores])
    _worst(res, "kernel orthogonal to pinv range", 1e-10,
           [np.linalg.norm(c.kernel_matrix.T @ c.s_phi_pinv) for c in cores])
    return res


def reconstruction_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []

    interp = []
    for _ in range(100):
        core = _random_core(rng, 10, 6, 3)
        y = rng.normal(size=3)
        rec = sdeim(core, y, rng.normal(size=core.kernel_dim))
        interp.append(np.linalg.norm(observe(rec, core.selection) - y))
    _worst(res, "interpolation property over 100 instances", 1e-10, interp)

    # projection property fails when n < m, holds when n >= m
    d_op, proj = _oblique(_random_core(rng, 10, 6, 3))
    dist = np.linalg.norm(d_op @ proj - proj)
    _check(res, "projection property fails for n < m", dist > 1e-6, f"distance {dist:.2e}")
    d_over, proj_o = _oblique(_random_core(rng, 10, 3, 6))
    dist = np.linalg.norm(d_over @ proj_o - proj_o)
    _check(res, "projection property holds for n >= m", dist < 1e-9, f"distance {dist:.2e}")

    dpp = d_op @ proj
    _check(
        res,
        "D Phi Phi^T is an orthogonal projection (n < m)",
        np.linalg.norm(dpp @ dpp - dpp) < 1e-9 and np.linalg.norm(dpp - dpp.T) < 1e-9,
    )

    reps = []
    for _ in range(100):
        core = _random_core(rng, 10, 6, 3)
        u = rng.normal(size=10)
        reps.append(error_report(core, u, rng.normal(size=core.kernel_dim)))
    _worst(res, "error decomposition identity over 100 instances", 1e-8,
           [abs(r.total_sq - (r.trunc_sq + r.oblique_sq + r.kernel_sq)) / (abs(r.total_sq) + 1e-300)
            for r in reps], "worst rel")
    _check(res, "upper bound dominates actual error",
           all(np.sqrt(r.total_sq) <= r.upper_bound + 1e-8 * (1 + r.upper_bound) for r in reps))

    d_mats = [_oblique(_random_core(rng, 9, 5, 2))[0] for _ in range(10)]
    _worst(res, "projector norm identity ||D|| = ||I - D||", 1e-8,
           [abs(linalg.spectral_norm(d) - linalg.spectral_norm(np.eye(9) - d)) for d in d_mats])

    two = []
    for _ in range(50):
        basis = BasisMatrix(_random_orthonormal(rng, 10, 6))
        idx = rng.choice(10, size=4, replace=False)
        sel1 = SensorSelection(10, idx[:2])
        sel2 = SensorSelection(10, idx[2:])
        u = rng.normal(size=10)
        rec2 = two_stage_sdeim(basis, sel1, sel2, u[idx[:2]], u[idx[2:]])
        rec1 = vanilla_deim(build_deim_core(basis, SensorSelection(10, idx)), u[idx])
        two.append(np.linalg.norm(rec2 - rec1) / (np.linalg.norm(rec1) + 1e-300))
    _worst(res, "two-stage equals single-stage over 50 instances", 1e-8, two, "worst rel")

    opt = []
    for _ in range(20):
        core = _random_core(rng, 8, 5, 2)
        u = rng.normal(size=8)
        # oracle: dense least squares for xi minimizing ||u~(Z xi) - u||
        base = core.basis.phi @ (core.s_phi_pinv @ u[core.selection.indices])
        xi_ls, *_ = np.linalg.lstsq(core.basis.phi @ core.kernel_matrix, u - base, rcond=None)
        opt.append(np.linalg.norm(optimal_kernel(core, u) - xi_ls))
    _worst(res, "optimal kernel matches least-squares oracle", 1e-8, opt)
    return res


def dynamics_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []
    a = rng.normal(size=(4, 4))
    a = a / linalg.spectral_norm(a)
    f = linear_field(a)
    u0 = rng.normal(size=4)
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate(f, u0, 1.0, dt)
        # reference by power-series exponential (independent of the integrator)
        ref = u0.copy()
        term = u0.copy()
        for k in range(1, 60):
            term = a @ term / k
            ref = ref + term
        errs.append(np.linalg.norm(traj.states[-1] - ref))
    ratio = errs[0] / errs[1]
    _check(res, "rk4 order-4 convergence ratio in [12, 20]", 12.0 <= ratio <= 20.0,
           f"ratio {ratio:.2f}")

    f96 = lorenz96(40, 2.0)
    u0 = 2.0 * np.ones(40)
    u0[19] += 0.01
    traj = integrate(f96, u0, 500.0, 0.01, record_every=50)
    sup = float(np.max(np.abs(traj.states)))
    _check(res, "lorenz96 F=2 stays bounded over 500 units", sup < 10.0, f"sup {sup:.2f}")
    return res


def assimilation_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []

    # synthetic exponential-convergence testbed: stable linear field whose
    # attractor (the origin) lies in the basis range
    phi = _random_orthonormal(rng, 8, 5)
    basis = BasisMatrix(phi)
    sel = qdeim_place(basis, 2)
    core = build_deim_core(basis, sel)
    b_mat = -0.8 * np.eye(5) + 0.5 * (lambda s: s - s.T)(rng.normal(size=(5, 5)))
    a_mat = phi @ b_mat @ phi.T - 2.0 * (np.eye(8) - phi @ phi.T)
    p_mat = phi @ core.kernel_matrix @ core.kernel_matrix.T @ phi.T
    rho_full = one_sided_lipschitz_linear(a_mat, p_mat)
    rho = contraction_rate_on_range(a_mat, p_mat)
    _check(res, "restricted contraction rate is negative", rho < 0, f"rho {rho:.3f}")
    _check(res, "full-space one-sided constant is nonnegative for singular P",
           rho_full >= -1e-12, f"rho_full {rho_full:.2e}")

    f_lin = linear_field(a_mat)
    times = 0.05 * np.arange(121)
    series = ObservationSeries(times, np.zeros((121, 2)))
    xi0 = rng.normal(size=core.kernel_dim)
    states = das_deim(core, f_lin, series, xi0=xi0, dt=0.05 / 20).reconstruction.states
    err0 = np.linalg.norm(states[0])
    _worst(res, "exponential decay within e^(rho t) envelope", LEAST_POSITIVE,
           [max(np.linalg.norm(x) - err0 * np.exp(rho * t) * (1 + 1e-3), 0.0) for t, x in zip(times, states)],
           "worst overshoot")

    # the kernel rhs never sees observation derivatives: series that agree
    # at shared sample times give identical rhs there
    core2 = _random_core(rng, 6, 4, 2)
    f2 = linear_field(rng.normal(size=(6, 6)))
    t_fine = 0.1 * np.arange(11)
    y_fine = rng.normal(size=(11, 2))
    series_fine = ObservationSeries(t_fine, y_fine)
    series_coarse = ObservationSeries(t_fine[::2], y_fine[::2])
    xi = rng.normal(size=core2.kernel_dim)
    _worst(res, "kernel rhs independent of interpolation slopes", LEAST_POSITIVE,
           [np.linalg.norm(kernel_rhs(core2, f2, series_fine, t, xi)
                           - kernel_rhs(core2, f2, series_coarse, t, xi)) for t in t_fine[::2]])

    # brute-force instantaneous minimizer, including an explicit
    # finite-difference observation derivative
    brute = []
    for _ in range(10):
        core3 = _random_core(rng, 6, 4, 2)
        f3 = linear_field(rng.normal(size=(6, 6)))
        series3 = ObservationSeries(0.1 * np.arange(6), rng.normal(size=(6, 2)))
        xi = rng.normal(size=core3.kernel_dim)
        t_eval = 0.25
        rhs_val = kernel_rhs(core3, f3, series3, t_eval, xi)
        eps = 1e-6
        y_dot = (interpolate_obs(series3, t_eval + eps) - interpolate_obs(series3, t_eval - eps)) / (2 * eps)
        phi3 = core3.basis.phi
        u_rec = phi3 @ (core3.s_phi_pinv @ interpolate_obs(series3, t_eval)) + phi3 @ core3.kernel_matrix @ xi
        target = f3.rhs(u_rec) - phi3 @ (core3.s_phi_pinv @ y_dot)
        xi_dot_ls, *_ = np.linalg.lstsq(phi3 @ core3.kernel_matrix, target, rcond=None)
        brute.append(np.linalg.norm(rhs_val - xi_dot_ls))
    _worst(res, "kernel rhs matches brute-force instantaneous minimizer", 1e-8, brute)

    # affinity in xi for linear fields
    core4 = _random_core(rng, 6, 4, 2)
    f4 = linear_field(rng.normal(size=(6, 6)))
    series4 = ObservationSeries(0.1 * np.arange(4), rng.normal(size=(4, 2)))
    xi_a = rng.normal(size=2)
    xi_b = rng.normal(size=2)
    lam = 0.3
    r_mix = kernel_rhs(core4, f4, series4, 0.15, lam * xi_a + (1 - lam) * xi_b)
    r_sep = lam * kernel_rhs(core4, f4, series4, 0.15, xi_a) + (1 - lam) * kernel_rhs(
        core4, f4, series4, 0.15, xi_b
    )
    _check(res, "kernel rhs affine in xi for linear fields",
           np.linalg.norm(r_mix - r_sep) < 1e-10)

    # sampled one-sided inequality
    a5 = rng.normal(size=(6, 6))
    q5 = _random_orthonormal(rng, 6, 3)
    p5 = q5 @ q5.T
    rho5 = one_sided_lipschitz_linear(a5, p5)
    _check(res, "sampled one-sided inequality holds at computed constant",
           all(du @ (p5 @ (a5 @ du)) <= (rho5 + 1e-9) * du @ du for du in rng.normal(size=(1000, 6))))
    return res


ALL_SUITES = {
    "matrix-core": matrix_core_suite,
    "pod-basis": pod_suite,
    "sensing": sensing_suite,
    "reconstruction": reconstruction_suite,
    "dynamics": dynamics_suite,
    "assimilation": assimilation_suite,
}


def run_all(seed=0):
    """Execute every suite; returns {suite: [(name, passed, detail), ...]}."""
    return {name: suite(seed=seed) for name, suite in ALL_SUITES.items()}

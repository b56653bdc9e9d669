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


def _check(results, name, passed, detail=""):
    results.append((name, bool(passed), detail))


def _random_orthonormal(rng, n, m):
    a = rng.normal(size=(n, m))
    q, _ = np.linalg.qr(a)
    return q[:, :m]


def _random_core(rng, n_state, m, n):
    phi = _random_orthonormal(rng, n_state, m)
    basis = BasisMatrix(phi)
    idx = rng.choice(n_state, size=n, replace=False)
    return build_deim_core(basis, SensorSelection(n_state, np.sort(idx)))


def matrix_core_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []
    worst_qr = worst_orth = 0.0
    greedy_ok = True
    for _ in range(20):
        a = rng.normal(size=(8, 8))
        fac = linalg.qr_column_pivot(a)
        p = np.eye(8)[:, fac.perm]
        worst_qr = max(worst_qr, np.linalg.norm(a @ p - fac.q @ fac.r) / np.linalg.norm(a))
        worst_orth = max(worst_orth, np.linalg.norm(fac.q.T @ fac.q - np.eye(fac.q.shape[1])))
        # greedy invariant: at each step the chosen trailing norm dominates
        r_work = a[:, fac.perm].copy()
        for k in range(8):
            norms = np.linalg.norm(r_work[k:, k:], axis=0)
            if norms[0] < norms.max() * (1 - 1e-12):
                greedy_ok = False
            # reduce one column via householder on the already-pivoted matrix
            x = r_work[k:, k]
            nx = np.linalg.norm(x)
            if nx == 0:
                continue
            v = x.copy()
            v[0] += np.copysign(nx, x[0]) if x[0] != 0 else nx
            nv = np.linalg.norm(v)
            if nv == 0:
                continue
            v /= nv
            r_work[k:, :] -= 2.0 * np.outer(v, v @ r_work[k:, :])
    _check(res, "qr reconstruction A P = Q R", worst_qr < 1e-10, f"worst rel resid {worst_qr:.2e}")
    _check(res, "qr orthonormal Q", worst_orth < 1e-10, f"worst {worst_orth:.2e}")
    _check(res, "qr greedy pivot dominance", greedy_ok)

    worst_svd = 0.0
    for _ in range(20):
        a = rng.normal(size=(6, 4))
        u, s, v = linalg.svd_thin(a)
        worst_svd = max(worst_svd, np.linalg.norm(a - (u * s) @ v.T) / np.linalg.norm(a))
    _check(res, "svd reconstruction", worst_svd < 1e-10, f"worst {worst_svd:.2e}")

    worst_mp = 0.0
    worst_double = 0.0
    for _ in range(20):
        a = rng.normal(size=(5, 3))
        ap = linalg.pinv(a)
        nrm = np.linalg.norm(a)
        worst_mp = max(
            worst_mp,
            np.linalg.norm(a @ ap @ a - a) / nrm,
            np.linalg.norm(ap @ a @ ap - ap) / np.linalg.norm(ap),
            np.linalg.norm((a @ ap).T - a @ ap),
            np.linalg.norm((ap @ a).T - ap @ a),
        )
        worst_double = max(worst_double, np.linalg.norm(linalg.pinv(ap) - a) / nrm)
    _check(res, "pinv Moore-Penrose identities", worst_mp < 1e-10, f"worst {worst_mp:.2e}")
    _check(res, "pinv of pinv returns input", worst_double < 1e-8, f"worst {worst_double:.2e}")

    worst_null = 0.0
    for _ in range(20):
        a = rng.normal(size=(3, 6))
        z = linalg.nullspace_orthonormal(a)
        worst_null = max(
            worst_null,
            np.linalg.norm(a @ z) / (1 + np.linalg.norm(a)),
            np.linalg.norm(z.T @ z - np.eye(z.shape[1])),
        )
    _check(res, "nullspace annihilated and orthonormal", worst_null < 1e-10, f"worst {worst_null:.2e}")
    return res


def pod_suite(seed=0, phi_override=None):
    """POD contracts on a rank-3 10 x 50 snapshot matrix, the wide
    orientation the presets take, and on its 50 x 10 transpose, the tall
    one large fields take. phi_override replaces the wide basis."""
    rng = np.random.default_rng(seed)
    res = []
    x = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 50))
    _pod_checks(res, rng, x, "", phi_override)
    _pod_checks(res, rng, x.T, " (tall 50 x 10 snapshots)", None)
    return res


def _pod_checks(res, rng, x, label, phi_override):
    dim = x.shape[0]
    basis = compute_pod(x, 2)
    phi = basis.phi if phi_override is None else np.asarray(phi_override, dtype=float)
    gram = np.linalg.norm(phi.T @ phi - np.eye(phi.shape[1]))
    _check(res, "basis orthonormality" + label, gram < 1e-10, f"||Phi^T Phi - I|| = {gram:.2e}")

    worst = 0.0
    for _ in range(20):
        u = rng.normal(size=dim)
        c = rng.normal(size=2)
        u_hat = phi @ (phi.T @ u)
        worst = max(
            worst,
            abs(np.dot(u - u_hat, phi @ c)) / (np.linalg.norm(u) * np.linalg.norm(c) + 1e-300),
        )
    _check(res, "orthogonal reconstruction residual perpendicular to range" + label,
           worst < 1e-10, f"worst {worst:.2e}")

    pod_err = sum(truncation_error(x[:, k], basis) for k in range(x.shape[1]))
    beaten = 0
    for _ in range(100):
        q = _random_orthonormal(rng, dim, 2)
        rand_basis = BasisMatrix(q)
        rand_err = sum(truncation_error(x[:, k], rand_basis) for k in range(x.shape[1]))
        if rand_err < pod_err - 1e-12:
            beaten += 1
    _check(res, "pod beats 100 random bases on summed truncation error" + label, beaten == 0,
           f"beaten {beaten} times")


def sensing_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []
    phi = _random_orthonormal(rng, 12, 5)
    basis = BasisMatrix(phi)
    sel_a = qdeim_place(basis, 3)
    sel_b = qdeim_place(basis, 3)
    _check(res, "placement deterministic", np.array_equal(sel_a.indices, sel_b.indices))

    worst_ri = worst_orth = 0.0
    for _ in range(20):
        core = _random_core(rng, 12, 6, 3)
        worst_ri = max(
            worst_ri,
            np.linalg.norm(core.s_phi @ core.s_phi_pinv - np.eye(3)),
        )
        worst_orth = max(
            worst_orth,
            np.linalg.norm(core.kernel_matrix.T @ core.s_phi_pinv),
        )
    _check(res, "pseudoinverse is a right inverse (n < m)", worst_ri < 1e-10, f"worst {worst_ri:.2e}")
    _check(res, "kernel orthogonal to pinv range", worst_orth < 1e-10, f"worst {worst_orth:.2e}")
    return res


def reconstruction_suite(seed=0):
    rng = np.random.default_rng(seed)
    res = []

    worst_interp = 0.0
    for _ in range(100):
        core = _random_core(rng, 10, 6, 3)
        y = rng.normal(size=3)
        rec = sdeim(core, y, rng.normal(size=core.kernel_dim))
        worst_interp = max(worst_interp, np.linalg.norm(observe(rec, core.selection) - y))
    _check(res, "interpolation property over 100 instances", worst_interp < 1e-10,
           f"worst {worst_interp:.2e}")

    # projection property fails when n < m, holds when n >= m
    core_under = _random_core(rng, 10, 6, 3)
    phi = core_under.basis.phi
    d_op = phi @ core_under.s_phi_pinv @ np.eye(10)[core_under.selection.indices, :]
    proj = phi @ phi.T
    dist_under = np.linalg.norm(d_op @ proj - proj)
    _check(res, "projection property fails for n < m", dist_under > 1e-6,
           f"distance {dist_under:.2e}")
    core_over = _random_core(rng, 10, 3, 6)
    phi_o = core_over.basis.phi
    d_over = phi_o @ core_over.s_phi_pinv @ np.eye(10)[core_over.selection.indices, :]
    proj_o = phi_o @ phi_o.T
    dist_over = np.linalg.norm(d_over @ proj_o - proj_o)
    _check(res, "projection property holds for n >= m", dist_over < 1e-9,
           f"distance {dist_over:.2e}")

    dpp = d_op @ proj
    _check(
        res,
        "D Phi Phi^T is an orthogonal projection (n < m)",
        np.linalg.norm(dpp @ dpp - dpp) < 1e-9 and np.linalg.norm(dpp - dpp.T) < 1e-9,
    )

    worst_pyth = 0.0
    bound_ok = True
    for _ in range(100):
        core = _random_core(rng, 10, 6, 3)
        u = rng.normal(size=10)
        rep = error_report(core, u, rng.normal(size=core.kernel_dim))
        lhs = rep.total_sq
        rhs = rep.trunc_sq + rep.oblique_sq + rep.kernel_sq
        worst_pyth = max(worst_pyth, abs(lhs - rhs) / (abs(lhs) + 1e-300))
        if np.sqrt(rep.total_sq) > rep.upper_bound + 1e-8 * (1 + rep.upper_bound):
            bound_ok = False
    _check(res, "error decomposition identity over 100 instances", worst_pyth < 1e-8,
           f"worst rel {worst_pyth:.2e}")
    _check(res, "upper bound dominates actual error", bound_ok)

    worst_norm_eq = 0.0
    for _ in range(10):
        core = _random_core(rng, 9, 5, 2)
        phi = core.basis.phi
        d_mat = phi @ core.s_phi_pinv @ np.eye(9)[core.selection.indices, :]
        worst_norm_eq = max(
            worst_norm_eq,
            abs(linalg.spectral_norm(d_mat) - linalg.spectral_norm(np.eye(9) - d_mat)),
        )
    _check(res, "projector norm identity ||D|| = ||I - D||", worst_norm_eq < 1e-8,
           f"worst {worst_norm_eq:.2e}")

    worst_two = 0.0
    for _ in range(50):
        phi = _random_orthonormal(rng, 10, 6)
        basis = BasisMatrix(phi)
        idx = rng.choice(10, size=4, replace=False)
        sel1 = SensorSelection(10, idx[:2])
        sel2 = SensorSelection(10, idx[2:])
        u = rng.normal(size=10)
        rec2 = two_stage_sdeim(basis, sel1, sel2, u[idx[:2]], u[idx[2:]])
        core_all = build_deim_core(basis, SensorSelection(10, idx))
        rec1 = vanilla_deim(core_all, u[idx])
        worst_two = max(
            worst_two,
            np.linalg.norm(rec2 - rec1) / (np.linalg.norm(rec1) + 1e-300),
        )
    _check(res, "two-stage equals single-stage over 50 instances", worst_two < 1e-8,
           f"worst rel {worst_two:.2e}")

    worst_opt = 0.0
    for _ in range(20):
        core = _random_core(rng, 8, 5, 2)
        u = rng.normal(size=8)
        xi_hat = optimal_kernel(core, u)
        # oracle: dense least squares for xi minimizing ||u~(Z xi) - u||
        base = core.basis.phi @ (core.s_phi_pinv @ u[core.selection.indices])
        phi_z = core.basis.phi @ core.kernel_matrix
        xi_ls, *_ = np.linalg.lstsq(phi_z, u - base, rcond=None)
        worst_opt = max(worst_opt, np.linalg.norm(xi_hat - xi_ls))
    _check(res, "optimal kernel matches least-squares oracle", worst_opt < 1e-8,
           f"worst {worst_opt:.2e}")
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
    run = das_deim(core, f_lin, series, xi0=xi0, dt=0.05 / 20)
    err0 = np.linalg.norm(run.reconstruction.states[0])
    envelope_ok = True
    worst_margin = 0.0
    for k, t in enumerate(times):
        err = np.linalg.norm(run.reconstruction.states[k])
        bound = err0 * np.exp(rho * t) * (1 + 1e-3)
        worst_margin = max(worst_margin, err - bound)
        if err > bound:
            envelope_ok = False
    _check(res, "exponential decay within e^(rho t) envelope", envelope_ok,
           f"worst overshoot {worst_margin:.2e}")

    # the kernel rhs never sees observation derivatives: series that agree
    # at shared sample times give identical rhs there
    core2 = _random_core(rng, 6, 4, 2)
    f2 = linear_field(rng.normal(size=(6, 6)))
    t_fine = 0.1 * np.arange(11)
    y_fine = rng.normal(size=(11, 2))
    series_fine = ObservationSeries(t_fine, y_fine)
    series_coarse = ObservationSeries(t_fine[::2], y_fine[::2])
    worst_dy = 0.0
    xi = rng.normal(size=core2.kernel_dim)
    for t in t_fine[::2]:
        r1 = kernel_rhs(core2, f2, series_fine, t, xi)
        r2 = kernel_rhs(core2, f2, series_coarse, t, xi)
        worst_dy = max(worst_dy, np.linalg.norm(r1 - r2))
    _check(res, "kernel rhs independent of interpolation slopes", worst_dy == 0.0,
           f"worst {worst_dy:.2e}")

    # brute-force instantaneous minimizer, including an explicit
    # finite-difference observation derivative
    worst_bf = 0.0
    for _ in range(10):
        core3 = _random_core(rng, 6, 4, 2)
        f3 = linear_field(rng.normal(size=(6, 6)))
        times3 = 0.1 * np.arange(6)
        y3 = rng.normal(size=(6, 2))
        series3 = ObservationSeries(times3, y3)
        xi = rng.normal(size=core3.kernel_dim)
        t_eval = 0.25
        rhs_val = kernel_rhs(core3, f3, series3, t_eval, xi)
        eps = 1e-6
        y_dot = (interpolate_obs(series3, t_eval + eps) - interpolate_obs(series3, t_eval - eps)) / (2 * eps)
        phi3 = core3.basis.phi
        u_rec = phi3 @ (core3.s_phi_pinv @ interpolate_obs(series3, t_eval)) + phi3 @ core3.kernel_matrix @ xi
        target = f3.rhs(u_rec) - phi3 @ (core3.s_phi_pinv @ y_dot)
        xi_dot_ls, *_ = np.linalg.lstsq(phi3 @ core3.kernel_matrix, target, rcond=None)
        worst_bf = max(worst_bf, np.linalg.norm(rhs_val - xi_dot_ls))
    _check(res, "kernel rhs matches brute-force instantaneous minimizer", worst_bf < 1e-8,
           f"worst {worst_bf:.2e}")

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
    ok = True
    for _ in range(1000):
        du = rng.normal(size=6)
        if du @ (p5 @ (a5 @ du)) > (rho5 + 1e-9) * du @ du:
            ok = False
            break
    _check(res, "sampled one-sided inequality holds at computed constant", ok)
    return res


ALL_SUITES = {
    "matrix-core": matrix_core_suite,
    "pod-basis": pod_suite,
    "sensing": sensing_suite,
    "reconstruction": reconstruction_suite,
    "dynamics": dynamics_suite,
    "assimilation": assimilation_suite,
}


def run_all(seed=0, corrupt_basis=False):
    """Execute every suite; returns {suite: [(name, passed, detail), ...]}.

    corrupt_basis injects a deliberately non-orthonormal basis into the
    pod suite (negative control for the harness itself).
    """
    report = {}
    for name, fn in ALL_SUITES.items():
        if name == "pod-basis" and corrupt_basis:
            bad = np.eye(10)[:, :2]
            bad[0, 0] = 1.01
            report[name] = fn(seed=seed, phi_override=bad)
        else:
            report[name] = fn(seed=seed)
    return report

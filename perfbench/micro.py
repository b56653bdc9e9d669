"""Layer microbenchmarks at fixed shapes, independent of the workload.

Each timing is the median of warm repeats (REPEATS, or 3 for the slow
ones), after one warm-up call. Flop and byte counts
are computed from the shapes (labelled "computed"), not measured.
"""

import statistics
import time

import numpy as np

import workloads

REPEATS = 5
STEPS = 4000            # RK4 steps per dynamics timing
CALLS = 2000            # calls per per-call timing
# The field_recon shape: grid points, POD modes, sensors.
GRID = workloads.FieldSpec.n_grid
MODES, SENSORS = workloads.FIELD_MODES, workloads.FIELD_ERR_SENSORS


def _median_time(fn, repeats=REPEATS):
    fn()  # warm-up
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def _orthonormal(rng, n, m):
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return q


def svd_gflop(rows, cols):
    """Computed flops of a thin SVD with vectors (Golub & Van Loan, R-SVD:
    4 M K^2 + 22 K^3 with M >= K), in Gflop."""
    big, small = max(rows, cols), min(rows, cols)
    return (4.0 * big * small**2 + 22.0 * small**3) / 1e9


def dynamics(sdeim):
    from sdeim.dynamics import rk4_step

    out = {}
    for tag, f, dt in (("l63", sdeim.lorenz63(), 1e-3), ("l96", sdeim.lorenz96(40, 2.0), 1e-3)):
        u0 = np.linspace(1.0, 2.0, f.dim)

        def steps():
            u = u0
            for _ in range(STEPS):
                u = rk4_step(f, u, dt)

        step = _median_time(steps) / STEPS * 1e6
        drive = _median_time(lambda: sdeim.integrate(f, u0, STEPS * dt, dt, record_every=10))
        drive = drive / STEPS * 1e6
        out[f"dynamics.{tag}.rk4_step_us"] = step
        out[f"dynamics.{tag}.integrate_step_us"] = drive
        out[f"dynamics.{tag}.integrate_overhead_us"] = drive - step
    return out


def assimilate(sdeim):
    """Kernel ODE pieces on a Lorenz63 core with m = 3 modes, n = 1 sensor."""
    f = sdeim.lorenz63()
    train = sdeim.integrate(f, np.array([1.0, 1.0, 1.0]), 20.0, 1e-2)
    test = sdeim.integrate(f, np.array([-5.0, 4.0, 20.0]), 2.0, 1e-2)
    basis = sdeim.compute_pod(train.states.T, 3)
    core = sdeim.build_deim_core(basis, sdeim.qdeim_place(basis.leading(1), 1))
    series = sdeim.observe_trajectory(test.times, test.states, core.selection)
    n_sub = 20
    substeps = (series.times.size - 1) * n_sub
    das = _median_time(lambda: sdeim.das_deim(core, f, series, dt=series.dt / n_sub), 3)
    ts = np.linspace(series.times[0], series.times[-1], CALLS)
    xi = np.full(core.kernel_dim, 0.1)

    def interp():
        for t in ts:
            sdeim.interpolate_obs(series, t)

    def kernel():
        for t in ts:
            sdeim.kernel_rhs(core, f, series, t, xi)

    return {
        "assimilate.substep_us": das / substeps * 1e6,
        "assimilate.interpolate_obs_us": _median_time(interp) / CALLS * 1e6,
        "assimilate.kernel_rhs_us": _median_time(kernel) / CALLS * 1e6,
    }


def pod(sdeim):
    rng = np.random.default_rng(0)
    out = {}
    for tag, shape, m in (("wide", (40, 20001), 5), ("tall", (GRID, 400), MODES)):
        x = rng.standard_normal(shape)
        out[f"pod.{tag}_s"] = _median_time(lambda: sdeim.compute_pod(x, m), 3)
        out[f"pod.{tag}_gflop"] = svd_gflop(*shape)
    return out


def sensing(sdeim):
    rng = np.random.default_rng(1)
    out = {}
    for size in (1_000, GRID):
        basis = sdeim.BasisMatrix(_orthonormal(rng, size, MODES))
        sel = sdeim.qdeim_place(basis, SENSORS)
        out[f"sensing.place_n{size}_s"] = _median_time(lambda: sdeim.qdeim_place(basis, SENSORS))
        reps = 200

        def cores():
            for _ in range(reps):
                sdeim.build_deim_core(basis, sel)

        out[f"sensing.core_n{size}_us"] = _median_time(cores) / reps * 1e6
    return out


def reconstruct(sdeim):
    """Per-call cost at the field_recon shape, with computed flops and
    bytes of float64 operands read and written."""
    size, m, n = GRID, MODES, SENSORS
    rng = np.random.default_rng(2)
    basis = sdeim.BasisMatrix(_orthonormal(rng, size, m))
    core = sdeim.build_deim_core(basis, sdeim.qdeim_place(basis, n))
    u = basis.phi @ rng.standard_normal(m) + 1e-3 * rng.standard_normal(size)
    y = sdeim.observe(u, core.selection)
    z = sdeim.optimal_kernel(core, u)
    k = m - n
    calls = {
        "vanilla_deim": (lambda: sdeim.vanilla_deim(core, y), CALLS,
                         2 * m * n + m + 2 * size * m,
                         m * n + n + size * m + size),
        "sdeim": (lambda: sdeim.sdeim(core, y, z), CALLS,
                  2 * m * n + 2 * m * k + m + 2 * size * m,
                  m * n + n + m * k + k + size * m + size),
        "error_report": (lambda: sdeim.error_report(core, u, z), CALLS // 4,
                         10 * size * m + 4 * m * n + 4 * m * k + 10 * size,
                         5 * size * m + 2 * m * n + 2 * m * k + 8 * size),
    }
    out = {}
    for name, (fn, reps, flop, words) in calls.items():
        def loop():
            for _ in range(reps):
                fn()

        out[f"reconstruct.{name}_us"] = _median_time(loop) / reps * 1e6
        out[f"reconstruct.{name}_flop"] = float(flop)
        out[f"reconstruct.{name}_bytes"] = float(8 * words)
    return out


def run_all(sdeim):
    out = {}
    for part in (dynamics, assimilate, pod, sensing, reconstruct):
        out.update(part(sdeim))
    return out

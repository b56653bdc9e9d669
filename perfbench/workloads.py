"""The benchmark's workloads: inputs, one pass, and the correctness checks.

Every workload drives `sdeim` only through its public functions. A pass
returns a `PassResult` whose `failures` lists the correctness checks it
failed (empty when the pass is correct).

- `l63`: the bundled `lorenz63` preset, with shorter horizons, through
  `sdeim.cli.main(["pipeline", ...])` in-process. `--seed` becomes the
  config seed (it drives the observation noise, which this preset sets
  to zero).
- `field_recon`: a seeded travelling-wave field generated here in numpy;
  POD, a sensor sweep and per-state reconstruction at N = 10^4. No time
  integration runs, so dynamics work shows nothing here.
"""

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("l63", "field_recon")
PRESET = "lorenz63"
# A full-preset pass (spin-up 100, train 200, test 50) takes 16-20 s; on a
# 2-core VM whose speed drifts by up to 2x, single passes that long
# spread ~40% from run to run. With these horizons a pass takes 2-3 s,
# split about evenly between generate and assimilate as in the full
# preset, and a run holds about twenty; acceptance criteria 1, 3 and 6
# still hold.
HORIZONS = {"spinup": 10.0, "train_horizon": 20.0, "test_horizon": 5.0}

# Observe+vanilla latency is sampled over the test states at least this
# many times per pass (~0.25 s): 30 batches of worker.LATENCY_BATCH.
MIN_LATENCY_SAMPLES = 30000

# field_recon: POD modes, the sensor sweep, and the sensor count whose
# errors are reported.
FIELD_MODES = 20
FIELD_SWEEP = (4, 8, 12, 16, 20)
FIELD_ERR_SENSORS = 8

INTERP_RTOL = 1e-10
IDENTITY_RTOL = 1e-10


@dataclass
class PassResult:
    """What one pass did, measured and returned."""

    wall_s: float
    digest: str                          # sha256 of the pass's summary bytes
    latencies_us: list = field(default_factory=list)
    estimator_s: float = 0.0             # the kernel-estimation stage
    estimator_samples: int = 0           # sensor samples it consumed
    dasdeim_err: float = float("nan")
    vanilla_err: float = float("nan")
    timings: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------- field


@dataclass(frozen=True)
class FieldSpec:
    """Field size; the tests shrink it."""

    n_grid: int = 10_000
    n_train: int = 400
    n_test: int = 200
    wavenumbers: int = 16
    dt: float = 0.05


def make_field(seed, spec=FieldSpec()):
    """Travelling waves u(x, t) = sum_k k^-1 cos(k (x - c_k t) + p_k) on a
    periodic grid of spec.n_grid points, with c_k = 1 + sin(k) / 2.

    The seed draws the phases p_k and which held-out times are test
    states. (Drawing the speeds too made the reported errors spread ~15%
    from seed to seed; with fixed speeds they spread ~1%.) Wavenumbers
    1..K give a numerical rank of 2K. Training snapshots sit on t_j = j dt;
    test states sit at midpoints between them. Returns (train, test), one
    state per column.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(1, spec.wavenumbers + 1, dtype=float)
    phase = rng.uniform(0.0, 2.0 * np.pi, k.size)
    speed = 1.0 + 0.5 * np.sin(k)
    amp = 1.0 / k
    x = 2.0 * np.pi * np.arange(spec.n_grid) / spec.n_grid
    t_train = spec.dt * np.arange(spec.n_train)
    mid = rng.choice(spec.n_train - 1, size=spec.n_test, replace=False)
    t_test = spec.dt * (np.sort(mid) + 0.5)

    kx = k[None, :] * x[:, None]
    waves = np.hstack([np.cos(kx), np.sin(kx)])        # N x 2K

    def states(t):
        # cos(k (x - c t) + p) = cos(kx) cos(kct - p) + sin(kx) sin(kct - p)
        theta = (k * speed)[:, None] * t[None, :] - phase[:, None]
        return waves @ np.vstack([amp[:, None] * np.cos(theta), amp[:, None] * np.sin(theta)])

    return states(t_train), states(t_test)


def field_pass(sdeim, train, test):
    """POD, the sensor sweep, and every test state reconstructed at every n.

    The interpolation and error-identity checks run inline on each state;
    their time is taken out of the pass's wall time.
    """
    pod, sensing, reconstruct = sdeim.pod, sdeim.sensing, sdeim.reconstruct
    clock = time.perf_counter
    lat = []
    est_s = check_s = 0.0
    est_samples = 0
    failures = []
    summary = {}
    t_pass = clock()
    basis = pod.compute_pod(train, FIELD_MODES)
    for n in FIELD_SWEEP:
        sel = sensing.qdeim_place(basis, n)
        core = sensing.build_deim_core(basis, sel)
        idx = sel.indices
        e_v = e_s = 0.0
        for u in test.T:
            t0 = clock()
            y = sensing.observe(u, sel)
            u_v = reconstruct.vanilla_deim(core, y)
            t1 = clock()
            z = reconstruct.optimal_kernel(core, u)
            u_s = reconstruct.sdeim(core, y, z)
            t2 = clock()
            rep = reconstruct.error_report(core, u, z)
            t3 = clock()
            lat.append((t1 - t0) * 1e6)
            est_s += t2 - t0
            est_samples += y.size
            tol = INTERP_RTOL * (1.0 + np.linalg.norm(y))
            for name, rec in (("vanilla", u_v), ("sdeim", u_s)):
                miss = np.linalg.norm(rec[idx] - y)
                if not miss <= tol:
                    failures.append(f"n={n}: {name} misses the samples by {miss:.3e}")
            parts = rep.trunc_sq + rep.oblique_sq + rep.kernel_sq
            if not abs(rep.total_sq - parts) <= IDENTITY_RTOL * max(rep.total_sq, parts):
                failures.append(f"n={n}: error identity off by {rep.total_sq - parts:.3e}")
            norm_u = np.linalg.norm(u)
            e_v += np.linalg.norm(u_v - u) / norm_u
            e_s += np.linalg.norm(u_s - u) / norm_u
            check_s += clock() - t3
        summary[str(n)] = {
            "sensors": [int(i) for i in idx],
            "vanilla_mean_rel_err": e_v / test.shape[1],
            "sdeim_mean_rel_err": e_s / test.shape[1],
        }
    wall = clock() - t_pass - check_s
    summary["singular_values"] = [float(s) for s in basis.singular_values[: FIELD_MODES + 1]]
    ref = summary[str(FIELD_ERR_SENSORS)]
    return PassResult(
        wall_s=wall,
        digest=_sha256(json.dumps(summary, sort_keys=True).encode()),
        latencies_us=lat,
        estimator_s=est_s,
        estimator_samples=est_samples,
        dasdeim_err=ref["sdeim_mean_rel_err"],
        vanilla_err=ref["vanilla_mean_rel_err"],
        failures=failures,
    )


# ------------------------------------------------------------- presets


class PipelineWorkload:
    """The lorenz63 preset, with `horizons` overriding its horizons, run
    through the CLI `pipeline` subcommand in-process.

    The config is written to work_dir/config.json and passed by --config;
    artifacts go to work_dir/out. The CLI's `run_pipeline` is wrapped from
    outside to keep the returned PipelineResult, whose stage timings and
    summary the metrics use.
    """

    def __init__(self, sdeim, seed, work_dir, horizons=HORIZONS):
        self.sdeim = sdeim
        self.seed = seed
        work_dir = Path(work_dir)
        self.out_dir = work_dir / "out"
        cfg = sdeim.experiments.load_preset(PRESET)
        for key, value in horizons.items():
            setattr(cfg, key, value)
        config_path = work_dir / "config.json"
        sdeim.experiments.config_to_json(cfg, config_path)
        self.config_args = ["--config", str(config_path)]
        self._captured = None
        cli = sdeim.cli
        inner = cli.run_pipeline

        def capture(cfg, write=True):
            self._captured = inner(cfg, write)
            return self._captured

        cli.run_pipeline = capture

    def run_pass(self):
        """One CLI pipeline pass; returns it with the PipelineResult."""
        argv = ["pipeline", *self.config_args, "--seed", str(self.seed),
                "--out", str(self.out_dir)]
        self._captured = None
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = self.sdeim.cli.main(argv)
        wall = time.perf_counter() - t0
        result = self._captured
        s = result.summary
        res = PassResult(
            wall_s=wall,
            digest=_sha256((self.out_dir / "summary.json").read_bytes()),
            estimator_s=result.timings["assimilate"],
            estimator_samples=int(result.observations.samples.size),
            dasdeim_err=s["dasdeim_post_transient_mean"],
            vanilla_err=s["vanilla_mean_rel_err"],
            timings=dict(result.timings),
            failures=[] if code == 0 else [f"pipeline exited with {code}"],
        )
        return res, result

    def recon_latencies(self, result):
        """observe -> vanilla_deim per test state, with the pipeline's basis,
        sensors and vanilla mode count."""
        sensing, reconstruct = self.sdeim.sensing, self.sdeim.reconstruct
        cfg = result.config
        core = sensing.build_deim_core(
            result.basis.leading(cfg.vanilla_modes or cfg.n_modes), result.selection)
        states = result.test.states - result.mean
        reps = -(-MIN_LATENCY_SAMPLES // states.shape[0])
        clock = time.perf_counter
        lat = []
        for _ in range(reps):
            for u in states:
                t0 = clock()
                reconstruct.vanilla_deim(core, sensing.observe(u, result.selection))
                lat.append((clock() - t0) * 1e6)
        return lat

    @staticmethod
    def check_summary(result):
        """Acceptance criteria 1, 3 and 6 for lorenz63, without their runtime
        budgets. Returns the failed ones."""
        s = result.summary
        bad = []
        v1 = s["vanilla_by_modes"]["1"]["mean"]
        if not 0.25 <= v1 <= 0.50:
            bad.append(f"criterion 1: vanilla n=m=1 error {v1:.4f}")
        mean, low = s["dasdeim_post_transient_mean"], s["dasdeim_post_transient_min"]
        if not (mean < 1e-3 and low < 5e-4):
            bad.append(f"criterion 3: assimilation {mean:.2e}/{low:.2e}")
        if s["sensor_indices"] != [1]:
            bad.append(f"criterion 6: sensors {s['sensor_indices']}")
        return bad


def _sha256(data):
    return hashlib.sha256(data).hexdigest()

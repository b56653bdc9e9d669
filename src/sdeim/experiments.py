"""Configuration-driven experiment pipeline.

A pipeline run generates training/test trajectories, extracts a basis,
places sensors, reconstructs the test trajectory from pointwise samples
(plain interpolation baseline and kernel-ODE assimilation), and writes
plot-ready CSV plus a machine-readable summary.

When `center` is set, the estimation works in fluctuation coordinates:
the training mean is subtracted from snapshots and observations, and
added back to every reconstruction before errors are taken against the
full state. All reconstruction contracts hold verbatim in the shifted
coordinates; the vector field is shifted accordingly for assimilation.
"""

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import linalg
from .assimilate import das_deim, post_transient_mean, relative_error_series
from .dynamics import Trajectory, advance, integrate, linear_field, lorenz63, lorenz96, shifted_field
from .errors import ConfigError
from .pod import BasisMatrix, compute_pod
from .reconstruct import prefactor_curve
from .sensing import (
    NoiseSpec,
    ObservationSeries,
    SensorSelection,
    add_noise,
    build_deim_core,
    observe_trajectory,
    qdeim_place,
)


@dataclass
class ExperimentConfig:
    system: str
    params: dict = field(default_factory=dict)
    n_state: int = 3
    n_modes: int = 3
    n_sensors: int = 1
    train_horizon: float = 200.0
    test_horizon: float = 50.0
    spinup: float = 100.0
    obs_dt: float = 0.2
    noise_std: float = 0.0
    seed: int = 0
    output_dir: str = "."
    dt: float = 1e-3
    spinup_dt: float = 0.01
    snapshot_dt: float = 0.01
    center: bool = False
    placement_modes: int = 0          # 0 -> use n_modes
    vanilla_modes: int = 0            # 0 -> use n_modes
    vanilla_sweep: list = field(default_factory=list)
    kernel_substeps: int = 20
    transient_fraction: float = 0.25
    train_ic: list = field(default_factory=list)
    test_ic: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("train_horizon", "test_horizon", "obs_dt", "dt", "spinup_dt", "snapshot_dt"):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be positive")
        if self.spinup < 0:
            raise ConfigError("spinup", "must be nonnegative")
        if not 1 <= self.n_sensors <= self.n_modes:
            raise ConfigError("n_sensors", "need 1 <= n_sensors <= n_modes")
        if self.kernel_substeps < 1:
            raise ConfigError("kernel_substeps", "must be >= 1")
        # uniform recorded grids: each spacing or span a whole number of steps
        for name, step in (("obs_dt", "dt"), ("snapshot_dt", "dt"),
                           ("spinup", "spinup_dt"), ("test_horizon", "obs_dt")):
            size = getattr(self, step)
            ratio = getattr(self, name) / size
            n = round(ratio)
            if ratio > 0 and (n < 1 or abs(ratio - n) > 1e-9 * n):
                raise ConfigError(name, f"must be a whole multiple of {step}={size}")
        dim = build_field(self).dim
        if self.n_state != dim:
            raise ConfigError("n_state", f"{self.n_state} is not the built field's dim {dim}")

    @classmethod
    def from_dict(cls, d):
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _preset_dir():
    return Path(__file__).parent / "presets"


def list_presets():
    return sorted(p.stem for p in _preset_dir().glob("*.json"))


def load_preset(name):
    path = _preset_dir() / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(f"no preset named {name!r}; available: {list_presets()}")
    return ExperimentConfig.from_json(path)


def build_field(config):
    p = config.params
    if config.system == "lorenz63":
        return lorenz63(p.get("sigma", 10.0), p.get("rho", 28.0), p.get("beta", 8.0 / 3.0))
    if config.system == "lorenz96":
        return lorenz96(int(p.get("N", config.n_state)), p.get("F", 2.0))
    if config.system == "linear":
        return linear_field(np.array(p["matrix"], dtype=float))
    raise ConfigError("system", f"unknown system {config.system!r}")


def _default_ics(config, f):
    if config.train_ic and config.test_ic:
        return np.array(config.train_ic, float), np.array(config.test_ic, float)
    if config.system == "lorenz63":
        return np.array([1.0, 1.0, 1.0]), np.array([-5.0, 4.0, 20.0])
    if config.system == "lorenz96":
        forcing = f.params["F"]
        u_tr = forcing * np.ones(f.dim)
        u_tr[f.dim // 2 - 1] += 0.01
        u_te = forcing * np.ones(f.dim)
        u_te[7 % f.dim] += 0.008
        return u_tr, u_te
    rng = np.random.default_rng(config.seed)
    return rng.normal(size=f.dim), rng.normal(size=f.dim)


def generate_trajectories(config):
    """Spin up past the transient, then record the training and test
    trajectories (training on the snapshot grid, test on the observation
    grid)."""
    f = build_field(config)
    u_tr, u_te = _default_ics(config, f)
    if config.spinup > 0:
        u_tr = advance(f, u_tr, config.spinup, config.spinup_dt)
        u_te = advance(f, u_te, config.spinup, config.spinup_dt)
    snap_every = max(1, int(round(config.snapshot_dt / config.dt)))
    obs_every = max(1, int(round(config.obs_dt / config.dt)))
    train = integrate(f, u_tr, config.train_horizon, config.dt, record_every=snap_every)
    test = integrate(f, u_te, config.test_horizon, config.dt, record_every=obs_every)
    return f, train, test


@dataclass
class PipelineResult:
    config: ExperimentConfig
    train: Trajectory
    test: Trajectory
    mean: np.ndarray
    basis: BasisMatrix
    raw_singular_values: np.ndarray
    selection: SensorSelection
    observations: ObservationSeries
    errors_vanilla: dict
    errors_dasdeim: np.ndarray
    xi_path: np.ndarray
    reconstruction: Trajectory
    prefactors_fixed: list
    prefactors_replaced: list
    summary: dict
    timings: dict


def run_pipeline(config, write=True):
    """Run every stage; returns the full result bundle and, unless
    write=False, emits the CSV/JSON artifacts into config.output_dir."""
    timings = {}
    t0 = time.perf_counter()
    f, train, test = generate_trajectories(config)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mean = train.states.mean(axis=0) if config.center else np.zeros(f.dim)
    snapshots = (train.states - mean).T
    basis = compute_pod(snapshots, config.n_modes)
    raw_sv = (
        basis.singular_values
        if not config.center
        else np.linalg.svd(train.states.T, compute_uv=False)
    )
    timings["pod"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_modes = config.placement_modes or config.n_modes
    selection = qdeim_place(basis.leading(p_modes), config.n_sensors)
    timings["place"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    clean = observe_trajectory(test.times, test.states - mean, selection)
    observations = add_noise(clean, NoiseSpec(config.noise_std, config.seed))
    timings["observe"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errors_vanilla = {}
    v_modes = config.vanilla_modes or config.n_modes
    for m_v in sorted({v_modes, *config.vanilla_sweep}):
        core_v = build_deim_core(basis.leading(m_v), selection)
        coeffs = core_v.s_phi_pinv @ observations.samples.T
        rec = mean + (core_v.basis.phi @ coeffs).T
        errors_vanilla[m_v] = relative_error_series(Trajectory(test.times, rec), test)
    timings["vanilla"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    core = build_deim_core(basis, selection)
    if core.kernel_dim > 0:
        f_est = shifted_field(f, mean) if config.center else f
        run = das_deim(
            core, f_est, observations, dt=config.obs_dt / config.kernel_substeps
        )
        xi_path = run.xi_path
        rec_states = mean + run.reconstruction.states
    else:
        coeffs = core.s_phi_pinv @ observations.samples.T
        xi_path = np.zeros((test.times.size, 0))
        rec_states = mean + (core.basis.phi @ coeffs).T
    reconstruction = Trajectory(test.times, rec_states)
    errors_das = relative_error_series(reconstruction, test)
    timings["assimilate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    m_lo = config.n_sensors
    m_range = list(range(m_lo, config.n_modes + 1))
    pf_fixed = prefactor_curve(basis, config.n_sensors, m_range)
    pf_replaced = prefactor_curve(basis, config.n_sensors, m_range, replace_sensors=True)
    timings["prefactor"] = time.perf_counter() - t0

    cut = config.transient_fraction
    sv = basis.singular_values
    das_post = errors_das[int(len(errors_das) * cut):]
    summary = {
        "system": config.system,
        "vanilla_mean_rel_err": float(np.nanmean(errors_vanilla[v_modes])),
        "vanilla_post_transient_mean": post_transient_mean(errors_vanilla[v_modes], cut),
        "vanilla_by_modes": {
            str(m_v): {
                "mean": float(np.nanmean(e)),
                "post_transient_mean": post_transient_mean(e, cut),
            }
            for m_v, e in errors_vanilla.items()
        },
        "dasdeim_post_transient_mean": post_transient_mean(errors_das, cut),
        "dasdeim_post_transient_min": float(np.nanmin(das_post)),
        "sensor_indices": [int(i) for i in selection.indices],
        "sigma5": float(sv[4]) if sv.size > 4 else None,
        "sigma6": float(sv[5]) if sv.size > 5 else None,
        "sigma5_raw": float(raw_sv[4]) if raw_sv.size > 4 else None,
        "sigma6_raw": float(raw_sv[5]) if raw_sv.size > 5 else None,
        "prefactor_curve": [[m, v] for m, v in pf_fixed],
        "prefactor_curve_replaced": [[m, v] for m, v in pf_replaced],
        "n_modes": config.n_modes,
        "n_sensors": config.n_sensors,
        "noise_std": config.noise_std,
        "seed": config.seed,
        "center": config.center,
        "obs_dt": config.obs_dt,
    }

    result = PipelineResult(
        config=config,
        train=train,
        test=test,
        mean=mean,
        basis=basis,
        raw_singular_values=raw_sv,
        selection=selection,
        observations=observations,
        errors_vanilla=errors_vanilla,
        errors_dasdeim=errors_das,
        xi_path=xi_path,
        reconstruction=reconstruction,
        prefactors_fixed=pf_fixed,
        prefactors_replaced=pf_replaced,
        summary=summary,
        timings=timings,
    )
    if write:
        write_artifacts(result)
    return result


def write_artifacts(result):
    out = Path(result.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.train.to_csv(out / "train.csv")
    result.test.to_csv(out / "test.csv")
    linalg.save_matrix_csv(out / "singular_values.csv", result.basis.singular_values.reshape(-1, 1))
    result.selection.to_csv(out / "sensors.csv")
    result.observations.to_csv(out / "observations.csv")
    v_modes = result.config.vanilla_modes or result.config.n_modes
    linalg.save_matrix_csv(
        out / "errors_vanilla.csv",
        np.column_stack([result.test.times, result.errors_vanilla[v_modes]]),
    )
    linalg.save_matrix_csv(
        out / "errors_dasdeim.csv",
        np.column_stack([result.test.times, result.errors_dasdeim]),
    )
    linalg.save_matrix_csv(
        out / "xi_path.csv",
        np.column_stack([result.test.times, result.xi_path])
        if result.xi_path.shape[1]
        else result.test.times.reshape(-1, 1),
    )
    result.reconstruction.to_csv(out / "reconstruction.csv")
    linalg.save_matrix_csv(
        out / "prefactor_curve.csv",
        np.array(result.prefactors_fixed, dtype=float),
    )
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "timings.json", "w") as fh:
        json.dump(result.timings, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_to_json(config, path):
    with open(path, "w") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

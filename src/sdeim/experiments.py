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
import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import linalg
from .assimilate import (KERNEL_SUBSTEPS, TRANSIENT_FRACTION, das_deim, post_transient_mean,
                         relative_error_series)
from .dynamics import Trajectory, advance, integrate, linear_field, lorenz63, lorenz96, shifted_field
from .errors import ConfigError
from .pod import BasisMatrix, compute_pod, singular_values
from .reconstruct import prefactor_curve, vanilla_deim
from .sensing import (
    NoiseSpec,
    ObservationSeries,
    SensorSelection,
    add_noise,
    build_deim_core,
    observe_trajectory,
    qdeim_place,
)


# Fixed step sizes: the RK4 step of the recorded trajectories, the spin-up
# step, and the spacing of the training snapshots.
DT = 1e-3
SPINUP_DT = 0.01
SNAPSHOT_DT = 0.01


@dataclass
class ExperimentConfig:
    system: str
    train_ic: list
    test_ic: list
    params: dict = field(default_factory=dict)
    n_modes: int = 3
    n_sensors: int = 1
    train_horizon: float = 200.0
    test_horizon: float = 50.0
    spinup: float = 100.0
    obs_dt: float = 0.2
    noise_std: float = 0.0
    seed: int = 0
    output_dir: str = "."
    center: bool = False
    placement_modes: int = 0          # 0 -> use n_modes
    vanilla_modes: int = 0            # 0 -> use n_modes
    kernel_substeps: ClassVar[int] = KERNEL_SUBSTEPS

    def __post_init__(self):
        for name in ("train_horizon", "test_horizon", "obs_dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(name, "must be positive and finite")
        for name in ("spinup", "noise_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(name, "must be finite and nonnegative")
        m, dim = self.n_modes, build_field(self).dim
        if not 1 <= m <= dim:
            raise ConfigError("n_modes", f"{m} is not within 1..dim={dim}")
        for name, low, k in (("n_sensors", 1, self.n_sensors),
                             ("placement_modes", self.n_sensors, self.placement_modes or m),
                             ("vanilla_modes", 1, self.vanilla_modes or m)):
            if not low <= k <= m:
                raise ConfigError(name, f"{getattr(self, name)} is not within {low}..n_modes={m}")
        # uniform recorded grids: each spacing or span a whole number of steps
        for name, step, size in (("obs_dt", "DT", DT), ("spinup", "SPINUP_DT", SPINUP_DT),
                                 ("test_horizon", "obs_dt", self.obs_dt)):
            ratio = getattr(self, name) / size
            n = round(ratio)
            if ratio > 0 and (n < 1 or abs(ratio - n) > 1e-9 * n):
                raise ConfigError(name, f"must be a whole multiple of {step}={size}")
        for name in ("train_ic", "test_ic"):
            ic = getattr(self, name)
            if len(ic) != dim:
                raise ConfigError(name, f"length {len(ic)} is not the state dim {dim}")
            if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in ic):
                raise ConfigError(name, "every entry must be a finite number")

    @classmethod
    def from_dict(cls, d):
        """The config from a dict of field values; a key that names no
        field, or a required field left out, raises ConfigError(key)."""
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(key, "is not a config field")
        for f in fields(cls):
            if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f.name, "is required")
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
        return lorenz96(int(p.get("N", 40)), p.get("F", 2.0))
    if config.system == "linear":
        return linear_field(np.array(p["matrix"], dtype=float))
    raise ConfigError("system", f"unknown system {config.system!r}")


def generate_trajectories(config):
    """Spin up past the transient, then record the training and test
    trajectories (training on the snapshot grid, test on the observation
    grid)."""
    f = build_field(config)
    u_tr, u_te = np.array(config.train_ic, float), np.array(config.test_ic, float)
    if config.spinup > 0:
        u_tr = advance(f, u_tr, config.spinup, SPINUP_DT)
        u_te = advance(f, u_te, config.spinup, SPINUP_DT)
    train = integrate(f, u_tr, config.train_horizon, DT, record_every=round(SNAPSHOT_DT / DT))
    test = integrate(f, u_te, config.test_horizon, DT, record_every=round(config.obs_dt / DT))
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


def fit_basis(config, train):
    """The basis stage: the training mean (zero unless config.center) and
    the POD of the training fluctuations about it, n_modes modes."""
    mean = train.states.mean(axis=0) if config.center else np.zeros(train.states.shape[1])
    return mean, compute_pod((train.states - mean).T, config.n_modes)


def place_sensors(config, basis):
    """The placement stage: Q-DEIM on the leading placement_modes modes
    (n_modes when 0)."""
    return qdeim_place(basis.leading(config.placement_modes or config.n_modes), config.n_sensors)


@contextmanager
def _stage(timings, name):
    """Time one pipeline stage into timings[name]; an exception raised in
    it carries the stage's name as exc.stage."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise
    timings[name] = time.perf_counter() - t0


def run_pipeline(config, write=True):
    """Run every stage; returns the full result bundle and, unless
    write=False, emits the CSV/JSON artifacts into config.output_dir."""
    timings = {}
    with _stage(timings, "generate"):
        f, train, test = generate_trajectories(config)

    with _stage(timings, "pod"):
        mean, basis = fit_basis(config, train)
        raw_sv = basis.singular_values if not config.center else singular_values(train.states.T)

    with _stage(timings, "place"):
        selection = place_sensors(config, basis)

    with _stage(timings, "observe"):
        clean = observe_trajectory(test.times, test.states - mean, selection)
        observations = add_noise(clean, NoiseSpec(config.noise_std, config.seed))

    v_modes = config.vanilla_modes or config.n_modes
    with _stage(timings, "vanilla"):
        cores, errors_vanilla = {}, {}
        for m_v in sorted({v_modes, config.n_modes}):
            cores[m_v] = build_deim_core(basis.leading(m_v), selection)
            rec = mean + vanilla_deim(cores[m_v], observations.samples)
            errors_vanilla[m_v] = relative_error_series(Trajectory(test.times, rec), test)

    with _stage(timings, "assimilate"):
        f_est = shifted_field(f, mean) if config.center else f
        run = das_deim(cores[config.n_modes], f_est, observations)
        reconstruction = Trajectory(test.times, mean + run.reconstruction.states)
        errors_das = relative_error_series(reconstruction, test)

    with _stage(timings, "prefactor"):
        m_range = list(range(config.n_sensors, config.n_modes + 1))
        pf_fixed = prefactor_curve(basis, config.n_sensors, m_range)
        pf_replaced = prefactor_curve(basis, config.n_sensors, m_range, replace_sensors=True)

    sv = basis.singular_values
    das_post = errors_das[int(len(errors_das) * TRANSIENT_FRACTION):]
    summary = {
        "system": config.system,
        "vanilla_mean_rel_err": float(np.nanmean(errors_vanilla[v_modes])),
        "vanilla_post_transient_mean": post_transient_mean(errors_vanilla[v_modes]),
        "vanilla_by_modes": {
            str(m_v): {
                "mean": float(np.nanmean(e)),
                "post_transient_mean": post_transient_mean(e),
            }
            for m_v, e in errors_vanilla.items()
        },
        "dasdeim_post_transient_mean": post_transient_mean(errors_das),
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
        xi_path=run.xi_path,
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
        np.column_stack([result.test.times, result.xi_path]),
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

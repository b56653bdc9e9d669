"""Configuration-driven experiment pipeline.

A pipeline run generates training/test trajectories, extracts a basis,
places sensors, reconstructs the test trajectory from pointwise samples
(plain interpolation baseline and kernel-ODE assimilation), and writes
plot-ready CSV plus a machine-readable summary.

When `center` is set, the estimation works in fluctuation coordinates:
the training mean is subtracted from snapshots and observations, and
added back to every reconstruction before errors are taken against the
full state. All reconstruction contracts hold verbatim in the shifted
coordinates; assimilation gets the mean as das_deim's offset, so the
vector field is evaluated at full states.
"""

import json
import math
import numbers
import time
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from . import linalg
from .assimilate import (KERNEL_SUBSTEPS, das_deim, post_transient, post_transient_mean,
                         relative_error_series)
from .dynamics import Trajectory, advance, integrate, linear_field, lorenz63, lorenz96, whole_steps
from .errors import ConfigError
from .pod import BasisMatrix, compute_pod
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

FIELDS = {"lorenz63": lorenz63, "lorenz96": lorenz96, "linear": linear_field}
JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
              str: "string", list: "array"}


def _is_number(v, kind=numbers.Real):
    """v is an instance of kind (numbers.Real or numbers.Integral) and not a bool."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _finite_number(v):
    return _is_number(v) and math.isfinite(v)


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
        if type(self.center) is not bool:
            raise ConfigError("center", f"must be true or false, got {self.center!r}")
        for kind, what, names in (
                (numbers.Integral, "an integer",
                 ("seed", "n_modes", "n_sensors", "placement_modes", "vanilla_modes")),
                (numbers.Real, "a number",
                 ("train_horizon", "test_horizon", "obs_dt", "spinup", "noise_std"))):
            for name in names:
                v = getattr(self, name)
                if not _is_number(v, kind):
                    raise ConfigError(name, f"must be {what}, got {v!r}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed}")
        for name in ("train_horizon", "test_horizon", "obs_dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(name, "must be positive and finite")
        for name in ("spinup", "noise_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(name, "must be finite and nonnegative")
        self.vector_field = build_field(self)  # the run's one field; no config key
        m, dim = self.n_modes, self.vector_field.dim
        if not 1 <= m <= dim:
            raise ConfigError("n_modes", f"{m} is not within 1..dim={dim}")
        for name, low, k in (("n_sensors", 1, self.n_sensors),
                             ("placement_modes", self.n_sensors, self.placement_modes or m),
                             ("vanilla_modes", 1, self.vanilla_modes or m)):
            if not low <= k <= m:
                raise ConfigError(name, f"{getattr(self, name)} is not within {low}..n_modes={m}")
        # uniform recorded grids: each spacing or span the run steps a whole
        # number of steps, so generate_trajectories cannot fail whole_steps
        for name, step, size in (("obs_dt", "DT", DT), ("train_horizon", "DT", DT),
                                 ("test_horizon", "DT", DT),
                                 ("test_horizon", "obs_dt", self.obs_dt),
                                 ("spinup", "SPINUP_DT", SPINUP_DT)):
            try:
                whole_steps(getattr(self, name), size)
            except ValueError:
                raise ConfigError(name, f"must be a whole multiple of {step}={size}") from None
        for name in ("train_ic", "test_ic"):
            ic = getattr(self, name)
            if not isinstance(ic, Sequence):
                raise ConfigError(name, f"must be a list of numbers, got {ic!r}")
            if len(ic) != dim:
                raise ConfigError(name, f"length {len(ic)} is not the state dim {dim}")
            if not all(map(_finite_number, ic)):
                raise ConfigError(name, "every entry must be a finite number")

    def __setattr__(self, name, value):
        """Once built, an assignment first builds (by from_dict) the config it
        makes: a name that is no field, or a rejected value, is a ConfigError
        that leaves this config unchanged; an accepted one brings its field."""
        if "vector_field" in self.__dict__:
            built = self.from_dict({**asdict(self), name: value})
            object.__setattr__(self, "vector_field", built.vector_field)
        object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, d):
        """The config from a mapping of field values; a value that is no
        mapping raises ConfigError("config"), a key that names no field, or
        a required field left out, ConfigError(key)."""
        if not isinstance(d, Mapping):
            kind = JSON_TYPES.get(type(d), type(d).__name__)
            raise ConfigError("config", f"must be a JSON object, got {kind}")
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(key, "is not a config field")
        for f in fields(cls):
            if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f.name, "is required")
        return cls(**d)

    @classmethod
    def from_json(cls, path, **overrides):
        """from_dict of the file's JSON with overrides merged in; text that
        is not valid JSON raises ConfigError("config")."""
        try:
            d = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{path} is not valid JSON ({exc})") from exc
        return cls.from_dict({**d, **overrides} if isinstance(d, Mapping) else d)


PRESETS = Path(__file__).parent / "presets"


def list_presets():
    return sorted(p.stem for p in PRESETS.glob("*.json"))


def load_preset(name, **overrides):
    path = PRESETS / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(f"no preset named {name!r}; available: {list_presets()}")
    return ExperimentConfig.from_json(path, **overrides)


def build_field(config):
    """FIELDS[system](**params); params that are no mapping, or a param that is
    unknown, missing, rejected or (bar linear's matrix) not a finite number,
    are a ConfigError("params")."""
    if not (isinstance(config.system, str) and config.system in FIELDS):
        raise ConfigError("system", f"unknown system {config.system!r}")
    if not isinstance(config.params, Mapping):
        raise ConfigError("params", f"must be a mapping of names to values, got {config.params!r}")
    for key, value in config.params.items():
        if key != "matrix" and not _finite_number(value):
            raise ConfigError("params", f"{key} must be a finite number, got {value!r}")
    try:
        return FIELDS[config.system](**config.params)
    except (TypeError, ValueError) as exc:
        raise ConfigError("params", str(exc)) from exc


def generate_trajectories(config):
    """Spin up config.vector_field past the transient, then record the
    training and test trajectories (training on the snapshot grid, test on
    the observation grid); returns (train, test)."""
    f = config.vector_field
    u_tr, u_te = np.array(config.train_ic, float), np.array(config.test_ic, float)
    if config.spinup > 0:
        u_tr = advance(f, u_tr, config.spinup, SPINUP_DT)
        u_te = advance(f, u_te, config.spinup, SPINUP_DT)
    train = integrate(f, u_tr, config.train_horizon, DT, record_every=whole_steps(SNAPSHOT_DT, DT))
    test = integrate(f, u_te, config.test_horizon, DT, record_every=whole_steps(config.obs_dt, DT))
    return train, test


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
        train, test = generate_trajectories(config)

    with _stage(timings, "pod"):
        mean, basis = fit_basis(config, train)
        raw_sv = basis.singular_values
        if config.center:
            raw_sv = compute_pod(train.states.T, 1).singular_values

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
        run = das_deim(cores[config.n_modes], config.vector_field, observations, offset=mean)
        errors_das = relative_error_series(run.reconstruction, test)

    with _stage(timings, "prefactor"):
        pf_fixed, pf_replaced = prefactor_curve(basis, config.n_sensors)

    sv = basis.singular_values
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
        "dasdeim_post_transient_min": float(np.nanmin(post_transient(errors_das))),
        "sensor_indices": [int(i) for i in selection.indices],
        "sigma5": float(sv[4]) if sv.size > 4 else None,
        "sigma6": float(sv[5]) if sv.size > 5 else None,
        "sigma5_raw": float(raw_sv[4]) if raw_sv.size > 4 else None,
        "sigma6_raw": float(raw_sv[5]) if raw_sv.size > 5 else None,
        "prefactor_curve": [[m, v] for m, v in pf_fixed],
        "prefactor_curve_replaced": [[m, v] for m, v in pf_replaced],
        **{name: getattr(config, name)
           for name in ("n_modes", "n_sensors", "noise_std", "seed", "center", "obs_dt")},
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
        reconstruction=run.reconstruction,
        prefactors_fixed=pf_fixed,
        summary=summary,
        timings=timings,
    )
    if write:
        write_artifacts(result)
    return result


# Every numeric CSV a run writes: file name -> its columns, left to right.
CSV_COLUMNS = {
    "train.csv": lambda r: (r.train.times, r.train.states),
    "test.csv": lambda r: (r.test.times, r.test.states),
    "pod_modes.csv": lambda r: (r.basis.phi,),
    "singular_values.csv": lambda r: (r.basis.singular_values,),
    "observations.csv": lambda r: (r.observations.times, r.observations.samples),
    "errors_vanilla.csv": lambda r: (
        r.test.times, r.errors_vanilla[r.config.vanilla_modes or r.config.n_modes]),
    "errors_dasdeim.csv": lambda r: (r.test.times, r.errors_dasdeim),
    "xi_path.csv": lambda r: (r.test.times, r.xi_path),
    "reconstruction.csv": lambda r: (r.reconstruction.times, r.reconstruction.states),
    "prefactor_curve.csv": lambda r: (np.array(r.prefactors_fixed, dtype=float),),
}


def write_csvs(out, names, **outputs):
    """Write the named CSVs into directory out (made if missing), returned as a
    Path, from the stage outputs given by keyword as PipelineResult names
    them: sensors.csv as selection's indices on one line, any other its
    CSV_COLUMNS (time first where there is one) through save_matrix_csv."""
    out, run = Path(out), SimpleNamespace(**outputs)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name == "sensors.csv":
            (out / name).write_text(",".join(map(str, run.selection.indices)) + "\n")
        else:
            linalg.save_matrix_csv(out / name, np.column_stack(CSV_COLUMNS[name](run)))
    return out


def json_text(obj):
    """The one JSON layout, of every file written and of what the CLI prints."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj):
    Path(path).write_text(json_text(obj))


def write_artifacts(result):
    names = ["sensors.csv", *(name for name in CSV_COLUMNS if name != "pod_modes.csv")]
    out = write_csvs(result.config.output_dir, names, **vars(result))
    write_json(out / "summary.json", result.summary)
    write_json(out / "timings.json", result.timings)


def config_to_json(config, path):
    write_json(path, asdict(config))

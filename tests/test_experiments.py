import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sdeim import assimilate, cli, experiments, reconstruct
from sdeim.dynamics import VectorField
from sdeim.errors import ConfigError, DivergenceError, RankError
from sdeim.experiments import (
    ExperimentConfig,
    config_to_json,
    fit_basis,
    generate_trajectories,
    list_presets,
    load_preset,
    run_pipeline,
)
from sdeim.sensing import build_deim_core


SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run_cli(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sdeim", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def count_field_builds(monkeypatch):
    """Wrap experiments.build_field by name, as a tracer does; returns the
    list that gets one entry per field built."""
    build, calls = experiments.build_field, []

    def counted(config):
        calls.append(config.system)
        return build(config)

    monkeypatch.setattr(experiments, "build_field", counted)
    return calls


@pytest.fixture(scope="module")
def linear_cfg():
    return load_preset("linear8")


@pytest.fixture(scope="module")
def linear_run(tmp_path_factory, linear_cfg):
    """The module's one written default linear8 run, for the tests that only
    read it; its files are in Path(linear_run.config.output_dir)."""
    out = tmp_path_factory.mktemp("linear8")
    return run_pipeline(replace(linear_cfg, output_dir=str(out)))


class TestPresets:
    def test_bundled_presets_present(self):
        names = list_presets()
        for expected in ("lorenz63", "lorenz63_noisy", "lorenz96", "linear8"):
            assert expected in names

    def test_lorenz63_preset_encodes_experiment_settings(self):
        cfg = load_preset("lorenz63")
        assert cfg.params == {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}
        assert (cfg.n_sensors, cfg.n_modes) == (1, 3)
        assert {cfg.vanilla_modes, cfg.n_modes} == {1, 3}  # the vanilla stage's mode counts
        assert load_preset("lorenz63_noisy").noise_std == 0.1

    def test_lorenz96_preset_encodes_experiment_settings(self):
        cfg = load_preset("lorenz96")
        assert cfg.params == {"N": 40, "F": 2.0}
        assert (cfg.n_sensors, cfg.n_modes) == (1, 5)
        assert cfg.obs_dt == 0.2
        assert cfg.noise_std == 0.1

    @pytest.mark.parametrize("preset, field, value", [
        ("lorenz63", "obs_dt", 0.0125),
        ("lorenz63", "spinup", 100.005),
        ("lorenz63", "spinup", float("nan")),
        ("linear8", "test_horizon", 1.01),
        ("linear8", "train_horizon", float("inf")),
        ("linear8", "train_ic", [1.0, 0.0, 0.8]),
        ("linear8", "placement_modes", 5),   # n_modes = 4
        ("linear8", "test_ic", [0.4, -0.7, 0.2, 0.9, 0.1, -0.3, -0.5]),
        ("linear8", "placement_modes", 1),   # n_sensors = 2
        ("linear8", "vanilla_modes", 9),
        ("linear8", "n_modes", 9),          # dim = 8
        ("linear8", "noise_std", -1.0),
        ("linear8", "noise_std", float("nan")),
        ("linear8", "train_ic", ["a"] * 8),
        ("linear8", "test_ic", [0.4, -0.7, 0.2, 0.9, 0.1, -0.3, -0.5, float("inf")]),
        ("linear8", "n_modes", 0),
        ("lorenz63", "params", {"sigma": 10.0, "rho": 28.0, "betta": 8.0 / 3.0}),
        ("linear8", "params", {}),
        ("lorenz63", "params", {"sigma": "a"}),
        ("lorenz96", "params", {"N": 3, "F": 2.0}),
        ("linear8", "params", {"matrix": [[0.0] * 8] * 7}),
        ("lorenz63", "params", [1.0]),
        ("lorenz63", "params", None),
        ("lorenz63", "center", "false"),
        ("lorenz63", "center", 0),
        ("lorenz63", "seed", -1),
        ("lorenz63", "seed", 1.5),
        ("lorenz63", "seed", True),
        ("linear8", "n_modes", 2.5),
        ("linear8", "n_modes", True),
        ("lorenz63", "n_sensors", 1.0),
        ("linear8", "placement_modes", 3.0),
        ("linear8", "vanilla_modes", True),
        ("linear8", "train_horizon", "5"),
        ("lorenz63", "spinup", None),
        ("lorenz63", "obs_dt", [0.05]),
        ("linear8", "noise_std", "0.1"),
        ("linear8", "train_ic", 5),
        ("linear8", "test_ic", None),
        ("linear8", "system", ["linear"]),
        ("lorenz63", "obs_dt", True),
        ("linear8", "train_ic", [True] * 8),
        ("lorenz63", "params", {"sigma": True}),
        ("linear8", "train_horizon", 20.0005),
    ])
    def test_inconsistent_config_fails_at_load_naming_the_field(self, preset, field, value):
        with pytest.raises(ConfigError) as err:
            replace(load_preset(preset), **{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("preset", list_presets())
    def test_config_keys_are_the_dataclass_fields(self, preset):
        # the run's field is an attribute of the config, not one of its keys
        cfg = load_preset(preset)
        assert list(asdict(cfg)) == [f.name for f in fields(ExperimentConfig)]
        assert cfg.vector_field.dim == len(cfg.train_ic)

    @pytest.mark.parametrize("key", ["n_sensor", "transient_fraction", "kernel_substeps",
                                     "vector_field"])
    def test_unknown_key_fails_at_load_naming_it(self, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**asdict(load_preset("linear8")), key: 0.25}))
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(path)
        assert err.value.field == key

    @pytest.mark.parametrize("key", ["system", "train_ic", "test_ic"])
    def test_missing_required_key_fails_at_load_naming_it(self, tmp_path, key):
        d = asdict(load_preset("lorenz96"))
        del d[key]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(path)
        assert err.value.field == key

    @pytest.mark.parametrize("preset", list_presets())
    def test_config_json_round_trip(self, tmp_path, preset):
        cfg = load_preset(preset)
        config_to_json(cfg, tmp_path / "cfg.json")
        assert ExperimentConfig.from_json(tmp_path / "cfg.json") == cfg

    def test_lorenz96_ics_perturb_the_fixed_point(self):
        cfg = load_preset("lorenz96")
        forcing, n = cfg.params["F"], cfg.params["N"]
        train, test = forcing * np.ones(n), forcing * np.ones(n)
        train[n // 2 - 1] += 0.01
        test[7] += 0.008
        assert np.array_equal(cfg.train_ic, train)
        assert np.array_equal(cfg.test_ic, test)

    def test_shortened_lorenz63_horizons_load(self):
        replace(load_preset("lorenz63"), spinup=10.0, train_horizon=20.0, test_horizon=5.0)

    def test_unknown_preset_raises(self):
        with pytest.raises(FileNotFoundError):
            load_preset("nope")

    def test_assigned_params_rebuild_the_field(self):
        cfg = load_preset("lorenz63")
        cfg.params = {"sigma": 5.0}
        assert cfg.params == {"sigma": 5.0}
        assert cfg.vector_field.params["sigma"] == 5.0

    def test_rejected_assignment_leaves_the_config_unchanged(self):
        cfg = load_preset("lorenz63")
        before, field = asdict(cfg), cfg.vector_field
        for name, value in (("n_modes", 7), ("n_sensor", 2), ("vector_field", field)):
            with pytest.raises(ConfigError) as err:
                setattr(cfg, name, value)
            assert err.value.field == name
            assert asdict(cfg) == before and cfg.vector_field is field
        assert "n_sensor" not in vars(cfg)


class TestGenerate:
    def test_trajectory_shapes(self, linear_cfg):
        train, test = generate_trajectories(linear_cfg)
        assert train.states.shape[1] == 8
        assert test.states.shape[1] == 8
        assert test.times[0] == 0.0
        assert test.times[-1] == pytest.approx(linear_cfg.test_horizon)

    def test_same_config_reproduces_exactly(self, linear_cfg):
        train_a, _ = generate_trajectories(linear_cfg)
        train_b, _ = generate_trajectories(linear_cfg)
        assert np.array_equal(train_a.states, train_b.states)


class TestPipeline:
    def test_linear_pipeline_artifacts(self, linear_run):
        result, out = linear_run, Path(linear_run.config.output_dir)
        for name in (
            "train.csv",
            "test.csv",
            "singular_values.csv",
            "sensors.csv",
            "observations.csv",
            "errors_vanilla.csv",
            "errors_dasdeim.csv",
            "xi_path.csv",
            "reconstruction.csv",
            "prefactor_curve.csv",
            "summary.json",
            "timings.json",
        ):
            assert (out / name).exists(), name
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        for key in (
            "vanilla_mean_rel_err",
            "dasdeim_post_transient_mean",
            "sensor_indices",
            "sigma5",
            "sigma6",
            "prefactor_curve",
        ):
            assert key in summary
        # clean observations: assimilation keeps the interpolation property
        sel = result.selection
        resid = np.abs(
            result.reconstruction.states[:, sel.indices]
            - result.mean[sel.indices]
            - result.observations.samples
        )
        assert resid.max() < 1e-8

    def test_csv_files_read_back_to_their_arrays(self, linear_run, linear_cfg):
        # every number bit for bit, time first where there is one
        result, out = linear_run, Path(linear_run.config.output_dir)
        t, pf = result.test.times, result.prefactors_fixed
        v_modes = linear_cfg.vanilla_modes or linear_cfg.n_modes
        expected = {
            "train.csv": (result.train.times, result.train.states),
            "test.csv": (t, result.test.states),
            "singular_values.csv": (result.basis.singular_values,),
            "observations.csv": (result.observations.times, result.observations.samples),
            "errors_vanilla.csv": (t, result.errors_vanilla[v_modes]),
            "errors_dasdeim.csv": (t, result.errors_dasdeim),
            "xi_path.csv": (t, result.xi_path),
            "reconstruction.csv": (result.reconstruction.times, result.reconstruction.states),
            "prefactor_curve.csv": ([m for m, _ in pf], [v for _, v in pf]),
        }
        for name, columns in expected.items():
            back = np.loadtxt(out / name, delimiter=",", ndmin=2)
            want = np.column_stack(columns).astype(float)
            assert back.shape == want.shape and back.tobytes() == want.tobytes(), name
        sensors = np.loadtxt(out / "sensors.csv", delimiter=",", dtype=int, ndmin=1)
        assert np.array_equal(sensors, result.selection.indices)

    def test_readme_lists_the_files_a_run_leaves(self, linear_run):
        table = README.read_text().split("`pipeline` writes these files")[1].split("\n\n")[1]
        listed = {re.match(r"\| `([^`]+)` \|", row).group(1) for row in table.splitlines()[2:]}
        assert listed == {p.name for p in Path(linear_run.config.output_dir).iterdir()}

    def test_readme_states_the_kernel_substep_count(self):
        text = " ".join(README.read_text().split())
        stated = re.findall(r"`assimilate\.KERNEL_SUBSTEPS = (\d+)`", text)
        stated += re.findall(r"observation spacing / (\d+) for the kernel ODE", text)
        assert stated == [str(assimilate.KERNEL_SUBSTEPS)] * 2

    def test_determinism_byte_identical_summaries(self, tmp_path, linear_cfg, linear_run):
        run_pipeline(replace(linear_cfg, output_dir=str(tmp_path / "b")))
        bytes_a = (Path(linear_run.config.output_dir) / "summary.json").read_bytes()
        bytes_b = (tmp_path / "b" / "summary.json").read_bytes()
        assert bytes_a == bytes_b

    def test_pass_through_rhs_keeps_lorenz63_summary_bytes(self, tmp_path, monkeypatch):
        # a call counter that wraps f.rhs (as a tracer does) must keep the
        # float-list path, so the traced run writes the same summary
        short = replace(load_preset("lorenz63"), spinup=2.0, train_horizon=5.0, test_horizon=2.0)
        run_pipeline(replace(short, output_dir=str(tmp_path / "plain")))
        build, seen = experiments.build_field, []

        def counted_field(config):
            f = build(config)

            def counted(u):
                seen.append(type(u))
                return f.rhs(u)

            return VectorField(dim=f.dim, rhs=counted, params=f.params)

        monkeypatch.setattr(experiments, "build_field", counted_field)
        run_pipeline(replace(short, output_dir=str(tmp_path / "wrapped")))
        assert seen and set(seen) == {list}
        plain, wrapped = ((tmp_path / d / "summary.json").read_bytes() for d in ("plain", "wrapped"))
        assert wrapped == plain

    def test_raw_spectrum_is_the_uncentred_basis_spectrum(self, linear_cfg, linear_run):
        # one route for both spectra: a centred run's raw spectrum is the
        # basis spectrum of the same run uncentred, bit for bit
        centred = run_pipeline(replace(linear_cfg, center=True), write=False)
        uncentred = linear_run
        assert np.array_equal(uncentred.raw_singular_values, uncentred.basis.singular_values)
        assert np.array_equal(centred.raw_singular_values, uncentred.basis.singular_values)
        assert not np.array_equal(centred.basis.singular_values, uncentred.basis.singular_values)

    def test_no_kernel_pipeline_is_vanilla_deim(self, tmp_path, linear_cfg):
        # n = m: DAS-DEIM has an empty kernel and reduces to the vanilla estimate
        cfg = replace(linear_cfg, n_sensors=linear_cfg.n_modes, output_dir=str(tmp_path))
        result = run_pipeline(cfg)
        core = build_deim_core(result.basis, result.selection)
        vanilla = result.mean + result.observations.samples @ core.lift.T
        assert np.array_equal(result.reconstruction.states, vanilla)
        assert np.array_equal(result.errors_dasdeim, result.errors_vanilla[cfg.n_modes])
        times = result.test.times
        assert result.xi_path.shape == (times.size, 0)
        xi_csv = np.loadtxt(tmp_path / "xi_path.csv", delimiter=",", ndmin=2)
        assert xi_csv.shape == (times.size, 1)
        assert np.array_equal(xi_csv[:, 0], times)

    @pytest.mark.parametrize("vanilla_modes, expect", [(2, [2, 4]), (4, [4])])
    def test_one_core_per_distinct_mode_count(self, monkeypatch, linear_cfg, vanilla_modes, expect):
        cfg = replace(linear_cfg, vanilla_modes=vanilla_modes)
        calls = []

        def counted(basis, sel):
            calls.append(basis.n_modes)
            return build_deim_core(basis, sel)

        for module in (experiments, reconstruct):
            monkeypatch.setattr(module, "build_deim_core", counted)
        result = run_pipeline(cfg, write=False)
        assert calls == expect
        assert list(result.timings) == [
            "generate", "pod", "place", "observe", "vanilla", "assimilate", "prefactor",
        ]

    def test_prefactor_curve_fixed_nonincreasing(self, linear_run):
        vals = [v for _, v in linear_run.prefactors_fixed]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))


class TestOneFieldPerRun:
    @pytest.mark.parametrize("cmd", ["generate", "pod", "place", "pipeline"])
    def test_one_build_per_cli_command(self, tmp_path, monkeypatch, cmd):
        calls = count_field_builds(monkeypatch)
        assert cli.main([cmd, "--preset", "linear8", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert calls == ["linear"]

    def test_one_build_per_preset_run(self, monkeypatch):
        calls = count_field_builds(monkeypatch)
        run_pipeline(load_preset("linear8"), write=False)
        assert calls == ["linear"]


class TestCli:
    def test_generate_writes_trajectories(self, tmp_path):
        proc = run_cli("generate", "--preset", "linear8", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 9  # time + 8 state columns

    def test_stage_commands_write_the_pipeline_files(self, tmp_path, capsys, linear_cfg):
        assert cli.main(["pipeline", "--preset", "linear8", "--out", str(tmp_path / "pipeline")]) == 0
        # the printed summary is summary.json's text
        assert capsys.readouterr().out == (tmp_path / "pipeline" / "summary.json").read_text()
        for cmd in ("generate", "pod", "place"):
            assert cli.main([cmd, "--preset", "linear8", "--out", str(tmp_path / cmd)]) == 0
        for cmd, name in (("generate", "train.csv"), ("generate", "test.csv"),
                          ("pod", "singular_values.csv"), ("place", "sensors.csv")):
            assert (tmp_path / cmd / name).read_bytes() == (
                tmp_path / "pipeline" / name).read_bytes(), name
        _, basis = fit_basis(linear_cfg, generate_trajectories(linear_cfg)[0])
        modes = np.loadtxt(tmp_path / "pod" / "pod_modes.csv", delimiter=",", ndmin=2)
        assert modes.tobytes() == basis.phi.tobytes() and modes.shape == basis.phi.shape

    def test_generate_deterministic_bytes(self, tmp_path):
        run_cli("generate", "--preset", "linear8", "--out", str(tmp_path / "a"))
        run_cli("generate", "--preset", "linear8", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "train.csv").read_bytes() == (
            tmp_path / "b" / "train.csv"
        ).read_bytes()

    def test_pod_place_reconstruct_assimilate(self, tmp_path):
        for cmd in ("pod", "place", "reconstruct", "assimilate", "pipeline"):
            proc = run_cli(cmd, "--preset", "linear8", "--out", str(tmp_path / cmd))
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
        assert (tmp_path / "pod" / "pod_modes.csv").exists()
        assert (tmp_path / "place" / "sensors.csv").exists()
        assert (tmp_path / "assimilate" / "errors_dasdeim.csv").exists()
        # reconstruct and assimilate are aliases of pipeline
        summary = (tmp_path / "pipeline" / "summary.json").read_bytes()
        for alias in ("reconstruct", "assimilate"):
            assert (tmp_path / alias / "summary.json").read_bytes() == summary

    def test_pipeline_emits_summary_json(self, tmp_path):
        proc = run_cli("pipeline", "--preset", "linear8", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["system"] == "linear"
        assert (tmp_path / "summary.json").exists()

    def test_noise_std_override(self, tmp_path):
        proc = run_cli(
            "pipeline", "--preset", "linear8", "--noise-std", "0.05",
            "--seed", "9", "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["noise_std"] == 0.05
        assert summary["seed"] == 9

    def test_override_checked_before_any_stage(self, tmp_path):
        from sdeim.cli import main

        with pytest.raises(SystemExit) as info:
            main(["pipeline", "--preset", "linear8", "--noise-std", "-1", "--out", str(tmp_path)])
        assert info.value.code == (
            "pipeline failed: ConfigError: noise_std: must be finite and nonnegative")

    def test_override_merged_before_the_one_check(self, tmp_path):
        # the file's seed -1 is replaced by --seed before the config is checked
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**asdict(load_preset("linear8")), "seed": -1}))
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("cmd, flags, error", [
        *(pytest.param(cmd, ["--preset", "linear8", "--noise-std", "nan"],
                       "noise_std: must be finite and nonnegative", id=cmd)
          for cmd in ("generate", "pod", "place")),
        pytest.param("generate", ["--config", "no_matrix.json"], "params: linear_field() "
                     "missing 1 required positional argument: 'matrix'", id="generate-params"),
        *(pytest.param("pipeline", ["--config", f"{kind}.json"],
                       f"config: must be a JSON object, got {kind}", id=f"pipeline-{kind}")
          for kind in ("null", "array", "string")),
        pytest.param("pipeline", ["--config", "truncated.json"], "config: truncated.json is "
                     "not valid JSON (Expecting value: line 1 column 12 (char 11))",
                     id="pipeline-truncated"),
        pytest.param("pipeline", ["--config", "empty.json"], "config: empty.json is "
                     "not valid JSON (Expecting value: line 1 column 1 (char 0))",
                     id="pipeline-empty"),
    ])
    def test_bad_config_reported_in_one_line(self, tmp_path, monkeypatch, cmd, flags, error):
        from sdeim.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "no_matrix.json").write_text(
            json.dumps({**asdict(load_preset("linear8")), "params": {}}))
        for kind, text in (("null", "null"), ("array", "[1, 2]"), ("string", '"abc"'),
                           ("truncated", '{"system": '), ("empty", "")):
            (tmp_path / f"{kind}.json").write_text(text)
        with pytest.raises(SystemExit) as info:
            main([cmd, *flags, "--out", str(tmp_path)])
        assert info.value.code == f"{cmd} failed: ConfigError: {error}"

    def test_config_file_flag(self, tmp_path):
        cfg = replace(load_preset("linear8"), output_dir=str(tmp_path))
        cfg_path = tmp_path / "cfg.json"
        config_to_json(cfg, cfg_path)
        proc = run_cli("pipeline", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr

    def test_pipeline_failure_names_the_exception_type(self, tmp_path, linear_cfg):
        from sdeim.cli import main

        cfg = ExperimentConfig.from_dict({
            **asdict(linear_cfg),
            "params": {"matrix": (50.0 * np.eye(8)).tolist()},
            "output_dir": str(tmp_path),
        })
        cfg_path = tmp_path / "cfg.json"
        config_to_json(cfg, cfg_path)
        with pytest.raises(SystemExit) as info:
            main(["pipeline", "--config", str(cfg_path)])
        assert str(info.value.code).startswith("pipeline failed: DivergenceError: ")

    @pytest.mark.parametrize("cmd, broken, stage", [
        *((cmd, "diverging", "generate") for cmd in ("generate", "pod", "place", "pipeline")),
        *((cmd, "rank2", "pod") for cmd in ("pod", "place", "pipeline")),
    ])
    def test_pipeline_failure_names_the_stage(self, tmp_path, linear_cfg, cmd, broken, stage):
        # a field that diverges at t=0.369, or training snapshots of rank 2 < n_modes
        change, error = {
            "diverging": ({"params": {"matrix": (50.0 * np.eye(8)).tolist()}}, DivergenceError),
            "rank2": ({"train_ic": [1.0, 0.5] + [0.0] * 6}, RankError),
        }[broken]
        cfg = ExperimentConfig.from_dict({
            **asdict(linear_cfg), **change, "output_dir": str(tmp_path),
        })
        with pytest.raises(error) as err:
            run_pipeline(cfg, write=False)
        assert err.value.stage == stage
        cfg_path = tmp_path / "cfg.json"
        config_to_json(cfg, cfg_path)
        with pytest.raises(SystemExit) as info:
            cli.main([cmd, "--config", str(cfg_path)])
        assert info.value.code == (
            f"{cmd} failed: {type(err.value).__name__}: {err.value} (stage: {stage})")

    @pytest.mark.parametrize("source", [["--config", "cfg.json", "--preset", "linear8"], []],
                             ids=["both", "neither"])
    @pytest.mark.parametrize("cmd", ["generate", "pod", "place", "pipeline"])
    def test_config_source_is_exactly_one_flag(self, capsys, cmd, source):
        with pytest.raises(SystemExit) as info:
            cli.main([cmd, *source])
        assert info.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestPropertiesCommand:
    def test_fresh_run_passes(self, tmp_path):
        proc = run_cli("properties", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(tmp_path / "properties.json") as fh:
            report = json.load(fh)
        assert all(suite["failed"] == 0 for suite in report.values())
        assert all(suite["passed"] > 0 for suite in report.values())

    def test_corrupted_basis_negative_control(self, monkeypatch, capsys):
        failing = {"pod-basis": [("basis orthonormality", False, "||Phi^T Phi - I|| = 1.00e-02")]}
        monkeypatch.setattr(cli, "run_all", lambda seed: failing)
        assert cli.main(["properties"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

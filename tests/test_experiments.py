import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from sdeim import experiments, reconstruct
from sdeim.dynamics import VectorField
from sdeim.errors import ConfigError, DivergenceError
from sdeim.experiments import (
    ExperimentConfig,
    config_to_json,
    generate_trajectories,
    list_presets,
    load_preset,
    run_pipeline,
)
from sdeim.sensing import build_deim_core


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sdeim", *args], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def linear_cfg():
    return load_preset("linear8")


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
    ])
    def test_inconsistent_config_fails_at_load_naming_the_field(self, preset, field, value):
        fields = {**load_preset(preset).__dict__, field: value}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**fields)
        assert err.value.field == field

    @pytest.mark.parametrize("key", ["n_sensor", "transient_fraction", "kernel_substeps"])
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
        fields = load_preset("lorenz63").__dict__
        ExperimentConfig(**{**fields, "spinup": 10.0, "train_horizon": 20.0, "test_horizon": 5.0})

    def test_unknown_preset_raises(self):
        with pytest.raises(FileNotFoundError):
            load_preset("nope")


class TestGenerate:
    def test_trajectory_shapes(self, linear_cfg):
        _, train, test = generate_trajectories(linear_cfg)
        assert train.states.shape[1] == 8
        assert test.states.shape[1] == 8
        assert test.times[0] == 0.0
        assert test.times[-1] == pytest.approx(linear_cfg.test_horizon)

    def test_same_config_reproduces_exactly(self, linear_cfg):
        _, train_a, _ = generate_trajectories(linear_cfg)
        _, train_b, _ = generate_trajectories(linear_cfg)
        assert np.array_equal(train_a.states, train_b.states)


class TestPipeline:
    def test_linear_pipeline_artifacts(self, tmp_path, linear_cfg):
        cfg = ExperimentConfig(**{**linear_cfg.__dict__, "output_dir": str(tmp_path)})
        result = run_pipeline(cfg)
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
            assert (tmp_path / name).exists(), name
        with open(tmp_path / "summary.json") as fh:
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

    def test_determinism_byte_identical_summaries(self, tmp_path, linear_cfg):
        cfg_a = ExperimentConfig(**{**linear_cfg.__dict__, "output_dir": str(tmp_path / "a")})
        cfg_b = ExperimentConfig(**{**linear_cfg.__dict__, "output_dir": str(tmp_path / "b")})
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        bytes_a = (tmp_path / "a" / "summary.json").read_bytes()
        bytes_b = (tmp_path / "b" / "summary.json").read_bytes()
        assert bytes_a == bytes_b

    def test_pass_through_rhs_keeps_lorenz63_summary_bytes(self, tmp_path, monkeypatch):
        # a call counter that wraps f.rhs (as a tracer does) must keep the
        # float-list path, so the traced run writes the same summary
        short = {**load_preset("lorenz63").__dict__, "spinup": 2.0, "train_horizon": 5.0,
                 "test_horizon": 2.0}
        run_pipeline(ExperimentConfig(**{**short, "output_dir": str(tmp_path / "plain")}))
        build, seen = experiments.build_field, []

        def counted_field(config):
            f = build(config)

            def counted(u):
                seen.append(type(u))
                return f.rhs(u)

            return VectorField(dim=f.dim, rhs=counted, params=f.params)

        monkeypatch.setattr(experiments, "build_field", counted_field)
        run_pipeline(ExperimentConfig(**{**short, "output_dir": str(tmp_path / "wrapped")}))
        assert seen and set(seen) == {list}
        plain, wrapped = ((tmp_path / d / "summary.json").read_bytes() for d in ("plain", "wrapped"))
        assert wrapped == plain

    def test_no_kernel_pipeline_is_vanilla_deim(self, tmp_path, linear_cfg):
        # n = m: DAS-DEIM has an empty kernel and reduces to the vanilla estimate
        cfg = ExperimentConfig(**{
            **linear_cfg.__dict__, "n_sensors": linear_cfg.n_modes, "output_dir": str(tmp_path),
        })
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
        cfg = ExperimentConfig(**{**linear_cfg.__dict__, "vanilla_modes": vanilla_modes})
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

    def test_prefactor_curve_fixed_nonincreasing(self, tmp_path, linear_cfg):
        cfg = ExperimentConfig(**{**linear_cfg.__dict__, "output_dir": str(tmp_path)})
        result = run_pipeline(cfg, write=False)
        vals = [v for _, v in result.prefactors_fixed]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))


class TestCli:
    def test_generate_writes_trajectories(self, tmp_path):
        proc = run_cli("generate", "--preset", "linear8", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 9  # time + 8 state columns

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

    @pytest.mark.parametrize("cmd", ["generate", "pod", "place"])
    def test_bad_config_reported_in_one_line(self, tmp_path, cmd):
        from sdeim.cli import main

        with pytest.raises(SystemExit) as info:
            main([cmd, "--preset", "linear8", "--noise-std", "nan", "--out", str(tmp_path)])
        assert info.value.code == (
            f"{cmd} failed: ConfigError: noise_std: must be finite and nonnegative")

    def test_config_file_flag(self, tmp_path):
        cfg = load_preset("linear8")
        cfg.output_dir = str(tmp_path)
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

    def test_pipeline_failure_names_the_stage(self, tmp_path, linear_cfg):
        from sdeim.cli import main

        cfg = ExperimentConfig.from_dict({
            **asdict(linear_cfg),
            "params": {"matrix": (50.0 * np.eye(8)).tolist()},
            "output_dir": str(tmp_path),
        })
        with pytest.raises(DivergenceError) as err:
            run_pipeline(cfg, write=False)
        assert err.value.stage == "generate"
        cfg_path = tmp_path / "cfg.json"
        config_to_json(cfg, cfg_path)
        with pytest.raises(SystemExit) as info:
            main(["pipeline", "--config", str(cfg_path)])
        assert str(info.value.code).endswith(" (stage: generate)")


class TestPropertiesCommand:
    def test_fresh_run_passes(self, tmp_path):
        proc = run_cli("properties", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(tmp_path / "properties.json") as fh:
            report = json.load(fh)
        assert all(suite["failed"] == 0 for suite in report.values())
        assert all(suite["passed"] > 0 for suite in report.values())

    def test_corrupted_basis_negative_control(self):
        proc = run_cli("properties", "--inject-corruption")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

import json
import subprocess
import sys

import numpy as np
import pytest

from sdeim.errors import ConfigError
from sdeim.experiments import (
    ExperimentConfig,
    generate_trajectories,
    list_presets,
    load_preset,
    run_pipeline,
)


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
        assert sorted(set(cfg.vanilla_sweep) | {cfg.vanilla_modes}) == [1, 3]
        assert load_preset("lorenz63_noisy").noise_std == 0.1

    def test_lorenz96_preset_encodes_experiment_settings(self):
        cfg = load_preset("lorenz96")
        assert cfg.params == {"N": 40, "F": 2.0}
        assert (cfg.n_sensors, cfg.n_modes) == (1, 5)
        assert cfg.obs_dt == 0.2
        assert cfg.noise_std == 0.1

    @pytest.mark.parametrize("preset, field, value", [
        ("lorenz63", "obs_dt", 0.0125),
        ("lorenz63", "snapshot_dt", 0.0105),
        ("lorenz63", "spinup", 100.005),
        ("linear8", "test_horizon", 1.01),
        ("linear8", "n_state", 99),
        ("linear8", "kernel_substeps", 0),
    ])
    def test_inconsistent_config_fails_at_load_naming_the_field(self, preset, field, value):
        fields = {**load_preset(preset).__dict__, field: value}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**fields)
        assert err.value.field == field

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
        for cmd in ("pod", "place", "reconstruct", "assimilate"):
            proc = run_cli(cmd, "--preset", "linear8", "--out", str(tmp_path / cmd))
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
        assert (tmp_path / "pod" / "pod_modes.csv").exists()
        assert (tmp_path / "place" / "sensors.csv").exists()
        assert (tmp_path / "assimilate" / "errors_dasdeim.csv").exists()

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

    def test_config_file_flag(self, tmp_path):
        from sdeim.experiments import config_to_json

        cfg = load_preset("linear8")
        cfg.output_dir = str(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        config_to_json(cfg, cfg_path)
        proc = run_cli("pipeline", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr


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

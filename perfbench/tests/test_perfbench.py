"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

Reduced-size runs of each workload must pass the same correctness
checks as the full benchmark, and tracing must not change results.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import sdeim  # noqa: E402
import sdeim.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL_FIELD = workloads.FieldSpec(n_grid=2000, n_train=120, n_test=12)
# Shorter than the benchmark's horizons; the acceptance ranges still hold.
SMALL_HORIZONS = {"train_horizon": 10.0, "test_horizon": 5.0, "spinup": 10.0}


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    return workloads.PipelineWorkload(sdeim, 3, tmp_path_factory.mktemp("l63"), SMALL_HORIZONS)


def test_field_is_deterministic_per_seed_with_rank_at_least_m():
    a_train, a_test = workloads.make_field(7)
    b_train, b_test = workloads.make_field(7)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    assert not np.array_equal(a_train, workloads.make_field(8)[0])
    spec = workloads.FieldSpec()
    assert a_train.shape == (spec.n_grid, spec.n_train)
    assert a_test.shape == (spec.n_grid, spec.n_test)
    s = np.linalg.svd(a_train, compute_uv=False)
    rank = int(np.sum(s > max(a_train.shape) * np.finfo(float).eps * s[0]))
    assert rank >= workloads.FIELD_MODES


def test_metric_names_are_well_formed_and_unique():
    spec = bench_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    fake = worker.pass_record(workloads.PassResult(
        wall_s=1.0, digest="", latencies_us=[float(i) for i in range(2500)],
        estimator_s=1.0, estimator_samples=3))
    assert fake["latency_p99_us"] == [990.0, 1990.0]     # whole batches only
    process = {"cold": fake, "warm": [fake], "peak_rss_mb": 1.0,
               "dasdeim_err": 0.1, "vanilla_err": 0.2, "ref_s": [0.2, 0.6]}
    produced, raw, _ = run.end_to_end("l63", [process], [0.1])
    assert set(produced) == set(raw) == {m["name"] for m in spec["end_to_end"]}
    # a reference twice the nominal time halves the times, doubles the rates
    assert produced["wall_s"]["value"] == pytest.approx(raw["wall_s"]["value"] / 2)
    assert produced["assim_obs_per_s"]["value"] == pytest.approx(
        raw["assim_obs_per_s"]["value"] * 2)
    assert produced["peak_rss_mb"] == raw["peak_rss_mb"]


def test_small_field_recon_passes_its_checks():
    train, test = workloads.make_field(3, SMALL_FIELD)
    first = workloads.field_pass(sdeim, train, test)
    second = workloads.field_pass(sdeim, train, test)
    assert first.failures == [] and second.failures == []
    assert first.digest == second.digest
    assert 0.0 < first.dasdeim_err < first.vanilla_err
    assert len(first.latencies_us) == len(workloads.FIELD_SWEEP) * SMALL_FIELD.n_test


def test_small_pipeline_passes_its_checks(small_pipeline):
    res, result = small_pipeline.run_pass()
    assert res.failures == []
    assert small_pipeline.check_summary(result) == []
    assert len(small_pipeline.recon_latencies(result)) >= workloads.MIN_LATENCY_SAMPLES


def test_no_pass_starts_past_the_time_limit(tmp_path):
    runner = worker.Runner(sdeim, "field_recon", 3, tmp_path)
    args = argparse.Namespace(trace=0, seconds=60.0, time_limit=0.0)
    payload = worker.measure(sdeim, runner, args)
    assert payload["attempted"] == 1 and payload["failed"] == 0
    assert payload["warm"] == [] and len(payload["ref_s"]) == 1
    with pytest.raises(RuntimeError, match="no process ran both"):
        run.end_to_end("field_recon", [payload], [0.1])


def test_tracing_leaves_summary_bytes_unchanged(small_pipeline):
    plain, _ = small_pipeline.run_pass()
    tracer = Tracer()
    traced, _ = tracer.run_pass(sdeim, 0, small_pipeline.run_pass)
    assert traced.digest == plain.digest
    m = worker.traced_pass_metrics(tracer, 0, traced)
    assert m["dynamics.rhs_calls"] > 0
    cfg = sdeim.experiments.load_preset(workloads.PRESET)
    intervals = round(SMALL_HORIZONS["test_horizon"] / cfg.obs_dt)
    assert m["assimilate.substeps"] == intervals * cfg.kernel_substeps
    assert m["assimilate.interpolate_obs_calls"] == 4 * m["assimilate.substeps"]
    names = {s["name"] for s in tracer.records()}
    assert {"pass", "dynamics.integrate", "assimilate.das_deim", "numpy.linalg.svd"} <= names
    # every wrapper is gone again
    assert sdeim.experiments.integrate is sdeim.dynamics.integrate
    assert "wrapper" not in np.linalg.svd.__qualname__

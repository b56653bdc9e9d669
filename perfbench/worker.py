"""One workload process: set up, run passes for a time window, report.

    python3 perfbench/worker.py --workload l63 --seed 1 --trace 0 \
        --seconds 12.5 --time-limit 150 --result OUT.json

Prints "ready" once sdeim is imported and the inputs are loaded (the
parent times set-up up to that line), then runs closed-loop passes, one
at a time; the first is the cold pass. With --setup-only it runs none.
The result JSON holds, untraced, a record per pass, from which run.py
builds the end-to-end metrics; traced, the per-layer metrics with their
sample counts.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import micro
import speed
import workloads
from tracing import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MAX_FAILED_PASSES = 3


def load_sdeim():
    """Import sdeim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sdeim" / "__init__.py").is_file():
        raise SystemExit(f"no sdeim sources under {src}")
    sys.path.insert(0, str(src))
    import sdeim
    import sdeim.cli  # noqa: F401  (the l63 entry point)

    if Path(sdeim.__file__).resolve().parent != (src / "sdeim").resolve():
        raise SystemExit(f"sdeim imported from {sdeim.__file__}, not from {src}")
    return sdeim


class Runner:
    """Runs and checks passes of one workload."""

    def __init__(self, sdeim, workload, seed, tmp):
        self.sdeim = sdeim
        self.workload = workload
        self.failures = []          # (pass id, message)
        self.digests = set()
        self.attempted = 0
        if workload == "field_recon":
            self.train, self.test = workloads.make_field(seed)
            self.pipeline = None
        else:
            self.pipeline = workloads.PipelineWorkload(sdeim, seed, tmp)

    def _field_pass(self):
        return workloads.field_pass(self.sdeim, self.train, self.test), None

    def one_pass(self, tracer=None, latencies=False):
        """Run and check one pass, traced if a tracer is given; returns its
        PassResult, or None if it raised. With latencies, a pipeline pass
        also samples the per-state reconstruction latency."""
        pid = self.attempted
        self.attempted += 1
        fn = self._field_pass if self.pipeline is None else self.pipeline.run_pass
        try:
            res, result = fn() if tracer is None else tracer.run_pass(self.sdeim, pid, fn)
            if self.pipeline is not None:
                res.failures += self.pipeline.check_summary(result)
                if latencies:
                    res.latencies_us = self.pipeline.recon_latencies(result)
        except Exception:
            traceback.print_exc()
            self.failures.append((pid, "pass raised"))
            return None
        self.digests.add(res.digest)
        if len(self.digests) > 1:
            res.failures.append("summary digest differs from an earlier pass with the same seed")
        self.failures += [(pid, msg) for msg in res.failures]
        return res

    @property
    def failed_passes(self):
        return len({pid for pid, _ in self.failures})


def _sample(values):
    return {"value": statistics.median(values), "samples": len(values)}


def _once(value):
    return {"value": value, "samples": 1}


# Latency samples per 99th percentile: consecutive batches of this many
# (ten beyond the percentile). A field_recon pass samples one batch.
LATENCY_BATCH = 1000


def p99_per_batch(latencies):
    """The 99th percentile of each whole batch of LATENCY_BATCH
    consecutive samples."""
    out = []
    for i in range(0, len(latencies) - LATENCY_BATCH + 1, LATENCY_BATCH):
        batch = sorted(latencies[i:i + LATENCY_BATCH])
        out.append(batch[int(0.99 * LATENCY_BATCH)])
    return out


def pass_record(res):
    """What run.py needs of one untraced pass to build the end-to-end
    metrics."""
    lat = res.latencies_us
    return {
        "wall_s": res.wall_s,
        "estimator_s": res.estimator_s,
        "estimator_samples": res.estimator_samples,
        "latency_sum_us": sum(lat),
        "latency_n": len(lat),
        "latency_p99_us": p99_per_batch(lat),
    }


STAGES = ("generate", "pod", "place", "observe", "vanilla", "assimilate", "prefactor")
SPAN_TOTALS = {
    "experiments.write_s": ["experiments.write_artifacts"],
    "dynamics.integrate_s": ["dynamics.integrate", "dynamics.advance"],
    "assimilate.das_deim_s": ["assimilate.das_deim"],
    "pod.compute_pod_s": ["pod.compute_pod"],
    "sensing.qdeim_place_s": ["sensing.qdeim_place"],
    "sensing.add_noise_s": ["sensing.add_noise"],
    "sensing.observe_trajectory_s": ["sensing.observe_trajectory"],
    "linalg.qr_column_pivot_s": ["linalg.qr_column_pivot"],
    "linalg.svd_s": ["numpy.linalg.svd"],
    "reconstruct.prefactor_curve_s": ["reconstruct.prefactor_curve"],
}
EXACT = ("dynamics.rhs_calls", "assimilate.substeps", "assimilate.interpolate_obs_calls",
         "linalg.svd_calls", "trace.spans")


def traced_pass_metrics(tracer, pid, res):
    spans = tracer.by_name([pid])
    none = {"calls": 0, "total_s": 0.0}
    m = {f"experiments.{s}_s": res.timings.get(s, 0.0) for s in STAGES}
    for key, names in SPAN_TOTALS.items():
        m[key] = sum(spans.get(n, none)["total_s"] for n in names)
    m["experiments.other_s"] = (
        res.wall_s - m["experiments.write_s"] - sum(res.timings.values()) if res.timings else 0.0)
    core = spans.get("sensing.build_deim_core", none)
    m["sensing.build_deim_core_us"] = core["total_s"] / core["calls"] * 1e6 if core["calls"] else 0.0
    counts = tracer.pass_counts[pid]
    m["dynamics.rhs_calls"] = counts.get("dynamics.rhs_calls", 0)
    m["assimilate.interpolate_obs_calls"] = counts.get("assimilate.interpolate_obs_calls", 0)
    # das_deim's RK4 evaluates the field once per stage, four stages a substep
    m["assimilate.substeps"] = counts.get("assimilate.rhs_calls", 0) / 4
    m["linalg.svd_calls"] = spans.get("numpy.linalg.svd", none)["calls"]
    m["trace.spans"] = sum(s["calls"] for s in spans.values())
    found = tracer.pass_warnings[pid]
    for mod in MODULES:
        m[f"{mod}.warnings"] = found.get(mod, 0)
    return m


def per_layer(runner, tracer, traced, untraced, micro_metrics):
    """Medians over the traced passes, the tracing overhead, and the
    workload-independent microbenchmarks."""
    per_pass = [traced_pass_metrics(tracer, pid, res) for pid, res in traced]
    differ = [k for k in EXACT if len({m[k] for m in per_pass}) > 1]
    if differ:
        runner.failures.append((traced[-1][0], f"exact counts differ between traced passes: {differ}"))
    out = {k: _sample([m[k] for m in per_pass]) for k in per_pass[0]}
    overhead = (statistics.median(r.wall_s for _, r in traced)
                - statistics.median(r.wall_s for r in untraced))
    out["trace.overhead_s"] = {"value": overhead, "samples": len(traced) + len(untraced)}
    out.update({k: _once(v) for k, v in micro_metrics.items()})
    return out


def measure(sdeim, runner, args):
    """With --trace 1 the microbenchmarks first; then a cold pass, and
    warm passes (alternately traced with --trace 1) while the last pass
    says the next would end less than half a pass after the window. No
    pass starts that the last one says would end after --time-limit.
    Untraced, the speed reference runs after every pass. Returns the
    result payload."""
    clock = time.perf_counter
    t_start = clock()
    micro_metrics = micro.run_all(sdeim) if args.trace else None
    reference = None if args.trace else speed.Reference(runner.workload)
    ref_s = []
    t0 = clock()
    cold = runner.one_pass(latencies=True)
    if reference is not None:
        ref_s.append(reference.seconds())
    last = clock() - t0
    warm, traced = [], []
    tracer = Tracer() if args.trace else None
    while runner.failed_passes <= MAX_FAILED_PASSES:
        elapsed = clock() - t_start
        # stop at the pass boundary nearest the end of the window
        if warm and (traced or not args.trace) and elapsed + last / 2 >= args.seconds:
            break
        if elapsed + last > args.time_limit:
            break
        t0 = clock()
        if tracer is not None and len(traced) < len(warm):
            pid = runner.attempted
            res = runner.one_pass(tracer)
            if res is not None:
                traced.append((pid, res))
        else:
            res = runner.one_pass(latencies=True)
            if res is not None:
                warm.append(res)
            if reference is not None:
                ref_s.append(reference.seconds())
        last = clock() - t0

    payload = {"pass_walls_s": {"cold": cold and cold.wall_s,
                                "warm": [r.wall_s for r in warm],
                                "traced": [r.wall_s for _, r in traced]},
               "metrics": {}}
    if args.trace:
        if warm and traced:
            payload["metrics"] = per_layer(runner, tracer, traced, warm, micro_metrics)
            payload["span_totals"] = tracer.by_name([pid for pid, _ in traced])
            payload["spans"] = tracer.records()
    elif cold is not None:
        payload["cold"] = pass_record(cold)
        payload["warm"] = [pass_record(r) for r in warm]
        payload["ref_s"] = ref_s
        payload["digest"] = cold.digest
        payload["dasdeim_err"] = cold.dasdeim_err
        payload["vanilla_err"] = cold.vanilla_err
        payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload["attempted"] = runner.attempted
    payload["failed"] = runner.failed_passes
    payload["failures"] = [{"pass": p, "check": msg} for p, msg in runner.failures]
    return payload


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="the window to run passes for")
    mode.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--time-limit", type=float,
                    help="seconds after which no pass may end (with --seconds)")
    args = ap.parse_args(argv)
    if args.seconds is not None and args.time_limit is None:
        ap.error("--seconds needs --time-limit")

    sdeim = load_sdeim()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = Runner(sdeim, args.workload, args.seed, tmp)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        payload = measure(sdeim, runner, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

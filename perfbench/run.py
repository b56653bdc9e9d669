"""sdeim benchmark: one workload, one seed, one time window.

    python3 perfbench/run.py --workload l63 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Prints a table of every metric with its
unit and sample count, the environment manifest, and as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The full result, with the manifest, goes
to perfbench/out/<workload>-seed<seed>-trace<k>.json; a traced run
writes its spans beside it in .spans.json.

--trace 0 starts PROCESSES measuring processes one after another, each
with a 1/PROCESSES share of the window and each after SETUP_PROBES
processes that only set up. A measuring process runs a cold pass and
then warm passes until the pass boundary nearest the end of its share.
Spreading the passes and the set-up samples over the whole run this way
averages out the fast changes of a shared VM's speed; the slow ones, which
last longer than a run, are taken out by timing a fixed reference
computation after every pass and reporting times at the reference speed
(speed.py). The result file keeps the times as measured too.
--trace 1 starts one process that runs the layer microbenchmarks, then
alternates untraced and traced passes for the whole window.

A run ends within max(TIME_LIMIT_S, 2 x --seconds). No process starts a
pass that its last pass says would end after that, and no measuring
process is started that the longest one so far says would (after the
first MIN_PROCESSES), so a slow program gives fewer samples, not a
timeout. A process still running at the limit is killed and counted
as a failed pass.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2        # before each measuring process
PROCESSES = 6
MIN_PROCESSES = 2
TIME_LIMIT_S = 160.0
EXIT_MARGIN_S = 3.0     # for a process to write its result and exit


def timed_worker(argv):
    """Start worker.py, return (process, seconds until it printed "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line!r})")
    return proc, ready


def run_worker(argv, result_path, deadline):
    """Run worker.py to the end; returns its result (None with
    --setup-only, or if it was killed at the deadline) and its set-up
    time."""
    proc, ready = timed_worker([*argv, "--result", str(result_path)])
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        result_path.unlink(missing_ok=True)
        return None, ready
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {argv}")
    if "--setup-only" in argv:
        return None, ready
    with open(result_path) as fh:
        result = json.load(fh)
    result_path.unlink()
    return result, ready


# End-to-end times and rates that are put at the reference speed (speed.py).
TIMES = ("setup_s", "cold_wall_s", "wall_s", "recon_mean_us", "recon_p99_us")
RATES = ("assim_obs_per_s",)


def end_to_end(workload, workers, setup):
    """End-to-end metrics from the measuring processes' pass records.

    Returns (metrics, raw, speed): the times and rates put at the
    reference speed, the same as measured, and the reference summary.
    Times are means: the VM's speed flips between two modes, and a median
    jumps between them where a mean moves smoothly. Throughput and latency
    are taken from every pass, cold ones too (latency is sampled after
    each l63 pass and during each field_recon pass): assim_obs_per_s is
    all samples over all estimation time, and recon_p99_us is the median
    of the 99th percentiles of batches of worker.LATENCY_BATCH consecutive
    samples, so a burst of interference moves one batch's figure.
    """
    workers = [w for w in workers if "cold" in w]
    cold = [w["cold"] for w in workers]
    warm = [p for w in workers for p in w["warm"]]
    if not warm:
        raise RuntimeError("no process ran both a cold and a warm pass")
    sampled = cold + warm
    n_lat = sum(p["latency_n"] for p in sampled)
    p99s = [q for p in sampled for q in p["latency_p99_us"]]
    raw = {
        "setup_s": {"value": statistics.median(setup), "samples": len(setup)},
        "cold_wall_s": {"value": statistics.fmean(p["wall_s"] for p in cold),
                        "samples": len(cold)},
        "wall_s": {"value": statistics.fmean(p["wall_s"] for p in warm), "samples": len(warm)},
        "assim_obs_per_s": {"value": (sum(p["estimator_samples"] for p in sampled)
                                      / sum(p["estimator_s"] for p in sampled)),
                            "samples": len(sampled)},
        "recon_mean_us": {"value": sum(p["latency_sum_us"] for p in sampled) / n_lat,
                          "samples": n_lat},
        "recon_p99_us": {"value": statistics.median(p99s), "samples": len(p99s)},
        "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers), "samples": len(workers)},
        "dasdeim_err": {"value": workers[0]["dasdeim_err"], "samples": len(cold)},
        "vanilla_err": {"value": workers[0]["vanilla_err"], "samples": len(cold)},
    }
    # the median, so that a burst of interference during one reference
    # sample does not rescale the whole run
    ref_s = [s for w in workers for s in w["ref_s"]]
    ref_median = statistics.median(ref_s)
    scale = speed.NOMINAL_S[workload] / ref_median
    metrics = {k: dict(m) for k, m in raw.items()}
    for k in TIMES:
        metrics[k]["value"] *= scale
    for k in RATES:
        metrics[k]["value"] /= scale
    return metrics, raw, {"ref_median_s": ref_median, "ref_samples_s": ref_s, "scale": scale}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + max(TIME_LIMIT_S, 2 * args.seconds)

    if not (ROOT / "src" / "sdeim" / "__init__.py").is_file():
        print(f"error: no sdeim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]

    def measuring(k, share):
        left = deadline - time.monotonic() - EXIT_MARGIN_S
        return run_worker([*common, "--seconds", str(share), "--time-limit", str(left)],
                          OUT / f"{tag}.worker{k}.json", deadline)

    setup, runs, lengths = [], [], []
    if args.trace:
        runs.append(measuring(0, args.seconds))
    else:
        for k in range(PROCESSES):
            if k >= MIN_PROCESSES and time.monotonic() + max(lengths) > deadline - EXIT_MARGIN_S:
                break
            t0 = time.monotonic()
            for j in range(SETUP_PROBES):
                setup.append(run_worker([*common, "--setup-only"],
                                        OUT / f"{tag}.setup{k}-{j}.json", deadline)[1])
            runs.append(measuring(k, args.seconds / PROCESSES))
            lengths.append(time.monotonic() - t0)
    setup += [ready for _, ready in runs]
    killed = [k for k, (w, _) in enumerate(runs) if w is None]
    workers = [w for w, _ in runs if w is not None]

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "processes": len(runs),
        "attempted": sum(w["attempted"] for w in workers) + len(killed),
        "failed": sum(w["failed"] for w in workers) + len(killed),
        "failures": ([dict(f, process=k) for k, (w, _) in enumerate(runs) if w is not None
                      for f in w["failures"]]
                     + [{"process": k, "check": "killed at the time limit"} for k in killed]),
        "setup_samples_s": setup,
        "pass_walls_s": [w["pass_walls_s"] for w in workers],
    }
    if args.trace:
        if not (workers and workers[0]["metrics"]):
            raise RuntimeError(f"the traced process measured nothing: {result['failures']}")
        measured = workers[0]["metrics"]
        result["span_totals"] = workers[0]["span_totals"]
        with open(OUT / f"{tag}.spans.json", "w") as fh:
            json.dump(workers[0]["spans"], fh)
    else:
        measured, result["raw_metrics"], result["speed"] = end_to_end(
            args.workload, workers, setup)
        if len({w["digest"] for w in workers if "digest" in w}) > 1:
            result["failed"] += 1
            result["failures"].append({"check": "summary digest differs between processes"})
    if set(measured) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(measured) ^ set(units))}")

    import manifest

    result["manifest"] = manifest.collect(ROOT)
    result["metrics"] = {k: {"value": measured[k]["value"], "unit": units[k],
                             "samples": measured[k]["samples"]} for k in units}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['processes']} processes, {result['attempted']} passes, "
          f"{result['failed']} failed")
    for f in result["failures"]:
        print(f"  FAILED: {f}")
    raw = result.get("raw_metrics", {})
    for k, m in result["metrics"].items():
        as_measured = f"  (as measured {raw[k]['value']:.6g})" if k in TIMES + RATES and raw else ""
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']}{as_measured}")
    if "speed" in result:
        sp = result["speed"]
        print(f"  speed reference: median {sp['ref_median_s']:.4g} s over {len(sp['ref_samples_s'])} "
              f"samples; times scaled by {sp['scale']:.4g}")
    man = result["manifest"]
    print(f"  manifest: git {man['git_sha']}, src {man['src_sha256'][:12]}, "
          f"python {man['python']}, numpy {man['numpy']}, blas {man['blas']}, "
          f"nproc {man['nproc']}, cpu {man['cpu_model']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line harness: generate, pod, place, pipeline (aliases
reconstruct, assimilate), properties. Each subcommand takes its config
from exactly one of --config and --preset and checks it once, on the
loaded values with --seed, --noise-std and --out merged in. generate,
pod and place are one command: run_pipeline's first stages, timed by its
_stage, so a failure names its stage as the pipeline's does."""

import argparse
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    _stage,
    fit_basis,
    generate_trajectories,
    json_text,
    list_presets,
    load_preset,
    place_sensors,
    run_pipeline,
    write_csvs,
    write_json,
)
from .properties import run_all


def _load_config(args):
    overrides = {"seed": args.seed, "noise_std": args.noise_std, "output_dir": args.out}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.config is not None:
        return ExperimentConfig.from_json(args.config, **overrides)
    return load_preset(args.preset, **overrides)


def _add_config_flags(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON experiment config")
    source.add_argument("--preset", help=f"bundled preset; one of {', '.join(list_presets())}")
    sub.add_argument("--seed", type=int, default=None, help="override the noise seed")
    sub.add_argument("--noise-std", dest="noise_std", type=float, default=None,
                     help="override the observation noise standard deviation")
    sub.add_argument("--out", default=None, help="output directory")


def cmd_stages(args):
    """generate, pod and place: the pipeline's first stages, each under its
    stage timer, up to the one the command names; writes that stage's files."""
    cfg = _load_config(args)
    timings = {}
    with _stage(timings, "generate"):
        train, test = generate_trajectories(cfg)
    if args.command == "generate":
        out = write_csvs(cfg.output_dir, ("train.csv", "test.csv"), train=train, test=test)
        for name, traj in (("train.csv", train), ("test.csv", test)):
            print(f"wrote {out / name} ({traj.states.shape[0]} x {traj.states.shape[1]})")
        return 0
    with _stage(timings, "pod"):
        _, basis = fit_basis(cfg, train)
    if args.command == "pod":
        out = write_csvs(cfg.output_dir, ("pod_modes.csv", "singular_values.csv"), basis=basis)
        print(f"wrote {out / 'pod_modes.csv'} and {out / 'singular_values.csv'}")
        return 0
    with _stage(timings, "place"):
        sel = place_sensors(cfg, basis)
    write_csvs(cfg.output_dir, ("sensors.csv",), selection=sel)
    print(f"sensor indices: {[int(i) for i in sel.indices]}")
    return 0


def cmd_pipeline(args):
    cfg = _load_config(args)
    result = run_pipeline(cfg)
    print(json_text(result.summary), end="")
    print(f"artifacts in {cfg.output_dir}", file=sys.stderr)
    return 0


def cmd_properties(args):
    report = run_all(seed=args.seed or 0)
    payload = {}
    failures = 0
    for suite, checks in report.items():
        payload[suite] = {
            "passed": sum(1 for _, ok, _ in checks if ok),
            "failed": sum(1 for _, ok, _ in checks if not ok),
            "checks": [
                {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
            ],
        }
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {suite}: {name}" + (f" ({detail})" if detail else ""))
            failures += 0 if ok else 1
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_json(Path(args.out) / "properties.json", payload)
    print(f"{failures} failing check(s)")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sdeim",
        description="Sparse-sensor state reconstruction and kernel-ODE assimilation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, desc, aliases in [
        ("generate", cmd_stages, "write train/test trajectories", []),
        ("pod", cmd_stages, "extract the basis and singular values", []),
        ("place", cmd_stages, "greedy sensor placement", []),
        ("pipeline", cmd_pipeline, "full experiment with summary.json: interpolation "
         "baseline and kernel-ODE assimilation", ["reconstruct", "assimilate"]),
    ]:
        sub = subs.add_parser(name, help=desc, aliases=aliases)
        _add_config_flags(sub)
        sub.set_defaults(fn=fn)
    prop = subs.add_parser("properties", help="run all module invariant suites")
    prop.add_argument("--seed", type=int, default=0)
    prop.add_argument("--out", default=None, help="directory for properties.json")
    prop.set_defaults(fn=cmd_properties)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # one line, naming the failing stage if a stage ran
        stage = getattr(exc, "stage", None)
        where = f" (stage: {stage})" if stage else ""
        raise SystemExit(f"{args.command} failed: {type(exc).__name__}: {exc}{where}") from exc


if __name__ == "__main__":
    raise SystemExit(main())

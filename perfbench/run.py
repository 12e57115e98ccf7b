"""The repository benchmark: one seeded workload per run.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``dse-sweep``, ``cli-session``, ``serve-mixed``,
``sim-infer`` (see README.md beside this file for why each exists), or
``all`` to run each in turn in its own process.
With ``--trace 0`` the run measures the end-to-end metrics untraced.
With ``--trace 1`` it runs the workload untraced for half the time and
traced for the other half, and reports the per-layer metrics, the
tracing overhead and the share of operation time no span covers.

Every output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, named as in
``BENCHMARK.json``. A failed check exits 1, a broken checkout 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback

import common

WORKLOAD_MODULES = {
    "dse-sweep": "wl_dse",
    "cli-session": "wl_cli",
    "serve-mixed": "wl_serve",
    "sim-infer": "wl_sim",
}


def _spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _module(name: str):
    return __import__(WORKLOAD_MODULES[name])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _traced(name: str, module, args) -> tuple:
    """Untraced half, then traced half; returns (outcome, metrics)."""
    import spans

    half = args.seconds / 2
    untraced = module.run(common.RunConfig(args.seed, half,
                                           measure_setup=False))
    tracer = spans.Tracer()
    installed = spans.install(tracer) if module.IN_PROCESS else None
    try:
        traced = module.run(common.RunConfig(args.seed, half, tracer=tracer,
                                             measure_setup=False))
    finally:
        if installed is not None:
            installed.remove()
    dumps = [tracer.snapshot()]
    for path in traced.span_files:
        if path.exists():
            dumps.append(json.loads(path.read_text()))
        else:
            traced.fail(f"traced child wrote no spans to {path.name}")
    shutil.rmtree(common.WORK / "spans", ignore_errors=True)
    merged = spans.merge(dumps)
    common.WORK.joinpath(f"trace-{name}.json").write_text(
        json.dumps(spans.chrome_trace(merged))
    )
    for problem in spans.coverage_problems(merged, name):
        traced.fail(problem)
    metrics = spans.layer_metrics(merged)
    metrics.update(traced.layer_extra)
    metrics["trace.overhead"] = (
        traced.e2e["op_p50_ms"][0] / untraced.e2e["op_p50_ms"][0] - 1.0
    )
    metrics["trace.uncovered_share"] = spans.uncovered_share(
        traced.ops, merged["records"]
    )
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.problems = untraced.problems + traced.problems
    if untraced.digest != traced.digest:
        traced.fail("traced half produced a different output digest")
    traced.properties.append(
        f"tracing: {len(merged['records'])} span records "
        f"({merged['dropped']} dropped), trace written to "
        f".bench_work/trace-{name}.json"
    )
    return traced, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {common.SRC / 'repro'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([
                common.python(), __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOAD_MODULES
        ]
        return max(codes)
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(common.SRC))
    module = _module(args.workload)
    if args.setup_probe:
        module.prepare(args.seed)
        return 0
    common.WORK.mkdir(exist_ok=True)
    spec = _spec()
    if args.trace:
        outcome, measured = _traced(args.workload, module, args)
        wanted = spec["per_layer"]
    else:
        outcome = module.run(common.RunConfig(args.seed, args.seconds))
        measured = {name: value for name, (value, _) in outcome.e2e.items()}
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if not args.trace:
        for name, (value, unit) in outcome.named.items():
            print(f"  {name} = {common.format_value(value)} {unit}")
    for line in outcome.properties:
        print(f"  {line}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    print(f"  output_digest {outcome.digest}")
    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']} = {common.format_value(value)} "
              f"{entry['unit']}")
    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)

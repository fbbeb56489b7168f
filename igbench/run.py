"""Benchmark entry point.

    python3 igbench/run.py --workload bulk --seed 1 --seconds 18 --trace 0

Runs one workload (``bulk`` or ``ingest``, the ones ``BENCHMARK.json``
gates, or the ungated ``line`` and ``fit``; see
``igbench/README.md``) against the checkout's ``src`` tree.  With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
runs the per-layer probes instead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the environment and per-phase detail.

Exits non-zero without a result line when the program under test is
missing or a workload cannot complete.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import sys
import traceback

import common

# workload -> (module, function) of its end-to-end run
WORKLOADS = {"line": ("serving_loads", "run_line"),
             "bulk": ("serving_loads", "run_bulk"),
             "ingest": ("ingest_load", "run_ingest"),
             "fit": ("fit_load", "run_fit")}

END_TO_END_UNITS = {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms",
                    "throughput_per_s": "1/s", "rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    """One run; returns the result object (the last output line)."""
    common.use_source_tree()
    work = common.WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    phases = common.Phases()
    try:
        if args.trace:
            layers = importlib.import_module("layers")
            metrics, env, detail = layers.run(args.workload, args.seed,
                                              work, phases)
            units = layers.UNITS
        else:
            module, function = WORKLOADS[args.workload]
            runner = getattr(importlib.import_module(module), function)
            metrics, env, detail = runner(args.seed, args.seconds, work,
                                          phases)
            units = END_TO_END_UNITS
    finally:
        common.sweep(phases)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "env": common.environment(**env),
                      "phases": phases.counts, "problems": phases.problems,
                      "detail": detail}))
    return {
        "correct": not phases.problems and phases.failed == 0,
        "attempted": phases.attempted,
        "failed": phases.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.mark_run()
    # SIGTERM unwinds like an error, so the sweep still stops every
    # process the run started.
    signal.signal(signal.SIGTERM, _terminate)
    if not common.source_present():
        print(f"error: no program under test: {common.SRC} is missing",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except Exception:  # any workload failure: no result line, non-zero exit
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

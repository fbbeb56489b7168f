"""Same-commit steadiness report.

    python3 igbench/steadiness.py --workload line --seeds 10 [--first-seed 1]

Runs ``igbench/run.py`` on one or more workloads over consecutive seeds
(untraced, ``run_seconds`` from ``BENCHMARK.json``) and prints, for every
end-to-end metric, the median, the quartiles and the spread — the
interquartile distance as a share of the median — against the metric's
bound.  Quartiles are ``statistics.quantiles(values, n=4)``.  The last
line is the whole report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "igbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values,
            "within_third": None if bound is None else spread < bound / 3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="repeatable; default: every workload in "
                             "BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value['value']:.4g}"
                for name, value in runs[-1]["metrics"].items()), flush=True)
        incorrect = [r for r in runs if not r["correct"] or r["failed"]]
        rows = {name: summarize([r["metrics"][name]["value"] for r in runs],
                                bounds[name])
                for name in bounds}
        report[workload] = {"runs": len(runs), "incorrect": len(incorrect),
                            "wall_s_max": max(r["wall_s"] for r in runs),
                            "metrics": rows}
        print(f"\n{workload}: {len(runs)} runs, {len(incorrect)} incorrect, "
              f"slowest run {report[workload]['wall_s_max']:.1f} s")
        print(f"  {'metric':18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for name, row in rows.items():
            flag = "" if row["within_third"] else "  > bound/3"
            print(f"  {name:18} {row['median']:10.4g} {row['q1']:10.4g} "
                  f"{row['q3']:10.4g} {row['spread']:7.3f} "
                  f"{row['bound']:6.2f}{flag}", flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

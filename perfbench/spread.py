"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --out perfbench/spread.json

Runs ``perfbench/run.py --trace 0`` once per seed (seeds ``--first-seed`` up),
one run at a time, for each workload in BENCHMARK.json.  For every metric it
reports the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
Each spread is compared with a third of the metric's bound.  ``--out`` saves
the figures; ``run.py`` prints that file in its machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    figures: dict[str, dict] = {}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - began)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload:16} seed {seed:<4} " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
            ), flush=True)
        figures[workload] = {"run_wall_s_max": max(walls), "metrics": {}}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            figures[workload]["metrics"][name] = {"median": median, "spread": spread}
            limit = bounds[name] / 3
            verdict = "ok" if spread < limit or name == "setup_s" else "WIDE"
            steady = steady and verdict == "ok"
            print(f"{workload:16} {name:12} median {median:12.6g} spread {spread:7.4f} "
                  f"(bound/3 {limit:.4f}) {verdict}")
        print(f"{workload:16} slowest run took {max(walls):.1f} s")
    if args.out is not None:
        record = {"nproc": os.cpu_count(), "python": platform.python_version(),
                  "runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
                  "workloads": figures}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())

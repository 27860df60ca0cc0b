#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 bench/spread.py --workload lp-decide --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --write bench/baseline.json

For every workload (all of BENCHMARK.json's by default) and seed it runs
``bench/run.py --trace 0`` once, one run at a time, and prints per
end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json.  The same
share is printed for the wall-clock figures.  Each seed's corpus and
output digests are compared with those ``bench/baseline.json`` recorded
for the same workload and seed, when it has them.

With ``--write`` the results go to a JSON file together with the
Python version, platform and nproc, and one ``--trace 1`` run on the
first seed per workload for the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    out = {"attempted": result["attempted"], "failed": result["failed"],
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}, "wall_clock": {}}
    for line in lines:
        if line.startswith("output digest "):
            out["output_sha256"] = line.split()[-1]
        elif line.startswith("corpus "):
            out["corpus_sha256"] = line.split()[-1]
        elif line.startswith("known defect: ") and " of " in line:
            out["known_defect"] = line[len("known defect: "):]
        elif trace == 0:
            match = re.match(r"(\w+)(?: \(p\d+\))?\s+(\S+)\s+(\S+)\s+\S+\s+n=\d+$", line)
            if match and match.group(1) in out["metrics"]:
                out["wall_clock"][match.group(1)] = float(match.group(3))
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", help="write the results to this JSON file")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("a spread needs two seeds or more")
    recorded_path = BENCH / "baseline.json"
    recorded = json.loads(recorded_path.read_text(encoding="utf-8")) if recorded_path.is_file() else {}

    results = {}
    for workload in workloads:
        runs = {}
        for seed in seeds:
            runs[seed] = run_once(workload, seed, args.seconds, 0)
            m = runs[seed]["metrics"]
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in m.items())
                  + f"  failed {runs[seed]['failed']}/{runs[seed]['attempted']}", flush=True)
            before = recorded.get("workloads", {}).get(workload, {}).get("seeds", {}).get(str(seed))
            if before is not None:
                same = all(before.get(k) == runs[seed].get(k) for k in ("corpus_sha256", "output_sha256"))
                print(f"{workload} seed {seed}: digests {'repeat' if same else 'DIFFER from'} "
                      f"{recorded_path.relative_to(ROOT)}", flush=True)
        over = {}
        for name in runs[seeds[0]]["metrics"]:
            over[name] = spread([r["metrics"][name] for r in runs.values()])
            over[f"wall_clock_{name}"] = spread([r["wall_clock"][name] for r in runs.values()])
        print(f"\n{workload}: {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, s in over.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (" OVER BOUND" if s["iqr_over_median"] > bound
                                             else " over a third" if s["iqr_over_median"] > bound / 3 else "")
            print(f"{workload}: {name:30} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['iqr_over_median']:8.4f} {bound if bound is not None else '':>6}{flag}")
        print(flush=True)
        results[workload] = {"why": why[workload], "over_seeds": over, "seeds": runs}

    if args.write:
        previous = {}
        path = Path(args.write)
        if path.is_file():
            previous = json.loads(path.read_text(encoding="utf-8"))
        for workload in workloads:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            results[workload][f"per_layer_seed_{seeds[0]}"] = traced["metrics"]
            if traced.get("output_sha256") != results[workload]["seeds"][seeds[0]].get("output_sha256"):
                print(f"{workload}: traced run printed other outputs than the timed run", file=sys.stderr)
                return 1
        doc = {
            "about": f"python3 bench/spread.py --seeds {args.seeds} --seconds {args.seconds}: one --trace 0 run "
                     f"per workload and seed, one --trace 1 run on seed {seeds[0]}",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "run_seconds": args.seconds,
            "workloads": {**previous.get("workloads", {}), **results},
        }
        if "roadmap_rows" in previous:
            doc["roadmap_rows"] = previous["roadmap_rows"]
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"results written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the baseline rows of ROADMAP.md in process, next to the figures quoted there.

ROADMAP.md quotes single in-process runs on feasible instances:
enumeration T2 at 16 faces, LP T2 at 40 faces and LP T4 at 40 faces.  The
40-face rows lie outside every benchmark workload (their requests take
seconds each), so this script times them on their own, with instances
from the benchmark's generator, and prints the median of a few seeds::

    python3 bench/roadmap_rows.py --seeds 3
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402

# (theorem, method, faces, seconds quoted in ROADMAP.md)
ROWS = [
    ("T2", "enumerate", 16, 0.68),
    ("T2", "lp", 40, 0.26),
    ("T4", "lp", 40, 3.3),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args(argv)
    from anglestruct import cli

    out = BENCH.parent / ".bench_out" / "roadmap-rows"
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'row':18} {'quoted s':>9} {'median s':>9} {'ratio':>6}  per seed")
    for theorem, method, n, quoted in ROWS:
        times = []
        for seed in range(args.seeds):
            rng = random.Random(f"roadmap:{theorem}:{n}:{seed}")
            req = corpus.decision_request(theorem, corpus.random_gluing(n, rng), "feasible", rng, method)
            path = out / f"{theorem}-{n}-{seed}.json"
            path.write_text(json.dumps(req["instance"]), encoding="utf-8")
            argv = [a.replace("{path}", str(path)) for a in req["argv"]]
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            times.append(time.perf_counter() - start)
            if code != 0 or json.loads(buf.getvalue())["verdict"] != "feasible":
                print(f"unexpected answer on {path.name}: {buf.getvalue().strip()}", file=sys.stderr)
                return 1
        median = statistics.median(times)
        print(f"{theorem} {method:9} {n:>3}F {quoted:9.2f} {median:9.3f} {median / quoted:6.2f}  "
              + " ".join(f"{t:.3f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())

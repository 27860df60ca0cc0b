#!/usr/bin/env python3
"""Seeded sweep comparing the enumeration, LP and flow deciders side by side.

Generates random connected surfaces and random invariants, runs all three
paths for all four checks, and prints one row per instance: the
enumeration verdict of each check, then an lp and a flow column naming
the checks where that decider disagrees with enumeration ("ok" when none
does).  A decider disagrees when any part of its report differs: verdict,
certificate or slack.  Exits 1 on any disagreement.
Useful as a quick end-to-end exercise and as a template for larger
experiments.

Usage: python scripts/demo_sweep.py [--trials N] [--seed S] [--faces F]
"""

import argparse
import random
import time

from anglestruct import Verdict, check_via_enumeration, check_via_flow
from anglestruct.feasibility import THEOREMS
from anglestruct.lp import check_via_lp
from anglestruct.sampling import random_edge_values, random_triangulation

# the four existence theorems; geometry, invariant kind and domain of each
# check come from its THEOREMS row
CHECKS = [name for name, row in THEOREMS.items() if row.strict]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--faces", type=int, default=None, help="fixed face count (default: random even 2..10)")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    started = time.time()
    disagreements = 0
    print(f"{'trial':>5} {'|F|':>4}  " + "  ".join(f"{name:>6}" for name in CHECKS) + f"  {'lp':>11}  {'flow':>11}")
    for trial in range(args.trials):
        n = args.faces or rng.choice([2, 4, 6, 8, 10])
        t = random_triangulation(n, rng)
        cells, lp_off, flow_off = [], [], []
        for name in CHECKS:
            row = THEOREMS[name]
            fn = random_edge_values(t, rng, row.lo, row.hi, row.kind)
            enumerated = check_via_enumeration(t, fn, name)
            if check_via_lp(t, fn, row.geometry) != enumerated:
                lp_off.append(name)
            if check_via_flow(t, fn, name) != enumerated:
                flow_off.append(name)
            cells.append(f"{'feas' if enumerated.verdict is Verdict.FEASIBLE else 'infeas':>6}")
        disagreements += len(lp_off) + len(flow_off)
        lp_cell, flow_cell = (",".join(off) or "ok" for off in (lp_off, flow_off))
        print(f"{trial:>5} {t.n_faces:>4}  " + "  ".join(cells) + f"  {lp_cell:>11}  {flow_cell:>11}")
    elapsed = time.time() - started
    print(f"\n{args.trials} instances x 4 checks x 3 deciders in {elapsed:.1f}s, {disagreements} disagreements")
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

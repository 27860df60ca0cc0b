"""Seeded corpus generator for the anglestruct benchmark (stdlib only).

Builds every workload's instance files and a manifest that records, for
each request, the argv it is run with and the answer known by
construction.  The generator does not use ``anglestruct``: gluings,
structures and both invariants are computed from scratch, so a change to
the package cannot change the workload, and the benchmark's output
checks do not rest on the code they check.

All angles are rationals in pi-units.  Every structure uses the common
denominator ``DEN``, which keeps the size of the exact arithmetic the
same from seed to seed, so one seed costs about what another does.

Run as a script it is the benchmark's set-up step: in a fresh interpreter
it imports ``anglestruct.cli``, writes the corpus and prints one JSON line
with the elapsed wall time and the corpus hash::

    python3 bench/corpus.py --workload lp-decide --seed 1 --out .bench_out/x
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

DEN = 120
ROOT = Path(__file__).resolve().parents[1]

# (geometry flag, invariant flag) per theorem; L7 has no CLI entry.
THEOREM_FLAGS = {
    "T1": ("spherical", "edge"),
    "T2": ("hyperbolic", "edge"),
    "T3": ("spherical", "delaunay"),
    "T4": ("hyperbolic", "delaunay"),
}


# ---------------------------------------------------------------------------
# surfaces and structures


def random_gluing(n_faces: int, rng: random.Random, self_glued: bool = False) -> list[list[int]]:
    """Connected gluing of n_faces triangles, edges numbered by first appearance.

    Pairs the 3|F| slots of a shuffled list; without ``self_glued`` a
    pairing that glues a face to itself is drawn again.
    """
    for _ in range(10_000):
        slots = [(f, k) for f in range(n_faces) for k in range(3)]
        rng.shuffle(slots)
        pairs = [(slots[i], slots[i + 1]) for i in range(0, len(slots), 2)]
        if not self_glued and any(a[0] == b[0] for a, b in pairs):
            continue
        faces = [[-1, -1, -1] for _ in range(n_faces)]
        for e, (a, b) in enumerate(pairs):
            faces[a[0]][a[1]] = e
            faces[b[0]][b[1]] = e
        if _connected(faces):
            return _renumber(faces)
    raise RuntimeError("no connected gluing found")


def _connected(faces) -> bool:
    by_edge: dict[int, list[int]] = {}
    for f, row in enumerate(faces):
        for e in row:
            by_edge.setdefault(e, []).append(f)
    seen = {0}
    stack = [0]
    while stack:
        f = stack.pop()
        for e in faces[f]:
            for g in by_edge[e]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return len(seen) == len(faces)


def _renumber(faces) -> list[list[int]]:
    """Dense edge ids in order of first appearance, as the CLI requires."""
    index: dict[int, int] = {}
    return [[index.setdefault(e, len(index)) for e in row] for row in faces]


def _triple(rng: random.Random, geometry: str) -> list[int]:
    """Numerators over DEN of one face's three angles.

    ``acute-euclidean`` keeps every angle below pi/2 (so edge invariants stay
    below pi), ``narrow-spherical`` keeps angles in (pi/3, pi/2), and
    ``even-hyperbolic`` keeps x_j + x_k - x_i positive (positive Delaunay
    invariant).
    """
    while True:
        if geometry == "euclidean":
            a = rng.randint(1, DEN - 2)
            b = rng.randint(1, DEN - 1 - a)
            out = [a, b, DEN - a - b]
        elif geometry == "acute-euclidean":
            a = rng.randint(DEN // 4 + 1, DEN // 2 - 1)
            b = rng.randint(DEN // 4 + 1, DEN // 2 - 1)
            out = [a, b, DEN - a - b]
            if not max(out) < DEN // 2:
                continue
        elif geometry == "hyperbolic":
            total = rng.randint(DEN // 2, DEN - 6)
            a = rng.randint(1, total - 2)
            b = rng.randint(1, total - 1 - a)
            out = [a, b, total - a - b]
        elif geometry == "even-hyperbolic":
            total = rng.randint(DEN // 2, DEN - 6)
            base = total // 3
            out = [base + rng.randint(-base // 5, base // 5) for _ in range(2)]
            out.append(total - sum(out))
            if min(out[j] + out[(j + 1) % 3] - out[(j + 2) % 3] for j in range(3)) <= 0:
                continue
        elif geometry == "narrow-spherical":
            out = [rng.randint(DEN // 3 + 1, DEN // 2 - 1) for _ in range(3)]
        elif geometry == "spherical":
            out = [rng.randint(DEN // 5, 3 * DEN // 4) for _ in range(3)]
            a, b, c = out
            if not (a + b + c > DEN and b + c - a < DEN and a + c - b < DEN and a + b - c < DEN):
                continue
        else:
            raise ValueError(geometry)
        rng.shuffle(out)
        return out


def random_structure(faces, geometry: str, rng: random.Random) -> list[list[Fraction]]:
    return [[Fraction(v, DEN) for v in _triple(rng, geometry)] for _ in faces]


def _facing(faces):
    """The two (face, slot) corners facing each edge."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(3 * len(faces) // 2)]
    for f, row in enumerate(faces):
        for k, e in enumerate(row):
            out[e].append((f, k))
    return out


def edge_invariant(faces, x) -> list[Fraction]:
    """Sum of the two facing angles, per edge."""
    return [sum((x[f][k] for f, k in pair), Fraction(0)) for pair in _facing(faces)]


def delaunay_invariant(faces, x) -> list[Fraction]:
    """Non-facing angles of both sides minus the facing ones, per edge."""
    return [
        sum((x[f][(k + 1) % 3] + x[f][(k + 2) % 3] - x[f][k] for f, k in pair), Fraction(0))
        for pair in _facing(faces)
    ]


def classify(x) -> str:
    """Common geometry class of all faces, or ``not-geometric``."""
    classes = set()
    for a, b, c in x:
        if not all(0 < v < 1 for v in (a, b, c)):
            return "not-geometric"
        s = a + b + c
        if s == 1:
            classes.add("euclidean")
        elif s < 1:
            classes.add("hyperbolic")
        elif b + c - a < 1 and a + c - b < 1 and a + b - c < 1:
            classes.add("spherical")
        else:
            return "not-geometric"
    return classes.pop() if len(classes) == 1 else "not-geometric"


def render(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def values_json(values) -> dict:
    return {str(e): render(v) for e, v in enumerate(values)}


def structure_json(x) -> dict:
    return {"corners": [[f"{f}/{k}", render(x[f][k])] for f in range(len(x)) for k in range(3)]}


# ---------------------------------------------------------------------------
# instances with a known answer
#
# feasible:   the invariant of a structure of the target geometry;
# boundary:   the invariant of a Euclidean structure, whose minimum slack
#             is exactly 0 (the subset F for T1/T4, the empty subset for
#             T2/T3/L7), so the verdict is infeasible (closure-only for L7);
# infeasible: a boundary invariant pushed a few steps of 1/DEN past the
#             boundary on a few edges, so that same subset has slack < 0.


def _theorem_invariant(theorem: str, faces, rng: random.Random, status: str):
    """(invariant kind, values) for one theorem and status."""
    delaunay = theorem in ("T3", "T4")
    if status == "feasible":
        geometry = {
            "T1": "narrow-spherical",
            "T2": "hyperbolic",
            "T3": "spherical",
            "T4": "even-hyperbolic",
            "L7": "hyperbolic",
        }[theorem]
    else:
        geometry = "acute-euclidean" if theorem in ("T1", "T4") else "euclidean"
    x = random_structure(faces, geometry, rng)
    values = delaunay_invariant(faces, x) if delaunay else edge_invariant(faces, x)
    if status == "infeasible":
        values = _push_past_boundary(theorem, values, rng)
    return ("delaunay" if delaunay else "edge"), values


def _push_past_boundary(theorem: str, values, rng: random.Random):
    """Move a few values outward while staying inside the theorem's domain.

    T1 lowers edge values (less edge weight), T2/L7 raise them; for the
    Delaunay theorems the weight is pi - Dd/2, so T3 lowers Dd and T4
    raises it.
    """
    step = Fraction(1, DEN)
    lo, hi = {"T1": (0, 1), "T2": (0, 2), "L7": (0, 2), "T3": (-2, 2), "T4": (0, 2)}[theorem]
    direction = -1 if theorem in ("T1", "T3") else 1
    values = list(values)
    moved = 0
    for e in rng.sample(range(len(values)), len(values)):
        for size in range(rng.randint(1, 3), 0, -1):
            v = values[e] + direction * size * step
            if lo < v < hi:
                values[e] = v
                moved += 1
                break
        if moved >= 3:
            break
    if not moved:
        raise RuntimeError("no value could be pushed past the boundary")
    return values


def _instance(faces, kind: str, values, structure=None, stated_class=None) -> dict:
    obj: dict = {"faces": faces}
    if kind == "edge":
        obj["D"] = values_json(values)
    else:
        obj["invariant"] = {"kind": kind, "values": values_json(values)}
    if structure is not None:
        obj["structure"] = structure_json(structure)
    if stated_class is not None:
        obj["class"] = stated_class
    return obj


def decision_request(theorem: str, faces, status: str, rng: random.Random, method: str | None):
    """check (or, for L7, check_closure) on one instance with a known verdict."""
    kind, values = _theorem_invariant(theorem, faces, rng, status)
    if theorem == "L7":
        op, argv = "closure", []
        verdict = "infeasible" if status == "infeasible" else "closure-only"
    else:
        geometry, flag = THEOREM_FLAGS[theorem]
        op = "check"
        argv = ["check", "{path}", "--geometry", geometry, "--invariant", flag]
        if method is not None:
            argv += ["--method", method]
        verdict = "feasible" if status == "feasible" else "infeasible"
    expect = {"exit": 1 if verdict == "infeasible" else 0, "verdict": verdict, "theorem": theorem,
              "status": status, "kind": kind, "values": values_json(values)}
    return {"op": op, "theorem": theorem, "faces": len(faces), "argv": argv,
            "instance": _instance(faces, kind, values), "expect": expect}


def construct_request(theorem: str, n_faces: int, rng: random.Random):
    """construct on an invariant that is feasible by construction."""
    faces = random_gluing(n_faces, rng)
    kind, values = _theorem_invariant(theorem, faces, rng, "feasible")
    geometry, _ = THEOREM_FLAGS[theorem]
    expect = {"exit": 0, "class": geometry, "theorem": theorem, "kind": kind,
              "values": values_json(values)}
    return {"op": "construct", "theorem": theorem, "faces": n_faces,
            "argv": ["construct", "{path}", "--geometry", geometry],
            "instance": _instance(faces, kind, values), "expect": expect}


# ---------------------------------------------------------------------------
# small-batch requests: tiny surfaces, self-glued fixtures, malformed input

TETRA = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]
SELF_GLUED = [[0, 0, 1], [1, 2, 2]]


def _tiny_faces(rng: random.Random, n_faces: int, self_glued: bool):
    if self_glued and n_faces == 2:
        return [list(row) for row in SELF_GLUED]
    if not self_glued and n_faces == 4 and rng.random() < 0.5:
        return [list(row) for row in TETRA]
    return random_gluing(n_faces, rng, self_glued=self_glued)


def structure_request(op: str, n_faces: int, self_glued: bool, rng: random.Random):
    """invariants or verify on a structure of random class."""
    faces = _tiny_faces(rng, n_faces, self_glued)
    cls = rng.choice(["euclidean", "hyperbolic", "spherical"])
    x = random_structure(faces, cls, rng)
    d, dd = edge_invariant(faces, x), delaunay_invariant(faces, x)
    if op == "invariants":
        expect = {"exit": 0, "class": cls, "edge": values_json(d), "delaunay": values_json(dd),
                  "euclidean_relation": all(2 * a + b == 2 for a, b in zip(d, dd))}
        return {"op": op, "theorem": "-", "faces": n_faces, "argv": ["invariants", "{path}"],
                "instance": _instance(faces, "edge", d, x), "expect": expect}
    kind = rng.choice(["edge", "delaunay"])
    values = list(d if kind == "edge" else dd)
    mismatched = []
    if rng.random() < 0.5:
        mismatched = sorted(rng.sample(range(len(values)), rng.randint(1, min(2, len(values)))))
        for e in mismatched:
            values[e] += Fraction(1, DEN)
    expect = {"exit": 1 if mismatched else 0, "ok": not mismatched, "mismatched_edges": mismatched,
              "class_ok": True}
    return {"op": op, "theorem": "-", "faces": n_faces, "argv": ["verify", "{path}"],
            "instance": _instance(faces, kind, values, x, cls), "expect": expect}


def _malformed_cases():
    """(error type, instance text, argv tail) for inputs that must exit 2."""
    tetra_d = {str(e): "7/10" for e in range(6)}
    check = ["--geometry", "spherical", "--invariant", "edge"]
    structure = structure_json([[Fraction(1, 3)] * 3 for _ in TETRA])
    short = {"corners": structure["corners"][:-1]}
    return [
        ("ZeroDenominator", {"faces": TETRA, "D": {**tetra_d, "2": "1/0"}}, check),
        ("MalformedRational", {"faces": TETRA, "D": {**tetra_d, "4": "seven"}}, check),
        ("InvalidInstance", {"faces": TETRA, "invariant": {"kind": "delaunay", "values": tetra_d}}, check),
        ("InvalidInstance", {"faces": TETRA, "D": {"0": "1/2"}}, check),
        ("InvalidInstance", "{\"faces\": [[0, 1, 2]", check),
        ("EdgeDegree", {"faces": [[0, 1, 2], [0, 1, 1], [2, 3, 3]], "D": tetra_d}, check),
        ("Disconnected", {"faces": [[0, 0, 1], [1, 2, 2], [3, 3, 4], [4, 5, 5]], "D": tetra_d}, check),
        ("EmptyTriangulation", {"faces": []}, check),
        ("RangeViolation", {"faces": TETRA, "D": {**tetra_d, "1": "3/2"}}, check),
        ("MissingCorner", {"faces": TETRA, "structure": short}, []),
        ("InvalidInstance", {"faces": TETRA, "structure": structure, "class": "flat"}, []),
        ("InvalidInstance", {"faces": TETRA, "D": tetra_d, "invariant": {"values": tetra_d}}, check),
    ]


# Known defect: each of these inputs raises a traceback out of ``main``
# instead of exiting 2 with an error object.  The benchmark runs them as a
# probe next to the small-batch workload and reports how many still raise.
def defect_cases():
    tetra_d = {str(e): "7/10" for e in range(6)}
    check = ["--geometry", "spherical", "--invariant", "edge"]
    return [
        ("TypeError", {"faces": 5}, check, None),
        ("AttributeError", {"faces": TETRA, "D": ["7/10"] * 6}, check, None),
        ("AttributeError", {"faces": TETRA, "D": {**tetra_d, "0": 1}}, check, None),
        ("ValueError", {"faces": TETRA, "D": tetra_d}, check, "abc"),
    ]


def malformed_request(index: int):
    error_type, obj, tail = _malformed_cases()[index]
    op = "check" if tail else "invariants"
    argv = [op, "{path}"] + list(tail)
    text = obj if isinstance(obj, str) else json.dumps(obj)
    return {"op": "malformed", "theorem": "-", "faces": 0, "argv": argv, "text": text,
            "expect": {"exit": 2, "error_type": error_type}}


# ---------------------------------------------------------------------------
# workloads
#
# A decision workload is a number of blocks.  Each block holds every
# (theorem, |F|) cell once, with the statuses rotated so that each block
# has the same mix and each cell gets each status once in every three
# blocks.  A run that stops part-way through a pass has therefore sent
# nearly the mix of the whole corpus.  The seed changes the surfaces and
# values inside a cell, never the mix.  An instance's cost varies with
# its seed by up to 2x within a cell, so the corpora are as large as one
# pass in a run allows, which keeps one seed's corpus costing about what
# another's does.

STATUSES = ("feasible", "infeasible", "boundary")


def _latin_blocks(sizes: dict, method: str, rng: random.Random, blocks: int):
    requests = []
    for block in range(blocks):
        for i, (theorem, faces_list) in enumerate(sizes.items()):
            for j, n in enumerate(faces_list):
                status = STATUSES[(i + j + block) % len(STATUSES)]
                requests.append(decision_request(theorem, random_gluing(n, rng), status, rng, method))
    return requests


def build_enum_exact(rng):
    sizes = {th: (12, 14, 16) for th in ("T1", "T2", "T3", "T4", "L7")}
    return _latin_blocks(sizes, "enumerate", rng, 5)


# T1 and T4 programs cost several times those of T2 and T3 at equal size
# (0.2-0.6 s at 16-20 faces, 0.5-1.3 s at 24, 2-5 s at 32), so they stop
# at 20 faces: a pass should take well under a run on a loaded host.  A
# 20-face T1 or T4 construction costs 0.4-0.9 s, depending on the seed,
# and ten of them made a quarter of lp-construct's time and most of its
# spread between seeds; at 18 faces six blocks fit in a pass, and the
# spread of requests_per_s over eight seeds fell from 0.10 to 0.06.
LP_DECIDE_SIZES = {"T1": (16, 18, 20), "T2": (16, 24, 32), "T3": (16, 24, 32), "T4": (16, 18, 20)}
LP_CONSTRUCT_SIZES = {"T1": (16, 18), "T2": (16, 24, 32), "T3": (16, 24, 32), "T4": (16, 18)}


def build_lp_decide(rng):
    return _latin_blocks(LP_DECIDE_SIZES, "auto", rng, 5)


def build_lp_construct(rng):
    sizes = LP_CONSTRUCT_SIZES
    return [construct_request(th, n, rng) for _ in range(6) for th in sizes for n in sizes[th]]


def build_small_batch(rng):
    """Four rounds; a 10-face check costs ten times a tiny request, so each
    round holds one of them (a different theorem each round)."""
    theorems = ("T1", "T2", "T3", "T4")
    requests = []
    for round_no in range(4):
        for n in (2, 4, 6, 8, 10):
            for th in theorems if n < 10 else theorems[round_no:round_no + 1]:
                requests.append(decision_request(th, _tiny_faces(rng, n, n == 2), rng.choice(STATUSES), rng, None))
            for op in ("invariants", "verify"):
                requests.append(structure_request(op, n, n == 2 or rng.random() < 0.25, rng))
        requests += [malformed_request(i) for i in range(len(_malformed_cases()))]
    return requests


WORKLOADS = {
    "enum-exact": build_enum_exact,
    "lp-decide": build_lp_decide,
    "lp-construct": build_lp_construct,
    "small-batch": build_small_batch,
}


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


def write_corpus(workload: str, seed: int, out: Path) -> str:
    """Write instance files and manifest.json into ``out``; return the corpus hash."""
    out.mkdir(parents=True, exist_ok=True)
    requests = build(workload, seed)
    digest = hashlib.sha256()
    manifest = []
    for i, req in enumerate(requests):
        name = f"{i:04d}.json"
        text = req.pop("text", None)
        instance = req.pop("instance", None)
        if text is None:
            text = json.dumps(instance)
        (out / name).write_text(text, encoding="utf-8")
        req["file"] = name
        manifest.append(req)
        digest.update(json.dumps(req, sort_keys=True).encode())
        digest.update(text.encode())
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import anglestruct.cli  # noqa: F401  (import cost is part of set-up)

    corpus_hash = write_corpus(args.workload, args.seed, Path(args.out))
    elapsed = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": elapsed, "corpus_sha256": corpus_hash}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

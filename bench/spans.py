"""Traced mode: spans around the package's public functions, from outside.

Each traced function is wrapped once, and every module-level reference to
it in ``anglestruct.*`` is rebound to the wrapper, including references
held in module-level dicts such as the CLI's checker table.  Calls then
go through the wrapper wherever the call site lives, so a later refactor
that moves a call still gets traced.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, request id, detail).  Spans stay in
memory and are written once, when the run ends.  A layer's self time is
the time of its spans minus the time of their direct child spans.

Hot helpers called once per edge or corner (``ratpi.parse``,
``surface.corners_facing``, ``surface.edge_set``, ``angles.classify_triangle``)
are not wrapped: their time counts toward the layer of the traced caller,
which keeps the tracing overhead small.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

# (module, function, group).  A group is one per-layer metric's share of
# self time; the layer is the part before the first dot.
TRACED = [
    ("cli", "main", "cli"),
    ("cli", "build_parser", "cli"),
    ("cli", "cmd_check", "cli"),
    ("cli", "cmd_construct", "cli"),
    ("cli", "cmd_invariants", "cli"),
    ("cli", "cmd_verify", "cli"),
    ("serialize", "load_instance", "serialize.load"),
    ("serialize", "edge_function_from_json", "serialize.load"),
    ("serialize", "structure_from_json", "serialize.load"),
    ("serialize", "report_to_json", "serialize.emit"),
    ("serialize", "structure_to_json", "serialize.emit"),
    ("serialize", "edge_function_to_json", "serialize.emit"),
    ("serialize", "dumps", "serialize.emit"),
    ("surface", "validate", "surface.validate"),
    ("feasibility", "check_spherical_edge", "feasibility.scan"),
    ("feasibility", "check_hyperbolic_edge", "feasibility.scan"),
    ("feasibility", "check_spherical_delaunay", "feasibility.scan"),
    ("feasibility", "check_hyperbolic_delaunay", "feasibility.scan"),
    ("feasibility", "check_closure", "feasibility.scan"),
    ("feasibility", "subset_slack", "feasibility.subset_slack"),
    ("lp", "simplex_solve", "lp.simplex"),
    ("lp", "minimize_coverage_deficit", "lp.coverage"),
    ("lp", "check_via_lp", "lp.construct"),
    ("lp", "construct_structure", "lp.construct"),
    ("lp", "construct_hyperbolic_with_delaunay", "lp.construct"),
    ("lp", "construct_spherical_with_delaunay", "lp.construct"),
    ("angles", "classify_structure", "angles.revalidate"),
    ("angles", "edge_invariant", "angles.revalidate"),
    ("angles", "delaunay_invariant", "angles.revalidate"),
    ("angles", "corner_transform", "angles.transform"),
    ("angles", "corner_transform_inverse", "angles.transform"),
]

REQUEST = "request"

# per-layer metric -> (unit, groups it needs wrapped)
PER_LAYER = {
    "cli.self_ms": ("ms", ["cli"]),
    "serialize.load_ms": ("ms", ["serialize.load"]),
    "serialize.emit_ms": ("ms", ["serialize.emit"]),
    "surface.validate_ms": ("ms", ["surface.validate"]),
    "feasibility.scan_ms": ("ms", ["feasibility.scan"]),
    "feasibility.subsets": ("count", ["feasibility.scan"]),
    "feasibility.subsets_per_s": ("1/s", ["feasibility.scan"]),
    "feasibility.subset_slack_ms": ("ms", ["feasibility.subset_slack"]),
    "feasibility.subset_slack_calls": ("count", ["feasibility.subset_slack"]),
    "lp.simplex_ms": ("ms", ["lp.simplex"]),
    "lp.simplex_calls": ("count", ["lp.simplex"]),
    "lp.rows": ("count", ["lp.simplex"]),
    "lp.cols": ("count", ["lp.simplex"]),
    "lp.outcome.optimal": ("count", ["lp.simplex"]),
    "lp.outcome.infeasible": ("count", ["lp.simplex"]),
    "lp.strict_margin_ratio": ("ratio", ["lp.simplex", "lp.construct"]),
    "lp.coverage_ms": ("ms", ["lp.coverage"]),
    "lp.construct_self_ms": ("ms", ["lp.construct"]),
    "angles.revalidate_ms": ("ms", ["angles.revalidate"]),
    "angles.transform_ms": ("ms", ["angles.transform"]),
    "trace.overhead_ratio": ("ratio", []),
}


def _detail(group, args, result):
    """Counts read off a call's arguments and result, outside its span's time."""
    if group == "feasibility.scan" and args:
        return getattr(args[0], "n_faces", None)
    if group == "lp.simplex" and args:
        problem = args[0]
        return [getattr(problem, "n_rows", 0), getattr(problem, "n_cols", 0), type(result).__name__]
    return None


class Tracer:
    """Span recorder; records only while a request id is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.request_index: list[int] = []  # request id -> corpus index
        self.wrapped: dict[str, int] = {}  # group -> references rebound

    def _wrap(self, name: str, group: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _detail(group, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function and rebind all references to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "anglestruct" or n.startswith("anglestruct.")]
        for mod_name, fn_name, group in TRACED:
            original = getattr(sys.modules.get(f"anglestruct.{mod_name}"), fn_name, None)
            self.wrapped.setdefault(group, 0)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", group, original)
            for module in modules:
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if attr.startswith("__"):
                        continue
                    if value is original:
                        namespace[attr] = wrapper
                        self.wrapped[group] += 1
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self.wrapped[group] += 1

    def begin(self, index: int) -> None:
        """Start the root span of one send of corpus request `index`."""
        self.request = len(self.request_index)
        self.request_index.append(index)
        self.stack.append(len(self.spans))
        self.spans.append([REQUEST, time.perf_counter_ns(), 0, -1, self.request, None])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()
        self.request = None

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


GROUP_OF = {f"{m}.{f}": g for m, f, g in TRACED}


def summarize(spans, n_requests: int, wrapped: dict[str, int], overhead_ratio: float):
    """Per-layer metrics (per request unless the unit says otherwise).

    Returns (metrics, absent): ``absent`` names metrics whose functions
    have no remaining references in the package; they are reported as 0.
    """
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    subsets = 0
    rows = cols = 0
    outcomes: dict[str, int] = {}
    construct_simplex: dict[int, int] = {}
    for i, rec in enumerate(spans):
        group = GROUP_OF.get(rec[0], rec[0])
        self_ns[group] = self_ns.get(group, 0) + (rec[2] - rec[1]) - child_ns[i]
        calls[group] = calls.get(group, 0) + 1
        parent_group = GROUP_OF.get(spans[rec[3]][0]) if rec[3] >= 0 else None
        if group == "feasibility.scan" and parent_group != "feasibility.scan" and rec[5] is not None:
            subsets += 1 << rec[5]
        elif group == "lp.simplex":
            r, c, outcome = rec[5]
            rows, cols = rows + r, cols + c
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if parent_group == "lp.construct":
                construct_simplex[rec[4]] = construct_simplex.get(rec[4], 0) + 1

    n = max(n_requests, 1)

    def ms(group):
        return self_ns.get(group, 0) / 1e6 / n

    n_simplex = calls.get("lp.simplex", 0)
    scan_s = self_ns.get("feasibility.scan", 0) / 1e9
    metrics = {
        "cli.self_ms": ms("cli"),
        "serialize.load_ms": ms("serialize.load"),
        "serialize.emit_ms": ms("serialize.emit"),
        "surface.validate_ms": ms("surface.validate"),
        "feasibility.scan_ms": ms("feasibility.scan"),
        "feasibility.subsets": subsets / n,
        "feasibility.subsets_per_s": subsets / scan_s if scan_s else 0.0,
        "feasibility.subset_slack_ms": ms("feasibility.subset_slack"),
        "feasibility.subset_slack_calls": calls.get("feasibility.subset_slack", 0) / n,
        "lp.simplex_ms": ms("lp.simplex"),
        "lp.simplex_calls": n_simplex / n,
        "lp.rows": rows / n_simplex if n_simplex else 0.0,
        "lp.cols": cols / n_simplex if n_simplex else 0.0,
        "lp.outcome.optimal": outcomes.get("Optimal", 0) / n,
        "lp.outcome.infeasible": outcomes.get("Infeasible", 0) / n,
        "lp.strict_margin_ratio": (
            sum(1 for v in construct_simplex.values() if v >= 2) / len(construct_simplex)
            if construct_simplex else 0.0
        ),
        "lp.coverage_ms": ms("lp.coverage"),
        "lp.construct_self_ms": ms("lp.construct"),
        "angles.revalidate_ms": ms("angles.revalidate"),
        "angles.transform_ms": ms("angles.transform"),
        "trace.overhead_ratio": overhead_ratio,
    }
    absent = [name for name, (_, groups) in PER_LAYER.items() if any(not wrapped.get(g) for g in groups)]
    return metrics, absent


def breakdown(spans, request_index, manifest):
    """Rows of (op, theorem, |F|, n, median request ms, median decider ms).

    ``request_index`` maps a request id to its corpus index.  The decider is
    the outermost scan or LP span of the request (check_* or check_via_lp
    or construct_*), the number the baseline rows of ROADMAP.md quote.
    """
    total: dict[int, int] = {}
    decider: dict[int, int] = {}
    for rec in spans:
        if rec[0] == REQUEST:
            total[rec[4]] = rec[2] - rec[1]
            continue
        group = GROUP_OF.get(rec[0])
        parent_group = GROUP_OF.get(spans[rec[3]][0]) if rec[3] >= 0 else None
        if group in ("feasibility.scan", "lp.construct") and parent_group not in ("feasibility.scan", "lp.construct"):
            decider[rec[4]] = decider.get(rec[4], 0) + rec[2] - rec[1]
    cells: dict[tuple, list] = {}
    for rid, ns in total.items():
        req = manifest[request_index[rid]]
        cells.setdefault((req["op"], req["theorem"], req["faces"]), []).append((ns, decider.get(rid, 0)))
    rows = []
    for key in sorted(cells, key=lambda k: (k[0], k[1], k[2])):
        vals = cells[key]
        rows.append((*key, len(vals),
                     statistics.median(v[0] for v in vals) / 1e6,
                     statistics.median(v[1] for v in vals) / 1e6))
    return rows

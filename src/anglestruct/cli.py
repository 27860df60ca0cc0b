"""Command-line front end.

Subcommands: check, construct, invariants, gen, verify.  All output is
JSON on stdout with fixed key order; exit codes are 0 for feasible or
consistent, 1 for infeasible or mismatching, 2 for invalid input or an
unreadable instance file and 3 for an internal self-check failure
(``VerificationFailed``, a bug), the last two with one error object on
stdout, and 141 when the reader closes stdout early (a broken pipe), with
nothing more written and no traceback.  The enumeration cap comes from
--cap, then the ANGLESTRUCT_CAP environment variable, then the default of
20; a value that is not an ASCII decimal integer (-?[0-9]+), or is
negative, from either source, is an InvalidSetting, and so is any usage
error.

Every ``check`` method prints the same report, so ``--method auto`` is the
minimum cut, which decides any size in polynomial time; ``--cross-check``
runs enumeration, LP and cut and requires the same whole report from all
three.  The closure variant L7 has no subcommand; it is available through
the library only.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import feasibility
from .angles import (
    GeometryClass,
    InvariantKind,
    classify_structure,
    delaunay_invariant,
    edge_invariant,
    euclidean_relation_holds,
    mismatched_edges,
)
from .errors import AngleStructError, InvalidSetting, VerificationFailed, excerpt
from .feasibility import FeasibilityReport, Verdict
from .ratpi import render
from .serialize import (
    InvalidInstance,
    dumps,
    edge_function_to_json,
    load_instance,
    report_to_json,
    structure_to_json,
)
from .surface import DEFAULT_ENUMERATION_CAP

# the status a shell reports for a process that SIGPIPE ends (128 + 13)
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too, exit 2 as InvalidSetting."""

    def error(self, message):
        raise InvalidSetting(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anglestruct",
        description="Decide and construct spherical/hyperbolic angle structures "
        "with prescribed edge or Delaunay invariants.",
    )
    parser.add_argument("--cap", default=None, help="subset-enumeration cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="feasibility verdict with certificate")
    p_check.add_argument("path")
    p_check.add_argument("--geometry", choices=["spherical", "hyperbolic"], required=True)
    p_check.add_argument("--invariant", choices=["edge", "delaunay"], required=True)
    p_check.add_argument("--method", choices=["enumerate", "lp", "flow", "auto"], default="auto")
    p_check.add_argument(
        "--cross-check", action="store_true", help="run enumeration, LP and flow, require agreement"
    )
    p_check.add_argument("--dump-lp", action="store_true", help="dump the construction program to stderr")
    p_check.set_defaults(func=cmd_check)

    p_con = sub.add_parser("construct", help="explicit witness structure or certificate")
    p_con.add_argument("path")
    p_con.add_argument("--geometry", choices=["spherical", "hyperbolic"], required=True)
    p_con.add_argument("--dump-lp", action="store_true")
    p_con.set_defaults(func=cmd_construct)

    p_inv = sub.add_parser("invariants", help="both invariants and the geometry class")
    p_inv.add_argument("path")
    p_inv.set_defaults(func=cmd_invariants)

    p_gen = sub.add_parser("gen", help="random connected instance")
    p_gen.add_argument("--faces", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--geometry", choices=["euclidean", "spherical", "hyperbolic"])
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="recompute invariants, compare to stated data")
    p_ver.add_argument("path")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _resolve_cap(args) -> int:
    if args.cap is not None:
        name, value = "--cap", args.cap
    else:
        name, value = "ANGLESTRUCT_CAP", os.environ.get("ANGLESTRUCT_CAP")
        if value is None:
            return DEFAULT_ENUMERATION_CAP
    shown = f"{name}={excerpt(value)}"
    if not re.fullmatch("-?[0-9]+", value):  # ASCII digits only, as ratpi.parse reads
        raise InvalidSetting(f"{shown} is not an integer")
    try:
        cap = int(value)
    except ValueError:  # more digits than int() converts
        raise InvalidSetting(f"{shown} has too many digits") from None
    if cap < 0:
        raise InvalidSetting(f"{shown} is negative")
    return cap


def _require_invariant(invariant, expected_kind=None):
    if invariant is None:
        raise InvalidInstance("instance carries no invariant payload")
    if expected_kind is not None and invariant.kind is not expected_kind:
        raise InvalidInstance(
            f"invariant kind {invariant.kind.value} does not match flag {expected_kind.value}"
        )
    return invariant


def _describe(report: FeasibilityReport) -> str:
    """A report as one phrase, e.g. ``infeasible [0, 2] at slack -1/5``."""
    certificate = "" if report.certificate is None else f" {sorted(report.certificate)}"
    slack = "" if report.slack is None else f" at slack {render(report.slack)}"
    return report.verdict.value + certificate + slack


def cmd_check(args) -> int:
    t, invariant, _, _ = load_instance(args.path)
    kind = InvariantKind(args.invariant)
    geometry = GeometryClass(args.geometry)
    invariant = _require_invariant(invariant, kind)
    cap = _resolve_cap(args)

    theorem = feasibility.theorem_for(geometry, kind)
    # lp is imported only where it runs, so auto, flow and enumerate never load it
    if args.dump_lp:
        from . import lp
        print(lp.render_problem(lp.build_construction_lp(t, invariant, geometry)), file=sys.stderr)

    if args.method == "enumerate" or args.cross_check:
        report = feasibility.check_via_enumeration(t, invariant, theorem, cap)
    elif args.method == "lp":
        from . import lp
        report = lp.check_via_lp(t, invariant, geometry)
    else:
        report = feasibility.check_via_flow(t, invariant, theorem)
    if args.cross_check:
        from . import lp
        lp_report = lp.check_via_lp(t, invariant, geometry)
        flow_report = feasibility.check_via_flow(t, invariant, theorem)
        for name, other in (("lp", lp_report), ("flow", flow_report)):
            if other != report:
                detail = f"enumerate {_describe(report)}, {name} {_describe(other)}"
                raise VerificationFailed(f"cross-check disagreement: {detail}")
    print(dumps(report_to_json(report)))
    return 0 if report.verdict is not Verdict.INFEASIBLE else 1


def cmd_construct(args) -> int:
    from . import lp
    t, invariant, _, _ = load_instance(args.path)
    geometry = GeometryClass(args.geometry)
    invariant = _require_invariant(invariant)
    if args.dump_lp:
        print(lp.render_problem(lp.build_construction_lp(t, invariant, geometry)), file=sys.stderr)

    # the witness comes back checked for range, class and invariant
    result = lp.construct_structure(t, invariant, geometry)
    if isinstance(result, FeasibilityReport):
        print(dumps(report_to_json(result)))
        return 1
    print(dumps(structure_to_json(t, result)))
    return 0


def cmd_invariants(args) -> int:
    t, _, structure, _ = load_instance(args.path)
    if structure is None:
        raise InvalidInstance("instance carries no structure payload")
    cls = classify_structure(t, structure)
    d, dd = edge_invariant(t, structure), delaunay_invariant(t, structure)
    out = {
        "class": cls.value,
        "edge": edge_function_to_json(t, d),
        "delaunay": edge_function_to_json(t, dd),
        "euclidean_relation": euclidean_relation_holds(d, dd),
    }
    print(dumps(out))
    return 0


def cmd_gen(args) -> int:
    import random
    from .sampling import random_structure, random_triangulation
    rng = random.Random(args.seed)
    t = random_triangulation(args.faces, rng)
    out = {"faces": [list(t.faces[f]) for f in range(t.n_faces)]}
    if args.geometry:
        geometry = GeometryClass(args.geometry)
        structure = random_structure(t, geometry, rng)
        out["structure"] = structure_to_json(t, structure)
        out["invariant"] = edge_function_to_json(t, edge_invariant(t, structure))
        out["class"] = geometry.value
    print(dumps(out))
    return 0


def cmd_verify(args) -> int:
    t, invariant, structure, stated_class = load_instance(args.path)
    if structure is None or invariant is None:
        raise InvalidInstance("verify needs both a structure and an invariant")
    # classified first, so that every angle is range-checked, also when no
    # class is stated
    class_ok = classify_structure(t, structure) is stated_class or stated_class is None
    mismatched = mismatched_edges(t, structure, invariant)
    ok = not mismatched and class_ok
    print(dumps({"ok": ok, "mismatched_edges": mismatched, "class_ok": class_ok}))
    return 0 if ok else 1


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AngleStructError as exc:
        print(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3 if isinstance(exc, VerificationFailed) else 2
    except BrokenPipeError:
        raise
    except OSError as exc:
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else "UnreadableFile"
        print(dumps({"error": {"type": kind, "message": str(exc)}}))
        return 2


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: write nothing more, and point stdout at
        # the null device so that the exit-time flush of its buffer succeeds
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no descriptor behind it
            return EXIT_BROKEN_PIPE
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())

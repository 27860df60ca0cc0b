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
error.  Each call adds only its subcommand's arguments and keeps no parser.

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
    """Usage errors, its subparsers' too, exit 2 as InvalidSetting.  A
    subparser adds its ``arguments``, (names, options) pairs, only when it
    parses: argparse calls the chosen subparser's parse_known_args."""

    def __init__(self, *args, arguments=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _integer)  # argparse still names the type int
        self._deferred = arguments

    def parse_known_args(self, args=None, namespace=None):
        for names, options in self._deferred:
            self.add_argument(*names, **options)
        self._deferred, self._words = (), sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if message.startswith("argument -h/--help: ignored explicit argument"):
            self.print_help()  # -h with a value attached, as argparse does from 3.13 on
            self.exit()
        # argparse quotes a command-line word whole or after "=", repr'd or
        # bare: cut each over 12 characters as excerpt does
        for value in (v for w in self._words for v in (w, w.partition("=")[2]) if len(v) > 12):
            message = message.replace(repr(value), excerpt(value)).replace(value, f"{value[:12]}...")
        raise InvalidSetting(message)


def _arg(*names, **options):
    return names, options


def _integer(value: str) -> int:
    """--cap and every type=int: ASCII decimal digits (-?[0-9]+), as ratpi.parse
    reads them; int() alone takes spaces, underscores and other scripts' digits."""
    if not re.fullmatch("-?[0-9]+", value):
        raise ValueError("is not an integer")
    try:
        return int(value)
    except ValueError:  # more digits than int() converts
        raise ValueError("has too many digits") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anglestruct",
        description="Decide and construct spherical/hyperbolic angle structures "
        "with prescribed edge or Delaunay invariants.",
    )
    parser.add_argument("--cap", default=None, help="subset-enumeration cap")
    sub = parser.add_subparsers(dest="command", required=True)
    geometry = _arg("--geometry", choices=["spherical", "hyperbolic"], required=True)
    sub.add_parser("check", help="feasibility verdict with certificate", arguments=[
        _arg("path"),
        geometry,
        _arg("--invariant", choices=["edge", "delaunay"], required=True),
        _arg("--method", choices=["enumerate", "lp", "flow", "auto"], default="auto"),
        _arg("--cross-check", action="store_true", help="run enumeration, LP and flow, require agreement"),
        _arg("--dump-lp", action="store_true", help="dump the construction program to stderr"),
    ])
    sub.add_parser("construct", help="explicit witness structure or certificate",
                   arguments=[_arg("path"), geometry, _arg("--dump-lp", action="store_true")])
    sub.add_parser("invariants", help="both invariants and the geometry class", arguments=[_arg("path")])
    sub.add_parser("gen", help="random connected instance", arguments=[
        _arg("--faces", type=int, required=True),
        _arg("--seed", type=int, default=0),
        _arg("--geometry", choices=["euclidean", "spherical", "hyperbolic"]),
    ])
    sub.add_parser("verify", help="recompute invariants, compare to stated data", arguments=[_arg("path")])
    return parser


def _resolve_cap(args) -> int:
    name, value = "--cap", args.cap
    if value is None:
        name, value = "ANGLESTRUCT_CAP", os.environ.get("ANGLESTRUCT_CAP")
        if value is None:
            return DEFAULT_ENUMERATION_CAP
    try:
        cap = _integer(value)
    except ValueError as exc:
        raise InvalidSetting(f"{name}={excerpt(value)} {exc}") from None
    if cap < 0:
        raise InvalidSetting(f"{name}={excerpt(value)} is negative")
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


COMMANDS = {"check": cmd_check, "construct": cmd_construct, "invariants": cmd_invariants,
            "gen": cmd_gen, "verify": cmd_verify}


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
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

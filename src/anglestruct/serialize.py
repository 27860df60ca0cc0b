"""JSON forms for instances, structures, invariants and reports.

All rationals are canonical ``p/q`` strings in pi-units.  Key order is
fixed so identical inputs always serialize to identical bytes; see
docs/format.md for the bit-exact layout.  A corner "f/k" is read into
index 3*f + k of a structure's flat tuple and edge "e" into index e of an
edge function's; the readers require each exactly once.
"""

from __future__ import annotations

import json

from .angles import AngleStructure, EdgeFunction, GeometryClass, InvariantKind
from .errors import AngleStructError, MissingCorner, excerpt
from .feasibility import FeasibilityReport
from .ratpi import parse as parse_ratpi, render
from .surface import Triangulation, validate


class InvalidInstance(AngleStructError):
    """Instance file violates the documented JSON schema."""


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise InvalidInstance("an object in the instance repeats a key")
    return obj


def edge_function_to_json(t: Triangulation, fn: EdgeFunction) -> dict:
    return {
        "kind": fn.kind.value,
        "values": {str(e): render(v) for e, v in enumerate(fn.values)},
    }


def edge_function_from_json(t: Triangulation, obj: object, kind: InvariantKind | None = None) -> EdgeFunction:
    if not isinstance(obj, dict) or "values" not in obj:
        raise InvalidInstance("invariant must be an object with a 'values' map")
    if kind is None:
        try:
            kind = InvariantKind(obj.get("kind", "edge"))
        except ValueError:
            raise InvalidInstance(f"unknown invariant kind {excerpt(obj.get('kind'))}") from None
    if not isinstance(obj["values"], dict):
        raise InvalidInstance("invariant values must be a map from edge index to rational")
    # only the canonical decimal form names an edge, so no two keys name one
    names = {str(e): e for e in range(t.n_edges)}
    values = [None] * t.n_edges
    for key, text in obj["values"].items():
        if key not in names:
            raise InvalidInstance(f"invariant key {excerpt(key)} is not the canonical decimal index of an edge")
        values[names[key]] = parse_ratpi(text)
    missing = [e for e, v in enumerate(values) if v is None]
    if missing:
        raise InvalidInstance(f"invariant missing edges {missing}")
    return EdgeFunction(tuple(values), kind)


def structure_to_json(t: Triangulation, x: AngleStructure) -> dict:
    return {"corners": [[f"{i // 3}/{i % 3}", render(v)] for i, v in enumerate(x.values)]}


def structure_from_json(t: Triangulation, obj: object) -> AngleStructure:
    if not isinstance(obj, dict) or not isinstance(obj.get("corners"), list):
        raise InvalidInstance("structure must be an object with a 'corners' list")
    # as for edges, only the form structure_to_json writes names a corner
    names = {f"{f}/{k}": 3 * f + k for f in range(t.n_faces) for k in range(3)}
    values = [None] * len(names)
    for entry in obj["corners"]:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise InvalidInstance(f"bad corner entry {excerpt(entry)}")
        key, text = entry
        i = names.get(key) if isinstance(key, str) else None
        if i is None:
            raise InvalidInstance(f"corner key {excerpt(key)} is not the canonical face/slot of a corner")
        if values[i] is not None:
            raise InvalidInstance(f"corner {key} given twice")
        values[i] = parse_ratpi(text)
    for i, v in enumerate(values):
        if v is None:
            raise MissingCorner(f"face {i // 3} slot {i % 3}")
    return AngleStructure(tuple(values))


def report_to_json(report: FeasibilityReport) -> dict:
    out = {
        "verdict": report.verdict.value,
        "theorem": report.theorem,
        "quantifier_range": report.quantifier_range.value,
    }
    if report.certificate is not None:
        out["certificate"] = sorted(report.certificate)
    if report.slack is not None:
        out["slack"] = render(report.slack)
    return out


def load_instance(path: str):
    """Parse an instance file: triangulation plus optional payloads.

    Returns (triangulation, invariant, structure, stated_class).  The CLI
    requires dense 0-based edge identifiers so file indices and report
    indices coincide.
    """
    if "\0" in str(path):  # open raises ValueError for it, not an OSError
        raise OSError(f"path {path!r} holds a NUL byte")
    with open(path, "r", encoding="utf-8") as fh:
        # ValueError covers bad JSON, non-UTF-8 bytes (UnicodeDecodeError)
        # and integers past the interpreter's digit limit
        try:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise InvalidInstance(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "faces" not in obj:
        raise InvalidInstance("instance must be an object with a 'faces' list")
    faces = obj["faces"]
    # bool is an int subclass; JSON true must not pass as edge 1
    if not isinstance(faces, list) or not all(
        isinstance(row, list) and all(type(e) is int for e in row) for row in faces
    ):
        raise InvalidInstance("'faces' must be a list of lists of integer edge indices")
    t = validate(faces)
    if tuple(t.edge_ids) != tuple(range(t.n_edges)):
        raise InvalidInstance("edge identifiers must be dense 0-based indices")

    invariant = None
    if "D" in obj and "invariant" in obj:
        raise InvalidInstance("give either 'D' or 'invariant', not both")
    if "D" in obj:
        invariant = edge_function_from_json(t, {"values": obj["D"]}, InvariantKind.EDGE)
    elif "invariant" in obj:
        invariant = edge_function_from_json(t, obj["invariant"])

    structure = None
    if "structure" in obj:
        structure = structure_from_json(t, obj["structure"])

    stated_class = None
    if "class" in obj:
        try:
            stated_class = GeometryClass(obj["class"])
        except ValueError:
            raise InvalidInstance(f"unknown geometry class {excerpt(obj['class'])}") from None
    return t, invariant, structure, stated_class


def dumps(obj: dict) -> str:
    return json.dumps(obj)

"""Output checks that do not rest on the package's decision path.

Every request in the corpus carries the answer known by construction
(see corpus.py).  A check parses the request's stdout and compares it
with that answer using exact arithmetic written here, not in
``anglestruct``, so neither a wrong verdict nor a wrong re-check in the
package can pass unnoticed.  A check returns an error string, or None
when the output is right; it never raises on bad output.
"""

from __future__ import annotations

import json
from fractions import Fraction

import corpus

NONEMPTY = ("T1", "T4")


def _values(obj) -> list[Fraction]:
    return [Fraction(obj[str(e)]) for e in range(len(obj))]


def subset_slack(faces, theorem: str, kind_values, subset) -> Fraction:
    """Exact slack of one face subset under the theorem's inequality, in pi-units.

    T1/T4: W(E(X)) - |X|;  T2/T3/L7: (|F| - |X|) - W(E - E(X)), where W is
    the invariant for the edge theorems and 1 - Dd/2 for the Delaunay ones.
    """
    weights = kind_values
    if theorem in ("T3", "T4"):
        weights = [1 - v / 2 for v in kind_values]
    covered = {e for f in subset for e in faces[f]}
    inside = sum((weights[e] for e in covered), Fraction(0))
    if theorem in NONEMPTY:
        return inside - len(subset)
    return (len(faces) - len(subset)) - (sum(weights, Fraction(0)) - inside)


def _check_report(req, faces, out) -> str | None:
    exp = req["expect"]
    theorem = exp["theorem"]
    if out.get("verdict") != exp["verdict"]:
        return f"verdict {out.get('verdict')} != {exp['verdict']}"
    if out.get("theorem") != theorem:
        return f"theorem {out.get('theorem')} != {theorem}"
    quantifier = "nonempty-subsets" if theorem in NONEMPTY else "proper-subsets-incl-empty"
    if out.get("quantifier_range") != quantifier:
        return f"quantifier {out.get('quantifier_range')}"
    slack = Fraction(out["slack"]) if "slack" in out else None
    if exp["verdict"] == "infeasible":
        cert = out.get("certificate")
        n = len(faces)
        if not (isinstance(cert, list) and cert == sorted(set(cert)) and all(0 <= f < n for f in cert)):
            return f"malformed certificate {cert!r}"
        if theorem in NONEMPTY and not cert:
            return "empty certificate for a nonempty-subset theorem"
        if theorem not in NONEMPTY and len(cert) == n:
            return "full certificate for a proper-subset theorem"
        recheck = subset_slack(faces, theorem, _values(exp["values"]), cert)
        if slack != recheck:
            return f"reported slack {out.get('slack')} != re-evaluated {recheck}"
        if recheck > 0 or (theorem == "L7" and recheck == 0):
            return f"certificate slack {recheck} does not violate the inequality"
    elif "certificate" in out:
        return "certificate on a non-infeasible report"
    if slack is not None:
        if exp["status"] == "boundary" and slack != 0:
            return f"boundary instance with slack {slack}"
        if exp["status"] == "feasible" and slack <= 0:
            return f"feasible instance with slack {slack}"
    elif exp["status"] == "boundary":
        return "boundary report without slack"
    return None


def _check_construct(req, faces, out) -> str | None:
    exp = req["expect"]
    corners = out.get("corners")
    expected_keys = [f"{f}/{k}" for f in range(len(faces)) for k in range(3)]
    if not isinstance(corners, list) or [c[0] for c in corners] != expected_keys:
        return "witness corners missing or out of order"
    x = [[Fraction(corners[3 * f + k][1]) for k in range(3)] for f in range(len(faces))]
    cls = corpus.classify(x)
    if cls != exp["class"]:
        return f"witness class {cls} != {exp['class']}"
    invariant = corpus.edge_invariant if exp["kind"] == "edge" else corpus.delaunay_invariant
    if invariant(faces, x) != _values(exp["values"]):
        return "witness invariant differs from the prescribed one"
    return None


def check(req, instance_text: str, code, stdout: str) -> str | None:
    """Error string for a wrong exit code or output, else None."""
    exp = req["expect"]
    if code != exp["exit"]:
        return f"exit {code!r} != {exp['exit']}: {stdout.strip()[:200]}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"stdout is not one JSON object: {stdout[:200]!r}"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    op = req["op"]
    if op == "malformed":
        err = out.get("error")
        if not (isinstance(err, dict) and set(err) == {"type", "message"}):
            return f"no error object: {stdout.strip()[:200]}"
        if err["type"] != exp["error_type"]:
            return f"error type {err['type']} != {exp['error_type']}"
        return None
    faces = json.loads(instance_text)["faces"]
    if op in ("check", "closure"):
        return _check_report(req, faces, out)
    if op == "construct":
        return _check_construct(req, faces, out)
    expected = {k: v for k, v in exp.items() if k != "exit"}
    if op == "invariants":
        expected = {
            "class": exp["class"],
            "edge": {"kind": "edge", "values": exp["edge"]},
            "delaunay": {"kind": "delaunay", "values": exp["delaunay"]},
            "euclidean_relation": exp["euclidean_relation"],
        }
    if out != expected:
        return f"{op} output {stdout.strip()[:200]} != {json.dumps(expected)[:200]}"
    return None

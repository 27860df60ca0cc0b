import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import anglestruct
from anglestruct import angles, feasibility
from anglestruct.cli import EXIT_BROKEN_PIPE, main
from anglestruct.errors import excerpt
from anglestruct.feasibility import _scan, make_report
from anglestruct.sampling import random_triangulation
from anglestruct.surface import validate
from conftest import TETRA_FACES


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tetra_payload(value="7/10"):
    return {"faces": TETRA_FACES, "D": {str(e): value for e in range(6)}}


CORNERS = [[f"{f}/{k}", "1/3"] for f in range(4) for k in range(3)]


def tetra_minimum(value, grow_form):
    """Minimum slack over the quantifier range on the tetrahedron with
    every weight equal to value, straight from the subset scan."""
    return _scan(validate(TETRA_FACES), [Fraction(value)] * 6, grow_form, 4)[0]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_spherical_feasible(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "feasible"
    assert report["theorem"] == "T1"
    assert report["quantifier_range"] == "nonempty-subsets"
    # the minimum 1/5 is positive, so no method prints it
    assert "slack" not in report
    assert tetra_minimum("7/10", True) == Fraction(1, 5)


def test_check_hyperbolic_infeasible_with_certificate(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge"])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "infeasible"
    assert report["certificate"] == []
    assert report["slack"] == "-1/5"


def test_check_methods_agree(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("3/5"))
    code_e, _ = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--method", "enumerate"])
    code_l, _ = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--method", "lp"])
    code_f, _ = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--method", "flow"])
    code_x, _ = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--cross-check"])
    assert code_e == code_l == code_f == code_x == 0
    # feasible T1 without a slack, then infeasible T2 with the same slack from both deciders
    path = write_instance(tmp_path, tetra_payload("7/10"), "infeasible.json")
    code_x, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge", "--cross-check"])
    assert code_x == 0 and "slack" not in json.loads(out)
    assert tetra_minimum("7/10", True) == Fraction(1, 5)
    code_x, out = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--cross-check"])
    assert code_x == 1 and json.loads(out)["slack"] == "-1/5"


def test_check_malformed_rational_exits_2(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("1/0"))
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ZeroDenominator"


def test_check_kind_mismatch_exits_2(tmp_path, capsys):
    payload = {
        "faces": TETRA_FACES,
        "invariant": {"kind": "delaunay", "values": {str(e): "1/2" for e in range(6)}},
    }
    path = write_instance(tmp_path, payload)
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge"])
    assert code == 2
    assert "error" in json.loads(out)


def test_check_delaunay_invariant_payload(tmp_path, capsys):
    payload = {
        "faces": TETRA_FACES,
        "invariant": {"kind": "delaunay", "values": {str(e): "4/5" for e in range(6)}},
    }
    path = write_instance(tmp_path, payload)
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "delaunay"])
    assert code == 0
    assert json.loads(out)["theorem"] == "T3"
    code, out = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "delaunay"])
    assert code == 1
    assert json.loads(out)["theorem"] == "T4"


def test_construct_and_verify_pipeline(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("3/5"))
    code, out = run(capsys, ["construct", path, "--geometry", "hyperbolic"])
    assert code == 0
    structure = json.loads(out)
    combined = dict(tetra_payload("3/5"))
    combined["structure"] = structure
    combined["class"] = "hyperbolic"
    path2 = write_instance(tmp_path, combined, "combined.json")
    code, out = run(capsys, ["verify", path2])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_construct_infeasible_prints_certificate(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("3/5"))
    code, out = run(capsys, ["construct", path, "--geometry", "spherical"])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "infeasible"
    assert report["certificate"] == [0, 1, 2, 3]
    assert report["theorem"] == "T1"


def test_construct_spherical_golden(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["construct", path, "--geometry", "spherical"])
    assert code == 0
    structure = json.loads(out)
    assert structure["corners"] == [
        ["0/0", "1/4"], ["0/1", "7/20"], ["0/2", "9/20"],
        ["1/0", "9/20"], ["1/1", "1/4"], ["1/2", "7/20"],
        ["2/0", "7/20"], ["2/1", "9/20"], ["2/2", "1/4"],
        ["3/0", "1/4"], ["3/1", "7/20"], ["3/2", "9/20"],
    ]


def test_invariants_euclidean(tmp_path, capsys):
    payload = {
        "faces": TETRA_FACES,
        "structure": {"corners": [[f"{f}/{k}", "1/3"] for f in range(4) for k in range(3)]},
    }
    path = write_instance(tmp_path, payload)
    code, out = run(capsys, ["invariants", path])
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "euclidean"
    assert set(data["edge"]["values"].values()) == {"2/3"}
    assert set(data["delaunay"]["values"].values()) == {"2/3"}
    assert data["euclidean_relation"] is True


def test_invariants_mixed_class_reported(tmp_path, capsys):
    corners = [[f"{f}/{k}", "1/3" if f else "3/10"] for f in range(4) for k in range(3)]
    payload = {"faces": TETRA_FACES, "structure": {"corners": corners}}
    path = write_instance(tmp_path, payload)
    code, out = run(capsys, ["invariants", path])
    assert code == 0
    assert json.loads(out)["class"] == "not-geometric"


def test_gen_deterministic_and_valid(capsys):
    code, first = run(capsys, ["gen", "--faces", "4", "--seed", "1"])
    assert code == 0
    code, second = run(capsys, ["gen", "--faces", "4", "--seed", "1"])
    assert first == second
    data = json.loads(first)
    assert len(data["faces"]) == 4
    assert len({e for row in data["faces"] for e in row}) == 6


def test_gen_two_faces_three_edges(capsys):
    code, out = run(capsys, ["gen", "--faces", "2", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    edges = {e for row in data["faces"] for e in row}
    assert edges == {0, 1, 2}
    assert len(data["faces"]) == 2
    assert sorted(e for row in data["faces"] for e in row) == [0, 0, 1, 1, 2, 2]


def test_gen_odd_face_count_rejected(capsys):
    code, out = run(capsys, ["gen", "--faces", "3"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "OddFaceCount"


def test_gen_pipeline_closure(tmp_path, capsys):
    for seed in range(5):
        for geometry in ("hyperbolic", "spherical"):
            code, out = run(capsys, ["gen", "--faces", "6", "--seed", str(seed), "--geometry", geometry])
            assert code == 0
            path = tmp_path / f"g{seed}{geometry}.json"
            path.write_text(out)
            code, _ = run(capsys, ["verify", str(path)])
            assert code == 0
            if geometry == "hyperbolic":
                code, _ = run(capsys, ["check", str(path), "--geometry", geometry, "--invariant", "edge"])
                assert code == 0


def test_verify_detects_perturbation(tmp_path, capsys):
    code, out = run(capsys, ["gen", "--faces", "4", "--seed", "3", "--geometry", "hyperbolic"])
    data = json.loads(out)
    key, value = data["structure"]["corners"][0]
    num, den = value.split("/")
    data["structure"]["corners"][0] = [key, f"{int(num) * 1000 + int(den)}/{int(den) * 1000}"]
    path = write_instance(tmp_path, data, "perturbed.json")
    code, out = run(capsys, ["verify", str(path)])
    assert code == 1
    assert json.loads(out)["ok"] is False
    # the stated class is compared too
    code, out = run(capsys, ["gen", "--faces", "4", "--seed", "3", "--geometry", "hyperbolic"])
    data = dict(json.loads(out), **{"class": "spherical"})
    code, out = run(capsys, ["verify", write_instance(tmp_path, data, "misclassed.json")])
    assert code == 1
    assert json.loads(out) == {"ok": False, "mismatched_edges": [], "class_ok": False}


def test_verify_missing_corner_exits_2(tmp_path, capsys):
    payload = tetra_payload("3/5")
    payload["structure"] = {"corners": [["0/0", "1/3"]]}
    path = write_instance(tmp_path, payload)
    code, out = run(capsys, ["verify", path])
    assert code == 2
    # the error names the first absent corner in face/slot order
    payload["structure"] = {"corners": [c for c in CORNERS if c[0] != "1/1"]}
    path = write_instance(tmp_path, payload)
    for command in ("verify", "invariants"):
        code, out = run(capsys, [command, path])
        assert code == 2
        assert json.loads(out) == {"error": {"type": "MissingCorner", "message": "face 1 slot 1"}}


def test_invariants_range_checks_every_face(tmp_path, capsys):
    # face 1 disagrees with face 0 and face 2 holds an angle 0: the class
    # would be not-geometric, but no angle outside (0, pi) passes unnoticed
    angles = [["1/6"] * 3, ["1/2"] * 3, ["0/1", "1/3", "1/3"], ["1/3"] * 3]
    corners = [[f"{f}/{k}", v] for f, face in enumerate(angles) for k, v in enumerate(face)]
    path = write_instance(tmp_path, {"faces": TETRA_FACES, "structure": {"corners": corners}})
    code, out = run(capsys, ["invariants", path])
    assert code == 2
    assert json.loads(out) == {"error": {"type": "OutOfRange", "message": "0/1"}}


@pytest.mark.parametrize("angle, value", [("-1/3", "-2/3"), ("0/1", "0/1")])
def test_verify_out_of_range_angle_exits_2(tmp_path, capsys, angle, value):
    # no class is stated, and the stated invariant is the structure's own
    payload = tetra_payload(value)
    payload["structure"] = {"corners": [[f"{f}/{k}", angle] for f in range(4) for k in range(3)]}
    path = write_instance(tmp_path, payload)
    for command in ("verify", "invariants"):
        code, out = run(capsys, [command, path])
        assert code == 2, command
        assert json.loads(out) == {"error": {"type": "OutOfRange", "message": angle}}


def test_face_terms_computed_once_per_structure(tmp_path, capsys, monkeypatch, face_terms_builds):
    # invariants reads the class, both invariants and the Euclidean relation,
    # and verify one invariant and the class, all from one pass over the
    # faces; each invariant is one pass over the edges, and the relation is
    # read off the two invariants already computed
    code, out = run(capsys, ["gen", "--faces", "8", "--seed", "3", "--geometry", "hyperbolic"])
    path = write_instance(tmp_path, json.loads(out))
    kinds, invariant_terms = [], angles._invariant_terms

    def counting_terms(t, faces, kind):
        kinds.append(kind)
        return invariant_terms(t, faces, kind)

    monkeypatch.setattr(angles, "_invariant_terms", counting_terms)
    for command, passes in (("invariants", 2), ("verify", 1)):
        face_terms_builds.clear()
        kinds.clear()
        code, _ = run(capsys, [command, path])
        assert code == 0
        assert len(face_terms_builds) == 1, command
        assert len(kinds) == passes, (command, kinds)


def test_byte_identical_reports(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("7/10"))
    argv = ["check", path, "--geometry", "hyperbolic", "--invariant", "edge"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_cap_flag_and_env(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, tetra_payload("7/10"))
    argv = ["--cap", "2", "check", path, "--geometry", "spherical", "--invariant", "edge", "--method", "enumerate"]
    code, out = run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "TooLarge"
    monkeypatch.setenv("ANGLESTRUCT_CAP", "2")
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge", "--method", "enumerate"])
    assert code == 2
    # flag beats environment
    code, out = run(capsys, ["--cap", "20", "check", path, "--geometry", "spherical", "--invariant", "edge", "--method", "enumerate"])
    assert code == 0


def test_auto_method_uses_flow_above_limit(tmp_path, capsys, monkeypatch):
    # auto is the cut, so a cap below |F| does not stop it; enumerate would refuse
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["--cap", "2", "check", path, "--geometry", "hyperbolic", "--invariant", "edge"])
    assert code == 1
    assert json.loads(out)["certificate"] == []


def test_dump_lp_goes_to_stderr(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("3/5"))
    code = main(["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--dump-lp"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("min ")
    json.loads(captured.out)  # stdout still clean JSON
    # Delaunay invariants dump the program that construct solves, too
    payload = {
        "faces": TETRA_FACES,
        "invariant": {"kind": "delaunay", "values": {str(e): "3/5" for e in range(6)}},
    }
    path = write_instance(tmp_path, payload, "delaunay.json")
    for argv in (
        ["check", path, "--geometry", "hyperbolic", "--invariant", "delaunay", "--dump-lp"],
        ["construct", path, "--geometry", "hyperbolic", "--dump-lp"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.startswith("min ")
        json.loads(captured.out)


def test_missing_file(capsys):
    code, out = run(capsys, ["check", "/nonexistent.json", "--geometry", "spherical", "--invariant", "edge"])
    assert code == 2


def test_directory_as_instance_exits_2(tmp_path, capsys):
    code, out = run(capsys, ["check", str(tmp_path), "--geometry", "spherical", "--invariant", "edge"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UnreadableFile"


# --- malformed input exits 2 with an error object, never a traceback


@pytest.mark.parametrize(
    "payload, error_type",
    [
        ({"faces": 5}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": ["7/10"] * 6}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": {**tetra_payload()["D"], "0": 1}}, "MalformedRational"),
        ({"faces": [[0, True, 2], [0, 3, 4], [True, 3, 5], [2, 4, 5]], "D": tetra_payload()["D"]}, "InvalidInstance"),
        ({**tetra_payload(), "structure": {"corners": 5}}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": {**tetra_payload()["D"], "00": "1/2"}}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": {**tetra_payload()["D"], "+0": "1/2"}}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": {**tetra_payload()["D"], " 0": "1/2"}}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": {**tetra_payload()["D"], "0_0": "1/2"}}, "InvalidInstance"),
        (json.dumps(tetra_payload())[:-2] + ', "0": "1/2"}}', "InvalidInstance"),
        ({**tetra_payload(), "structure": {"corners": [["0/0", "1/3"]] + CORNERS}}, "InvalidInstance"),
        ({**tetra_payload(), "structure": {"corners": [["00/0", "1/3"]] + CORNERS[1:]}}, "InvalidInstance"),
        ({**tetra_payload(), "structure": {"corners": [["0/+0", "1/3"]] + CORNERS[1:]}}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "D": {**tetra_payload()["D"], "0": "\u0667/\u0661\u0660"}}, "MalformedRational"),
        (b'{"faces": [[0, 1, 2], [0, 1, 2]], "D": {"0": "1/2\xff"}}', "InvalidInstance"),
        ("[" * 100000, "InvalidInstance"),
        ('{"faces": [[0, 1, ' + "9" * 5000 + "]]}", "InvalidInstance"),
        ({"faces": [[0, 1], [0, 1, 2], [2, 3, 3]]}, "EdgeDegree"),
        ({"faces": TETRA_FACES, "invariant": [1]}, "InvalidInstance"),
        ({"faces": TETRA_FACES, "invariant": {"kind": "edge"}}, "InvalidInstance"),
    ],
    ids=[
        "faces-not-a-list", "D-as-list", "rational-as-number", "true-as-edge-id", "corners-not-a-list",
        "edge-key-leading-zero", "edge-key-plus", "edge-key-space", "edge-key-underscore",
        "edge-key-repeated", "corner-key-repeated", "corner-key-leading-zero", "corner-slot-plus",
        "rational-non-ascii-digits", "not-utf-8", "nested-past-recursion-limit", "integer-past-digit-limit",
        "face-with-two-slots", "invariant-as-list", "invariant-without-values",
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, payload, error_type):
    # a str or bytes payload is raw file content, for JSON that json.dumps
    # cannot produce or a file that is not JSON text at all
    if isinstance(payload, (str, bytes)):
        path = tmp_path / "inst.json"
        path.write_bytes(payload.encode() if isinstance(payload, str) else payload)
        path = str(path)
    else:
        path = write_instance(tmp_path, payload)
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge"])
    assert code == 2
    error = json.loads(out)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == error_type


# an error message shows at most the first 12 characters of a value read
# from the instance, so a long value does not come back whole
LONG = "x" * 5000
LONG_VALUES = [
    ({"D": {**tetra_payload()["D"], "0": LONG}}, "MalformedRational", "'xxxxxxxxxxxx'..."),
    ({"D": {**tetra_payload()["D"], "0": [1] * 2000}}, "MalformedRational", "[1, 1, 1, 1,... is not a string"),
    ({"D": {**tetra_payload()["D"], "0": "1/" + "0" * 4000}}, "ZeroDenominator", "1/0000000000..."),
    ({"D": {**tetra_payload()["D"], "9" * 5000: "1/2"}}, "InvalidInstance", "invariant key '999999999999'... is"),
    ({"invariant": {"kind": LONG, "values": tetra_payload()["D"]}}, "InvalidInstance", "kind 'xxxxxxxxxxxx'..."),
    ({**tetra_payload(), "class": LONG}, "InvalidInstance", "class 'xxxxxxxxxxxx'..."),
    ({**tetra_payload(), "structure": {"corners": [["0/0", "1/3", LONG]]}}, "InvalidInstance", "entry ['0/0', '1/3..."),
    ({**tetra_payload(), "structure": {"corners": [[LONG, "1/3"]]}}, "InvalidInstance", "key 'xxxxxxxxxxxx'... is"),
    ({"faces": [[0, 1, 2], [0, 3, int("9" * 4000)], [1, 3, 5], [2, 5, 4]]}, "EdgeDegree", "edge 999999999999... appears"),
]


@pytest.mark.parametrize(
    "payload, error_type, shown",
    LONG_VALUES,
    ids=[
        "long-D-value", "list-as-D-value", "long-zero-denominator", "long-invariant-key", "long-invariant-kind",
        "long-geometry-class", "long-corner-entry", "long-corner-key", "long-edge-id",
    ],
)
def test_long_input_value_is_cut_in_the_error(tmp_path, capsys, payload, error_type, shown):
    path = write_instance(tmp_path, {"faces": TETRA_FACES, **payload})
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge"])
    assert code == 2
    assert out.count("\n") == 1 and len(out.encode()) < 200, out[:300]
    error = json.loads(out)["error"]
    assert error["type"] == error_type
    assert shown in error["message"]


# argparse quotes a command-line value whole; the usage error cuts it as an
# input value is cut.  Only odd or negative huge --faces values: an even one
# would build that many faces
LONG_ARGVS = {
    "long-int": (["gen", "--faces", "9" * 5000], "InvalidSetting", "invalid int value: '999999999999'..."),
    "long-int-after-equals": (["gen", "--faces=" + "9" * 5000], "InvalidSetting", "invalid int value: '999999999999'..."),
    "long-choice": (["check", "x.json", "--geometry", "g" * 5000], "InvalidSetting", "invalid choice: 'gggggggggggg'... ("),
    "long-stray-word": (["invariants", "x.json", "w" * 5000], "InvalidSetting", "unrecognized arguments: wwwwwwwwwwww..."),
    "long-subcommand": (["u" * 5000], "InvalidSetting", "invalid choice: 'uuuuuuuuuuuu'... ("),
    "long-odd-faces": (["gen", "--faces", "9" * 30], "OddFaceCount", "got 999999999999..."),
    "long-negative-faces": (["gen", "--faces", "-" + "8" * 30], "OddFaceCount", "got -88888888888..."),
}


@pytest.mark.parametrize("argv, error_type, shown", LONG_ARGVS.values(), ids=list(LONG_ARGVS))
def test_long_command_line_value_is_cut_in_the_error(capsys, argv, error_type, shown):
    code, out = run(capsys, argv)
    assert code == 2
    assert out.count("\n") == 1 and len(out.encode()) < 300, out[:300]
    error = json.loads(out)["error"]
    assert error["type"] == error_type
    assert shown in error["message"]


def help_run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "argv, help_argv",
    [
        (["-hzzz"], ["--help"]),
        (["-h=zzz"], ["--help"]),
        (["check", "x.json", "-hz"], ["check", "x.json", "--help"]),
        (["-hh" + "z" * 5000], ["--help"]),
    ],
    ids=["attached", "after-equals", "subcommand", "long-short-flag-argument"],
)
def test_help_flag_with_a_value_attached_prints_the_help(capsys, monkeypatch, argv, help_argv):
    # argparse before 3.13 calls -h with a value attached a usage error; every
    # release prints the help for it, as 3.13 does
    monkeypatch.setenv("COLUMNS", "80")
    code, captured = help_run(capsys, argv)
    assert code == 0
    assert captured.out.startswith("usage: anglestruct") and captured.err == ""
    assert (code, captured) == help_run(capsys, help_argv)


def test_missing_edges_are_cut_in_the_error(tmp_path, capsys):
    # an empty D on 2000 faces misses all 3000 edges; the message names the
    # first few, not every one
    t = random_triangulation(2000, random.Random(1))
    path = write_instance(tmp_path, {"faces": [list(row) for row in t.faces], "D": {}})
    code, out = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge"])
    assert code == 2
    assert out.count("\n") == 1 and len(out.encode()) < 200, out[:300]
    assert json.loads(out) == {"error": {"type": "InvalidInstance", "message": "invariant missing edges [0, 1, 2, 3,..."}}


# a cap is ASCII decimal digits with an optional minus, as ratpi.parse
# reads a value: no underscores, spaces, plus sign or other scripts' digits;
# a value over 12 characters is shown by its first 12
BAD_CAPS = [
    ("abc", "'abc' is not an integer"),
    ("-1", "'-1' is negative"),
    ("1_0", "'1_0' is not an integer"),
    (" 7 ", "' 7 ' is not an integer"),
    ("+5", "'+5' is not an integer"),
    ("\u0663", "'\u0663' is not an integer"),
    ("", "'' is not an integer"),
    ("x" * 5000, "'xxxxxxxxxxxx'... is not an integer"),
    ("9" * 5000, "'999999999999'... has too many digits"),
    ("-" + "1" * 20, "'-11111111111'... is negative"),
]


def test_bad_cap_environment_exits_2(tmp_path, capsys, monkeypatch):
    # a negative cap is no enumeration limit, so it is refused like a non-integer
    path = write_instance(tmp_path, tetra_payload("7/10"))
    for value, message in BAD_CAPS:
        monkeypatch.setenv("ANGLESTRUCT_CAP", value)
        code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge"])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidSetting", "message": f"ANGLESTRUCT_CAP={message}"}


def test_bad_cap_flag_exits_2_like_environment(tmp_path, capsys):
    path = write_instance(tmp_path, tetra_payload("7/10"))
    for value, message in BAD_CAPS:
        code = main(["--cap", value, "check", path, "--geometry", "spherical", "--invariant", "edge"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == {"type": "InvalidSetting", "message": f"--cap={message}"}
        assert captured.err == ""


CHECK = ["check", "{path}", "--geometry", "spherical", "--invariant", "edge"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (CHECK + ["--bogus"], "unrecognized arguments: --bogus"),
        (CHECK + ["--cap", "5"], "unrecognized arguments: --cap 5"),
        (["check", "{path}", "--geometry", "flat", "--invariant", "edge"], "argument --geometry: invalid choice"),
        (["construct", "{path}"], "the following arguments are required: --geometry"),
        ([], "the following arguments are required: command"),
        (["check", "{path}", "--geometry", "-hx", "--invariant", "edge"], "argument --geometry: expected one argument"),
    ],
    ids=["unknown-flag", "misplaced-cap", "bad-choice", "missing-required-option", "no-subcommand", "help-flag-as-value"],
)
def test_bad_invocation_exits_2_with_one_error_object(tmp_path, capsys, argv, message):
    # a usage error is an InvalidSetting like a bad --cap value: one error
    # object on stdout, no usage text on stderr
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code = main([a.replace("{path}", path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "InvalidSetting" and error["message"].startswith(message)
    assert captured.err == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: anglestruct")


SUBCOMMANDS = ["check", "construct", "invariants", "gen", "verify"]

# every help text and every kind of usage error; inst.json is a
# tetrahedron instance, so the abbreviated options run a whole check
HELP_ARGVS = [
    ["--help"],
    *([sub, "--help"] for sub in SUBCOMMANDS),
    [],
    ["bogus", "inst.json"],
    ["chec", "inst.json", "--geometry", "spherical", "--invariant", "edge"],
    # a missing required option or argument for each subcommand
    ["check", "inst.json", "--geometry", "spherical"],
    ["construct", "inst.json"],
    ["invariants"],
    ["gen", "--seed", "1"],
    ["verify"],
    # an invalid choice for each subcommand that has one, a stray word for the others
    ["check", "inst.json", "--geometry", "flat", "--invariant", "edge"],
    ["check", "inst.json", "--geometry", "spherical", "--invariant", "edge", "--method", "guess"],
    ["construct", "inst.json", "--geometry", "flat"],
    ["gen", "--faces", "4", "--geometry", "flat"],
    ["invariants", "inst.json", "extra"],
    ["verify", "inst.json", "extra"],
    CHECK + ["--bogus"],
    ["check", "inst.json", "--geo", "spherical", "--inv", "edge", "--meth", "flow"],
    CHECK + ["--cap", "5"],
    ["--", "check", "inst.json", "--geometry", "spherical", "--invariant", "edge"],
    ["check", "--", "inst.json", "--geometry", "spherical", "--invariant", "edge"],
    CHECK + ["--"],
    ["gen", "--faces", "x"],
]
# sha256 of the exit code (SystemExit's for --help), stdout and stderr of
# every HELP_ARGVS entry at 80 columns.  argparse words its help and its
# messages differently from one Python release to another, so a digest is
# kept for each release it was recorded on, and the others only run the cases
HELP_DIGEST = {
    "3.10.13": "b0266f1cbb4509acf4b15c5cd8a497878133b066bfa33ab46864359751a998c5",
    "3.11.7": "b0266f1cbb4509acf4b15c5cd8a497878133b066bfa33ab46864359751a998c5",
    "3.12.1": "b0266f1cbb4509acf4b15c5cd8a497878133b066bfa33ab46864359751a998c5",
    "3.13.0": "40abd9e0aaab2903cf58033f871b44a1cb4402409d6f5c79a95c6d5761724657",
}


def test_help_and_usage_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_instance(tmp_path, tetra_payload("7/10"))
    digest = hashlib.sha256()
    for argv in HELP_ARGVS:
        try:
            code = main([a.replace("{path}", "inst.json") for a in argv])
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        assert code in (0, 2), argv
        digest.update(f"{code}\n{captured.out}{captured.err}".encode())
    recorded = HELP_DIGEST.get(sys.version.split()[0])
    assert recorded in (None, digest.hexdigest())


# the arguments each parser adds besides -h, and a valid call of each subcommand
ADDED_ARGUMENTS = {
    "check": ["path", "--geometry", "--invariant", "--method", "--cross-check", "--dump-lp"],
    "construct": ["path", "--geometry", "--dump-lp"],
    "invariants": ["path"],
    "gen": ["--faces", "--seed", "--geometry"],
    "verify": ["path"],
}
VALID_ARGVS = {
    "check": CHECK + ["--method", "flow"],
    "construct": ["construct", "{path}", "--geometry", "spherical"],
    "invariants": ["invariants", "{path}"],
    "gen": ["gen", "--faces", "4", "--seed", "1", "--geometry", "hyperbolic"],
    "verify": ["verify", "{path}"],
}


def test_a_call_adds_only_its_subcommands_arguments(tmp_path, capsys, monkeypatch):
    added = {}
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *names, **options):
        if names != ("-h", "--help"):
            added.setdefault(self.prog, []).append(names[0])
        return add_argument(self, *names, **options)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    payload = {**tetra_payload("7/10"), "structure": {"corners": CORNERS}}
    path = write_instance(tmp_path, payload)
    for sub, argv in VALID_ARGVS.items():
        # twice: no parser and no argument outlives a call
        for _ in range(2):
            added.clear()
            assert main([a.replace("{path}", path) for a in argv]) in (0, 1)
            assert "error" not in capsys.readouterr().out
            assert added == {"anglestruct": ["--cap"], f"anglestruct {sub}": ADDED_ARGUMENTS[sub]}
    # --help adds the arguments it shows, a usage error those it checks
    added.clear()
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    assert added == {"anglestruct": ["--cap"], "anglestruct gen": ADDED_ARGUMENTS["gen"]}
    added.clear()
    assert main(["construct", path]) == 2
    assert added == {"anglestruct": ["--cap"], "anglestruct construct": ADDED_ARGUMENTS["construct"]}
    added.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert added == {"anglestruct": ["--cap"]}


@pytest.mark.parametrize("flag", ["--faces", "--seed"])
@pytest.mark.parametrize(
    "value",
    ["\u0664", "1_0", " 4", "4 ", "+4", "x", "", "9" * 5000],
    ids=["arabic-indic-4", "underscore", "leading-space", "trailing-space", "plus", "letter", "empty", "5000-digits"],
)
def test_gen_integers_are_ascii_digits_like_cap(capsys, flag, value):
    # int() takes each of the first five, as 4, 10, 4, 4 and 4; the message
    # quotes the value as excerpt does, the 5000 digits cut to 12
    argv = ["gen", "--faces", "4", "--seed", "1"]
    argv[argv.index(flag) + 1] = value
    code, out = run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "InvalidSetting", "message": f"argument {flag}: invalid int value: {excerpt(value)}"
    }


def test_enumeration_slack_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    # a scan whose slack is not the exact slack of its own subset is a bug
    scan = feasibility._scan

    def off_scan(*args):
        slack, *subsets = scan(*args)
        return (slack + Fraction(1, 7), *subsets)

    monkeypatch.setattr(feasibility, "_scan", off_scan)
    path = write_instance(tmp_path, tetra_payload("7/10"))
    for geometry in ("spherical", "hyperbolic"):
        code, out = run(capsys, ["check", path, "--geometry", geometry, "--invariant", "edge", "--method", "enumerate"])
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "VerificationFailed"
        assert "scan slack" in error["message"]


def test_cross_check_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    # a cut that claims feasibility on an infeasible instance is a bug,
    # reported apart from invalid input
    monkeypatch.setattr(feasibility, "check_via_flow", lambda t, fn, theorem: make_report(theorem, None))
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--cross-check"])
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {
        "type": "VerificationFailed",
        "message": "cross-check disagreement: enumerate infeasible [] at slack -1/5, flow feasible",
    }


def test_cross_check_certificate_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    # same verdict and slack, another certificate: still a disagreement
    flow = feasibility.check_via_flow
    monkeypatch.setattr(
        feasibility, "check_via_flow", lambda *args: flow(*args)._replace(certificate=frozenset({0}))
    )
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["check", path, "--geometry", "hyperbolic", "--invariant", "edge", "--cross-check"])
    assert code == 3
    error = json.loads(out)["error"]
    assert error == {
        "type": "VerificationFailed",
        "message": "cross-check disagreement: enumerate infeasible [] at slack -1/5, flow infeasible [0] at slack -1/5",
    }


def test_cross_check_feasible_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    # a feasible report that carries a slack differs from enumeration's
    # whole report, and the message renders both sides
    flow = feasibility.check_via_flow
    monkeypatch.setattr(
        feasibility, "check_via_flow", lambda *args: flow(*args)._replace(slack=Fraction(1, 5))
    )
    path = write_instance(tmp_path, tetra_payload("7/10"))
    code, out = run(capsys, ["check", path, "--geometry", "spherical", "--invariant", "edge", "--cross-check"])
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {
        "type": "VerificationFailed",
        "message": "cross-check disagreement: enumerate feasible, flow feasible at slack 1/5",
    }


def test_dense_edge_numbering_in_any_order_checks_like_the_ordered_one(tmp_path, capsys):
    # edge ids 0 and 1 swapped: still exactly 0..5, so the ids are kept and
    # the same instance, values swapped with them, gives the same reports
    values = ["1/2", "9/10", "1/5", "4/5", "3/5", "7/10"]
    ordered = {"faces": TETRA_FACES, "D": {str(e): v for e, v in enumerate(values)}}
    swapped = [values[1], values[0]] + values[2:]
    reordered = {
        "faces": [[1, 0, 2], [1, 3, 4], [0, 3, 5], [2, 4, 5]],
        "D": {str(e): v for e, v in enumerate(swapped)},
    }
    for geometry in ("spherical", "hyperbolic"):
        outputs = []
        for name, payload in (("ordered.json", ordered), ("reordered.json", reordered)):
            path = write_instance(tmp_path, payload, name)
            outputs.append(run(capsys, ["check", path, "--geometry", geometry, "--invariant", "edge"]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1), outputs[0]


# sha256 of the exit code, stdout and stderr of every command in the test
# below; it pins every p/q that gen, invariants, verify, check and
# --dump-lp print, as WITNESS_DIGEST in test_construct.py pins construct's
COMMAND_DIGEST = "5f49f1ac75e34cec4186ed7a89cab6db76de9da421198d851fb381b3b2277897"


def test_command_bytes_pinned(tmp_path, capsys):
    digest = hashlib.sha256()

    def record(argv):
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}{captured.err}".encode())
        return captured.out

    for geometry in ("euclidean", "spherical", "hyperbolic"):
        for n in (2, 4, 6, 10):
            for seed in (1, 2):
                gen = json.loads(record(["gen", "--faces", str(n), "--seed", str(seed), "--geometry", geometry]))
                path = write_instance(tmp_path, gen)
                invariants = json.loads(record(["invariants", path]))
                record(["verify", path])
                # T1-T4 by every method; an invariant outside a theorem's
                # domain pins that error object instead
                for kind in ("edge", "delaunay"):
                    path = write_instance(tmp_path, {"faces": gen["faces"], "invariant": invariants[kind]}, "inv.json")
                    for theorem_geometry in ("spherical", "hyperbolic"):
                        argv = ["check", path, "--geometry", theorem_geometry, "--invariant", kind]
                        record(argv + ["--method", "enumerate"])
                        record(argv + ["--method", "flow"])
                        record(argv + ["--method", "lp", "--dump-lp"])
    assert digest.hexdigest() == COMMAND_DIGEST


@pytest.mark.parametrize("faces", [4, 400], ids=["flushed-at-exit", "raised-in-print"])
def test_closed_stdout_exits_quietly(tmp_path, capsys, faces):
    # the reader of the pipe is gone before anything is written: a short
    # output fails when stdout is flushed, a long one inside print
    assert main(["gen", "--faces", str(faces), "--seed", "1", "--geometry", "hyperbolic"]) == 0
    path = tmp_path / "inst.json"
    path.write_text(capsys.readouterr().out)
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(anglestruct.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "anglestruct.cli", "invariants", str(path)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""

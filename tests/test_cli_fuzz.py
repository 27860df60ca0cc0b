"""Fuzz the command line with instance files built from the schema's keys.

Every key of docs/format.md gets well-formed, wrong-typed or missing
values, plus extra keys; whatever the file holds, ``main`` must exit
0, 1 or 2 without a traceback, and exit 2 must print exactly one error
object.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anglestruct.cli import main
from conftest import OCTA_FACES, SELF_GLUED_FACES, TETRA_FACES

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**30),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.lists(st.integers(-2, 8), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)
# in (0, pi): inside every theorem's domain and a legal angle
IN_RANGE = st.integers(2, 12).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}"))
RATIONAL = st.one_of(
    IN_RANGE,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(0, 10)),
    st.sampled_from(["abc", " 4/5 ", "2/4", "9" * 5000]),
    JUNK,
)
# the gluings of conftest, all valid; instances are built around them
GLUINGS = [TETRA_FACES, SELF_GLUED_FACES, OCTA_FACES, [[0, 1, 2], [0, 1, 2]]]


def edge_map(n_edges, value):
    return st.fixed_dictionaries({str(e): value for e in range(n_edges)})


def corners(n_faces, value):
    pairs = [value.map(lambda v, key=f"{f}/{k}": [key, v]) for f in range(n_faces) for k in range(3)]
    return st.fixed_dictionaries({"corners": st.tuples(*pairs).map(list)})


def well_formed(faces):
    """Faces plus any of the other keys, each with a value of the documented type."""
    n_faces, n_edges = len(faces), 3 * len(faces) // 2
    edge = st.fixed_dictionaries({"D": edge_map(n_edges, IN_RANGE)})
    general = st.fixed_dictionaries(
        {"invariant": st.fixed_dictionaries(
            {"kind": st.sampled_from(["edge", "delaunay"]), "values": edge_map(n_edges, IN_RANGE)}
        )}
    )
    rest = st.fixed_dictionaries(
        {"faces": st.just(faces)},
        optional={
            "structure": corners(n_faces, IN_RANGE),
            "class": st.sampled_from(["euclidean", "hyperbolic", "spherical", "not-geometric"]),
        },
    )
    return st.tuples(st.one_of(edge, general, st.just({})), rest).map(lambda p: {**p[0], **p[1]})


def mangled(faces):
    """Any subset of the keys, each value wrong-typed, partial or well-formed, plus extras."""
    n_faces, n_edges = len(faces), 3 * len(faces) // 2
    keys = st.one_of(st.integers(-1, n_edges).map(str), st.text(max_size=3))
    values = st.one_of(
        edge_map(n_edges, RATIONAL), st.dictionaries(keys, RATIONAL, max_size=n_edges + 2), JUNK
    )
    corner_key = st.one_of(
        st.builds(lambda f, k: f"{f}/{k}", st.integers(-1, n_faces), st.integers(-1, 3)), JUNK
    )
    entry = st.one_of(st.tuples(corner_key, RATIONAL).map(list), JUNK)
    structure = st.one_of(
        corners(n_faces, RATIONAL),
        st.fixed_dictionaries({"corners": st.lists(entry, max_size=8)}),
        JUNK,
    )
    invariant = st.one_of(
        st.fixed_dictionaries(
            {"values": values},
            optional={"kind": st.one_of(st.sampled_from(["edge", "delaunay", "vertex"]), JUNK)},
        ),
        JUNK,
    )
    rows = st.lists(st.lists(st.one_of(st.integers(-1, 12), JUNK), max_size=4), max_size=8)
    faces_value = st.one_of(st.just(faces), rows, JUNK)
    return st.fixed_dictionaries(
        {},
        optional={
            "faces": faces_value,
            "D": values,
            "invariant": invariant,
            "structure": structure,
            "class": st.one_of(st.sampled_from(["hyperbolic", "flat"]), JUNK),
            "extra": JUNK,
        },
    )


INSTANCE = st.sampled_from(GLUINGS).flatmap(lambda faces: st.one_of(well_formed(faces), mangled(faces)))
COMMANDS = st.sampled_from(
    [
        ["check", "--geometry", "spherical", "--invariant", "edge"],
        ["check", "--geometry", "hyperbolic", "--invariant", "delaunay", "--method", "flow"],
        ["check", "--geometry", "hyperbolic", "--invariant", "edge", "--method", "lp"],
        ["construct", "--geometry", "spherical"],
        ["construct", "--geometry", "hyperbolic"],
        ["invariants"],
        ["verify"],
    ]
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance=INSTANCE, command=COMMANDS)
# more digits than int() converts once raised ValueError out of the parser
@example(instance={"faces": TETRA_FACES, "D": {"0": "9" * 5000}}, command=["verify"])
@example(
    instance={"faces": SELF_GLUED_FACES, "structure": {"corners": [["0/0", "1/" + "7" * 5000]]}},
    command=["invariants"],
)
def test_cli_never_raises_on_schema_shaped_input(tmp_path, capsys, instance, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(instance))
    argv = command[:1] + [str(path)] + command[1:]
    code = main(argv)  # a traceback fails the test here
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, instance, out)
    if code == 2:
        assert out.count("\n") == 1
        obj = json.loads(out)
        assert list(obj) == ["error"]
        assert set(obj["error"]) == {"type", "message"}


# --- argv: the command line itself

# a tetrahedron whose structure, invariant and class agree: every command
# that reads it can succeed
TETRA_INSTANCE = {
    "faces": TETRA_FACES,
    "D": {str(e): "1/2" for e in range(6)},
    "structure": {"corners": [[f"{f}/{k}", "1/4"] for f in range(4) for k in range(3)]},
    "class": "hyperbolic",
}
# instance paths, filled in per run: a readable instance, a missing file, a
# directory, a file that is not JSON and one that is not UTF-8; and a path
# with a NUL byte, which open() rejects with ValueError, not OSError
PATHS = ["{instance}", "{missing}", "{directory}", "{not-json}", "{not-utf8}", "in\x00valid.json"]
SUBCOMMANDS = ["check", "construct", "invariants", "gen", "verify"]
OPTIONS = {
    "--geometry": ["spherical", "hyperbolic", "euclidean", "flat"],
    "--invariant": ["edge", "delaunay", "vertex"],
    "--method": ["enumerate", "lp", "flow", "auto", "simplex"],
    "--cap": ["-1", "0", "3", "20", "x", ""],
    # at most a few faces, so that gen stays instant
    "--faces": ["-2", "0", "1", "2", "3", "4", "6", "1e3", "x"],
    "--seed": ["-1", "0", "7", "x"],
}
SWITCHES = ["--cross-check", "--dump-lp", "--help", "-h", "--", "-"]
# no digit but 0 in junk, so that no junk token asks gen for many faces
JUNK_TOKEN = st.text(alphabet="0x-=/.é \x00", max_size=5)
TOKEN = st.one_of(
    st.sampled_from(SUBCOMMANDS + PATHS + SWITCHES + list(OPTIONS) + sorted({v for vs in OPTIONS.values() for v in vs})),
    JUNK_TOKEN,
)
OPTION = st.one_of(
    st.sampled_from(sorted(OPTIONS)).flatmap(lambda flag: st.sampled_from(OPTIONS[flag]).map(lambda v: [flag, v])),
    st.sampled_from(SWITCHES).map(lambda s: [s]),
    TOKEN.map(lambda token: [token]),
)
# a subcommand and a path followed by options, or any run of tokens
SHAPED = st.builds(
    lambda sub, path, options: [sub, path] + [token for option in options for token in option],
    st.sampled_from(SUBCOMMANDS),
    st.sampled_from(PATHS),
    st.lists(OPTION, max_size=5),
)
ARGV = st.one_of(SHAPED, st.lists(TOKEN, max_size=8))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV)
@example(argv=["check", "{instance}", "--geometry", "hyperbolic", "--invariant", "edge", "--cross-check"])
@example(argv=["construct", "{instance}", "--geometry", "spherical", "--dump-lp"])
@example(argv=["verify", "{directory}"])
@example(argv=["verify", "in\x00valid.json"])  # once a ValueError traceback
@example(argv=["check", "--help"])
def test_cli_never_raises_on_any_argv(tmp_path, capsys, argv):
    # whatever the argv, main exits 0, 1 or 2 with no traceback, and exit 2
    # prints exactly one error object; only a help flag ends the parse with
    # SystemExit, as argparse does, with exit 0 and the usage on stdout
    files = {
        "{instance}": json.dumps(TETRA_INSTANCE).encode(),
        "{not-json}": b"{faces",
        "{not-utf8}": b"\xff\xfe{}",
    }
    for key, data in files.items():
        (tmp_path / key.strip("{}")).write_bytes(data)
    paths = {key: str(tmp_path / key.strip("{}")) for key in PATHS}
    paths["{directory}"] = str(tmp_path)
    argv = [paths.get(token, token) for token in argv]
    try:
        code = main(argv)  # a traceback fails the test here
    except SystemExit as exit_:
        assert exit_.code == 0 and {"-h", "--help"} & set(argv), argv
        assert capsys.readouterr().out.startswith("usage: anglestruct"), argv
        return
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, out)
    if code == 2:
        assert out.count("\n") == 1, argv
        obj = json.loads(out)
        assert list(obj) == ["error"] and set(obj["error"]) == {"type", "message"}, argv

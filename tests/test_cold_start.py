"""What a fresh interpreter loads for each command.

A single ``anglestruct check`` process pays for every module it imports,
so the command line loads ``lp`` only for ``construct`` and ``--dump-lp``
and ``sampling`` only for ``gen``.  Each test starts its own
``python -S`` interpreter, since this test process has loaded ``lp``
already (conftest imports it).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import anglestruct
from conftest import TETRA_FACES

SRC = str(Path(__file__).resolve().parent.parent / "src")

# dataclasses pulls in inspect, ast and dis; typing and random are not
# needed by check, invariants or verify either
HEAVY = ("dataclasses", "inspect", "typing", "random", "anglestruct.lp", "anglestruct.sampling")


def heavy_loaded(body):
    """The HEAVY modules loaded after a fresh ``python -S`` runs body,
    whose own stdout is discarded."""
    script = "\n".join([
        "import os, sys",
        f"sys.path.insert(0, {SRC!r})",
        "sys.stdout = open(os.devnull, 'w')",
        body,
        f"sys.__stdout__.write(' '.join(m for m in {HEAVY!r} if m in sys.modules))",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture
def instance(tmp_path):
    # the tetrahedron with every corner pi/3 and its edge invariant 2/3
    corners = [[f"{f}/{k}", "1/3"] for f in range(4) for k in range(3)]
    payload = {"faces": TETRA_FACES, "D": {str(e): "2/3" for e in range(6)}, "structure": {"corners": corners}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_import_cli_loads_no_heavy_module():
    assert heavy_loaded("import anglestruct.cli") == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{path}", "--geometry", "spherical", "--invariant", "edge"],
        ["check", "{path}", "--geometry", "hyperbolic", "--invariant", "edge", "--method", "flow"],
        ["check", "{path}", "--geometry", "spherical", "--invariant", "edge", "--method", "enumerate"],
        ["check", "{path}", "--geometry", "hyperbolic", "--invariant", "edge", "--method", "lp"],
        ["check", "{path}", "--geometry", "spherical", "--invariant", "edge", "--cross-check"],
        ["invariants", "{path}"],
        ["verify", "{path}"],
    ],
    ids=["check-auto", "check-flow", "check-enumerate", "check-lp", "check-cross-check", "invariants", "verify"],
)
def test_commands_without_lp_load_no_heavy_module(instance, argv):
    argv = [a.replace("{path}", instance) for a in argv]
    assert heavy_loaded(f"from anglestruct.cli import main\nassert main({argv!r}) in (0, 1)") == set()


def test_construct_loads_lp(instance):
    argv = ["construct", instance, "--geometry", "hyperbolic"]
    assert heavy_loaded(f"from anglestruct.cli import main\nassert main({argv!r}) in (0, 1)") == {"anglestruct.lp"}


def test_gen_loads_the_sampler():
    loaded = heavy_loaded("from anglestruct.cli import main\nassert main(['gen', '--faces', '4', '--seed', '1']) == 0")
    assert {"random", "anglestruct.sampling"} <= loaded
    assert "anglestruct.lp" not in loaded


def test_lp_names_resolve_on_first_use():
    body = "\n".join([
        "import anglestruct",
        "assert 'anglestruct.lp' not in sys.modules",
        "from anglestruct import construct_structure, simplex_solve, LpProblem",
        "from anglestruct import lp",
        "assert (construct_structure, simplex_solve, LpProblem) == (lp.construct_structure, lp.simplex_solve, lp.LpProblem)",
    ])
    assert heavy_loaded(body) == {"anglestruct.lp"}


def test_unknown_package_attribute_is_an_attribute_error():
    assert not hasattr(anglestruct, "nonexistent")
    with pytest.raises(AttributeError, match="nonexistent"):
        anglestruct.nonexistent

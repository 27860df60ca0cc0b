import json
from fractions import Fraction

import pytest

from anglestruct import InvariantKind, validate
from anglestruct.errors import MissingCorner
from anglestruct.serialize import (
    InvalidInstance,
    edge_function_from_json,
    edge_function_to_json,
    load_instance,
    structure_from_json,
    structure_to_json,
)
from conftest import TETRA_FACES


def write(tmp_path, payload):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_round_trip_edge_function(tetra):
    fn = edge_function_from_json(
        tetra, {"kind": "edge", "values": {str(e): "7/10" for e in range(6)}}
    )
    assert fn.kind is InvariantKind.EDGE
    assert fn.value(3) == Fraction(7, 10)
    assert edge_function_to_json(tetra, fn)["values"]["0"] == "7/10"


def test_edge_function_requires_all_edges(tetra):
    with pytest.raises(InvalidInstance):
        edge_function_from_json(tetra, {"kind": "edge", "values": {"0": "1/2"}})
    with pytest.raises(InvalidInstance):
        edge_function_from_json(
            tetra, {"kind": "edge", "values": {str(e): "1/2" for e in range(7)}}
        )
    with pytest.raises(InvalidInstance):
        edge_function_from_json(
            tetra, {"kind": "banana", "values": {str(e): "1/2" for e in range(6)}}
        )


def test_structure_round_trip(tetra):
    obj = {"corners": [[f"{f}/{k}", "1/3"] for f in range(4) for k in range(3)]}
    x = structure_from_json(tetra, obj)
    assert structure_to_json(tetra, x) == obj


def test_structure_errors(tetra):
    with pytest.raises(InvalidInstance):
        structure_from_json(tetra, {"corners": [["9/0", "1/3"]]})
    with pytest.raises(InvalidInstance):
        structure_from_json(tetra, {"corners": [["zero", "1/3"]]})
    with pytest.raises(MissingCorner):
        structure_from_json(tetra, {"corners": [["0/0", "1/3"]]})


def test_load_instance_rejects_both_invariant_forms(tmp_path):
    payload = {
        "faces": TETRA_FACES,
        "D": {str(e): "1/2" for e in range(6)},
        "invariant": {"kind": "edge", "values": {str(e): "1/2" for e in range(6)}},
    }
    with pytest.raises(InvalidInstance):
        load_instance(write(tmp_path, payload))


def test_load_instance_rejects_sparse_edge_ids(tmp_path):
    payload = {"faces": [[10, 30, 20], [10, 40, 50], [30, 40, 60], [20, 50, 60]]}
    with pytest.raises(InvalidInstance):
        load_instance(write(tmp_path, payload))


def test_load_instance_rejects_non_json(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text("not json")
    with pytest.raises(InvalidInstance):
        load_instance(str(path))


def test_library_accepts_sparse_ids_even_though_cli_does_not():
    t = validate([[10, 30, 20], [10, 40, 50], [30, 40, 60], [20, 50, 60]])
    assert t.n_edges == 6

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
    assert fn.values == (Fraction(7, 10),) * 6
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


CORNERS = [[f"{f}/{k}", "1/3"] for f in range(4) for k in range(3)]


def test_structure_round_trip(tetra):
    obj = {"corners": CORNERS}
    x = structure_from_json(tetra, obj)
    assert x.values == (Fraction(1, 3),) * 12
    assert structure_to_json(tetra, x) == obj
    # corners may come in any order; each is read into 3*face + slot
    shuffled = [[key, f"{i}/13"] for i, (key, _) in enumerate(CORNERS)][::-1]
    expected = tuple(Fraction(i, 13) for i in range(12))
    assert structure_from_json(tetra, {"corners": shuffled}).values == expected


def test_structure_errors(tetra):
    with pytest.raises(InvalidInstance):
        structure_from_json(tetra, {"corners": [["9/0", "1/3"]]})
    with pytest.raises(InvalidInstance):
        structure_from_json(tetra, {"corners": [["zero", "1/3"]]})
    with pytest.raises(MissingCorner, match="^face 0 slot 1$"):
        structure_from_json(tetra, {"corners": [["0/0", "1/3"]]})
    # the first absent corner in face/slot order, wherever the gaps are
    lacking = [entry for entry in reversed(CORNERS) if entry[0] not in ("1/1", "3/2")]
    with pytest.raises(MissingCorner, match="^face 1 slot 1$"):
        structure_from_json(tetra, {"corners": lacking})
    with pytest.raises(InvalidInstance, match="given twice"):
        structure_from_json(tetra, {"corners": CORNERS + CORNERS[:1]})


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

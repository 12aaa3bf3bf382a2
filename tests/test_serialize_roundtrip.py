"""INV-11: serialized circuits load back to the circuit that was saved.

* Every golden construction survives ``dump_circuit`` / ``load_circuit``
  with its structural hash, stats, tags, labels, metadata, depths and
  template provenance (the blocks and the arrays of their templates).
* ``tests/fixtures/serialize_v1/`` holds circuits written by the version-1
  JSON writer before the columnar format replaced it.  Each must keep
  loading to its golden structural hash and counts, because every file
  written before the format change is a v1 file.
* A tampered v2 payload raises ``ValueError`` at the load site, with or
  without ``validate``.
"""

import base64
import copy
import json
from pathlib import Path

import numpy as np
import pytest
from test_golden_counts import CASES

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.serialize import (
    circuit_from_dict,
    circuit_to_dict,
    dump_circuit,
    load_circuit,
)
from repro.circuits.simulator import build_template_plan

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "golden_counts.json").read_text())
V1_FILES = sorted((FIXTURES / "serialize_v1").glob("*.json"))
BIG = 1 << 70


def _file_roundtrip(circuit, tmp_path, **load_kwargs):
    path = str(tmp_path / "circuit.json")
    dump_circuit(circuit, path)
    return load_circuit(path, **load_kwargs)


def assert_same_circuit(loaded, original):
    """Everything a round trip must keep, provenance included."""
    assert loaded.structural_hash() == original.structural_hash()
    assert loaded.stats() == original.stats()
    assert loaded.name == original.name
    assert loaded.store.tags() == original.store.tags()
    assert loaded.outputs == original.outputs
    assert loaded.output_labels == original.output_labels
    assert loaded.metadata == original.metadata
    assert np.array_equal(loaded.gate_depths(), original.gate_depths())
    assert len(loaded.template_blocks) == len(original.template_blocks)
    shared = {}
    for got, want in zip(loaded.template_blocks, original.template_blocks):
        assert got.base == want.base
        assert np.array_equal(got.params, want.params)
        # Blocks stamped from one template share one loaded template.
        assert shared.setdefault(id(want.template), id(got.template)) == id(
            got.template
        )
        ours, theirs = got.template, want.template
        assert ours.n_params == theirs.n_params
        for field in ("sources", "offsets", "weights", "thresholds", "rel_depths"):
            assert np.array_equal(getattr(ours, field), getattr(theirs, field)), field
        assert ours.max_magnitude == theirs.max_magnitude
    assert len(set(shared.values())) == len(shared)
    covered = build_template_plan(original).covered_gates
    assert build_template_plan(loaded).covered_gates == covered


# --------------------------------------------------------------------------- #
# Round trips.
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_roundtrip_keeps_provenance(name, tmp_path):
    circuit = CASES[name]()
    circuit.metadata["case"] = name
    loaded = _file_roundtrip(circuit, tmp_path)
    assert loaded.structural_hash() == GOLDEN[name]["structural_hash"]
    assert len(loaded.template_blocks) == GOLDEN[name]["template_blocks"]
    assert_same_circuit(loaded, circuit)


def test_dump_writes_columnar_v2(tmp_path):
    circuit = CASES["matmul-strassen-n2-b1"]()
    path = tmp_path / "circuit.json"
    dump_circuit(circuit, str(path))
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert set(payload["gates"]) == {
        "fan_ins", "sources", "weights", "thresholds", "depths", "tags",
    }
    assert payload["gates"]["sources"]["dtype"] == "<i2"  # 720 nodes
    assert payload["gates"]["depths"]["dtype"] == "<i1"
    # One entry per distinct template, however often it was stamped.
    distinct = {id(block.template) for block in circuit.template_blocks}
    assert len(payload["templates"]) == len(distinct) < len(circuit.template_blocks)


def test_huge_weight_roundtrip_is_exact(tmp_path):
    builder = CircuitBuilder(name="huge-residual")
    inputs = builder.allocate_inputs(3)
    low = builder.add_gate(inputs, [1, 1, 1], 2)
    high = builder.add_gate([inputs[0], low], [BIG, -BIG], 1)
    out = builder.add_gate([high, inputs[2]], [BIG + 1, -BIG], -BIG)
    builder.set_outputs([out], ["out"])
    circuit = builder.build()
    payload = circuit_to_dict(circuit)
    assert payload["gates"]["weights"][-2:] == [BIG + 1, -BIG]
    assert payload["gates"]["thresholds"] == [2, 1, -BIG]
    loaded = _file_roundtrip(circuit, tmp_path)
    assert_same_circuit(loaded, circuit)
    assert loaded.gate_of(out).weights == (BIG + 1, -BIG)
    for column in range(8):
        bits = [(column >> i) & 1 for i in range(3)]
        assert (loaded.evaluate_slow(bits) == circuit.evaluate_slow(bits)).all()


def test_huge_weight_template_roundtrip(tmp_path):
    builder = CircuitBuilder(name="huge-template")
    builder.allocate_inputs(4)

    def emit_template(recorder):
        inner = recorder.add_gate([0, 1], [BIG, -BIG], 0, tag="huge")
        return recorder.add_gate([inner, 2], [1, 1], 2, tag="and")

    def emit_direct(i):
        raise AssertionError("distinct-parameter copies must stamp")

    params = [[0, 1, 2], [1, 2, 3], [2, 3, 0]]
    results = builder.stamper.stamp_all("huge-key", 3, params, emit_template, emit_direct)
    builder.set_outputs([int(node) for node in results])
    circuit = builder.build()
    assert circuit.template_blocks
    loaded = _file_roundtrip(circuit, tmp_path)
    assert_same_circuit(loaded, circuit)
    assert loaded.template_blocks[0].template.weights.dtype == object


def test_zero_gate_roundtrip(tmp_path):
    circuit = ThresholdCircuit(3, name="wires-only")
    circuit.set_outputs([0, 2], ["a", "c"])
    loaded = _file_roundtrip(circuit, tmp_path)
    assert loaded.size == 0 and loaded.n_inputs == 3
    assert_same_circuit(loaded, circuit)


def test_duplicate_sources_in_a_hand_edited_row_merge():
    circuit = ThresholdCircuit(3)
    circuit.add_gate_parts([0, 1], [1, 1], 2)
    payload = circuit_to_dict(circuit)
    _set_column(payload["gates"], "sources", [0, 0])
    loaded = circuit_from_dict(payload)
    gate = loaded.gate_of(3)
    assert (gate.sources, gate.weights) == ((0,), (2,))


# --------------------------------------------------------------------------- #
# Files written by the version-1 writer.
# --------------------------------------------------------------------------- #


def test_v1_fixture_set():
    assert [path.stem for path in V1_FILES] == [
        "matmul-strassen-n2-b1",
        "naive-trace-n3-b1-tau1",
        "naive-triangles-n6-tau2",
        "trace-strassen-n2-b1-tau0",
    ]


@pytest.mark.parametrize("path", V1_FILES, ids=lambda path: path.stem)
def test_v1_file_loads_to_golden(path):
    assert json.loads(path.read_text())["version"] == 1
    golden = GOLDEN[path.stem]
    circuit = load_circuit(str(path))
    stats = circuit.stats()
    assert circuit.structural_hash() == golden["structural_hash"]
    assert (
        stats.n_inputs,
        stats.size,
        stats.edges,
        stats.depth,
        stats.max_fan_in,
        stats.max_abs_weight,
        stats.n_outputs,
    ) == (
        golden["n_inputs"],
        golden["gates"],
        golden["wires"],
        golden["depth"],
        golden["max_fan_in"],
        golden["max_abs_weight"],
        golden["n_outputs"],
    )
    # v1 carries no provenance; the golden construction's store matches.
    assert circuit.template_blocks == []
    built = CASES[path.stem]()
    assert circuit.store.tags() == built.store.tags()
    assert np.array_equal(circuit.gate_depths(), built.gate_depths())


# --------------------------------------------------------------------------- #
# Hardened loads: every tampered payload raises at the load site.
# --------------------------------------------------------------------------- #


def _get_column(table, key):
    column = table[key]
    raw = base64.b64decode(column["data"])
    return np.frombuffer(raw, dtype=column["dtype"]).astype(np.int64)


def _set_column(table, key, values):
    data = np.asarray(values, dtype="<i8")
    table[key] = {
        "dtype": "<i8",
        "count": int(data.size),
        "data": base64.b64encode(data).decode("ascii"),
    }


def _edit_column(table, key, edit):
    values = _get_column(table, key).copy()
    edit(values)
    _set_column(table, key, values)


def _negative_fan_in(payload):
    def edit(fan_ins):
        # Move one more wire than the row holds to the next row, so the
        # fan-ins still sum to the wire count.
        row = int(np.nonzero(fan_ins)[0][0])
        fan_ins[row + 1] += fan_ins[row] + 1
        fan_ins[row] = -1

    _edit_column(payload["gates"], "fan_ins", edit)


def _bump(index, delta):
    def edit(values):
        values[index] += delta

    return edit


def _swap_first_block_params(payload):
    blocks = payload["blocks"]
    template = payload["templates"][_get_column(blocks, "template")[0]]
    width = template["n_params"]
    k = int(_get_column(blocks, "k")[0])

    def edit(params):
        first = params[: k * width].reshape(k, width)
        params[: k * width] = first[:, ::-1].reshape(-1)

    assert width >= 2
    _edit_column(blocks, "params", edit)


def _drop_last_param(payload):
    params = _get_column(payload["blocks"], "params")
    _set_column(payload["blocks"], "params", params[:-1])


def _set_dtype(dtype):
    def tamper(payload):
        payload["gates"]["sources"]["dtype"] = dtype

    return tamper


def _count_mismatch(payload):
    payload["gates"]["sources"]["count"] += 1


def _not_base64(payload):
    column = payload["gates"]["sources"]
    column["data"] = "*" + column["data"][1:]


def _tag_out_of_range(payload):
    table_size = len(payload["tag_table"])
    _edit_column(payload["gates"], "tags", _bump(0, table_size))


def _forward_source(payload):
    def edit(sources):
        sources[0] = 10**6

    _edit_column(payload["gates"], "sources", edit)


#: name -> (tamper, what the error message must name)
TAMPERS = {
    "dtype-big-endian": (_set_dtype(">i8"), "dtype '>i8'"),
    "dtype-float": (_set_dtype("<f8"), "dtype '<f8'"),
    "dtype-object": (_set_dtype("|O"), "dtype '[|]O'"),
    "count-mismatch": (_count_mismatch, "count 7481 does not match"),
    "not-base64": (_not_base64, "invalid base64"),
    "negative-fan-in": (_negative_fan_in, "fan-ins must lie in"),
    "tag-code-out-of-range": (_tag_out_of_range, "tag codes must index"),
    "depth-off-by-one": (
        lambda p: _edit_column(p["gates"], "depths", _bump(5, 1)),
        "gate 21: recorded depth 3 != wiring depth 2",
    ),
    "source-out-of-bounds": (_forward_source, "references node 1000000"),
    "template-depth-off-by-one": (
        lambda p: _edit_column(p["templates"][0], "rel_depths", _bump(0, 1)),
        r"templates\[0\]: relative depths disagree",
    ),
    "template-index-out-of-range": (
        lambda p: _edit_column(p["blocks"], "template", _bump(0, len(p["templates"]))),
        "template indices must lie in",
    ),
    "params-length-mismatch": (_drop_last_param, "80 parameter entries but 79"),
    "block-wires-disagree": (_swap_first_block_params, "stamped sources diverge"),
}


@pytest.fixture(scope="module")
def provenance_payload():
    return circuit_to_dict(CASES["matmul-strassen-n2-b1"]())


def test_untampered_payload_loads(provenance_payload):
    payload = copy.deepcopy(provenance_payload)
    for validate in (True, False):
        assert circuit_from_dict(payload, validate=validate).template_blocks


@pytest.mark.parametrize("validate", [True, False], ids=["validate", "no-validate"])
@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_payload_raises(provenance_payload, tamper, validate):
    payload = copy.deepcopy(provenance_payload)
    edit, message = TAMPERS[tamper]
    edit(payload)
    with pytest.raises(ValueError, match=message):
        circuit_from_dict(json.loads(json.dumps(payload)), validate=validate)

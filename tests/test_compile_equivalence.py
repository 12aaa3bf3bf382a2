"""Differential harness: a circuit compiles bit-identically with or without
its provenance.

The engine compiles one plan form — template blocks for the gates the
circuit's provenance covers, residual runs for every other gate — into
three backends.  A circuit whose provenance is stripped (a shallow copy
with ``template_blocks = []``: same store, same structural hash) compiles
every gate as residual runs; a circuit loaded back from its JSON payload
keeps its provenance and must compile to the same plan coverage.  This
module is the single place where all three are pinned against each other
and against the gate-by-gate reference ``evaluate_slow``:

    {provenance kept, provenance stripped, loaded from JSON}
        x {sparse, dense, exact} x {outputs only, nodes kept}

on every construction family (matmul / trace / direct / naive), on the
corners the plan builder must handle (refused provenance, weights beyond
int64, zero gates), plus a Hypothesis-driven random gadget soup.  Any future change to construction,
stamping or compilation that breaks bit-equality fails here with the
offending path named.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.serialize import circuit_from_dict, circuit_to_dict
from repro.circuits.simulator import ResidualSegment, build_template_plan
from repro.core.direct_circuit import build_direct_matmul_circuit
from repro.core.matmul_circuit import build_matmul_circuit
from repro.core.naive_circuits import (
    build_naive_matmul_circuit,
    build_naive_trace_circuit,
    build_naive_triangle_circuit,
)
from repro.core.trace_circuit import build_trace_circuit
from repro.engine import BackendError, Engine
from repro.engine.config import EngineConfig
from repro.statics import StaticVerificationError

BACKENDS = ("sparse", "dense", "exact")


def _engine() -> Engine:
    # min_cover=0 tiles every accepted block, so the harness exercises
    # template blocks even on sparsely-stamped constructions.
    return Engine(EngineConfig(template_min_cover=0.0))


def _stripped(circuit):
    """The same circuit without provenance: every gate compiles as residual."""
    stripped = copy.copy(circuit)
    stripped.template_blocks = []
    return stripped


def _loaded(circuit):
    """The circuit after a JSON round trip (provenance re-verified on load)."""
    return circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))


def _random_inputs(circuit, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(circuit.n_inputs, batch)).astype(np.int64)


def _reference(circuit, inputs):
    return np.stack(
        [circuit.evaluate_slow(list(inputs[:, b])) for b in range(inputs.shape[1])],
        axis=1,
    )


def assert_outputs_and_energy(result, circuit, reference, where):
    """INV-12: a result's int8 outputs and int64 energy are those of the
    reference node matrix."""
    assert result.outputs.dtype == np.int8, where
    assert np.array_equal(result.outputs, reference[circuit.outputs]), where
    assert result.energy.dtype == np.int64, where
    energy = reference[circuit.n_inputs :].sum(axis=0)
    assert np.array_equal(result.energy, energy), where


def assert_compile_equivalent(
    circuit, inputs=None, require_templates=False, backends=BACKENDS, loaded=True
):
    """Provenance kept, stripped and loaded x backends reproduce the
    reference, bit for bit, both as a kept node matrix and as an
    outputs-only result (INV-12).  ``loaded=False`` leaves out the JSON
    round trip, for circuits whose provenance a load refuses."""
    if inputs is None:
        inputs = _random_inputs(circuit)
    reference = _reference(circuit, inputs)
    covered = build_template_plan(circuit).covered_gates
    if require_templates:
        assert covered, "expected template provenance on this circuit"
    variants = [("kept", circuit), ("stripped", _stripped(circuit))]
    if loaded:
        variants.append(("loaded", _loaded(circuit)))
        assert build_template_plan(variants[-1][1]).covered_gates == covered
    # One engine per variant: all share a structural hash, so one engine
    # would serve every copy the program compiled for the original.
    engines = {label: _engine() for label, _ in variants}
    for backend in backends:
        for label, variant in variants:
            engine = engines[label]
            kept = engine.evaluate(variant, inputs, backend=backend, keep_nodes=True)
            values = kept.node_values
            assert values.shape == reference.shape
            mismatch = values != reference
            assert not mismatch.any(), (
                f"provenance {label} x {backend}: {int(mismatch.sum())} node "
                f"values differ from evaluate_slow (first at index "
                f"{np.argwhere(mismatch)[0].tolist()})"
            )
            result = engine.evaluate(variant, inputs, backend=backend)
            assert result.node_values.shape == (0, inputs.shape[1])
            for shape, got in (("kept", kept), ("outputs-only", result)):
                assert_outputs_and_energy(
                    got, circuit, reference, (label, backend, shape)
                )


CONSTRUCTIONS = [
    pytest.param(
        lambda: build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit,
        True,
        id="naive-matmul",
    ),
    pytest.param(
        lambda: build_naive_trace_circuit(3, tau=1, bit_width=1).circuit,
        True,
        id="naive-trace",
    ),
    pytest.param(
        lambda: build_naive_triangle_circuit(5, tau=2).circuit,
        False,  # pure bulk emission, no stamped gadgets
        id="naive-triangles",
    ),
    pytest.param(
        lambda: build_matmul_circuit(2, bit_width=1).circuit,
        True,
        id="matmul-strassen",
    ),
    pytest.param(
        lambda: build_trace_circuit(2, tau=0, bit_width=1).circuit,
        True,
        id="trace-strassen",
    ),
    pytest.param(
        lambda: build_direct_matmul_circuit(2, bit_width=1, stages=2).circuit,
        True,
        id="direct-matmul",
    ),
]


class TestConstructionEquivalence:
    @pytest.mark.parametrize("build, require_templates", CONSTRUCTIONS)
    def test_all_paths_bit_identical(self, build, require_templates):
        circuit = build()
        assert_compile_equivalent(circuit, require_templates=require_templates)

    def test_kept_and_stripped_verdicts_agree(self):
        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        kept = build_template_plan(circuit)
        stripped = build_template_plan(_stripped(circuit))
        assert kept.covered_gates and not stripped.covered_gates
        assert kept.int64_safe == stripped.int64_safe
        assert kept.max_magnitude == stripped.max_magnitude
        assert kept.lane == stripped.lane
        assert kept.n_nodes == stripped.n_nodes

    def test_spike_trace_matches_across_paths(self):
        circuit = build_naive_matmul_circuit(2, bit_width=1).circuit
        inputs = _random_inputs(circuit, batch=3, seed=7)
        trace_t = _engine().spike_trace(circuit, inputs)
        trace_c = _engine().spike_trace(_stripped(circuit), inputs)
        assert (trace_t.depths == trace_c.depths).all()
        assert (trace_t.gates_per_layer == trace_c.gates_per_layer).all()
        assert (trace_t.spikes_per_layer == trace_c.spikes_per_layer).all()
        assert (
            trace_t.synaptic_events_per_layer == trace_c.synaptic_events_per_layer
        ).all()
        assert (trace_t.energy == trace_c.energy).all()


def _lane_of(program) -> str:
    return np.dtype(program.values_dtype).name


def _magnitude_circuit(magnitude):
    """A depth-2 circuit whose plan ``max_magnitude`` is exactly ``magnitude``.

    The anchor gate's weights and threshold split the magnitude exactly;
    on ``x0 = x1 = 1`` both wide gates sum to just below or at their
    thresholds.
    """
    a, b = magnitude // 2 - 1, magnitude // 4 + 1
    t = magnitude - a - b
    builder = CircuitBuilder(name=f"magnitude-{magnitude}")
    x = builder.allocate_inputs(3)
    anchor = builder.add_gate([x[0], x[1]], [a, -b], t)
    near = builder.add_gate([x[0], x[1], x[2]], [a, -b, 1], a - b + 1)
    out = builder.add_gate([anchor, near, x[2]], [1, 1, -1], 1)
    builder.set_outputs([anchor, near, out])
    return builder.build()


def _all_inputs(n_inputs):
    """Every 0/1 input column, ``(n_inputs, 2**n_inputs)``."""
    codes = np.arange(1 << n_inputs)
    return ((codes[None, :] >> np.arange(n_inputs)[:, None]) & 1).astype(np.int64)


class TestNumericLanes:
    """Each matrix backend runs the narrowest lane the plan's certified
    magnitude allows, and every lane reproduces ``evaluate_slow``."""

    @pytest.mark.parametrize(
        "magnitude, lane",
        [
            ((1 << 24) - 1, "float32"),
            (1 << 24, "float64"),
            ((1 << 53) - 1, "float64"),
            (1 << 53, "int64"),
        ],
    )
    def test_boundary_magnitudes_pick_lane(self, magnitude, lane):
        circuit = _magnitude_circuit(magnitude)
        plan = build_template_plan(circuit)
        assert plan.max_magnitude == magnitude
        assert plan.lane == lane
        engine = _engine()
        for backend in ("sparse", "dense"):
            assert _lane_of(engine.compile(circuit, backend=backend)) == lane
        assert_compile_equivalent(circuit, _all_inputs(circuit.n_inputs))

    @pytest.mark.parametrize("bits, lane", [(24, "float64"), (53, "int64")])
    def test_rounding_gate_stays_exact(self, bits, lane):
        # 2**bits + 1 rounds to 2**bits one lane down, so a narrower lane
        # would fire on (1, 0); the exact sum 2**bits is below threshold.
        builder = CircuitBuilder(name=f"rounding-{bits}")
        x = builder.allocate_inputs(2)
        gate = builder.add_gate(x, [1 << bits, 1], (1 << bits) + 1)
        builder.set_outputs([gate])
        circuit = builder.build()
        assert build_template_plan(circuit).lane == lane
        inputs = np.array([[1], [0]])
        assert circuit.evaluate_slow([1, 0])[gate] == 0
        for backend in BACKENDS:
            result = _engine().evaluate(circuit, inputs, backend=backend)
            assert result.outputs.tolist() == [[0]], backend
        assert_compile_equivalent(circuit, _all_inputs(2))

    def test_float64_lane_construction(self):
        # Every golden construction sits in the float32 lane; a 10-bit
        # Strassen product keeps the float64 lane under the full harness.
        circuit = build_matmul_circuit(2, bit_width=10).circuit
        plan = build_template_plan(circuit)
        assert plan.lane == "float64" and plan.max_magnitude >= 1 << 24
        assert _lane_of(_engine().compile(circuit, backend="sparse")) == "float64"
        # The exact backend runs no lane and is slow here; other cases pin it.
        assert_compile_equivalent(
            circuit,
            _random_inputs(circuit, batch=2, seed=10),
            require_templates=True,
            backends=("sparse", "dense"),
        )


class TestPlanCorners:
    """Circuits the plan builder must lower to residual runs, still exactly."""

    def test_refused_provenance_compiles_as_residual_runs(self):
        # A parameter row pointing at the block base is a forward (or self)
        # reference the store can never hold: the builder refuses the whole
        # factorization, and every gate runs as a residual run.
        circuit = build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit
        block = circuit.template_blocks[0]
        params = np.array(block.params)
        params[0, 0] = block.base
        circuit.template_blocks[0] = dataclasses.replace(block, params=params)
        assert build_template_plan(circuit).covered_gates == 0
        # A JSON load refuses such provenance outright.
        with pytest.raises(StaticVerificationError, match="parameter node ids"):
            _loaded(circuit)
        assert_compile_equivalent(circuit, loaded=False)

    def test_huge_weights_without_provenance(self):
        # Weights beyond int64 and no provenance at all: the residual plan
        # carries the exact magnitude, so auto picks exact and the sparse and
        # dense backends refuse.
        big = 1 << 70
        builder = CircuitBuilder(name="huge-residual")
        inputs = builder.allocate_inputs(3)
        low = builder.add_gate(inputs, [1, 1, 1], 2)
        high = builder.add_gate([inputs[0], low], [big, -big], 1)
        out = builder.add_gate([high, inputs[2]], [big + 1, -big], 1)
        builder.set_outputs([out])
        circuit = builder.build()
        assert not circuit.template_blocks
        plan = build_template_plan(circuit)
        assert not plan.int64_safe and plan.covered_gates == 0
        inputs_block = _random_inputs(circuit, batch=8, seed=3)
        engine = _engine()
        auto = engine.evaluate(circuit, inputs_block, keep_nodes=True)
        assert engine.compile(circuit).backend_name == "exact"
        assert (auto.node_values == _reference(circuit, inputs_block)).all()
        assert_compile_equivalent(circuit, inputs_block, backends=("exact",))
        for backend in ("sparse", "dense"):
            with pytest.raises(BackendError):
                engine.compile(circuit, backend=backend)

    def test_zero_gate_circuit(self):
        circuit = ThresholdCircuit(3, name="wires-only")
        circuit.set_outputs([0, 2])
        plan = build_template_plan(circuit)
        assert plan.segments == [] and plan.max_magnitude == 0 and plan.int64_safe
        assert_compile_equivalent(circuit)
        result = _engine().evaluate(circuit, np.array([[1, 0], [0, 0], [1, 1]]))
        assert result.outputs.tolist() == [[1, 0], [1, 1]]
        assert result.energy.tolist() == [0, 0]


class TestOverflowTemplatePath:
    """Templates with >int64 weights must route to the exact backend."""

    BIG = 1 << 70

    def _circuit(self):
        builder = CircuitBuilder(name="huge")
        builder.allocate_inputs(4)

        def emit_template(recorder):
            inner = recorder.add_gate([0, 1], [self.BIG, -self.BIG], 0, tag="huge")
            return recorder.add_gate([inner, 2], [1, 1], 2, tag="and")

        def emit_legacy(i):
            raise AssertionError("distinct-parameter copies must stamp")

        params = [[0, 1, 2], [1, 2, 3], [2, 3, 0]]
        results = builder.stamper.stamp_all(
            "huge-key", 3, params, emit_template, emit_legacy
        )
        builder.set_outputs([int(node) for node in results])
        return builder.build()

    def test_overflowing_template_circuit_is_exact_and_correct(self):
        circuit = self._circuit()
        plan = build_template_plan(circuit)
        assert plan.covered_gates == circuit.size and not plan.int64_safe
        inputs = _random_inputs(circuit, batch=8, seed=5)
        reference = _reference(circuit, inputs)
        engine = _engine()
        # auto resolves to exact
        result = engine.evaluate(circuit, inputs, keep_nodes=True)
        assert (result.node_values == reference).all()
        program = engine.compile(circuit)
        assert program.backend_name == "exact"
        for backend in ("sparse", "dense"):
            with pytest.raises(BackendError):
                engine.compile(circuit, backend=backend)
        loaded = _loaded(circuit)
        assert build_template_plan(loaded).covered_gates == circuit.size
        assert (
            _engine().evaluate(loaded, inputs, keep_nodes=True).node_values == reference
        ).all()


# --------------------------------------------------------------------------- #
# Random gadget soup: arbitrary interleavings of stamped sums/products and
# hand-emitted gates, so template blocks and residual runs alternate in ways
# the named constructions never produce.
# --------------------------------------------------------------------------- #


def _soup_circuit(data):
    from repro.arithmetic.signed import SignedBinaryNumber
    from repro.arithmetic.product import build_signed_products
    from repro.arithmetic.weighted_sum import build_signed_sums

    n_inputs = data.draw(st.integers(min_value=2, max_value=5), label="n_inputs")
    builder = CircuitBuilder(name="soup")
    wires = builder.allocate_inputs(n_inputs, "x")

    def draw_number(label):
        n_bits = data.draw(st.integers(min_value=1, max_value=2), label=f"{label}/bits")
        picks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_inputs - 1),
                min_size=2 * n_bits,
                max_size=2 * n_bits,
            ),
            label=f"{label}/wires",
        )
        return SignedBinaryNumber.from_input_bits(
            [wires[p] for p in picks[:n_bits]], [wires[p] for p in picks[n_bits:]]
        )

    numbers = [
        draw_number(f"value{i}")
        for i in range(data.draw(st.integers(min_value=2, max_value=3), label="n_values"))
    ]
    outputs = []
    for i in range(data.draw(st.integers(min_value=1, max_value=3), label="n_ops")):
        kind = data.draw(
            st.sampled_from(["sum", "product", "raw"]), label=f"op{i}/kind"
        )
        if kind == "raw":
            # A hand-emitted gate between stamps forces a residual segment.
            fan = data.draw(st.integers(min_value=0, max_value=2), label=f"op{i}/fan")
            sources = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=builder.n_nodes - 1),
                    min_size=fan,
                    max_size=fan,
                ),
                label=f"op{i}/sources",
            )
            weights = data.draw(
                st.lists(
                    st.integers(min_value=-4, max_value=4),
                    min_size=fan,
                    max_size=fan,
                ),
                label=f"op{i}/weights",
            )
            threshold = data.draw(
                st.integers(min_value=-3, max_value=3), label=f"op{i}/thr"
            )
            outputs.append(builder.add_gate(sources, weights, threshold, tag="raw"))
            continue
        count = data.draw(st.integers(min_value=1, max_value=3), label=f"op{i}/count")
        if kind == "sum":
            groups = []
            for j in range(count):
                terms = [
                    (
                        numbers[
                            data.draw(
                                st.integers(min_value=0, max_value=len(numbers) - 1),
                                label=f"op{i}/{j}/{t}/value",
                            )
                        ].to_signed_value(),
                        data.draw(
                            st.integers(min_value=-3, max_value=3).filter(bool),
                            label=f"op{i}/{j}/{t}/weight",
                        ),
                    )
                    for t in range(
                        data.draw(
                            st.integers(min_value=1, max_value=2),
                            label=f"op{i}/{j}/terms",
                        )
                    )
                ]
                groups.append(terms)
            results = build_signed_sums(builder, groups, tag=f"soup/sum{i}")
            numbers.extend(results)
            outputs.extend(node for r in results for node in r.pos.bit_nodes)
        else:
            groups = [
                [
                    numbers[
                        data.draw(
                            st.integers(min_value=0, max_value=len(numbers) - 1),
                            label=f"op{i}/{j}/{f}/factor",
                        )
                    ]
                    for f in range(2)
                ]
                for j in range(count)
            ]
            results = build_signed_products(builder, groups, tag=f"soup/prod{i}")
            for value in results:
                outputs.extend(node for node, _ in value.pos.terms)
    circuit = builder.build()
    if outputs:
        circuit.set_outputs(sorted(set(outputs)))
    return circuit


#: Small relocatable gadgets for :func:`_stamp_soup`: ``(n_params, emit)``.
_GADGETS = {
    "nand": (
        2,
        lambda r: r.add_gate(
            [r.add_gate([0, 1], [1, 1], 2, tag="and")], [-1], 0, tag="nand"
        ),
    ),
    "majority": (3, lambda r: r.add_gate([0, 1, 2], [1, 1, 1], 2, tag="maj")),
    "chain": (
        1,
        lambda r: r.add_gate(
            [0, r.add_gate([0], [-1], 0, tag="not")], [2, -1], 1, tag="keep"
        ),
    ),
    "one": (0, lambda r: r.add_gate([], [], 0, tag="one")),
}


def _stamp_soup(data):
    """Random stamps of a few small gadgets, interleaved with hand-emitted
    gates, each reading any earlier nodes: template blocks of one template
    land at many dependency levels, in any node order."""
    n_inputs = data.draw(st.integers(min_value=3, max_value=5), label="n_inputs")
    builder = CircuitBuilder(name="stamp-soup")
    builder.allocate_inputs(n_inputs, "x")
    outputs = []

    def legacy(i):
        raise AssertionError("distinct parameters must stamp")

    for i in range(data.draw(st.integers(min_value=2, max_value=7), label="n_ops")):
        kind = data.draw(st.sampled_from(sorted(_GADGETS) + ["raw"]), label=f"op{i}")
        if kind == "raw":
            fan = data.draw(st.integers(min_value=0, max_value=3), label=f"op{i}/fan")
            sources = data.draw(
                st.lists(
                    st.integers(0, builder.n_nodes - 1), min_size=fan, max_size=fan
                ),
                label=f"op{i}/sources",
            )
            weights = data.draw(
                st.lists(st.integers(-2, 2), min_size=fan, max_size=fan),
                label=f"op{i}/weights",
            )
            threshold = data.draw(st.integers(-1, 2), label=f"op{i}/thr")
            outputs.append(builder.add_gate(sources, weights, threshold, tag="raw"))
            continue
        n_params, emit = _GADGETS[kind]
        rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, builder.n_nodes - 1),
                    min_size=n_params,
                    max_size=n_params,
                    unique=True,
                ),
                min_size=2,
                max_size=4,
            ),
            label=f"op{i}/rows",
        )
        results = builder.stamper.stamp_all(kind, n_params, rows, emit, legacy)
        outputs.extend(int(node) for node in results)
    circuit = builder.build()
    circuit.set_outputs(sorted(set(outputs)))
    return circuit


class TestRandomGadgetSoup:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_soup_bit_identical_across_paths(self, data):
        circuit = _soup_circuit(data)
        if circuit.size == 0:
            return
        inputs = _random_inputs(circuit, batch=3, seed=11)
        assert_compile_equivalent(circuit, inputs)


# --------------------------------------------------------------------------- #
# The level schedule: all stamps of one template in one dependency level run
# together, in stamp chunks, whatever the node order.
# --------------------------------------------------------------------------- #


def _level_circuit():
    """One template stamped at levels 1 and 3 with a residual run at level 2
    between them, then more level-1 stamps placed after the level-3 block:
    node order and level order disagree."""
    builder = CircuitBuilder(name="levels")
    x = builder.allocate_inputs(4)
    n_params, emit = _GADGETS["nand"]

    def stamp(rows):
        def legacy(i):
            raise AssertionError("distinct parameters must stamp")

        results = builder.stamper.stamp_all("nand", n_params, rows, emit, legacy)
        return [int(node) for node in results]

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    first = stamp([[x[a], x[b]] for a, b in pairs])  # level 1
    r0 = builder.add_gate(first[:2], [1, 1], 1, tag="or")  # level 2
    r1 = builder.add_gate([first[2], x[0]], [1, 1], 2, tag="and")
    second = stamp([[r0, r1], [r1, x[1]]])  # level 3
    third = stamp([[x[1], x[2]], [x[3], x[0]]])  # level 1
    builder.set_outputs(first + [r0, r1] + second + third)
    return builder.build()


def _all_inputs(n_inputs):
    columns = np.arange(1 << n_inputs)[None, :]
    return ((columns >> np.arange(n_inputs)[:, None]) & 1).astype(np.int64)


def _reference_levels(plan):
    """The level rule applied segment by segment with a full gather."""
    node_level = np.zeros(plan.n_nodes, dtype=np.int64)
    levels = []
    for segment in plan.segments:
        if isinstance(segment, ResidualSegment):
            nodes = np.concatenate([layer.nodes for layer in segment.layers])
            reads = np.concatenate([layer.cols for layer in segment.layers])
            reads = reads[~np.isin(reads, nodes)]
        else:
            nodes = np.arange(segment.base, segment.base + segment.k * segment.n_gates)
            reads = segment.params.reshape(-1)
        level = 1 + (int(node_level[reads].max()) if reads.size else 0)
        node_level[nodes] = level
        levels.append(level)
    return levels


class TestLevelSchedule:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_levels_match_the_rule(self, data):
        plan = build_template_plan(_stamp_soup(data))
        assert plan.levels == _reference_levels(plan)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_matmul_circuit(4, bit_width=1).circuit,
            lambda: build_trace_circuit(4, tau=10, bit_width=1).circuit,
            lambda: build_naive_matmul_circuit(4, bit_width=1, stages=2).circuit,
        ],
        ids=["strassen-n4", "trace-n4", "naive-n4"],
    )
    def test_construction_levels_match_the_rule(self, build):
        plan = build_template_plan(build())
        assert plan.covered_gates
        assert plan.levels == _reference_levels(plan)

    def test_node_order_differs_from_level_order(self):
        circuit = _level_circuit()
        plan = build_template_plan(circuit)
        assert [type(s).__name__ for s in plan.segments] == [
            "TemplateBlock",
            "ResidualSegment",
            "TemplateBlock",
            "TemplateBlock",
        ]
        assert plan.levels == [1, 2, 3, 1]
        # Level 1 holds both outer blocks, so they form one group.
        groups = plan.schedule()
        assert [len(group) for group in groups] == [2, 1, 1]
        assert groups[0] == [plan.segments[0], plan.segments[3]]
        assert_compile_equivalent(
            circuit, _all_inputs(circuit.n_inputs), require_templates=True
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("step", ["one", "group-1", "group", "group+1"])
    def test_stamp_chunk_boundaries(self, monkeypatch, backend, step):
        # The level-1 group has 8 stamps over two node runs (6 + 2).  Batch
        # widths under a budget of 504 columns of locals put the chunk size
        # at 1 stamp, one short of the group (a chunk straddles the runs,
        # then a one-stamp chunk), the whole group, and one past it.  Each
        # chunk's energy folds by batch column, so both result shapes must
        # match evaluate_slow.
        import repro.engine.backends as backends

        circuit = _level_circuit()
        group = build_template_plan(circuit).schedule()[0]
        stamps = sum(block.k for block in group)
        assert stamps == 8
        n_locals = group[0].template.n_locals
        itemsize = np.dtype(object if backend == "exact" else np.float32).itemsize
        columns = (stamps - 1) * stamps * (stamps + 1)  # 504
        size = {"one": 1, "group-1": stamps - 1, "group": stamps, "group+1": stamps + 1}
        batch = columns // size[step]
        budget = n_locals * itemsize * columns
        # This node buffer is far below 32 budgets, so the chunk budget is
        # its floor: a quarter of _STAMP_CHUNK_BYTES.
        assert circuit.n_nodes * batch * itemsize < 32 * budget
        monkeypatch.setattr(backends, "_STAMP_CHUNK_BYTES", 4 * budget)
        inputs = _random_inputs(circuit, batch=batch, seed=batch)
        reference = _reference(circuit, inputs)
        for variant in (circuit, _stripped(circuit)):
            engine = _engine()
            kept = engine.evaluate(variant, inputs, backend=backend, keep_nodes=True)
            assert (kept.node_values == reference).all(), (backend, step)
            result = engine.evaluate(variant, inputs, backend=backend)
            for got in (kept, result):
                assert_outputs_and_energy(got, circuit, reference, (backend, step))

    def test_one_product_per_template_layer_per_group(self, monkeypatch):
        # A kept naive n=8 run issues one product per template layer of each
        # (level, template) group plus one per residual layer — not one per
        # block per layer.
        import repro.engine.backends as backends

        circuit = build_naive_matmul_circuit(8, bit_width=1, stages=2).circuit
        plan = build_template_plan(circuit)

        def products(segment):
            if isinstance(segment, ResidualSegment):
                return len(segment.layers)
            return len(segment.template.layers)

        expected = sum(products(group[0]) for group in plan.schedule())
        per_block = sum(products(segment) for segment in plan.segments)
        assert expected < per_block
        calls = []
        real = backends._layer_sums

        def counted(values, terms):
            calls.append(len(terms))
            return real(values, terms)

        monkeypatch.setattr(backends, "_layer_sums", counted)
        program = _engine().compile(circuit, backend="sparse")
        inputs = _random_inputs(circuit, batch=8, seed=8)
        result = program.run(inputs, keep_nodes=True)
        assert len(calls) == expected and set(calls) == {1}
        reference = Engine().evaluate(
            _stripped(circuit), inputs, backend="sparse", keep_nodes=True
        )
        assert (result.nodes == reference.node_values).all()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stamp_soup_bit_identical(self, data):
        # Random stamp soups put one template at many levels in any node
        # order; a small chunk budget splits groups across runs.
        import repro.engine.backends as backends

        circuit = _stamp_soup(data)
        inputs = _random_inputs(circuit, batch=5, seed=3)
        budget = data.draw(st.sampled_from([1, 64, 1 << 20]), label="chunk bytes")
        saved = backends._STAMP_CHUNK_BYTES
        backends._STAMP_CHUNK_BYTES = budget
        try:
            assert_compile_equivalent(circuit, inputs)
        finally:
            backends._STAMP_CHUNK_BYTES = saved


# --------------------------------------------------------------------------- #
# INV-12: the outputs-only result of every entry point equals the outputs and
# energy of the kept node matrix and of evaluate_slow, across the column
# chunks a run budget cuts and on degenerate batches.
class TestOutputsOnlyRun:
    @pytest.fixture(scope="class")
    def circuit(self):
        return build_trace_circuit(2, 3, bit_width=1, depth_parameter=1).circuit

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["width-1", "width", "width+1"])
    def test_run_chunk_boundaries(self, monkeypatch, circuit, backend, offset):
        # A run budget of 5 columns makes every batch wider than 5 run in
        # column chunks that each return their outputs and energy.
        import repro.engine.backends as backends

        engine = _engine()
        program = engine.compile(circuit, backend=backend)
        column = circuit.n_nodes * np.dtype(program.values_dtype).itemsize
        monkeypatch.setattr(backends, "_RUN_BUFFER_BYTES", 5 * column)
        assert backends.run_chunk_width(program, 2048) == 5
        for batch in (5 + offset, 2 * 5 + offset):
            inputs = _random_inputs(circuit, batch=batch, seed=batch)
            reference = _reference(circuit, inputs)
            kept = engine.evaluate(circuit, inputs, backend=backend, keep_nodes=True)
            assert (kept.node_values == reference).all(), (backend, batch)
            result = engine.evaluate(circuit, inputs, backend=backend)
            assert result.node_values.shape == (0, batch)
            for got in (kept, result):
                assert_outputs_and_energy(got, circuit, reference, (backend, batch))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_width_and_one_dim_inputs(self, circuit, backend):
        engine = _engine()
        empty = np.zeros((circuit.n_inputs, 0), dtype=np.int64)
        for keep_nodes in (False, True):
            result = engine.evaluate(circuit, empty, backend=backend, keep_nodes=keep_nodes)
            rows = circuit.n_nodes if keep_nodes else 0
            assert result.node_values.shape == (rows, 0)
            assert result.outputs.shape == (len(circuit.outputs), 0)
            assert result.energy.shape == (0,) and result.energy.dtype == np.int64
        vector = _random_inputs(circuit, batch=1, seed=1)[:, 0]
        reference = circuit.evaluate_slow(list(vector))
        kept = engine.evaluate(circuit, vector, backend=backend, keep_nodes=True)
        result = engine.evaluate(circuit, vector, backend=backend)
        assert (kept.node_values == reference).all()
        assert result.node_values.shape == (0,)
        for got in (kept, result):
            assert (got.outputs == reference[circuit.outputs]).all(), backend
            assert got.energy == reference[circuit.n_inputs :].sum(), backend

    def test_program_run_folds_stamp_columns_by_batch_column(self):
        # Direct program runs at a batch of 3 with a 1-stamp chunk budget:
        # every template group spans several stamp chunks, and a stamp's
        # column i * 3 + b must count toward batch column b.
        import repro.engine.backends as backends

        circuit = _level_circuit()
        inputs = _all_inputs(circuit.n_inputs)[:, [0, 5, 15]]
        reference = _reference(circuit, inputs)
        saved = backends._STAMP_CHUNK_BYTES
        for budget in (1, 1 << 20):
            backends._STAMP_CHUNK_BYTES = budget
            try:
                for backend in BACKENDS:
                    program = _engine().compile(circuit, backend=backend)
                    outputs, energy, nodes = program.run(inputs)
                    assert nodes is None
                    kept = program.run(inputs, keep_nodes=True)
                    assert (kept.nodes == reference).all(), backend
                    for got in (kept, backends.RunResult(outputs, energy)):
                        assert_outputs_and_energy(got, circuit, reference, backend)
            finally:
                backends._STAMP_CHUNK_BYTES = saved


# --------------------------------------------------------------------------- #
# Shared sums: the matrix backends compute one weighted sum per run of equal
# adjacent rows of a layer and compare it against each gate's own threshold.
# --------------------------------------------------------------------------- #

#: The ladder's weights over its five parameters; its sums are multiples of
#: the lane scale in ``[-scale, 7 * scale]``.
_LADDER_WEIGHTS = [1, 2, 1, -1, 3]

#: Ladder weight scales that put the plan in each numeric lane: the worst
#: case is ``8 * scale`` of weights plus a threshold of ``7 * scale + 1``.
_LANE_SCALES = {"float32": 1, "float64": 1 << 21, "int64": 1 << 50}


def _emit_ladder_rows(add_gate, params, scale):
    """One depth layer, in emission order: a seven-gate ladder reading one
    sum, then near misses of its row — one weight different, one source
    different, the ladder row again after those two (equal, not adjacent)
    — and a pair of zero-fan-in gates.  Returns the layer's gates."""
    ladder = params[:5]
    weights = [w * scale for w in _LADDER_WEIGHTS]
    thresholds = [-1, 0, 1, 2, 2, 5, 7]
    gates = [add_gate(ladder, weights, t * scale) for t in thresholds[:4]]
    gates += [add_gate(ladder, weights, t * scale + 1) for t in thresholds[4:]]
    # Fires on sum 3 * scale + 1 only, so in every lane it tells its own
    # sum from the ladder's.
    gates.append(add_gate(ladder, weights[:4] + [weights[4] + 1], 3 * scale + 1))
    gates.append(add_gate(params[:4] + [params[5]], weights, 3 * scale))
    gates.append(add_gate(ladder, weights, 4 * scale))
    gates.append(add_gate([], [], 0))
    gates.append(add_gate([], [], 1))
    return gates


def _shared_sum_circuit(scale):
    """The ladder layer stamped as a template over three parameter rows,
    with a second layer that reads it, then emitted once more by hand as a
    residual run: template and residual layers both share sums."""
    builder = CircuitBuilder(name=f"shared-sums-{scale}")
    x = builder.allocate_inputs(6)

    def emit(recorder):
        layer = _emit_ladder_rows(
            lambda s, w, t: recorder.add_gate(s, w, t, tag="ladder"),
            list(range(6)),
            scale,
        )
        # A second ladder over the first layer, so its sums read shared ones.
        top = [recorder.add_gate(layer[1:5], [1, 1, 1, 1], t) for t in (1, 2, 3)]
        return recorder.add_gate(top + layer[-2:], [1, -1, 1, 1, 1], 2, tag="top")

    def legacy(i):
        raise AssertionError("distinct parameters must stamp")

    orders = ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [1, 2, 3, 4, 5, 0])
    rows = [[x[i] for i in order] for order in orders]
    stamped = builder.stamper.stamp_all("ladder", 6, rows, emit, legacy)
    residual = _emit_ladder_rows(builder.add_gate, list(x), scale)
    builder.set_outputs([int(node) for node in stamped] + residual)
    return builder.build()


#: Sums per ladder layer: the ladder, the two near misses, the repeated
#: row and the zero-fan-in pair, each one sum.
_LADDER_ROW_OF = [0] * 7 + [1, 2, 3, 4, 4]


class TestSharedSums:
    @pytest.mark.parametrize("lane", sorted(_LANE_SCALES))
    @pytest.mark.parametrize(
        "chunks", ["whole", "stamp-chunks", "run-chunks", "sum-blocks"]
    )
    def test_shared_sum_layers_bit_identical(self, monkeypatch, lane, chunks):
        # Every backend, kept, stripped and loaded, outputs only and kept
        # nodes, against evaluate_slow on all 64 input columns; one stamp
        # per chunk, or runs of three columns, cut the batch at boundaries,
        # and blocks of three wires cut the row comparison inside rows.
        import repro.circuits.store as store
        import repro.engine.backends as backends

        circuit = _shared_sum_circuit(_LANE_SCALES[lane])
        assert build_template_plan(circuit).lane == lane
        if chunks == "stamp-chunks":
            monkeypatch.setattr(backends, "_STAMP_CHUNK_BYTES", 1)
        elif chunks == "run-chunks":
            column = circuit.n_nodes * np.dtype(lane).itemsize
            monkeypatch.setattr(backends, "_RUN_BUFFER_BYTES", 3 * column)
        elif chunks == "sum-blocks":
            monkeypatch.setattr(store, "_SHARED_SUM_BLOCK", 3)
        assert_compile_equivalent(
            circuit, _all_inputs(circuit.n_inputs), require_templates=True
        )

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_adjacent_equal_rows_share_one_sum(self, backend):
        circuit = _shared_sum_circuit(1)
        for variant in (circuit, _stripped(circuit)):
            # One engine per variant: both share one structural hash.
            program = _engine().compile(variant, backend=backend)
            layers = [
                layer
                for kind, payload in program.segments
                for layer in (payload[5] if kind == "tpl" else payload)
            ]
            shared = [layer for layer in layers if layer[3] is not None]
            ladders = [layer for layer in shared if len(layer[0]) == 12]
            # Kept: the template's ladder layer and the residual one;
            # stripped: one residual layer of three stamps and the hand rows.
            if variant is circuit:
                assert len(ladders) == 2
                for _rows, terms, _thresholds, row_of in ladders:
                    assert row_of.tolist() == _LADDER_ROW_OF
                    assert terms[0][1].shape[0] == 5
            else:
                (layer,) = [layer for layer in shared if len(layer[0]) == 48]
                bases = 5 * np.arange(4)[:, None]
                assert layer[3].tolist() == (bases + _LADDER_ROW_OF).ravel().tolist()
            for _rows, terms, thresholds, row_of in shared:
                assert terms[0][1].shape[0] == row_of.max() + 1 < len(thresholds)
        # repro verify counts the same sums with and without provenance:
        # per stamp 5 ladder-layer sums, 1 for the second ladder and 1 for
        # the top gate, and 5 for the hand-emitted layer.
        from repro.statics import verify_circuit

        kept = verify_circuit(circuit).info["plan_sums"]
        stripped = verify_circuit(_stripped(circuit), provenance=False).info
        assert kept == stripped["plan_sums"] == 3 * (5 + 1 + 1) + 5

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_naive_sum_template_product_rows(self, backend):
        # naive n=8's sum template: 50 gates in four layers, of which the
        # first (28 gates) and third (12) are two ladders each.
        circuit = build_naive_matmul_circuit(8, bit_width=1, stages=2).circuit
        program = _engine().compile(circuit, backend=backend)
        templates = {
            id(payload[5]): payload[5]
            for kind, payload in program.segments
            if kind == "tpl" and payload[4] == 50
        }
        (layers,) = templates.values()
        assert [len(rows) for rows, *_ in layers] == [28, 6, 12, 4]
        assert [terms[0][1].shape[0] for _rows, terms, *_ in layers] == [2, 6, 2, 4]

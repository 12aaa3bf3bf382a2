"""Differential harness: a circuit compiles bit-identically with or without
its provenance.

The engine compiles one plan form — template blocks for the gates the
circuit's provenance covers, residual runs for every other gate — into
three backends.  A circuit whose provenance is stripped (a shallow copy
with ``template_blocks = []``: same store, same structural hash) compiles
every gate as residual runs.  This module is the single place where both
are pinned against each other and against the gate-by-gate reference
``evaluate_slow``:

    {provenance kept, provenance stripped} x {sparse, dense, exact}

on every construction family (matmul / trace / direct / naive) in every
builder mode (banked / stamped / legacy), on the corners the plan builder
must handle (refused provenance, weights beyond int64, zero gates), plus a
Hypothesis-driven random gadget soup.  Any future change to construction,
stamping or compilation that breaks bit-equality fails here with the
offending path named.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import build_template_plan
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


def _random_inputs(circuit, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(circuit.n_inputs, batch)).astype(np.int64)


def _reference(circuit, inputs):
    return np.stack(
        [circuit.evaluate_slow(list(inputs[:, b])) for b in range(inputs.shape[1])],
        axis=1,
    )


def assert_compile_equivalent(
    circuit, inputs=None, require_templates=False, backends=BACKENDS
):
    """Provenance kept and stripped x backends reproduce the reference, bit for bit."""
    if inputs is None:
        inputs = _random_inputs(circuit)
    reference = _reference(circuit, inputs)
    if require_templates:
        assert build_template_plan(circuit).covered_gates, (
            "expected template provenance on this circuit"
        )
    # One engine per variant: both share a structural hash, so one engine
    # would serve the stripped copy the program compiled for the original.
    engines = {"kept": _engine(), "stripped": _engine()}
    for backend in backends:
        for label, variant in (("kept", circuit), ("stripped", _stripped(circuit))):
            result = engines[label].evaluate(variant, inputs, backend=backend)
            values = result.node_values
            assert values.shape == reference.shape
            mismatch = values != reference
            assert not mismatch.any(), (
                f"provenance {label} x {backend}: {int(mismatch.sum())} node "
                f"values differ from evaluate_slow (first at index "
                f"{np.argwhere(mismatch)[0].tolist()})"
            )
            energy = reference[circuit.n_inputs :].sum(axis=0)
            assert (result.energy == energy).all(), (label, backend)


CONSTRUCTIONS = [
    pytest.param(
        lambda: build_naive_matmul_circuit(3, bit_width=1, stages=2).circuit,
        True,
        id="naive-matmul-banked",
    ),
    pytest.param(
        lambda: build_naive_matmul_circuit(
            3, bit_width=1, stages=2, banked=False
        ).circuit,
        True,
        id="naive-matmul-stamped",
    ),
    pytest.param(
        lambda: build_naive_matmul_circuit(
            3, bit_width=1, stages=2, vectorize=False
        ).circuit,
        False,
        id="naive-matmul-legacy",
    ),
    pytest.param(
        lambda: build_naive_trace_circuit(3, tau=1, bit_width=1).circuit,
        True,
        id="naive-trace-banked",
    ),
    pytest.param(
        lambda: build_naive_trace_circuit(
            3, tau=1, bit_width=1, banked=False
        ).circuit,
        True,
        id="naive-trace-stamped",
    ),
    pytest.param(
        lambda: build_naive_triangle_circuit(5, tau=2).circuit,
        False,  # pure bulk emission, no stamped gadgets
        id="naive-triangles",
    ),
    pytest.param(
        lambda: build_matmul_circuit(2, bit_width=1).circuit,
        True,
        id="matmul-strassen-banked",
    ),
    pytest.param(
        lambda: build_matmul_circuit(2, bit_width=1, banked=False).circuit,
        True,
        id="matmul-strassen-stamped",
    ),
    pytest.param(
        lambda: build_matmul_circuit(2, bit_width=1, vectorize=False).circuit,
        False,
        id="matmul-strassen-legacy",
    ),
    pytest.param(
        lambda: build_trace_circuit(2, tau=0, bit_width=1).circuit,
        True,
        id="trace-strassen-banked",
    ),
    pytest.param(
        lambda: build_trace_circuit(2, tau=0, bit_width=1, banked=False).circuit,
        True,
        id="trace-strassen-stamped",
    ),
    pytest.param(
        lambda: build_direct_matmul_circuit(2, bit_width=1, stages=2).circuit,
        True,
        id="direct-matmul-banked",
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
        assert kept.float64_exact == stripped.float64_exact
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
        assert_compile_equivalent(circuit)

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
        auto = engine.evaluate(circuit, inputs_block)
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
        result = engine.evaluate(circuit, inputs)  # auto resolves to exact
        assert (result.node_values == reference).all()
        program = engine.compile(circuit)
        assert program.backend_name == "exact"
        for backend in ("sparse", "dense"):
            with pytest.raises(BackendError):
                engine.compile(circuit, backend=backend)


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


class TestRandomGadgetSoup:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_soup_bit_identical_across_paths(self, data):
        circuit = _soup_circuit(data)
        if circuit.size == 0:
            return
        inputs = _random_inputs(circuit, batch=3, seed=11)
        assert_compile_equivalent(circuit, inputs)

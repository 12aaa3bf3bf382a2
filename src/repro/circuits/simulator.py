"""The one compile plan of the engine, and the one-shot :func:`simulate`.

The paper's constructions stamp a small set of lemma gadgets thousands of
times, so most of a circuit's gates are ``k`` translated copies of a
template whose layer structure is known once.  :func:`build_template_plan`
lowers every circuit to a :class:`TemplatePlan` that keeps that
factorization: the circuit's validated template blocks (one local layer
plan per template, tiled across the stamps at evaluation time) interleaved
with *residual* runs, the gates emitted outside any stamp, grouped by depth.
A circuit without usable provenance lowers to residual runs only.  Every
engine backend compiles this one plan.

Exactness: weights and partial sums are integers.  The plan carries the
exact worst-case magnitude over all gates of the weighted sum plus
threshold (:func:`~repro.circuits.store.csr_max_magnitude`, exact beyond
int64 too), and one whole-circuit ``int64_safe`` verdict decides whether
machine-dtype backends may run it at all.  :func:`simulate` routes through
the default engine, so one-shot callers get the compile cache and backend
auto-selection for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.store import csr_max_magnitude, iter_depth_layers

__all__ = [
    "ResidualLayer",
    "ResidualSegment",
    "SimulationResult",
    "TemplatePlan",
    "build_template_plan",
    "simulate",
]

_INT64_SAFE_LIMIT = 1 << 62


@dataclass
class ResidualLayer:
    """One depth layer of a residual (non-stamped) gate run, in CSR form.

    ``offsets`` are per-gate CSR offsets into ``cols``/``data`` (local to
    the layer), so a backend builds the layer's weight matrix straight from
    the three arrays and evaluates the layer with one matrix product.
    """

    depth: int
    nodes: np.ndarray  # gate node ids, int64, ascending
    cols: np.ndarray  # source node id per wire, int64
    data: Sequence[int]  # weights (int64 array on the fast path)
    offsets: np.ndarray  # int64[n_gates + 1]
    thresholds: Sequence[int]


@dataclass
class ResidualSegment:
    """A maximal run of gates not covered by any template block."""

    layers: List[ResidualLayer]


@dataclass
class TemplatePlan:
    """A circuit lowered to template blocks plus residual runs.

    Segments — the circuit's validated
    :class:`~repro.circuits.template.TemplateBlock` records interleaved
    with :class:`ResidualSegment` runs — are ordered by node id, which is a
    topological order because gates only ever reference earlier nodes.
    For a template block, copy ``i`` occupies node ids ``base + i *
    n_gates ..`` and the template's relative-depth layers are a valid
    evaluation order for every copy.  ``covered_gates`` counts the gates
    inside template blocks (0 when every gate is residual).

    ``max_magnitude`` is the exact worst case, over all gates, of the
    magnitude of the weighted sum plus threshold.  ``int64_safe`` is decided
    for the *whole* circuit: either every segment runs in a machine dtype,
    or the plan only compiles for the exact backend.
    """

    n_inputs: int
    n_nodes: int
    outputs: List[int]
    int64_safe: bool
    max_magnitude: int
    covered_gates: int
    size: int
    segments: List[object] = field(default_factory=list)

    @property
    def float64_exact(self) -> bool:
        """True when every weighted sum is exactly representable in float64.

        Lets the dense backend run on BLAS (float matmul) without losing a
        single bit: all intermediate sums stay below ``2**53``.
        """
        return self.max_magnitude < (1 << 53)


def _residual_segment(circuit, cols, depths, start, stop):
    """Lower gates ``start:stop`` (a contiguous run) into depth-grouped CSR layers.

    Returns ``(segment, max_magnitude)``.  Only the run's own wire slice is
    touched — for template-heavy circuits that is a vanishing fraction of
    the edges.
    """
    lo, hi = int(cols.offsets[start]), int(cols.offsets[stop])
    run_sources = cols.sources[lo:hi]
    run_weights = cols.weights[lo:hi]
    run_offsets = cols.offsets[start : stop + 1] - lo
    run_thresholds = cols.thresholds[start:stop]
    magnitude = csr_max_magnitude(
        run_weights, run_offsets, run_thresholds, cols.int64_ok
    )
    layers: List[ResidualLayer] = []
    for depth, gate_idx, wire_idx, layer_fan in iter_depth_layers(
        depths[start:stop], run_offsets
    ):
        # gate_idx is run-local (ascending); rebase to absolute node ids.
        seg_offsets = np.zeros(len(gate_idx) + 1, dtype=np.int64)
        np.cumsum(layer_fan, out=seg_offsets[1:])
        layers.append(
            ResidualLayer(
                depth=depth,
                nodes=gate_idx + start + circuit.n_inputs,
                cols=run_sources[wire_idx],
                data=run_weights[wire_idx],
                offsets=seg_offsets,
                thresholds=run_thresholds[gate_idx],
            )
        )
    return ResidualSegment(layers), magnitude


def _accepted_blocks(circuit: ThresholdCircuit, min_cover: float) -> list:
    """The circuit's non-empty template blocks in node order, or ``[]``.

    Provenance is never trusted over the columnar store: the blocks are
    refused as a whole — and every gate becomes residual — when they cover
    less than ``min_cover`` of the gates, when a parameter row is
    ill-shaped or reads a node at or past its block, or when the blocks do
    not tile disjoint ranges of the gate index.
    """
    blocks = [block for block in circuit.template_blocks if block.k]
    size = circuit.size
    covered = 0
    for block in blocks:
        compiled = block.template  # a CompiledTemplate (slim, wire-carrying)
        if compiled is None or compiled.n_gates == 0:
            return []
        params = block.params
        if (
            params.ndim != 2
            or params.shape[1] != compiled.n_params
            or (params.size and int(params.min()) < 0)
            or (params.size and int(params.max()) >= block.base)
        ):
            return []
        covered += block.k * compiled.n_gates
    if not blocks or covered < min_cover * size:
        return []
    blocks.sort(key=lambda block: block.base)
    cursor = 0  # gate index (node id - n_inputs)
    for block in blocks:
        first = block.base - circuit.n_inputs
        if first < cursor or first + block.k * block.n_gates > size:
            return []  # overlapping or out-of-range provenance
        cursor = first + block.k * block.n_gates
    return blocks


def build_template_plan(
    circuit: ThresholdCircuit, min_cover: float = 0.0
) -> TemplatePlan:
    """Lower a circuit into template blocks plus residual runs.

    Gates outside the accepted template blocks (see :func:`_accepted_blocks`
    for when provenance is refused) become residual runs, so a circuit
    without provenance lowers to one residual segment holding every gate.
    """
    blocks = _accepted_blocks(circuit, min_cover)
    n_inputs = circuit.n_inputs
    size = circuit.size
    depths = circuit.gate_depths()
    cols = circuit.columnar()
    segments: List[object] = []
    magnitudes = [0]
    cursor = 0  # gate index (node id - n_inputs)

    def add_residual(stop: int) -> None:
        if stop > cursor:
            segment, magnitude = _residual_segment(circuit, cols, depths, cursor, stop)
            segments.append(segment)
            magnitudes.append(magnitude)

    for block in blocks:
        first = block.base - n_inputs
        add_residual(first)
        segments.append(block)  # the validated TemplateBlock, as-is
        magnitudes.append(block.template.max_magnitude)
        cursor = first + block.k * block.n_gates
    add_residual(size)
    max_magnitude = max(magnitudes)
    return TemplatePlan(
        n_inputs=n_inputs,
        n_nodes=circuit.n_nodes,
        outputs=list(circuit.outputs),
        int64_safe=max_magnitude < _INT64_SAFE_LIMIT,
        max_magnitude=max_magnitude,
        covered_gates=sum(block.k * block.n_gates for block in blocks),
        size=size,
        segments=segments,
    )


def check_batch_inputs(circuit: ThresholdCircuit, inputs: np.ndarray) -> None:
    """Validate a ``(n_inputs, batch)`` array of 0/1 values for a circuit."""
    if inputs.shape[0] != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} input rows, got {inputs.shape[0]}"
        )
    if inputs.size and not np.isin(inputs, (0, 1)).all():
        raise ValueError("circuit inputs must be 0/1")


@dataclass
class SimulationResult:
    """Result of evaluating a circuit on a batch of inputs.

    Attributes
    ----------
    node_values:
        Array of shape ``(n_nodes, batch)`` with the 0/1 value of every node.
    outputs:
        Array of shape ``(n_outputs, batch)`` with the declared outputs.
    energy:
        Array of shape ``(batch,)``: the number of gates that *fire* (output
        1) on each input — the energy measure of the paper's Section 6 open
        problem (Uchizawa et al. model).
    """

    node_values: np.ndarray
    outputs: np.ndarray
    energy: np.ndarray


def simulate(
    circuit: ThresholdCircuit, inputs: np.ndarray, engine=None
) -> SimulationResult:
    """One-shot convenience wrapper, routed through the execution engine.

    Repeated calls on structurally identical circuits hit the engine's
    compile cache instead of recompiling; pass ``engine`` to use a private
    :class:`~repro.engine.Engine` instead of the process-wide default.
    """
    from repro.engine import default_engine

    eng = engine if engine is not None else default_engine()
    return eng.evaluate(circuit, inputs)

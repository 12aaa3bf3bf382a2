"""The one compile plan of the engine, and the one-shot :func:`simulate`.

The paper's constructions stamp a small set of lemma gadgets thousands of
times, so most of a circuit's gates are ``k`` translated copies of a
template whose layer structure is known once.  :func:`build_template_plan`
lowers every circuit to a :class:`TemplatePlan` that keeps that
factorization: the circuit's validated template blocks (one local layer
plan per template, tiled across the stamps at evaluation time) interleaved
with *residual* runs, the gates emitted outside any stamp, grouped by depth.
A circuit without usable provenance lowers to residual runs only.  Every
segment carries a dependency level, so a backend evaluates level by level
and runs all stamps of one template in one level together
(:meth:`TemplatePlan.schedule`).  Every engine backend compiles this one
plan.

Exactness: weights and partial sums are integers.  The plan carries the
exact worst-case magnitude over all gates of the weighted sum plus
threshold (:func:`~repro.circuits.store.csr_max_magnitude`, exact beyond
int64 too), and that one certificate picks the plan's numeric lane
(:func:`numeric_lane`): the narrowest machine dtype in which every operand
and every partial sum is an exactly represented integer, or ``"exact"``
when no machine dtype is.  :func:`simulate` routes through the default
engine, so one-shot callers get the compile cache and backend
auto-selection for free.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.store import csr_max_magnitude, iter_depth_layers

__all__ = [
    "ResidualLayer",
    "ResidualSegment",
    "SimulationResult",
    "TemplatePlan",
    "build_template_plan",
    "numeric_lane",
    "simulate",
]

_FLOAT32_EXACT_LIMIT = 1 << 24
_FLOAT64_EXACT_LIMIT = 1 << 53
_INT64_SAFE_LIMIT = 1 << 62

#: The numeric lanes of the matrix backends, narrowest first, each with the
#: magnitude its integers stay exact below: the float mantissas hold every
#: integer under ``2**24`` and ``2**53``, and int64 keeps a guard band under
#: ``2**63``.
_LANES = (
    ("float32", _FLOAT32_EXACT_LIMIT),
    ("float64", _FLOAT64_EXACT_LIMIT),
    ("int64", _INT64_SAFE_LIMIT),
)


def numeric_lane(max_magnitude: int) -> str:
    """The narrowest lane exact for a plan of this worst-case magnitude.

    Every weight, threshold and node value is an integer, and every partial
    weighted sum is bounded by ``max_magnitude`` (the worst case of
    ``sum |w| + |t|``) whatever order it is added in; so a lane whose
    integers are exact below its limit evaluates the plan bit for bit.
    Returns ``"exact"`` when no machine lane is wide enough.
    """
    for name, limit in _LANES:
        if max_magnitude < limit:
            return name
    return "exact"


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

    ``levels`` holds one dependency level per segment: one more than the
    highest level among the nodes the segment reads, inputs being level 0
    (a residual run's reads of its own gates do not count).  Two segments
    of one level never read each other, so any order within a level is
    exact, and the stamps of one template in one level are independent.

    ``max_magnitude`` is the exact worst case, over all gates, of the
    magnitude of the weighted sum plus threshold.  It certifies the plan's
    :attr:`lane` for the *whole* circuit: every segment runs in one machine
    dtype, or (``int64_safe`` false) the plan only compiles for the exact
    backend.
    """

    n_inputs: int
    n_nodes: int
    outputs: List[int]
    max_magnitude: int
    covered_gates: int
    size: int
    segments: List[object] = field(default_factory=list)
    levels: List[int] = field(default_factory=list)

    def schedule(self) -> List[List[object]]:
        """The segments grouped for evaluation, level by level.

        Within a level, the blocks of one template form one group (in node
        order) and every residual run is a group of its own.  Evaluating
        the groups in this order is exact by the level rule.
        """
        groups: Dict[tuple, List[object]] = {}
        for index, (level, segment) in enumerate(zip(self.levels, self.segments)):
            if isinstance(segment, ResidualSegment):
                key: tuple = (level, "run", index)
            else:
                key = (level, "tpl", id(segment.template))
            groups.setdefault(key, []).append(segment)
        # A stable sort keeps node order within each level.
        return [groups[key] for key in sorted(groups, key=lambda key: key[0])]

    @property
    def lane(self) -> str:
        """The numeric lane the matrix backends run this plan in:
        ``"float32"``, ``"float64"``, ``"int64"`` or ``"exact"``
        (:func:`numeric_lane` of :attr:`max_magnitude`)."""
        return numeric_lane(self.max_magnitude)

    @property
    def int64_safe(self) -> bool:
        """True when some machine lane runs the plan exactly."""
        return self.lane != "exact"


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


def _accepted_blocks(circuit: ThresholdCircuit, min_cover: float) -> tuple:
    """The circuit's non-empty template blocks in node order, with the
    lowest and highest node each block reads (``-1`` for none) and its
    gate count — or four empty lists.

    Provenance is never trusted over the columnar store: the blocks are
    refused as a whole — and every gate becomes residual — when they cover
    less than ``min_cover`` of the gates, when a parameter row is
    ill-shaped or reads a node at or past its block, or when the blocks do
    not tile disjoint ranges of the gate index.
    """
    refused: tuple = ([], [], [], [])
    blocks = [block for block in circuit.template_blocks if block.k]
    if not blocks:
        return refused
    members: Dict[int, List[int]] = {}
    for index, block in enumerate(blocks):
        members.setdefault(id(block.template), []).append(index)
    bases = np.array([block.base for block in blocks], dtype=np.int64)
    lengths = np.empty(len(blocks), dtype=np.int64)  # gates per block
    lows = np.full(len(blocks), -1, dtype=np.int64)
    highs = np.full(len(blocks), -1, dtype=np.int64)
    for indices in members.values():
        compiled = blocks[indices[0]].template  # a CompiledTemplate
        if compiled is None or compiled.n_gates == 0:
            return refused
        params = [blocks[index].params for index in indices]
        if any(p.ndim != 2 or p.shape[1] != compiled.n_params for p in params):
            return refused
        ks = np.array([len(p) for p in params], dtype=np.int64)
        lengths[indices] = ks * compiled.n_gates
        if compiled.n_params:
            # The template's stacked parameter rows in one pass, each row
            # against the base of the block it came from.
            rows = np.concatenate(params)
            row_lows = rows.min(axis=1)
            row_highs = rows.max(axis=1)
            if row_lows.min() < 0 or (row_highs >= np.repeat(bases[indices], ks)).any():
                return refused
            starts = np.cumsum(ks) - ks
            lows[indices] = np.minimum.reduceat(row_lows, starts)
            highs[indices] = np.maximum.reduceat(row_highs, starts)
    if lengths.sum() < min_cover * circuit.size:
        return refused
    order = np.argsort(bases, kind="stable")
    firsts = bases[order] - circuit.n_inputs  # gate index (node id - n_inputs)
    ends = firsts + lengths[order]
    if firsts[0] < 0 or (firsts[1:] < ends[:-1]).any() or ends[-1] > circuit.size:
        return refused  # overlapping or out-of-range provenance
    return (
        [blocks[index] for index in order.tolist()],
        lows[order].tolist(),
        highs[order].tolist(),
        lengths[order].tolist(),
    )


def build_template_plan(
    circuit: ThresholdCircuit, min_cover: float = 0.0
) -> TemplatePlan:
    """Lower a circuit into template blocks plus residual runs.

    Gates outside the accepted template blocks (see :func:`_accepted_blocks`
    for when provenance is refused) become residual runs, so a circuit
    without provenance lowers to one residual segment holding every gate.
    """
    blocks, lows, highs, lengths = _accepted_blocks(circuit, min_cover)
    n_inputs = circuit.n_inputs
    size = circuit.size
    depths = circuit.gate_depths()
    cols = circuit.columnar()
    segments: List[object] = []
    levels: List[int] = []
    firsts: List[int] = []  # the first node id of every segment
    magnitudes = [0]
    # The level of every node written so far; inputs, and a residual run's
    # own gates while it is being read, stay 0.
    node_levels = np.zeros(circuit.n_nodes, dtype=np.int32)
    cursor = 0  # gate index (node id - n_inputs)

    def place(segment, level: int, stop: int) -> None:
        firsts.append(n_inputs + cursor)
        node_levels[n_inputs + cursor : n_inputs + stop] = level
        segments.append(segment)
        levels.append(level)

    def add_residual(stop: int) -> None:
        nonlocal cursor
        if stop > cursor:
            segment, magnitude = _residual_segment(circuit, cols, depths, cursor, stop)
            reads = cols.sources[cols.offsets[cursor] : cols.offsets[stop]]
            # Before the first segment every read is an input.
            level = 1 + int(node_levels[reads].max()) if levels and reads.size else 1
            place(segment, level, stop)
            magnitudes.append(magnitude)
            cursor = stop

    for block, low, high, length in zip(blocks, lows, highs, lengths):
        first = block.base - n_inputs
        add_residual(first)
        if high < n_inputs:  # reads inputs only, or nothing
            level = 1
        else:
            # When every read lies in the segment holding the highest one,
            # the block sits one level above it; otherwise gather.
            held = bisect_right(firsts, high) - 1
            if low >= firsts[held]:
                level = 1 + levels[held]
            else:
                level = 1 + int(node_levels[block.params].max())
        place(block, level, first + length)  # the validated block, as-is
        magnitudes.append(block.template.max_magnitude)
        cursor = first + length
    add_residual(size)
    max_magnitude = max(magnitudes)
    return TemplatePlan(
        n_inputs=n_inputs,
        n_nodes=circuit.n_nodes,
        outputs=list(circuit.outputs),
        max_magnitude=max_magnitude,
        covered_gates=sum(lengths),
        size=size,
        segments=segments,
        levels=levels,
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
        Array of shape ``(n_nodes, batch)`` with the 0/1 value of every
        node when the evaluation kept them (``keep_nodes=True``), else an
        empty ``(0, batch)`` int8 array.
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
    circuit: ThresholdCircuit, inputs: np.ndarray, engine=None, keep_nodes=False
) -> SimulationResult:
    """One-shot convenience wrapper, routed through the execution engine.

    Repeated calls on structurally identical circuits hit the engine's
    compile cache instead of recompiling; pass ``engine`` to use a private
    :class:`~repro.engine.Engine` instead of the process-wide default, and
    ``keep_nodes=True`` to read internal nodes from ``node_values``.
    """
    from repro.engine import default_engine

    eng = engine if engine is not None else default_engine()
    return eng.evaluate(circuit, inputs, keep_nodes=keep_nodes)

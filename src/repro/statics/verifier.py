"""Abstract-interpretation verifier for threshold circuits and plans.

The runtime's overflow analysis (:func:`~repro.circuits.store.csr_max_magnitude`)
is a *global worst case*: every source is assumed to contribute its full
weight magnitude.  The verifier runs a genuine abstract interpretation
instead — every node carries an abstract value in ``{0}``, ``{1}`` or
``{0, 1}`` and every gate's accumulator a signed interval derived from its
sources' abstract values — which is provably tighter (a negative weight can
never push the sum *up*; a constant-0 source contributes nothing) while
never disagreeing with the runtime's safety verdicts in the unsafe
direction.  On top of the intervals the verifier checks:

* **structure** — CSR well-formedness (offsets monotone and covering,
  sources strictly before their gate, recorded depths consistent with the
  wiring, declared outputs in range);
* **provenance** — every :class:`~repro.circuits.template.TemplateBlock`
  re-derives, wire for wire, from its
  :class:`~repro.circuits.template.CompiledTemplate` and parameter rows
  (deeper than :func:`~repro.circuits.simulator.build_template_plan`,
  which validates the tiling but trusts the wires);
* **reachability** — gates that cannot influence any declared output;
* **plans** — :func:`build_template_plan`, the one plan every backend
  compiles, must accept provenance the provenance pass verified, agree
  with the verifier on ``max_magnitude`` / ``int64_safe`` and on the
  numeric lane the matrix backends will run it in, and be
  well-formed (strictly increasing depths within each residual run, node
  and source ids in range, every gate planned exactly once, segments
  tiling the gate range, and every segment reading only inputs, its own
  gates or nodes of a strictly lower dependency level).

Everything is exact: interval arithmetic runs on int64 when the worst case
is certified to fit and on Python ints otherwise, so a huge-weight circuit
can never silently wrap the analysis that is supposed to catch wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import (
    _FLOAT32_EXACT_LIMIT,
    _FLOAT64_EXACT_LIMIT,
    _INT64_SAFE_LIMIT,
    ResidualLayer,
    ResidualSegment,
    TemplatePlan,
    _accepted_blocks,
    build_template_plan,
)
from repro.circuits.store import (
    Columns,
    csr_max_magnitude,
    depth_issue,
    iter_depth_layers,
    segment_sum,
    shared_sum_rows,
)

__all__ = [
    "GateIntervals",
    "StaticReport",
    "StaticVerificationError",
    "gate_intervals",
    "provenance_issues",
    "structure_issues",
    "unreachable_gates",
    "verify_circuit",
]

#: The simulator's whole-circuit int64-safety bound (re-exported so the
#: verifier and the runtime can never hold two different limits).
INT64_SAFE_LIMIT: int = _INT64_SAFE_LIMIT
#: Above this certified worst case the interval arithmetic leaves int64
#: for exact Python ints (same guard band as ``csr_max_magnitude``).
_INT64_ANALYSIS_LIMIT: int = 1 << 61
_SAMPLE_LIMIT = 8


class StaticVerificationError(ValueError):
    """A circuit or plan failed static verification."""


@dataclass
class StaticReport:
    """Outcome of :func:`verify_circuit`: issues, warnings and verdicts."""

    target: str = ""
    issues: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no issues were found (warnings do not fail a report)."""
        return not self.issues

    def raise_if_failed(self) -> None:
        """Raise :class:`StaticVerificationError` listing all issues."""
        if self.issues:
            raise StaticVerificationError(
                f"static verification failed for {self.target or 'circuit'}:\n"
                + "\n".join(self.issues)
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (plain Python scalars only)."""
        return {
            "target": self.target,
            "ok": self.ok,
            "issues": list(self.issues),
            "warnings": list(self.warnings),
            "info": dict(self.info),
        }


@dataclass
class GateIntervals:
    """Per-gate signed accumulator intervals from abstract interpretation.

    ``acc_lo[g] <= sum_j w_j * x_j <= acc_hi[g]`` holds for gate ``g`` on
    *every* 0/1 input assignment; ``val_lo``/``val_hi`` bound each node's
    value (a node with ``val_lo == val_hi`` is a constant).  Arrays are in
    gate insertion order (int64 on the fast path, exact object dtype when
    the worst case leaves the certified int64 range).
    """

    acc_lo: np.ndarray
    acc_hi: np.ndarray
    val_lo: np.ndarray
    val_hi: np.ndarray
    max_magnitude: int
    constant_gates: np.ndarray  # absolute node ids, ascending

    @property
    def int64_safe(self) -> bool:
        """The interval analogue of :attr:`TemplatePlan.int64_safe` (>= as tight)."""
        return self.max_magnitude < INT64_SAFE_LIMIT


def _sample(values: np.ndarray) -> List[int]:
    return [int(v) for v in values[:_SAMPLE_LIMIT].tolist()]


# --------------------------------------------------------------------------
# Structure: CSR well-formedness, depth consistency, outputs.
# --------------------------------------------------------------------------


def structure_issues(circuit: ThresholdCircuit) -> List[str]:
    """Vectorized well-formedness check of a circuit's columnar store."""
    issues: List[str] = []
    cols = circuit.columnar()
    n_inputs = circuit.n_inputs
    n_gates = cols.n_gates

    offsets = cols.offsets
    if len(offsets) != n_gates + 1 or (n_gates >= 0 and int(offsets[0]) != 0):
        issues.append(
            f"offsets array has {len(offsets)} entries for {n_gates} gates "
            "(expected n_gates + 1 starting at 0)"
        )
        return issues
    fan_ins = np.diff(offsets)
    if fan_ins.size and int(fan_ins.min()) < 0:
        issues.append("offsets are not non-decreasing")
        return issues
    if int(offsets[-1]) != cols.n_edges:
        issues.append(
            f"offsets cover {int(offsets[-1])} wires but the store holds "
            f"{cols.n_edges}"
        )
        return issues
    if len(cols.thresholds) != n_gates:
        issues.append(
            f"{len(cols.thresholds)} thresholds for {n_gates} gates"
        )
        return issues
    if len(cols.weights) != cols.n_edges:
        issues.append(f"{len(cols.weights)} weights for {cols.n_edges} wires")
        return issues

    sources = cols.sources
    if sources.size:
        if int(sources.min()) < 0:
            issues.append("a gate references a negative node id")
            return issues
        own_node = n_inputs + np.repeat(
            np.arange(n_gates, dtype=np.int64), fan_ins
        )
        dangling = sources >= own_node
        if bool(dangling.any()):
            wire = int(np.argmax(dangling))
            issues.append(
                f"gate {int(own_node[wire])} references node "
                f"{int(sources[wire])}, which is not an earlier node"
            )
            return issues

    if n_gates:
        issue = depth_issue(n_inputs, sources, offsets, circuit.gate_depths())
        if issue is not None:
            issues.append(issue)

    n_nodes = n_inputs + n_gates
    for out in circuit.outputs:
        if not (0 <= int(out) < n_nodes):
            issues.append(f"declared output node {int(out)} does not exist")
    return issues


# --------------------------------------------------------------------------
# Abstract interpretation: per-gate signed accumulator intervals.
# --------------------------------------------------------------------------


def gate_intervals(circuit: ThresholdCircuit) -> GateIntervals:
    """Run the interval analysis (the circuit must be structurally valid).

    Each node's value is abstracted to a ``[lo, hi]`` sub-interval of
    ``[0, 1]``; a gate's accumulator interval follows from its sources'
    abstract values and the weight signs, and its own abstract value from
    comparing the interval against the threshold — so constants propagate
    (an always-below-threshold gate contributes exactly 0 downstream) and
    the resulting magnitude bound is at most, and usually below, the
    ``sum |w| + |threshold|`` worst case of ``csr_max_magnitude``.
    """
    cols = circuit.columnar()
    n_inputs = circuit.n_inputs
    n_gates = cols.n_gates
    n_nodes = n_inputs + n_gates

    worst = csr_max_magnitude(
        cols.weights, cols.offsets, cols.thresholds, cols.int64_ok
    )
    fast = cols.int64_ok and worst < _INT64_ANALYSIS_LIMIT
    if fast:
        weights = cols.weights
        thresholds = cols.thresholds
        acc_dtype: Any = np.int64
    else:
        # Exact lane: every operand becomes a Python int so the analysis
        # itself can never wrap, whatever the weights.
        weights = cols.weights.astype(object)
        thresholds = cols.thresholds.astype(object)
        acc_dtype = object

    val_lo = np.zeros(n_nodes, dtype=np.int8)
    val_hi = np.zeros(n_nodes, dtype=np.int8)
    val_hi[:n_inputs] = 1
    acc_lo = np.zeros(n_gates, dtype=acc_dtype)
    acc_hi = np.zeros(n_gates, dtype=acc_dtype)
    max_magnitude = 0
    constant_chunks: List[np.ndarray] = []

    if n_gates:
        depths = circuit.gate_depths()
        for _depth, gate_idx, wire_idx, layer_fan in iter_depth_layers(
            depths, cols.offsets
        ):
            w = weights[wire_idx]
            src = cols.sources[wire_idx]
            if fast:
                src_lo = val_lo[src].astype(np.int64)
                src_hi = val_hi[src].astype(np.int64)
            else:
                src_lo = val_lo[src].astype(object)
                src_hi = val_hi[src].astype(object)
            positive = w >= 0
            # A weight's smallest contribution pairs it with the source
            # bound of the opposite sign direction; 0/1 abstract values
            # make this exact, not just sound.
            contrib_lo = np.where(positive, w * src_lo, w * src_hi)
            contrib_hi = np.where(positive, w * src_hi, w * src_lo)
            layer_offsets = np.zeros(len(gate_idx) + 1, dtype=np.int64)
            np.cumsum(layer_fan, out=layer_offsets[1:])
            lo = segment_sum(contrib_lo, layer_offsets)
            hi = segment_sum(contrib_hi, layer_offsets)
            thr = thresholds[gate_idx]
            fires_lo = lo >= thr  # fires even on the minimal sum -> constant 1
            fires_hi = hi >= thr  # cannot fire on the maximal sum -> constant 0
            val_lo[n_inputs + gate_idx] = fires_lo
            val_hi[n_inputs + gate_idx] = fires_hi
            acc_lo[gate_idx] = lo
            acc_hi[gate_idx] = hi
            if len(gate_idx):
                magnitude = np.maximum(
                    np.maximum(np.abs(lo), np.abs(hi)), np.abs(thr)
                )
                layer_max = int(magnitude.max())
                if layer_max > max_magnitude:
                    max_magnitude = layer_max
                constant = gate_idx[np.asarray(fires_lo == fires_hi)]
                if constant.size:
                    constant_chunks.append(constant + n_inputs)

    constant_gates = (
        np.sort(np.concatenate(constant_chunks))
        if constant_chunks
        else np.empty(0, dtype=np.int64)
    )
    return GateIntervals(
        acc_lo=acc_lo,
        acc_hi=acc_hi,
        val_lo=val_lo,
        val_hi=val_hi,
        max_magnitude=int(max_magnitude),
        constant_gates=constant_gates,
    )


# --------------------------------------------------------------------------
# Reachability: gates that cannot influence any declared output.
# --------------------------------------------------------------------------


def unreachable_gates(circuit: ThresholdCircuit) -> np.ndarray:
    """Node ids of gates with no path to any declared output.

    Runs one backward sweep over the depth layers in decreasing order —
    a gate's consumers always sit at strictly greater depth, so each
    layer's liveness is final by the time it is visited.  Returns an empty
    array when the circuit declares no outputs (then nothing is "dead",
    the notion just does not apply).
    """
    cols = circuit.columnar()
    n_inputs = circuit.n_inputs
    n_gates = cols.n_gates
    if n_gates == 0 or not circuit.outputs:
        return np.empty(0, dtype=np.int64)
    reachable = np.zeros(n_inputs + n_gates, dtype=bool)
    reachable[np.asarray(circuit.outputs, dtype=np.int64)] = True
    layers = list(iter_depth_layers(circuit.gate_depths(), cols.offsets))
    for _depth, gate_idx, wire_idx, layer_fan in reversed(layers):
        live = reachable[n_inputs + gate_idx]
        if not bool(live.any()):
            continue
        live_wires = np.repeat(live, layer_fan)
        reachable[cols.sources[wire_idx[live_wires]]] = True
    return np.nonzero(~reachable[n_inputs:])[0] + n_inputs


# --------------------------------------------------------------------------
# Provenance: every template block re-derives from its compiled template.
# --------------------------------------------------------------------------


#: Wires one stacked provenance comparison covers at most, so a template
#: with many stamps is checked in bounded memory.
_PROVENANCE_WIRES = 1 << 20


def _placement_issue(
    block: Any, cursor: int, n_inputs: int, size: int
) -> Tuple[Optional[str], int]:
    """One block's template, parameter-row and tiling checks.

    Returns the issue (or None) and the tiling cursor after the block; a
    block that fails leaves the cursor where it was.
    """
    label = f"template block at node {int(block.base)}"
    template = block.template
    if template is None or template.n_gates == 0:
        return f"{label}: no compiled template attached", cursor
    params = np.asarray(block.params)
    if params.ndim != 2 or params.shape[1] != template.n_params:
        return (
            f"{label}: parameter rows have shape {params.shape}, "
            f"expected (k, {template.n_params})"
        ), cursor
    if params.size and (int(params.min()) < 0 or int(params.max()) >= block.base):
        return (
            f"{label}: parameter node ids must lie in [0, {int(block.base)})"
        ), cursor
    first = int(block.base) - n_inputs
    length = block.k * template.n_gates
    if first < cursor:
        return f"{label}: overlaps the preceding block", cursor
    if first < 0 or first + length > size:
        return f"{label}: extends outside the gate range", cursor
    return None, first + length


def _content_issue(block: Any, cols: Columns, n_inputs: int) -> Optional[str]:
    """A placed block's gates against its template, wire for wire."""
    label = f"template block at node {int(block.base)}"
    template = block.template
    params = np.asarray(block.params)
    first = int(block.base) - n_inputs
    length = block.k * template.n_gates
    fan = np.diff(template.offsets)
    actual_fan = np.diff(cols.offsets[first : first + length + 1])
    if not np.array_equal(actual_fan, np.tile(fan, block.k)):
        return f"{label}: stamped fan-ins do not match the template"
    if not np.array_equal(
        cols.thresholds[first : first + length],
        np.tile(template.thresholds, block.k),
    ):
        return f"{label}: stamped thresholds do not match the template"
    lo = int(cols.offsets[first])
    hi = int(cols.offsets[first + length])
    if not np.array_equal(cols.weights[lo:hi], np.tile(template.weights, block.k)):
        return f"{label}: stamped weights do not match the template"
    # Source re-derivation: exactly the stamper's translation — local
    # parameter slots read the copy's parameter row, local gate ids shift
    # by base + copy * n_gates.
    shift = np.arange(block.k, dtype=np.int64)[:, None] * template.n_gates
    internal = (
        (int(block.base) - template.n_params) + template.sources[None, :] + shift
    )
    if template.n_params:
        is_param = template.sources < template.n_params
        slots = np.where(is_param, template.sources, 0)
        expected = np.where(is_param[None, :], params[:, slots], internal)
    else:
        expected = internal
    actual = cols.sources[lo:hi]
    if not np.array_equal(actual, expected.reshape(-1)):
        mismatch = np.nonzero(actual != expected.reshape(-1))[0]
        return (
            f"{label}: stamped sources diverge from the template "
            f"re-derivation (first at wire {int(mismatch[0])} of the "
            f"block, {mismatch.size} wire(s) total)"
        )
    return None


def _template_content_ok(
    template: Any, blocks: List[Any], cols: Columns, n_inputs: int
) -> bool:
    """True when every placed block of one template passes
    :func:`_content_issue`, checked over its stacked stamps (at most
    ``_PROVENANCE_WIRES`` wires at a time), one row per stamp."""
    n_gates = template.n_gates
    n_wires = len(template.sources)
    ks = np.array([block.k for block in blocks], dtype=np.int64)
    bases = np.array([int(block.base) for block in blocks], dtype=np.int64)
    # The first node id of every stamp, stamp-major across the blocks.
    stamp_nodes = np.repeat(bases - (np.cumsum(ks) - ks) * n_gates, ks) + (
        np.arange(int(ks.sum()), dtype=np.int64) * n_gates
    )
    params = np.concatenate([np.asarray(block.params) for block in blocks])
    fan = np.diff(template.offsets)
    is_param = template.sources < template.n_params
    slots = np.where(is_param, template.sources, 0)
    step = max(1, _PROVENANCE_WIRES // max(n_wires, n_gates))
    for lo in range(0, len(stamp_nodes), step):
        nodes = stamp_nodes[lo : lo + step]
        gates = (nodes - n_inputs)[:, None] + np.arange(n_gates, dtype=np.int64)
        if not (cols.offsets[gates + 1] - cols.offsets[gates] == fan).all():
            return False
        if not (cols.thresholds[gates] == template.thresholds).all():
            return False
        # Fan-ins match, so each stamp's wires are one run from its first gate.
        wires = cols.offsets[gates[:, 0]][:, None] + np.arange(n_wires, dtype=np.int64)
        if not (cols.weights[wires] == template.weights).all():
            return False
        # The stamper's translation, as in _content_issue.
        expected = (nodes - template.n_params)[:, None] + template.sources
        if template.n_params:
            expected = np.where(is_param, params[lo : lo + step][:, slots], expected)
        if not (cols.sources[wires] == expected).all():
            return False
    return True


def provenance_issues(circuit: ThresholdCircuit) -> List[str]:
    """Check recorded template provenance against the columnar store.

    For every :class:`TemplateBlock` the stamped gates are re-derived from
    the compiled template (fan-ins, weights, thresholds tiled ``k`` times;
    sources re-mapped through the parameter rows exactly as the stamper
    maps them) and compared wire for wire against the store — plus the
    tiling rules ``build_template_plan`` enforces (sorted, non-overlapping,
    in-range blocks whose parameters precede them).  An empty list means
    the provenance is faithful; gaps between blocks are legitimate
    (residual gates emitted outside any stamp).

    The checks run one template at a time over its stacked blocks; only a
    template that fails is rechecked block by block, so each issue names
    the first offending block of its kind, in base order.
    """
    blocks = [
        block
        for block in getattr(circuit, "template_blocks", [])
        if getattr(block, "k", 0)
    ]
    if not blocks:
        return []
    cols = circuit.columnar()
    n_inputs = circuit.n_inputs
    # The plan builder accepts the blocks exactly when every one passes
    # the placement checks; otherwise the whole pass runs block by block.
    ordered = _accepted_blocks(circuit, 0.0)[0]
    if not ordered:
        issues: List[str] = []
        cursor = 0
        for block in sorted(blocks, key=lambda b: b.base):
            issue, cursor = _placement_issue(block, cursor, n_inputs, cols.n_gates)
            if issue is None:
                issue = _content_issue(block, cols, n_inputs)
            if issue is not None:
                issues.append(issue)
        return issues
    members: Dict[int, List[int]] = {}
    for position, block in enumerate(ordered):
        members.setdefault(id(block.template), []).append(position)
    found: Dict[int, str] = {}
    for positions in members.values():
        group = [ordered[p] for p in positions]
        if _template_content_ok(group[0].template, group, cols, n_inputs):
            continue
        for position, block in zip(positions, group):
            issue = _content_issue(block, cols, n_inputs)
            if issue is not None:
                found[position] = issue
    return [found[position] for position in sorted(found)]


def _covered_gates(circuit: ThresholdCircuit) -> int:
    total = 0
    for block in getattr(circuit, "template_blocks", []):
        template = getattr(block, "template", None)
        if template is not None:
            total += int(getattr(block, "k", 0)) * int(template.n_gates)
    return total


# --------------------------------------------------------------------------
# Plan checks: the one compiled form is well-formed.
# --------------------------------------------------------------------------


def _residual_layer_issues(
    plan: TemplatePlan, layer: ResidualLayer, label: str
) -> List[str]:
    issues: List[str] = []
    nodes = np.asarray(layer.nodes, dtype=np.int64)
    if nodes.size and (
        int(nodes.min()) < plan.n_inputs or int(nodes.max()) >= plan.n_nodes
    ):
        issues.append(
            f"{label}: depth {layer.depth} layer holds node ids outside "
            f"[{plan.n_inputs}, {plan.n_nodes})"
        )
    cols_arr = np.asarray(layer.cols, dtype=np.int64)
    if cols_arr.size and (
        int(cols_arr.min()) < 0 or int(cols_arr.max()) >= plan.n_nodes
    ):
        issues.append(
            f"{label}: depth {layer.depth} layer reads sources outside "
            f"[0, {plan.n_nodes})"
        )
    offsets = np.asarray(layer.offsets, dtype=np.int64)
    if (
        len(offsets) != len(nodes) + 1
        or int(offsets[0]) != 0
        or int(offsets[-1]) != len(cols_arr)
        or bool(np.any(np.diff(offsets) < 0))
    ):
        issues.append(
            f"{label}: depth {layer.depth} layer offsets do not partition "
            "its wires among its gates"
        )
    return issues


def _plan_issues(plan: TemplatePlan) -> List[str]:
    issues: List[str] = []
    cursor = 0  # the gate index the next segment must start at
    for segment in plan.segments:
        if not isinstance(segment, ResidualSegment):  # a TemplateBlock
            first = int(segment.base) - plan.n_inputs
            if first != cursor:
                issues.append(
                    f"plan: block at node {int(segment.base)} does not start "
                    f"at the tiling cursor (gate {cursor})"
                )
            cursor = first + segment.k * segment.template.n_gates
            continue
        label = f"plan: residual segment at gate {cursor}"
        last_depth = 0
        planned: List[np.ndarray] = []
        for layer in segment.layers:
            if layer.depth <= last_depth:
                issues.append(
                    f"{label}: depth {layer.depth} layer does not strictly "
                    f"increase over {last_depth}"
                )
            last_depth = layer.depth
            planned.append(np.asarray(layer.nodes, dtype=np.int64))
            issues.extend(_residual_layer_issues(plan, layer, label))
        nodes = np.sort(np.concatenate(planned)) if planned else np.empty(0, np.int64)
        expected = plan.n_inputs + cursor + np.arange(len(nodes), dtype=np.int64)
        if not np.array_equal(nodes, expected):
            issues.append(
                f"{label} does not schedule each gate of its gap exactly once"
            )
        cursor += len(nodes)
    if cursor != plan.size:
        issues.append(f"plan segments cover {cursor} gates, circuit has {plan.size}")
    issues.extend(_level_issues(plan))
    return issues


def _segment_nodes(segment: Any) -> np.ndarray:
    """The node ids a plan segment writes."""
    if isinstance(segment, ResidualSegment):
        chunks = [np.asarray(layer.nodes, dtype=np.int64) for layer in segment.layers]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    base = int(segment.base)
    return np.arange(base, base + segment.k * segment.template.n_gates, dtype=np.int64)


def _segment_reads(segment: Any) -> np.ndarray:
    """The node ids a plan segment reads (a residual run's own gates too)."""
    if isinstance(segment, ResidualSegment):
        chunks = [np.asarray(layer.cols, dtype=np.int64) for layer in segment.layers]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return np.asarray(segment.params, dtype=np.int64).reshape(-1)


def _level_issues(plan: TemplatePlan) -> List[str]:
    """The schedule's levels make level-by-level evaluation exact: every
    node a segment reads is an input, one of its own gates (a residual
    run), or written by a segment of a strictly lower level."""
    levels = list(plan.levels)
    if len(levels) != len(plan.segments):
        return [
            f"plan: {len(levels)} levels for {len(plan.segments)} segments"
        ]
    n_nodes = plan.n_nodes
    owner = np.full(n_nodes, -1, dtype=np.int64)  # inputs have no owner
    node_level = np.zeros(n_nodes, dtype=np.int64)
    for index, (level, segment) in enumerate(zip(levels, plan.segments)):
        nodes = _segment_nodes(segment)
        nodes = nodes[(nodes >= plan.n_inputs) & (nodes < n_nodes)]
        owner[nodes] = index
        node_level[nodes] = level
    issues: List[str] = []
    for index, (level, segment) in enumerate(zip(levels, plan.segments)):
        reads = _segment_reads(segment)
        reads = reads[(reads >= plan.n_inputs) & (reads < n_nodes)]
        late = reads[(owner[reads] != index) & (node_level[reads] >= level)]
        if late.size:
            node = int(late[0])
            issues.append(
                f"plan: segment {index} at level {level} reads node {node}, "
                f"written at level {int(node_level[node])}"
            )
    return issues


# --------------------------------------------------------------------------
# The top-level entry point.
# --------------------------------------------------------------------------


def _plan_sums(plan: TemplatePlan) -> int:
    """The weighted sums one run of the plan computes per input column.

    Every layer computes one sum per distinct row under the matrix
    backends' shared-sum rule (:func:`~repro.circuits.store.shared_sum_rows`),
    a template layer once per stamp.  The rule reads the rows alone, so a
    circuit with and without its provenance counts the same.
    """
    per_stamp: Dict[int, int] = {}
    total = 0
    for segment in plan.segments:
        if isinstance(segment, ResidualSegment):
            total += sum(
                len(shared_sum_rows(layer.offsets, layer.cols, layer.data)[0])
                for layer in segment.layers
            )
            continue
        template = segment.template
        if id(template) not in per_stamp:
            per_stamp[id(template)] = sum(
                len(
                    shared_sum_rows(
                        np.searchsorted(rows, np.arange(len(lgates) + 1)), cols, data
                    )[0]
                )
                for lgates, rows, cols, data, _thresholds in template.layers
            )
        total += segment.k * per_stamp[id(template)]
    return total


def _certified_lane(info: Dict[str, Any]) -> str:
    """The narrowest numeric lane the verifier's exactness verdicts allow."""
    if info["float32_exact"]:
        return "float32"
    if info["float64_exact"]:
        return "float64"
    return "int64" if info["int64_safe"] else "exact"


def verify_circuit(
    circuit: ThresholdCircuit,
    *,
    intervals: bool = True,
    provenance: bool = True,
    reachability: bool = True,
    plans: bool = True,
    target: str = "",
) -> StaticReport:
    """Statically verify a circuit; returns a :class:`StaticReport`.

    The structure pass always runs; ``intervals``, ``provenance``,
    ``reachability`` and ``plans`` toggle the deeper passes (the serialize
    path runs structure + provenance only, the CLI and the engine debug
    gate run everything).  The deeper passes are skipped when structure
    fails — their math assumes a well-formed store.
    """
    report = StaticReport(target=target or circuit.name or "<circuit>")
    cols: Columns = circuit.columnar()
    report.info["n_inputs"] = int(circuit.n_inputs)
    report.info["n_gates"] = int(cols.n_gates)
    report.info["n_edges"] = int(cols.n_edges)
    report.info["n_outputs"] = len(circuit.outputs)

    report.issues.extend(structure_issues(circuit))

    worst = csr_max_magnitude(
        cols.weights, cols.offsets, cols.thresholds, cols.int64_ok
    )
    report.info["max_magnitude"] = int(worst)
    report.info["int64_safe"] = bool(worst < INT64_SAFE_LIMIT)
    report.info["float64_exact"] = bool(worst < _FLOAT64_EXACT_LIMIT)
    report.info["float32_exact"] = bool(worst < _FLOAT32_EXACT_LIMIT)
    report.info["lane"] = _certified_lane(report.info)

    if provenance:
        blocks = [
            block
            for block in getattr(circuit, "template_blocks", [])
            if getattr(block, "k", 0)
        ]
        report.info["template_blocks"] = len(blocks)
        report.info["covered_gates"] = _covered_gates(circuit)
        prov_issues = provenance_issues(circuit)
        report.issues.extend(prov_issues)
    else:
        blocks = []
        prov_issues = []

    if not report.ok:
        return report

    interval_summary: Optional[GateIntervals] = None
    if intervals:
        interval_summary = gate_intervals(circuit)
        report.info["interval_max_magnitude"] = interval_summary.max_magnitude
        report.info["interval_int64_safe"] = interval_summary.int64_safe
        report.info["constant_gates"] = int(len(interval_summary.constant_gates))
        if interval_summary.constant_gates.size:
            report.warnings.append(
                f"{len(interval_summary.constant_gates)} gate(s) are constant "
                f"on every input (e.g. nodes "
                f"{_sample(interval_summary.constant_gates)})"
            )
        if interval_summary.max_magnitude > worst:
            report.issues.append(
                "interval analysis exceeded the worst-case magnitude bound "
                f"({interval_summary.max_magnitude} > {worst}) — analyzer bug"
            )

    if reachability:
        if circuit.outputs:
            dead = unreachable_gates(circuit)
            report.info["unreachable_gates"] = int(len(dead))
            if dead.size:
                report.warnings.append(
                    f"{len(dead)} gate(s) cannot reach any declared output "
                    f"(e.g. nodes {_sample(dead)})"
                )
        else:
            report.info["unreachable_gates"] = 0
            report.warnings.append(
                "circuit declares no outputs; reachability not checked"
            )

    if plans:
        plan = build_template_plan(circuit)
        if plan.max_magnitude != worst:
            report.issues.append(
                f"build_template_plan reports max_magnitude {plan.max_magnitude}, "
                f"verifier derived {worst}"
            )
        # The lane subsumes int64_safe (the plan is int64-safe exactly
        # when its lane is not "exact").
        if plan.lane != report.info["lane"]:
            report.issues.append(
                f"build_template_plan picks the {plan.lane} lane, the "
                f"verifier's magnitude bound {worst} certifies "
                f"{report.info['lane']}"
            )
        if interval_summary is not None and (
            interval_summary.max_magnitude > plan.max_magnitude
        ):
            report.issues.append(
                "interval bound exceeds the plan's worst case — analyzer bug"
            )
        refused = plan.covered_gates != report.info.get("covered_gates", 0)
        if blocks and not prov_issues and refused:
            report.issues.append(
                "provenance verified but build_template_plan refused the "
                "factorization"
            )
        report.info["plan_levels"] = max(plan.levels, default=0)
        report.info["plan_groups"] = len(plan.schedule())
        report.info["plan_sums"] = _plan_sums(plan)
        report.issues.extend(_plan_issues(plan))

    return report

"""Pluggable evaluation backends for the execution engine.

Every backend compiles the one plan form,
:class:`~repro.circuits.simulator.TemplatePlan` (template blocks plus
residual runs), into a *compiled program*: a picklable object holding only
arrays and ints (so the batch scheduler can ship it to worker processes)
that maps a 0/1 input block to the 0/1 values of every node.  A template
block evaluates all of its stamped copies with one matrix product per
template layer; a residual run evaluates with one matrix product per depth
layer.  Three backends cover the practical space:

``sparse``
    CSR matrices: template layers over the template's local slots, residual
    layers over the node columns.  Wins on large circuits, where the wire
    structure is genuinely sparse and CSR keeps the arithmetic to the
    realized wires.
``dense``
    Dense numpy matrices: template layers over the local slots, residual
    layers over the layer's source rows (a view of their id range, or the
    distinct rows gathered, then GEMM).
    float64 (BLAS GEMM, still bit-exact) while every worst-case sum stays
    below ``2**53``, int64 otherwise.  For small or shallow circuits the
    per-call overhead of CSR (index juggling, format dispatch) dominates
    the flops; a dense GEMM over a few hundred rows is much faster.
``exact``
    Arbitrary-precision object-dtype evaluation, vectorized over the batch
    (and over every stamp of a template) but looping over gates.  The only
    backend that is correct when a gate's worst-case weighted sum overflows
    int64; always exact, never fast.

Selection is automatic per circuit (:func:`select_backend_name`) driven by
the circuit's :class:`~repro.circuits.circuit.CircuitStats` and the plan's
overflow verdict, or forced through the engine config.
"""

from __future__ import annotations

import time
from typing import Dict, List, Protocol, runtime_checkable

import numpy as np
from scipy import sparse

from repro.circuits.circuit import CircuitStats
from repro.circuits.simulator import ResidualLayer, TemplatePlan
from repro.circuits.template import TemplateBlock
from repro.engine.config import EngineConfig
from repro.obs import get_registry

__all__ = [
    "Backend",
    "BackendError",
    "CompiledProgram",
    "DenseBackend",
    "ExactBackend",
    "SparseBackend",
    "backend_registry",
    "get_backend",
    "select_backend_name",
]


class BackendError(ValueError):
    """Raised when a circuit cannot be compiled for the requested backend."""


@runtime_checkable
class CompiledProgram(Protocol):
    """A circuit lowered to one backend's storage format.

    Programs are self-contained (no reference back to the circuit object) so
    they can be pickled into worker processes by the batch scheduler.
    """

    backend_name: str
    n_inputs: int
    n_nodes: int
    outputs: List[int]

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Map a ``(n_inputs, batch)`` 0/1 block to ``(n_nodes, batch)`` int8."""
        ...


@runtime_checkable
class Backend(Protocol):
    """A compiler from plans to :class:`CompiledProgram` objects."""

    name: str

    def compile(self, plan: TemplatePlan) -> CompiledProgram:
        ...


def _require_safe(plan: TemplatePlan, backend: str) -> None:
    if not plan.int64_safe:
        raise BackendError(
            f"circuit overflows int64; the {backend!r} backend would be inexact "
            "(use backend='exact' or 'auto')"
        )


def _stamp_locals(values: np.ndarray, payload: tuple, dtype) -> np.ndarray:
    """The local value matrix of one template block, parameter rows filled.

    Shape ``(n_params + n_gates, k * batch)``: column ``i * batch + b`` is
    copy ``i``'s batch column ``b``.
    """
    _base, k, params, n_params, n_gates, _layers = payload
    batch = values.shape[1]
    local = np.zeros((n_params + n_gates, k * batch), dtype=dtype)
    if n_params:
        # params.T is (n_params, k); the gather yields (n_params, k, batch),
        # flattened stamp-major.
        local[:n_params] = values[params.T].reshape(n_params, k * batch)
    return local


def _scatter_block(values: np.ndarray, local: np.ndarray, payload: tuple) -> None:
    """Write a block's gate rows back (copy i's gate j is node base + i*n_gates + j)."""
    base, k, _params, n_params, n_gates, _layers = payload
    batch = values.shape[1]
    values[base : base + k * n_gates] = (
        local[n_params:]
        .reshape(n_gates, k, batch)
        .transpose(1, 0, 2)
        .reshape(k * n_gates, batch)
    )


#: Source rows a dense residual product gathers at a time, so no layer
#: materializes a ``(wires, batch)`` block however wide its fan-in.
_GATHER_ROWS = 2048


def _layer_sums(values: np.ndarray, terms: list) -> np.ndarray:
    """The weighted sums of one layer: ``matrix @ values[sources]`` summed
    over its terms (``sources`` a row slice or index array; None reads all)."""
    sums = None
    for sources, matrix in terms:
        part = matrix @ (values if sources is None else values[sources])
        if sums is None:
            sums = part
        else:
            sums += part
    return sums


class _SegmentProgram:
    """Run loop shared by the sparse and dense backends.

    Segments are evaluated in node-id order (a topological order).  A
    ``"tpl"`` segment keeps one local value matrix for its block: parameter
    rows are gathered from the node values, the template's layer matrices
    run on all ``k`` stamps at once, and the gate rows scatter back into the
    block's node-id range.  A ``"res"`` segment runs one product per depth
    layer: a CSR matrix over every node column (sparse), or a dense matrix
    over the layer's source rows (dense) — a view of their id range when
    they fill at least half of it, else the distinct rows gathered at most
    ``_GATHER_ROWS`` at a time.
    ``values_dtype`` is the dtype of the node-value buffer: int64, or
    float64 for the BLAS-backed dense path (exact while every weighted sum
    stays below ``2**53``; values are 0.0/1.0 and sums are integral floats).
    """

    def __init__(
        self,
        backend_name: str,
        n_inputs: int,
        n_nodes: int,
        outputs: List[int],
        segments: List[tuple],
        values_dtype=np.int64,
    ) -> None:
        self.backend_name = backend_name
        self.n_inputs = n_inputs
        self.n_nodes = n_nodes
        self.outputs = outputs
        self.segments = segments
        self.values_dtype = values_dtype

    def run(self, inputs: np.ndarray) -> np.ndarray:
        node_values = np.zeros(
            (self.n_nodes, inputs.shape[1]), dtype=self.values_dtype
        )
        node_values[: self.n_inputs, :] = inputs
        registry = get_registry()
        # Debug-mode telemetry only: per-layer GEMM timings.  Kept off the
        # default path — a span per layer would dominate tiny layers.
        gemm = (
            registry.histogram("backend.layer_gemm_s", backend=self.backend_name)
            if registry.debug
            else None
        )
        for kind, payload in self.segments:
            if kind == "tpl":
                values = _stamp_locals(node_values, payload, self.values_dtype)
                layers = payload[5]
            else:
                values, layers = node_values, payload
            for rows, terms, thresholds in layers:
                start = time.perf_counter() if gemm is not None else 0.0
                values[rows] = _layer_sums(values, terms) >= thresholds[:, None]
                if gemm is not None:
                    gemm.observe(time.perf_counter() - start)
            if kind == "tpl":
                _scatter_block(node_values, values, payload)
        return node_values.astype(np.int8)


def _weight_matrix(n_rows, n_cols, rows, cols, data, dense: bool, dtype):
    """An exact ``(n_rows, n_cols)`` weight matrix from COO triples.

    (row, col) pairs are unique: every emission path merges duplicate
    sources during canonicalization.
    """
    data = np.asarray(data, dtype=np.int64)
    if not dense:
        return sparse.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
    matrix = np.zeros((n_rows, n_cols), dtype=dtype)
    if len(data):
        matrix[rows, cols] = data
    return matrix


def _template_layers(template, dense: bool, dtype) -> list:
    """Per-relative-depth layers of one compiled template.

    Each matrix has shape ``(layer gates, n_params + n_gates)`` — columns
    are the template's *local* slots, so one matrix serves every stamped
    copy.
    """
    layers = []
    for lgates, rows, cols, data, thresholds in template.layers:
        matrix = _weight_matrix(
            len(lgates), template.n_locals, rows, cols, data, dense, dtype
        )
        layers.append(
            (
                template.n_params + lgates,  # local rows to write
                [(None, matrix)],
                np.asarray(thresholds, dtype=np.int64).astype(dtype),
            )
        )
    return layers


def _residual_layer(
    layer: ResidualLayer, n_nodes: int, dense: bool, dtype
) -> tuple:
    """One residual depth layer as ``(nodes, terms, thresholds)``."""
    n_gates = len(layer.nodes)
    thresholds = np.asarray(layer.thresholds, dtype=np.int64).astype(dtype)
    if not dense:
        data = np.asarray(layer.data, dtype=np.int64)
        matrix = sparse.csr_matrix(
            (data, layer.cols, layer.offsets), shape=(n_gates, n_nodes)
        )
        return layer.nodes, [(None, matrix)], thresholds
    sources, columns = np.unique(layer.cols, return_inverse=True)
    rows = np.repeat(np.arange(n_gates, dtype=np.int64), np.diff(layer.offsets))
    start = int(sources[0]) if len(sources) else 0
    span = int(sources[-1]) + 1 - start if len(sources) else 0
    if span <= 2 * len(sources):
        # The sources fill at least half of their id range: multiply a view
        # of that range instead of gathering a copy.
        matrix = _weight_matrix(
            n_gates, span, rows, layer.cols - start, layer.data, True, dtype
        )
        return layer.nodes, [(slice(start, start + span), matrix)], thresholds
    matrix = _weight_matrix(
        n_gates, len(sources), rows, columns, layer.data, True, dtype
    )
    terms = [
        (
            sources[lo : lo + _GATHER_ROWS],
            np.ascontiguousarray(matrix[:, lo : lo + _GATHER_ROWS]),
        )
        for lo in range(0, max(len(sources), 1), _GATHER_ROWS)
    ]
    return layer.nodes, terms, thresholds


def _lower_segments(plan: TemplatePlan, lower_template, lower_residual) -> list:
    """The program segments of a plan, in node-id order.

    A template block becomes ``("tpl", (base, k, params, n_params, n_gates,
    lowered template))`` — ``lower_template`` runs once per distinct template
    (the plan shares ``CompiledTemplate`` objects across that template's
    blocks) — and a residual run ``("res", lower_residual(segment))``.
    """
    shared: Dict[int, object] = {}
    segments: List[tuple] = []
    for segment in plan.segments:
        if isinstance(segment, TemplateBlock):
            template = segment.template
            if id(template) not in shared:
                shared[id(template)] = lower_template(template)
            segments.append(
                (
                    "tpl",
                    (
                        segment.base,
                        segment.k,
                        segment.params,
                        template.n_params,
                        template.n_gates,
                        shared[id(template)],
                    ),
                )
            )
        else:
            segments.append(("res", lower_residual(segment)))
    return segments


def _compile_matrix(
    plan: TemplatePlan, backend_name: str, dense: bool
) -> _SegmentProgram:
    _require_safe(plan, backend_name)
    dtype = np.float64 if (dense and plan.float64_exact) else np.int64
    segments = _lower_segments(
        plan,
        lambda template: _template_layers(template, dense, dtype),
        lambda segment: [
            _residual_layer(layer, plan.n_nodes, dense, dtype)
            for layer in segment.layers
        ],
    )
    return _SegmentProgram(
        backend_name,
        plan.n_inputs,
        plan.n_nodes,
        list(plan.outputs),
        segments,
        values_dtype=dtype,
    )


class SparseBackend:
    """CSR matrices per template layer and per residual depth layer."""

    name = "sparse"

    def compile(self, plan: TemplatePlan) -> _SegmentProgram:
        return _compile_matrix(plan, self.name, dense=False)


class DenseBackend:
    """Dense numpy matrices per layer — fastest when circuits are small.

    When every weighted sum fits exactly in float64 (magnitude below
    ``2**53`` — true for all circuits this repository constructs) the
    matrices are stored as float64 so the per-layer product runs on BLAS;
    results are still bit-exact because 0/1 values, integer weights and
    integral partial sums are all exactly representable.  Larger (but still
    int64-safe) circuits fall back to integer matrices.  Template matrices
    have ``n_params + n_gates`` columns and residual matrices one column per
    source row of the layer (not ``n_nodes``), so the dense form stays cheap
    however large the host circuit is.
    """

    name = "dense"

    def compile(self, plan: TemplatePlan) -> _SegmentProgram:
        return _compile_matrix(plan, self.name, dense=True)


# ---------------------------------------------------------------------- exact
def _object_weights(weights) -> np.ndarray:
    """Box a weight slice into an object array of Python ints."""
    values = weights.tolist() if isinstance(weights, np.ndarray) else list(weights)
    out = np.empty(len(values), dtype=object)
    out[:] = [int(v) for v in values]
    return out


def _run_exact_gates(values: np.ndarray, gates: list) -> None:
    """Evaluate ``(row, sources, weights, threshold)`` gates in order, in place."""
    width = values.shape[1]
    for row, sources, weights, threshold in gates:
        if sources.size:
            fired = (weights[:, None] * values[sources, :]).sum(axis=0) >= threshold
        else:
            fired = np.full(width, 0 >= threshold)
        # astype(object) boxes Python ints, keeping later products exact.
        values[row, :] = np.where(fired, 1, 0).astype(object)


class _ExactSegmentProgram:
    """Arbitrary-precision program over the same segments (object dtype).

    Loops over each template's *local* gates once, vectorized over all
    stamps and the batch — the copy count k never re-enters the Python
    loop, which is the exact-path analogue of the matrix tiling above.
    """

    backend_name = "exact"

    def __init__(
        self,
        n_inputs: int,
        n_nodes: int,
        outputs: List[int],
        segments: List[tuple],
    ) -> None:
        self.backend_name = "exact"
        self.n_inputs = n_inputs
        self.n_nodes = n_nodes
        self.outputs = outputs
        self.segments = segments

    def run(self, inputs: np.ndarray) -> np.ndarray:
        values = np.zeros((self.n_nodes, inputs.shape[1]), dtype=object)
        # Coerce through int64 first: validated inputs are 0/1 but may arrive
        # as floats, and a float leaking into the object products would poison
        # the arbitrary-precision arithmetic with float64 rounding.
        values[: self.n_inputs, :] = inputs.astype(np.int64).astype(object)
        for kind, payload in self.segments:
            if kind == "tpl":
                local = _stamp_locals(values, payload, object)
                _run_exact_gates(local, payload[5])
                _scatter_block(values, local, payload)
            else:
                _run_exact_gates(values, payload)
        return values.astype(np.int8)


def _exact_template_gates(template) -> list:
    """A template's gates as ``(local row, local sources, weights, threshold)``."""
    src_list = template.sources.tolist()
    off_list = template.offsets.tolist()
    thr_list = template.thresholds.tolist()
    gates = []
    for j in range(template.n_gates):
        lo, hi = off_list[j], off_list[j + 1]
        gates.append(
            (
                template.n_params + j,
                np.asarray(src_list[lo:hi], dtype=np.int64),
                _object_weights(template.weights[lo:hi]),
                int(thr_list[j]),
            )
        )
    return gates


def _exact_residual_gates(layer: ResidualLayer) -> list:
    """A residual layer's gates as ``(node, sources, weights, threshold)``."""
    off_list = layer.offsets.tolist()
    thr_list = (
        layer.thresholds.tolist()
        if isinstance(layer.thresholds, np.ndarray)
        else list(layer.thresholds)
    )
    return [
        (
            node,
            layer.cols[off_list[row] : off_list[row + 1]],
            _object_weights(layer.data[off_list[row] : off_list[row + 1]]),
            int(thr_list[row]),
        )
        for row, node in enumerate(layer.nodes.tolist())
    ]


class ExactBackend:
    """Gate-by-gate arbitrary-precision backend (always applicable)."""

    name = "exact"

    def compile(self, plan: TemplatePlan) -> _ExactSegmentProgram:
        segments = _lower_segments(
            plan,
            _exact_template_gates,
            lambda segment: [
                gate
                for layer in segment.layers
                for gate in _exact_residual_gates(layer)
            ],
        )
        return _ExactSegmentProgram(
            plan.n_inputs, plan.n_nodes, list(plan.outputs), segments
        )


# ------------------------------------------------------------------ selection
_BACKENDS: Dict[str, Backend] = {
    backend.name: backend
    for backend in (SparseBackend(), DenseBackend(), ExactBackend())
}


def backend_registry() -> Dict[str, Backend]:
    """The registered concrete backends by name (copy; mutate freely)."""
    return dict(_BACKENDS)


def get_backend(name: str) -> Backend:
    """Look up a concrete backend (``"auto"`` is resolved by the engine)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; registered: {sorted(_BACKENDS)}"
        ) from None


def select_backend_name(
    plan: TemplatePlan, stats: CircuitStats, config: EngineConfig
) -> str:
    """Pick the concrete backend for one circuit (the ``"auto"`` heuristic).

    Overflowing circuits must go exact.  Otherwise the dense backend wins
    when the circuit is small enough that dense layer matrices stay cheap, or
    wire-dense enough that CSR buys nothing; everything else goes sparse.
    Forcing a specific backend is the engine's job — this function only
    encodes the heuristic.  It reads only whole-circuit fields
    (``int64_safe``, ``n_nodes``), so a circuit resolves to the same backend
    whether or not its provenance was accepted.
    """
    if not plan.int64_safe:
        return "exact"
    if plan.n_nodes <= config.dense_node_limit:
        return "dense"
    if stats.size and stats.edges / (stats.size * plan.n_nodes) >= config.dense_density:
        return "dense"
    return "sparse"

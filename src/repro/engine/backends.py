"""Pluggable evaluation backends for the execution engine.

Every backend compiles the one plan form,
:class:`~repro.circuits.simulator.TemplatePlan` (template blocks plus
residual runs), into a *compiled program*: a picklable object holding only
arrays and ints (so the batch scheduler can ship it to worker processes)
that maps a 0/1 input block to a :class:`RunResult`: the output rows and
the energy (the number of gates that fire) of every column, plus the 0/1
value of every node when the caller asks to keep them.  The program
runs the plan's schedule level by level: all stamps of one template in one
level evaluate together, with one matrix product per template layer (per
stamp chunk, when the batch is wide); a residual run evaluates with one
matrix product per depth layer.  A layer's product has one row per
distinct weighted sum: adjacent gates with equal sources and weights (the
interval gates of a threshold ladder) share one sum
(:func:`~repro.circuits.store.shared_sum_rows`), and each compares it
against its own threshold.  Three backends cover the practical space:

``sparse``
    scipy CSR matrices: template layers over the template's local slots,
    residual layers over the node columns.  Wins on large circuits, where
    the wire structure is genuinely sparse and CSR keeps the arithmetic to
    the realized wires.  Runs on scipy's own CSR kernels, never on BLAS.
``dense``
    Dense numpy matrices: template layers over the local slots, residual
    layers over the layer's source rows (a view of their id range, or the
    distinct rows gathered, then GEMM).  For small or shallow circuits the
    per-call overhead of CSR (index juggling, format dispatch) dominates
    the flops; a dense GEMM over a few hundred rows is much faster.  A
    layer matrix over ``_DENSE_MATRIX_BYTES`` is refused at compile.
``exact``
    Arbitrary-precision object-dtype evaluation, vectorized over the batch
    (and over every stamp of a template) but looping over gates.  The only
    backend that is correct when a gate's worst-case weighted sum overflows
    int64; always exact, never fast.

Both matrix backends run in the plan's numeric lane
(:attr:`~repro.circuits.simulator.TemplatePlan.lane`), picked from its
certified worst-case magnitude: float32 below ``2**24``, float64 below
``2**53``, int64 below ``2**62``.  The lane covers the weight matrices, the
thresholds and the node-value buffer, and is exact in any summation order
because every operand and partial sum is an integer below the lane's limit.
Plans past int64 compile for ``exact`` only.

Selection is automatic per circuit (:func:`select_backend_name`) driven by
the circuit's :class:`~repro.circuits.circuit.CircuitStats` and the plan's
overflow verdict, or forced through the engine config.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Protocol, runtime_checkable

import numpy as np
from scipy import sparse

from repro.circuits.circuit import CircuitStats
from repro.circuits.simulator import ResidualLayer, ResidualSegment, TemplatePlan
from repro.circuits.store import gather_ranges, shared_sum_rows
from repro.engine.config import EngineConfig
from repro.obs import get_registry

__all__ = [
    "Backend",
    "BackendError",
    "CompiledProgram",
    "DenseBackend",
    "ExactBackend",
    "RunResult",
    "SparseBackend",
    "backend_registry",
    "get_backend",
    "run_chunk_width",
    "same_run",
    "select_backend_name",
]


class BackendError(ValueError):
    """Raised when a circuit cannot be compiled for the requested backend."""


class RunResult(NamedTuple):
    """What evaluating a ``(n_inputs, batch)`` block returns.

    ``outputs`` holds the ``(n_outputs, batch)`` int8 output rows in
    ``circuit.outputs`` order; ``energy`` the ``(batch,)`` int64 number of
    gates that fire on each column (the energy of the paper's Section 6);
    ``nodes`` the ``(n_nodes, batch)`` int8 value of every node, or None
    unless the run was asked to keep them.
    """

    outputs: np.ndarray
    energy: np.ndarray
    nodes: Optional[np.ndarray] = None


def same_run(got: RunResult, want: RunResult) -> bool:
    """Whether two run results are bit-identical field by field: the same
    outputs and energy (values and dtypes), and the same kept node values
    or neither keeps them.  Tuple ``==`` cannot compare arrays."""
    return all(
        (a is None and b is None)
        or (
            a is not None
            and b is not None
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
        for a, b in zip(got, want)
    )


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
    values_dtype: np.dtype

    def run(self, inputs: np.ndarray, keep_nodes: bool = False) -> RunResult:
        """Map a ``(n_inputs, batch)`` 0/1 block to its outputs and energy
        (and its ``(n_nodes, batch)`` int8 node values with ``keep_nodes``)."""
        ...


@runtime_checkable
class Backend(Protocol):
    """A compiler from plans to :class:`CompiledProgram` objects."""

    name: str

    def compile(self, plan: TemplatePlan) -> CompiledProgram:
        ...


def _lane_dtype(plan: TemplatePlan, backend: str) -> np.dtype:
    """The dtype of the plan's numeric lane, or BackendError past int64."""
    if plan.lane == "exact":
        raise BackendError(
            f"circuit overflows int64; the {backend!r} backend would be inexact "
            "(use backend='exact' or 'auto')"
        )
    return np.dtype(plan.lane)


#: The most bytes one stamp chunk's local value matrix may take.  A group
#: of stamps runs in chunks of as many stamps as fit, so a wide batch
#: never materializes every stamp's locals at once.  Above a quarter of
#: this, a chunk's matrix also stays within 1/32 of the run's node buffer:
#: a layer's sums never outgrow the matrix, so a stamp chunk adds at most
#: 1/16 of a large node buffer to a run's peak memory.  A smaller fixed
#: budget would bound that peak too, but would also cut the wide runs,
#: whose node buffers are large, into more chunks, each paying a gather,
#: one product per layer and a scatter.
_STAMP_CHUNK_BYTES = 1 << 20

#: The most bytes one run's node-value buffer may take.  A wider batch runs
#: in column chunks of :func:`run_chunk_width` columns.
_RUN_BUFFER_BYTES = 256 << 20


def run_chunk_width(program: "CompiledProgram", chunk_size: int) -> int:
    """Columns per ``program.run``: ``chunk_size``, narrowed so the node
    buffer (``n_nodes`` values of the program's lane per column) stays
    within ``_RUN_BUFFER_BYTES``."""
    column = program.n_nodes * np.dtype(program.values_dtype).itemsize
    return min(chunk_size, max(1, _RUN_BUFFER_BYTES // max(1, column)))


def _rows(values: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array with each row as one element (a void view),
    so a gather or scatter of whole rows copies one element per row.
    Object arrays (the exact backend) stay 2-D."""
    if values.dtype == object:
        return values
    row = np.dtype((np.void, values.shape[1] * values.itemsize))
    return values.view(row).reshape(-1)


def _stamp_chunks(node_values: np.ndarray, group: tuple, dtype, energy: np.ndarray):
    """Yield ``(local, spikes)`` for each stamp chunk of a template group.

    A chunk's matrix ``local`` has shape ``(n_params + n_gates, count *
    batch)``: column ``i * batch + b`` is its stamp ``i``'s batch column
    ``b``, and the parameter rows arrive filled.  The caller evaluates the
    gate rows and counts each column's fired gates into ``spikes``; resuming
    the generator folds ``spikes`` into ``energy`` by batch column and
    writes the gate rows back to their node rows.
    """
    params, shifts, ends, n_params, n_gates, _layers = group
    batch = node_values.shape[1]
    if not batch:
        return
    node_rows = _rows(node_values)
    budget = min(
        _STAMP_CHUNK_BYTES, max(_STAMP_CHUNK_BYTES // 4, node_values.nbytes // 32)
    )
    width = (n_params + n_gates) * batch * np.dtype(dtype).itemsize
    step = max(1, budget // width)
    for lo in range(0, len(params), step):
        hi = min(lo + step, len(params))
        count = hi - lo
        local = np.zeros((n_params + n_gates, count * batch), dtype=dtype)
        # Row ``j * count + i`` of this view is local slot j of stamp i.
        local_rows = _rows(local.reshape(-1, batch))
        if n_params:
            local_rows[: n_params * count] = node_rows[params[lo:hi].T.reshape(-1)]
        spikes = np.zeros(count * batch, dtype=np.int64)
        yield local, spikes
        energy += spikes.reshape(count, batch).sum(axis=0)
        stamps = np.arange(lo, hi, dtype=np.int64)
        blocks = np.searchsorted(ends, stamps, side="right")
        targets = np.arange(n_gates)[:, None] + (shifts[blocks] + stamps * n_gates)
        node_rows[targets.reshape(-1)] = local_rows[n_params * count :]


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

    Segments come in the plan's schedule order (level by level).  A
    ``"tpl"`` segment is one template's stamps in one level: the stamps
    run in chunks, each chunk one local value matrix whose parameter rows
    are gathered from the node values; the template's layer matrices run on
    every stamp of the chunk at once, and the gate rows scatter back to the
    stamps' node ids.  A ``"res"`` segment runs one product per depth
    layer: a CSR matrix over every node column (sparse), or a dense matrix
    over the layer's source rows (dense) — a view of their id range when
    they fill at least half of it, else the distinct rows gathered at most
    ``_GATHER_ROWS`` at a time.  A layer whose gates share sums carries
    ``row_of``, the sum row of each gate: the sums expand to one row per
    gate before the threshold.  Each layer's fired block is counted into
    the energy right after its threshold, while it is still in cache.
    ``values_dtype`` is the plan's numeric lane, shared by the node-value
    buffer, the weight matrices and the thresholds: float32, float64 or
    int64.  Values are 0/1 and every sum is an integer below the lane's
    exact limit, so a float lane compares as exactly as int64.
    """

    def __init__(
        self,
        backend_name: str,
        n_inputs: int,
        n_nodes: int,
        outputs: List[int],
        segments: List[tuple],
        values_dtype: np.dtype,
    ) -> None:
        self.backend_name = backend_name
        self.n_inputs = n_inputs
        self.n_nodes = n_nodes
        self.outputs = outputs
        self.segments = segments
        self.values_dtype = values_dtype

    def run(self, inputs: np.ndarray, keep_nodes: bool = False) -> RunResult:
        node_values = np.zeros(
            (self.n_nodes, inputs.shape[1]), dtype=self.values_dtype
        )
        node_values[: self.n_inputs, :] = inputs
        energy = np.zeros(inputs.shape[1], dtype=np.int64)
        registry = get_registry()
        # Debug-mode telemetry only: per-layer GEMM timings.  Kept off the
        # default path — a span per layer would dominate tiny layers.
        gemm = (
            registry.histogram("backend.layer_gemm_s", backend=self.backend_name)
            if registry.debug
            else None
        )

        def run_layers(values: np.ndarray, layers: list, spikes: np.ndarray) -> None:
            for rows, terms, thresholds, row_of in layers:
                start = time.perf_counter() if gemm is not None else 0.0
                # The 0/1 fired block overwrites the sums (expanded to one
                # row per gate) in place, in the lane dtype, so the scatter
                # below needs no cast copy.
                fired = _layer_sums(values, terms)
                if row_of is not None:
                    fired = fired[row_of]
                np.greater_equal(fired, thresholds[:, None], out=fired)
                spikes += fired.sum(axis=0).astype(np.int64, copy=False)
                values[rows] = fired
                if gemm is not None:
                    gemm.observe(time.perf_counter() - start)

        for kind, payload in self.segments:
            if kind == "tpl":
                for local, spikes in _stamp_chunks(
                    node_values, payload, self.values_dtype, energy
                ):
                    run_layers(local, payload[5], spikes)
            else:
                run_layers(node_values, payload, energy)
        return _run_result(node_values, self.outputs, energy, keep_nodes)


def _run_result(
    node_values: np.ndarray, outputs: List[int], energy: np.ndarray, keep_nodes: bool
) -> RunResult:
    """The output rows (and, kept, every node row) of a finished run as int8."""
    if keep_nodes:
        nodes = node_values.astype(np.int8)
        return RunResult(nodes[outputs], energy, nodes)
    return RunResult(node_values[outputs].astype(np.int8), energy)


def _lane_array(values, dtype) -> np.ndarray:
    """Integer weights or thresholds in the lane dtype (exact: the plan's
    magnitude certificate bounds every entry)."""
    return np.asarray(values, dtype=np.int64).astype(dtype, copy=False)


#: The most bytes one dense layer matrix may take.  A stripped circuit's
#: widest residual layer can need gigabytes as a dense matrix; the dense
#: compile refuses it instead of allocating.
_DENSE_MATRIX_BYTES = 1 << 30


def _weight_matrix(offsets, cols, n_cols, data, dense: bool, dtype):
    """An exact ``(rows, n_cols)`` weight matrix from a CSR layer.

    (row, col) pairs are unique: every emission path merges duplicate
    sources during canonicalization.  A dense matrix over
    ``_DENSE_MATRIX_BYTES`` raises :class:`BackendError` before allocating.
    """
    n_rows = len(offsets) - 1
    if dense:
        nbytes = n_rows * n_cols * np.dtype(dtype).itemsize
        if nbytes > _DENSE_MATRIX_BYTES:
            raise BackendError(
                f"a {n_rows} x {n_cols} dense layer matrix takes {nbytes:,} "
                f"bytes, over the dense backend's budget of "
                f"{_DENSE_MATRIX_BYTES:,} (use backend='sparse' or 'auto')"
            )
    data = _lane_array(data, dtype)
    if not dense:
        return sparse.csr_matrix((data, cols, offsets), shape=(n_rows, n_cols))
    matrix = np.zeros((n_rows, n_cols), dtype=dtype)
    if len(data):
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
        matrix[rows, cols] = data
    return matrix


def _shared_rows(offsets, cols, data) -> tuple:
    """A layer's CSR cut to one row per distinct sum (the shared-sum rule of
    :func:`~repro.circuits.store.shared_sum_rows`), as ``(offsets, cols,
    data, row_of)``; the layer as given, with ``row_of`` None, when no row
    repeats."""
    first, row_of = shared_sum_rows(offsets, cols, data)
    if row_of is None:
        return offsets, cols, data, None
    fan = np.diff(offsets)[first]
    wires = gather_ranges(offsets[first], fan)
    distinct = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(fan, out=distinct[1:])
    return distinct, cols[wires], data[wires], row_of


def _template_layers(template, dense: bool, dtype) -> list:
    """Per-relative-depth layers of one compiled template.

    Each matrix has one row per distinct sum of the layer and one column per
    *local* slot (``n_params + n_gates``), so one matrix serves every
    stamped copy.
    """
    layers = []
    for lgates, rows, cols, data, thresholds in template.layers:
        offsets = np.searchsorted(rows, np.arange(len(lgates) + 1))
        offsets, cols, data, row_of = _shared_rows(offsets, cols, data)
        matrix = _weight_matrix(offsets, cols, template.n_locals, data, dense, dtype)
        layers.append(
            (
                template.n_params + lgates,  # local rows to write
                [(None, matrix)],
                _lane_array(thresholds, dtype),
                row_of,
            )
        )
    return layers


def _residual_layer(
    layer: ResidualLayer, n_nodes: int, dense: bool, dtype
) -> tuple:
    """One residual depth layer as ``(nodes, terms, thresholds, row_of)``."""
    thresholds = _lane_array(layer.thresholds, dtype)
    offsets, cols, data, row_of = _shared_rows(layer.offsets, layer.cols, layer.data)
    if not dense:
        matrix = _weight_matrix(offsets, cols, n_nodes, data, False, dtype)
        return layer.nodes, [(None, matrix)], thresholds, row_of
    sources, columns = np.unique(cols, return_inverse=True)
    start = int(sources[0]) if len(sources) else 0
    span = int(sources[-1]) + 1 - start if len(sources) else 0
    if span <= 2 * len(sources):
        # The sources fill at least half of their id range: multiply a view
        # of that range instead of gathering a copy.
        matrix = _weight_matrix(offsets, cols - start, span, data, True, dtype)
        return layer.nodes, [(slice(start, start + span), matrix)], thresholds, row_of
    matrix = _weight_matrix(offsets, columns, len(sources), data, True, dtype)
    terms = [
        (
            sources[lo : lo + _GATHER_ROWS],
            np.ascontiguousarray(matrix[:, lo : lo + _GATHER_ROWS]),
        )
        for lo in range(0, max(len(sources), 1), _GATHER_ROWS)
    ]
    return layer.nodes, terms, thresholds, row_of


def _lower_segments(plan: TemplatePlan, lower_template, lower_residual) -> list:
    """The program segments of a plan, in its schedule order.

    A residual run becomes ``("res", lower_residual(segment))``.  The blocks
    of one template in one level become one ``("tpl", (params, shifts,
    ends, n_params, n_gates, lowered template))`` group: ``params`` stacks
    their parameter rows, one per stamp; block ``b`` ends before stamp
    ``ends[b]``, and stamp ``s`` of it starts at node ``shifts[b] + s *
    n_gates``.  ``lower_template`` runs once per distinct template.
    """
    shared: Dict[int, object] = {}
    segments: List[tuple] = []
    for group in plan.schedule():
        first = group[0]
        if isinstance(first, ResidualSegment):
            segments.append(("res", lower_residual(first)))
            continue
        template = first.template
        if id(template) not in shared:
            shared[id(template)] = lower_template(template)
        n_gates = template.n_gates
        params = (
            first.params
            if len(group) == 1
            else np.concatenate([block.params for block in group])
        )
        ks = np.array([len(block.params) for block in group], dtype=np.int64)
        ends = np.cumsum(ks)
        bases = np.array([block.base for block in group], dtype=np.int64)
        shifts = bases - (ends - ks) * n_gates
        lowered = shared[id(template)]
        segments.append(
            ("tpl", (params, shifts, ends, template.n_params, n_gates, lowered))
        )
    return segments


def _compile_matrix(
    plan: TemplatePlan, backend_name: str, dense: bool
) -> _SegmentProgram:
    dtype = _lane_dtype(plan, backend_name)
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

    The matrices are stored in the plan's numeric lane: in the float32 and
    float64 lanes the per-layer product runs on BLAS, still bit-exact
    because 0/1 values, integer weights and integral partial sums below the
    lane's limit are all exactly representable; the int64 lane uses numpy's
    integer matmul.  Template matrices have ``n_params + n_gates`` columns
    and residual matrices one column per source row of the layer (not
    ``n_nodes``), so the dense form stays cheap however large the host
    circuit is.
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


def _run_exact_gates(values: np.ndarray, gates: list, spikes: np.ndarray) -> None:
    """Evaluate ``(row, sources, weights, threshold)`` gates in order, in
    place, counting each column's fired gates into ``spikes``."""
    width = values.shape[1]
    for row, sources, weights, threshold in gates:
        if sources.size:
            fired = (weights[:, None] * values[sources, :]).sum(axis=0) >= threshold
        else:
            fired = np.full(width, 0 >= threshold)
        spikes += fired
        # astype(object) boxes Python ints, keeping later products exact.
        values[row, :] = np.where(fired, 1, 0).astype(object)


class _ExactSegmentProgram:
    """Arbitrary-precision program over the same segments (object dtype).

    Loops over each template's *local* gates once per stamp chunk,
    vectorized over the chunk's stamps and the batch — the stamp count
    never re-enters the Python loop, which is the exact-path analogue of
    the matrix tiling above.
    """

    backend_name = "exact"
    values_dtype = np.dtype(object)

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

    def run(self, inputs: np.ndarray, keep_nodes: bool = False) -> RunResult:
        values = np.zeros((self.n_nodes, inputs.shape[1]), dtype=object)
        # Coerce through int64 first: validated inputs are 0/1 but may arrive
        # as floats, and a float leaking into the object products would poison
        # the arbitrary-precision arithmetic with float64 rounding.
        values[: self.n_inputs, :] = inputs.astype(np.int64).astype(object)
        energy = np.zeros(inputs.shape[1], dtype=np.int64)
        for kind, payload in self.segments:
            if kind == "tpl":
                for local, spikes in _stamp_chunks(values, payload, object, energy):
                    _run_exact_gates(local, payload[5], spikes)
            else:
                _run_exact_gates(values, payload, energy)
        return _run_result(values, self.outputs, energy, keep_nodes)


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
    # No layer matrix exceeds size x n_nodes entries, so under this bound
    # the dense compile never refuses.
    if stats.size and stats.size * plan.n_nodes * 8 <= _DENSE_MATRIX_BYTES:
        if stats.edges / (stats.size * plan.n_nodes) >= config.dense_density:
            return "dense"
    return "sparse"

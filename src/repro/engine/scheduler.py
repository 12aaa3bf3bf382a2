"""Batch scheduler: chunked and process-parallel circuit evaluation.

Arbitrarily wide input batches are split into column blocks so the node
buffer of one ``program.run`` stays within a byte budget
(:func:`~repro.engine.backends.run_chunk_width`), in the spirit of the
two-pass sharded evaluation of parallel connected-component labeling: each
chunk is an independent shard that returns only its outputs and energy,
and the batch's result is just the concatenation of the shard results
(circuit evaluation has no cross-column coupling, so no merge pass is
needed).  A :class:`ResultBlock` holds that concatenation: the output rows
plus the energy, or every node row plus the energy when nodes are kept.

When a pool is requested the compiled program is shipped to each worker via
the pool initializer — once per worker per call, not once per chunk — and
the workers stream chunk results back through ``imap``: chunk views are
generated lazily (the feeder pickles one at a time into the pipe) and each
result is written into the result block as it arrives.  The pool itself is
created per :func:`evaluate_batched` call, so sharding only pays off when
one batch is wide enough to amortize the spawn; the engine gates it behind
``EngineConfig.parallel_threshold``.  For steady-state query traffic — many
batches against installed programs — use the resident pool of
:class:`repro.engine.service.EvaluationService`, which the engine routes to
when ``EngineConfig.persistent_pool`` is set.
"""

from __future__ import annotations

import multiprocessing
from time import monotonic
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.engine.backends import CompiledProgram, RunResult, run_chunk_width
from repro.engine.config import EngineConfig
from repro.engine.faults import DeadlineExceeded
from repro.obs import get_registry

__all__ = [
    "ResultBlock",
    "evaluate_batched",
    "iter_column_chunks",
    "narrowed_chunk_size",
    "run_serial",
]


def iter_column_chunks(width: int, chunk_size: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` column ranges covering ``range(width)``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, width, chunk_size):
        yield start, min(start + chunk_size, width)


def narrowed_chunk_size(
    program: CompiledProgram, batch: int, config: EngineConfig
) -> int:
    """The pool chunk width: the run width, narrowed (if needed) so every
    worker gets one.

    The single narrowing rule shared by the per-call pool below and the
    engine's routing into the persistent service, so both parallel paths
    shard a blocking batch identically.
    """
    width = run_chunk_width(program, config.chunk_size)
    return min(width, max(1, -(-batch // max(1, config.max_workers))))


class ResultBlock:
    """A batch's :class:`RunResult`, assembled column chunk by column chunk.

    One buffer of :meth:`nbytes` bytes holds the ``(batch,)`` int64 energy
    and then the ``(n_rows, batch)`` int8 rows: the output rows, or every
    node row when nodes are kept.  The service backs it with a
    shared-memory block that workers write their columns into; everywhere
    else it is private memory.
    """

    __slots__ = ("keep_nodes", "outputs", "energy", "rows")

    def __init__(
        self, program: CompiledProgram, batch: int, keep_nodes: bool, buffer=None
    ) -> None:
        self.keep_nodes = keep_nodes
        self.outputs = program.outputs
        n_rows = program.n_nodes if keep_nodes else len(program.outputs)
        if buffer is None:
            buffer = np.empty(batch * (8 + n_rows), dtype=np.uint8)
        self.energy = np.ndarray((batch,), dtype=np.int64, buffer=buffer)
        self.rows = np.ndarray(
            (n_rows, batch), dtype=np.int8, buffer=buffer, offset=8 * batch
        )

    @staticmethod
    def nbytes(program: CompiledProgram, batch: int, keep_nodes: bool) -> int:
        """Bytes of a block of ``batch`` columns (8 of energy per column)."""
        return batch * (8 + (program.n_nodes if keep_nodes else len(program.outputs)))

    def write(self, start: int, stop: int, part: RunResult) -> None:
        """Store the result of the columns ``start:stop``."""
        self.rows[:, start:stop] = part.nodes if self.keep_nodes else part.outputs
        self.energy[start:stop] = part.energy

    def result(self, copy: bool = False) -> RunResult:
        """The assembled result (``copy`` detaches it from the buffer)."""
        rows = self.rows.copy() if copy else self.rows
        energy = self.energy.copy() if copy else self.energy
        if self.keep_nodes:
            return RunResult(rows[self.outputs], energy, rows)
        return RunResult(rows, energy)


def run_serial(
    program: CompiledProgram,
    inputs: np.ndarray,
    *,
    chunk_size: int,
    keep_nodes: bool = False,
    deadline: Optional[float] = None,
) -> RunResult:
    """Evaluate serially in chunks, with a deadline.

    The single in-process evaluation path shared by :func:`evaluate_batched`
    and the service's degraded mode.  Chunks are at most ``chunk_size``
    columns, narrowed to the program's run width.  ``deadline`` is a
    ``time.monotonic()`` instant checked between chunks (the granularity at
    which a pure-python caller can be interrupted at all);
    :class:`DeadlineExceeded` is raised once it has passed.  When the batch
    fits a single chunk the program's own result is returned without a
    copy.
    """
    registry = get_registry()
    batch = inputs.shape[1]
    chunk_size = run_chunk_width(program, chunk_size)
    if deadline is not None and monotonic() > deadline:
        raise DeadlineExceeded(f"deadline passed before evaluating batch of {batch}")
    if batch <= chunk_size:
        if registry.enabled:
            registry.counter("scheduler.chunks", mode="serial").inc()
            with registry.span("scheduler.chunk_s"):
                return program.run(inputs, keep_nodes)
        return program.run(inputs, keep_nodes)
    out = ResultBlock(program, batch, keep_nodes)
    ranges = list(iter_column_chunks(batch, chunk_size))
    if registry.enabled:
        registry.counter("scheduler.chunks", mode="serial").inc(len(ranges))
    for start, stop in ranges:
        if deadline is not None and monotonic() > deadline:
            raise DeadlineExceeded(
                f"deadline passed after {start} of {batch} columns"
            )
        if registry.enabled:
            with registry.span("scheduler.chunk_s"):
                out.write(start, stop, program.run(inputs[:, start:stop], keep_nodes))
        else:
            out.write(start, stop, program.run(inputs[:, start:stop], keep_nodes))
    return out.result()


# Worker-side state: the compiled program is installed once per worker by the
# pool initializer so chunks only carry input columns across the pipe.
_WORKER_PROGRAM: Optional[CompiledProgram] = None
_WORKER_KEEP_NODES = False


def _worker_init(program: CompiledProgram, keep_nodes: bool) -> None:
    global _WORKER_PROGRAM, _WORKER_KEEP_NODES
    _WORKER_PROGRAM = program
    _WORKER_KEEP_NODES = keep_nodes


def _worker_run(chunk: np.ndarray) -> RunResult:
    # A real exception, not an assert: the guard must survive ``python -O``.
    if _WORKER_PROGRAM is None:
        raise RuntimeError("worker pool used before initialization")
    return _WORKER_PROGRAM.run(chunk, _WORKER_KEEP_NODES)


def evaluate_batched(
    program: CompiledProgram,
    inputs: np.ndarray,
    config: Optional[EngineConfig] = None,
    keep_nodes: bool = False,
) -> RunResult:
    """Run a compiled program over a ``(n_inputs, batch)`` block, chunked.

    Returns the batch's :class:`RunResult`: output rows and energy, plus
    the ``(n_nodes, batch)`` int8 node values with ``keep_nodes``.
    Chunking follows ``config.chunk_size``, narrowed to the program's run
    width; sharding across a process pool kicks in when
    ``config.max_workers > 1`` and the batch is at least
    ``config.parallel_threshold`` wide.  When sharding applies, the chunk
    width is narrowed (if needed) so every worker gets at least one chunk —
    callers never have to derive a chunk size from the worker count.
    """
    config = config if config is not None else EngineConfig()
    registry = get_registry()
    batch = inputs.shape[1]
    if batch == 0:
        # Zero-width batches short-circuit: nothing to chunk or shard.
        return ResultBlock(program, 0, keep_nodes).result()
    chunk_size = run_chunk_width(program, config.chunk_size)
    parallel_ok = config.max_workers > 1 and batch >= config.parallel_threshold
    if parallel_ok:
        chunk_size = narrowed_chunk_size(program, batch, config)
    ranges = list(iter_column_chunks(batch, chunk_size))
    if not (parallel_ok and len(ranges) > 1):
        return run_serial(
            program, inputs, chunk_size=chunk_size, keep_nodes=keep_nodes
        )
    out = ResultBlock(program, batch, keep_nodes)
    if registry.enabled:
        registry.counter("scheduler.chunks", mode="pool").inc(len(ranges))
        registry.counter("scheduler.pool_spawns").inc()
    processes = min(config.max_workers, len(ranges))
    with registry.span("scheduler.pool_s"):
        with multiprocessing.Pool(
            processes, initializer=_worker_init, initargs=(program, keep_nodes)
        ) as pool:
            # Chunk views are generated lazily and results written in
            # place as they stream back, so the parent never materializes
            # a second copy of the whole batch (``pool.map`` over a chunk
            # list did).
            chunk_views = (inputs[:, start:stop] for start, stop in ranges)
            for (start, stop), part in zip(
                ranges, pool.imap(_worker_run, chunk_views)
            ):
                out.write(start, stop, part)
    return out.result()

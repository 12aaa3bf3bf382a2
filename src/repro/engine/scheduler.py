"""Batch scheduler: chunked in-process circuit evaluation.

Arbitrarily wide input batches are split into column blocks so the node
buffer of one ``program.run`` stays within a byte budget
(:func:`~repro.engine.backends.run_chunk_width`), in the spirit of the
two-pass sharded evaluation of parallel connected-component labeling: each
chunk is an independent shard that returns only its outputs and energy,
and the batch's result is just the concatenation of the shard results
(circuit evaluation has no cross-column coupling, so no merge pass is
needed).  A :class:`ResultBlock` holds that concatenation: the output rows
plus the energy, or every node row plus the energy when nodes are kept.

:func:`run_serial` is the one in-process evaluator: the engine's serial
route, its inline submissions and the service's degraded mode all run
through it.  Process-parallel evaluation is the resident
:class:`repro.engine.service.EvaluationService`, which cuts a job into the
same column ranges and assembles the workers' replies in a
:class:`ResultBlock`; :func:`narrowed_chunk_size` is the width the engine
shards a blocking batch at there.
"""

from __future__ import annotations

from time import monotonic
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.engine.backends import CompiledProgram, RunResult, run_chunk_width
from repro.engine.config import EngineConfig
from repro.engine.faults import DeadlineExceeded
from repro.obs import get_registry

__all__ = [
    "ResultBlock",
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
    """The service chunk width of a blocking batch: the run width, narrowed
    (if needed) so every worker gets one."""
    width = run_chunk_width(program, config.chunk_size)
    return min(width, max(1, -(-batch // max(1, config.max_workers))))


class ResultBlock:
    """A batch's :class:`RunResult`, assembled column chunk by column chunk.

    Holds the ``(batch,)`` int64 energy and the ``(n_rows, batch)`` int8
    rows: the output rows, or every node row when nodes are kept.
    """

    __slots__ = ("keep_nodes", "outputs", "energy", "rows")

    def __init__(self, program: CompiledProgram, batch: int, keep_nodes: bool) -> None:
        self.keep_nodes = keep_nodes
        self.outputs = program.outputs
        n_rows = program.n_nodes if keep_nodes else len(program.outputs)
        self.energy = np.empty(batch, dtype=np.int64)
        self.rows = np.empty((n_rows, batch), dtype=np.int8)

    def write(self, start: int, stop: int, part: RunResult) -> None:
        """Store the result of the columns ``start:stop``."""
        self.rows[:, start:stop] = part.nodes if self.keep_nodes else part.outputs
        self.energy[start:stop] = part.energy

    def result(self) -> RunResult:
        """The assembled result."""
        if self.keep_nodes:
            return RunResult(self.rows[self.outputs], self.energy, self.rows)
        return RunResult(self.rows, self.energy)


def run_serial(
    program: CompiledProgram,
    inputs: np.ndarray,
    *,
    chunk_size: int,
    keep_nodes: bool = False,
    deadline: Optional[float] = None,
) -> RunResult:
    """Evaluate a ``(n_inputs, batch)`` block serially in chunks, with a
    deadline.

    Returns the batch's :class:`RunResult`: output rows and energy, plus
    the ``(n_nodes, batch)`` int8 node values with ``keep_nodes``.  Chunks
    are at most ``chunk_size`` columns, narrowed to the program's run
    width.  ``deadline`` is a ``time.monotonic()`` instant checked between
    chunks (the granularity at which a pure-python caller can be
    interrupted at all); :class:`DeadlineExceeded` is raised once it has
    passed.  A zero-width batch returns empty rows without running the
    program; when the batch fits a single chunk the program's own result
    is returned without a copy.
    """
    registry = get_registry()
    batch = inputs.shape[1]
    if batch == 0:
        return ResultBlock(program, 0, keep_nodes).result()
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

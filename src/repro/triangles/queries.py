"""Circuit-backed triangle threshold queries.

This is the end-to-end application wrapper of Section 5: given a graph and a
triangle threshold (or a clustering-coefficient target), build the subcubic
trace circuit of Theorem 4.5 on the (padded) adjacency matrix and answer the
query by simulating the circuit.  The naive depth-2 circuit of Section 1 is
available as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.naive_circuits import NaiveTriangleCircuit, build_naive_triangle_circuit
from repro.core.schedule import LevelSchedule
from repro.core.trace_circuit import TraceCircuit, build_trace_circuit
from repro.fastmm.bilinear import BilinearAlgorithm
from repro.fastmm.strassen import strassen_2x2
from repro.triangles.clustering import tau_from_wedges
from repro.triangles.counting import triangle_count
from repro.triangles.graphs import pad_adjacency, validate_adjacency

__all__ = ["TriangleQuery", "build_triangle_query"]


@dataclass
class TriangleQuery:
    """A reusable circuit answering "does G have at least tau triangles?".

    Evaluation rides the execution engine through the underlying
    :class:`~repro.core.trace_circuit.TraceCircuit`, so answering the same
    structural query for many graphs compiles the circuit once and streams
    the graphs through the batch scheduler.
    """

    trace_circuit: TraceCircuit
    tau_triangles: int
    original_n: int

    def _padded_stack(self, adjacencies) -> np.ndarray:
        """Validate graphs and zero-pad them into one ``(batch, n, n)`` block.

        Padding with isolated vertices changes no triangle count, so each
        graph sits in the top-left corner of the circuit's matrix.
        """
        target = self.trace_circuit.n
        graphs = [validate_adjacency(adjacency) for adjacency in adjacencies]
        stack = np.zeros((len(graphs), target, target), dtype=np.int64)
        for k, adjacency in enumerate(graphs):
            size = adjacency.shape[0]
            if size > target:
                raise ValueError(f"graph has {size} vertices; circuit supports {target}")
            stack[k, :size, :size] = adjacency
        return stack

    def evaluate(self, adjacency) -> bool:
        """Answer the query for a graph on at most ``trace_circuit.n`` vertices."""
        return bool(self.evaluate_batch([adjacency])[0])

    def evaluate_batch(self, adjacencies) -> np.ndarray:
        """Answer the query for many graphs with one batched evaluation."""
        return self.trace_circuit.evaluate_batch(self._padded_stack(adjacencies))

    def submit_batch(self, adjacencies):
        """Asynchronous :meth:`evaluate_batch`: a future of the answers.

        Pipelines the padded batch through the engine's persistent
        evaluation service when one is configured (see
        :meth:`repro.core.trace_circuit.TraceCircuit.submit_batch`).
        """
        return self.trace_circuit.submit_batch(self._padded_stack(adjacencies))

    def reference(self, adjacency) -> bool:
        """Exact answer used for validation."""
        return triangle_count(adjacency) >= self.tau_triangles


def build_triangle_query(
    n: int,
    tau_triangles: Optional[int] = None,
    clustering_target: Optional[float] = None,
    reference_graph=None,
    algorithm: Optional[BilinearAlgorithm] = None,
    depth_parameter: int = 2,
    schedule: Optional[LevelSchedule] = None,
    engine=None,
) -> TriangleQuery:
    """Build a triangle-threshold query circuit for graphs on ``n`` vertices.

    Exactly one of ``tau_triangles`` or (``clustering_target`` together with
    ``reference_graph``) must be provided; in the latter case ``tau`` is
    derived from the wedge count of the reference graph as in Section 5.
    The circuit decides ``trace(A^3) >= 6 * tau``.
    """
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    if tau_triangles is None:
        if clustering_target is None or reference_graph is None:
            raise ValueError(
                "provide either tau_triangles or (clustering_target, reference_graph)"
            )
        tau_triangles = tau_from_wedges(reference_graph, clustering_target)
    if tau_triangles < 1:
        raise ValueError(f"the triangle threshold must be at least 1, got {tau_triangles}")

    # Pad the vertex count to a power of the algorithm's base dimension.
    probe = np.zeros((n, n), dtype=np.int64)
    padded, _ = pad_adjacency(probe, algorithm.t)
    padded_n = padded.shape[0]

    trace_circuit = build_trace_circuit(
        padded_n,
        6 * tau_triangles,
        bit_width=1,
        algorithm=algorithm,
        schedule=schedule,
        depth_parameter=depth_parameter,
        engine=engine,
    )
    return TriangleQuery(
        trace_circuit=trace_circuit,
        tau_triangles=tau_triangles,
        original_n=n,
    )

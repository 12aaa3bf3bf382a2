"""Subcubic constant-depth circuits for ``trace(A^3) >= tau`` (Theorems 4.4, 4.5).

The construction follows Section 4.3 of the paper:

1. compute the leaves of T_A and T_B (here B = A) through the selected
   levels of the schedule — depth ``2 t``;
2. compute, in parallel, the leaves of the pairing tree: the same tree
   structure driven by the output coefficients ``w`` with root ``A^T``
   (equation (4) rearranged: ``trace(A^3) = sum_k a_k b_k d_k`` where ``d_k``
   is a {-1,1}-weighted sum of entries of A);
3. multiply the three scalars of every leaf with a depth-1 Lemma 3.3
   circuit;
4. a single output gate adds all product representations and compares
   against ``tau``.

Total depth: ``2 t + 2`` with the Lemma 4.3 schedules (``t <= d`` for the
constant-depth schedule, comfortably within the paper's ``2d + 5`` bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.arithmetic.comparator import build_ge_comparison, build_ge_comparison_banks
from repro.arithmetic.signed import Rep, SignedValue
from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.core.leaf_builder import (
    build_tree_levels,
    matrix_of_input_banks,
    matrix_of_inputs,
)
from repro.core.product_stage import build_leaf_products
from repro.core.schedule import LevelSchedule, schedule_for
from repro.fastmm.bilinear import BilinearAlgorithm
from repro.fastmm.strassen import strassen_2x2
from repro.util.bits import bits
from repro.util.encoding import MatrixEncoding, stack_matrices
from repro.util.matrices import as_exact_array

__all__ = ["TraceCircuit", "assemble_trace_circuit", "build_trace_circuit", "default_bit_width"]


def default_bit_width(n: int) -> int:
    """The paper's O(log N)-bit entry model: ``max(1, bits(n - 1))`` bits."""
    return max(1, bits(max(n - 1, 0)))


def assemble_trace_circuit(
    builder,
    n: int,
    tau: int,
    bit_width: int,
    algorithm: BilinearAlgorithm,
    schedule: LevelSchedule,
    stages: int = 1,
) -> MatrixEncoding:
    """Emit the trace-threshold circuit into ``builder`` and return the encoding.

    ``builder`` may be a :class:`CircuitBuilder` (real construction) or a
    :class:`~repro.circuits.counting.CountingBuilder` (dry-run gate count).
    """
    wires = builder.allocate_inputs(n * n * 2 * bit_width, "A")
    offset = wires[0] if wires else 0
    encoding = MatrixEncoding(n, bit_width, offset=offset)

    banked = getattr(builder, "use_banks", False)
    if banked:
        root_a = matrix_of_input_banks(encoding)
        # The pairing tree's root is A^T (equation (4)): same bank, rows
        # permuted to transpose order.
        root_pairing = matrix_of_input_banks(encoding, transpose=True)
    else:
        root_a = matrix_of_inputs(encoding)
        root_pairing = root_a.T

    leaves_a = build_tree_levels(
        builder, algorithm, "A", root_a, schedule, stages=stages, tag="TA"
    )
    leaves_b = build_tree_levels(
        builder, algorithm, "B", root_a, schedule, stages=stages, tag="TB"
    )
    leaves_pair = build_tree_levels(
        builder, algorithm, "C", root_pairing, schedule, stages=stages, tag="TC"
    )

    products = build_leaf_products(
        builder, [leaves_a, leaves_b, leaves_pair], tag="trace/product"
    )

    if banked:
        output = build_ge_comparison_banks(
            builder, products.values(), tau, tag="trace/output"
        )
    else:
        pos_terms = []
        neg_terms = []
        for value in products.values():
            pos_terms.extend(value.pos.terms)
            neg_terms.extend(value.neg.terms)
        total = SignedValue(Rep.from_terms(pos_terms), Rep.from_terms(neg_terms))
        output = build_ge_comparison(builder, total, tau, tag="trace/output")
    builder.set_outputs([output], [f"trace(A^3) >= {tau}"])
    return encoding


@dataclass
class TraceCircuit:
    """A constructed trace-threshold circuit plus everything needed to use it.

    Evaluation routes through the execution engine (:mod:`repro.engine`), so
    repeated queries against structurally identical circuits share compiled
    programs via the engine's cache.  Pass ``engine`` to isolate a query
    from the process-wide default (e.g. to force a backend).
    """

    circuit: ThresholdCircuit
    encoding: MatrixEncoding
    n: int
    bit_width: int
    tau: int
    algorithm: BilinearAlgorithm
    schedule: LevelSchedule
    stages: int = 1
    engine: Optional[object] = field(default=None, repr=False)

    def _engine(self):
        from repro.engine import default_engine

        return self.engine if self.engine is not None else default_engine()

    def compile(self, backend: Optional[str] = None):
        """Precompile through the engine (cache-shared with evaluation).

        Hands the construction's template provenance through to the engine,
        so stamped circuits take the template-streaming compile path.
        """
        return self._engine().compile(self.circuit, backend=backend)

    def _encode(self, matrices) -> np.ndarray:
        """One ``(n_inputs, batch)`` input block for a sequence of matrices."""
        return self.encoding.encode(stack_matrices(matrices, self.n))

    def evaluate(self, matrix) -> bool:
        """Run the circuit on an integer matrix and return its decision."""
        return bool(self.evaluate_batch([matrix])[0])

    def evaluate_batch(self, matrices) -> np.ndarray:
        """Vectorized evaluation of several matrices at once.

        ``matrices`` is a sequence of ``n x n`` matrices or a
        ``(batch, n, n)`` stack; an empty batch gives an empty decision
        vector.
        """
        result = self._engine().evaluate(self.circuit, self._encode(matrices))
        return result.outputs[0].astype(bool)

    def submit_batch(self, matrices):
        """Asynchronous :meth:`evaluate_batch`: a future of the decisions.

        Dispatches through :meth:`Engine.submit`, so on an engine configured
        with workers the batch pipelines through the persistent evaluation
        service alongside other in-flight queries; serial engines (and empty
        batches) complete the future inline.
        """
        from repro.engine.service import chain_future

        inner = self._engine().submit(self.circuit, self._encode(matrices))
        return chain_future(inner, lambda result: result.outputs[0].astype(bool))

    @staticmethod
    def reference_trace(matrix) -> int:
        """Exact ``trace(A^3)`` (the oracle the circuit is validated against)."""
        a = as_exact_array(matrix)
        return int(np.trace(a @ a @ a))

    def reference(self, matrix) -> bool:
        """Exact decision ``trace(A^3) >= tau``."""
        return self.reference_trace(matrix) >= self.tau


def build_trace_circuit(
    n: int,
    tau: int,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    schedule: Optional[LevelSchedule] = None,
    depth_parameter: Optional[int] = None,
    stages: int = 1,
    share_gates: bool = False,
    engine=None,
    vectorize: bool = True,
    banked: bool = True,
) -> TraceCircuit:
    """Build the Theorem 4.4 / 4.5 circuit deciding ``trace(A^3) >= tau``.

    Parameters
    ----------
    n:
        Matrix dimension (must be a power of the algorithm's base dimension).
    tau:
        The threshold compared against the trace.
    bit_width:
        Bits per signed entry magnitude; defaults to the O(log N) model.
    algorithm:
        Bilinear base-case algorithm (default: Strassen).
    schedule:
        Explicit level schedule; by default the Theorem 4.5 schedule for
        ``depth_parameter`` (or the Theorem 4.4 log-log schedule when
        ``depth_parameter`` is None).
    depth_parameter:
        The paper's ``d``; ignored when ``schedule`` is given.
    stages:
        Number of stages per weighted sum (1 = depth-2 Lemma 3.2 sums).
    share_gates:
        Enable structural gate sharing in the builder (ablation knob).
    engine:
        Execution engine used by :meth:`TraceCircuit.evaluate`; defaults to
        the process-wide :func:`repro.engine.default_engine`.
    vectorize:
        True (default) emits gadgets through the columnar bulk/stamping
        path; False forces the legacy per-gate path.  Both construct
        bit-identical circuits (equal ``structural_hash``).
    banked:
        True (default) additionally passes whole value banks between the
        construction stages (the array-native ``Rep``/``SignedValue``
        interface); False keeps the stamped-but-scalar stage interface.
        All three paths construct bit-identical circuits.
    """
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    schedule = (
        schedule
        if schedule is not None
        else schedule_for(algorithm, n, depth_parameter=depth_parameter)
    )
    builder = CircuitBuilder(
        name=f"trace-{algorithm.name}-n{n}",
        share_gates=share_gates,
        vectorize=vectorize,
        banked=banked,
    )
    encoding = assemble_trace_circuit(
        builder, n, tau, bit_width, algorithm, schedule, stages=stages
    )
    circuit = builder.build()
    circuit.metadata.update(
        {
            "kind": "trace",
            "n": n,
            "tau": tau,
            "bit_width": bit_width,
            "algorithm": algorithm.name,
            "schedule": list(schedule.levels),
            "stages": stages,
        }
    )
    return TraceCircuit(
        circuit=circuit,
        encoding=encoding,
        n=n,
        bit_width=bit_width,
        tau=tau,
        algorithm=algorithm,
        schedule=schedule,
        stages=stages,
        engine=engine,
    )

"""Subcubic constant-depth circuits for the matrix product (Theorems 4.8, 4.9).

The construction stacks four stages (Section 4.4):

1. leaves of T_A from A,           depth ``2 t``  (Lemma 4.3 / leaf_builder)
2. leaves of T_B from B,           in parallel with stage 1
3. one Lemma 3.3 product per leaf, depth 1        (product_stage)
4. bottom-up recombination of T_AB through the same selected levels,
   depth ``2 t``                                   (recombine)

for a total depth of ``4 t + 1`` — the paper's ``4 d + 1`` when the
Theorem 4.9 schedule (``t <= d``) is used.  The outputs are the bits of the
positive and negative parts of every entry of ``C = AB``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.core.leaf_builder import (
    build_tree_levels,
    matrix_of_input_banks,
    matrix_of_inputs,
)
from repro.core.product_stage import build_leaf_products
from repro.core.recombine import build_product_tree
from repro.core.schedule import LevelSchedule, schedule_for
from repro.fastmm.bilinear import BilinearAlgorithm
from repro.fastmm.strassen import strassen_2x2
from repro.util.encoding import MatrixEncoding, stack_matrices
from repro.util.matrices import as_exact_array

__all__ = ["DecodePlan", "MatmulCircuit", "assemble_matmul_circuit", "build_matmul_circuit"]


def assemble_matmul_circuit(
    builder,
    n: int,
    bit_width: int,
    algorithm: BilinearAlgorithm,
    schedule: LevelSchedule,
    stages: int = 1,
) -> Tuple[MatrixEncoding, MatrixEncoding, np.ndarray]:
    """Emit the matrix-product circuit into ``builder``.

    Returns the encodings of A and B and the ``n x n`` object array of
    :class:`SignedBinaryNumber` output entries.  Works with both the real
    and the counting builder.
    """
    a_wires = builder.allocate_inputs(n * n * 2 * bit_width, "A")
    b_wires = builder.allocate_inputs(n * n * 2 * bit_width, "B")
    encoding_a = MatrixEncoding(n, bit_width, offset=a_wires[0] if a_wires else 0)
    encoding_b = MatrixEncoding(n, bit_width, offset=b_wires[0] if b_wires else 0)

    if getattr(builder, "use_banks", False):
        # Banked pipeline: whole matrices travel between stages as node-id
        # banks; the scalar object form only materializes for the n^2 output
        # entries.  Wire-for-wire identical to the scalar path.
        root_a = matrix_of_input_banks(encoding_a)
        root_b = matrix_of_input_banks(encoding_b)
    else:
        root_a = matrix_of_inputs(encoding_a)
        root_b = matrix_of_inputs(encoding_b)

    leaves_a = build_tree_levels(
        builder, algorithm, "A", root_a, schedule, stages=stages, tag="TA"
    )
    leaves_b = build_tree_levels(
        builder, algorithm, "B", root_b, schedule, stages=stages, tag="TB"
    )
    products = build_leaf_products(builder, [leaves_a, leaves_b], tag="matmul/product")
    entries = build_product_tree(
        builder, algorithm, products, schedule, n, stages=stages, tag="TAB"
    )

    output_nodes: List[int] = []
    output_labels: List[str] = []
    for i in range(n):
        for j in range(n):
            entry = entries[i, j]
            for sign, part in (("+", entry.pos), ("-", entry.neg)):
                for position, node in zip(part.bit_positions, part.bit_nodes):
                    output_nodes.append(node)
                    output_labels.append(f"C[{i}][{j}]{sign}bit{position}")
    builder.set_outputs(output_nodes, output_labels)
    return encoding_a, encoding_b, entries


class DecodePlan:
    """How to read every product entry off a circuit's output rows.

    Entry ``e`` (row-major over the ``n x n`` product) is the sum of
    ``weights[t] * outputs[rows[t]]`` over its segment ``t`` of the term
    arrays, with ``weights`` the signed bit weights ``+-2**position`` of its
    positive and negative parts.  :meth:`decode` turns a whole
    ``(n_outputs, batch)`` output block into entry values with one gather
    and one segment sum; it never reads internal node values.

    An entry's ``sum(|weights|)`` bounds every partial sum of its 0/1
    outputs, so the plan certifies the narrowest integer type holding the
    largest such bound and runs the sums in it: int64 only while no entry's
    bound reaches ``2**63``, Python ints past that.
    """

    def __init__(self, entries: np.ndarray, outputs: Sequence[int]):
        row_of = {int(node): row for row, node in enumerate(outputs)}
        rows: List[int] = []
        weights: List[int] = []
        counts: List[int] = []
        bound = 0
        for entry in entries.flat:
            terms = [
                (node, sign << position)
                for sign, part in ((1, entry.pos), (-1, entry.neg))
                for position, node in zip(part.bit_positions, part.bit_nodes)
            ]
            try:
                rows.extend(row_of[node] for node, _ in terms)
            except KeyError as missing:
                raise ValueError(
                    f"product bit node {missing.args[0]} is not a circuit output"
                ) from None
            weights.extend(weight for _, weight in terms)
            counts.append(len(terms))
            bound = max(bound, sum(abs(weight) for _, weight in terms))
        self.shape = entries.shape
        self.rows = np.asarray(rows, dtype=np.int64)
        # -bound - 1 fits exactly when +-bound does; past int64 this is object.
        self.weights = np.array(weights, dtype=np.min_scalar_type(-bound - 1))
        counts_arr = np.asarray(counts, dtype=np.int64)
        self.nonempty = counts_arr > 0
        self.starts = (np.cumsum(counts_arr) - counts_arr)[self.nonempty]

    def decode(self, outputs: np.ndarray) -> np.ndarray:
        """Entry values of an ``(n_outputs, batch)`` 0/1 output block.

        Returns an ``(n_entries, batch)`` array in the certified type of
        ``weights`` (object, i.e. Python ints, past int64).
        """
        dtype = self.weights.dtype
        terms = outputs[self.rows] * self.weights[:, None]
        sums = np.zeros((len(self.nonempty), outputs.shape[1]), dtype=dtype)
        sums[self.nonempty] = np.add.reduceat(terms, self.starts, axis=0, dtype=dtype)
        return sums


@dataclass
class MatmulCircuit:
    """A constructed matrix-product circuit plus its decoding metadata."""

    circuit: ThresholdCircuit
    encoding_a: MatrixEncoding
    encoding_b: MatrixEncoding
    entries: np.ndarray  # n x n object array of SignedBinaryNumber
    n: int
    bit_width: int
    algorithm: Optional[BilinearAlgorithm]
    schedule: Optional[LevelSchedule]
    stages: int = 1
    engine: Optional[object] = field(default=None, repr=False)
    # The decode plan, with the circuit it was built for: a copy made by
    # ``dataclasses.replace`` or a reassigned ``circuit`` gets a fresh one.
    _decoder: Optional[Tuple[ThresholdCircuit, DecodePlan]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _engine(self):
        from repro.engine import default_engine

        return self.engine if self.engine is not None else default_engine()

    def compile(self, backend: Optional[str] = None):
        """Precompile through the engine (cache-shared with evaluation).

        The construction's template provenance (``circuit.template_blocks``)
        is handed through to the engine, so stamped circuits compile via the
        template-streaming path; the returned program is the one later
        :meth:`evaluate` calls reuse from the compile cache.
        """
        return self._engine().compile(self.circuit, backend=backend)

    @property
    def decode_plan(self) -> DecodePlan:
        """The :class:`DecodePlan` of this construction, built on first use."""
        if self._decoder is None or self._decoder[0] is not self.circuit:
            self._decoder = (self.circuit, DecodePlan(self.entries, self.circuit.outputs))
        return self._decoder[1]

    def encode_pairs(self, pairs) -> np.ndarray:
        """Encode ``(a, b)`` matrix pairs as one ``(n_inputs, batch)`` int8 block.

        Column ``k`` carries pair ``k``: A on ``encoding_a``'s wires and B on
        ``encoding_b``'s, each side encoded in one array pass.
        """
        pairs = list(pairs)
        block = np.zeros((self.circuit.n_inputs, len(pairs)), dtype=np.int8)
        for side, encoding in enumerate((self.encoding_a, self.encoding_b)):
            stacked = stack_matrices([pair[side] for pair in pairs], self.n)
            block[encoding.offset : encoding.offset + encoding.total_wires] = (
                encoding.encode(stacked)
            )
        return block

    def decode_outputs(self, outputs: np.ndarray) -> List[np.ndarray]:
        """Products from an ``(n_outputs, batch)`` block of output rows.

        Returns one ``(n, n)`` object array of Python ints per column.
        """
        plan = self.decode_plan
        sums = plan.decode(outputs).astype(object)
        return list(sums.T.reshape((outputs.shape[1],) + plan.shape))

    def evaluate(self, a, b) -> np.ndarray:
        """Compute ``A @ B`` with the threshold circuit (exact integers).

        Evaluation routes through the execution engine (``self.engine``, or
        the process-wide default), so repeated products on the same
        construction share one compiled program.
        """
        return self.evaluate_batch([(a, b)])[0]

    def evaluate_batch(self, pairs) -> List[np.ndarray]:
        """Compute many products ``A_k @ B_k`` with one batched evaluation.

        ``pairs`` is an iterable of ``(a, b)`` matrix pairs; all of them are
        encoded into one input block and evaluated in a single engine call,
        so wide query streams ride the batch scheduler (and, when the engine
        is configured with workers, the persistent evaluation service).
        """
        result = self._engine().evaluate(self.circuit, self.encode_pairs(pairs))
        return self.decode_outputs(result.outputs)

    def submit_batch(self, pairs):
        """Asynchronous :meth:`evaluate_batch`: a future of the product list.

        Rides :meth:`Engine.submit`, so independent constructions can keep
        the persistent service's workers busy while this batch is in flight.
        The product decode runs on the shared transform executor, not on the
        service dispatcher thread that completes the inner future.
        """
        from repro.engine.service import chain_future, transform_executor

        inner = self._engine().submit(self.circuit, self.encode_pairs(pairs))
        return chain_future(
            inner,
            lambda result: self.decode_outputs(result.outputs),
            executor=transform_executor(),
        )

    @staticmethod
    def reference(a, b) -> np.ndarray:
        """Exact integer product used as the validation oracle."""
        return as_exact_array(a) @ as_exact_array(b)


def build_matmul_circuit(
    n: int,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    schedule: Optional[LevelSchedule] = None,
    depth_parameter: Optional[int] = None,
    stages: int = 1,
    share_gates: bool = False,
    engine=None,
    vectorize: bool = True,
    banked: bool = True,
) -> MatmulCircuit:
    """Build the Theorem 4.8 / 4.9 circuit computing ``C = AB``.

    See :func:`repro.core.trace_circuit.build_trace_circuit` for the meaning
    of the common parameters (including ``engine``, ``vectorize`` and
    ``banked``).
    """
    from repro.core.trace_circuit import default_bit_width

    algorithm = algorithm if algorithm is not None else strassen_2x2()
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    schedule = (
        schedule
        if schedule is not None
        else schedule_for(algorithm, n, depth_parameter=depth_parameter)
    )
    builder = CircuitBuilder(
        name=f"matmul-{algorithm.name}-n{n}",
        share_gates=share_gates,
        vectorize=vectorize,
        banked=banked,
    )
    encoding_a, encoding_b, entries = assemble_matmul_circuit(
        builder, n, bit_width, algorithm, schedule, stages=stages
    )
    circuit = builder.build()
    circuit.metadata.update(
        {
            "kind": "matmul",
            "n": n,
            "bit_width": bit_width,
            "algorithm": algorithm.name,
            "schedule": list(schedule.levels),
            "stages": stages,
        }
    )
    return MatmulCircuit(
        circuit=circuit,
        encoding_a=encoding_a,
        encoding_b=encoding_b,
        entries=entries,
        n=n,
        bit_width=bit_width,
        algorithm=algorithm,
        schedule=schedule,
        stages=stages,
        engine=engine,
    )

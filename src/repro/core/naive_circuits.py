"""The naive Theta(N^3)-gate baselines from the paper's introduction.

Two constructions are provided:

* :func:`build_naive_triangle_circuit` — the depth-2 circuit described
  verbatim in Section 1: one input ``x_ij`` per vertex pair, one gate
  ``g_ijk = [x_ij + x_ik + x_jk >= 3]`` per vertex triple, and one output
  gate ``[sum g_ijk >= tau]``.  Exactly ``C(N, 3) + 1`` gates — the size the
  subcubic circuits are measured against (experiment E4).
* :func:`build_naive_matmul_circuit` — the definition-based product circuit
  for integer matrices: one Lemma 3.3 product per ``(i, k, j)`` triple and a
  depth-2 Lemma 3.2 sum per output entry, i.e. ``Theta(N^3 b^2)`` gates in
  depth 3.  This is the integer-matrix counterpart of the naive baseline.
* :func:`build_naive_trace_circuit` — the same idea specialized to
  ``trace(A^3) >= tau``: triple products over all index triples and a single
  output gate, depth 2, ``Theta(N^3 b^3)`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from repro.arithmetic.comparator import build_ge_comparison
from repro.arithmetic.product import build_signed_product_banks, build_signed_products
from repro.arithmetic.signed import Rep, SignedValue
from repro.arithmetic.weighted_sum import build_signed_sum, build_signed_sum_banks
from repro.circuits.builder import CircuitBuilder
from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import simulate
from repro.core.leaf_builder import matrix_of_input_banks, matrix_of_inputs
from repro.core.matmul_circuit import MatmulCircuit
from repro.core.trace_circuit import TraceCircuit, default_bit_width
from repro.util.encoding import MatrixEncoding

__all__ = [
    "NaiveTriangleCircuit",
    "build_naive_triangle_circuit",
    "build_naive_matmul_circuit",
    "build_naive_trace_circuit",
]


@dataclass
class NaiveTriangleCircuit:
    """The introduction's depth-2 triangle-threshold circuit."""

    circuit: ThresholdCircuit
    n: int
    tau: int
    edge_index: dict

    def encode(self, adjacency) -> np.ndarray:
        """Encode a symmetric 0/1 adjacency matrix onto the edge inputs."""
        adjacency = np.asarray(adjacency)
        if adjacency.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} adjacency matrix")
        pairs = np.array(list(self.edge_index), dtype=np.int64).reshape(-1, 2)
        wires = np.fromiter(self.edge_index.values(), dtype=np.int64, count=len(pairs))
        vec = np.zeros(self.circuit.n_inputs, dtype=np.int8)
        vec[wires] = adjacency[pairs[:, 0], pairs[:, 1]] != 0
        return vec

    def evaluate(self, adjacency) -> bool:
        """Decide whether the graph has at least ``tau`` triangles.

        Evaluates through the default engine, sharing its compile cache.
        """
        result = simulate(self.circuit, self.encode(adjacency))
        return bool(np.atleast_1d(result.outputs)[0])


def build_naive_triangle_circuit(
    n: int, tau: int, vectorize: bool = True
) -> NaiveTriangleCircuit:
    """Build the Section 1 depth-2 circuit with exactly ``C(n,3) + 1`` gates.

    With ``vectorize=True`` (default) the ``C(n,3)`` triangle gates and the
    output gate are emitted as two bulk array appends; ``vectorize=False``
    keeps the per-gate loop (the two paths build identical circuits).
    """
    if n < 3:
        raise ValueError(f"triangle counting needs at least 3 vertices, got {n}")
    builder = CircuitBuilder(name=f"naive-triangles-n{n}", vectorize=vectorize)
    pairs = list(combinations(range(n), 2))
    wires = builder.allocate_inputs(len(pairs), "edges")
    edge_index = {pair: wire for pair, wire in zip(pairs, wires)}

    # Duck-typed guard (a CountingBuilder or any builder without the
    # attribute must fall back to the per-gate path, not raise).
    if getattr(builder, "stamper", None) is not None:
        # Triangle gate (i, j, k) reads edges (i,j), (i,k), (j,k); the wire
        # triples are assembled as one flat array in combinations order.
        triples = np.fromiter(
            (
                edge_index[pair]
                for i, j, k in combinations(range(n), 3)
                for pair in ((i, j), (i, k), (j, k))
            ),
            dtype=np.int64,
        )
        n_triangles = len(triples) // 3
        offsets = np.arange(n_triangles + 1, dtype=np.int64) * 3
        triangle_ids = builder.add_gates(
            triples,
            offsets,
            np.ones(len(triples), dtype=np.int64),
            np.full(n_triangles, 3, dtype=np.int64),
            tag="naive/triangle",
            canonicalize=False,
        )
        output_ids = builder.add_gates(
            triangle_ids,
            np.asarray([0, n_triangles], dtype=np.int64),
            np.ones(n_triangles, dtype=np.int64),
            np.asarray([tau], dtype=np.int64),
            tag="naive/output",
            canonicalize=False,
        )
        output = int(output_ids[0])
    else:
        triangle_gates: List[int] = []
        for i, j, k in combinations(range(n), 3):
            sources = [edge_index[(i, j)], edge_index[(i, k)], edge_index[(j, k)]]
            triangle_gates.append(
                builder.add_gate(sources, [1, 1, 1], 3, tag="naive/triangle")
            )
        output = builder.add_gate(
            triangle_gates, [1] * len(triangle_gates), tau, tag="naive/output"
        )
    builder.set_outputs([output], [f"triangles >= {tau}"])
    circuit = builder.build()
    circuit.metadata.update(
        {
            "kind": "naive-triangles",
            "n": n,
            "tau": tau,
        }
    )
    return NaiveTriangleCircuit(circuit=circuit, n=n, tau=tau, edge_index=edge_index)


def build_naive_matmul_circuit(
    n: int,
    bit_width: Optional[int] = None,
    stages: int = 1,
    vectorize: bool = True,
    banked: bool = True,
) -> MatmulCircuit:
    """Definition-based product circuit: ``C_ij = sum_k A_ik B_kj`` (depth 3).

    ``stages`` selects the Theorem 4.1 staged addition circuits for the
    output sums (``stages=1`` is the paper's depth-2 Lemma 3.2 path);
    ``vectorize=False`` forces the legacy per-gate construction and
    ``banked=False`` the stamped-but-scalar stage interface (all paths
    build bit-identical circuits).
    """
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    builder = CircuitBuilder(
        name=f"naive-matmul-n{n}", vectorize=vectorize, banked=banked
    )
    a_wires = builder.allocate_inputs(n * n * 2 * bit_width, "A")
    b_wires = builder.allocate_inputs(n * n * 2 * bit_width, "B")
    encoding_a = MatrixEncoding(n, bit_width, offset=a_wires[0])
    encoding_b = MatrixEncoding(n, bit_width, offset=b_wires[0])

    entries = np.empty((n, n), dtype=object)
    if builder.use_banks:
        # Banked pipeline: the n inner products of an entry are one factor
        # gather per matrix and one stamped batch; the entry sum consumes
        # the product bank rows as its terms.  Only the n^2 output entries
        # ever materialize as scalar objects.
        bank_a = matrix_of_input_banks(encoding_a)
        bank_b = matrix_of_input_banks(encoding_b)
        row_banks = [
            bank_a.gather(np.arange(i * n, (i + 1) * n, dtype=np.int64))
            for i in range(n)
        ]
        col_banks = [
            bank_b.gather(np.arange(j, n * n, n, dtype=np.int64)) for j in range(n)
        ]
        # One spread term: the n product rows are n consecutive sum terms.
        sum_rows = np.arange(n, dtype=np.int64)[None, :]
        for i in range(n):
            factors_a = row_banks[i]
            for j in range(n):
                products = build_signed_product_banks(
                    builder,
                    [factors_a, col_banks[j]],
                    tag="naive/product",
                )
                entry = build_signed_sum_banks(
                    builder,
                    [(products, sum_rows, 1)],
                    stages=stages,
                    tag="naive/sum",
                )
                entries[i, j] = entry.signed_binary(0)
    else:
        root_a = matrix_of_inputs(encoding_a)
        root_b = matrix_of_inputs(encoding_b)
        for i in range(n):
            for j in range(n):
                # One batched product call per output entry: the n inner
                # products share a bit layout, so the vectorizing builder
                # stamps them as one block before the entry's sum is emitted
                # (legacy order).
                products = build_signed_products(
                    builder,
                    [[root_a[i, k], root_b[k, j]] for k in range(n)],
                    tag="naive/product",
                )
                items = [(product, 1) for product in products]
                entries[i, j] = build_signed_sum(
                    builder, items, stages=stages, tag="naive/sum"
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
    circuit = builder.build()
    circuit.metadata.update(
        {
            "kind": "naive-matmul",
            "n": n,
            "bit_width": bit_width,
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
        algorithm=None,
        schedule=None,
    )


def build_naive_trace_circuit(
    n: int,
    tau: int,
    bit_width: Optional[int] = None,
    vectorize: bool = True,
    banked: bool = True,
) -> TraceCircuit:
    """Definition-based ``trace(A^3) >= tau`` circuit (depth 2, Theta(N^3) gates)."""
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    builder = CircuitBuilder(
        name=f"naive-trace-n{n}", vectorize=vectorize, banked=banked
    )
    wires = builder.allocate_inputs(n * n * 2 * bit_width, "A")
    encoding = MatrixEncoding(n, bit_width, offset=wires[0])

    pos_terms: List[Tuple[int, int]] = []
    neg_terms: List[Tuple[int, int]] = []
    if builder.use_banks:
        bank = matrix_of_input_banks(encoding)
        ks = np.arange(n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                # Instance k multiplies entries (i,j), (j,k), (k,i); the
                # degenerate diagonal triples (repeated entries) come back
                # as bank overrides from the in-place legacy fallback.
                products = build_signed_product_banks(
                    builder,
                    [
                        bank.gather(np.full(n, i * n + j, dtype=np.int64)),
                        bank.gather(j * n + ks),
                        bank.gather(ks * n + i),
                    ],
                    tag="naive/product",
                )
                for k in range(n):
                    value = products.signed_value(k)
                    pos_terms.extend(value.pos.terms)
                    neg_terms.extend(value.neg.terms)
    else:
        root = matrix_of_inputs(encoding)
        for i in range(n):
            for j in range(n):
                # Batch the n triples of one (i, j) row; degenerate diagonal
                # triples (repeated entries) transparently take the per-gate
                # fallback inside the stamping driver.
                products = build_signed_products(
                    builder,
                    [[root[i, j], root[j, k], root[k, i]] for k in range(n)],
                    tag="naive/product",
                )
                for product in products:
                    pos_terms.extend(product.pos.terms)
                    neg_terms.extend(product.neg.terms)
    total = SignedValue(Rep.from_terms(pos_terms), Rep.from_terms(neg_terms))
    output = build_ge_comparison(builder, total, tau, tag="naive/output")
    builder.set_outputs([output], [f"trace(A^3) >= {tau}"])
    circuit = builder.build()
    circuit.metadata.update(
        {
            "kind": "naive-trace",
            "n": n,
            "tau": tau,
            "bit_width": bit_width,
        }
    )
    return TraceCircuit(
        circuit=circuit,
        encoding=encoding,
        n=n,
        bit_width=bit_width,
        tau=tau,
        algorithm=None,
        schedule=None,
    )

"""The paper's core constructions (Section 4).

* :mod:`repro.core.trees` — the r-ary trees of Figure 2;
* :mod:`repro.core.schedule` — the level-selection schedules of Lemma 4.3,
  Theorem 4.4 (O(log log N) depth) and Theorem 4.5 (constant depth);
* :mod:`repro.core.leaf_builder`, :mod:`repro.core.product_stage`,
  :mod:`repro.core.recombine` — the three circuit stages;
* :mod:`repro.core.trace_circuit` — Theorems 4.4 / 4.5 (``trace(A^3) >= tau``);
* :mod:`repro.core.matmul_circuit` — Theorems 4.8 / 4.9 (``C = AB``);
* :mod:`repro.core.naive_circuits` — the Theta(N^3) baselines of Section 1;
* :mod:`repro.core.direct_circuit` — the Theorem 4.1 single-jump circuits;
* :mod:`repro.core.gate_count_model` — exact dry-run and analytic gate counts.
"""

from repro.core.trees import (
    edge_matrices,
    edge_term_counts,
    iter_paths,
    relative_functional,
    path_size,
    functional_weight_sum,
    subtree_size_sum,
    leaf_functionals,
)
from repro.core.schedule import (
    LevelSchedule,
    loglog_schedule,
    constant_depth_schedule,
    direct_schedule,
    every_k_schedule,
    schedule_for,
)
from repro.core.leaf_builder import matrix_of_input_banks, build_tree_levels
from repro.core.product_stage import build_leaf_products
from repro.core.recombine import build_product_tree
from repro.core.trace_circuit import (
    TraceCircuit,
    assemble_trace_circuit,
    build_trace_circuit,
    default_bit_width,
)
from repro.core.matmul_circuit import (
    MatmulCircuit,
    assemble_matmul_circuit,
    build_matmul_circuit,
)
from repro.core.naive_circuits import (
    NaiveTriangleCircuit,
    build_naive_triangle_circuit,
    build_naive_matmul_circuit,
    build_naive_trace_circuit,
)
from repro.core.direct_circuit import (
    build_direct_matmul_circuit,
    build_direct_trace_circuit,
)
from repro.core.gate_count_model import (
    CircuitCost,
    count_trace_circuit,
    count_matmul_circuit,
    naive_triangle_gate_count,
    analytic_cost,
    predicted_exponent,
    naive_exponent_fit,
)

__all__ = [
    "edge_matrices",
    "edge_term_counts",
    "iter_paths",
    "relative_functional",
    "path_size",
    "functional_weight_sum",
    "subtree_size_sum",
    "leaf_functionals",
    "LevelSchedule",
    "loglog_schedule",
    "constant_depth_schedule",
    "direct_schedule",
    "every_k_schedule",
    "schedule_for",
    "matrix_of_input_banks",
    "build_tree_levels",
    "build_leaf_products",
    "build_product_tree",
    "TraceCircuit",
    "assemble_trace_circuit",
    "build_trace_circuit",
    "default_bit_width",
    "MatmulCircuit",
    "assemble_matmul_circuit",
    "build_matmul_circuit",
    "NaiveTriangleCircuit",
    "build_naive_triangle_circuit",
    "build_naive_matmul_circuit",
    "build_naive_trace_circuit",
    "build_direct_matmul_circuit",
    "build_direct_trace_circuit",
    "CircuitCost",
    "count_trace_circuit",
    "count_matmul_circuit",
    "naive_triangle_gate_count",
    "analytic_cost",
    "predicted_exponent",
    "naive_exponent_fit",
]

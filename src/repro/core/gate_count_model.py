"""Gate-count models: exact dry-run counts and the paper's analytic bounds.

Two complementary models are provided.

**Exact dry-run counts** run the unchanged circuit constructions against a
:class:`~repro.circuits.counting.CountingBuilder`, so they report exactly the
size/depth/edges/fan-in of the circuit that :func:`build_trace_circuit` /
:func:`build_matmul_circuit` would produce — without allocating gate objects.
They enumerate the same ``N^omega`` leaves as the real construction, so they
are practical up to moderate N (a few thousand leaves per tree).

**Analytic estimates** evaluate the paper's counting lemmas (Lemma 4.2 / 4.3
for the leaf stage, Lemma 4.6 / 4.7 for the recombination stage, Lemma 3.3
for the product stage) with explicit unit constants.  They capture the
scaling behaviour — the exponent ``omega + c * gamma^d`` of Theorems 4.5/4.9
and the ``N^3`` baseline — and are used for the large-N sweeps of
EXPERIMENTS.md where explicit enumeration is out of reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.circuits.counting import CountingBuilder
from repro.core.matmul_circuit import assemble_matmul_circuit
from repro.core.schedule import LevelSchedule, schedule_for
from repro.core.trace_circuit import assemble_trace_circuit, default_bit_width
from repro.fastmm.bilinear import BilinearAlgorithm
from repro.fastmm.sparsity import sparsity_parameters
from repro.fastmm.strassen import strassen_2x2

__all__ = [
    "CircuitCost",
    "count_trace_circuit",
    "count_matmul_circuit",
    "naive_triangle_gate_count",
    "analytic_cost",
    "predicted_exponent",
    "naive_exponent_fit",
]


@dataclass(frozen=True)
class CircuitCost:
    """Exact resource usage of a construction (from a counting dry run)."""

    size: int
    depth: int
    edges: int
    max_fan_in: int
    n_inputs: int
    by_tag: Dict[str, int]

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view for reports."""
        return {
            "size": self.size,
            "depth": self.depth,
            "edges": self.edges,
            "max_fan_in": self.max_fan_in,
            "n_inputs": self.n_inputs,
        }


def _cost_from(builder: CountingBuilder) -> CircuitCost:
    return CircuitCost(
        size=builder.size,
        depth=builder.depth,
        edges=builder.edges,
        max_fan_in=builder.max_fan_in,
        n_inputs=builder.n_inputs,
        by_tag=builder.tag_counts(),
    )


def count_trace_circuit(
    n: int,
    tau: int = 1,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    schedule: Optional[LevelSchedule] = None,
    depth_parameter: Optional[int] = None,
    stages: int = 1,
) -> CircuitCost:
    """Exact size/depth of the Theorem 4.4/4.5 trace circuit, without building it.

    Counts through the bulk/stamping protocol: stamped gadget batches reuse
    the recorded template's gate/edge totals.
    """
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    schedule = (
        schedule
        if schedule is not None
        else schedule_for(algorithm, n, depth_parameter=depth_parameter)
    )
    builder = CountingBuilder(name="count-trace")
    assemble_trace_circuit(builder, n, tau, bit_width, algorithm, schedule, stages=stages)
    return _cost_from(builder)


def count_matmul_circuit(
    n: int,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    schedule: Optional[LevelSchedule] = None,
    depth_parameter: Optional[int] = None,
    stages: int = 1,
) -> CircuitCost:
    """Exact size/depth of the Theorem 4.8/4.9 product circuit, without building it."""
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    schedule = (
        schedule
        if schedule is not None
        else schedule_for(algorithm, n, depth_parameter=depth_parameter)
    )
    builder = CountingBuilder(name="count-matmul")
    assemble_matmul_circuit(builder, n, bit_width, algorithm, schedule, stages=stages)
    return _cost_from(builder)


def naive_triangle_gate_count(n: int) -> int:
    """Closed form for the introduction's baseline: ``C(n, 3) + 1`` gates."""
    return math.comb(n, 3) + 1


# --------------------------------------------------------------------------- #
# Analytic model (the paper's counting lemmas with unit constants).
# --------------------------------------------------------------------------- #


def _leaf_stage_estimate(
    n: int,
    t: int,
    bit_width: int,
    schedule: LevelSchedule,
    alpha: Fraction,
    beta: Fraction,
) -> int:
    """Lemma 4.2 summed over the schedule (Lemma 4.3) for one side.

    Exact rational arithmetic (alpha and beta are rationals, N is an
    integer), so the estimate never overflows even for astronomically large
    N — this is what makes the crossover analysis of
    :mod:`repro.analysis.crossover` possible.
    """
    total = Fraction(0)
    for g, h in zip(schedule.levels, schedule.levels[1:]):
        # equation (2): entries at level g need b + bits(T^{2g}) bits.
        width = bit_width + (t ** (2 * g) - 1).bit_length()
        total += (width + 1) * (alpha ** g) * (beta ** h) * n * n
    return int(math.ceil(total))


def analytic_cost(
    n: int,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    depth_parameter: Optional[int] = None,
    kind: str = "matmul",
) -> Dict[str, int]:
    """Analytic gate-count estimate per stage (unit constants, exact integers).

    Returns a dictionary with the per-stage estimates and their sum under
    ``"total"``.  The absolute values are model estimates; the scaling in N
    and d is the quantity of interest (see EXPERIMENTS.md).
    """
    if kind not in ("matmul", "trace"):
        raise ValueError(f"kind must be 'matmul' or 'trace', got {kind!r}")
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    bit_width = bit_width if bit_width is not None else default_bit_width(n)
    params = sparsity_parameters(algorithm)
    schedule = schedule_for(algorithm, n, depth_parameter=depth_parameter)

    leaf_a = _leaf_stage_estimate(
        n, algorithm.t, bit_width, schedule, params.side_A.alpha, params.side_A.beta
    )
    leaf_b = _leaf_stage_estimate(
        n, algorithm.t, bit_width, schedule, params.side_B.alpha, params.side_B.beta
    )
    n_leaves = algorithm.r ** schedule.leaf_level
    leaf_bits = bit_width + (algorithm.t ** (2 * schedule.leaf_level) - 1).bit_length()

    result: Dict[str, int] = {"leaves_A": leaf_a, "leaves_B": leaf_b}
    if kind == "trace":
        leaf_c = _leaf_stage_estimate(
            n, algorithm.t, bit_width, schedule, params.side_C.alpha, params.side_C.beta
        )
        result["leaves_pairing"] = leaf_c
        result["products"] = 8 * n_leaves * leaf_bits ** 3
        result["output"] = 1
    else:
        result["products"] = 4 * n_leaves * leaf_bits ** 2
        result["recombination"] = _leaf_stage_estimate(
            n, algorithm.t, bit_width, schedule, params.side_C.alpha, params.side_C.beta
        )
    result["total"] = sum(result.values())
    result["schedule_levels"] = schedule.t_steps
    return result


def predicted_exponent(
    algorithm: Optional[BilinearAlgorithm] = None,
    depth_parameter: Optional[int] = None,
    side: str = "A",
) -> float:
    """The paper's gate-count exponent: ``omega`` (Thm 4.4/4.8) or
    ``omega + c * gamma^d`` (Thm 4.5/4.9)."""
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    params = sparsity_parameters(algorithm)
    sides = {"A": params.side_A, "B": params.side_B, "C": params.side_C}
    sp = sides[side]
    if depth_parameter is None:
        return algorithm.omega
    return algorithm.omega + sp.c * (sp.gamma ** depth_parameter)


def naive_exponent_fit(counts: Dict[int, int]) -> float:
    """Least-squares slope of ``log(count)`` versus ``log(N)``.

    Used by the experiment harness to compare measured scaling exponents
    against :func:`predicted_exponent` and against the cubic baseline.
    """
    if len(counts) < 2:
        raise ValueError("need at least two (N, count) points to fit an exponent")
    xs = [math.log(n) for n in counts]
    ys = [math.log(max(c, 1)) for c in counts.values()]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den

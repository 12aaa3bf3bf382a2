"""E13 — Ablation: the Lemma 4.3 geometric schedule vs the alternatives.

The paper notes (Sections 2.2 and 4.2) that "simply selecting every kth
level does not achieve our best results" and that the natural single-jump
strategy is far worse.  Two views are reported:

* the *leaf-stage* gate estimate (the quantity Lemma 4.2/4.3 actually
  bounds) evaluated with exact rational arithmetic at a large N, where the
  asymptotics are visible, for the geometric, every-k and single-jump
  schedules under the same depth budget;
* exact dry-run counts of full trace circuits at a small N, where the
  product stage still dominates, as the finite-size counterpart.

A second benchmark measures what structural gate sharing buys on a
constructed circuit: the ``deduplicate_gates`` post-pass merges gates with
equal sources, weights and threshold.
"""

from fractions import Fraction

from benchmarks.conftest import report
from repro.circuits.optimize import deduplicate_gates
from repro.core import build_trace_circuit, count_trace_circuit
from repro.core.gate_count_model import _leaf_stage_estimate
from repro.core.schedule import (
    LevelSchedule,
    constant_depth_schedule,
    direct_schedule,
    every_k_schedule,
)
from repro.fastmm import sparsity_parameters, strassen_2x2


def test_e13_schedule_ablation_leaf_stage(benchmark):
    algorithm = strassen_2x2()
    params = sparsity_parameters(algorithm).side_A
    exponent = 40
    n = 2 ** exponent

    def compute_rows():
        geometric = constant_depth_schedule(algorithm, n, 4)
        candidates = [
            ("Lemma 4.3 geometric (d=4)", geometric),
            ("every 10th level (same #levels)", every_k_schedule(algorithm, n, 10)),
            ("single jump (Section 4.2 motivation)", direct_schedule(algorithm, n)),
        ]
        rows = []
        for name, schedule in candidates:
            estimate = _leaf_stage_estimate(
                n, algorithm.t, 1, schedule, params.alpha, params.beta
            )
            rows.append(
                {
                    "schedule": name,
                    "levels": str(list(schedule.levels)),
                    "steps t": schedule.t_steps,
                    "leaf-stage gates (model)": float(estimate),
                    "gates / N^3": float(Fraction(estimate, n ** 3)),
                }
            )
        return rows

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report(f"E13: leaf-stage estimate at N=2^{exponent} (Lemma 4.2/4.3 model)", rows)
    geometric, uniform, single = rows
    assert geometric["leaf-stage gates (model)"] < uniform["leaf-stage gates (model)"]
    assert geometric["leaf-stage gates (model)"] < single["leaf-stage gates (model)"]
    assert geometric["steps t"] <= 4


def test_e13_schedule_ablation_exact_small_n(benchmark):
    algorithm = strassen_2x2()
    n = 8

    def compute_rows():
        rows = []
        for name, schedule in (
            ("Lemma 4.3 geometric (d=3)", constant_depth_schedule(algorithm, n, 3)),
            ("single jump", direct_schedule(algorithm, n)),
            ("every level", every_k_schedule(algorithm, n, 1)),
        ):
            cost = count_trace_circuit(n, bit_width=1, schedule=schedule)
            rows.append(
                {
                    "schedule": name,
                    "levels": str(list(schedule.levels)),
                    "gates": cost.size,
                    "depth": cost.depth,
                }
            )
        return rows

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E13: exact dry-run trace-circuit counts at N=8", rows)
    geometric, single, every_level = rows
    assert geometric["gates"] < single["gates"]
    assert geometric["depth"] < every_level["depth"]


def test_e13_gate_sharing_ablation(benchmark):
    def compute_rows():
        built = build_trace_circuit(8, 10, bit_width=1, depth_parameter=3).circuit
        shared, _ = deduplicate_gates(built)
        return [
            {
                "gate sharing": share,
                "gates": circuit.size,
                "edges": circuit.edges,
                "depth": circuit.depth,
            }
            for share, circuit in ((False, built), (True, shared))
        ]

    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    report("E13: structural gate sharing (deduplicate_gates post-pass) at N=8", rows)
    assert rows[1]["gates"] <= rows[0]["gates"]
    assert rows[1]["depth"] == rows[0]["depth"]

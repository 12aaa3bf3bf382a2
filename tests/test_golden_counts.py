"""Golden-fixture regression tests for the canonical constructions.

The equivalence harness (``test_compile_equivalence``) pins the *internal*
consistency of the construction and compile paths against each other — but
a change that drifts every path in lockstep (a gadget emitting one extra
gate, a depth off by one, an energy regression) would sail through it.
These tests pin the constructions against serialized ground truth instead:
``tests/fixtures/golden_counts.json`` holds the structural hash and the
gate / wire / depth / energy counts of each canonical small construction,
so silent construction drift fails fast with a readable field-by-field diff.

When a change *intentionally* alters a construction, regenerate with::

    GOLDEN_REGEN=1 python -m pytest tests/test_golden_counts.py

and commit the updated fixture together with the change that explains it.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.direct_circuit import build_direct_matmul_circuit
from repro.core.matmul_circuit import build_matmul_circuit
from repro.core.naive_circuits import (
    build_naive_matmul_circuit,
    build_naive_trace_circuit,
    build_naive_triangle_circuit,
)
from repro.core.trace_circuit import build_trace_circuit
from repro.engine import Engine

FIXTURE = Path(__file__).parent / "fixtures" / "golden_counts.json"

#: One or two small constructions per family.
CANONICAL_CASES = {
    "naive-triangles-n6-tau2": lambda: build_naive_triangle_circuit(6, tau=2).circuit,
    "naive-matmul-n4-b1-stages1": lambda: build_naive_matmul_circuit(
        4, bit_width=1
    ).circuit,
    "naive-matmul-n4-b1-stages2": lambda: build_naive_matmul_circuit(
        4, bit_width=1, stages=2
    ).circuit,
    "naive-trace-n4-b1-tau1": lambda: build_naive_trace_circuit(
        4, tau=1, bit_width=1
    ).circuit,
    "matmul-strassen-n4-b1": lambda: build_matmul_circuit(4, bit_width=1).circuit,
    "trace-strassen-n4-b1-tau0": lambda: build_trace_circuit(
        4, tau=0, bit_width=1
    ).circuit,
    "direct-matmul-n4-b1-stages2": lambda: build_direct_matmul_circuit(
        4, bit_width=1, stages=2
    ).circuit,
}

#: Every construction pinned by the fixture.  Each row's circuit was checked
#: equal to its per-gate and stamped-but-scalar builds before those
#: construction paths were removed, so the rows stand in for them.
CASES = {
    **CANONICAL_CASES,
    # Bit width 2 is the default at n=3 and n=4.
    "matmul-strassen-n4-d1": lambda: build_matmul_circuit(
        4, depth_parameter=1
    ).circuit,
    "trace-strassen-d2-n4-tau10": lambda: build_trace_circuit(
        4, 10, depth_parameter=2
    ).circuit,
    "trace-strassen-d2-n4-tau7": lambda: build_trace_circuit(
        4, 7, depth_parameter=2
    ).circuit,
    "naive-trace-n3-tau5": lambda: build_naive_trace_circuit(3, 5).circuit,
    "naive-matmul-n4-stages2": lambda: build_naive_matmul_circuit(
        4, stages=2
    ).circuit,
    "direct-matmul-n4-stages2": lambda: build_direct_matmul_circuit(
        4, stages=2
    ).circuit,
    # The differential harness's construction families.
    "naive-matmul-n3-b1-stages2": lambda: build_naive_matmul_circuit(
        3, bit_width=1, stages=2
    ).circuit,
    "naive-trace-n3-b1-tau1": lambda: build_naive_trace_circuit(
        3, tau=1, bit_width=1
    ).circuit,
    "naive-triangles-n5-tau2": lambda: build_naive_triangle_circuit(5, tau=2).circuit,
    "matmul-strassen-n2-b1": lambda: build_matmul_circuit(2, bit_width=1).circuit,
    "trace-strassen-n2-b1-tau0": lambda: build_trace_circuit(
        2, tau=0, bit_width=1
    ).circuit,
    "direct-matmul-n2-b1-stages2": lambda: build_direct_matmul_circuit(
        2, bit_width=1, stages=2
    ).circuit,
}
CASES.update(
    {
        f"matmul-strassen-n{n}-b{bw}-d1-stages{s}": (
            lambda n=n, bw=bw, s=s: build_matmul_circuit(
                n, bit_width=bw, depth_parameter=1, stages=s
            ).circuit
        )
        for n in (2, 4)
        for bw in (1, 2)
        for s in (1, 2)
    }
)


def _golden_row(circuit) -> dict:
    """Everything a construction must reproduce exactly, as plain JSON."""
    stats = circuit.stats()
    # Deterministic energy probe: the all-ones assignment fires the maximal
    # gate population of these monotone-ish constructions, and a fixed
    # counter pattern catches value-dependent drift.
    ones = np.ones((circuit.n_inputs, 1), dtype=np.int64)
    pattern = (np.arange(circuit.n_inputs, dtype=np.int64) % 2)[:, None]
    inputs = np.concatenate([ones, pattern], axis=1)
    result = Engine().evaluate(circuit, inputs)
    return {
        "structural_hash": circuit.structural_hash(),
        "n_inputs": stats.n_inputs,
        "gates": stats.size,
        "wires": stats.edges,
        "depth": stats.depth,
        "max_fan_in": stats.max_fan_in,
        "max_abs_weight": stats.max_abs_weight,
        "n_outputs": stats.n_outputs,
        "template_blocks": len(circuit.template_blocks),
        "energy_all_ones": int(result.energy[0]),
        "energy_alternating": int(result.energy[1]),
    }


def _load_fixture() -> dict:
    if not FIXTURE.exists():
        pytest.fail(
            f"missing golden fixture {FIXTURE}; regenerate with GOLDEN_REGEN=1"
        )
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_counts(name):
    row = _golden_row(CASES[name]())
    if os.environ.get("GOLDEN_REGEN") == "1":
        data = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        data[name] = row
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated golden row for {name}")
    golden = _load_fixture()
    assert name in golden, f"no golden row for {name}; run with GOLDEN_REGEN=1"
    expected = golden[name]
    diffs = [
        f"  {field}: expected {expected[field]!r}, got {row.get(field)!r}"
        for field in expected
        if row.get(field) != expected[field]
    ]
    extra = [field for field in row if field not in expected]
    if extra:
        diffs.append(f"  fields missing from fixture: {extra}")
    assert not diffs, (
        f"construction drift in {name} "
        f"(GOLDEN_REGEN=1 to accept intentional changes):\n" + "\n".join(diffs)
    )


def test_fixture_has_no_orphan_rows():
    golden = _load_fixture()
    orphans = sorted(set(golden) - set(CASES))
    assert not orphans, f"fixture rows without a test case: {orphans}"

"""Counting-model parity: dry-run counts must equal the built circuits.

The whole point of running the unchanged constructions against
:class:`CountingBuilder` is that the reported size/depth/edges/fan-in and
per-tag counts *cannot* drift from the real builders.  With the counting
builder riding the bulk/template path, that guarantee is load bearing —
this suite pins it against the built circuits across ``stages``, bit
widths and schedules for both the matmul and the trace circuits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.gate_count_model import count_matmul_circuit, count_trace_circuit
from repro.core.matmul_circuit import build_matmul_circuit
from repro.core.trace_circuit import build_trace_circuit


def _tag_counts(circuit):
    cols = circuit.columnar()
    store = circuit.store
    counts = {}
    for code, count in enumerate(np.bincount(cols.tag_codes).tolist()):
        tag = store.tag_of_code(code)
        if tag and count:
            counts[tag] = count
    return counts


def _assert_cost_matches(cost, circuit):
    stats = circuit.stats()
    assert cost.size == stats.size
    assert cost.depth == stats.depth
    assert cost.edges == stats.edges
    assert cost.max_fan_in == stats.max_fan_in
    assert cost.n_inputs == stats.n_inputs
    assert cost.by_tag == _tag_counts(circuit)


@given(
    n=st.sampled_from([2, 4]),
    stages=st.integers(min_value=1, max_value=2),
    bit_width=st.integers(min_value=1, max_value=2),
    depth_parameter=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_count_matmul_matches_built_stats(n, stages, bit_width, depth_parameter):
    cost = count_matmul_circuit(
        n, bit_width=bit_width, depth_parameter=depth_parameter, stages=stages
    )
    built = build_matmul_circuit(
        n, bit_width=bit_width, depth_parameter=depth_parameter, stages=stages
    )
    _assert_cost_matches(cost, built.circuit)


@given(
    n=st.sampled_from([2, 4]),
    stages=st.integers(min_value=1, max_value=2),
    tau=st.integers(min_value=-3, max_value=8),
)
@settings(max_examples=20, deadline=None)
def test_count_trace_matches_built_stats(n, stages, tau):
    cost = count_trace_circuit(n, tau=tau, depth_parameter=1, stages=stages)
    built = build_trace_circuit(n, tau, depth_parameter=1, stages=stages)
    _assert_cost_matches(cost, built.circuit)


def test_count_default_schedule_matches_built():
    # The log-log default schedule exercises multi-level recombination.
    cost = count_matmul_circuit(8)
    built = build_matmul_circuit(8)
    _assert_cost_matches(cost, built.circuit)

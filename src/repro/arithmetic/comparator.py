"""Threshold comparison of a signed value against an integer constant.

This is the final output gate of the trace circuit (Section 4.3): a single
threshold gate over the terms of a signed representation decides
``value >= tau``.  Because representations are weighted sums of gate
outputs, the comparison needs exactly one gate and one extra layer — no bits
of the value need to be materialized first.

The output gate of a constructed trace circuit reads *every* leaf-product
term, so its fan-in is of the order of the whole circuit; the comparison is
therefore emitted through the bulk array path when the builder supports it,
avoiding a million-element Python tuple canonicalization pass.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List

import numpy as np

from repro.arithmetic.signed import Rep, SignedValue, SignedValueBank
from repro.circuits.builder import CircuitBuilder

__all__ = [
    "build_ge_comparison",
    "build_ge_comparison_banks",
    "build_range_membership",
]


def build_ge_comparison(
    builder: CircuitBuilder,
    value: SignedValue,
    threshold: int,
    tag: str = "compare",
) -> int:
    """Single gate deciding whether a signed representation is ``>= threshold``."""
    pos = value.pos.terms
    neg = value.neg.terms
    if getattr(builder, "counts_only", False) and (pos or neg):
        # Dry-run shortcut: one gate whose fan-in and depth are closed-form;
        # the weight values never matter for counting.
        fan = len(pos) + len(neg)
        sources = np.fromiter(
            itertools.chain((n for n, _ in pos), (n for n, _ in neg)),
            dtype=np.int64,
            count=fan,
        )
        depth = int(builder.node_depths_of(sources).max()) + 1
        node_ids = builder.add_gate_rows(
            np.asarray([fan], dtype=np.int64),
            np.asarray([depth], dtype=np.int64),
            tag_counts={tag: 1},
        )
        return int(node_ids[0])
    if getattr(builder, "stamper", None) is not None and (pos or neg):
        fan = len(pos) + len(neg)
        try:
            sources = np.fromiter(
                itertools.chain(
                    (n for n, _ in pos), (n for n, _ in neg)
                ),
                dtype=np.int64,
                count=fan,
            )
            weights = np.fromiter(
                itertools.chain(
                    (w for _, w in pos), (-w for _, w in neg)
                ),
                dtype=np.int64,
                count=fan,
            )
            thresholds = np.asarray([int(threshold)], dtype=np.int64)
        except OverflowError:
            sources = None  # weights/threshold beyond int64: exact path below
        if sources is not None:
            node_ids = builder.add_gates(
                sources,
                np.asarray([0, fan], dtype=np.int64),
                weights,
                thresholds,
                tag=tag,
            )
            return int(node_ids[0])
    gate_sources = [n for n, _ in pos] + [n for n, _ in neg]
    gate_weights = [w for _, w in pos] + [-w for _, w in neg]
    return builder.add_gate(gate_sources, gate_weights, int(threshold), tag=tag)


def build_ge_comparison_banks(
    builder,
    values: Iterable[SignedValueBank],
    threshold: int,
    tag: str = "compare",
) -> int:
    """Single comparison gate over the summed terms of many banked values.

    ``values`` are single-row bank views in emission order (the trace
    circuit's leaf products); their positive and negative terms are
    concatenated by arrays instead of materializing one giant ``Rep``.  The
    exact scalar assembly sorts and merges the combined terms
    (``Rep.from_terms``); stamped banks emit their gates in ascending id
    order, so the concatenation is already sorted — this is verified, and
    any violation (or an override row) falls back to the scalar assembly.
    """
    values = list(values)
    pos_nodes: List[np.ndarray] = []
    pos_weights: List[np.ndarray] = []
    neg_nodes: List[np.ndarray] = []
    neg_weights: List[np.ndarray] = []
    clean = True
    for value in values:
        if not isinstance(value, SignedValueBank) or value.overrides is not None:
            clean = False
            break
        if value.pos.n_terms:
            pos_nodes.append(value.pos.nodes[0])
            pos_weights.append(value.pos.weights_array())
        if value.neg.n_terms:
            neg_nodes.append(value.neg.nodes[0])
            neg_weights.append(value.neg.weights_array())
    if clean:
        pos_cat = (
            np.concatenate(pos_nodes) if pos_nodes else np.empty(0, dtype=np.int64)
        )
        neg_cat = (
            np.concatenate(neg_nodes) if neg_nodes else np.empty(0, dtype=np.int64)
        )
        if bool((np.diff(pos_cat) > 0).all()) and bool((np.diff(neg_cat) > 0).all()):
            fan = len(pos_cat) + len(neg_cat)
            if fan == 0:
                return build_ge_comparison(
                    builder, SignedValue(), int(threshold), tag=tag
                )
            sources = np.concatenate([pos_cat, neg_cat])
            if getattr(builder, "counts_only", False):
                depth = int(builder.node_depths_of(sources).max()) + 1
                node_ids = builder.add_gate_rows(
                    np.asarray([fan], dtype=np.int64),
                    np.asarray([depth], dtype=np.int64),
                    tag_counts={tag: 1},
                )
                return int(node_ids[0])
            weights = np.concatenate(pos_weights + [-w for w in neg_weights])
            try:
                thresholds = np.asarray([int(threshold)], dtype=np.int64)
            except OverflowError:
                thresholds = np.empty(1, dtype=object)
                thresholds[0] = int(threshold)
            node_ids = builder.add_gates(
                sources,
                np.asarray([0, fan], dtype=np.int64),
                weights,
                thresholds,
                tag=tag,
            )
            return int(node_ids[0])
    # Exact fallback: materialize and merge like the legacy assembly.
    pos_terms: List = []
    neg_terms: List = []
    for value in values:
        scalar = value.signed_value(0) if isinstance(value, SignedValueBank) else value
        pos_terms.extend(scalar.pos.terms)
        neg_terms.extend(scalar.neg.terms)
    total = SignedValue(Rep.from_terms(pos_terms), Rep.from_terms(neg_terms))
    return build_ge_comparison(builder, total, int(threshold), tag=tag)


def build_range_membership(
    builder: CircuitBuilder,
    value: SignedValue,
    low: int,
    high: int,
    tag: str = "range",
) -> int:
    """Depth-2 circuit deciding ``low <= value < high``.

    Built from two comparison gates and one combining gate; provided as a
    convenience for applications that ask windowed questions (e.g. "does the
    graph have between low and high triangles?").
    """
    if high <= low:
        raise ValueError(f"empty range [{low}, {high})")
    at_least_low = build_ge_comparison(builder, value, low, tag=f"{tag}/low")
    at_least_high = build_ge_comparison(builder, value, high, tag=f"{tag}/high")
    return builder.add_gate(
        [at_least_low, at_least_high], [1, -1], 1, tag=f"{tag}/combine"
    )

"""Lemma 3.1: extracting bits of a weighted sum of bits with a depth-2 circuit.

Given an integer-weighted sum of binary variables ``s = sum_i w_i x_i`` with
``s`` guaranteed to lie in ``[0, 2**l)``, the k-th *most significant* bit of
``s`` (viewing ``s`` as an ``l``-bit number) is 1 exactly when ``s`` falls in
an interval ``[i * 2**(l-k), (i+1) * 2**(l-k))`` for some odd ``i < 2**k``.
The circuit therefore has a first layer of ``2**k`` *interval gates*
``y_i = [s >= i * 2**(l-k)]`` and a single output gate
``[sum_{i odd}(y_i - y_{i+1}) >= 1]`` — ``2**k + 1`` gates in depth 2
(Muroga 1959 / Siu et al. 1991, as cited by the paper).

This module provides:

* :func:`build_kth_msb` — the construction exactly as stated in Lemma 3.1;
* :func:`plan_full_extraction` / :func:`build_full_extraction` — the
  "workhorse" used by Lemma 3.2: extract *all* bits of a weighted sum of
  bits.  For each output bit ``j`` (LSB-first, 1-indexed) only the terms
  whose weight is not divisible by ``2**j`` matter modulo ``2**j``, which is
  the generalization of the truncation argument in the paper's proof of
  Lemma 3.2 to arbitrary term weights.  The planner is shared by the circuit
  builder and by the dry-run gate-count model, so predicted and constructed
  gate counts agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.builder import CircuitBuilder
from repro.circuits.gate import canonical_parts
from repro.util.bits import bits

__all__ = [
    "build_kth_msb",
    "BitPlan",
    "ExtractionPlan",
    "plan_full_extraction",
    "build_full_extraction",
    "count_full_extraction",
]

Term = Tuple[int, int]  # (node_id, positive weight)


def build_kth_msb(
    builder: CircuitBuilder,
    terms: Sequence[Term],
    l: int,
    k: int,
    tag: str = "lemma3.1",
) -> int:
    """Build the Lemma 3.1 circuit for the k-th most significant bit.

    Parameters
    ----------
    builder:
        Circuit builder to emit gates into.
    terms:
        The weighted sum ``s`` as ``(node, weight)`` pairs.  Weights may be
        any integers as long as ``s`` is guaranteed nonnegative.
    l:
        Guaranteed bound ``s < 2**l``.
    k:
        Which most-significant bit to extract, ``1 <= k <= l``.

    Returns
    -------
    int
        Node id of the output gate (depth 2 above the deepest source).
    """
    if l <= 0:
        raise ValueError(f"l must be positive, got {l}")
    if not (1 <= k <= l):
        raise ValueError(f"k must satisfy 1 <= k <= l, got k={k}, l={l}")
    step = 1 << (l - k)
    m = 1 << k
    if getattr(builder, "counts_only", False) and (
        getattr(builder, "stamper", None) is not None
        or getattr(builder, "prefers_bulk", False)
    ):
        # Dry-run shortcut (counting builders and wireless recorders): the
        # bank's shape is known in closed form — m interval gates over the
        # merged source row plus one select gate — so neither wires, weights
        # nor thresholds are ever materialized.  ``np.unique`` mirrors the
        # canonical duplicate-source merge of the real builder.
        if terms:
            unique = np.unique(
                np.fromiter((n for n, _ in terms), dtype=np.int64, count=len(terms))
            )
            fan = int(unique.size)
            depth = int(builder.node_depths_of(unique).max())
        else:
            fan = 0
            depth = 0
        fan_ins = np.full(m + 1, fan, dtype=np.int64)
        fan_ins[m] = m
        depths = np.full(m + 1, depth + 1, dtype=np.int64)
        depths[m] = depth + 2
        node_ids = builder.add_gate_rows(
            fan_ins,
            depths,
            tag_counts={f"{tag}/interval": m, f"{tag}/select": 1},
        )
        return int(node_ids[-1])
    sources = [n for n, _ in terms]
    weights = [w for _, w in terms]
    if (
        getattr(builder, "stamper", None) is not None
        or getattr(builder, "prefers_bulk", False)
    ) and l < 62:
        # Bulk emission: the whole interval bank shares one source/weight row
        # (canonicalized once, exactly like the per-gate Gate constructor),
        # so the m interval gates plus the select gate land in a single
        # add_gates call with the select gate referencing its bank in-batch.
        # Template recorders (``prefers_bulk``) take the same path, so
        # *recording* a wide gadget is array work too.  Thresholds up to
        # 2**l must fit int64, hence the l < 62 guard; a row whose
        # individual weights leave int64 falls through to the per-gate path
        # below (exact Python-int storage).
        row_sources, row_weights = canonical_parts(sources, weights)
        try:
            weights_row = np.asarray(row_weights, dtype=np.int64)
        except OverflowError:
            weights_row = None
    else:
        weights_row = None
    if weights_row is not None:
        fan = len(row_sources)
        base = builder.n_nodes
        # The bank's depths are closed-form: the m interval gates sit one
        # level above the deepest source, the select gate one above them —
        # no need for the generic batch layering passes.  (On a template
        # recorder, node_depths_of is parameter-relative, so these are the
        # correct relative depths too.)
        if fan:
            source_depth = int(
                builder.node_depths_of(np.asarray(row_sources, dtype=np.int64)).max()
            )
        else:
            source_depth = 0
        bank_depths = np.full(m + 1, source_depth + 1, dtype=np.int64)
        bank_depths[m] = source_depth + 2
        all_sources = np.empty(m * fan + m, dtype=np.int64)
        all_weights = np.empty(m * fan + m, dtype=np.int64)
        if fan:
            all_sources[: m * fan] = np.tile(
                np.asarray(row_sources, dtype=np.int64), m
            )
            all_weights[: m * fan] = np.tile(weights_row, m)
        all_sources[m * fan :] = np.arange(base, base + m, dtype=np.int64)
        select_weights = np.ones(m, dtype=np.int64)
        select_weights[1::2] = -1
        all_weights[m * fan :] = select_weights
        offsets = np.empty(m + 2, dtype=np.int64)
        offsets[: m + 1] = np.arange(m + 1, dtype=np.int64) * fan
        offsets[m + 1] = m * fan + m
        thresholds = np.empty(m + 1, dtype=np.int64)
        thresholds[:m] = np.arange(1, m + 1, dtype=np.int64) * step
        thresholds[m] = 1
        interval_tag = f"{tag}/interval"
        select_tag = f"{tag}/select"
        # Pre-interned int32 codes: one dict lookup per *tag*, not per gate
        # (the interval banks dominate the constructed circuits' gate count).
        intern = builder.intern_tag
        tag_codes = np.full(m + 1, intern(interval_tag), dtype=np.int32)
        tag_codes[m] = intern(select_tag)
        node_ids = builder.add_gates(
            all_sources,
            offsets,
            all_weights,
            thresholds,
            tag=tag_codes,
            canonicalize=False,
            depths=bank_depths,
            tag_counts={interval_tag: m, select_tag: 1},
        )
        return int(node_ids[-1])
    interval_gates: List[int] = []
    for i in range(1, m + 1):
        interval_gates.append(
            builder.add_gate(sources, weights, i * step, tag=f"{tag}/interval")
        )
    out_weights = [1 if i % 2 == 1 else -1 for i in range(1, m + 1)]
    return builder.add_gate(interval_gates, out_weights, 1, tag=f"{tag}/select")


# --------------------------------------------------------------------------- #
# Full extraction of every bit of a positively-weighted sum of bits.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BitPlan:
    """Plan for extracting output bit ``position`` (0-indexed, LSB = 0)."""

    position: int
    kept_indices: Tuple[int, ...]
    bound: int  # sum of kept weights; the truncated sum s_j lies in [0, bound]
    l: int  # bits(bound)
    k: int  # which MSB of the truncated sum equals this output bit
    n_gates: int  # 2**k + 1, or 0 when the bit is identically zero

    @property
    def is_zero(self) -> bool:
        """True when this output bit is identically 0 (no gates emitted)."""
        return self.n_gates == 0


@dataclass(frozen=True)
class ExtractionPlan:
    """Full plan: one :class:`BitPlan` per output bit plus totals."""

    bit_plans: Tuple[BitPlan, ...]
    total_bound: int

    @property
    def n_bits(self) -> int:
        """Number of output bit positions covered by the plan."""
        return len(self.bit_plans)

    @property
    def total_gates(self) -> int:
        """Exact number of gates the builder will emit for this plan."""
        return sum(p.n_gates for p in self.bit_plans)


def plan_full_extraction(
    weights: Sequence[int],
    n_bits: Optional[int] = None,
) -> ExtractionPlan:
    """Plan the extraction of the bits of ``s = sum_i w_i x_i`` (``w_i > 0``).

    Parameters
    ----------
    weights:
        Positive term weights.  (Node ids are irrelevant to the plan.)
    n_bits:
        How many low-order bits to extract; defaults to all
        ``bits(sum(weights))`` bits, i.e. the full value.

    The plan is a pure function of the weight signature, and constructions
    re-emit the same signatures over and over (every cell of a tree level,
    every deferred template instance), so results are memoized.
    """
    return _plan_full_extraction_cached(
        tuple(int(w) for w in weights), n_bits
    )


@lru_cache(maxsize=4096)
def _plan_full_extraction_cached(
    weights: Tuple[int, ...],
    n_bits: Optional[int],
) -> ExtractionPlan:
    for w in weights:
        if w <= 0:
            raise ValueError(f"plan_full_extraction requires positive weights, got {w}")
    total = sum(weights)
    width = bits(total)
    if n_bits is None:
        n_bits = width
    if n_bits < 0:
        raise ValueError(f"n_bits must be nonnegative, got {n_bits}")

    plans: List[BitPlan] = []
    for position in range(n_bits):
        j = position + 1  # 1-indexed LSB position, as in the paper's proof
        modulus = 1 << j
        kept = tuple(i for i, w in enumerate(weights) if w % modulus != 0)
        bound = sum(weights[i] for i in kept)
        l = bits(bound)
        if l < j:
            # The truncated sum is always below 2**(j-1): bit j of s is 0.
            plans.append(BitPlan(position, kept, bound, l, 0, 0))
            continue
        k = l - j + 1
        plans.append(BitPlan(position, kept, bound, l, k, (1 << k) + 1))
    return ExtractionPlan(tuple(plans), total)


def count_full_extraction(weights: Sequence[int], n_bits: Optional[int] = None) -> int:
    """Exact gate count of :func:`build_full_extraction` without building it."""
    return plan_full_extraction(weights, n_bits).total_gates


def build_full_extraction(
    builder: CircuitBuilder,
    terms: Sequence[Term],
    n_bits: Optional[int] = None,
    tag: str = "lemma3.2",
) -> List[Optional[int]]:
    """Emit a depth-2 circuit computing the bits of ``s = sum_i w_i x_i``.

    ``terms`` must have positive weights (signed sums are split by the caller
    into the two nonnegative halves, per Section 3 of the paper).  Returns a
    list of node ids, LSB first, with ``None`` for bits that are identically
    zero (those produce no gates and are simply omitted downstream).
    """
    terms = [(int(n), int(w)) for n, w in terms]
    plan = plan_full_extraction([w for _, w in terms], n_bits)
    if getattr(builder, "counts_only", False) and (
        getattr(builder, "stamper", None) is not None
        or getattr(builder, "prefers_bulk", False)
    ):
        return _count_full_extraction_rows(builder, terms, plan, tag)
    outputs: List[Optional[int]] = []
    for bit_plan in plan.bit_plans:
        if bit_plan.is_zero:
            outputs.append(None)
            continue
        kept_terms = [terms[i] for i in bit_plan.kept_indices]
        node = build_kth_msb(
            builder,
            kept_terms,
            bit_plan.l,
            bit_plan.k,
            tag=f"{tag}/bit{bit_plan.position}",
        )
        outputs.append(node)
    return outputs


def _count_full_extraction_rows(builder, terms, plan, tag) -> List[Optional[int]]:
    """Dry-run fast lane for a whole extraction: terms are touched once.

    Every bit's bank shape is closed-form (``2**k`` interval gates over the
    kept terms plus a select gate), so the per-bit work reduces to a fan-in
    lookup; the term array, its depths and its duplicate check are computed
    once for the whole extraction instead of per bit.
    """
    n_terms = len(terms)
    if n_terms:
        src = np.fromiter((n for n, _ in terms), dtype=np.int64, count=n_terms)
        term_depths = builder.node_depths_of(src)
        distinct = len(np.unique(src)) == n_terms
        depth_lo = int(term_depths.min())
        depth_hi = int(term_depths.max())
        uniform_depth = depth_lo == depth_hi
    else:
        src = np.empty(0, dtype=np.int64)
        term_depths = src
        distinct = True
        depth_hi = 0
        uniform_depth = True
    base = builder.n_nodes
    offset = 0
    outputs: List[Optional[int]] = []
    fan_parts: List[np.ndarray] = []
    depth_parts: List[np.ndarray] = []
    tag_counts: dict = {}
    for bit_plan in plan.bit_plans:
        if bit_plan.is_zero:
            outputs.append(None)
            continue
        m = 1 << bit_plan.k
        kept = bit_plan.kept_indices
        if distinct and uniform_depth:
            fan = len(kept)
            depth = depth_hi if kept else 0
        else:
            kept_idx = np.asarray(kept, dtype=np.int64)
            sub = src[kept_idx]
            fan = int(np.unique(sub).size) if not distinct else len(kept)
            depth = int(term_depths[kept_idx].max()) if len(kept) else 0
        fan_ins = np.full(m + 1, fan, dtype=np.int64)
        fan_ins[m] = m
        depths = np.full(m + 1, depth + 1, dtype=np.int64)
        depths[m] = depth + 2
        fan_parts.append(fan_ins)
        depth_parts.append(depths)
        bit_tag = f"{tag}/bit{bit_plan.position}"
        tag_counts[f"{bit_tag}/interval"] = m
        tag_counts[f"{bit_tag}/select"] = 1
        outputs.append(base + offset + m)
        offset += m + 1
    if fan_parts:
        builder.add_gate_rows(
            np.concatenate(fan_parts), np.concatenate(depth_parts), tag_counts
        )
    return outputs

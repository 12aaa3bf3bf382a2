"""Lemma 3.2: depth-2 circuits for integer-weighted sums.

``build_unsigned_sum`` computes the binary expansion of a positively
weighted sum of representations, and ``build_signed_sum`` wraps it for
signed operands following the paper's ``x = x+ - x-`` convention: the
positive and the negative half of the sum are each a nonnegative weighted
sum and are extracted by two independent depth-2 circuits built in parallel
(no extra depth).

The depth-2 path is the paper's Lemma 3.2; passing ``stages > 1`` switches
to the staged extraction of :mod:`repro.arithmetic.staged_sum` (depth
``2 * stages``), which trades depth for gates and underlies Theorem 4.1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arithmetic.bit_extract import (
    build_full_extraction,
    count_full_extraction,
)
from repro.arithmetic.signed import (
    BinaryNumber,
    Rep,
    SignedBinaryNumber,
    SignedValue,
    SignedValueBank,
)
from repro.arithmetic.staged_sum import (
    build_staged_extraction,
    count_staged_extraction,
)
from repro.circuits.builder import CircuitBuilder

__all__ = [
    "flatten_terms",
    "split_signed_terms",
    "build_unsigned_sum",
    "build_signed_sum",
    "build_signed_sums",
    "build_signed_sum_banks",
    "build_signed_sums_cellwise",
    "count_unsigned_sum",
    "count_signed_sum",
]


def flatten_terms(items: Sequence[Tuple[Rep, int]]) -> List[Tuple[int, int]]:
    """Flatten ``sum_i weight_i * rep_i`` into (node, positive weight) terms.

    All ``weight_i`` must be positive; representation weights are positive by
    construction, so the result is a positively weighted sum of bits.
    """
    flat: List[Tuple[int, int]] = []
    for rep, weight in items:
        if weight <= 0:
            raise ValueError(f"flatten_terms requires positive weights, got {weight}")
        for node, w in rep.terms:
            flat.append((node, w * weight))
    return flat


def split_signed_terms(
    items: Sequence[Tuple[SignedValue, int]],
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Split ``sum_i w_i x_i`` over signed values into the s+ and s- halves.

    Follows Section 3 of the paper exactly: with ``x_i = x_i^+ - x_i^-`` and
    ``W+ = {i : w_i > 0}``, ``W- = {i : w_i < 0}``,

        s+ = sum_{W+} w_i x_i^+ + sum_{W-} (-w_i) x_i^-
        s- = sum_{W+} w_i x_i^- + sum_{W-} (-w_i) x_i^+

    so that ``s = s+ - s-`` with both halves nonnegative.
    """
    positive: List[Tuple[Rep, int]] = []
    negative: List[Tuple[Rep, int]] = []
    for value, weight in items:
        if weight == 0:
            continue
        if weight > 0:
            positive.append((value.pos, weight))
            negative.append((value.neg, weight))
        else:
            positive.append((value.neg, -weight))
            negative.append((value.pos, -weight))
    return flatten_terms(positive), flatten_terms(negative)


def _bits_to_binary_number(nodes: Sequence[Optional[int]]) -> BinaryNumber:
    positions = tuple(i for i, n in enumerate(nodes) if n is not None)
    bit_nodes = tuple(n for n in nodes if n is not None)
    return BinaryNumber(positions, bit_nodes, len(nodes))


def build_unsigned_sum(
    builder: CircuitBuilder,
    terms: Sequence[Tuple[int, int]],
    n_bits: Optional[int] = None,
    stages: int = 1,
    tag: str = "sum",
) -> BinaryNumber:
    """Binary expansion of a positively weighted sum of bits.

    ``stages=1`` gives the paper's depth-2 Lemma 3.2 circuit; ``stages=j``
    gives the depth-2j staged circuit (fewer gates for wide sums).
    """
    terms = [(n, w) for n, w in terms if w != 0]
    if not terms:
        return BinaryNumber.zero()
    if stages <= 1:
        nodes = build_full_extraction(builder, terms, n_bits=n_bits, tag=tag)
    else:
        nodes = build_staged_extraction(builder, terms, stages, n_bits=n_bits, tag=tag)
    return _bits_to_binary_number(nodes)


def count_unsigned_sum(
    weights: Sequence[int],
    n_bits: Optional[int] = None,
    stages: int = 1,
) -> int:
    """Exact gate count of :func:`build_unsigned_sum` for given term weights."""
    weights = [w for w in weights if w != 0]
    if not weights:
        return 0
    if stages <= 1:
        return count_full_extraction(weights, n_bits)
    return count_staged_extraction(weights, stages, n_bits)


def build_signed_sum(
    builder: CircuitBuilder,
    items: Sequence[Tuple[SignedValue, int]],
    n_bits: Optional[int] = None,
    stages: int = 1,
    tag: str = "sum",
) -> SignedBinaryNumber:
    """Signed weighted sum ``sum_i w_i x_i`` with binary output parts.

    The two halves are independent and therefore sit in the same two (or
    ``2 * stages``) layers of the circuit; the construction adds no depth for
    sign handling, exactly as argued in Section 3.

    The gadget is emitted through :func:`build_signed_sums` with a single
    instance.
    """
    return build_signed_sums(builder, [items], n_bits=n_bits, stages=stages, tag=tag)[0]


def build_signed_sums(
    builder: CircuitBuilder,
    items_list: Sequence[Sequence[Tuple[SignedValue, int]]],
    n_bits: Optional[int] = None,
    stages: int = 1,
    tag: str = "sum",
) -> List[SignedBinaryNumber]:
    """Emit many signed weighted sums, template-stamping identical shapes.

    The gate stream of one sum depends only on the *weights* of its
    flattened halves (the extraction plans are pure functions of them), not
    on which nodes carry the bits — so consecutive instances with identical
    weight signatures are stamped from one recorded template in a single
    bulk emission.  Instances are emitted strictly in list order, so the
    resulting circuit is wire-for-wire identical to calling
    :func:`build_signed_sum` in a loop.
    """
    split = [split_signed_terms(items) for items in items_list]
    results: List[SignedBinaryNumber] = []
    start = 0
    while start < len(split):
        pos_w = tuple(w for _, w in split[start][0])
        neg_w = tuple(w for _, w in split[start][1])
        end = start + 1
        while (
            end < len(split)
            and tuple(w for _, w in split[end][0]) == pos_w
            and tuple(w for _, w in split[end][1]) == neg_w
        ):
            end += 1
        group = split[start:end]
        key = ("signed_sum", pos_w, neg_w, n_bits, stages, tag)
        n_params = len(pos_w) + len(neg_w)
        params_list = [
            [n for n, _ in pos] + [n for n, _ in neg] for pos, neg in group
        ]

        emit_template = _signed_sum_template_emitter(pos_w, neg_w, n_bits, stages, tag)

        def emit_legacy(i, group=group):
            pos, neg = group[i]
            return _build_signed_sum_direct(builder, pos, neg, n_bits, stages, tag)

        results.extend(
            builder.stamper.stamp_all(
                key, n_params, params_list, emit_template, emit_legacy
            )
        )
        start = end
    return results


def _build_signed_sum_direct(
    builder,
    pos_terms: Sequence[Tuple[int, int]],
    neg_terms: Sequence[Tuple[int, int]],
    n_bits: Optional[int],
    stages: int,
    tag: str,
) -> SignedBinaryNumber:
    """Emit one signed sum from its split halves, gate by gate.

    Records templates, and emits the copies the stamper does not stamp.
    """
    pos = build_unsigned_sum(builder, pos_terms, n_bits=n_bits, stages=stages, tag=f"{tag}/pos")
    neg = build_unsigned_sum(builder, neg_terms, n_bits=n_bits, stages=stages, tag=f"{tag}/neg")
    return SignedBinaryNumber(pos, neg)


def _signed_sum_template_emitter(pos_w, neg_w, n_bits, stages, tag):
    """Template recorder for a signed sum with the given weight signature.

    Shared by the grouping path and the banked path, so both record
    byte-identical templates under the same key.
    """

    def emit_template(recorder, pos_w=pos_w, neg_w=neg_w):
        pos_terms = list(zip(range(len(pos_w)), pos_w))
        neg_terms = list(zip(range(len(pos_w), len(pos_w) + len(neg_w)), neg_w))
        return _build_signed_sum_direct(
            recorder, pos_terms, neg_terms, n_bits, stages, tag
        )

    return emit_template


def _stamp_signed_sums(
    builder,
    pos_nodes: np.ndarray,
    neg_nodes: np.ndarray,
    pos_w: Tuple[int, ...],
    neg_w: Tuple[int, ...],
    n_bits: Optional[int],
    stages: int,
    tag: str,
) -> SignedValueBank:
    """Banked core: emit ``k`` same-signature sums from node matrices.

    ``pos_nodes``/``neg_nodes`` hold the flattened half terms per instance
    (columns aligned with ``pos_w``/``neg_w``).  The emitted gate stream is
    wire-for-wire identical to :func:`build_signed_sums` on the materialized
    items: clean runs stamp from the same template key, duplicate-node rows
    drop to the legacy emitter in place, and non-templatable signatures emit
    every instance directly.
    """
    k = pos_nodes.shape[0]
    if k == 0:
        raise ValueError("cannot emit an empty sum batch")
    key = ("signed_sum", pos_w, neg_w, n_bits, stages, tag)
    n_params = len(pos_w) + len(neg_w)
    params = np.concatenate([pos_nodes, neg_nodes], axis=1)
    if not params.flags.c_contiguous:
        params = np.ascontiguousarray(params)
    emit_template = _signed_sum_template_emitter(pos_w, neg_w, n_bits, stages, tag)
    n_pos = len(pos_w)

    def emit_legacy(i):
        row = params[i].tolist()
        return _build_signed_sum_direct(
            builder,
            list(zip(row[:n_pos], pos_w)),
            list(zip(row[n_pos:], neg_w)),
            n_bits,
            stages,
            tag,
        )

    template, mapped, overrides = builder.stamper.stamp_all_mapped(
        key, n_params, params, emit_template, emit_legacy
    )
    if template is None:
        # Not templated (unrelocatable or recording deferred): `mapped` holds
        # the directly emitted scalar results, already in stream order.
        return SignedValueBank.from_scalars(mapped)
    bank = SignedValueBank.from_template(template, mapped)
    if overrides:
        # A duplicate-parameter row merges interval-gate sources, but the
        # extraction plan (hence the bit layout) depends only on the weight
        # signature — identical — so the legacy row slots into the bank.
        for i, number in overrides.items():
            bank.pos.nodes[i] = number.pos.bit_nodes
            bank.neg.nodes[i] = number.neg.bit_nodes
    return bank


def build_signed_sum_banks(
    builder,
    terms: Sequence[Tuple[SignedValueBank, Optional[np.ndarray], int]],
    n_bits: Optional[int] = None,
    stages: int = 1,
    tag: str = "sum",
    count: Optional[int] = None,
) -> SignedValueBank:
    """Banked signed sums: every instance sums the same term signature.

    ``terms`` is a sequence of ``(bank, rows, coeff)``: instance ``i`` of the
    result sums ``coeff * bank[rows[i]]`` over the terms (``rows=None``
    selects every bank row in order).  A two-dimensional ``rows`` of shape
    ``(k, t)`` *spreads* into ``t`` consecutive terms per instance — the
    array form of listing ``t`` separate single-row terms (e.g. the ``n``
    inner products feeding one naive-matmul entry) without a Python loop.
    This mirrors ``items_list[i] = [(bank.signed_value(rows[i]), coeff),
    ...]`` fed to :func:`build_signed_sums` — same circuit, no per-term
    objects.  ``count`` supplies the batch size when every term cancelled (a
    functional whose coefficients all dropped to zero still yields
    zero-value results).
    """
    live = [(bank, rows, coeff) for bank, rows, coeff in terms if coeff != 0]
    k = None
    for bank, rows, _ in live:
        if rows is None:
            size = bank.k
        elif rows.ndim == 2:
            size = rows.shape[0]
        else:
            size = len(rows)
        if k is None:
            k = size
        elif k != size:
            raise ValueError("term row selections disagree on the batch size")
    if k is None:
        k = count
    if k is None or k == 0:
        raise ValueError("cannot emit an empty sum batch")
    if any(bank.overrides for bank, _, _ in live):
        # Override rows have per-row layouts: materialize and take the
        # grouping path (identical stream, just slower).
        items_list = [
            [
                (bank.signed_value(int(r)), coeff)
                for bank, rows, coeff in live
                for r in (
                    [i]
                    if rows is None
                    else (rows[i] if rows.ndim == 2 else [rows[i]])
                )
            ]
            for i in range(k)
        ]
        return SignedValueBank.from_scalars(
            build_signed_sums(builder, items_list, n_bits=n_bits, stages=stages, tag=tag)
        )

    pos_w: List[int] = []
    neg_w: List[int] = []
    pos_parts: List[Tuple[object, Optional[np.ndarray]]] = []
    neg_parts: List[Tuple[object, Optional[np.ndarray]]] = []
    for bank, rows, coeff in live:
        if coeff > 0:
            p_part, n_part, factor = bank.pos, bank.neg, coeff
        else:
            p_part, n_part, factor = bank.neg, bank.pos, -coeff
        pos_parts.append((p_part, rows))
        neg_parts.append((n_part, rows))
        spread = rows.shape[1] if rows is not None and rows.ndim == 2 else 1
        if factor == 1:
            pos_w.extend(p_part.weights * spread)
            neg_w.extend(n_part.weights * spread)
        else:
            pos_w.extend(tuple(w * factor for w in p_part.weights) * spread)
            neg_w.extend(tuple(w * factor for w in n_part.weights) * spread)
    pos_nodes = _gather_half(pos_parts, k)
    neg_nodes = _gather_half(neg_parts, k)
    return _stamp_signed_sums(
        builder, pos_nodes, neg_nodes, tuple(pos_w), tuple(neg_w), n_bits, stages, tag
    )


def _gather_half(parts, k: int) -> np.ndarray:
    """Assemble one half's ``(k, total_terms)`` node matrix, in term order.

    Consecutive terms drawing from the same underlying node matrix are
    gathered with a single fancy index (``nodes[R]`` with one column per
    term), which is what collapses e.g. the n inner-product terms of a naive
    matmul entry into one numpy call.
    """
    blocks: List[np.ndarray] = []
    i = 0
    n_parts = len(parts)
    while i < n_parts:
        part, rows = parts[i]
        if rows is not None and rows.ndim == 2:
            # Spread term: each row column is one term, already rectangular.
            block = part.nodes[rows].reshape(k, -1)
            i += 1
        else:
            j = i + 1
            while j < n_parts and parts[j][0].nodes is part.nodes and (
                parts[j][1] is None or parts[j][1].ndim == 1
            ):
                j += 1
            if j - i == 1:
                block = part.nodes if rows is None else part.nodes[rows]
            else:
                stacked = np.stack(
                    [
                        np.arange(p.nodes.shape[0], dtype=np.int64)
                        if r is None
                        else r
                        for p, r in parts[i:j]
                    ],
                    axis=1,
                )
                block = part.nodes[stacked].reshape(k, -1)
            i = j
        if block.shape[1]:
            blocks.append(block)
    if not blocks:
        return np.empty((k, 0), dtype=np.int64)
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks, axis=1)


def build_signed_sums_cellwise(
    builder,
    items_list: Sequence[Sequence[Tuple[SignedValueBank, int]]],
    n_bits: Optional[int] = None,
    stages: int = 1,
    tag: str = "sum",
) -> List[SignedValueBank]:
    """Banked sums over per-instance term lists of single-row bank views.

    The bottom-up recombination assembles parent matrices from blocks with
    *different* layouts, so its cells cannot live in one uniform bank; here
    each instance lists its own ``(1-row bank, coeff)`` terms.  Consecutive
    instances with the same layout signature are stacked and emitted through
    the banked core; the result is one single-row bank view per instance.
    """
    k_total = len(items_list)
    results: List[Optional[SignedValueBank]] = [None] * k_total

    def signature(items):
        # Layout identity (shared weights tuples) is enough: content-equal
        # layouts with different identities merely split a run, and split
        # runs stamp the same gate stream.  Override rows are kept out of
        # clean runs so the whole run can take one branch.
        return tuple(
            (id(bank.pos.weights), id(bank.neg.weights), coeff, bank.overrides is None)
            for bank, coeff in items
        )

    start = 0
    while start < k_total:
        sig = signature(items_list[start])
        end = start + 1
        while end < k_total and signature(items_list[end]) == sig:
            end += 1
        run = items_list[start:end]
        k = end - start
        first = run[0]
        if any(bank.overrides for bank, _ in first):
            scalars = build_signed_sums(
                builder,
                [
                    [(bank.signed_value(0), coeff) for bank, coeff in items]
                    for items in run
                ],
                n_bits=n_bits,
                stages=stages,
                tag=tag,
            )
            bank = SignedValueBank.from_scalars(scalars)
        else:
            pos_w: List[int] = []
            neg_w: List[int] = []
            pos_blocks: List[np.ndarray] = []
            neg_blocks: List[np.ndarray] = []
            for t, (_, coeff) in enumerate(first):
                if coeff == 0:
                    continue
                factor = coeff if coeff > 0 else -coeff
                pos_rows = [
                    (items[t][0].pos if coeff > 0 else items[t][0].neg).nodes
                    for items in run
                ]
                neg_rows = [
                    (items[t][0].neg if coeff > 0 else items[t][0].pos).nodes
                    for items in run
                ]
                if pos_rows[0].shape[1]:
                    pos_blocks.append(np.concatenate(pos_rows, axis=0))
                if neg_rows[0].shape[1]:
                    neg_blocks.append(np.concatenate(neg_rows, axis=0))
                p_part = first[t][0].pos if coeff > 0 else first[t][0].neg
                n_part = first[t][0].neg if coeff > 0 else first[t][0].pos
                pos_w.extend(w * factor for w in p_part.weights)
                neg_w.extend(w * factor for w in n_part.weights)
            pos_nodes = (
                np.concatenate(pos_blocks, axis=1)
                if pos_blocks
                else np.empty((k, 0), dtype=np.int64)
            )
            neg_nodes = (
                np.concatenate(neg_blocks, axis=1)
                if neg_blocks
                else np.empty((k, 0), dtype=np.int64)
            )
            bank = _stamp_signed_sums(
                builder,
                pos_nodes,
                neg_nodes,
                tuple(pos_w),
                tuple(neg_w),
                n_bits,
                stages,
                tag,
            )
        for j in range(k):
            results[start + j] = bank.row_any(j)
        start = end
    return results


def count_signed_sum(
    items: Sequence[Tuple[SignedValue, int]],
    n_bits: Optional[int] = None,
    stages: int = 1,
) -> int:
    """Exact gate count of :func:`build_signed_sum` (dry run, no gates built)."""
    pos_terms, neg_terms = split_signed_terms(items)
    return count_unsigned_sum(
        [w for _, w in pos_terms], n_bits, stages
    ) + count_unsigned_sum([w for _, w in neg_terms], n_bits, stages)

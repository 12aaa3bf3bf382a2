"""Lemma 3.3: depth-1 circuits producing *representations* of products.

The product of a few small integers given in binary is computed as a
representation (an integer-weighted sum of gate outputs) rather than in
binary: for factors ``x = sum_i 2^i x_i``, ``y = sum_j 2^j y_j``,
``z = sum_k 2^k z_k`` the product expands to
``sum_{i,j,k} 2^(i+j+k) x_i y_j z_k``, and each conjunction ``x_i y_j z_k``
is a single threshold gate ``[x_i + y_j + z_k >= 3]``.  The representation is
consumed directly by later weighted-sum gates, so no carry propagation is
ever needed — this is why the construction stays depth 1 (Lemma 3.3 of the
paper, stated there for three factors; the two-factor case used for the
matrix product is identical with ``m**2`` gates).

Signed factors are expanded over sign combinations exactly as described in
the paper's "Negative numbers" paragraph (a constant-factor ``2**f`` blow-up
for ``f`` factors, i.e. 8x for the trace circuit's triple products).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

import numpy as np

from repro.arithmetic.signed import (
    BinaryNumber,
    Rep,
    SignedBinaryNumber,
    SignedValue,
    SignedValueBank,
)
from repro.circuits.builder import CircuitBuilder

__all__ = [
    "build_unsigned_product_rep",
    "build_signed_product",
    "build_signed_products",
    "build_signed_product_banks",
    "count_unsigned_product_rep",
    "count_signed_product",
]


def build_unsigned_product_rep(
    builder: CircuitBuilder,
    factors: Sequence[BinaryNumber],
    tag: str = "lemma3.3",
) -> Rep:
    """Representation of the product of nonnegative binary numbers.

    With a single factor no gates are needed (its own bits already form a
    representation).  With ``f >= 2`` factors, one gate is emitted per
    combination of one potentially-nonzero bit from each factor.
    """
    if not factors:
        raise ValueError("a product needs at least one factor")
    if any(f.n_bits == 0 for f in factors):
        return Rep.zero()
    if len(factors) == 1:
        return factors[0].to_rep()

    terms: List[Tuple[int, int]] = []
    bit_lists = [list(zip(f.bit_positions, f.bit_nodes)) for f in factors]
    arity = len(factors)
    for combo in itertools.product(*bit_lists):
        weight = 1 << sum(pos for pos, _ in combo)
        nodes = [node for _, node in combo]
        gate = builder.add_gate(nodes, [1] * arity, arity, tag=f"{tag}/and")
        terms.append((gate, weight))
    return Rep.from_terms(terms)


def count_unsigned_product_rep(factor_bit_counts: Sequence[int]) -> int:
    """Exact gate count of :func:`build_unsigned_product_rep`."""
    if not factor_bit_counts:
        raise ValueError("a product needs at least one factor")
    if any(c == 0 for c in factor_bit_counts):
        return 0
    if len(factor_bit_counts) == 1:
        return 0
    count = 1
    for c in factor_bit_counts:
        count *= c
    return count


def build_signed_product(
    builder: CircuitBuilder,
    factors: Sequence[SignedBinaryNumber],
    tag: str = "lemma3.3",
) -> SignedValue:
    """Representation of a product of signed binary numbers.

    Expands ``prod_i (x_i^+ - x_i^-)`` over all sign combinations; each
    combination is an unsigned product contributing to the positive or
    negative part of the result according to the parity of minus signs.

    The gadget is emitted through :func:`build_signed_products` with a
    single instance.
    """
    return build_signed_products(builder, [factors], tag=tag)[0]


def build_signed_products(
    builder: CircuitBuilder,
    factors_list: Sequence[Sequence[SignedBinaryNumber]],
    tag: str = "lemma3.3",
) -> List[SignedValue]:
    """Emit many signed products, template-stamping identical bit layouts.

    A product's gate stream depends only on the *bit positions* present in
    each factor's two parts; the bit nodes enter positionally.  Consecutive
    instances sharing that layout are stamped from one recorded template.
    Instances are emitted in list order, so the circuit is wire-for-wire
    identical to calling :func:`build_signed_product` in a loop.
    """
    for factors in factors_list:
        if not factors:
            raise ValueError("a product needs at least one factor")
    layouts = [
        tuple((f.pos.bit_positions, f.neg.bit_positions) for f in factors)
        for factors in factors_list
    ]
    results: List[SignedValue] = []
    start = 0
    while start < len(factors_list):
        layout = layouts[start]
        end = start + 1
        while end < len(factors_list) and layouts[end] == layout:
            end += 1
        group = factors_list[start:end]
        key = ("signed_product", layout, tag)
        n_params = sum(len(p) + len(q) for p, q in layout)
        params_list = [
            [
                node
                for factor in factors
                for part in (factor.pos, factor.neg)
                for node in part.bit_nodes
            ]
            for factors in group
        ]

        emit_template = _product_template_emitter(layout, tag)

        def emit_legacy(i, group=group):
            return _build_signed_product_direct(builder, group[i], tag)

        results.extend(
            builder.stamper.stamp_all(
                key, n_params, params_list, emit_template, emit_legacy
            )
        )
        start = end
    return results


def _product_template_emitter(layout, tag):
    """Template recorder for a signed product with the given bit layout.

    Shared by the grouping path and the banked path, so both record
    byte-identical templates under the same key.
    """

    def emit_template(recorder, layout=layout):
        local = 0
        local_factors = []
        for pos_positions, neg_positions in layout:
            pos_nodes = tuple(range(local, local + len(pos_positions)))
            local += len(pos_positions)
            neg_nodes = tuple(range(local, local + len(neg_positions)))
            local += len(neg_positions)
            local_factors.append(
                SignedBinaryNumber(
                    BinaryNumber(
                        pos_positions,
                        pos_nodes,
                        max(pos_positions) + 1 if pos_positions else 0,
                    ),
                    BinaryNumber(
                        neg_positions,
                        neg_nodes,
                        max(neg_positions) + 1 if neg_positions else 0,
                    ),
                )
            )
        return _build_signed_product_direct(recorder, local_factors, tag)

    return emit_template


def build_signed_product_banks(
    builder,
    factor_banks: Sequence[SignedValueBank],
    tag: str = "lemma3.3",
) -> SignedValueBank:
    """Banked signed products: instance ``i`` multiplies row ``i`` of every
    factor bank.

    All factor banks must carry binary layouts and agree on the batch size;
    the shared layouts mean the whole batch is one template key, so the gate
    stream equals :func:`build_signed_products` on the materialized factor
    lists (duplicate-node rows drop to the legacy emitter in place and come
    back as bank overrides, since a merged product has a different term
    layout).
    """
    if not factor_banks:
        raise ValueError("a product needs at least one factor")
    k = factor_banks[0].k
    if k == 0:
        raise ValueError("cannot emit an empty product batch")
    for bank in factor_banks:
        if bank.k != k:
            raise ValueError("factor banks disagree on the batch size")
    if any(bank.overrides for bank in factor_banks):
        factors_list = [
            [bank.signed_binary(i) for bank in factor_banks] for i in range(k)
        ]
        return SignedValueBank.from_scalars(
            build_signed_products(builder, factors_list, tag=tag)
        )
    layout = tuple((f.pos.positions, f.neg.positions) for f in factor_banks)
    key = ("signed_product", layout, tag)
    n_params = sum(f.pos.n_terms + f.neg.n_terms for f in factor_banks)
    columns = [
        part.nodes for f in factor_banks for part in (f.pos, f.neg) if part.n_terms
    ]
    if columns:
        params = np.concatenate(columns, axis=1)
        if not params.flags.c_contiguous:
            params = np.ascontiguousarray(params)
    else:
        params = np.empty((k, 0), dtype=np.int64)
    emit_template = _product_template_emitter(layout, tag)

    def emit_legacy(i):
        return _build_signed_product_direct(
            builder, [bank.signed_binary(i) for bank in factor_banks], tag
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
        bank = SignedValueBank(bank.pos, bank.neg, overrides)
    return bank


def _build_signed_product_direct(
    builder,
    factors: Sequence[SignedBinaryNumber],
    tag: str,
) -> SignedValue:
    """Emit one signed product gate by gate.

    Records templates, and emits the copies the stamper does not stamp.
    """
    pos_terms: List[Tuple[int, int]] = []
    neg_terms: List[Tuple[int, int]] = []
    choices = [((f.pos, +1), (f.neg, -1)) for f in factors]
    for combo in itertools.product(*choices):
        parts = [part for part, _ in combo]
        sign = 1
        for _, s in combo:
            sign *= s
        if any(p.n_bits == 0 for p in parts):
            continue
        rep = build_unsigned_product_rep(builder, parts, tag=tag)
        target = pos_terms if sign > 0 else neg_terms
        target.extend(rep.terms)
    return SignedValue(Rep.from_terms(pos_terms), Rep.from_terms(neg_terms))


def count_signed_product(factors: Sequence[SignedBinaryNumber]) -> int:
    """Exact gate count of :func:`build_signed_product` (dry run)."""
    if not factors:
        raise ValueError("a product needs at least one factor")
    total = 0
    choices = [(f.pos.n_bits, f.neg.n_bits) for f in factors]
    for combo in itertools.product(*[(0, 1)] * len(factors)):
        counts = [choices[i][pick] for i, pick in enumerate(combo)]
        if any(c == 0 for c in counts):
            continue
        total += count_unsigned_product_rep(counts)
    return total

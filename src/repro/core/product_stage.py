"""The scalar-product stage between the leaf trees and the output stage.

Every fast matrix multiplication algorithm computes exactly
``N^{log_T r}`` scalar products — one per leaf path.  For the matrix-product
circuit each product has two factors (the corresponding leaves of T_A and
T_B); for the trace circuit there are three factors (the pairing functional
applied to A contributes the third, see equation (4) of the paper).  Both
cases are a single application of Lemma 3.3 per leaf, i.e. one extra layer.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.arithmetic.product import build_signed_product_banks, build_signed_products
from repro.arithmetic.signed import RepBank, SignedValueBank

__all__ = ["build_leaf_products"]

Path = Tuple[int, ...]


def build_leaf_products(
    builder,
    leaf_sets: Sequence[Dict[Path, SignedValueBank]],
    tag: str = "products",
) -> Dict[Path, SignedValueBank]:
    """Multiply corresponding leaves of two or three trees (Lemma 3.3).

    Parameters
    ----------
    builder:
        A :class:`CircuitBuilder` or :class:`CountingBuilder`.
    leaf_sets:
        The per-tree leaf dictionaries produced by
        :func:`repro.core.leaf_builder.build_tree_levels`.  They must share
        exactly the same set of paths.

    Returns
    -------
    dict
        Path -> single-row bank holding the product in representation form
        (depth 1 above the deepest leaf).

    The leaves arrive as single-row bank views; consecutive paths (in sorted
    order) whose layouts agree across all trees are vertically stacked into
    one factor bank per tree and multiplied in a single banked emission.
    """
    if len(leaf_sets) < 2:
        raise ValueError("the product stage needs at least two leaf trees")
    paths = set(leaf_sets[0])
    for other in leaf_sets[1:]:
        if set(other) != paths:
            raise ValueError("leaf trees disagree on the set of leaf paths")
    ordered_paths = sorted(paths)

    def signature(path):
        return tuple(
            (
                id(leaves[path].pos.weights),
                id(leaves[path].neg.weights),
                leaves[path].overrides is None,
            )
            for leaves in leaf_sets
        )

    results: Dict[Path, SignedValueBank] = {}
    start = 0
    total = len(ordered_paths)
    while start < total:
        sig = signature(ordered_paths[start])
        end = start + 1
        while end < total and signature(ordered_paths[end]) == sig:
            end += 1
        group = ordered_paths[start:end]
        if any(leaves[group[0]].overrides for leaves in leaf_sets):
            # Override rows carry per-row layouts whose node-matrix entries
            # are meaningless; the whole (override-homogeneous, see the
            # signature) run goes through the grouping emitter instead of
            # being stacked as if it were clean.
            factors_list = [
                [leaves[path].signed_binary(0) for leaves in leaf_sets]
                for path in group
            ]
            values = build_signed_products(builder, factors_list, tag=tag)
            banked = SignedValueBank.from_scalars(values)
            for j, path in enumerate(group):
                results[path] = banked.row_any(j)
            start = end
            continue
        factor_banks = []
        for leaves in leaf_sets:
            views = [leaves[path] for path in group]
            first = views[0]
            if len(views) == 1:
                factor_banks.append(first)
            else:
                factor_banks.append(
                    SignedValueBank(
                        RepBank(
                            np.concatenate([v.pos.nodes for v in views], axis=0),
                            first.pos.weights,
                            first.pos.positions,
                            first.pos.width,
                        ),
                        RepBank(
                            np.concatenate([v.neg.nodes for v in views], axis=0),
                            first.neg.weights,
                            first.neg.positions,
                            first.neg.width,
                        ),
                    )
                )
        bank = build_signed_product_banks(builder, factor_banks, tag=tag)
        for j, path in enumerate(group):
            results[path] = bank.row_any(j)
        start = end
    return results

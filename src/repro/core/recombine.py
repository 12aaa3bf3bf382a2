"""Bottom-up recombination of the product tree T_AB (Lemmas 4.6 and 4.7).

Each node of T_AB represents the product of the matrices at the
corresponding nodes of T_A and T_B; the leaves are the scalar products of
the product stage and the root is the matrix product ``C = AB``.  The
recursion of the fast multiplication algorithm gives, for a node at level
``g`` and its descendants at the next selected level ``h`` (``delta = h-g``),

    block_{(p, q)} of the node = sum over length-delta paths sigma of
        (prod_t  w[p_t, q_t, i_t]) * (matrix of descendant sigma)

where ``(p_t, q_t)`` are the base-T digits of the block position.  The inner
sums are Lemma 3.2 circuits, two layers per selected level, exactly
mirroring the top-down leaf stage.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.arithmetic.signed import SignedValueBank
from repro.arithmetic.weighted_sum import build_signed_sums_cellwise
from repro.core.schedule import LevelSchedule
from repro.core.trees import edge_matrices, iter_paths, relative_functional
from repro.fastmm.bilinear import BilinearAlgorithm

__all__ = ["build_product_tree"]

Path = Tuple[int, ...]


def build_product_tree(
    builder,
    algorithm: BilinearAlgorithm,
    leaf_products: Dict[Path, SignedValueBank],
    schedule: LevelSchedule,
    n: int,
    stages: int = 1,
    tag: str = "TAB",
) -> np.ndarray:
    """Recombine leaf products into the entries of ``C = AB``.

    Returns an ``n x n`` object array of :class:`SignedBinaryNumber` holding
    the binary expansion (positive and negative part) of each entry of the
    product matrix.
    """
    t = algorithm.t
    leaf_level = schedule.leaf_level
    if t ** leaf_level != n:
        raise ValueError(
            f"schedule leaf level {leaf_level} does not match matrix size {n}"
        )
    edges = edge_matrices(algorithm, "C")

    # Values at the deepest level: 1x1 matrices whose cells hold the leaf
    # products as single-row bank views.  The per-block sums go through the
    # cellwise banked emitter (parent matrices mix block layouts, so no
    # uniform matrix bank).
    current: Dict[Path, np.ndarray] = {}
    for path, value in leaf_products.items():
        cell = np.empty((1, 1), dtype=object)
        cell[0, 0] = value
        current[path] = cell

    levels = list(schedule.levels)
    for g, h in zip(reversed(levels[:-1]), reversed(levels[1:])):
        delta = h - g
        k_h = n // t ** h  # dimension of the (already computed) level-h matrices
        k_g = n // t ** g  # dimension of the level-g matrices being built
        level_tag = f"{tag}/level{g}"

        # For each block position (p, q) of the T^delta grid, the list of
        # (sub-path, coefficient) pairs contributing to that block.
        block_terms: Dict[Tuple[int, int], List[Tuple[Path, int]]] = defaultdict(list)
        for sigma in iter_paths(algorithm.r, delta):
            functional = relative_functional(edges, sigma)
            for position, coeff in functional.items():
                block_terms[position].append((sigma, coeff))

        parent_paths = sorted({path[:g] for path in current})
        new: Dict[Path, np.ndarray] = {}
        for parent_path in parent_paths:
            parent = np.empty((k_g, k_g), dtype=object)
            grid = t ** delta
            for p in range(grid):
                for q in range(grid):
                    terms = block_terms.get((p, q), [])
                    # The k_h^2 cells of one (p, q) block share the same
                    # (sigma, coeff) term list, i.e. one weight signature —
                    # batch them so the builder stamps the block from a
                    # single template, in row-major (x, y) order.
                    items_list = [
                        [
                            (current[parent_path + sigma][x, y], coeff)
                            for sigma, coeff in terms
                        ]
                        for x in range(k_h)
                        for y in range(k_h)
                    ]
                    cells = build_signed_sums_cellwise(
                        builder, items_list, stages=stages, tag=level_tag
                    )
                    for index, cell in enumerate(cells):
                        parent[p * k_h + index // k_h, q * k_h + index % k_h] = cell
            new[parent_path] = parent
        current = new

    if list(current.keys()) != [()]:
        raise AssertionError("recombination did not terminate at the root")
    root = current[()]
    # Materialize the n x n scalar entries for the output stage; the n^2
    # conversions are the only per-cell objects the pipeline ever creates.
    entries = np.empty(root.shape, dtype=object)
    for i in range(root.shape[0]):
        for j in range(root.shape[1]):
            entries[i, j] = root[i, j].signed_binary(0)
    return entries

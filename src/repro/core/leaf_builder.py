"""Top-down computation of selected tree levels (Lemma 4.2 / Lemma 4.3).

Given the root matrix of a side (A, B, or the transposed pairing matrix for
the C side) as a value bank, and a level schedule, this module emits the
circuits that compute every matrix at every selected level and returns the
scalars at the leaves.  Each transition ``h_{i-1} -> h_i`` is one batch of
depth-2 signed weighted-sum circuits (Lemma 3.2), so the whole stage has
depth ``2 t`` (or ``2 t * stages`` when staged extraction is requested).
Whole level matrices travel between transitions as row-major value banks.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.arithmetic.signed import RepBank, SignedValueBank
from repro.arithmetic.weighted_sum import build_signed_sum_banks
from repro.core.schedule import LevelSchedule
from repro.core.trees import Side, edge_matrices, iter_paths, relative_functional
from repro.fastmm.bilinear import BilinearAlgorithm

__all__ = ["matrix_of_input_banks", "build_tree_levels"]

Path = Tuple[int, ...]


def matrix_of_input_banks(encoding, transpose: bool = False) -> SignedValueBank:
    """Wrap a matrix encoding as one value bank (rows in row-major order).

    Row ``i * n + j`` of the bank holds entry ``(i, j)`` — or ``(j, i)``
    when ``transpose`` is set (the pairing tree's root is ``A^T``).  Each
    row lists the entry's wires as :meth:`MatrixEncoding.entry_wires` does:
    positive bits LSB-first, then negative bits.
    """
    n = encoding.n
    b = encoding.bit_width
    entry = np.arange(n * n, dtype=np.int64)
    if transpose:
        entry = (entry % n) * n + entry // n
    base = encoding.offset + entry[:, None] * (2 * b)
    bit = np.arange(b, dtype=np.int64)[None, :]
    positions = tuple(range(b))
    weights = tuple(1 << i for i in range(b))
    return SignedValueBank(
        RepBank(base + bit, weights, positions, b),
        RepBank(base + b + bit, weights, positions, b),
    )


def build_tree_levels(
    builder,
    algorithm: BilinearAlgorithm,
    side: Side,
    root_bank: SignedValueBank,
    schedule: LevelSchedule,
    stages: int = 1,
    tag: str = "tree",
) -> Dict[Path, SignedValueBank]:
    """Compute the leaves of a side's tree through the selected levels.

    Parameters
    ----------
    builder:
        A :class:`CircuitBuilder` or :class:`CountingBuilder`.
    algorithm:
        The bilinear base-case algorithm defining the tree.
    side:
        ``"A"``, ``"B"`` or ``"C"`` — selects the edge coefficient tensors.
    root_bank:
        The level-0 matrix as a row-major bank (see
        :func:`matrix_of_input_banks`; for the C side pass the transposed
        bank).
    schedule:
        The selected levels; ``schedule.leaf_level`` must equal ``log_T n``.
    stages:
        1 for the paper's depth-2 sums, larger for staged extraction.

    Returns
    -------
    dict
        Mapping from full leaf paths (length ``log_T n``) to a single-row
        bank holding that leaf's value.

    Level matrices are uniform by construction (every child matrix comes out
    of one same-signature batch), so each transition is a handful of array
    gathers plus one banked sum emission per ``(ancestor, sigma)`` pair.
    """
    k_root = root_bank.k
    n = int(round(k_root ** 0.5))
    t = algorithm.t
    if n * n != k_root or t ** schedule.leaf_level != n:
        raise ValueError(
            f"schedule leaf level {schedule.leaf_level} does not match matrix size {n}"
        )
    edges = edge_matrices(algorithm, side)

    current: Dict[Path, SignedValueBank] = {(): root_bank}
    for g, h in zip(schedule.levels, schedule.levels[1:]):
        delta = h - g
        k_h = n // t ** h
        k_g = n // t ** g
        functionals = {
            sigma: relative_functional(edges, sigma)
            for sigma in iter_paths(algorithm.r, delta)
        }
        level_tag = f"{tag}/level{h}"
        # Instance (x, y) of a child matrix, in row-major order, reads
        # ancestor cell (p*k_h + x, q*k_h + y).
        x = np.repeat(np.arange(k_h, dtype=np.int64), k_h)
        y = np.tile(np.arange(k_h, dtype=np.int64), k_h)
        rows_cache: Dict[Tuple[int, int], np.ndarray] = {}
        new: Dict[Path, SignedValueBank] = {}
        for ancestor_path, ancestor in current.items():
            for sigma, functional in functionals.items():
                terms = []
                for (p, q), coeff in functional.items():
                    rows = rows_cache.get((p, q))
                    if rows is None:
                        rows = (p * k_h + x) * k_g + (q * k_h + y)
                        rows_cache[(p, q)] = rows
                    terms.append((ancestor, rows, coeff))
                new[ancestor_path + sigma] = build_signed_sum_banks(
                    builder,
                    terms,
                    stages=stages,
                    tag=level_tag,
                    count=k_h * k_h,
                )
        current = new

    return current

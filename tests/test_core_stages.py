"""Tests for the three circuit stages: leaf trees, leaf products, recombination."""

import numpy as np
import pytest

from repro.arithmetic.signed import SignedBinaryNumber
from repro.circuits.builder import CircuitBuilder
from repro.circuits.simulator import simulate
from repro.core.leaf_builder import build_tree_levels, matrix_of_inputs
from repro.core.product_stage import build_leaf_products
from repro.core.recombine import build_product_tree
from repro.core.schedule import LevelSchedule, direct_schedule, every_k_schedule
from repro.core.trees import edge_matrices, iter_paths, relative_functional
from repro.util.encoding import MatrixEncoding


def setup_matrix_inputs(builder, n, bit_width, label):
    wires = builder.allocate_inputs(n * n * 2 * bit_width, label)
    encoding = MatrixEncoding(n, bit_width, offset=wires[0])
    return encoding, matrix_of_inputs(encoding)


def leaf_oracle(algorithm, side, matrix, path):
    """Exact value of a leaf of T_side for the given matrix and path."""
    edges = edge_matrices(algorithm, side)
    functional = relative_functional(edges, path)
    return sum(coeff * int(matrix[p, q]) for (p, q), coeff in functional.items())


class TestMatrixOfInputs:
    def test_wraps_input_wires(self):
        builder = CircuitBuilder()
        encoding, values = setup_matrix_inputs(builder, 2, 2, "A")
        assert values.shape == (2, 2)
        assert isinstance(values[0, 0], SignedBinaryNumber)
        assert values[1, 1].pos.bit_nodes == tuple(encoding.entry_wires(1, 1)[0])


class TestLeafBuilder:
    @pytest.mark.parametrize("schedule_levels", [(0, 2), (0, 1, 2)])
    @pytest.mark.parametrize("side", ["A", "B", "C"])
    def test_leaves_match_oracle(self, strassen, rng, schedule_levels, side):
        n, bit_width = 4, 2
        builder = CircuitBuilder()
        encoding, root = setup_matrix_inputs(builder, n, bit_width, "A")
        schedule = LevelSchedule(schedule_levels)
        leaves = build_tree_levels(builder, strassen, side, root, schedule)
        circuit = builder.build()

        matrix = rng.integers(-3, 4, (n, n))
        node_values = simulate(circuit, encoding.encode(matrix)).node_values
        for path in iter_paths(strassen.r, 2):
            expected = leaf_oracle(strassen, side, matrix, path)
            assert leaves[path].value(node_values) == expected, (side, path)

    def test_leaf_count(self, strassen):
        builder = CircuitBuilder()
        _, root = setup_matrix_inputs(builder, 4, 1, "A")
        leaves = build_tree_levels(builder, strassen, "A", root, LevelSchedule((0, 2)))
        assert len(leaves) == strassen.r ** 2

    def test_depth_is_two_per_selected_level(self, strassen):
        for levels in [(0, 2), (0, 1, 2)]:
            builder = CircuitBuilder()
            _, root = setup_matrix_inputs(builder, 4, 1, "A")
            build_tree_levels(builder, strassen, "A", root, LevelSchedule(levels))
            assert builder.build().depth == 2 * (len(levels) - 1)

    def test_schedule_must_match_matrix_size(self, strassen):
        builder = CircuitBuilder()
        _, root = setup_matrix_inputs(builder, 4, 1, "A")
        with pytest.raises(ValueError):
            build_tree_levels(builder, strassen, "A", root, LevelSchedule((0, 3)))


class TestProductStage:
    def test_products_match_oracle(self, strassen, rng):
        n, bit_width = 2, 2
        builder = CircuitBuilder()
        enc_a, root_a = setup_matrix_inputs(builder, n, bit_width, "A")
        enc_b, root_b = setup_matrix_inputs(builder, n, bit_width, "B")
        schedule = direct_schedule(strassen, n)
        leaves_a = build_tree_levels(builder, strassen, "A", root_a, schedule)
        leaves_b = build_tree_levels(builder, strassen, "B", root_b, schedule)
        products = build_leaf_products(builder, [leaves_a, leaves_b])
        circuit = builder.build()

        a = rng.integers(-3, 4, (n, n))
        b = rng.integers(-3, 4, (n, n))
        inputs = np.concatenate([enc_a.encode(a), enc_b.encode(b)])
        node_values = simulate(circuit, inputs).node_values
        for path in iter_paths(strassen.r, 1):
            expected = leaf_oracle(strassen, "A", a, path) * leaf_oracle(strassen, "B", b, path)
            assert products[path].value(node_values) == expected

    def test_requires_at_least_two_trees(self, strassen):
        builder = CircuitBuilder()
        _, root = setup_matrix_inputs(builder, 2, 1, "A")
        leaves = build_tree_levels(builder, strassen, "A", root, direct_schedule(strassen, 2))
        with pytest.raises(ValueError):
            build_leaf_products(builder, [leaves])

    def test_mismatched_paths_rejected(self, strassen):
        builder = CircuitBuilder()
        _, root = setup_matrix_inputs(builder, 2, 1, "A")
        leaves = build_tree_levels(builder, strassen, "A", root, direct_schedule(strassen, 2))
        truncated = dict(list(leaves.items())[:-1])
        with pytest.raises(ValueError):
            build_leaf_products(builder, [leaves, truncated])

    def test_product_stage_adds_one_layer(self, strassen):
        builder = CircuitBuilder()
        _, root_a = setup_matrix_inputs(builder, 2, 1, "A")
        _, root_b = setup_matrix_inputs(builder, 2, 1, "B")
        schedule = direct_schedule(strassen, 2)
        leaves_a = build_tree_levels(builder, strassen, "A", root_a, schedule)
        depth_before = builder.build().depth
        leaves_b = build_tree_levels(builder, strassen, "B", root_b, schedule)
        build_leaf_products(builder, [leaves_a, leaves_b])
        assert builder.build().depth == depth_before + 1


class TestRecombination:
    @pytest.mark.parametrize("levels", [(0, 2), (0, 1, 2)])
    def test_full_product_pipeline(self, strassen, rng, levels):
        n, bit_width = 4, 1
        builder = CircuitBuilder()
        enc_a, root_a = setup_matrix_inputs(builder, n, bit_width, "A")
        enc_b, root_b = setup_matrix_inputs(builder, n, bit_width, "B")
        schedule = LevelSchedule(levels)
        leaves_a = build_tree_levels(builder, strassen, "A", root_a, schedule)
        leaves_b = build_tree_levels(builder, strassen, "B", root_b, schedule)
        products = build_leaf_products(builder, [leaves_a, leaves_b])
        entries = build_product_tree(builder, strassen, products, schedule, n)
        circuit = builder.build()

        a = rng.integers(0, 2, (n, n))
        b = rng.integers(0, 2, (n, n))
        inputs = np.concatenate([enc_a.encode(a), enc_b.encode(b)])
        node_values = simulate(circuit, inputs).node_values
        expected = a.astype(object) @ b.astype(object)
        for i in range(n):
            for j in range(n):
                assert entries[i, j].value(node_values) == expected[i, j]

    def test_recombination_schedule_mismatch(self, strassen):
        builder = CircuitBuilder()
        _, root_a = setup_matrix_inputs(builder, 2, 1, "A")
        _, root_b = setup_matrix_inputs(builder, 2, 1, "B")
        schedule = direct_schedule(strassen, 2)
        leaves_a = build_tree_levels(builder, strassen, "A", root_a, schedule)
        leaves_b = build_tree_levels(builder, strassen, "B", root_b, schedule)
        products = build_leaf_products(builder, [leaves_a, leaves_b])
        with pytest.raises(ValueError):
            build_product_tree(builder, strassen, products, schedule, 4)

    def test_every_k_schedule_also_works(self, strassen, rng):
        # The ablation schedule is functionally correct, just less gate-efficient.
        n = 4
        builder = CircuitBuilder()
        enc_a, root_a = setup_matrix_inputs(builder, n, 1, "A")
        enc_b, root_b = setup_matrix_inputs(builder, n, 1, "B")
        schedule = every_k_schedule(strassen, n, 1)
        leaves_a = build_tree_levels(builder, strassen, "A", root_a, schedule)
        leaves_b = build_tree_levels(builder, strassen, "B", root_b, schedule)
        products = build_leaf_products(builder, [leaves_a, leaves_b])
        entries = build_product_tree(builder, strassen, products, schedule, n)
        circuit = builder.build()
        a = rng.integers(0, 2, (n, n))
        b = rng.integers(0, 2, (n, n))
        node_values = simulate(circuit, 
            np.concatenate([enc_a.encode(a), enc_b.encode(b)])
        ).node_values
        expected = a.astype(object) @ b.astype(object)
        assert all(
            entries[i, j].value(node_values) == expected[i, j] for i in range(n) for j in range(n)
        )

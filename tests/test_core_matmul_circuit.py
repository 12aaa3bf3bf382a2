"""Tests for the Theorem 4.8 / 4.9 matrix-product circuits (experiment E8)."""

import dataclasses

import numpy as np
import pytest

from repro.arithmetic.signed import BinaryNumber, SignedBinaryNumber
from repro.circuits.serialize import dump_circuit, load_circuit
from repro.core.matmul_circuit import DecodePlan, build_matmul_circuit
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.core.schedule import loglog_schedule
from repro.engine import Engine, EngineConfig
from repro.fastmm.naive_algorithm import naive_algorithm
from repro.fastmm.strassen import strassen_2x2
from repro.fastmm.winograd import winograd_2x2


def exact(a, b):
    return np.asarray(a).astype(object) @ np.asarray(b).astype(object)


class TestCorrectness:
    @pytest.mark.parametrize("n,bit_width", [(2, 1), (2, 3), (4, 1)])
    def test_product_matches_exact(self, rng, n, bit_width):
        high = (1 << bit_width) - 1
        a = rng.integers(-high, high + 1, (n, n))
        b = rng.integers(-high, high + 1, (n, n))
        circuit = build_matmul_circuit(n, bit_width=bit_width, depth_parameter=2)
        assert (circuit.evaluate(a, b) == exact(a, b)).all()

    def test_loglog_schedule(self, rng, strassen):
        n = 4
        a = rng.integers(0, 2, (n, n))
        b = rng.integers(0, 2, (n, n))
        circuit = build_matmul_circuit(n, bit_width=1, schedule=loglog_schedule(strassen, n))
        assert (circuit.evaluate(a, b) == exact(a, b)).all()

    @pytest.mark.parametrize("factory", [winograd_2x2, lambda: naive_algorithm(2)])
    def test_other_algorithms(self, rng, factory):
        algorithm = factory()
        n = algorithm.t
        a = rng.integers(-3, 4, (n, n))
        b = rng.integers(-3, 4, (n, n))
        circuit = build_matmul_circuit(n, bit_width=2, algorithm=algorithm, depth_parameter=1)
        assert (circuit.evaluate(a, b) == exact(a, b)).all()

    def test_identity_and_zero_matrices(self):
        n = 2
        circuit = build_matmul_circuit(n, bit_width=2, depth_parameter=1)
        identity = np.eye(n, dtype=int)
        zero = np.zeros((n, n), dtype=int)
        some = np.array([[3, -2], [1, 0]])
        assert (circuit.evaluate(identity, some) == some.astype(object)).all()
        assert (circuit.evaluate(zero, some) == 0).all()

    def test_reference_helper(self, rng):
        a = rng.integers(-2, 3, (2, 2))
        b = rng.integers(-2, 3, (2, 2))
        circuit = build_matmul_circuit(2, bit_width=2, depth_parameter=1)
        assert (circuit.reference(a, b) == exact(a, b)).all()


class TestResourceBounds:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_depth_is_4t_plus_1(self, d):
        circuit = build_matmul_circuit(4, bit_width=1, depth_parameter=d)
        t = circuit.schedule.t_steps
        assert t <= d
        assert circuit.circuit.depth == 4 * t + 1
        assert circuit.circuit.depth <= 4 * d + 1

    def test_outputs_cover_all_entries(self):
        circuit = build_matmul_circuit(2, bit_width=1, depth_parameter=1)
        labels = circuit.circuit.output_labels
        for i in range(2):
            for j in range(2):
                assert any(label.startswith(f"C[{i}][{j}]") for label in labels)

    def test_metadata(self):
        circuit = build_matmul_circuit(2, bit_width=1, depth_parameter=1)
        assert circuit.circuit.metadata["kind"] == "matmul"
        assert circuit.circuit.metadata["schedule"] == list(circuit.schedule.levels)

    def test_wrong_size_inputs_rejected(self):
        circuit = build_matmul_circuit(2, bit_width=1, depth_parameter=1)
        with pytest.raises(ValueError):
            circuit.evaluate(np.zeros((3, 3), dtype=int), np.zeros((3, 3), dtype=int))

    def test_entries_exceeding_bit_width_rejected(self):
        circuit = build_matmul_circuit(2, bit_width=1, depth_parameter=1)
        with pytest.raises(ValueError):
            circuit.evaluate(np.full((2, 2), 5), np.zeros((2, 2), dtype=int))

DECODE_CASES = {
    "strassen": lambda: build_matmul_circuit(4, bit_width=2, algorithm=strassen_2x2()),
    "winograd": lambda: build_matmul_circuit(2, bit_width=2, algorithm=winograd_2x2()),
    "naive-2": lambda: build_matmul_circuit(2, bit_width=2, algorithm=naive_algorithm(2)),
    "naive-stages1": lambda: build_naive_matmul_circuit(3, bit_width=2, stages=1),
    "naive-stages2": lambda: build_naive_matmul_circuit(3, bit_width=2, stages=2),
}


def per_entry_products(entries, node_values):
    """The reference decode: ``SignedBinaryNumber.value`` entry by entry."""
    return [
        np.array(
            [[entry.value(node_values[:, k]) for entry in row] for row in entries],
            dtype=object,
        )
        for k in range(node_values.shape[1])
    ]


class TestArrayCodec:
    """Batch encode and the output-row decode plan against per-entry codecs."""

    def test_non_integral_entries_rejected(self):
        circuit = build_matmul_circuit(2, bit_width=1)
        with pytest.raises(ValueError, match=r"entry \(0, 0, 0\) = 0.5 is not an integer"):
            circuit.evaluate([[0.5, 1.0], [0.0, -0.9]], np.eye(2))
        with pytest.raises(ValueError, match="is not an integer"):
            circuit.evaluate(np.eye(2), [[np.nan, 0.0], [0.0, 0.0]])
        product = circuit.evaluate(np.eye(2), [[1.0, -1.0], [0.0, 1.0]])
        assert (product == [[1, -1], [0, 1]]).all()
        assert (circuit.evaluate(np.eye(2, dtype=bool), np.eye(2)) == np.eye(2)).all()

    @pytest.mark.parametrize("case", sorted(DECODE_CASES))
    def test_decode_plan_matches_per_entry_values(self, rng, case):
        built = DECODE_CASES[case]()
        node_values = rng.integers(0, 2, (built.circuit.n_nodes, 7), dtype=np.int8)
        products = built.decode_outputs(node_values[built.circuit.outputs])
        assert built.decode_plan.weights.dtype != object
        assert len(products) == 7
        for got, expected in zip(products, per_entry_products(built.entries, node_values)):
            assert got.shape == (built.n, built.n) and got.dtype == object
            assert all(type(v) is int for v in got.flat)
            assert (got == expected).all()

    @pytest.mark.parametrize(
        "top, dtype", [(6, np.int8), (7, np.int16), (62, np.int64), (63, object)]
    )
    def test_decode_plan_certifies_its_integer_lane(self, rng, top, dtype):
        # Entry 0 has bits 0..top, so its weight bound is 2**(top + 1) - 1:
        # 127 is the widest int8 bound, 2**63 - 1 the widest int64 one.
        wide = BinaryNumber(tuple(range(top + 1)), tuple(range(10, 11 + top)), top + 1)
        entries = np.empty((1, 3), dtype=object)
        entries[0, 0] = SignedBinaryNumber(wide, BinaryNumber.zero())
        entries[0, 1] = SignedBinaryNumber.zero()
        entries[0, 2] = SignedBinaryNumber(
            BinaryNumber((0, 1), (3, 4), 2), BinaryNumber((top,), (5,), top + 1)
        )
        outputs = list(range(10 + top, 2, -1))
        plan = DecodePlan(entries, outputs)
        assert plan.weights.dtype == dtype
        node_values = rng.integers(0, 2, (11 + top, 9), dtype=np.int8)
        node_values[:, 0] = 1
        sums = plan.decode(node_values[outputs])
        for k in range(node_values.shape[1]):
            expected = [entry.value(node_values[:, k]) for entry in entries.flat]
            assert [int(v) for v in sums[:, k]] == expected
        assert int(sums[0, 0]) == (1 << (top + 1)) - 1

    def test_plan_rejects_entry_bits_outside_the_outputs(self):
        built = build_matmul_circuit(2, bit_width=1)
        with pytest.raises(ValueError, match="is not a circuit output"):
            DecodePlan(built.entries, built.circuit.outputs[1:])

    def test_drivers_agree_with_exact_product_on_two_workers(self, rng):
        pairs = [
            (rng.integers(-3, 4, (2, 2)), rng.integers(-3, 4, (2, 2))) for _ in range(6)
        ]
        config = EngineConfig(max_workers=2, chunk_size=2, parallel_threshold=1)
        with Engine(config) as engine:
            built = build_matmul_circuit(2, bit_width=2, engine=engine)
            single = [built.evaluate(a, b) for a, b in pairs]
            batch = built.evaluate_batch(pairs)
            submitted = built.submit_batch(pairs).result(timeout=60)
            assert built.evaluate_batch([]) == []
            assert built.submit_batch([]).result(timeout=60) == []
        for products in (single, batch, submitted):
            assert len(products) == len(pairs)
            for product, (a, b) in zip(products, pairs):
                assert product.dtype == object
                assert all(type(v) is int for v in product.flat)
                assert (product == exact(a, b)).all()

    def test_encode_pairs_matches_per_matrix_encoding(self, rng):
        built = build_matmul_circuit(2, bit_width=2)
        pairs = [
            (rng.integers(-3, 4, (2, 2)), rng.integers(-3, 4, (2, 2))) for _ in range(3)
        ]
        block = built.encode_pairs(pairs)
        assert block.shape == (built.circuit.n_inputs, 3) and block.dtype == np.int8
        for k, (a, b) in enumerate(pairs):
            for encoding, matrix in ((built.encoding_a, a), (built.encoding_b, b)):
                wires = slice(encoding.offset, encoding.offset + encoding.total_wires)
                assert np.array_equal(block[wires, k], encoding.encode(matrix))

    def test_replaced_circuit_gets_its_own_decode_plan(self, rng, tmp_path):
        built = build_matmul_circuit(2, bit_width=1)
        a, b = rng.integers(-1, 2, (2, 2)), rng.integers(-1, 2, (2, 2))
        assert (built.evaluate(a, b) == exact(a, b)).all()
        path = str(tmp_path / "matmul.json")
        dump_circuit(built.circuit, path)
        loaded = dataclasses.replace(built, circuit=load_circuit(path))
        assert (loaded.evaluate(a, b) == exact(a, b)).all()
        # Reversed outputs move every product bit to another row: a plan
        # cached for the original circuit would now decode garbage.
        circuit = load_circuit(path)
        circuit.set_outputs(circuit.outputs[::-1], circuit.output_labels[::-1])
        for copy in (dataclasses.replace(built, circuit=circuit), built):
            copy.circuit = circuit
            for _ in range(3):
                a, b = rng.integers(-1, 2, (2, 2)), rng.integers(-1, 2, (2, 2))
                assert (copy.evaluate(a, b) == exact(a, b)).all()

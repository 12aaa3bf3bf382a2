"""Stamped gadget batches equal per-instance direct emission, wire for wire.

Construction emits each gadget batch through template stamping: the
gadget is recorded once and stamped at every instance.  Stamping must be a
pure performance change, so a soup of random gadget calls, replayed once in
stamped batches and once one instance per call through the direct
emitters, has to build circuits with bit-identical structure (equal
``structural_hash``, which covers input count, every gate's
sources/weights/threshold in order, and the declared outputs).  Whole
constructions are pinned by ``tests/fixtures/golden_counts.json``.
"""

from hypothesis import given, settings, strategies as st

from repro.arithmetic.comparator import build_ge_comparison
from repro.arithmetic.product import _build_signed_product_direct, build_signed_products
from repro.arithmetic.signed import SignedBinaryNumber
from repro.arithmetic.weighted_sum import (
    _build_signed_sum_direct,
    build_signed_sums,
    split_signed_terms,
)
from repro.circuits.builder import CircuitBuilder
from repro.core.trace_circuit import build_trace_circuit


# --------------------------------------------------------------------------- #
# Randomized gadget programs, replayed stamped and instance by instance.
# --------------------------------------------------------------------------- #


def _draw_signed_number(data, n_inputs, label):
    """A SignedBinaryNumber over random (possibly overlapping) input wires."""
    n_bits = data.draw(st.integers(min_value=0, max_value=3), label=f"{label}/bits")
    wires = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n_inputs - 1),
            min_size=2 * n_bits,
            max_size=2 * n_bits,
        ),
        label=f"{label}/wires",
    )
    return SignedBinaryNumber.from_input_bits(wires[:n_bits], wires[n_bits:])


def _draw_program(data):
    """A random sequence of gadget invocations (shared by both replays)."""
    n_inputs = data.draw(st.integers(min_value=2, max_value=6), label="n_inputs")
    numbers = [
        _draw_signed_number(data, n_inputs, f"value{i}")
        for i in range(data.draw(st.integers(min_value=2, max_value=4), label="n_values"))
    ]
    ops = []
    for i in range(data.draw(st.integers(min_value=1, max_value=4), label="n_ops")):
        kind = data.draw(st.sampled_from(["sum", "product"]), label=f"op{i}")
        if kind == "sum":
            # Several instances per call to exercise grouping + stamping.
            count = data.draw(st.integers(min_value=1, max_value=3), label=f"op{i}/count")
            picks = [
                [
                    (
                        data.draw(
                            st.integers(min_value=0, max_value=len(numbers) - 1),
                            label=f"op{i}/{j}/value",
                        ),
                        data.draw(
                            st.integers(min_value=-3, max_value=3).filter(bool),
                            label=f"op{i}/{j}/weight",
                        ),
                    )
                    for j in range(
                        data.draw(
                            st.integers(min_value=1, max_value=3),
                            label=f"op{i}/terms",
                        )
                    )
                ]
                for _ in range(count)
            ]
            stages = data.draw(st.integers(min_value=1, max_value=2), label=f"op{i}/stages")
            ops.append(("sum", picks, stages))
        else:
            count = data.draw(st.integers(min_value=1, max_value=3), label=f"op{i}/count")
            picks = [
                [
                    data.draw(
                        st.integers(min_value=0, max_value=len(numbers) - 1),
                        label=f"op{i}/{j}/factor",
                    )
                    # Repeated factor indices are allowed on purpose: they
                    # trigger the duplicate-parameter legacy fallback.
                    for j in range(
                        data.draw(
                            st.integers(min_value=1, max_value=3),
                            label=f"op{i}/factors",
                        )
                    )
                ]
                for _ in range(count)
            ]
            ops.append(("product", picks, None))
    tau = data.draw(st.integers(min_value=-4, max_value=4), label="tau")
    return n_inputs, numbers, ops, tau


def _replay(n_inputs, numbers, ops, tau, stamped):
    """Emit the program; returns the builder and every (op, picks, results)."""
    builder = CircuitBuilder(name="gadget-soup")
    builder.allocate_inputs(n_inputs)
    emitted = []
    last_signed_value = None
    for kind, picks, stages in ops:
        if kind == "sum":
            items_list = [
                [(numbers[index].to_signed_value(), weight) for index, weight in instance]
                for instance in picks
            ]
            if stamped:
                results = build_signed_sums(
                    builder, items_list, stages=stages, tag="soup/sum"
                )
            else:
                results = [
                    _build_signed_sum_direct(
                        builder, *split_signed_terms(items), None, stages, "soup/sum"
                    )
                    for items in items_list
                ]
        else:
            factors_list = [[numbers[index] for index in instance] for instance in picks]
            if stamped:
                results = build_signed_products(builder, factors_list, tag="soup/prod")
            else:
                results = [
                    _build_signed_product_direct(builder, factors, "soup/prod")
                    for factors in factors_list
                ]
            last_signed_value = results[-1]
        emitted.append((kind, picks, results))
    if last_signed_value is not None:
        output = build_ge_comparison(builder, last_signed_value, tau, tag="soup/out")
        builder.set_outputs([output])
    return builder, emitted


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_gadgets_bit_identical(data):
    n_inputs, numbers, ops, tau = _draw_program(data)
    stamped, emitted = _replay(n_inputs, numbers, ops, tau, stamped=True)
    direct, _ = _replay(n_inputs, numbers, ops, tau, stamped=False)
    fast, reference = stamped.build(), direct.build()
    assert fast.structural_hash() == reference.structural_hash()
    assert fast.stats() == reference.stats()
    assert stamped.tag_counts() == direct.tag_counts()
    # Depth bookkeeping must agree gate by gate, not just in the maximum.
    assert fast.gates_by_depth() == reference.gates_by_depth()

    # Every emitted sum and product equals exact integer arithmetic on the
    # drawn values, and the output gate decides the last product >= tau.
    for round_ in range(3):
        bits = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1),
                min_size=n_inputs,
                max_size=n_inputs,
            ),
            label=f"inputs{round_}",
        )
        values = fast.evaluate_slow(bits)
        drawn = [number.value(values) for number in numbers]
        last = None
        for kind, picks, results in emitted:
            for instance, result in zip(picks, results):
                if kind == "sum":
                    expected = sum(weight * drawn[index] for index, weight in instance)
                else:
                    expected = 1
                    for index in instance:
                        expected *= drawn[index]
                    last = expected
                assert result.value(values) == expected, (kind, instance)
        if last is not None:
            assert values[fast.outputs[0]] == int(last >= tau)


def test_trace_circuit_evaluates_correctly(rng):
    trace = build_trace_circuit(4, 10, depth_parameter=2)
    for _ in range(5):
        matrix = rng.integers(-2, 3, size=(4, 4))
        assert trace.evaluate(matrix) == trace.reference(matrix)

"""Differential suite for the static verifier (``repro.statics.verifier``).

Three pillars, per the static-analysis design:

* **Golden constructions** — every circuit pinned in
  ``tests/fixtures/golden_counts.json`` verifies clean, and the verifier's
  overflow verdict agrees with :func:`build_template_plan` exactly.
* **Hypothesis differential** — on random gadget soups the abstract
  interpretation's per-gate intervals always contain the accumulator
  values actually observed under random inputs, its magnitude bound never
  exceeds the runtime's worst case, and an int64-safe verdict implies the
  compiled backends bit-match ``evaluate_slow``.
* **Tamper detection** — corrupted template provenance and corrupted
  columnar stores are caught (by the verifier, by ``validate_circuit``'s
  new default provenance pass, by the serialize path's load-time check,
  and by the engine's ``verify_compile`` debug gate).
"""

import copy
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_compile_equivalence import _soup_circuit, assert_compile_equivalent
from test_golden_counts import CASES

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.serialize import circuit_to_dict, dump_circuit, load_circuit
from repro.circuits.simulator import ResidualSegment, build_template_plan
from repro.circuits.store import segment_sum
from repro.circuits.validate import validate_circuit
from repro.cli import main as cli_main
from repro.statics.verifier import _plan_issues
from repro.engine import Engine, EngineConfig
from repro.statics import (
    StaticReport,
    StaticVerificationError,
    gate_intervals,
    provenance_issues,
    structure_issues,
    unreachable_gates,
    verify_circuit,
)


def _random_inputs(circuit, batch, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(circuit.n_inputs, batch)).astype(np.int64)


def _tamper_first_block(circuit):
    """Swap the first template block's parameter columns (store untouched)."""
    block = circuit.template_blocks[0]
    params = np.array(block.params)
    if params.shape[1] < 2:
        pytest.skip("first block has fewer than two parameter slots")
    swapped = params[:, ::-1].copy()
    if np.array_equal(swapped, params):
        pytest.skip("parameter rows are palindromic; swap is a no-op")
    circuit.template_blocks[0] = dataclasses.replace(block, params=swapped)
    return circuit


# --------------------------------------------------------------------------- #
# Golden constructions.
# --------------------------------------------------------------------------- #


class TestGoldenConstructions:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_verifies_clean(self, name):
        circuit = CASES[name]()
        report = verify_circuit(circuit, target=name)
        assert report.ok, report.issues
        plan = build_template_plan(circuit)
        assert report.info["max_magnitude"] == plan.max_magnitude
        assert report.info["int64_safe"] == plan.int64_safe
        assert report.info["float64_exact"] == plan.float64_exact
        # The interval analysis is a refinement: never looser than worst case.
        assert report.info["interval_max_magnitude"] <= plan.max_magnitude

    def test_cli_verify_all_golden(self, tmp_path):
        paths = []
        for name in sorted(CASES):
            path = tmp_path / f"{name}.json"
            dump_circuit(CASES[name](), str(path))
            paths.append(str(path))
        stream = io.StringIO()
        assert cli_main(["verify", *paths], stream=stream) == 0
        payload = json.loads(stream.getvalue())
        assert payload["ok"] is True
        assert len(payload["reports"]) == len(CASES)
        assert all(not r["issues"] for r in payload["reports"])


# --------------------------------------------------------------------------- #
# Hypothesis differential: analyzer vs runtime.
# --------------------------------------------------------------------------- #


class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_soup_verdicts_and_interval_soundness(self, data):
        circuit = _soup_circuit(data)
        if circuit.size == 0:
            return
        report = verify_circuit(circuit, target="soup")
        assert report.ok, report.issues
        plan = build_template_plan(circuit)
        assert report.info["max_magnitude"] == plan.max_magnitude
        assert report.info["int64_safe"] == plan.int64_safe

        intervals = gate_intervals(circuit)
        assert intervals.max_magnitude <= plan.max_magnitude

        # Observed accumulators on random inputs must land inside the
        # intervals — the soundness half of the abstract interpretation.
        cols = circuit.columnar()
        inputs = _random_inputs(circuit, batch=3, seed=7)
        for b in range(inputs.shape[1]):
            values = circuit.evaluate_slow(list(inputs[:, b]))
            acc = segment_sum(
                cols.weights * values[cols.sources], cols.offsets
            )
            assert bool(np.all(intervals.acc_lo <= acc)), "interval lower bound violated"
            assert bool(np.all(acc <= intervals.acc_hi)), "interval upper bound violated"
            # Constant-gate claims are exact, not just sound.
            n_inputs = circuit.n_inputs
            for node in intervals.constant_gates:
                gate = int(node) - n_inputs
                assert intervals.val_lo[node] == intervals.val_hi[node]
                assert values[node] == int(intervals.val_lo[node])

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_int64_safe_implies_backend_bitmatch(self, data):
        circuit = _soup_circuit(data)
        if circuit.size == 0:
            return
        report = verify_circuit(circuit, provenance=True, target="soup")
        assert report.ok, report.issues
        if report.info["int64_safe"]:
            assert_compile_equivalent(circuit, _random_inputs(circuit, 3, 13))

    def test_huge_weights_take_exact_path(self):
        circuit = ThresholdCircuit(2, name="huge")
        gate = circuit.add_gate_parts([0, 1], [2**62, -(2**62)], 1)
        circuit.set_outputs([gate])
        report = verify_circuit(circuit)
        assert report.ok, report.issues
        plan = build_template_plan(circuit)
        assert report.info["int64_safe"] is False
        assert plan.int64_safe is False
        assert report.info["max_magnitude"] == plan.max_magnitude == 2**63 + 1
        # The interval bound is tighter: both weights cannot peak together.
        intervals = gate_intervals(circuit)
        assert intervals.max_magnitude == 2**62
        assert intervals.acc_lo[0] == -(2**62)
        assert intervals.acc_hi[0] == 2**62


# --------------------------------------------------------------------------- #
# Structure, reachability, constants.
# --------------------------------------------------------------------------- #


class TestStructure:
    def test_corrupt_store_is_caught(self, monkeypatch):
        circuit = CASES["naive-triangles-n6-tau2"]()
        cols = circuit.columnar()
        bad_sources = cols.sources.copy()
        bad_sources[-1] = circuit.n_nodes + 5  # dangling forward reference
        bad = dataclasses.replace(cols, sources=bad_sources)
        monkeypatch.setattr(circuit, "columnar", lambda: bad)
        issues = structure_issues(circuit)
        assert issues and "not an earlier node" in issues[0]
        report = verify_circuit(circuit)
        assert not report.ok

    def test_inconsistent_depths_are_caught(self, monkeypatch):
        circuit = CASES["naive-triangles-n6-tau2"]()
        depths = circuit.gate_depths().copy()
        depths[-1] += 1
        monkeypatch.setattr(circuit, "gate_depths", lambda: depths)
        issues = structure_issues(circuit)
        assert issues and "depth" in issues[0]

    def test_unreachable_gate_reported(self):
        circuit = ThresholdCircuit(2, name="dead-gate")
        live = circuit.add_gate_parts([0, 1], [1, 1], 1)
        circuit.add_gate_parts([0], [1], 1)  # never consumed
        circuit.set_outputs([live])
        dead = unreachable_gates(circuit)
        assert dead.tolist() == [3]
        report = verify_circuit(circuit)
        assert report.ok  # dead gates warn, they do not fail
        assert report.info["unreachable_gates"] == 1
        assert any("cannot reach" in w for w in report.warnings)

    def test_no_outputs_skips_reachability(self):
        circuit = ThresholdCircuit(2)
        circuit.add_gate_parts([0, 1], [1, 1], 1)
        assert unreachable_gates(circuit).size == 0
        report = verify_circuit(circuit)
        assert report.ok
        assert any("no outputs" in w for w in report.warnings)

    def test_constant_gates_detected(self):
        circuit = ThresholdCircuit(2, name="constants")
        always = circuit.add_gate_parts([0], [1], 0)  # fires on 0 and 1
        never = circuit.add_gate_parts([1], [1], 5)  # can never reach 5
        free = circuit.add_gate_parts([0, 1], [1, 1], 2)
        circuit.set_outputs([always, never, free])
        intervals = gate_intervals(circuit)
        assert intervals.constant_gates.tolist() == [always, never]
        assert intervals.val_lo[always] == intervals.val_hi[always] == 1
        assert intervals.val_lo[never] == intervals.val_hi[never] == 0
        assert intervals.val_lo[free] == 0 and intervals.val_hi[free] == 1

    def test_empty_circuit(self):
        report = verify_circuit(ThresholdCircuit(3))
        assert report.ok
        assert report.info["max_magnitude"] == 0
        assert report.info["int64_safe"] is True

    def test_report_raise_and_dict(self):
        report = StaticReport(target="t")
        assert report.ok
        report.raise_if_failed()  # no-op while clean
        report.issues.append("boom")
        with pytest.raises(StaticVerificationError, match="boom"):
            report.raise_if_failed()
        payload = report.as_dict()
        assert payload["ok"] is False and payload["target"] == "t"
        json.dumps(payload)  # JSON-clean by construction


# --------------------------------------------------------------------------- #
# Provenance tampering, across every enforcement point.
# --------------------------------------------------------------------------- #


class TestProvenance:
    def _stamped(self):
        circuit = CASES["matmul-strassen-n4-b1"]()
        assert circuit.template_blocks
        return circuit

    def test_clean_provenance(self):
        assert provenance_issues(self._stamped()) == []

    def test_tampered_params_detected(self):
        circuit = _tamper_first_block(self._stamped())
        issues = provenance_issues(circuit)
        assert issues and "diverge" in issues[0]

    def test_validate_circuit_checks_provenance_by_default(self):
        circuit = _tamper_first_block(self._stamped())
        report = validate_circuit(circuit)
        assert not report.ok
        assert validate_circuit(circuit, check_provenance=False).ok

    def test_engine_verify_compile_gate(self):
        good = self._stamped()
        engine = Engine(EngineConfig(verify_compile=True))
        inputs = _random_inputs(good, 2, 5)
        baseline = Engine().evaluate(good, inputs)
        gated = engine.evaluate(good, inputs)
        assert np.array_equal(baseline.outputs, gated.outputs)
        bad = _tamper_first_block(self._stamped())
        with pytest.raises(StaticVerificationError):
            Engine(EngineConfig(verify_compile=True)).evaluate(bad, inputs)

    def test_missing_template_detected(self):
        circuit = self._stamped()
        block = circuit.template_blocks[0]
        circuit.template_blocks[0] = dataclasses.replace(block, template=None)
        issues = provenance_issues(circuit)
        assert issues and "no compiled template" in issues[0]

    def test_shifted_base_detected(self):
        circuit = self._stamped()
        block = circuit.template_blocks[0]
        circuit.template_blocks[0] = dataclasses.replace(
            block, base=int(block.base) + 1
        )
        # A one-gate shift must break *something* — fan-ins, weights,
        # thresholds or sources no longer re-derive at the shifted range.
        assert provenance_issues(circuit)


# --------------------------------------------------------------------------- #
# Plan checks: the one compiled plan form must be well-formed.
# --------------------------------------------------------------------------- #


class TestPlanChecks:
    @staticmethod
    def _plan():
        # Strassen n=4 mixes template blocks with multi-layer residual runs.
        circuit = CASES["matmul-strassen-n4-b1"]()
        plan = build_template_plan(circuit)
        assert plan.covered_gates and any(
            isinstance(segment, ResidualSegment) and len(segment.layers) > 1
            for segment in plan.segments
        )
        return circuit, plan

    @staticmethod
    def _first_residual(plan):
        return next(s for s in plan.segments if isinstance(s, ResidualSegment))

    def test_clean_plan_has_no_issues(self):
        _, plan = self._plan()
        assert _plan_issues(plan) == []

    def test_repeated_layer_detected(self):
        _, plan = self._plan()
        segment = self._first_residual(plan)
        segment.layers.append(segment.layers[-1])
        issues = _plan_issues(plan)
        assert any("does not strictly increase" in issue for issue in issues)
        assert any("exactly once" in issue for issue in issues)

    def test_out_of_range_ids_detected(self):
        _, plan = self._plan()
        layer = self._first_residual(plan).layers[0]
        layer.cols = layer.cols.copy()
        layer.cols[0] = plan.n_nodes
        layer.nodes = layer.nodes.copy()
        layer.nodes[0] = plan.n_inputs - 1
        issues = _plan_issues(plan)
        assert any("reads sources outside" in issue for issue in issues)
        assert any("holds node ids outside" in issue for issue in issues)

    def test_bad_offsets_detected(self):
        _, plan = self._plan()
        layer = self._first_residual(plan).layers[0]
        layer.offsets = layer.offsets[:-1]
        assert any("offsets do not partition" in i for i in _plan_issues(plan))

    def test_shifted_block_detected(self):
        _, plan = self._plan()
        index, block = next(
            (i, s)
            for i, s in enumerate(plan.segments)
            if not isinstance(s, ResidualSegment)
        )
        plan.segments[index] = dataclasses.replace(block, base=int(block.base) + 1)
        assert any("tiling cursor" in i for i in _plan_issues(plan))

    def test_refused_provenance_reported(self, monkeypatch):
        # Provenance the provenance pass verified must be accepted by the
        # plan builder; a builder that drops it is reported, not hidden.
        import repro.statics.verifier as verifier

        circuit, _ = self._plan()

        def residual_only(target, min_cover=0.0):
            bare = copy.copy(target)
            bare.template_blocks = []
            return build_template_plan(bare)

        monkeypatch.setattr(verifier, "build_template_plan", residual_only)
        report = verify_circuit(circuit)
        assert any("refused the factorization" in i for i in report.issues)


# --------------------------------------------------------------------------- #
# Serialize-path validation (satellite: validated loads by default).
# --------------------------------------------------------------------------- #


class TestSerializeValidation:
    def test_roundtrip_validates_clean(self, tmp_path):
        circuit = CASES["naive-matmul-n4-b1-stages1"]()
        path = tmp_path / "c.json"
        dump_circuit(circuit, str(path))
        loaded = load_circuit(str(path))  # validate=True is the default
        assert loaded.structural_hash() == circuit.structural_hash()
        # opt-out path loads the same circuit without the check
        opted_out = load_circuit(str(path), validate=False)
        assert opted_out.structural_hash() == circuit.structural_hash()

    def test_cli_verify_reports_unloadable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "not-a-circuit"}))
        stream = io.StringIO()
        assert cli_main(["verify", str(bad)], stream=stream) == 1
        payload = json.loads(stream.getvalue())
        assert payload["ok"] is False
        assert "failed to load" in payload["reports"][0]["issues"][0]

    def test_cli_verify_text_and_quick(self, tmp_path):
        circuit = CASES["naive-triangles-n6-tau2"]()
        path = tmp_path / "c.json"
        dump_circuit(circuit, str(path))
        stream = io.StringIO()
        assert (
            cli_main(["verify", "--quick", "--format", "text", str(path)], stream=stream)
            == 0
        )
        assert "ok" in stream.getvalue()

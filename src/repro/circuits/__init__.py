"""Threshold-circuit substrate.

This subpackage is the hardware-model layer of the reproduction: boolean
circuits of McCulloch–Pitts linear threshold gates with unbounded fan-in
(the TC0 model of the paper), together with an exact vectorized simulator,
structural validation, complexity analysis, optimization passes and JSON
serialization.
"""

from repro.circuits.gate import Gate, canonical_parts
from repro.circuits.circuit import ThresholdCircuit, CircuitStats, GateView
from repro.circuits.store import Columns, GateStore
from repro.circuits.builder import CircuitBuilder
from repro.circuits.counting import CountingBuilder
from repro.circuits.template import GadgetStamper, GadgetTemplate, TemplateBuilder
from repro.circuits.simulator import SimulationResult, simulate
from repro.circuits.validate import ValidationReport, validate_circuit
from repro.circuits.analysis import (
    LayerProfile,
    layer_profile,
    fan_in_histogram,
    weight_magnitude_histogram,
    tag_breakdown,
    measure_energy,
)
from repro.circuits.optimize import deduplicate_gates, eliminate_dead_gates
from repro.circuits.serialize import (
    circuit_to_dict,
    circuit_from_dict,
    dump_circuit,
    load_circuit,
)

__all__ = [
    "Gate",
    "canonical_parts",
    "ThresholdCircuit",
    "CircuitStats",
    "GateView",
    "Columns",
    "GateStore",
    "CircuitBuilder",
    "CountingBuilder",
    "GadgetStamper",
    "GadgetTemplate",
    "TemplateBuilder",
    "SimulationResult",
    "simulate",
    "ValidationReport",
    "validate_circuit",
    "LayerProfile",
    "layer_profile",
    "fan_in_histogram",
    "weight_magnitude_histogram",
    "tag_breakdown",
    "measure_energy",
    "deduplicate_gates",
    "eliminate_dead_gates",
    "circuit_to_dict",
    "circuit_from_dict",
    "dump_circuit",
    "load_circuit",
]

"""Complexity analysis of constructed circuits.

Beyond the headline measures (size, depth, edges, fan-in) exposed by
:class:`~repro.circuits.circuit.ThresholdCircuit`, this module produces the
finer-grained breakdowns used by the benchmark harness:

* gates per depth layer,
* fan-in and weight-magnitude histograms,
* gate counts grouped by construction tag (which lemma created each gate),
* the firing-energy measure of the paper's Section 6 open problem.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import simulate

__all__ = [
    "LayerProfile",
    "layer_profile",
    "fan_in_histogram",
    "weight_magnitude_histogram",
    "tag_breakdown",
    "measure_energy",
]


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer gate and wire counts."""

    layers: Dict[int, int]
    edges_per_layer: Dict[int, int]

    @property
    def depth(self) -> int:
        """Number of layers."""
        return max(self.layers, default=0)

    def as_rows(self) -> List[Dict[str, int]]:
        """Row-per-layer view for tabular reporting."""
        return [
            {
                "layer": layer,
                "gates": self.layers[layer],
                "edges": self.edges_per_layer.get(layer, 0),
            }
            for layer in sorted(self.layers)
        ]


def layer_profile(circuit: ThresholdCircuit) -> LayerProfile:
    """Count gates and incoming wires per depth layer."""
    gate_counts: Dict[int, int] = Counter()
    edge_counts: Dict[int, int] = Counter()
    for offset, gate in enumerate(circuit.gates):
        depth = circuit.node_depth(circuit.n_inputs + offset)
        gate_counts[depth] += 1
        edge_counts[depth] += gate.fan_in
    return LayerProfile(dict(gate_counts), dict(edge_counts))


def fan_in_histogram(circuit: ThresholdCircuit) -> Dict[int, int]:
    """Histogram of gate fan-ins."""
    return dict(Counter(gate.fan_in for gate in circuit.gates))


def weight_magnitude_histogram(circuit: ThresholdCircuit) -> Dict[int, int]:
    """Histogram of ``bits(max |weight|)`` per gate (0 for weightless gates)."""
    histogram: Dict[int, int] = Counter()
    for gate in circuit.gates:
        histogram[int(gate.max_abs_weight).bit_length()] += 1
    return dict(histogram)


def tag_breakdown(circuit: ThresholdCircuit) -> Dict[str, int]:
    """Gate counts grouped by the tag recorded at construction time."""
    return dict(Counter(gate.tag or "(untagged)" for gate in circuit.gates))


def measure_energy(circuit: ThresholdCircuit, inputs: np.ndarray) -> np.ndarray:
    """Number of firing gates for each input assignment in ``inputs``.

    This is the energy model suggested in the paper's open-problems section:
    a gate is charged one unit if and only if it fires.  Evaluates through
    the default engine.
    """
    return np.atleast_1d(simulate(circuit, inputs).energy)

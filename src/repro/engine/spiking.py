"""Spiking-mode evaluator: per-layer / per-gate spike counts and energy.

The paper's constructions target neuromorphic hardware, where the cost of a
run is not gate count but *activity*: how many neurons fire (the Uchizawa–
Douglas–Maass energy the scalar ``SimulationResult.energy`` already reports)
and how many synaptic events are delivered (a firing source charges every
outgoing wire).  This module replays a circuit layer by layer and records
both, resolved per layer and per gate, so energy hotspots can be localized
to a construction stage instead of a single total.

The replay consumes the node values computed by any engine backend — the
trace is a pure function of them — so it inherits the backend's exactness
and costs one extra pass over the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.circuits.store import iter_depth_layers

__all__ = ["ActivityPlan", "SpikeTrace", "compute_spike_trace"]


@dataclass(frozen=True)
class ActivityPlan:
    """The global depth-layer view the spiking replay reads.

    Just int64 arrays — each layer's gate node ids and the source node id
    of each of its wires — with no weights or thresholds, so the engine can
    memoize it per circuit structure without pinning a compiled plan.
    """

    n_inputs: int
    n_nodes: int
    layers: Tuple[Tuple[int, np.ndarray, np.ndarray], ...]  # (depth, nodes, cols)

    @classmethod
    def from_circuit(cls, circuit) -> "ActivityPlan":
        """Build the activity layers straight from a circuit's columnar store."""
        cols_store = circuit.columnar()
        layers = [
            (depth, gate_idx + circuit.n_inputs, cols_store.sources[wire_idx])
            for depth, gate_idx, wire_idx, _fan in iter_depth_layers(
                circuit.gate_depths(), cols_store.offsets
            )
        ]
        return cls(
            n_inputs=circuit.n_inputs,
            n_nodes=circuit.n_nodes,
            layers=tuple(layers),
        )


@dataclass(frozen=True)
class SpikeTrace:
    """Activity trace of one batched evaluation.

    Attributes
    ----------
    depths:
        Depth label of each layer, ascending (shape ``(n_layers,)``).
    gates_per_layer:
        Number of gates in each layer (shape ``(n_layers,)``).
    spikes_per_layer:
        Firing gates per layer and batch column (``(n_layers, batch)``).
    synaptic_events_per_layer:
        Spikes *delivered into* each layer per batch column: every wire whose
        source carries a 1 counts one event (``(n_layers, batch)``).
    gate_fire_counts:
        Per-gate total fires across the batch (``(size,)``, gate order).
    energy:
        Total firing gates per batch column (``(batch,)``); always equals
        ``spikes_per_layer.sum(axis=0)`` and the simulator's energy measure.
    """

    depths: np.ndarray
    gates_per_layer: np.ndarray
    spikes_per_layer: np.ndarray
    synaptic_events_per_layer: np.ndarray
    gate_fire_counts: np.ndarray
    energy: np.ndarray

    @property
    def batch(self) -> int:
        """Number of evaluated input assignments."""
        return int(self.energy.shape[0])

    @property
    def synaptic_events(self) -> np.ndarray:
        """Total synaptic events per batch column (``(batch,)``)."""
        return self.synaptic_events_per_layer.sum(axis=0)

    def as_rows(self) -> List[dict]:
        """Row-per-layer view for tabular/JSON reporting (means over batch)."""
        rows = []
        for index in range(self.depths.shape[0]):
            gates = int(self.gates_per_layer[index])
            mean_spikes = float(self.spikes_per_layer[index].mean())
            rows.append(
                {
                    "layer": int(self.depths[index]),
                    "gates": gates,
                    "mean_spikes": mean_spikes,
                    "mean_fraction_firing": mean_spikes / gates if gates else 0.0,
                    "mean_synaptic_events": float(
                        self.synaptic_events_per_layer[index].mean()
                    ),
                }
            )
        return rows

    def as_dict(self) -> dict:
        """Summary dict (no per-gate detail) for CLI and benchmark output."""
        return {
            "samples": self.batch,
            "mean_energy": float(self.energy.mean()) if self.batch else 0.0,
            "max_energy": int(self.energy.max()) if self.batch else 0,
            "min_energy": int(self.energy.min()) if self.batch else 0,
            "mean_synaptic_events": (
                float(self.synaptic_events.mean()) if self.batch else 0.0
            ),
            "layers": self.as_rows(),
        }


def compute_spike_trace(plan: ActivityPlan, node_values: np.ndarray) -> SpikeTrace:
    """Replay an activity plan over computed node values.

    ``node_values`` is the ``(n_nodes, batch)`` 0/1 matrix produced by any
    backend for the same circuit the plan was built from.
    """
    if node_values.ndim != 2 or node_values.shape[0] != plan.n_nodes:
        raise ValueError(
            f"node_values must have shape ({plan.n_nodes}, batch), "
            f"got {node_values.shape}"
        )
    batch = node_values.shape[1]
    n_layers = len(plan.layers)
    depths = np.zeros(n_layers, dtype=np.int64)
    gates_per_layer = np.zeros(n_layers, dtype=np.int64)
    spikes = np.zeros((n_layers, batch), dtype=np.int64)
    events = np.zeros((n_layers, batch), dtype=np.int64)
    for index, (depth, nodes, cols) in enumerate(plan.layers):
        depths[index] = depth
        gates_per_layer[index] = nodes.shape[0]
        spikes[index] = node_values[nodes, :].astype(np.int64).sum(axis=0)
        if cols.size:
            # One synaptic event per wire whose source node carries a spike.
            events[index] = node_values[cols, :].astype(np.int64).sum(axis=0)
    gate_fire_counts = (
        node_values[plan.n_inputs :, :].astype(np.int64).sum(axis=1)
    )
    return SpikeTrace(
        depths=depths,
        gates_per_layer=gates_per_layer,
        spikes_per_layer=spikes,
        synaptic_events_per_layer=events,
        gate_fire_counts=gate_fire_counts,
        energy=spikes.sum(axis=0),
    )

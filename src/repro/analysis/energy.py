"""Firing-energy measurements (paper Section 6, open problems).

The paper suggests charging a gate one unit of energy if and only if it
fires (Uchizawa, Douglas, Maass).  The simulator already reports the number
of firing gates per evaluation; this module aggregates that measure over
input ensembles so the energy of the subcubic circuits can be compared with
the naive baselines (experiment E12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.simulator import simulate

__all__ = ["EnergyReport", "measure_circuit_energy"]


@dataclass(frozen=True)
class EnergyReport:
    """Summary statistics of firing energy over an input ensemble."""

    circuit_size: int
    samples: int
    mean_energy: float
    max_energy: int
    min_energy: int

    @property
    def mean_fraction_firing(self) -> float:
        """Average fraction of gates that fire per evaluation."""
        return self.mean_energy / self.circuit_size if self.circuit_size else 0.0

    def as_dict(self) -> dict:
        """Flat dict for reports."""
        return {
            "circuit_size": self.circuit_size,
            "samples": self.samples,
            "mean_energy": self.mean_energy,
            "max_energy": self.max_energy,
            "min_energy": self.min_energy,
            "mean_fraction_firing": self.mean_fraction_firing,
        }


def measure_circuit_energy(
    circuit: ThresholdCircuit,
    input_batches: Sequence[np.ndarray],
    engine=None,
) -> EnergyReport:
    """Evaluate the circuit on each input vector and summarize firing energy.

    Evaluation routes through the execution engine (the process default, or
    ``engine`` if given), so the compile cache is shared with other callers.
    """
    if not input_batches:
        raise ValueError("need at least one input assignment to measure energy")
    batch = np.stack([np.asarray(vec) for vec in input_batches], axis=1)
    energy = np.atleast_1d(simulate(circuit, batch, engine=engine).energy)
    return EnergyReport(
        circuit_size=circuit.size,
        samples=int(energy.shape[0]),
        mean_energy=float(energy.mean()),
        max_energy=int(energy.max()),
        min_energy=int(energy.min()),
    )

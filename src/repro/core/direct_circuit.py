"""Theorem 4.1: the direct (single-jump) construction with staged addition.

The paper's Section 4.2 motivates the level-selection technique by first
analysing the naive flattening of the fast algorithm: compute every leaf of
T_A and T_B directly from the inputs.  With depth-2 sums this costs about
``N^(1 + omega)`` (~N^3.81 for Strassen) gates; replacing the depth-2 sums by
depth-``2d`` staged addition circuits (Siu et al.) yields Theorem 4.1's
``O~(d N^(omega + 1/d))`` gates in depth ``O(d)``.

Both variants are obtained here by running the standard constructions with
the single-jump ("direct") schedule and the requested number of stages, so
the experiment E5 harness can sweep them directly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.matmul_circuit import MatmulCircuit, build_matmul_circuit
from repro.core.schedule import direct_schedule
from repro.core.trace_circuit import TraceCircuit, build_trace_circuit
from repro.fastmm.bilinear import BilinearAlgorithm
from repro.fastmm.strassen import strassen_2x2

__all__ = ["build_direct_matmul_circuit", "build_direct_trace_circuit"]


def build_direct_matmul_circuit(
    n: int,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    stages: int = 1,
) -> MatmulCircuit:
    """Theorem 4.1 matrix-product circuit (single-jump schedule, staged sums).

    Like every driver, the stamped construction's template provenance rides
    on the returned ``circuit`` (``template_blocks``), so engine compiles of
    direct circuits take the template-streaming path too.
    """
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    return build_matmul_circuit(
        n,
        bit_width=bit_width,
        algorithm=algorithm,
        schedule=direct_schedule(algorithm, n),
        stages=stages,
    )


def build_direct_trace_circuit(
    n: int,
    tau: int,
    bit_width: Optional[int] = None,
    algorithm: Optional[BilinearAlgorithm] = None,
    stages: int = 1,
) -> TraceCircuit:
    """Theorem 4.1-style trace circuit (single-jump schedule, staged sums)."""
    algorithm = algorithm if algorithm is not None else strassen_2x2()
    return build_trace_circuit(
        n,
        tau,
        bit_width=bit_width,
        algorithm=algorithm,
        schedule=direct_schedule(algorithm, n),
        stages=stages,
    )

"""Reproduction of "Constant-Depth and Subcubic-Size Threshold Circuits for
Matrix Multiplication" (Parekh, Phillips, James, Aimone - SPAA 2018).

The package is organized by substrate:

* :mod:`repro.circuits` - threshold-gate circuit model, simulator, analysis;
* :mod:`repro.arithmetic` - the basic TC0 arithmetic circuits of Section 3;
* :mod:`repro.fastmm` - bilinear (Strassen-like) fast matrix multiplication
  algorithms and their sparsity parameters (Section 2.1, Definition 2.1);
* :mod:`repro.core` - the paper's constructions: the trees of Figure 2,
  level schedules, and the trace / matrix-product circuits of Section 4;
* :mod:`repro.triangles`, :mod:`repro.convolution` - the motivating
  applications of Section 5;
* :mod:`repro.analysis` - gate-count models, crossover and energy analyses.

The most commonly used entry points are re-exported lazily at the top level
(PEP 562), so ``import repro`` stays cheap and subpackages can be used
independently.
"""

from importlib import import_module
from typing import Dict

from repro._version import __version__

#: Map of lazily re-exported name -> defining submodule.
_LAZY_EXPORTS: Dict[str, str] = {
    # circuit substrate
    "ThresholdCircuit": "repro.circuits",
    "CircuitBuilder": "repro.circuits",
    "simulate": "repro.circuits",
    # execution engine
    "Engine": "repro.engine",
    "EngineConfig": "repro.engine",
    "default_engine": "repro.engine",
    "SpikeTrace": "repro.engine",
    # observability
    "MetricsRegistry": "repro.obs",
    "get_registry": "repro.obs",
    "enable_telemetry": "repro.obs",
    # fast matrix multiplication substrate
    "BilinearAlgorithm": "repro.fastmm",
    "strassen_2x2": "repro.fastmm",
    "winograd_2x2": "repro.fastmm",
    "naive_algorithm": "repro.fastmm",
    "get_algorithm": "repro.fastmm",
    "sparsity_parameters": "repro.fastmm",
    "fast_matmul": "repro.fastmm",
    # core constructions
    "LevelSchedule": "repro.core",
    "loglog_schedule": "repro.core",
    "constant_depth_schedule": "repro.core",
    "build_trace_circuit": "repro.core",
    "build_matmul_circuit": "repro.core",
    "build_naive_triangle_circuit": "repro.core",
    "build_naive_matmul_circuit": "repro.core",
    "TraceCircuit": "repro.core",
    "MatmulCircuit": "repro.core",
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module = import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__

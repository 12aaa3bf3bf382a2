"""Incremental construction of threshold circuits.

:class:`CircuitBuilder` is the single entry point the arithmetic and
matrix-multiplication constructions use to emit gates.  It adds a few
conveniences on top of :class:`~repro.circuits.circuit.ThresholdCircuit`:

* named input allocation (blocks of wires for matrices, thresholds, ...),
* a bulk emission API (:meth:`CircuitBuilder.add_gates`) accepting CSR-style
  numpy arrays, and a :class:`~repro.circuits.template.GadgetStamper` that
  lets gadget constructors stamp many translated copies of a recorded
  template in one call,
* per-tag gate counters, used to attribute gates to the lemma that created
  them (Lemma 3.1 interval gates, Lemma 3.3 product gates, output gates, ...).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.store import accumulate_tag_counts
from repro.circuits.template import GadgetStamper

__all__ = ["CircuitBuilder"]


class CircuitBuilder:
    """Builds a :class:`ThresholdCircuit` incrementally."""

    def __init__(self, name: str = "") -> None:
        self._circuit = ThresholdCircuit(0, name=name)
        self._input_blocks: Dict[str, List[int]] = {}
        self._tag_counts: Dict[str, int] = {}
        self._constant_true: Optional[int] = None
        self._constant_false: Optional[int] = None
        self._inputs_frozen = False
        self.stamper = GadgetStamper(self)

    # --------------------------------------------------------------- protocol
    # Small duck-typed surface shared with CountingBuilder so the template
    # stamper and the bulk gadget emitters never reach into ``.circuit``.
    def intern_tag(self, tag: str) -> int:
        """Intern a tag string, returning its int32 code."""
        return self._circuit.store.intern_tag(tag)

    def tag_of_code(self, code: int) -> str:
        """Inverse of :meth:`intern_tag`."""
        return self._circuit.store.tag_of_code(code)

    def node_depths_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized node-id -> depth lookup (inputs are depth 0)."""
        return self._circuit.node_depths_of(nodes)

    def note_template_block(self, block) -> None:
        """Record one stamped run on the circuit under construction.

        Called by :meth:`~repro.circuits.template.GadgetTemplate.stamp`
        right after the block's gates land, so the execution engine can
        later compile the template once and tile it across the stamps
        (``ThresholdCircuit.template_blocks``).
        """
        self._circuit.template_blocks.append(block)

    # ----------------------------------------------------------------- inputs
    def allocate_inputs(self, count: int, label: str = "") -> List[int]:
        """Reserve ``count`` fresh input wires and return their node ids.

        All inputs must be allocated before the first gate is added so that
        input ids form the contiguous prefix ``0 .. n_inputs - 1``.
        """
        if count < 0:
            raise ValueError(f"cannot allocate a negative number of inputs ({count})")
        if self._inputs_frozen:
            raise RuntimeError("inputs must be allocated before any gate is added")
        start = self._circuit.n_inputs
        self._circuit.n_inputs += count
        ids = list(range(start, start + count))
        if label:
            self._input_blocks.setdefault(label, []).extend(ids)
        return ids

    def input_block(self, label: str) -> List[int]:
        """Return the input wires previously allocated under ``label``."""
        if label not in self._input_blocks:
            raise KeyError(f"no input block named {label!r}")
        return list(self._input_blocks[label])

    @property
    def n_inputs(self) -> int:
        """Number of input wires allocated so far."""
        return self._circuit.n_inputs

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (inputs plus gates) emitted so far."""
        return self._circuit.n_nodes

    # ------------------------------------------------------------------ gates
    def add_gate(
        self,
        sources: Sequence[int],
        weights: Sequence[int],
        threshold: int,
        tag: str = "",
    ) -> int:
        """Add a threshold gate ``sum w_i y_i >= t`` and return its node id."""
        self._inputs_frozen = True
        # No Gate object: the circuit canonicalizes and appends straight into
        # the columnar store.
        node = self._circuit.add_gate_parts(sources, weights, threshold, tag)
        if tag:
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        return node

    def add_gates(
        self,
        sources: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        thresholds: np.ndarray,
        tag: Union[str, Sequence[str]] = "",
        canonicalize: bool = True,
        validate: bool = True,
        depths: Optional[np.ndarray] = None,
        tag_counts: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Bulk-add gates from CSR-style arrays; returns their node ids.

        ``sources`` may reference earlier gates of the same batch by their
        prospective ids (``n_nodes + row``), so whole gadgets are emitted in
        one call.  ``tag`` is one tag for the batch or a per-gate sequence.
        ``tag_counts`` optionally supplies the per-tag increments (used by
        template stamping, which knows them without counting the batch).
        """
        self._inputs_frozen = True
        node_ids = self._circuit.add_gates(
            sources,
            offsets,
            weights,
            thresholds,
            tags=tag,
            canonicalize=canonicalize,
            validate=validate,
            depths=depths,
        )
        accumulate_tag_counts(
            self._tag_counts,
            tag,
            len(node_ids),
            tag_counts,
            self._circuit.store.tag_of_code,  # pre-interned codes
        )
        return node_ids

    def constant_true(self) -> int:
        """Node that always outputs 1 (a gate with an empty sum and threshold 0)."""
        if self._constant_true is None:
            self._constant_true = self.add_gate([], [], 0, tag="constant/true")
        return self._constant_true

    def constant_false(self) -> int:
        """Node that always outputs 0 (a gate with an empty sum and threshold 1)."""
        if self._constant_false is None:
            self._constant_false = self.add_gate([], [], 1, tag="constant/false")
        return self._constant_false

    def copy_gate(self, node: int, tag: str = "copy") -> int:
        """Emit a gate computing the identity of an existing node's value."""
        return self.add_gate([node], [1], 1, tag=tag)

    # ---------------------------------------------------------------- outputs
    def set_outputs(self, nodes: Sequence[int], labels: Optional[Sequence[str]] = None) -> None:
        """Declare the circuit outputs."""
        self._circuit.set_outputs(nodes, labels)

    # ----------------------------------------------------------------- result
    @property
    def circuit(self) -> ThresholdCircuit:
        """The circuit under construction (also the final product)."""
        return self._circuit

    def build(self) -> ThresholdCircuit:
        """Finish construction and return the circuit."""
        return self._circuit

    @property
    def size(self) -> int:
        """Number of gates emitted so far."""
        return self._circuit.size

    def tag_counts(self) -> Dict[str, int]:
        """Gate counts grouped by the tag supplied at creation time."""
        return dict(self._tag_counts)

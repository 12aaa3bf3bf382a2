"""Dry-run builder that counts gates without materializing them.

:class:`CountingBuilder` implements the same interface the construction code
uses on :class:`~repro.circuits.builder.CircuitBuilder` (input allocation,
``add_gate``, bulk ``add_gates``, tag interning, constants) but stores only
per-node depths and aggregate counters.  Running an unchanged construction
against it yields the *exact* size, depth, edge count and fan-in of the
circuit it would have built, using far less memory — this is how the
gate-count model of :mod:`repro.core.gate_count_model` avoids any risk of
drifting from the real builders.

Because the counting builder speaks the full bulk protocol it also carries a
:class:`~repro.circuits.template.GadgetStamper`: a stamped gadget batch is
counted from the recorded template's gate/edge/fan-in/tag totals (times the
copy count) plus one vectorized depth broadcast, instead of re-walking every
stamped gate — the same sharded "count the shard once, multiply" idea the
batch evaluation scheduler uses for its independent column chunks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import resolve_batch_depths
from repro.circuits.store import (
    IntVector,
    TagTable,
    accumulate_tag_counts,
    csr_dirty_rows,
    validate_csr_sources,
)
from repro.circuits.template import GadgetStamper

__all__ = ["CountingBuilder"]


class CountingBuilder:
    """Counts the gates a construction would emit (same API as CircuitBuilder)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._depths = IntVector()  # depth per node (inputs are depth 0)
        self._n_inputs = 0
        self._size = 0
        self._edges = 0
        self._max_fan_in = 0
        self._max_depth = 0
        self._tag_counts: Dict[str, int] = {}
        self._input_blocks: Dict[str, List[int]] = {}
        self._constant_true: Optional[int] = None
        self._constant_false: Optional[int] = None
        self._outputs: List[int] = []
        self._tags = TagTable()
        # Marks this builder as a pure counter: the template stamper skips
        # materializing translated source arrays and calls
        # :meth:`add_template_gates` with the template totals instead.
        self.counts_only = True
        # Same stamping surface as CircuitBuilder, so constructions take
        # identical code paths on both builders.
        self.stamper = GadgetStamper(self)

    # ----------------------------------------------------------------- inputs
    def allocate_inputs(self, count: int, label: str = "") -> List[int]:
        """Reserve input wires (counted but never simulated)."""
        if count < 0:
            raise ValueError(f"cannot allocate a negative number of inputs ({count})")
        start = len(self._depths)
        ids = list(range(start, start + count))
        self._depths.extend(np.zeros(count, dtype=np.int64))
        self._n_inputs += count
        if label:
            self._input_blocks.setdefault(label, []).extend(ids)
        return ids

    def input_block(self, label: str) -> List[int]:
        """Wires previously allocated under ``label``."""
        return list(self._input_blocks[label])

    @property
    def n_inputs(self) -> int:
        """Number of allocated input wires."""
        return self._n_inputs

    @property
    def n_nodes(self) -> int:
        """Total number of (virtual) nodes: inputs plus counted gates."""
        return len(self._depths)

    # --------------------------------------------------------------- protocol
    def intern_tag(self, tag: str) -> int:
        """Intern a tag string, returning its int32 code (own table)."""
        return self._tags.intern(tag)

    def tag_of_code(self, code: int) -> str:
        """Inverse of :meth:`intern_tag`."""
        return self._tags.decode(code)

    def node_depths_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized node-id -> depth lookup over the counted nodes."""
        return self._depths.view()[np.asarray(nodes, dtype=np.int64)]

    # ------------------------------------------------------------------ gates
    def add_gate(
        self,
        sources: Sequence[int],
        weights: Sequence[int],
        threshold: int,
        tag: str = "",
    ) -> int:
        """Record a gate and return its (virtual) node id."""
        node_id = len(self._depths)
        depth = 0
        depths = self._depths
        for s in sources:
            d = depths[s]
            if d > depth:
                depth = d
        depth += 1
        # The real builder canonicalizes duplicate sources into one wire
        # (Gate-style merge); count the merged fan-in it would have built.
        fan_in = len(set(sources))
        self._depths.append(depth)
        if depth > self._max_depth:
            self._max_depth = depth
        self._size += 1
        self._edges += fan_in
        if fan_in > self._max_fan_in:
            self._max_fan_in = fan_in
        if tag:
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        return node_id

    def add_gates(
        self,
        sources: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        thresholds: np.ndarray,
        tag: Union[str, Sequence[str], np.ndarray] = "",
        canonicalize: bool = True,
        validate: bool = True,
        depths: Optional[np.ndarray] = None,
        tag_counts: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Count a CSR batch of gates; same signature as the real builder.

        ``weights``/``thresholds`` only matter for signature compatibility
        (counting ignores the values); duplicate-source canonicalization is
        still honoured because it changes fan-ins and edge counts.
        """
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        n_new = len(offsets) - 1
        if n_new < 0:
            raise ValueError("offsets must contain at least one entry")
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        fan_ins = np.diff(offsets)
        if fan_ins.size and int(fan_ins.min()) < 0:
            raise ValueError("offsets must be nondecreasing")
        if int(offsets[0]) != 0 or int(offsets[-1]) != len(sources):
            raise ValueError("offsets do not cover the wire arrays")

        base = self.n_nodes
        rows: Optional[np.ndarray] = None
        if validate or canonicalize:
            rows = np.repeat(np.arange(n_new, dtype=np.int64), fan_ins)
        if validate:
            validate_csr_sources(sources, offsets, fan_ins, base, rows)

        counted_fan_ins = fan_ins
        if canonicalize and sources.size:
            # Merged duplicate sources shrink the fan-in exactly like the
            # ``Gate`` constructor; depth is untouched (max over a multiset).
            dirty = csr_dirty_rows(sources, rows)
            if dirty.size:
                counted_fan_ins = fan_ins.copy()
                for i in dirty.tolist():
                    lo, hi = int(offsets[i]), int(offsets[i + 1])
                    counted_fan_ins[i] = len(set(sources[lo:hi].tolist()))

        if depths is None:
            depths = resolve_batch_depths(
                self.node_depths_of, sources, offsets, fan_ins, rows, base
            )
        self._depths.extend(depths)
        if depths.size:
            batch_max = int(depths.max())
            if batch_max > self._max_depth:
                self._max_depth = batch_max
        self._size += n_new
        self._edges += int(counted_fan_ins.sum())
        if counted_fan_ins.size:
            batch_fan = int(counted_fan_ins.max())
            if batch_fan > self._max_fan_in:
                self._max_fan_in = batch_fan

        accumulate_tag_counts(
            self._tag_counts, tag, n_new, tag_counts, self._tags.decode
        )
        return np.arange(base, base + n_new, dtype=np.int64)

    def add_gate_rows(
        self,
        fan_ins: np.ndarray,
        depths: np.ndarray,
        tag_counts: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Count gates given only their fan-ins and depths (no wire arrays).

        The wire-free fast lane for gadgets whose shape is known in closed
        form (e.g. a Lemma 3.1 interval bank: ``m`` gates of one fan-in plus
        a select gate), so dry runs never materialize million-wire arrays.
        The caller is responsible for fan-ins reflecting canonicalized
        (duplicate-merged) rows.
        """
        base = self.n_nodes
        n_new = len(fan_ins)
        self._size += n_new
        self._edges += int(fan_ins.sum())
        if n_new:
            batch_fan = int(fan_ins.max())
            if batch_fan > self._max_fan_in:
                self._max_fan_in = batch_fan
        self._depths.extend(depths)
        if depths.size:
            batch_max = int(depths.max())
            if batch_max > self._max_depth:
                self._max_depth = batch_max
        if tag_counts is not None:
            accumulate_tag_counts(self._tag_counts, "", 0, tag_counts)
        return np.arange(base, base + n_new, dtype=np.int64)

    def add_template_gates(
        self, template, k: int, depths: np.ndarray
    ) -> None:
        """Count ``k`` stamped copies of a recorded gadget template.

        The template's gate/edge/fan-in/tag totals were computed once at
        record time; only the per-copy ``depths`` (already resolved by the
        stamper from the copies' parameter depths) vary.
        """
        n_gates = template.n_gates
        self._size += k * n_gates
        self._edges += k * template.n_edges
        if n_gates and template.fan_ins.size:
            template_fan = int(template.fan_ins.max())
            if template_fan > self._max_fan_in:
                self._max_fan_in = template_fan
        self._depths.extend(depths)
        if depths.size:
            batch_max = int(depths.max())
            if batch_max > self._max_depth:
                self._max_depth = batch_max
        for t, count in template.tag_counts.items():
            self._tag_counts[t] = self._tag_counts.get(t, 0) + count * k

    def constant_true(self) -> int:
        """Virtual always-true node (counted once)."""
        if self._constant_true is None:
            self._constant_true = self.add_gate([], [], 0, tag="constant/true")
        return self._constant_true

    def constant_false(self) -> int:
        """Virtual always-false node (counted once)."""
        if self._constant_false is None:
            self._constant_false = self.add_gate([], [], 1, tag="constant/false")
        return self._constant_false

    def copy_gate(self, node: int, tag: str = "copy") -> int:
        """Virtual identity gate."""
        return self.add_gate([node], [1], 1, tag=tag)

    # ---------------------------------------------------------------- outputs
    def set_outputs(self, nodes: Sequence[int], labels=None) -> None:
        """Record the declared outputs (counted only)."""
        self._outputs = [int(n) for n in nodes]

    # ------------------------------------------------------------------ stats
    @property
    def size(self) -> int:
        """Number of gates recorded."""
        return self._size

    @property
    def depth(self) -> int:
        """Depth of the deepest recorded gate."""
        return self._max_depth

    @property
    def edges(self) -> int:
        """Total number of wires."""
        return self._edges

    @property
    def max_fan_in(self) -> int:
        """Largest recorded fan-in."""
        return self._max_fan_in

    @property
    def n_outputs(self) -> int:
        """Number of declared outputs."""
        return len(self._outputs)

    def tag_counts(self) -> Dict[str, int]:
        """Gate counts grouped by construction tag."""
        return dict(self._tag_counts)

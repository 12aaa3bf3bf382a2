"""Threshold circuit container.

A :class:`ThresholdCircuit` is a directed acyclic graph of threshold gates
over a fixed set of binary inputs.  Node ids are integers:

* ``0 .. n_inputs - 1`` are the circuit inputs,
* ``n_inputs .. n_inputs + size - 1`` are the gates, in insertion
  order.  A gate may only reference nodes with smaller ids, which makes the
  graph acyclic by construction.

Storage is columnar (:mod:`repro.circuits.store`): the gate list lives in
CSR-style flat arrays (``sources``/``weights`` plus ``offsets``, one
``threshold``/``depth``/``tag`` per gate), so construction, hashing, stats
and layer lowering are array operations instead of per-gate Python loops.
``circuit.gates`` remains available as a lazy sequence of
:class:`~repro.circuits.gate.Gate` views for consumers that want the object
form (the optimizer, the validator, reference evaluation).

Gates are appended either one at a time (:meth:`ThresholdCircuit.add_gate`)
or in bulk (:meth:`ThresholdCircuit.add_gates`), which validates, depth-labels
and stores a whole batch with vectorized numpy passes.

The complexity measures studied in the paper (Section 1) — *size* (number of
gates), *depth* (longest input-to-output path), *edges* (number of wires) and
*fan-in* — are exposed as properties/:class:`CircuitStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.gate import Gate, canonical_parts
from repro.circuits.store import (
    Columns,
    GateStore,
    csr_dirty_rows,
    gather_ranges,
    group_by_depth,
    int_column,
    segment_max,
    validate_csr_sources,
)

__all__ = ["ThresholdCircuit", "CircuitStats", "GateView", "resolve_batch_depths"]


def _batch_depths_scan(sources, offsets, src_depth, base) -> np.ndarray:
    """Ordered per-gate depth scan (internal sources precede their row)."""
    n_new = len(offsets) - 1
    src_list = sources.tolist()
    ext_depth = src_depth.tolist()
    off_list = offsets.tolist()
    depths = [0] * n_new
    for i in range(n_new):
        best = 0
        for w in range(off_list[i], off_list[i + 1]):
            s = src_list[w]
            d = depths[s - base] if s >= base else ext_depth[w]
            if d > best:
                best = d
        depths[i] = best + 1
    return np.asarray(depths, dtype=np.int64)


def resolve_batch_depths(
    node_depths_of, sources, offsets, fan_ins, rows, base
) -> np.ndarray:
    """Depth of every gate of a CSR batch, resolved in vectorized passes.

    ``node_depths_of`` maps an array of *existing* node ids to their depths
    (inputs are 0); sources ``>= base`` are intra-batch references.  Shared by
    :class:`ThresholdCircuit` and the dry-run counting builder so both label
    bulk batches identically.
    """
    n_new = len(fan_ins)
    src_depth = np.zeros(len(sources), dtype=np.int64)
    external = sources < base
    if external.any():
        src_depth[external] = node_depths_of(sources[external])
    internal = ~external
    if not internal.any():
        return segment_max(src_depth, offsets) + 1
    # Level-synchronous resolution (Kahn over the batch subgraph): each
    # round finalizes the frontier of rows whose intra-batch sources are
    # all resolved, then walks only the wires *consuming* those rows.
    # Every wire is gathered exactly once, so a maximal-depth chain batch
    # stays O(E) instead of O(E * depth).
    if rows is None:
        rows = np.repeat(np.arange(n_new, dtype=np.int64), fan_ins)
    depths = np.zeros(n_new, dtype=np.int64)
    int_idx = np.nonzero(internal)[0]
    int_target = sources[int_idx] - base  # referenced batch row per wire
    int_rows = rows[int_idx]  # owning batch row per wire
    # Reverse adjacency: internal wire positions grouped by target row.
    by_target = np.argsort(int_target, kind="stable")
    sorted_targets = int_target[by_target]
    pending = np.bincount(int_rows, minlength=n_new)
    frontier = np.nonzero(pending == 0)[0]
    resolved_count = 0
    level = 0
    while frontier.size:
        level += 1
        if level > 512:
            # Per-level numpy overhead beats a plain scan on extremely
            # deep batches (a 10^5-level chain); finish gate by gate.
            return _batch_depths_scan(sources, offsets, src_depth, base)
        # Depths of the frontier rows: segment max over their own wires
        # (all resolved by construction of the frontier).
        lens = fan_ins[frontier]
        wire_idx = gather_ranges(offsets[frontier], lens)
        if wire_idx.size:
            seg_offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
            np.cumsum(lens, out=seg_offsets[1:])
            depths[frontier] = segment_max(src_depth[wire_idx], seg_offsets) + 1
        else:
            depths[frontier] = 1
        resolved_count += frontier.size
        pending[frontier] = -1  # mark resolved
        if resolved_count == n_new:
            return depths
        # Wires consuming the frontier: contiguous runs of the
        # target-sorted order, located by binary search.
        lo = np.searchsorted(sorted_targets, frontier, side="left")
        hi = np.searchsorted(sorted_targets, frontier, side="right")
        run_lens = hi - lo
        pos = gather_ranges(lo, run_lens)
        consumed = pos.size
        if not consumed:
            raise AssertionError("batch depth resolution stalled")
        wires = by_target[pos]  # positions within the internal-wire arrays
        src_depth[int_idx[wires]] = depths[int_target[wires]]
        consumer_rows = int_rows[wires]
        if consumed * 8 >= n_new:
            pending -= np.bincount(consumer_rows, minlength=n_new)
        else:
            # Touch only the consumed rows: a full-length bincount per
            # level would make deep chain batches quadratic again.
            np.subtract.at(pending, consumer_rows, 1)
        candidates = np.unique(consumer_rows)
        frontier = candidates[pending[candidates] == 0]
    raise AssertionError("cyclic batch dependency (validation bypassed?)")


@dataclass(frozen=True)
class CircuitStats:
    """Summary of the complexity measures of a circuit."""

    n_inputs: int
    size: int
    depth: int
    edges: int
    max_fan_in: int
    max_abs_weight: int
    n_outputs: int

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (useful for benchmark reporting)."""
        return {
            "n_inputs": self.n_inputs,
            "size": self.size,
            "depth": self.depth,
            "edges": self.edges,
            "max_fan_in": self.max_fan_in,
            "max_abs_weight": self.max_abs_weight,
            "n_outputs": self.n_outputs,
        }


class GateView(Sequence):
    """Lazy sequence of :class:`Gate` objects over the columnar store.

    Gates are materialized on access only; iterating the view allocates one
    short-lived ``Gate`` per step but never copies the arrays.
    """

    __slots__ = ("_store",)

    def __init__(self, store: GateStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.n_gates

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not (0 <= index < len(self)):
            raise IndexError(index)
        return Gate._from_canonical(*self._store.gate_parts(index))

    def __iter__(self) -> Iterator[Gate]:
        store = self._store
        if store.n_gates == 0:
            return
        cols = store.columns()
        sources = cols.sources.tolist()
        weights = cols.weights.tolist()
        offsets = cols.offsets.tolist()
        thresholds = cols.thresholds.tolist()
        codes = cols.tag_codes.tolist()
        for i in range(store.n_gates):
            lo, hi = offsets[i], offsets[i + 1]
            yield Gate._from_canonical(
                tuple(sources[lo:hi]),
                tuple(weights[lo:hi]),
                thresholds[i],
                store.tag_of_code(codes[i]),
            )


class ThresholdCircuit:
    """A layered boolean circuit of linear threshold gates."""

    def __init__(self, n_inputs: int, name: str = "") -> None:
        if n_inputs < 0:
            raise ValueError(f"number of inputs must be nonnegative, got {n_inputs}")
        self.n_inputs = int(n_inputs)
        self.name = name
        self._store = GateStore()
        self.outputs: List[int] = []
        self.output_labels: List[str] = []
        self.metadata: Dict[str, object] = {}
        # Construction provenance for the template-streaming compile path:
        # one :class:`~repro.circuits.template.TemplateBlock` per stamped run
        # (appended by the builder's ``note_template_block`` hook, in node-id
        # order).  Purely additive metadata — the columnar store stays the
        # single source of truth for structure, hashing and stats, and
        # circuits without stamping (version-1 JSON loads, the optimizer)
        # simply leave this empty and compile as residual runs.
        self.template_blocks: List[object] = []
        self._structural_hash: Optional[str] = None  # cache, invalidated on mutation
        self._stats: Optional[CircuitStats] = None  # cache, same lifecycle

    # ------------------------------------------------------------------ nodes
    @property
    def gates(self) -> GateView:
        """Lazy ``Gate``-object view of the columnar gate store."""
        return GateView(self._store)

    @property
    def store(self) -> GateStore:
        """The underlying columnar storage (array consumers read this)."""
        return self._store

    def columnar(self) -> Columns:
        """Consolidated CSR arrays of all gates (see :class:`Columns`)."""
        return self._store.columns()

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (inputs plus gates)."""
        return self.n_inputs + self._store.n_gates

    @property
    def size(self) -> int:
        """Number of gates (the paper's *size* measure)."""
        return self._store.n_gates

    def is_input(self, node: int) -> bool:
        """True when the node id refers to a circuit input."""
        return 0 <= node < self.n_inputs

    def gate_of(self, node: int) -> Gate:
        """Return the gate object backing a gate node id."""
        if not (self.n_inputs <= node < self.n_nodes):
            raise IndexError(f"node {node} is not a gate of this circuit")
        return Gate._from_canonical(*self._store.gate_parts(node - self.n_inputs))

    def node_depth(self, node: int) -> int:
        """Depth of a node: 0 for inputs, 1 + max source depth for gates."""
        if self.is_input(node):
            return 0
        return self._store.depths[node - self.n_inputs]

    def gate_depths(self) -> np.ndarray:
        """Depth per gate as an int64 array (aligned with gate order)."""
        return self._store.depths.view()

    def node_depths_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`node_depth` over an arbitrary node-id array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        depths = np.zeros(nodes.shape, dtype=np.int64)
        is_gate = nodes >= self.n_inputs
        if is_gate.any():
            depths[is_gate] = self._store.depths.view()[
                nodes[is_gate] - self.n_inputs
            ]
        return depths

    # ------------------------------------------------------------------ build
    def _invalidate(self) -> None:
        self._structural_hash = None
        self._stats = None

    def add_gate(self, gate: Gate) -> int:
        """Append a gate and return its node id.

        The gate must only reference existing nodes (inputs or earlier
        gates); this keeps the circuit acyclic and topologically ordered.
        """
        return self.add_gate_parts(gate.sources, gate.weights, gate.threshold, gate.tag)

    def add_gate_parts(
        self,
        sources: Sequence[int],
        weights: Sequence[int],
        threshold: int,
        tag: str = "",
        assume_canonical: bool = False,
    ) -> int:
        """Append one gate given as raw parts, without building a ``Gate``.

        Canonicalization (duplicate-source merging) matches the ``Gate``
        constructor exactly, so both entry points produce identical storage.
        ``assume_canonical=True`` skips it for callers that already ran
        :func:`~repro.circuits.gate.canonical_parts` (the sharing cache).
        """
        if not assume_canonical:
            sources, weights = canonical_parts(sources, weights)
        node_id = self.n_nodes
        depth = 0
        depths = self._store.depths
        n_inputs = self.n_inputs
        for s in sources:
            if s < 0 or s >= node_id:
                raise ValueError(
                    f"gate references node {s}, but only nodes < {node_id} exist"
                )
            d = 0 if s < n_inputs else depths[s - n_inputs]
            if d > depth:
                depth = d
        self._store.append(sources, weights, int(threshold), tag, depth + 1)
        self._invalidate()
        return node_id

    def add_threshold_gate(
        self,
        sources: Sequence[int],
        weights: Sequence[int],
        threshold: int,
        tag: str = "",
    ) -> int:
        """Convenience wrapper around :meth:`add_gate_parts`."""
        return self.add_gate_parts(sources, weights, threshold, tag)

    def add_gates(
        self,
        sources: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        thresholds: np.ndarray,
        tags: Union[str, Sequence[str]] = "",
        canonicalize: bool = True,
        validate: bool = True,
        depths: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Append a batch of gates from CSR-style arrays; returns node ids.

        Parameters
        ----------
        sources, weights:
            Concatenated wires of the batch; gate ``i`` owns the slice
            ``offsets[i]:offsets[i+1]``.  Sources are *absolute* node ids and
            may reference earlier gates of the same batch (the id of batch row
            ``i`` is ``n_nodes + i``), which is what lets whole gadgets —
            interval banks plus their select gate — land in one call.
        offsets:
            ``len == n_new + 1`` monotone offsets into the wire arrays.
        thresholds:
            One integer threshold per gate.
        tags:
            A single tag for the whole batch or one tag per gate.
        canonicalize:
            When True (default), rows with duplicate sources are merged
            exactly like the ``Gate`` constructor would.  Callers that
            guarantee duplicate-free rows (template stamping over distinct
            parameters) pass False to skip the detection sort.
        validate:
            When False, the per-wire bounds checks are skipped.  Only for
            internal callers whose arrays are correct by construction
            (template stamping: a validated template translated by offsets).
        depths:
            Optional precomputed depth per gate (template stamping derives
            them from the copies' parameter depths); None computes them here.

        Validation and depth labeling are vectorized: bounds are checked with
        one comparison over all wires, and depths are resolved in
        ``O(batch depth)`` numpy passes rather than per gate.
        """
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        thresholds_arr, thr_ok = int_column(thresholds)
        weights_arr, wts_ok = int_column(weights)
        n_new = len(offsets) - 1
        if n_new < 0:
            raise ValueError("offsets must contain at least one entry")
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        if len(thresholds_arr) != n_new:
            raise ValueError(
                f"{n_new} gates but {len(thresholds_arr)} thresholds"
            )
        fan_ins = np.diff(offsets)
        if fan_ins.size and int(fan_ins.min()) < 0:
            raise ValueError("offsets must be nondecreasing")
        if int(offsets[0]) != 0 or int(offsets[-1]) != len(sources):
            raise ValueError("offsets do not cover the wire arrays")
        if len(weights_arr) != len(sources):
            raise ValueError(
                f"{len(sources)} sources but {len(weights_arr)} weights"
            )

        base = self.n_nodes
        rows: Optional[np.ndarray] = None
        if validate or canonicalize:
            rows = np.repeat(np.arange(n_new, dtype=np.int64), fan_ins)
        if validate:
            validate_csr_sources(sources, offsets, fan_ins, base, rows)

        if canonicalize:
            result = self._canonicalize_batch(
                sources, offsets, weights_arr, rows
            )
            if result is not None:
                sources, offsets, weights_arr, fan_ins, rows, merged_ok = result
                # int_column re-derived the verdict from the merged values:
                # merging can push weights out of int64 or back into it.
                wts_ok = merged_ok
                depths = None  # merged rows invalidate caller-supplied depths

        if depths is None:
            depths = self._batch_depths(sources, offsets, fan_ins, rows, base)

        if isinstance(tags, str):
            tag_codes = np.full(n_new, self._store.intern_tag(tags), dtype=np.int32)
        elif isinstance(tags, np.ndarray) and tags.dtype == np.int32:
            # Pre-interned codes (template stamping): trusted as-is.
            if len(tags) != n_new:
                raise ValueError(f"{n_new} gates but {len(tags)} tag codes")
            tag_codes = tags
        else:
            if len(tags) != n_new:
                raise ValueError(f"{n_new} gates but {len(tags)} tags")
            intern = self._store.intern_tag
            tag_codes = np.fromiter(
                (intern(t) for t in tags), dtype=np.int32, count=n_new
            )

        self._store.extend(
            sources,
            weights_arr,
            fan_ins,
            thresholds_arr,
            tag_codes,
            depths,
            int64_ok=wts_ok and thr_ok,
        )
        self._invalidate()
        return np.arange(base, base + n_new, dtype=np.int64)

    def _canonicalize_batch(self, sources, offsets, weights, rows):
        """Merge duplicate sources within batch rows, ``Gate``-style.

        Returns None when every row is already duplicate-free (the common
        case, detected with one sort over the batch wires).
        """
        if not sources.size:
            return None
        dirty_rows = csr_dirty_rows(sources, rows)
        if not dirty_rows.size:
            return None
        n_rows = len(offsets) - 1
        # Canonicalize only the dirty rows in Python; everything else is
        # moved by array copies below, so one duplicate-source gate in a
        # million-gate batch does not degrade the whole import to a per-wire
        # Python loop.
        canonical = {}
        for i in dirty_rows.tolist():
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            canonical[i] = canonical_parts(
                sources[lo:hi].tolist(), weights[lo:hi].tolist()
            )
        new_fan_ins = np.diff(offsets).copy()
        for i, (row_src, _) in canonical.items():
            new_fan_ins[i] = len(row_src)
        new_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(new_fan_ins, out=new_offsets[1:])
        total = int(new_offsets[-1])

        dirty_weight_arrays = {}
        assembly_ok = weights.dtype != object
        if assembly_ok:
            try:
                for i, (_, row_wts) in canonical.items():
                    dirty_weight_arrays[i] = np.asarray(row_wts, dtype=np.int64)
            except OverflowError:
                assembly_ok = False  # a merge left int64: exact rebuild below
        if assembly_ok:
            new_sources = np.empty(total, dtype=np.int64)
            new_weights = np.empty(total, dtype=np.int64)
            dirty_mask = np.zeros(n_rows, dtype=bool)
            dirty_mask[dirty_rows] = True
            clean_wire = ~dirty_mask[rows]
            src_pos = np.nonzero(clean_wire)[0]
            shift = new_offsets[:-1] - offsets[:-1]
            dst_pos = src_pos + shift[rows[src_pos]]
            new_sources[dst_pos] = sources[src_pos]
            new_weights[dst_pos] = weights[src_pos]
            for i, (row_src, _) in canonical.items():
                lo = int(new_offsets[i])
                new_sources[lo : lo + len(row_src)] = row_src
                new_weights[lo : lo + len(row_src)] = dirty_weight_arrays[i]
            weights_arr, weights_ok = new_weights, True
            sources = new_sources
        else:
            # Exact fallback: rebuild through Python ints so the int64
            # verdict is re-derived from the merged values.
            src_out: List[int] = []
            wts_out: List[int] = []
            src_list = sources.tolist()
            wts_list = weights.tolist()
            off_list = offsets.tolist()
            for i in range(n_rows):
                if i in canonical:
                    row_src, row_wts = canonical[i]
                else:
                    lo, hi = off_list[i], off_list[i + 1]
                    row_src = src_list[lo:hi]
                    row_wts = wts_list[lo:hi]
                src_out.extend(row_src)
                wts_out.extend(row_wts)
            sources = np.asarray(src_out, dtype=np.int64)
            weights_arr, weights_ok = int_column(wts_out)
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), new_fan_ins)
        return sources, new_offsets, weights_arr, new_fan_ins, rows, weights_ok

    def _batch_depths(self, sources, offsets, fan_ins, rows, base) -> np.ndarray:
        """Depth of every batch gate, resolved in vectorized passes."""
        return resolve_batch_depths(
            self.node_depths_of, sources, offsets, fan_ins, rows, base
        )

    def set_outputs(self, nodes: Sequence[int], labels: Optional[Sequence[str]] = None) -> None:
        """Declare the circuit outputs (any existing nodes, typically gates)."""
        nodes = [int(n) for n in nodes]
        n_nodes = self.n_nodes
        for n in nodes:
            if not (0 <= n < n_nodes):
                raise ValueError(f"output node {n} does not exist")
        if labels is not None and len(labels) != len(nodes):
            raise ValueError("labels must match outputs one-to-one")
        self.outputs = nodes
        self.output_labels = list(labels) if labels is not None else [""] * len(nodes)
        self._invalidate()

    # ------------------------------------------------------------------ stats
    @property
    def depth(self) -> int:
        """Length of the longest input-to-gate path (0 for a gate-free circuit)."""
        return self._store.max_depth

    @property
    def edges(self) -> int:
        """Total number of wires between nodes."""
        return self._store.n_edges

    @property
    def max_fan_in(self) -> int:
        """Largest fan-in over all gates."""
        return self._store.max_fan_in

    def stats(self) -> CircuitStats:
        """Return all complexity measures at once.

        The result is cached and invalidated alongside the structural hash,
        so repeated engine compiles stop rescanning every gate.
        """
        if self._stats is None:
            if self.size == 0:
                max_abs_weight = 0
            else:
                cols = self._store.columns()
                if cols.n_edges == 0:
                    max_abs_weight = 0
                elif cols.int64_ok and int(cols.weights.min()) != np.iinfo(np.int64).min:
                    # np.abs wraps on INT64_MIN, so that value goes exact.
                    max_abs_weight = int(np.abs(cols.weights).max())
                else:
                    max_abs_weight = max(abs(int(w)) for w in cols.weights)
            self._stats = CircuitStats(
                n_inputs=self.n_inputs,
                size=self.size,
                depth=self.depth,
                edges=self.edges,
                max_fan_in=self.max_fan_in,
                max_abs_weight=max_abs_weight,
                n_outputs=len(self.outputs),
            )
        return self._stats

    def structural_hash(self) -> str:
        """Content hash of the circuit structure (inputs, gates, outputs).

        Used by the execution engine as its compile-cache key: circuits with
        the same hash compile to the same backend program.  Labels, tags and
        metadata do not participate.  The hash is cached and invalidated by
        the mutation entry points; mutating ``outputs`` directly (unsupported)
        would leave it stale.
        """
        if self._structural_hash is None:
            from repro.circuits.serialize import structural_digest

            self._structural_hash = structural_digest(self)
        return self._structural_hash

    def gates_by_depth(self) -> Dict[int, List[int]]:
        """Group gate node ids by their depth layer (1-based layers)."""
        depths = self._store.depths.view()
        layers: Dict[int, List[int]] = {}
        if depths.size == 0:
            return layers
        order, sorted_depths, starts, ends = group_by_depth(depths)
        node_ids = order + self.n_inputs
        for start, end in zip(starts, ends):
            layers[int(sorted_depths[start])] = node_ids[start:end].tolist()
        return layers

    # -------------------------------------------------------------- reference
    def evaluate_slow(self, input_values: Sequence[int]) -> np.ndarray:
        """Gate-by-gate reference evaluation (exact, arbitrary precision).

        This is the semantic ground truth the vectorized simulator is tested
        against.  Returns the values of all nodes.
        """
        if len(input_values) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input values, got {len(input_values)}"
            )
        values: List[int] = [int(v) for v in input_values]
        for v in values:
            if v not in (0, 1):
                raise ValueError("circuit inputs must be 0/1")
        for gate in self.gates:
            values.append(gate.evaluate(values))
        return np.array(values, dtype=np.int8)

    def output_values(self, node_values: np.ndarray) -> np.ndarray:
        """Extract the declared outputs from a full node-value vector/batch."""
        if not self.outputs:
            raise ValueError("circuit has no declared outputs")
        return np.asarray(node_values)[self.outputs, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" '{self.name}'" if self.name else ""
        return (
            f"ThresholdCircuit({label} inputs={self.n_inputs}, gates={self.size}, "
            f"depth={self.depth}, outputs={len(self.outputs)})"
        )


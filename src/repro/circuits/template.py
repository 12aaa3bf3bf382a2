"""Gadget templates: record a lemma gadget once, stamp many translated copies.

The paper's constructions are exactly "the same gadget at many positions":
every cell of a tree level gets the same Lemma 3.2 weighted-sum circuit,
every leaf the same Lemma 3.3 product, with only the *wiring* (which earlier
nodes feed the gadget) changing from copy to copy.  Emitting each copy
directly would re-run the gadget constructor per copy, paying the full
per-gate Python cost each time.  Here the constructor runs once against a
:class:`TemplateBuilder` whose "nodes" are local ids — parameter slots
``0 .. n_params-1`` for the gadget's external inputs, ``n_params ..`` for
its internal gates — and the recorded arrays are *relocatable*: stamping
``k`` copies is one ``add_gates`` call over tiled arrays with instance
offsets added, plus a cheap per-copy remap of the recorded return value.

Fidelity guarantees (the stamped circuit is wire-for-wire identical to
emitting every copy directly):

* the template is recorded through the same ``Gate`` canonicalization
  direct emission uses;
* a copy whose external parameters are not pairwise distinct is emitted
  directly (duplicate sources merge in an id-dependent order a template
  cannot reproduce);
* a gadget whose *return value* contains a representation
  (:class:`~repro.arithmetic.signed.Rep`) over parameter nodes is rejected at
  record time (``Rep`` terms are sorted by node id, and parameter ids do not
  map monotonically), and every copy is emitted directly;
* likewise, a gadget whose recording merged duplicate sources in a row with
  several parameter slots is rejected at record time — the merge sorts by
  local slot id, which need not match the per-copy node order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import resolve_batch_depths
from repro.circuits.gate import Gate, canonical_parts
from repro.circuits.store import (
    IntVector,
    TagTable,
    accumulate_tag_counts,
    csr_dirty_rows,
    csr_max_magnitude,
    iter_depth_layers,
)

__all__ = [
    "CompiledTemplate",
    "GadgetStamper",
    "GadgetTemplate",
    "TemplateBlock",
    "TemplateBuilder",
]

# Sentinel returned by ``GadgetStamper.template_for`` for a key seen for the
# first time with a single copy: recording a template costs about as much as
# emitting the copy directly (and the direct bulk emission is wire-for-wire
# identical), so the template is only recorded once the key proves reusable.
DEFER_TEMPLATE = object()


def _dup_rows(params: np.ndarray) -> np.ndarray:
    """Boolean mask of parameter rows containing a repeated node id."""
    k, n_params = params.shape
    if n_params < 2:
        return np.zeros(k, dtype=bool)
    row_sorted = np.sort(params, axis=1)
    return (row_sorted[:, 1:] == row_sorted[:, :-1]).any(axis=1)


class TemplateBuilder:
    """Records a gadget built against local parameter slots.

    Implements the subset of the :class:`~repro.circuits.builder.CircuitBuilder`
    interface the gadget constructors use (``add_gate``).  Node ids handed to
    the gadget code are local: ``0 .. n_params-1`` are parameter slots,
    ``n_params + j`` is the j-th recorded gate.
    """

    # Bulk-capable recorder: lets gadget constructors take their array
    # emission paths (e.g. the Lemma 3.1 interval banks) while recording, so
    # recording a wide gadget costs array appends instead of per-gate
    # canonicalization passes.
    prefers_bulk = True

    def __init__(self, n_params: int, wireless: bool = False) -> None:
        self.n_params = int(n_params)
        # A *wireless* recorder captures only gate shapes (fan-ins, relative
        # depths, tag counts) — what a dry-run counting stamp needs — so
        # recording costs O(gadget bits), not O(gadget wires).  Setting
        # ``counts_only`` routes the gadget emitters through their wire-free
        # dry-run lanes while recording.
        self.wireless = bool(wireless)
        if wireless:
            self.counts_only = True
            self._wireless_tag_counts: Dict[str, int] = {}
        # Chunked columnar storage (same tail-buffer design as GateStore):
        # single-gate appends stage in Python lists, bulk appends land as
        # arrays, and consolidation happens once when the template is built —
        # recording a wide gadget costs array appends, not list churn.
        self._chunks: List[tuple] = []  # (sources, weights, fan_ins, thresholds, tag_codes, int64_ok)
        self._tail_sources: List[int] = []
        self._tail_weights: List[int] = []
        self._tail_fan_ins: List[int] = []
        self._tail_thresholds: List[int] = []
        self._tail_tag_codes: List[int] = []
        self._fan_chunks: List[np.ndarray] = []  # wireless mode only
        self._n_gates = 0
        # Depth of each recorded gate relative to the parameters (params sit
        # at relative depth 0).  When every actual parameter of a copy has
        # one common depth D, the copy's gate depths are exactly D + these.
        # Array-backed: the bulk recording path reads it as an array per
        # batch, which a plain list would re-convert quadratically.
        self.rel_depths = IntVector()
        self.has_fan0 = False  # a fan-in-0 gate pins its depth to 1, not D+1
        # Canonicalization sorts merged rows by *local* id.  Parameter slots
        # map to arbitrary node ids, so a merge that touched a row with two
        # or more parameter sources may sort differently per copy — such a
        # template cannot claim wire-for-wire fidelity and is rejected.
        self.has_param_merge = False
        self._tags = TagTable()

    def add_gate(
        self,
        sources: Sequence[int],
        weights: Sequence[int],
        threshold: int,
        tag: str = "",
    ) -> int:
        # Route through Gate so the recorded row is canonicalized exactly
        # like the per-gate path would canonicalize it.
        raw = [int(s) for s in sources]
        if len(set(raw)) != len(raw) and sum(1 for s in set(raw) if s < self.n_params) >= 2:
            self.has_param_merge = True
        gate = Gate(sources, weights, threshold, tag)
        node = self.n_params + self._n_gates
        rel_depth = 1
        for s in gate.sources:
            if not (0 <= s < node):
                raise ValueError(
                    f"template gate references local node {s} before it exists"
                )
            if s >= self.n_params:
                d = self.rel_depths[s - self.n_params] + 1
                if d > rel_depth:
                    rel_depth = d
        if not gate.sources:
            self.has_fan0 = True
        if self.wireless:
            self._tail_fan_ins.append(gate.fan_in)
            if gate.tag:
                counts = self._wireless_tag_counts
                counts[gate.tag] = counts.get(gate.tag, 0) + 1
        else:
            self._tail_sources.extend(gate.sources)
            self._tail_weights.extend(gate.weights)
            self._tail_fan_ins.append(gate.fan_in)
            self._tail_thresholds.append(gate.threshold)
            self._tail_tag_codes.append(self.intern_tag(gate.tag))
        self._n_gates += 1
        self.rel_depths.append(rel_depth)
        return node

    def add_gate_rows(
        self,
        fan_ins: np.ndarray,
        depths: np.ndarray,
        tag_counts=None,
    ) -> np.ndarray:
        """Wire-free recording lane (wireless recorders only).

        ``depths`` must be relative to the parameter slots — emitters derive
        them from this recorder's ``node_depths_of``, which is relative.
        """
        if not self.wireless:
            raise RuntimeError("add_gate_rows requires a wireless recorder")
        base = self.n_params + self._n_gates
        n_new = len(fan_ins)
        self._flush_wireless_tail()
        self._fan_chunks.append(np.ascontiguousarray(fan_ins, dtype=np.int64))
        if bool((fan_ins == 0).any()):
            self.has_fan0 = True
        self._n_gates += n_new
        self.rel_depths.extend(np.ascontiguousarray(depths, dtype=np.int64))
        if tag_counts:
            counts = self._wireless_tag_counts
            for t, count in tag_counts.items():
                if t:
                    counts[t] = counts.get(t, 0) + count
        return np.arange(base, base + n_new, dtype=np.int64)

    def _flush_wireless_tail(self) -> None:
        if self._tail_fan_ins:
            self._fan_chunks.append(
                np.asarray(self._tail_fan_ins, dtype=np.int64)
            )
            self._tail_fan_ins = []

    def wireless_columns(self):
        """Consolidated (fan_ins, tag_counts) of a wireless recording."""
        self._flush_wireless_tail()
        if not self._fan_chunks:
            fan_ins = np.empty(0, dtype=np.int64)
        elif len(self._fan_chunks) == 1:
            fan_ins = self._fan_chunks[0]
        else:
            fan_ins = np.concatenate(self._fan_chunks)
        return fan_ins, dict(self._wireless_tag_counts)

    def _flush_tail(self) -> None:
        if not self._tail_fan_ins:
            return
        from repro.circuits.store import int_column

        weights, weights_ok = int_column(self._tail_weights)
        thresholds, thresholds_ok = int_column(self._tail_thresholds)
        self._chunks.append(
            (
                np.asarray(self._tail_sources, dtype=np.int64),
                weights,
                np.asarray(self._tail_fan_ins, dtype=np.int64),
                thresholds,
                np.asarray(self._tail_tag_codes, dtype=np.int32),
                weights_ok and thresholds_ok,
            )
        )
        self._tail_sources = []
        self._tail_weights = []
        self._tail_fan_ins = []
        self._tail_thresholds = []
        self._tail_tag_codes = []

    def columns(self):
        """Consolidated recorded arrays plus the recorder's tag table.

        Returns ``(sources, weights, fan_ins, thresholds, tag_codes,
        int64_ok, tag_table)``; weights/thresholds are object dtype when a
        value left the int64 range.
        """
        self._flush_tail()
        chunks = self._chunks
        int64_ok = all(c[5] for c in chunks)
        value_dtype = np.int64 if int64_ok else object

        def _concat(index, dtype):
            arrays = [c[index] for c in chunks]
            if not arrays:
                return np.empty(0, dtype=dtype)
            if len(arrays) == 1:
                a = arrays[0]
                return a if a.dtype == dtype else a.astype(dtype)
            return np.concatenate(
                [a.astype(dtype) if a.dtype != dtype else a for a in arrays]
            )

        return (
            _concat(0, np.int64),
            _concat(1, value_dtype),
            _concat(2, np.int64),
            _concat(3, value_dtype),
            _concat(4, np.int32),
            int64_ok,
            self._tags.strings(),
        )

    # --------------------------------------------------------------- protocol
    @property
    def n_nodes(self) -> int:
        """Local node count: parameter slots plus recorded gates."""
        return self.n_params + self._n_gates

    def intern_tag(self, tag: str) -> int:
        """Intern a tag (recorder-local table; decoded back on storage)."""
        return self._tags.intern(tag)

    def tag_of_code(self, code: int) -> str:
        """Inverse of :meth:`intern_tag`."""
        return self._tags.decode(code)

    def node_depths_of(self, nodes: np.ndarray) -> np.ndarray:
        """Relative depths of local ids (parameter slots sit at depth 0)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        out = np.zeros(nodes.shape, dtype=np.int64)
        is_gate = nodes >= self.n_params
        if is_gate.any():
            out[is_gate] = self.rel_depths.view()[nodes[is_gate] - self.n_params]
        return out

    def add_gates(
        self,
        sources: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        thresholds: np.ndarray,
        tag="",
        canonicalize: bool = True,
        validate: bool = True,
        depths=None,
        tag_counts=None,
    ) -> np.ndarray:
        """Record a CSR batch of gates (same signature as the real builder).

        Rows are canonicalized exactly like :meth:`add_gate` would; a
        caller passing ``canonicalize=False`` guarantees duplicate-free,
        already-canonical rows (the bulk emitters run
        :func:`~repro.circuits.gate.canonical_parts` on their shared row
        first), which keeps the param-merge rejection logic sound.
        ``depths``, when supplied, must already be *relative* to the
        parameter slots (the recorder's ``node_depths_of`` is relative, so
        emitters computing depths from it hand over exactly that).
        """
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        n_new = len(offsets) - 1
        if n_new <= 0:
            return np.empty(0, dtype=np.int64)
        fan_ins = np.diff(offsets)
        base = self.n_params + self._n_gates
        rows = np.repeat(np.arange(n_new, dtype=np.int64), fan_ins)
        if sources.size and (
            int(sources.min()) < 0 or bool((sources >= base + rows).any())
        ):
            raise ValueError("template gate references a local node before it exists")

        src_rows: Optional[List] = None
        wts_rows: Optional[List] = None
        if canonicalize and sources.size:
            dirty_rows = csr_dirty_rows(sources, rows)
            if dirty_rows.size:
                dirty = set(dirty_rows.tolist())
                src_list = sources.tolist()
                wts_list = (
                    weights.tolist()
                    if isinstance(weights, np.ndarray)
                    else list(weights)
                )
                off_list = offsets.tolist()
                src_rows, wts_rows = [], []
                for i in range(n_new):
                    lo, hi = off_list[i], off_list[i + 1]
                    row_src, row_wts = src_list[lo:hi], wts_list[lo:hi]
                    if i in dirty:
                        if sum(1 for s in set(row_src) if s < self.n_params) >= 2:
                            self.has_param_merge = True
                        row_src, row_wts = canonical_parts(row_src, row_wts)
                        row_src, row_wts = list(row_src), list(row_wts)
                    src_rows.append(row_src)
                    wts_rows.append(row_wts)

        from repro.circuits.store import int_column

        if self.wireless:
            self._flush_wireless_tail()
        else:
            self._flush_tail()
        if src_rows is not None:
            fan_list = [len(r) for r in src_rows]
            store_fan_ins = np.asarray(fan_list, dtype=np.int64)
            merged_offsets = np.zeros(n_new + 1, dtype=np.int64)
            np.cumsum(store_fan_ins, out=merged_offsets[1:])
            store_sources = np.asarray(
                [s for r in src_rows for s in r], dtype=np.int64
            )
            store_weights, weights_ok = int_column([w for r in wts_rows for w in r])
            rel = resolve_batch_depths(
                self.node_depths_of,
                store_sources,
                merged_offsets,
                store_fan_ins,
                None,
                base,
            )
        else:
            store_sources = sources
            store_fan_ins = fan_ins
            if isinstance(weights, np.ndarray):
                store_weights, weights_ok = weights, weights.dtype != object
            else:
                store_weights, weights_ok = int_column(weights)
            if depths is not None:
                rel = np.ascontiguousarray(depths, dtype=np.int64)
            else:
                rel = resolve_batch_depths(
                    self.node_depths_of, sources, offsets, fan_ins, rows, base
                )
        if bool((store_fan_ins == 0).any()):
            self.has_fan0 = True
        if self.wireless:
            self._fan_chunks.append(store_fan_ins)
            accumulate_tag_counts(
                self._wireless_tag_counts, tag, n_new, tag_counts, self._tags.decode
            )
            self._n_gates += n_new
            self.rel_depths.extend(rel)
            return np.arange(base, base + n_new, dtype=np.int64)
        if isinstance(thresholds, np.ndarray):
            store_thresholds, thresholds_ok = thresholds, thresholds.dtype != object
        else:
            store_thresholds, thresholds_ok = int_column(thresholds)
        if isinstance(tag, str):
            tag_codes = np.full(n_new, self.intern_tag(tag), dtype=np.int32)
        elif isinstance(tag, np.ndarray) and tag.dtype == np.int32:
            tag_codes = tag
        else:
            intern = self.intern_tag
            tag_codes = np.fromiter(
                (intern(str(t)) for t in tag), dtype=np.int32, count=n_new
            )
        self._chunks.append(
            (
                store_sources,
                store_weights,
                store_fan_ins,
                store_thresholds,
                tag_codes,
                weights_ok and thresholds_ok,
            )
        )
        self._n_gates += n_new
        self.rel_depths.extend(rel)
        return np.arange(base, base + n_new, dtype=np.int64)


class CompiledTemplate:
    """The compile-time export of a recorded template: local CSR + layers.

    This is the *stable* form the execution engine consumes (the
    template-streaming compile path): everything is a plain array keyed by
    local ids — parameter slots ``0 .. n_params-1``, gates ``n_params + j``
    — with no reference back to the recorder, the stamper or the recorded
    result closures, so compiled programs holding it stay picklable for the
    process-parallel batch scheduler.

    ``layers`` groups the local gates by their relative depth (parameters
    sit at depth 0); within one block every gate only reads parameter slots
    or lower-relative-depth local gates, so evaluating the layers in order
    is topologically valid for every stamped copy regardless of where the
    copy's actual parameters sit in the host circuit.
    """

    __slots__ = (
        "n_params",
        "n_gates",
        "n_locals",
        "sources",
        "offsets",
        "weights",
        "thresholds",
        "rel_depths",
        "layers",
        "max_magnitude",
        "int64_ok",
    )

    def __init__(self, template: "GadgetTemplate") -> None:
        if template.wireless:
            raise ValueError("wireless (counting-only) templates carry no wires")
        self.n_params = template.n_params
        self.n_gates = template.n_gates
        self.n_locals = template.n_params + template.n_gates
        self.sources = template.sources
        self.offsets = template.offsets
        self.weights = template.weights
        self.thresholds = template.thresholds
        self.rel_depths = template.rel_depths
        self.int64_ok = (
            self.weights.dtype != object and self.thresholds.dtype != object
        )
        self.max_magnitude = csr_max_magnitude(
            self.weights, self.offsets, self.thresholds, self.int64_ok
        )
        layers: List[Tuple[np.ndarray, np.ndarray, np.ndarray, Any, Any]] = []
        for _depth, lgates, wire_idx, layer_fan in iter_depth_layers(
            self.rel_depths, self.offsets
        ):
            # lgates are local gate indices, insertion order within a layer.
            rows = np.repeat(np.arange(len(lgates), dtype=np.int64), layer_fan)
            layers.append(
                (
                    lgates,
                    rows,
                    self.sources[wire_idx],
                    self.weights[wire_idx],
                    self.thresholds[lgates],
                )
            )
        self.layers = layers


@dataclass(frozen=True)
class TemplateBlock:
    """One stamped run recorded on the host circuit.

    ``base`` is the node id of the first stamped gate; copy ``i`` of the
    template occupies node ids ``base + i * n_gates .. base + (i+1) *
    n_gates - 1`` and reads the actual parameter nodes ``params[i]``.
    Together with the template's local CSR this reconstructs the block's
    gates exactly, which is what lets the engine compile one layer plan per
    template and tile it across stamps instead of re-reading the circuit's
    consolidated arrays.

    Deliberately holds the slim :class:`CompiledTemplate` (shared across
    every block stamped from one gadget), not the recording-side
    :class:`GadgetTemplate` — provenance must not pin the stamper's tiled
    emission caches and result-rebuild closures to the circuit's lifetime.
    """

    template: "CompiledTemplate"
    base: int
    params: np.ndarray  # (k, n_params) absolute node ids

    @property
    def k(self) -> int:
        return int(self.params.shape[0])

    @property
    def n_gates(self) -> int:
        return self.template.n_gates


class GadgetTemplate:
    """A recorded, relocatable gadget plus its return-value descriptor."""

    __slots__ = (
        "n_params",
        "n_gates",
        "n_edges",
        "wireless",
        "sources",
        "offsets",
        "fan_ins",
        "weights",
        "thresholds",
        "tag_counts",
        "result",
        "rel_depths",
        "uniform_depth_ok",
        "_local_tag_codes",
        "_tag_table",
        "_tag_codes",
        "_result_locals",
        "_result_rebuild",
        "_is_param",
        "_param_slots",
        "_tiled",
        "bank_meta",
        "_compiled",
    )

    def __init__(self, recorder: TemplateBuilder, result: Any) -> None:
        self.n_params = recorder.n_params
        self.wireless = recorder.wireless
        if recorder.wireless:
            # Counting-only template: gate shapes without wires.  Stamping
            # such a template requires the uniform-parameter-depth shortcut
            # (enforced by the stamper); everything a dry run consumes —
            # fan-ins, edge totals, relative depths, tag counts, result ids —
            # is present.
            self.fan_ins, self.tag_counts = recorder.wireless_columns()
            self.sources = np.empty(0, dtype=np.int64)
            self.weights = np.empty(0, dtype=np.int64)
            self.thresholds = np.empty(0, dtype=np.int64)
            self._local_tag_codes = np.empty(0, dtype=np.int32)
            self._tag_table: List[str] = []
        else:
            (
                self.sources,
                self.weights,
                self.fan_ins,
                self.thresholds,
                self._local_tag_codes,
                _int64_ok,
                self._tag_table,
            ) = recorder.columns()
            self.tag_counts = {}
            if len(self.fan_ins):
                code_counts = np.bincount(
                    self._local_tag_codes, minlength=len(self._tag_table)
                )
                for code, count in enumerate(code_counts.tolist()):
                    tag = self._tag_table[code] if code < len(self._tag_table) else ""
                    if tag and count:
                        self.tag_counts[tag] = count
        self.n_gates = len(self.fan_ins)
        self.n_edges = int(self.fan_ins.sum()) if self.n_gates else 0
        self.offsets = np.zeros(self.n_gates + 1, dtype=np.int64)
        np.cumsum(self.fan_ins, out=self.offsets[1:])
        self.result = result
        self.rel_depths = recorder.rel_depths.view().copy()
        self.uniform_depth_ok = not recorder.has_fan0 and recorder.n_params > 0
        self._tag_codes: Optional[np.ndarray] = None
        self._result_locals, self._result_rebuild = _compile_result(result)
        self._is_param = self.sources < self.n_params
        self._param_slots = np.where(self._is_param, self.sources, 0)
        # Lazily filled by SignedValueBank.from_template: the shared bank
        # layout (weights/positions tuples) derived from the result, so
        # per-stamp bank wrapping never rebuilds them.
        self.bank_meta = None
        # Single-slot cache (keyed by the copy count k) of the
        # parameter-independent tiled columns (weights, thresholds, tag
        # codes, offsets): hot constructions stamp the same k over and over,
        # and the store never mutates appended chunks, so the cached arrays
        # can be handed out again and again.  One slot bounds the memory of
        # constructions whose run lengths vary (duplicate-parameter splits).
        self._tiled = None
        self._compiled: Optional[CompiledTemplate] = None

    def compiled(self) -> Optional[CompiledTemplate]:
        """The stable compile-time export (None for wireless templates).

        Cached: every block stamped from this template shares one
        :class:`CompiledTemplate`, so the engine builds each template's
        layer matrices exactly once per compile however many times it was
        stamped.
        """
        if self.wireless:
            return None
        if self._compiled is None:
            self._compiled = CompiledTemplate(self)
        return self._compiled

    def stamp(
        self,
        builder,
        params: np.ndarray,
        mapped_only: bool = False,
        param_depths: Optional[np.ndarray] = None,
    ):
        """Emit ``k`` translated copies; returns the remapped result per copy.

        ``params`` has shape ``(k, n_params)``: row ``i`` holds the actual
        node ids feeding copy ``i``'s parameter slots.  With
        ``mapped_only=True`` the per-copy results are not rebuilt as value
        objects; the raw ``(k, n_result_ids)`` matrix of remapped node ids is
        returned instead (the value-bank path wraps it without ever
        materializing scalars).  ``param_depths`` optionally supplies the
        per-copy parameter depth matrix when the caller already gathered it
        (the wireless pre-check).
        """
        k = params.shape[0]
        base = builder.n_nodes
        n_params = self.n_params
        n_gates = self.n_gates
        if n_gates:
            depths = None
            if self.uniform_depth_ok:
                # When every parameter of a copy sits at one depth D, the
                # copy's gate depths are exactly D + rel_depths — one gather
                # plus a broadcast instead of the generic layering passes.
                if param_depths is None:
                    param_depths = builder.node_depths_of(params)
                low = param_depths.min(axis=1)
                if int((param_depths.max(axis=1) == low).all()):
                    depths = (low[:, None] + self.rel_depths[None, :]).reshape(-1)
            if depths is not None and getattr(builder, "counts_only", False):
                # Dry-run counting: the template's gate/edge/fan-in/tag
                # totals are reused verbatim, nothing is re-walked.
                builder.add_template_gates(self, k, depths)
            else:
                instance_shift = np.arange(k, dtype=np.int64)[:, None] * n_gates
                # Broadcast the instance translation instead of
                # tiling+repeating: row i of the (k, E) matrix holds copy i's
                # absolute sources.
                internal = (base - n_params) + self.sources[None, :] + instance_shift
                if n_params:
                    abs_sources = np.where(
                        self._is_param[None, :], params[:, self._param_slots], internal
                    )
                else:
                    abs_sources = internal
                tiled = None
                if self._tiled is not None and self._tiled[0] == k:
                    tiled = self._tiled[1]
                if tiled is None:
                    if self._tag_codes is None:
                        # A template lives inside one builder's stamper, so
                        # interning its tags against that builder once is
                        # safe; the per-gate codes are one table-sized remap.
                        intern = builder.intern_tag
                        mapping = np.asarray(
                            [intern(t) for t in self._tag_table], dtype=np.int32
                        )
                        self._tag_codes = mapping[self._local_tag_codes]
                    n_edges = len(self.sources)
                    offsets = np.empty(k * n_gates + 1, dtype=np.int64)
                    offsets[0] = 0
                    offsets[1:] = (
                        self.offsets[1:][None, :]
                        + np.arange(k, dtype=np.int64)[:, None] * n_edges
                    ).reshape(-1)
                    tiled = (
                        offsets,
                        np.tile(self.weights, k),
                        np.tile(self.thresholds, k),
                        np.tile(self._tag_codes, k),
                        {t: c * k for t, c in self.tag_counts.items()},
                    )
                    self._tiled = (k, tiled)
                offsets, weights_k, thresholds_k, tag_codes_k, tag_counts_k = tiled
                builder.add_gates(
                    abs_sources.reshape(-1),
                    offsets,
                    weights_k,
                    thresholds_k,
                    tag=tag_codes_k,
                    canonicalize=False,
                    validate=False,
                    depths=depths,
                    tag_counts=tag_counts_k,
                )
                # Builders that compile through the engine remember the stamp
                # (template + base + parameter rows) so the compiler can
                # stream the template's layer plan instead of re-reading the
                # consolidated CSR.  Duck-typed: counting/recording builders
                # simply have no such hook.  The rows are copied: recorded
                # provenance must stay immutable even if a caller reuses its
                # parameter buffer after stamping.
                note = getattr(builder, "note_template_block", None)
                if note is not None:
                    note(
                        TemplateBlock(
                            self.compiled(),
                            int(base),
                            np.array(params, dtype=np.int64),
                        )
                    )
        # Rebuild the recorded result per copy from one vectorized id remap:
        # row i of `mapped` holds the actual node ids of the result's local
        # ids under copy i's translation.
        locals_arr = self._result_locals
        if locals_arr.size:
            is_param = locals_arr < n_params
            internal_ids = locals_arr - n_params + base + (
                np.arange(k, dtype=np.int64)[:, None] * n_gates
            )
            if n_params:
                param_ids = params[:, np.where(is_param, locals_arr, 0)]
                mapped = np.where(is_param[None, :], param_ids, internal_ids)
            else:
                mapped = internal_ids
        else:
            mapped = np.empty((k, 0), dtype=np.int64)
        if mapped_only:
            return mapped
        rebuild = self._result_rebuild
        return [rebuild(row) for row in mapped.tolist()]


def _compile_result(result: Any):
    """Compile a recorded result into (local id array, rebuild function).

    The rebuild function takes the list of *mapped* node ids (same order as
    the id array) and produces the result object for one stamped copy.  It
    constructs the frozen value dataclasses through ``object.__new__``,
    skipping their validating ``__post_init__`` — the template was validated
    once at record time and every copy is an id translation of it.
    """
    from repro.arithmetic.signed import (
        BinaryNumber,
        Rep,
        SignedBinaryNumber,
        SignedValue,
    )

    ids: List[int] = []

    def _new_rep(terms) -> Rep:
        rep = object.__new__(Rep)
        object.__setattr__(rep, "terms", terms)
        return rep

    def _new_binary(positions, nodes, width) -> BinaryNumber:
        number = object.__new__(BinaryNumber)
        object.__setattr__(number, "bit_positions", positions)
        object.__setattr__(number, "bit_nodes", nodes)
        object.__setattr__(number, "width", width)
        return number

    def walk(obj):
        if obj is None:
            return lambda vals: None
        if isinstance(obj, (int, np.integer)):
            index = len(ids)
            ids.append(int(obj))
            return lambda vals, index=index: vals[index]
        if isinstance(obj, Rep):
            start = len(ids)
            ids.extend(node for node, _ in obj.terms)
            weights = tuple(weight for _, weight in obj.terms)
            end = start + len(weights)
            if not weights:
                return lambda vals: _new_rep(())
            if len(weights) == 1:
                weight = weights[0]

                def make_rep_1(vals, start=start, weight=weight):
                    return _new_rep(((vals[start], weight),))

                return make_rep_1

            def make_rep(vals, start=start, end=end, weights=weights):
                return _new_rep(tuple(zip(vals[start:end], weights)))

            return make_rep
        if isinstance(obj, SignedValue):
            make_pos = walk(obj.pos)
            make_neg = walk(obj.neg)

            def make_signed(vals, make_pos=make_pos, make_neg=make_neg):
                value = object.__new__(SignedValue)
                object.__setattr__(value, "pos", make_pos(vals))
                object.__setattr__(value, "neg", make_neg(vals))
                return value

            return make_signed
        if isinstance(obj, BinaryNumber):
            start = len(ids)
            ids.extend(obj.bit_nodes)
            end = start + len(obj.bit_nodes)
            positions = obj.bit_positions
            width = obj.width

            def make_binary(
                vals, start=start, end=end, positions=positions, width=width
            ):
                return _new_binary(positions, tuple(vals[start:end]), width)

            return make_binary
        if isinstance(obj, SignedBinaryNumber):
            make_pos = walk(obj.pos)
            make_neg = walk(obj.neg)

            def make_signed_binary(vals, make_pos=make_pos, make_neg=make_neg):
                number = object.__new__(SignedBinaryNumber)
                object.__setattr__(number, "pos", make_pos(vals))
                object.__setattr__(number, "neg", make_neg(vals))
                return number

            return make_signed_binary
        if isinstance(obj, list):
            makers = [walk(item) for item in obj]
            return lambda vals, makers=makers: [make(vals) for make in makers]
        if isinstance(obj, tuple):
            makers = [walk(item) for item in obj]
            return lambda vals, makers=makers: tuple(make(vals) for make in makers)
        raise TypeError(f"cannot compile template result of type {type(obj)!r}")

    rebuild = walk(result)
    return np.asarray(ids, dtype=np.int64), rebuild


def _result_is_relocatable(result: Any, n_params: int) -> bool:
    """True when the recorded result remaps faithfully under stamping.

    ``Rep`` terms are sorted by node id; a parameter node inside a ``Rep``
    would need re-sorting per copy (parameter ids are arbitrary), so such
    gadgets are not templated.
    """
    from repro.arithmetic.signed import (
        BinaryNumber,
        Rep,
        SignedBinaryNumber,
        SignedValue,
    )

    if result is None or isinstance(result, (int, np.integer)):
        return True
    if isinstance(result, Rep):
        return all(node >= n_params for node, _ in result.terms)
    if isinstance(result, SignedValue):
        return _result_is_relocatable(result.pos, n_params) and _result_is_relocatable(
            result.neg, n_params
        )
    if isinstance(result, BinaryNumber):
        return True
    if isinstance(result, SignedBinaryNumber):
        return True
    if isinstance(result, (list, tuple)):
        return all(_result_is_relocatable(item, n_params) for item in result)
    return False


class GadgetStamper:
    """Per-builder template cache + batched stamping driver.

    Gadget constructors call :meth:`stamp_all` with a structural signature
    (everything the gadget's gate stream depends on *except* the actual node
    ids), the per-copy parameter rows, and two emitters: one that builds the
    gadget on a :class:`TemplateBuilder` (local ids) and one that builds a
    single copy the legacy way (used for non-templatable gadgets and for
    copies with duplicated parameters).
    """

    # A counting builder's direct emission is wire-free (closed-form bank
    # shapes), so recording a template — O(recorded gates) — only pays off
    # once a key has been stamped often enough.  One deferred copy "buys"
    # this many recorded gates:
    COUNTING_GATES_PER_DEFER = 2048

    def __init__(self, builder) -> None:
        self._builder = builder
        self._templates: Dict[Any, Optional[GadgetTemplate]] = {}
        self._counting = bool(getattr(builder, "counts_only", False))
        # key -> [deferred copies seen, per-copy gadget size (0 = unknown)]
        self._deferred: Dict[Any, List[int]] = {}

    def template_for(
        self,
        key: Any,
        n_params: int,
        emit_template: Callable[[TemplateBuilder], Any],
        copies: Optional[int] = None,
    ):
        """The cached template for ``key``.

        Returns ``None`` when the gadget is not templatable (cached verdict),
        or :data:`DEFER_TEMPLATE` when recording is not (yet) worth it and
        the caller should emit this batch via the direct/bulk path
        (wire-identical).  On a real builder that is only the very first
        single-copy occurrence of a key — single-use gadgets, e.g. the wide
        root-block recombination sums with all-distinct weight signatures,
        never pay the recording overhead.  On a counting builder the
        deferral is size-aware: direct dry-run emission is nearly free, so a
        large gadget must accumulate enough deferred copies before its
        recording cost amortizes.
        """
        if key in self._templates:
            return self._templates[key]
        info = self._deferred.get(key)
        if self._counting:
            if info is None:
                self._deferred[key] = [0, 0]
                return DEFER_TEMPLATE
            seen, per_copy = info
            if seen * self.COUNTING_GATES_PER_DEFER < per_copy:
                return DEFER_TEMPLATE
        elif copies == 1 and info is None:
            self._deferred[key] = [0, 0]
            return DEFER_TEMPLATE
        recorder = TemplateBuilder(n_params, wireless=self._counting)
        result = emit_template(recorder)
        template: Optional[GadgetTemplate] = None
        if not recorder.has_param_merge and _result_is_relocatable(result, n_params):
            template = GadgetTemplate(recorder, result)
        self._templates[key] = template
        return template

    def _wireless_depths(
        self, template: "GadgetTemplate", params: np.ndarray
    ) -> Optional[np.ndarray]:
        """Parameter depths if a counting-only template can stamp these copies.

        A wireless template carries no wires, so stamping is only possible
        through the uniform-parameter-depth shortcut; heterogeneous copies
        fall back to direct dry-run emission (wire-free anyway).  Returns the
        gathered ``(k, n_params)`` depth matrix (handed on to ``stamp`` so it
        is not gathered twice) or ``None`` when stamping is not possible.
        """
        if not template.uniform_depth_ok or params.shape[1] == 0:
            return None
        depths = self._builder.node_depths_of(params)
        if not bool((depths.max(axis=1) == depths.min(axis=1)).all()):
            return None
        return depths

    def _note_deferred(self, key: Any, copies: int, nodes_added: int) -> None:
        """Record how large a deferred gadget turned out to be."""
        info = self._deferred.get(key)
        if info is not None and copies > 0:
            info[0] += copies
            if info[1] == 0:
                info[1] = nodes_added // copies

    def stamp_all(
        self,
        key: Any,
        n_params: int,
        params_list: Sequence[Sequence[int]],
        emit_template: Callable[[TemplateBuilder], Any],
        emit_legacy: Callable[[int], Any],
    ) -> List[Any]:
        """Emit every copy, stamping consecutive clean runs in one call.

        Copies whose parameters repeat a node id are emitted via
        ``emit_legacy`` in place, so the overall gate stream keeps the exact
        legacy order.
        """
        k = len(params_list)
        template = self.template_for(key, n_params, emit_template, copies=k)
        if template is None or template is DEFER_TEMPLATE:
            before = self._builder.n_nodes
            results = [emit_legacy(i) for i in range(k)]
            if template is DEFER_TEMPLATE:
                self._note_deferred(key, k, self._builder.n_nodes - before)
            return results
        params = np.asarray(params_list, dtype=np.int64).reshape(k, n_params)
        param_depths = None
        if template.wireless:
            param_depths = self._wireless_depths(template, params)
            if param_depths is None:
                return [emit_legacy(i) for i in range(k)]
        has_dup = _dup_rows(params)
        if not has_dup.any():
            return template.stamp(self._builder, params, param_depths=param_depths)
        results: List[Any] = [None] * k
        dup_indices = np.nonzero(has_dup)[0].tolist()
        start = 0
        for stop in dup_indices + [k]:
            if stop > start:
                run_depths = (
                    param_depths[start:stop] if param_depths is not None else None
                )
                for i, mapped in zip(
                    range(start, stop),
                    template.stamp(
                        self._builder, params[start:stop], param_depths=run_depths
                    ),
                ):
                    results[i] = mapped
            if stop < k:
                results[stop] = emit_legacy(stop)
            start = stop + 1
        return results

    def stamp_all_mapped(
        self,
        key: Any,
        n_params: int,
        params: np.ndarray,
        emit_template: Callable[[TemplateBuilder], Any],
        emit_legacy: Callable[[int], Any],
    ):
        """Array-native variant of :meth:`stamp_all` for the value-bank path.

        Returns ``(template, mapped, overrides)`` where ``mapped`` is the
        ``(k, n_result_ids)`` matrix of remapped result node ids and
        ``overrides`` maps the duplicate-parameter row indices to their
        legacy-emitted result objects (those rows' ``mapped`` entries are
        meaningless).  When the gadget is not templated (unrelocatable, or
        recording deferred) every copy is emitted through ``emit_legacy`` in
        order and ``(None, scalar_results, None)`` is returned.

        The gate stream is wire-for-wire identical to :meth:`stamp_all` on
        the same copies: stamped runs and legacy rows interleave in the exact
        same order, and splitting a clean run into several ``stamp`` calls
        appends the same gates (each copy's block is self-contained).
        """
        k = params.shape[0]
        template = self.template_for(key, n_params, emit_template, copies=k)
        if template is None or template is DEFER_TEMPLATE:
            before = self._builder.n_nodes
            results = [emit_legacy(i) for i in range(k)]
            if template is DEFER_TEMPLATE:
                self._note_deferred(key, k, self._builder.n_nodes - before)
            return None, results, None
        param_depths = None
        if template.wireless:
            param_depths = self._wireless_depths(template, params)
            if param_depths is None:
                return None, [emit_legacy(i) for i in range(k)], None
        has_dup = _dup_rows(params)
        if not has_dup.any():
            return (
                template,
                template.stamp(
                    self._builder, params, mapped_only=True, param_depths=param_depths
                ),
                {},
            )
        n_ids = len(template._result_locals)
        mapped = np.empty((k, n_ids), dtype=np.int64)
        overrides: Dict[int, Any] = {}
        dup_indices = np.nonzero(has_dup)[0].tolist()
        start = 0
        for stop in dup_indices + [k]:
            if stop > start:
                run_depths = (
                    param_depths[start:stop] if param_depths is not None else None
                )
                mapped[start:stop] = template.stamp(
                    self._builder,
                    params[start:stop],
                    mapped_only=True,
                    param_depths=run_depths,
                )
            if stop < k:
                overrides[stop] = emit_legacy(stop)
            start = stop + 1
        return template, mapped, overrides

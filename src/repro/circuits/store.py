"""Columnar (structure-of-arrays) storage for threshold-circuit gates.

A circuit with millions of gates cannot afford one Python object per gate:
construction time and memory are then dominated by allocator traffic instead
of the actual wiring work.  :class:`GateStore` keeps the whole gate list in
CSR-style flat arrays —

* ``sources``/``weights``: the concatenated incoming wires of every gate,
* ``offsets``: ``offsets[i]:offsets[i+1]`` slices gate ``i``'s wires,
* ``thresholds``, ``depths``, ``tag_codes``: one entry per gate

— while still supporting cheap incremental appends.  Appends land in small
staging buffers (Python lists for single-gate appends, numpy chunks for bulk
appends) and are consolidated into one contiguous :class:`Columns` snapshot
lazily, the first time array access is requested after a mutation.

Weights and thresholds are stored as int64 whenever every value fits; a
circuit containing a weight outside the int64 range transparently degrades
the whole store to object dtype (exact Python integers), and the vectorized
consumers (stats, structural hashing, layer-plan lowering) fall back to their
per-gate exact paths.  Sources, offsets and depths are always int64 — node
ids and depths cannot overflow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Columns",
    "GateStore",
    "IntVector",
    "TagTable",
    "accumulate_tag_counts",
    "csr_dirty_rows",
    "csr_max_magnitude",
    "depth_issue",
    "gather_ranges",
    "group_by_depth",
    "iter_depth_layers",
    "int_column",
    "segment_max",
    "segment_sum",
    "shared_sum_rows",
    "validate_csr_sources",
]


def validate_csr_sources(sources, offsets, fan_ins, base, rows) -> None:
    """Shared bounds checks for a CSR gate batch (one rule set, all paths).

    ``rows`` maps each wire to its owning batch row; a source must reference
    a node below ``base + row`` (inputs, earlier gates, or earlier rows of
    the same batch).
    """
    if fan_ins.size and int(fan_ins.min()) < 0:
        raise ValueError("offsets must be nondecreasing")
    if int(offsets[0]) != 0 or int(offsets[-1]) != len(sources):
        raise ValueError("offsets do not cover the wire arrays")
    if sources.size:
        if int(sources.min()) < 0:
            raise ValueError("gate references a negative node id")
        bad = sources >= base + rows
        if bad.any():
            wire = int(np.argmax(bad))
            raise ValueError(
                f"gate {base + int(rows[wire])} references node "
                f"{int(sources[wire])}, but only nodes < "
                f"{base + int(rows[wire])} exist"
            )


def csr_dirty_rows(sources, rows) -> np.ndarray:
    """Batch rows containing duplicate sources (empty array when clean).

    The single duplicate-wire detection shared by the circuit, counting and
    template-recording bulk appends, so canonicalization semantics cannot
    drift between the build and dry-run paths.

    ``rows`` maps each wire to its batch row and is non-decreasing (CSR
    order).  A row whose sources strictly increase holds no duplicate, so
    only the other rows go through the sort.
    """
    if not len(sources):
        return np.empty(0, dtype=np.int64)
    unsorted = (rows[1:] == rows[:-1]) & (sources[1:] <= sources[:-1])
    if not unsorted.any():
        return np.empty(0, dtype=np.int64)
    candidates = np.unique(rows[1:][unsorted])
    lo = np.searchsorted(rows, candidates, side="left")
    hi = np.searchsorted(rows, candidates, side="right")
    wires = gather_ranges(lo, hi - lo)
    sources = sources[wires]
    rows = rows[wires]
    order = np.lexsort((sources, rows))
    s_sorted = sources[order]
    r_sorted = rows[order]
    dup_wire = (s_sorted[1:] == s_sorted[:-1]) & (r_sorted[1:] == r_sorted[:-1])
    if not dup_wire.any():
        return np.empty(0, dtype=np.int64)
    return np.unique(r_sorted[1:][dup_wire])


def depth_issue(n_inputs, sources, offsets, depths, label="gate") -> Optional[str]:
    """Check recorded gate depths against the wiring; None when they agree.

    The one depth rule of the package: inputs sit at depth 0 and every
    gate at 1 + the maximum depth of its sources (1 for a gate without
    wires).  Every source must precede its gate, so checking each gate
    against its sources' *recorded* depths in one pass proves all of them.
    Returns a message naming the first mismatched gate (node id
    ``n_inputs + index``, prefixed by ``label``).
    """
    depths = np.asarray(depths, dtype=np.int64)
    node_depths = np.concatenate([np.zeros(n_inputs, dtype=np.int64), depths])
    expected = 1 + segment_max(node_depths[sources], offsets)
    mismatched = np.nonzero(expected != depths)[0]
    if not mismatched.size:
        return None
    gate = int(mismatched[0])
    return (
        f"{label} {n_inputs + gate}: recorded depth {int(depths[gate])} "
        f"!= wiring depth {int(expected[gate])} "
        f"({mismatched.size} gate(s) total)"
    )


def accumulate_tag_counts(counts, tag, n_new, tag_counts=None, decode=None) -> None:
    """Fold one bulk append's tag information into a per-tag counter dict.

    Accepts the four tag input forms of the bulk protocol: an explicit
    ``tag_counts`` mapping, one tag string for the batch, an int32 code
    array (``decode`` maps codes back to strings), or a per-gate sequence of
    strings/codes.
    """
    if tag_counts is not None:
        for t, count in tag_counts.items():
            if t:
                counts[t] = counts.get(t, 0) + count
    elif isinstance(tag, str):
        if tag and n_new:
            counts[tag] = counts.get(tag, 0) + n_new
    elif isinstance(tag, np.ndarray) and tag.dtype == np.int32:
        code_counts = np.bincount(tag)
        for code in np.nonzero(code_counts)[0].tolist():
            t = decode(int(code))
            if t:
                counts[t] = counts.get(t, 0) + int(code_counts[code])
    else:
        for t in tag:
            if not isinstance(t, str):
                t = decode(int(t))
            if t:
                counts[t] = counts.get(t, 0) + 1


class TagTable:
    """Append-only string interner (tag <-> int32 code).

    One implementation shared by the gate store, the template recorder and
    the counting builder, so the three tag protocols cannot drift.
    """

    __slots__ = ("_table", "_index")

    def __init__(self) -> None:
        self._table: List[str] = []
        self._index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, tag: str) -> int:
        code = self._index.get(tag)
        if code is None:
            code = len(self._table)
            self._index[tag] = code
            self._table.append(tag)
        return code

    def decode(self, code: int) -> str:
        return self._table[code]

    def strings(self) -> List[str]:
        """A copy of the table, index-aligned with the codes."""
        return list(self._table)


class IntVector:
    """A growable int64 array with amortized O(1) append/extend.

    Used for per-gate depths, which need random access *during* construction
    (each new gate reads the depths of its sources) — a plain Python list
    would force an O(n) ``np.asarray`` per bulk append.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, capacity: int = 64) -> None:
        self._data = np.empty(max(int(capacity), 1), dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._data)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        data = np.empty(capacity, dtype=np.int64)
        data[: self._size] = self._data[: self._size]
        self._data = data

    def append(self, value: int) -> None:
        self._grow_to(self._size + 1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.int64)
        self._grow_to(self._size + values.size)
        self._data[self._size : self._size + values.size] = values
        self._size += values.size

    def __getitem__(self, index: int) -> int:
        if not (0 <= index < self._size):
            raise IndexError(index)
        return int(self._data[index])

    def view(self) -> np.ndarray:
        """Read-only window over the live entries (valid until next append)."""
        window = self._data[: self._size]
        window.flags.writeable = False
        return window

    def max(self, default: int = 0) -> int:
        if self._size == 0:
            return default
        return int(self._data[: self._size].max())


def segment_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment maximum under CSR offsets; empty segments yield 0."""
    n = len(offsets) - 1
    out = np.zeros(n, dtype=values.dtype)
    nonempty = offsets[:-1] < offsets[1:]
    if values.size and nonempty.any():
        # reduceat over the nonempty starts only: an empty segment has zero
        # width, so skipping its start leaves every remaining segment intact.
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty])
    return out


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum along axis 0 under CSR offsets; empty segments yield 0.

    ``values`` may be 1-D (one number per wire) or 2-D (one row per wire,
    e.g. a ``(wires, batch)`` block in the template-tiled evaluators);
    trailing axes are carried through.
    """
    n = len(offsets) - 1
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    nonempty = offsets[:-1] < offsets[1:]
    if values.size and nonempty.any():
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


def csr_max_magnitude(weights, offsets, thresholds, int64_ok: bool = True) -> int:
    """Exact max over gates of ``sum |w| + |threshold|`` (overflow measure).

    One rule shared by the full-circuit layer plan and the per-template
    compile path, so both derive the same int64-safety verdict.  The fast
    lane certifies its int64 arithmetic with a float64 bound (per-wire
    ``|w| <= 2**63`` and relative error ``~n * 2**-52``, so staying clearly
    below ``2**61`` is safe); anything near the boundary — or already beyond
    int64 — is re-summed on exact Python ints.  ``np.abs`` wraps on
    INT64_MIN itself, so that lone value also goes exact.
    """
    n = len(offsets) - 1
    if n == 0:
        return 0
    if int64_ok:
        int64_min = np.iinfo(np.int64).min
        if not (
            (weights.size and int(weights.min()) == int64_min)
            or (thresholds.size and int(thresholds.min()) == int64_min)
        ):
            abs_weights = np.abs(weights)
            float_total = segment_sum(
                abs_weights.astype(np.float64), offsets
            ) + np.abs(thresholds).astype(np.float64)
            if float(float_total.max()) < float(1 << 61):
                return int(
                    (segment_sum(abs_weights, offsets) + np.abs(thresholds)).max()
                )
    wts_list = weights.tolist() if isinstance(weights, np.ndarray) else list(weights)
    off_list = offsets.tolist() if isinstance(offsets, np.ndarray) else list(offsets)
    thr_list = (
        thresholds.tolist() if isinstance(thresholds, np.ndarray) else list(thresholds)
    )
    best = 0
    for i in range(n):
        total = sum(abs(w) for w in wts_list[off_list[i] : off_list[i + 1]])
        total += abs(thr_list[i])
        if total > best:
            best = total
    return best


def gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Index array concatenating ``starts[i] .. starts[i]+lens[i]`` in order.

    The standard CSR range-gather (one ``repeat`` plus one ``arange``, no
    Python loop); callers pass ``starts = offsets[selected_rows]`` with the
    selected rows' lengths.
    """
    total = int(lens.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    return np.repeat(
        starts - np.concatenate(([0], np.cumsum(lens[:-1]))), lens
    ) + np.arange(total, dtype=np.int64)


#: About this many wires are compared at a time, so the comparison's
#: temporaries (some 26 bytes a wire) stay bounded on a wide layer.
_SHARED_SUM_BLOCK = 1 << 20


def shared_sum_rows(offsets: np.ndarray, cols: np.ndarray, data: np.ndarray):
    """The distinct weighted sums of one layer's CSR rows: ``(first, row_of)``.

    The one shared-sum rule of the package, applied by the matrix backends
    and by the verifier's sum count.  A row shares the previous row's sum
    when its sources and weights equal that row's, compared element by
    element (no hashing): a threshold ladder emits its gates back to back,
    all reading one sum with their own thresholds.  Equal rows that are not
    adjacent keep sums of their own.  ``first`` holds the ascending rows
    that each start a run of equal rows, one sum per run; ``row_of`` maps
    every row to the index of its sum in ``first``, or is None when no row
    repeats (then ``first`` is every row).
    """
    n_rows = len(offsets) - 1
    fan = np.diff(offsets)
    # same[i]: row i repeats row i - 1, which needs an equal fan-in first.
    same = np.zeros(n_rows, dtype=bool)
    np.equal(fan[1:], fan[:-1], out=same[1:])
    if len(cols) and same.any():
        bounds = [0, n_rows]
        if len(cols) > _SHARED_SUM_BLOCK:
            # Rows in blocks of about _SHARED_SUM_BLOCK wires.
            cuts = np.searchsorted(offsets, np.arange(0, len(cols), _SHARED_SUM_BLOCK))
            bounds = np.unique(np.append(cuts, n_rows)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lens = fan[lo:hi]
            start = int(offsets[lo])
            # Each wire against the wire one row-length back: the same slot
            # of the previous row wherever the two rows are equally long.
            back = np.repeat(lens, lens)
            np.subtract(np.arange(start, start + len(back)), back, out=back)
            wires = slice(start, start + len(back))
            differs = cols[wires] != cols.take(back)
            differs |= data[wires] != data.take(back)
            wired = lens > 0
            if wired.any():
                same[lo:hi][wired] &= ~np.logical_or.reduceat(
                    differs, offsets[lo:hi][wired] - start
                )
    if not same.any():
        return np.arange(n_rows, dtype=np.int64), None
    starts = ~same
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def group_by_depth(depths: np.ndarray):
    """Group gate indices by depth: ``(order, sorted_depths, starts, ends)``.

    ``order[starts[i]:ends[i]]`` are the gate indices of the i-th layer (in
    insertion order — the sort is stable) and ``sorted_depths[starts[i]]`` is
    that layer's depth.  Shared by ``ThresholdCircuit.gates_by_depth`` and
    the simulator's layer-plan lowering.
    """
    order = np.argsort(depths, kind="stable")
    sorted_depths = depths[order]
    boundaries = np.nonzero(np.diff(sorted_depths))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(order)]))
    return order, sorted_depths, starts, ends


def iter_depth_layers(depths: np.ndarray, offsets: np.ndarray):
    """Yield ``(depth, gate_idx, wire_idx, layer_fan)`` per depth layer.

    The single depth-layer lowering shared by the simulator's layer plan,
    the template compiler (residual runs and template-local layers) and the
    spiking activity view — gate indices are ascending within a layer (the
    grouping sort is stable) and ``wire_idx`` gathers each layer's wires in
    gate order, so every consumer sees identical layer ordering by
    construction rather than by parallel maintenance.
    """
    if not len(depths):
        return
    fan_ins = np.diff(offsets)
    order, sorted_depths, starts, ends = group_by_depth(depths)
    for start, end in zip(starts, ends):
        gate_idx = order[start:end]
        layer_fan = fan_ins[gate_idx]
        yield (
            int(sorted_depths[start]),
            gate_idx,
            gather_ranges(offsets[gate_idx], layer_fan),
            layer_fan,
        )


def int_column(values) -> Tuple[np.ndarray, bool]:
    """Materialize ints as int64 when possible, exact object dtype otherwise.

    Accepts sequences of Python ints or numpy arrays; the single coercion
    rule shared by the store's tail flush and the circuit's bulk appends.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return np.ascontiguousarray(values), True
    try:
        return np.ascontiguousarray(np.asarray(values, dtype=np.int64)), True
    except OverflowError:
        seq = [
            int(v)
            for v in (values.tolist() if isinstance(values, np.ndarray) else values)
        ]
        column = np.empty(len(seq), dtype=object)
        column[:] = seq
        return column, False


@dataclass(frozen=True)
class Columns:
    """One consolidated, immutable snapshot of a store's gate arrays."""

    sources: np.ndarray  # int64[n_edges]
    weights: np.ndarray  # int64[n_edges] (object dtype iff not int64_ok)
    offsets: np.ndarray  # int64[n_gates + 1]
    thresholds: np.ndarray  # int64[n_gates] (object dtype iff not int64_ok)
    tag_codes: np.ndarray  # int32[n_gates], indices into the store's tag table
    int64_ok: bool

    @property
    def n_gates(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self.sources)

    def fan_ins(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass
class _Chunk:
    """One already-columnar run of gates (a bulk append or a flushed tail)."""

    sources: np.ndarray
    weights: np.ndarray
    fan_ins: np.ndarray
    thresholds: np.ndarray
    tag_codes: np.ndarray
    int64_ok: bool


class GateStore:
    """Append-only columnar gate storage with lazy consolidation."""

    def __init__(self) -> None:
        self._chunks: List[_Chunk] = []
        # Staging buffers for single-gate appends.
        self._tail_sources: List[int] = []
        self._tail_weights: List[int] = []
        self._tail_fan_ins: List[int] = []
        self._tail_thresholds: List[int] = []
        self._tail_tag_codes: List[int] = []
        # Depths are kept materialized: add_gate/add_gates read them randomly.
        self.depths = IntVector()
        # Tag interning: one short string per construction site, shared.
        self._tags = TagTable()
        # Incrementally tracked totals (no consolidation needed for stats).
        self._n_gates = 0
        self._n_edges = 0
        self._max_fan_in = 0
        self._max_depth = 0
        self._columns: Optional[Columns] = None

    # ------------------------------------------------------------------ sizes
    @property
    def n_gates(self) -> int:
        return self._n_gates

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def max_fan_in(self) -> int:
        return self._max_fan_in

    @property
    def max_depth(self) -> int:
        return self._max_depth

    # ------------------------------------------------------------------- tags
    def intern_tag(self, tag: str) -> int:
        return self._tags.intern(tag)

    def tag_of_code(self, code: int) -> str:
        return self._tags.decode(code)

    def tag_table(self) -> List[str]:
        """The interned tag strings, index-aligned with ``tag_codes``."""
        return self._tags.strings()

    # ---------------------------------------------------------------- appends
    def append(
        self,
        sources: Sequence[int],
        weights: Sequence[int],
        threshold: int,
        tag: str,
        depth: int,
    ) -> None:
        """Append one canonical gate (caller validated sources and depth)."""
        self._tail_sources.extend(sources)
        self._tail_weights.extend(weights)
        self._tail_fan_ins.append(len(sources))
        self._tail_thresholds.append(threshold)
        self._tail_tag_codes.append(self.intern_tag(tag))
        self.depths.append(depth)
        self._n_gates += 1
        self._n_edges += len(sources)
        if len(sources) > self._max_fan_in:
            self._max_fan_in = len(sources)
        if depth > self._max_depth:
            self._max_depth = depth
        self._columns = None

    def extend(
        self,
        sources: np.ndarray,
        weights: np.ndarray,
        fan_ins: np.ndarray,
        thresholds: np.ndarray,
        tag_codes: np.ndarray,
        depths: np.ndarray,
        int64_ok: bool = True,
    ) -> None:
        """Append a bulk chunk of gates (arrays validated by the circuit)."""
        self._flush_tail()
        self._chunks.append(
            _Chunk(
                sources=sources,
                weights=weights,
                fan_ins=fan_ins,
                thresholds=thresholds,
                tag_codes=tag_codes,
                int64_ok=int64_ok,
            )
        )
        self.depths.extend(depths)
        self._n_gates += len(fan_ins)
        self._n_edges += len(sources)
        if fan_ins.size:
            self._max_fan_in = max(self._max_fan_in, int(fan_ins.max()))
        if depths.size:
            self._max_depth = max(self._max_depth, int(depths.max()))
        self._columns = None

    def _flush_tail(self) -> None:
        if not self._tail_fan_ins:
            return
        sources = np.asarray(self._tail_sources, dtype=np.int64)
        weights, weights_ok = int_column(self._tail_weights)
        thresholds, thresholds_ok = int_column(self._tail_thresholds)
        self._chunks.append(
            _Chunk(
                sources=sources,
                weights=weights,
                fan_ins=np.asarray(self._tail_fan_ins, dtype=np.int64),
                thresholds=thresholds,
                tag_codes=np.asarray(self._tail_tag_codes, dtype=np.int32),
                int64_ok=weights_ok and thresholds_ok,
            )
        )
        self._tail_sources = []
        self._tail_weights = []
        self._tail_fan_ins = []
        self._tail_thresholds = []
        self._tail_tag_codes = []

    # ------------------------------------------------------------ consolidate
    def columns(self) -> Columns:
        """The consolidated snapshot, rebuilt only after mutations.

        Consolidation merges all chunks into one, so repeated reads between
        mutations are free.  A read after a mutation re-concatenates the
        merged chunk with the new data — O(total) per such read — so strict
        one-append-one-read interleaving is quadratic; construction code
        appends in batches and reads once at the end, where this is linear.
        """
        if self._columns is not None:
            return self._columns
        self._flush_tail()
        chunks = self._chunks
        int64_ok = all(c.int64_ok for c in chunks)

        def _concat(arrays: List[np.ndarray], dtype) -> np.ndarray:
            if not arrays:
                return np.empty(0, dtype=dtype)
            if len(arrays) == 1:
                return arrays[0] if arrays[0].dtype == dtype else arrays[0].astype(dtype)
            return np.concatenate([a.astype(dtype) if a.dtype != dtype else a for a in arrays])

        value_dtype = np.int64 if int64_ok else object
        sources = _concat([c.sources for c in chunks], np.int64)
        weights = _concat([c.weights for c in chunks], value_dtype)
        thresholds = _concat([c.thresholds for c in chunks], value_dtype)
        fan_ins = _concat([c.fan_ins for c in chunks], np.int64)
        tag_codes = _concat([c.tag_codes for c in chunks], np.int32)
        offsets = np.zeros(len(fan_ins) + 1, dtype=np.int64)
        np.cumsum(fan_ins, out=offsets[1:])
        self._columns = Columns(
            sources=sources,
            weights=weights,
            offsets=offsets,
            thresholds=thresholds,
            tag_codes=tag_codes,
            int64_ok=int64_ok,
        )
        # The merged snapshot becomes the single chunk, so the next
        # consolidation after further appends concatenates O(new) data.
        self._chunks = [
            _Chunk(
                sources=sources,
                weights=weights,
                fan_ins=np.asarray(fan_ins, dtype=np.int64),
                thresholds=thresholds,
                tag_codes=tag_codes,
                int64_ok=int64_ok,
            )
        ]
        return self._columns

    # ----------------------------------------------------------------- access
    def gate_parts(self, index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, str]:
        """(sources, weights, threshold, tag) of one gate, as Python values."""
        cols = self.columns()
        lo = int(cols.offsets[index])
        hi = int(cols.offsets[index + 1])
        sources = tuple(int(s) for s in cols.sources[lo:hi])
        weights = tuple(int(w) for w in cols.weights[lo:hi])
        return (
            sources,
            weights,
            int(cols.thresholds[index]),
            self._tags.decode(int(cols.tag_codes[index])),
        )

    def tags(self) -> List[str]:
        """Per-gate tag strings (one list comprehension over interned codes)."""
        cols = self.columns()
        table = self._tags.strings()
        return [table[c] for c in cols.tag_codes.tolist()]

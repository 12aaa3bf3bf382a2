"""JSON (de)serialization of threshold circuits.

The format exports circuits to other toolchains (e.g. a neuromorphic
compiler) and archives them alongside experiment results.  The writer emits
version 2, a columnar layout that keeps the construction's template
provenance:

.. code-block:: json

    {
      "format": "repro-threshold-circuit",
      "version": 2,
      "name": "...",
      "n_inputs": 12,
      "gates": {"fan_ins": COL, "sources": COL, "weights": COL,
                "thresholds": COL, "depths": COL, "tags": COL},
      "tag_table": ["", "and", "..."],
      "outputs": COL,
      "output_labels": ["C[0][0]+bit0", "..."],
      "metadata": {...},
      "templates": [{"n_params": 3, "fan_ins": COL, "sources": COL,
                     "weights": COL, "thresholds": COL,
                     "rel_depths": COL}, ...],
      "blocks": {"template": COL, "base": COL, "k": COL, "params": COL}
    }

Every ``COL`` is one integer array, ``{"dtype": "<i4", "count": n, "data":
"<base64>"}``: the raw little-endian bytes in the narrowest of ``<i1``,
``<i2``, ``<i4`` and ``<i8`` that holds the column's range.  A weights or
thresholds column holding values beyond int64 is written as a plain JSON
list of exact integers instead.  ``gates`` is the columnar store: gate ``i``
owns the next ``fan_ins[i]`` entries of ``sources``/``weights`` and its tag
is ``tag_table[tags[i]]``.

The provenance holds one ``templates`` entry per distinct compiled template
(local CSR over parameter slots ``0 .. n_params-1`` and local gates
``n_params + j``, plus each local gate's depth relative to the parameters)
and one row of ``blocks`` per stamped run: the index of its template, the
node id ``base`` of its first gate, its copy count ``k``, and ``k *
n_params`` entries of the flat ``params`` column (copy ``i`` reads the
parameter nodes ``params[i]``).

Loading a v2 file always checks its input, whatever ``validate`` says, and
raises ``ValueError`` on the first failure:

* a column must declare one of the four dtypes above (nothing else, no
  pickle and no ``np.load``), its base64 must decode strictly and its
  ``count`` must equal the decoded length;
* fan-ins must be non-negative and sum to the wire count, tag codes must
  index the tag table, and templates and blocks must be well-formed;
* the gates land through :meth:`~ThresholdCircuit.add_gates` with
  canonicalization and source bounds checks on, and the stored depths must
  equal the depths the wiring implies (one pass, see
  :func:`~repro.circuits.store.depth_issue`);
* template blocks must pass the verifier's provenance pass, or the load
  raises, because the compiled program trusts their wires.

``validate`` (the default) also runs the verifier's structure pass;
``trusted`` skips the structure and provenance passes for payloads whose
integrity is established out of band.  Version 1 files, one JSON list per
gate and no provenance, are still read.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import struct
import tempfile
from typing import List, Union

import numpy as np

from repro.circuits.circuit import ThresholdCircuit
from repro.circuits.store import depth_issue, int_column, validate_csr_sources
from repro.circuits.template import CompiledTemplate, TemplateBlock

__all__ = [
    "circuit_to_dict",
    "circuit_from_dict",
    "dump_circuit",
    "load_circuit",
    "structural_digest",
]

_FORMAT = "repro-threshold-circuit"
_VERSION = 2
#: The dtypes a v2 column may declare, narrowest first.
_COLUMN_DTYPES = ("<i1", "<i2", "<i4", "<i8")


def structural_digest(circuit: ThresholdCircuit) -> str:
    """Hex digest of the circuit's structure (the execution-engine cache key).

    Two circuits share a digest exactly when they compute the same function
    the same way: equal input count, gate list (sources, weights, thresholds)
    and declared outputs.  Presentation-only fields — ``name``, gate tags,
    output labels, ``metadata`` — are deliberately excluded, so re-building
    the same construction under a different label still hits the compile
    cache.

    The digest is computed straight over the columnar arrays (one hash
    update per column, no per-gate loop); circuits holding weights beyond
    int64 fall back to an exact JSON rendering of the same fields.
    """
    cols = circuit.columnar()
    if not cols.int64_ok:
        payload = {
            "format": _FORMAT,
            "n_inputs": circuit.n_inputs,
            "gates": [
                [list(g.sources), list(g.weights), g.threshold]
                for g in circuit.gates
            ],
            "outputs": list(circuit.outputs),
        }
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
    digest = hashlib.sha256()
    digest.update(_FORMAT.encode("utf-8"))
    digest.update(
        struct.pack("<qqq", circuit.n_inputs, cols.n_gates, cols.n_edges)
    )
    # The contiguous arrays are hashed through the buffer protocol: the
    # same bytes as ``tobytes()``, without the copies.
    digest.update(np.ascontiguousarray(cols.offsets))
    digest.update(np.ascontiguousarray(cols.sources))
    digest.update(np.ascontiguousarray(cols.weights))
    digest.update(np.ascontiguousarray(cols.thresholds))
    digest.update(np.asarray(circuit.outputs, dtype=np.int64))
    return digest.hexdigest()


# ----------------------------------------------------------------- columns
def _encode_column(values: np.ndarray):
    """One integer column in its narrowest dtype (exact list past int64)."""
    if values.dtype == object:
        return [int(v) for v in values.tolist()]
    dtype = _COLUMN_DTYPES[-1]
    if values.size:
        low, high = int(values.min()), int(values.max())
        for dtype in _COLUMN_DTYPES:
            info = np.iinfo(np.dtype(dtype))
            if info.min <= low and high <= info.max:
                break
    data = np.ascontiguousarray(values, dtype=dtype)
    return {
        "dtype": dtype,
        "count": int(data.size),
        "data": base64.b64encode(data).decode("ascii"),
    }


def _decode_column(column, name: str, exact: bool = False) -> np.ndarray:
    """Decode one v2 column to int64 (object dtype for an exact list).

    ``exact`` admits the plain-list form weights and thresholds use when a
    value lies beyond int64.
    """
    if exact and isinstance(column, list):
        if not all(type(value) is int for value in column):
            raise ValueError(f"column {name!r}: list entries must be integers")
        values, _ = int_column(column)
        return values
    if not isinstance(column, dict):
        raise ValueError(f"column {name!r} is not an encoded integer column")
    dtype = column.get("dtype")
    if dtype not in _COLUMN_DTYPES:
        raise ValueError(
            f"column {name!r}: dtype {dtype!r} is not one of {_COLUMN_DTYPES}"
        )
    data, count = column.get("data"), column.get("count")
    if not isinstance(data, str) or type(count) is not int or count < 0:
        raise ValueError(f"column {name!r}: malformed data or count")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ValueError(f"column {name!r}: invalid base64 ({exc})") from None
    if len(raw) != count * np.dtype(dtype).itemsize:
        raise ValueError(
            f"column {name!r}: count {count} does not match "
            f"{len(raw)} bytes of {dtype}"
        )
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)


def _csr_columns(table: dict, name: str, depth_key: str):
    """Decode and cross-check one CSR gate table (the store or a template).

    Returns ``(offsets, sources, weights, thresholds, depths)``.
    """
    fan_ins = _decode_column(table.get("fan_ins"), f"{name}.fan_ins")
    sources = _decode_column(table.get("sources"), f"{name}.sources")
    weights = _decode_column(table.get("weights"), f"{name}.weights", exact=True)
    thresholds = _decode_column(
        table.get("thresholds"), f"{name}.thresholds", exact=True
    )
    depths = _decode_column(table.get(depth_key), f"{name}.{depth_key}")
    n_wires = len(sources)
    if fan_ins.size and (
        int(fan_ins.min()) < 0 or int(fan_ins.max()) > n_wires
    ):
        raise ValueError(f"{name}: fan-ins must lie in [0, {n_wires}]")
    if int(fan_ins.sum()) != n_wires:
        raise ValueError(
            f"{name}: fan-ins sum to {int(fan_ins.sum())}, "
            f"but {n_wires} sources are stored"
        )
    if len(weights) != n_wires:
        raise ValueError(f"{name}: {n_wires} sources but {len(weights)} weights")
    if not len(thresholds) == len(depths) == len(fan_ins):
        raise ValueError(
            f"{name}: {len(fan_ins)} gates but {len(thresholds)} thresholds "
            f"and {len(depths)} depths"
        )
    offsets = np.zeros(len(fan_ins) + 1, dtype=np.int64)
    np.cumsum(fan_ins, out=offsets[1:])
    return offsets, sources, weights, thresholds, depths


# ------------------------------------------------------------------ writer
def _provenance_to_dict(circuit: ThresholdCircuit):
    """``(templates, blocks)`` payload: templates deduplicated by identity."""
    index = {}
    templates = []
    template_of_block = []
    for block in circuit.template_blocks:
        template = block.template
        if id(template) not in index:
            index[id(template)] = len(templates)
            templates.append(
                {
                    "n_params": int(template.n_params),
                    "fan_ins": _encode_column(np.diff(template.offsets)),
                    "sources": _encode_column(template.sources),
                    "weights": _encode_column(template.weights),
                    "thresholds": _encode_column(template.thresholds),
                    "rel_depths": _encode_column(template.rel_depths),
                }
            )
        template_of_block.append(index[id(template)])
    blocks = circuit.template_blocks
    params = [np.asarray(block.params, dtype=np.int64).reshape(-1) for block in blocks]
    return templates, {
        "template": _encode_column(np.asarray(template_of_block, dtype=np.int64)),
        "base": _encode_column(
            np.asarray([int(block.base) for block in blocks], dtype=np.int64)
        ),
        "k": _encode_column(np.asarray([block.k for block in blocks], dtype=np.int64)),
        "params": _encode_column(
            np.concatenate(params) if params else np.empty(0, dtype=np.int64)
        ),
    }


def circuit_to_dict(circuit: ThresholdCircuit) -> dict:
    """Convert a circuit to a JSON-compatible dictionary (format version 2).

    Each store column becomes one base64 blob, so no per-gate objects are
    built, and the template provenance travels with the gates.
    """
    cols = circuit.columnar()
    templates, blocks = _provenance_to_dict(circuit)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "name": circuit.name,
        "n_inputs": circuit.n_inputs,
        "gates": {
            "fan_ins": _encode_column(cols.fan_ins()),
            "sources": _encode_column(cols.sources),
            "weights": _encode_column(cols.weights),
            "thresholds": _encode_column(cols.thresholds),
            "depths": _encode_column(circuit.gate_depths()),
            "tags": _encode_column(cols.tag_codes),
        },
        "tag_table": circuit.store.tag_table(),
        "outputs": _encode_column(np.asarray(circuit.outputs, dtype=np.int64)),
        "output_labels": list(circuit.output_labels),
        "metadata": dict(circuit.metadata),
        "templates": templates,
        "blocks": blocks,
    }


# ------------------------------------------------------------------ reader
def circuit_from_dict(
    payload: dict, *, validate: bool = True, trusted: bool = False
) -> ThresholdCircuit:
    """Reconstruct a circuit from :func:`circuit_to_dict` output (v1 or v2).

    The gates are appended with one bulk
    :meth:`~repro.circuits.circuit.ThresholdCircuit.add_gates` call
    (canonicalization enabled, so hand-written payloads with duplicate
    sources load the same way they would through ``add_gate``).  A v2
    payload's input checks (see the module docstring) always run.

    By default the reconstructed circuit is statically verified (structure
    and template provenance — the cheap passes) before it is returned, so a
    hand-edited or corrupted payload fails at the load site with a
    :class:`~repro.statics.verifier.StaticVerificationError` instead of
    deep inside a compile.  Pass ``validate=False`` to skip the structure
    pass (e.g. when the caller runs the full verifier anyway); a v2
    payload's template blocks are still checked, because the compiled
    program trusts their wires.

    ``trusted=True`` skips both passes, but says *why*: the payload's
    integrity was already established out of band (the disk artifact store
    checksums every bundled file before touching it), so re-validating here
    would be pure double work.  Reserve it for paths with such a guarantee,
    or that run the verifier on the result themselves (``repro verify``);
    user-supplied files should keep the ``validate=True`` default.
    """
    if payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} payload")
    version = payload.get("version")
    if version == 1:
        return _circuit_from_v1(payload, validate, trusted)
    if version == _VERSION:
        return _circuit_from_v2(payload, validate, trusted)
    raise ValueError(f"unsupported version {version!r}")


def _target(payload: dict) -> str:
    return payload.get("name") or "<deserialized circuit>"


def _verify_structure(circuit: ThresholdCircuit, payload: dict) -> None:
    """The verifier's structure and provenance passes; raises on an issue."""
    # Imported lazily: repro.statics depends on the simulator, which
    # imports this package.
    from repro.statics import verify_circuit

    verify_circuit(
        circuit,
        intervals=False,
        reachability=False,
        plans=False,
        target=_target(payload),
    ).raise_if_failed()


def _circuit_from_v1(payload: dict, validate: bool, trusted: bool) -> ThresholdCircuit:
    """Version 1: one ``[sources, weights, threshold, tag]`` list per gate."""
    circuit = ThresholdCircuit(int(payload["n_inputs"]), name=payload.get("name", ""))
    gates = payload["gates"]
    if gates:
        sources: List[int] = []
        weights: List[int] = []
        offsets: List[int] = [0]
        thresholds: List[int] = []
        tags: List[str] = []
        for gate_sources, gate_weights, threshold, tag in gates:
            sources.extend(gate_sources)
            weights.extend(gate_weights)
            offsets.append(len(sources))
            thresholds.append(int(threshold))
            tags.append(tag)
        circuit.add_gates(
            np.asarray(sources, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
            weights,
            thresholds,
            tags=tags,
        )
    if payload.get("outputs"):
        circuit.set_outputs(payload["outputs"], payload.get("output_labels") or None)
    circuit.metadata = dict(payload.get("metadata", {}))
    if validate and not trusted:
        _verify_structure(circuit, payload)
    return circuit


def _circuit_from_v2(payload: dict, validate: bool, trusted: bool) -> ThresholdCircuit:
    """Version 2: columnar store plus template provenance."""
    n_inputs = int(payload["n_inputs"])
    circuit = ThresholdCircuit(n_inputs, name=payload.get("name", ""))
    gates = payload.get("gates")
    if not isinstance(gates, dict):
        raise ValueError("v2 payload has no gate columns")
    offsets, sources, weights, thresholds, depths = _csr_columns(
        gates, "gates", "depths"
    )
    tag_codes = _decode_column(gates.get("tags"), "gates.tags")
    tag_table = payload.get("tag_table")
    if not isinstance(tag_table, list) or not all(
        isinstance(tag, str) for tag in tag_table
    ):
        raise ValueError("tag_table must be a list of strings")
    if len(tag_codes) != len(depths):
        raise ValueError(f"{len(depths)} gates but {len(tag_codes)} tag codes")
    if tag_codes.size and (
        int(tag_codes.min()) < 0 or int(tag_codes.max()) >= len(tag_table)
    ):
        raise ValueError(
            f"tag codes must index the {len(tag_table)}-entry tag table"
        )
    if len(depths):
        intern = circuit.store.intern_tag
        codes = np.asarray([intern(tag) for tag in tag_table], dtype=np.int32)
        circuit.add_gates(
            sources,
            offsets,
            weights,
            thresholds,
            tags=codes[tag_codes],
            canonicalize=True,
            validate=True,
            depths=depths,
        )
        cols = circuit.columnar()
        issue = depth_issue(n_inputs, cols.sources, cols.offsets, depths)
        if issue is not None:
            raise ValueError(f"stored depths disagree with the wiring: {issue}")
    outputs = _decode_column(payload.get("outputs"), "outputs")
    if len(outputs):
        circuit.set_outputs(outputs.tolist(), payload.get("output_labels") or None)
    circuit.metadata = dict(payload.get("metadata", {}))

    circuit.template_blocks = _blocks_from_dict(payload)
    if not trusted:
        if validate:
            _verify_structure(circuit, payload)
        elif circuit.template_blocks:
            # The compiled program trusts template wires, so the blocks are
            # checked even without validation; on a failure the circuit
            # never reaches the caller.
            from repro.statics import StaticReport, provenance_issues

            StaticReport(
                target=_target(payload), issues=provenance_issues(circuit)
            ).raise_if_failed()
    return circuit


def _blocks_from_dict(payload: dict) -> List[TemplateBlock]:
    """Rebuild the template blocks; every block of one template shares it."""
    entries = payload.get("templates", [])
    table = payload.get("blocks")
    if table is None:
        return []
    if not isinstance(entries, list) or not isinstance(table, dict):
        raise ValueError("templates must be a list and blocks a column table")
    templates = []
    for i, entry in enumerate(entries):
        name = f"templates[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{name} is not an object")
        n_params = entry.get("n_params")
        if type(n_params) is not int or n_params < 0:
            raise ValueError(f"{name}: n_params must be a non-negative integer")
        offsets, sources, weights, thresholds, rel_depths = _csr_columns(
            entry, name, "rel_depths"
        )
        fan_ins = np.diff(offsets)
        rows = np.repeat(np.arange(len(fan_ins), dtype=np.int64), fan_ins)
        validate_csr_sources(sources, offsets, fan_ins, n_params, rows)
        issue = depth_issue(n_params, sources, offsets, rel_depths, "local gate")
        if issue is not None:
            raise ValueError(f"{name}: relative depths disagree: {issue}")
        templates.append(
            CompiledTemplate(n_params, sources, offsets, weights, thresholds, rel_depths)
        )
    index = _decode_column(table.get("template"), "blocks.template")
    bases = _decode_column(table.get("base"), "blocks.base")
    copies = _decode_column(table.get("k"), "blocks.k")
    params = _decode_column(table.get("params"), "blocks.params")
    if not len(index) == len(bases) == len(copies):
        raise ValueError("block columns template, base and k differ in length")
    if index.size and (int(index.min()) < 0 or int(index.max()) >= len(templates)):
        raise ValueError(
            f"block template indices must lie in [0, {len(templates)})"
        )
    if copies.size and int(copies.min()) < 0:
        raise ValueError("block copy counts must be non-negative")
    widths = np.asarray([t.n_params for t in templates], dtype=np.int64)[index]
    ends = np.cumsum(copies * widths)
    if (int(ends[-1]) if ends.size else 0) != len(params):
        raise ValueError(
            f"blocks need {int(ends[-1]) if ends.size else 0} parameter "
            f"entries but {len(params)} are stored"
        )
    starts = ends - copies * widths
    return [
        TemplateBlock(
            templates[t], base, params[start:end].reshape(k, templates[t].n_params)
        )
        for t, base, k, start, end in zip(
            index.tolist(), bases.tolist(), copies.tolist(),
            starts.tolist(), ends.tolist(),
        )
    ]


# -------------------------------------------------------------------- files
def dump_circuit(circuit: ThresholdCircuit, path_or_file: Union[str, "object"]) -> None:
    """Serialize a circuit to a JSON file (path or open file object).

    Writing to a path is atomic: the JSON is staged in a temp file beside
    the target and published with ``os.replace``, so an interrupted dump
    (crash, full disk, ^C) leaves the previous file intact instead of a
    truncated payload that a later :func:`load_circuit` would misreport as
    a corrupt circuit.
    """
    payload = circuit_to_dict(circuit)
    if not isinstance(path_or_file, str):
        json.dump(payload, path_or_file)
        return
    target = os.path.abspath(path_or_file)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp",
        dir=os.path.dirname(target),
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_circuit(
    path_or_file: Union[str, "object"], *, validate: bool = True, trusted: bool = False
) -> ThresholdCircuit:
    """Load a circuit previously written by :func:`dump_circuit`.

    ``validate``/``trusted`` are forwarded to :func:`circuit_from_dict`: by
    default the loaded circuit passes static structure/provenance
    verification; ``trusted=True`` is the checksummed-artifact fast path.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.load(path_or_file)
    return circuit_from_dict(payload, validate=validate, trusted=trusted)

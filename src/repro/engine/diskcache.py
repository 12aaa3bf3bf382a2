"""Disk-backed compile-artifact store: cold-start elimination for the engine.

Compiled programs (any backend) are picklable —
the evaluation service already ships them to workers — but they die with
the process, so every restart and every new host re-pays the full compile.
This module persists them under a directory keyed by
``(structural_hash, backend, artifact_version)`` so a later process (or a
freshly-spawned service worker) restores in milliseconds what originally
took seconds to compile.

Two properties make the store safe to share between unrelated processes:

* **Atomic publication.**  An artifact is staged as a sibling
  ``.tmp-*`` directory and published with a single ``os.replace``.  A
  crashed writer leaves only ``.tmp-*`` litter (swept by :meth:`prune`
  and at store construction); a concurrent writer loses the rename race
  with ``ENOTEMPTY`` and discards its own staging directory.  Torn state
  can therefore only ever exist under a temp name no reader looks at.

* **Checksummed reads.**  ``meta.json`` records the artifact version and
  a SHA-256 per payload file; :meth:`get` re-verifies all of them before
  unpickling anything.  A stale, truncated or tampered artifact is
  rejected (and deleted) rather than trusted — the process then simply
  recompiles and republishes.

Large arrays inside a program (layer matrices, CSR index arrays, template
parameter rows) are externalized to ``.npy`` files via
``numpy.lib.format.open_memmap`` and restored with ``mmap_mode="r"``, so a
restore costs a small pickle plus page-cache-backed maps instead of a full
deserialization — and workers on the same host share the pages.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.format import open_memmap

from repro.obs import get_registry

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactEntry",
    "ArtifactStoreStats",
    "DiskArtifactStore",
    "default_artifact_dir",
]

#: Bump when the on-disk artifact layout, or the class or layout of a
#: pickled program (anything that would make an old pickle unsafe to trust),
#: changes; old artifacts become invisible.
ARTIFACT_VERSION = 2

_META_FORMAT = "repro-compiled-artifact"
_META_NAME = "meta.json"
_PROGRAM_NAME = "program.pkl"
_CIRCUIT_NAME = "circuit.json"
_PACK_NAME = "pack.bin"
_TMP_PREFIX = ".tmp-"
#: Arrays at least this large get their own ``.npy`` memmap file; smaller
#: ones are packed together into one sidecar (a template program carries
#: thousands of kilobyte-sized parameter rows — pickling them inline made
#: the restore-time unpickle the dominant cost).
_SPILL_MIN_BYTES = 4096
#: Pack-file entries are aligned so restored views satisfy any dtype.
_PACK_ALIGN = 64
#: Staging directories older than this are presumed abandoned by a crashed
#: writer and are swept; young ones may belong to a live concurrent writer.
_TMP_SWEEP_AGE_S = 3600.0


def default_artifact_dir() -> str:
    """The artifact directory used when the config leaves it unset.

    ``REPRO_ARTIFACT_DIR`` overrides; otherwise a per-user cache directory.
    """
    env = os.environ.get("REPRO_ARTIFACT_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "artifacts")


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _SpillingPickler(pickle.Pickler):
    """Pickler that externalizes arrays out of the program pickle.

    Arrays of ``_SPILL_MIN_BYTES`` and up each get their own ``.npy`` file
    (restored as an independent memmap); smaller ones are packed, aligned,
    into one ``pack.bin`` sidecar and restored as zero-copy views of a
    single shared map — a template program carries thousands of small
    parameter rows, and unpickling them inline dominated restore latency.

    Shared arrays (the same ndarray object referenced from several
    segments) spill once and restore as one shared object — ``persistent_id``
    is consulted *before* the pickle memo, so the dedup map here is what
    preserves sharing across the spill.
    """

    def __init__(self, file: io.BufferedIOBase, directory: str) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._directory = directory
        self._spilled: Dict[int, Tuple[Tuple[Any, ...], Any]] = {}
        self._pack = io.BytesIO()
        self._packed = False
        self.array_names: List[str] = []

    def persistent_id(self, obj: Any) -> Optional[Tuple[Any, ...]]:
        if (
            not isinstance(obj, np.ndarray)
            or obj.dtype.hasobject
            or obj.nbytes == 0
        ):
            return None
        cached = self._spilled.get(id(obj))
        if cached is not None:
            return cached[0]
        pid: Tuple[Any, ...]
        if obj.nbytes >= _SPILL_MIN_BYTES:
            name = f"{len(self.array_names)}.npy"
            out = open_memmap(
                os.path.join(self._directory, name),
                mode="w+",
                dtype=obj.dtype,
                shape=obj.shape,
            )
            out[...] = obj
            out.flush()
            del out
            self.array_names.append(name)
            pid = ("npy", name)
        elif type(obj) is np.ndarray:
            order = (
                "F"
                if obj.flags.f_contiguous and not obj.flags.c_contiguous
                else "C"
            )
            self._pack.write(b"\0" * (-self._pack.tell() % _PACK_ALIGN))
            offset = self._pack.tell()
            self._pack.write(obj.tobytes(order=order))
            # The full descriptor rides inside the pid (and hence inside
            # the checksummed pickle): restore needs no manifest file.
            pid = ("pack", obj.dtype.str, obj.shape, offset, order)
            self._packed = True
        else:
            return None  # exotic ndarray subclass: let pickle handle it
        # Keep a reference alongside the pid: id() keys are only stable
        # while the object is alive.
        self._spilled[id(obj)] = (pid, obj)
        return pid

    def flush_pack(self) -> List[str]:
        """Write the small-array pack (if any); the file names written."""
        if not self._packed:
            return []
        pack_path = os.path.join(self._directory, _PACK_NAME)
        with open(pack_path, "wb") as handle:
            handle.write(self._pack.getbuffer())
            handle.flush()
            os.fsync(handle.fileno())
        return [_PACK_NAME]


class _RestoringUnpickler(pickle.Unpickler):
    """Unpickler that maps externalized arrays back in read-only."""

    def __init__(self, file: io.BufferedIOBase, directory: str) -> None:
        super().__init__(file)
        self._directory = directory
        self._loaded: Dict[Tuple[Any, ...], np.ndarray] = {}
        self._pack: Optional[np.memmap] = None
        self._dtypes: Dict[str, np.dtype] = {}

    def persistent_load(self, pid: Any) -> np.ndarray:
        # Hot path: a template program references thousands of packed
        # parameter rows, so this runs per reference — keep it tight.
        # Pack views are not identity-memoized: a doubly-referenced array
        # restores as two read-only views of the same map bytes, so the
        # data sharing (the part that matters) survives without paying a
        # dict round-trip on every one of those thousands of loads.
        if not isinstance(pid, tuple) or not pid:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        tag = pid[0]
        if tag == "pack" and len(pid) == 5:
            _, dtype_str, shape, offset, order = pid
            pack = self._pack
            if pack is None:
                pack = self._pack = np.memmap(
                    os.path.join(self._directory, _PACK_NAME),
                    dtype=np.uint8,
                    mode="r",
                )
            dtype = self._dtypes.get(dtype_str)
            if dtype is None:
                dtype = self._dtypes[dtype_str] = np.dtype(dtype_str)
            try:
                return np.ndarray(
                    shape, dtype=dtype, buffer=pack, offset=offset, order=order
                )
            except (TypeError, ValueError) as exc:
                raise pickle.UnpicklingError(
                    f"bad pack reference {pid!r}"
                ) from exc
        if tag == "npy" and len(pid) == 2:
            array = self._loaded.get(pid)
            if array is None:
                array = np.load(
                    os.path.join(self._directory, pid[1]),
                    mmap_mode="r",
                    allow_pickle=False,
                )
                self._loaded[pid] = array
            return array
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


@dataclass(frozen=True)
class ArtifactEntry:
    """One published artifact, as listed by :meth:`DiskArtifactStore.entries`."""

    structural_hash: str
    backend: str
    version: int
    path: str
    bytes: int
    mtime: float
    has_circuit: bool

    def as_dict(self) -> dict:
        return {
            "structural_hash": self.structural_hash,
            "backend": self.backend,
            "version": self.version,
            "bytes": self.bytes,
            "mtime": self.mtime,
            "has_circuit": self.has_circuit,
        }


@dataclass(frozen=True)
class ArtifactStoreStats:
    """Aggregate view of the on-disk store (for ``repro cache stats``)."""

    directory: str
    artifacts: int
    total_bytes: int
    tmp_dirs: int
    max_bytes: Optional[int]

    def as_dict(self) -> dict:
        return {
            "directory": self.directory,
            "artifacts": self.artifacts,
            "total_bytes": self.total_bytes,
            "tmp_dirs": self.tmp_dirs,
            "max_bytes": self.max_bytes,
        }


class DiskArtifactStore:
    """Crash-safe on-disk cache of compiled programs, keyed by
    ``(structural_hash, backend, artifact_version)``.

    ``max_bytes`` caps the store: after each :meth:`put` the
    oldest-``mtime`` artifacts are pruned until the total payload fits
    (reads refresh ``mtime``, so pruning is LRU).  ``fault_plan`` threads
    the test-only crash hook through (see
    :class:`~repro.engine.faults.FaultPlan.artifact_crash_writes`).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
        fault_plan: Optional[object] = None,
        sweep: bool = True,
    ) -> None:
        self.directory = os.path.abspath(directory or default_artifact_dir())
        self.max_bytes = max_bytes
        self._fault_plan = fault_plan
        self._crash_writes_left = int(
            getattr(fault_plan, "artifact_crash_writes", 0) or 0
        )
        os.makedirs(self.directory, exist_ok=True)
        if sweep:
            self.sweep_tmp()

    # ------------------------------------------------------------- key layout
    @staticmethod
    def _dir_name(structural_hash: str, backend: str) -> str:
        return f"{backend}-{structural_hash}-v{ARTIFACT_VERSION}"

    def _path_for(self, structural_hash: str, backend: str) -> str:
        return os.path.join(self.directory, self._dir_name(structural_hash, backend))

    def contains(self, structural_hash: str, backend: str) -> bool:
        """Whether a published artifact exists (no integrity check)."""
        return os.path.isfile(
            os.path.join(self._path_for(structural_hash, backend), _META_NAME)
        )

    # ------------------------------------------------------------------- put
    def put(
        self,
        structural_hash: str,
        backend: str,
        program: object,
        *,
        circuit: Optional[object] = None,
    ) -> bool:
        """Publish a compiled program; returns False if already present.

        The artifact is staged in a sibling temp directory and published
        with one ``os.replace``, so readers never observe a partial write
        and a concurrent writer of the same key simply loses the rename
        race.  ``circuit`` optionally bundles the source circuit JSON
        (used by ``repro cache warm`` to recompile for other backends).
        """
        final = self._path_for(structural_hash, backend)
        if os.path.isfile(os.path.join(final, _META_NAME)):
            return False
        registry = get_registry()
        start = time.perf_counter()
        tmpdir = tempfile.mkdtemp(prefix=_TMP_PREFIX, dir=self.directory)
        try:
            files: Dict[str, Dict[str, object]] = {}
            program_path = os.path.join(tmpdir, _PROGRAM_NAME)
            with open(program_path, "wb") as handle:
                pickler = _SpillingPickler(handle, tmpdir)
                pickler.dump(program)
                handle.flush()
                os.fsync(handle.fileno())
            names = [_PROGRAM_NAME] + pickler.array_names + pickler.flush_pack()
            if circuit is not None:
                from repro.circuits.serialize import circuit_to_dict

                circuit_path = os.path.join(tmpdir, _CIRCUIT_NAME)
                with open(circuit_path, "w", encoding="utf-8") as chandle:
                    json.dump(circuit_to_dict(circuit), chandle)
                names.append(_CIRCUIT_NAME)
            total = 0
            for name in names:
                path = os.path.join(tmpdir, name)
                size = os.path.getsize(path)
                total += size
                files[name] = {"sha256": _sha256_file(path), "bytes": size}
            meta = {
                "format": _META_FORMAT,
                "artifact_version": ARTIFACT_VERSION,
                "structural_hash": structural_hash,
                "backend": backend,
                "program_type": type(program).__name__,
                "payload_bytes": total,
                "files": files,
            }
            meta_path = os.path.join(tmpdir, _META_NAME)
            with open(meta_path, "w", encoding="utf-8") as mhandle:
                json.dump(meta, mhandle, indent=1, sort_keys=True)
                mhandle.flush()
                os.fsync(mhandle.fileno())
            if self._crash_writes_left > 0:
                # Fault-injection hook (tests only): die like a crashed
                # writer would — artifact fully staged but never published.
                self._crash_writes_left -= 1
                os._exit(3)
            try:
                os.replace(tmpdir, final)
            except OSError:
                # ENOTEMPTY/EEXIST: a concurrent writer published first.
                # Their artifact is bit-identical by construction (same
                # key covers the same program); discard ours.
                shutil.rmtree(tmpdir, ignore_errors=True)
                return False
        except BaseException:
            shutil.rmtree(tmpdir, ignore_errors=True)
            raise
        if registry.enabled:
            registry.counter("diskcache.spills", backend=backend).inc()
            registry.histogram("diskcache.spill_s", backend=backend).observe(
                time.perf_counter() - start
            )
        if self.max_bytes is not None:
            self.prune(max_bytes=self.max_bytes)
        return True

    # ------------------------------------------------------------------- get
    def _load_meta(
        self, path: str, structural_hash: str, backend: str
    ) -> Optional[dict]:
        """The artifact's metadata if it matches the key and layout, else
        None.  Structural checks only — no payload bytes are hashed here."""
        meta_path = os.path.join(path, _META_NAME)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            meta.get("format") != _META_FORMAT
            or meta.get("artifact_version") != ARTIFACT_VERSION
            or meta.get("structural_hash") != structural_hash
            or meta.get("backend") != backend
        ):
            return None
        files = meta.get("files")
        if not isinstance(files, dict) or _PROGRAM_NAME not in files:
            return None
        return meta

    def _file_ok(self, path: str, name: str, info: object) -> bool:
        """Whether one payload file matches its recorded size and digest."""
        if not isinstance(info, dict):
            return False
        file_path = os.path.join(path, name)
        try:
            if os.path.getsize(file_path) != info.get("bytes"):
                return False
            return _sha256_file(file_path) == info.get("sha256")
        except OSError:
            return False

    def _verify(self, path: str, structural_hash: str, backend: str) -> Optional[dict]:
        """The artifact's metadata if it is intact and current, else None."""
        meta = self._load_meta(path, structural_hash, backend)
        if meta is None:
            return None
        for name, info in meta["files"].items():
            if not self._file_ok(path, name, info):
                return None
        return meta

    def get(self, structural_hash: str, backend: str) -> Optional[object]:
        """Restore a program, or None on miss / failed integrity check.

        Success refreshes the artifact's ``mtime`` (the LRU clock pruning
        uses).  An artifact that fails verification is deleted so the
        caller's recompile can republish a good one.

        The checksum pass over the array sidecars runs concurrently with
        the unpickle (hashlib releases the GIL, so the overlap is real).
        That is safe because ordering is preserved where it matters: the
        program pickle — the one payload whose bytes *drive execution*
        when loaded — is fully verified before the unpickler touches it,
        while the sidecars are inert array bytes that the unpickler only
        maps.  The program is returned to the caller only after every
        sidecar digest has been confirmed.
        """
        registry = get_registry()
        path = self._path_for(structural_hash, backend)
        if not os.path.isfile(os.path.join(path, _META_NAME)):
            if registry.enabled:
                registry.counter("diskcache.misses", backend=backend).inc()
            return None
        start = time.perf_counter()

        def _reject() -> None:
            if registry.enabled:
                registry.counter("diskcache.rejected", backend=backend).inc()
            shutil.rmtree(path, ignore_errors=True)

        meta = self._load_meta(path, structural_hash, backend)
        if meta is None or not self._file_ok(
            path, _PROGRAM_NAME, meta["files"][_PROGRAM_NAME]
        ):
            _reject()
            return None
        sidecars = [
            (name, info)
            for name, info in meta["files"].items()
            if name != _PROGRAM_NAME
        ]
        sidecars_ok: List[bool] = []
        checker = threading.Thread(
            target=lambda: sidecars_ok.append(
                all(self._file_ok(path, name, info) for name, info in sidecars)
            ),
            daemon=True,
        )
        checker.start()
        try:
            with open(os.path.join(path, _PROGRAM_NAME), "rb") as handle:
                program = _RestoringUnpickler(handle, path).load()
        except (OSError, pickle.UnpicklingError, AttributeError, ImportError):
            checker.join()
            _reject()
            return None
        checker.join()
        if not (sidecars_ok and sidecars_ok[0]):
            _reject()
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        if registry.enabled:
            registry.counter("diskcache.hits", backend=backend).inc()
            registry.histogram("diskcache.restore_s", backend=backend).observe(
                time.perf_counter() - start
            )
        return program

    def get_circuit(self, structural_hash: str, backend: str) -> Optional[object]:
        """The bundled source circuit, if the artifact carries one.

        The checksum pass above already established byte integrity, so the
        circuit loads through the *trusted* fast path — re-running the
        structural verifier here would be the double validation this store
        exists to avoid.
        """
        path = self._path_for(structural_hash, backend)
        if self._verify(path, structural_hash, backend) is None:
            return None
        circuit_path = os.path.join(path, _CIRCUIT_NAME)
        if not os.path.isfile(circuit_path):
            return None
        from repro.circuits.serialize import load_circuit

        return load_circuit(circuit_path, trusted=True)

    # ---------------------------------------------------------------- listing
    def entries(self) -> List[ArtifactEntry]:
        """Every published artifact, oldest ``mtime`` first."""
        out: List[ArtifactEntry] = []
        try:
            listing = os.scandir(self.directory)
        except OSError:
            return out
        with listing:
            for entry in listing:
                if not entry.is_dir() or entry.name.startswith(_TMP_PREFIX):
                    continue
                meta_path = os.path.join(entry.path, _META_NAME)
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                    mtime = entry.stat().st_mtime
                except (OSError, ValueError):
                    continue
                out.append(
                    ArtifactEntry(
                        structural_hash=str(meta.get("structural_hash", "")),
                        backend=str(meta.get("backend", "")),
                        version=int(meta.get("artifact_version", -1)),
                        path=entry.path,
                        bytes=int(meta.get("payload_bytes", 0)),
                        mtime=mtime,
                        has_circuit=_CIRCUIT_NAME in (meta.get("files") or {}),
                    )
                )
        out.sort(key=lambda e: e.mtime)
        return out

    def stats(self) -> ArtifactStoreStats:
        """Counts and byte totals for the store directory."""
        entries = self.entries()
        tmp_dirs = 0
        try:
            with os.scandir(self.directory) as listing:
                for entry in listing:
                    if entry.is_dir() and entry.name.startswith(_TMP_PREFIX):
                        tmp_dirs += 1
        except OSError:
            pass
        return ArtifactStoreStats(
            directory=self.directory,
            artifacts=len(entries),
            total_bytes=sum(e.bytes for e in entries),
            tmp_dirs=tmp_dirs,
            max_bytes=self.max_bytes,
        )

    # ---------------------------------------------------------------- pruning
    def sweep_tmp(self, max_age_s: float = _TMP_SWEEP_AGE_S) -> int:
        """Remove abandoned ``.tmp-*`` staging directories; returns count.

        Only directories older than ``max_age_s`` go — a younger one may
        belong to a writer that is still staging.
        """
        removed = 0
        now = time.time()
        try:
            listing = os.scandir(self.directory)
        except OSError:
            return 0
        with listing:
            for entry in listing:
                if not entry.is_dir() or not entry.name.startswith(_TMP_PREFIX):
                    continue
                try:
                    age = now - entry.stat().st_mtime
                except OSError:
                    continue
                if age >= max_age_s:
                    shutil.rmtree(entry.path, ignore_errors=True)
                    removed += 1
        return removed

    def prune(
        self,
        max_bytes: Optional[int] = None,
        *,
        tmp_max_age_s: float = _TMP_SWEEP_AGE_S,
    ) -> dict:
        """Sweep stale temp dirs, then evict oldest artifacts over the cap.

        ``max_bytes=None`` only sweeps.  Returns a summary dict (counts and
        resulting size) for the CLI.
        """
        swept = self.sweep_tmp(tmp_max_age_s)
        removed = 0
        entries = self.entries()
        total = sum(e.bytes for e in entries)
        if max_bytes is not None:
            registry = get_registry()
            for entry in entries:  # oldest mtime first
                if total <= max_bytes:
                    break
                shutil.rmtree(entry.path, ignore_errors=True)
                total -= entry.bytes
                removed += 1
                if registry.enabled:
                    registry.counter("diskcache.pruned", backend=entry.backend).inc()
        return {
            "tmp_swept": swept,
            "artifacts_removed": removed,
            "artifacts_left": len(entries) - removed,
            "total_bytes": total,
        }

    def clear(self) -> int:
        """Delete every artifact (and temp dir); returns how many went."""
        removed = 0
        try:
            listing = os.scandir(self.directory)
        except OSError:
            return 0
        with listing:
            for entry in listing:
                if entry.is_dir():
                    shutil.rmtree(entry.path, ignore_errors=True)
                    removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskArtifactStore({self.directory!r}, max_bytes={self.max_bytes!r})"
        )

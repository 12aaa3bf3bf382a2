"""Tests for the persistent on-disk compile-artifact cache.

The contract under test: a restored artifact is indistinguishable from a
fresh compile (INV-8).  Everything here pins one side of that — spill and
restore are bit-identical across backends, torn or tampered artifacts are
rejected rather than trusted, crashed writers leave only ``.tmp-*`` litter
that pruning sweeps, and an engine pointed at a warm store compiles
nothing at all.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.builder import CircuitBuilder
from repro.engine import (
    ARTIFACT_VERSION,
    DiskArtifactStore,
    Engine,
    EngineConfig,
    same_run,
)

SRC = Path(__file__).parent.parent / "src"

BACKENDS = ("sparse", "dense", "exact")


def parity_circuit(n_bits, name="parity"):
    builder = CircuitBuilder(name=f"{name}{n_bits}")
    inputs = builder.allocate_inputs(n_bits)
    at_least = [builder.add_gate(inputs, [1] * n_bits, k) for k in range(1, n_bits + 1)]
    weights = [1 if k % 2 == 1 else -1 for k in range(1, n_bits + 1)]
    out = builder.add_gate(at_least, weights, 1)
    builder.set_outputs([out], ["parity"])
    return builder.build()


def prefix_or_circuit(n_bits):
    """One OR gate per input prefix: no two rows are equal, so every gate
    keeps its own weighted sum and the program's weight arrays grow with
    the wires (a parity ladder shares one sum per layer)."""
    builder = CircuitBuilder(name=f"prefix-or{n_bits}")
    inputs = builder.allocate_inputs(n_bits)
    gates = [builder.add_gate(inputs[:k], [1] * k, 1) for k in range(1, n_bits + 1)]
    builder.set_outputs(gates)
    return builder.build()


class _SharedArrayProgram:
    """Module-level (hence picklable) program with two views of one array."""

    backend_name = "shared"
    n_inputs = 1
    n_nodes = 1
    outputs = [0]

    def __init__(self):
        self.first = np.arange(4096, dtype=np.int64)  # 32 KiB: own .npy file
        self.second = self.first  # same object: must spill once
        self.small = np.arange(8, dtype=np.int64)  # 64 B: packed sidecar
        self.small_again = self.small  # same object: one pack entry
        self.fortran = np.asfortranarray(
            np.arange(12, dtype=np.int32).reshape(3, 4)
        )


@pytest.fixture
def store(tmp_path):
    return DiskArtifactStore(str(tmp_path / "artifacts"))


def _compile(circuit, backend):
    with Engine(EngineConfig(backend=backend)) as engine:
        return engine.compile(circuit)


class TestSpillRestore:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restored_programs_bit_identical_all_backends(self, store, rng, backend):
        # 40 bits puts the CSR index arrays over the externalization
        # threshold, so the memmap path is exercised, not just the pickle.
        circuit = parity_circuit(40)
        program = _compile(circuit, backend)
        key_hash = circuit.structural_hash()
        assert store.put(key_hash, backend, program) is True
        restored = store.get(key_hash, backend)
        assert restored is not None
        assert type(restored) is type(program)
        batch = rng.integers(0, 2, size=(40, 17))
        for keep_nodes in (False, True):
            fresh = program.run(batch, keep_nodes)
            again = restored.run(batch, keep_nodes)
            assert same_run(again, fresh)

    def test_put_existing_key_is_a_noop(self, store):
        circuit = parity_circuit(5)
        program = _compile(circuit, "sparse")
        key_hash = circuit.structural_hash()
        assert store.put(key_hash, "sparse", program) is True
        assert store.put(key_hash, "sparse", program) is False
        assert store.stats().artifacts == 1

    def test_arrays_externalized_and_sharing_preserved(self, store):
        assert store.put("h" * 8, "shared", _SharedArrayProgram()) is True
        (entry,) = store.entries()
        names = sorted(os.listdir(entry.path))
        # One .npy for the one distinct large array; the small arrays land
        # in the packed sidecar, not inline in the pickle.
        assert names == ["0.npy", "meta.json", "pack.bin", "program.pkl"]
        restored = store.get("h" * 8, "shared")
        assert restored.first is restored.second  # sharing survived the spill
        assert isinstance(restored.first, np.memmap)
        assert np.array_equal(restored.first, np.arange(4096, dtype=np.int64))
        # Packed arrays restore as views of one shared map: the two
        # references may be distinct view objects, but they are backed by
        # the same bytes of the same map (no data duplication).
        assert restored.small.base is restored.small_again.base
        assert restored.small.__array_interface__ == (
            restored.small_again.__array_interface__
        )
        assert np.array_equal(restored.small, np.arange(8, dtype=np.int64))
        assert restored.fortran.flags.f_contiguous  # layout round-trips
        assert np.array_equal(
            restored.fortran, np.arange(12, dtype=np.int32).reshape(3, 4)
        )

    def test_contains_entries_and_stats(self, store):
        assert not store.contains("nope", "sparse")
        circuit = parity_circuit(4)
        program = _compile(circuit, "sparse")
        key_hash = circuit.structural_hash()
        store.put(key_hash, "sparse", program, circuit=circuit)
        assert store.contains(key_hash, "sparse")
        (entry,) = store.entries()
        assert entry.structural_hash == key_hash
        assert entry.backend == "sparse"
        assert entry.version == ARTIFACT_VERSION
        assert entry.has_circuit
        stats = store.stats()
        assert stats.artifacts == 1
        assert stats.total_bytes == entry.bytes > 0
        assert stats.tmp_dirs == 0

    def test_bundled_circuit_restores_equivalent(self, store, rng):
        circuit = parity_circuit(6)
        program = _compile(circuit, "sparse")
        key_hash = circuit.structural_hash()
        store.put(key_hash, "sparse", program, circuit=circuit)
        loaded = store.get_circuit(key_hash, "sparse")
        assert loaded is not None
        assert loaded.structural_hash() == key_hash


class TestIntegrity:
    def _single_artifact(self, store, circuit):
        program = _compile(circuit, "sparse")
        key_hash = circuit.structural_hash()
        store.put(key_hash, "sparse", program)
        (entry,) = store.entries()
        return key_hash, entry.path

    def test_checksum_mismatch_rejected_and_deleted(self, store):
        key_hash, path = self._single_artifact(store, parity_circuit(5))
        pkl = os.path.join(path, "program.pkl")
        blob = bytearray(Path(pkl).read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one byte mid-payload
        Path(pkl).write_bytes(bytes(blob))
        assert store.get(key_hash, "sparse") is None
        assert not os.path.exists(path)  # rejected artifacts are deleted

    def test_tampered_array_file_rejected(self, store):
        circuit = prefix_or_circuit(64)  # 2,080 wires: arrays spill to .npy
        key_hash, path = self._single_artifact(store, circuit)
        npy = os.path.join(path, "0.npy")
        assert os.path.isfile(npy)
        with open(npy, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\xff")
        assert store.get(key_hash, "sparse") is None
        assert not os.path.exists(path)

    def test_version_mismatch_rejected(self, store):
        key_hash, path = self._single_artifact(store, parity_circuit(5))
        meta_path = os.path.join(path, "meta.json")
        meta = json.loads(Path(meta_path).read_text())
        meta["artifact_version"] = ARTIFACT_VERSION + 1
        Path(meta_path).write_text(json.dumps(meta))
        assert store.get(key_hash, "sparse") is None
        assert not os.path.exists(path)

    def test_truncated_payload_rejected(self, store):
        key_hash, path = self._single_artifact(store, parity_circuit(5))
        pkl = os.path.join(path, "program.pkl")
        with open(pkl, "r+b") as handle:
            handle.truncate(os.path.getsize(pkl) // 2)
        assert store.get(key_hash, "sparse") is None
        assert not os.path.exists(path)


class TestCrashSafety:
    def test_concurrent_writers_exactly_one_publishes(self, tmp_path, rng):
        circuit = parity_circuit(40)
        program = _compile(circuit, "sparse")
        key_hash = circuit.structural_hash()
        directory = str(tmp_path / "artifacts")
        barrier = threading.Barrier(2)
        results = [None, None]

        def writer(slot):
            local = DiskArtifactStore(directory, sweep=False)
            barrier.wait()
            results[slot] = local.put(key_hash, "sparse", program)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One writer published; the loser of the os.replace race (or of the
        # pre-check) discarded its own staging directory.
        assert sum(bool(r) for r in results) == 1
        store = DiskArtifactStore(directory)
        assert store.stats().tmp_dirs == 0
        restored = store.get(key_hash, "sparse")
        batch = rng.integers(0, 2, size=(40, 9))
        assert same_run(restored.run(batch), program.run(batch))

    def test_kill_during_write_leaves_only_tmp_litter(self, tmp_path):
        directory = str(tmp_path / "artifacts")
        child = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.engine import DiskArtifactStore, FaultPlan\n"
            "store = DiskArtifactStore(\n"
            "    sys.argv[1], fault_plan=FaultPlan(artifact_crash_writes=1)\n"
            ")\n"
            "store.put('deadbeef', 'sparse', np.arange(4096, dtype=np.int64))\n"
            "sys.exit(99)  # unreachable: the fault plan kills the put\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", child, directory],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        store = DiskArtifactStore(directory)  # startup sweep spares young tmp
        stats = store.stats()
        assert stats.artifacts == 0  # nothing was published
        assert stats.tmp_dirs == 1  # the staged artifact is visible litter
        assert store.get("deadbeef", "sparse") is None
        result = store.prune(tmp_max_age_s=0.0)
        assert result["tmp_swept"] == 1
        assert store.stats().tmp_dirs == 0


class TestPruning:
    def _put(self, store, n_bits, backend="sparse"):
        circuit = parity_circuit(n_bits)
        program = _compile(circuit, backend)
        key_hash = circuit.structural_hash()
        store.put(key_hash, backend, program)
        return key_hash

    def test_prune_evicts_oldest_mtime_first(self, store):
        old = self._put(store, 5)
        new = self._put(store, 6)
        entries = {e.structural_hash: e for e in store.entries()}
        os.utime(entries[old].path, (1, 1))  # force "old" to be the LRU tail
        result = store.prune(max_bytes=entries[new].bytes)
        assert result["artifacts_removed"] == 1
        assert not store.contains(old, "sparse")
        assert store.contains(new, "sparse")

    def test_get_refreshes_recency_for_lru(self, store):
        first = self._put(store, 5)
        second = self._put(store, 6)
        for entry in store.entries():
            os.utime(entry.path, (1, 1))
        assert store.get(first, "sparse") is not None  # refreshes mtime
        (tail,) = [e for e in store.entries() if e.structural_hash == second]
        store.prune(max_bytes=tail.bytes)
        assert store.contains(first, "sparse")  # recently read: survived
        assert not store.contains(second, "sparse")

    def test_max_bytes_cap_applies_after_put(self, tmp_path):
        capped = DiskArtifactStore(str(tmp_path / "artifacts"), max_bytes=0)
        self._put(capped, 5)
        assert capped.stats().artifacts == 0  # pruned straight back out

    def test_clear_removes_everything(self, store):
        self._put(store, 5)
        self._put(store, 6)
        assert store.clear() == 2
        assert store.stats().artifacts == 0


class TestEngineIntegration:
    def _config(self, tmp_path, backend, **overrides):
        return EngineConfig(
            backend=backend,
            artifact_cache=True,
            artifact_dir=str(tmp_path / "artifacts"),
            **overrides,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_start_restores_without_compiling(self, tmp_path, rng, backend):
        batch = rng.integers(0, 2, size=(8, 13))
        with Engine(self._config(tmp_path, backend)) as warm:
            expected = warm.evaluate(
                parity_circuit(8), batch, keep_nodes=True
            ).node_values
            assert warm.compile_calls == 1
        # A brand-new engine process-equivalent: empty memory cache, same
        # artifact directory.  The compile must come off disk.
        with Engine(self._config(tmp_path, backend)) as cold:
            result = cold.evaluate(
                parity_circuit(8), batch, keep_nodes=True
            ).node_values
            assert cold.compile_calls == 0
            info = cold.cache_info()
            assert info.disk_hits == 1
        assert np.array_equal(result, expected)

    def test_cache_size_zero_still_restores_from_disk(self, tmp_path):
        circuit = parity_circuit(6)
        with Engine(self._config(tmp_path, "sparse", cache_size=0)) as warm:
            warm.compile(circuit)  # spilled to disk despite no memory slots
            assert warm.compile_calls == 1
        with Engine(self._config(tmp_path, "sparse", cache_size=0)) as cold:
            cold.compile(circuit)
            cold.compile(circuit)
            assert cold.compile_calls == 0
            assert cold.cache_info().disk_hits == 2  # nothing retained in memory

    def test_rejected_artifact_falls_back_to_compile_and_republish(
        self, tmp_path, rng
    ):
        circuit = parity_circuit(6)
        with Engine(self._config(tmp_path, "sparse")) as warm:
            warm.compile(circuit)
            store = warm.artifact_store
            (entry,) = store.entries()
            pkl = os.path.join(entry.path, "program.pkl")
            blob = bytearray(Path(pkl).read_bytes())
            blob[-1] ^= 0xFF
            Path(pkl).write_bytes(bytes(blob))
        with Engine(self._config(tmp_path, "sparse")) as cold:
            program = cold.compile(circuit)
            assert cold.compile_calls == 1  # tampered artifact not trusted
            # ... and the recompile republished a good artifact.
            restored = cold.artifact_store.get(circuit.structural_hash(), "sparse")
            batch = rng.integers(0, 2, size=(6, 7))
            assert same_run(restored.run(batch), program.run(batch))

    def test_compile_entry_exposes_the_disk_key(self, tmp_path):
        circuit = parity_circuit(6)
        with Engine(self._config(tmp_path, "sparse")) as engine:
            program, key = engine.compile_entry(circuit)
            assert key == (circuit.structural_hash(), "sparse")
            assert engine.artifact_store.contains(*key)
            assert program is engine.compile(circuit)

"""The benchmark's workloads.  Each op is one user request, run closed-loop.

A workload makes its inputs and exact references from the seed, sets the
system up (timed by the runner), answers ops until its time is up, and
checks every output.  ``probe`` then evaluates a fixed, seed-independent
batch for ``spikes_per_item`` and checks energy against
``ThresholdCircuit.evaluate_slow`` on sampled columns.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time
import traceback
from collections import deque

import numpy as np

from harness import NullTracer, peak_rss_mb, reset_peak_rss
from repro.arithmetic.signed import SignedBinaryNumber
from repro.circuits.serialize import dump_circuit, load_circuit
from repro.circuits.simulator import build_template_plan
from repro.core.matmul_circuit import build_matmul_circuit
from repro.core.naive_circuits import build_naive_matmul_circuit
from repro.core.trace_circuit import TraceCircuit, build_trace_circuit
from repro.engine import DiskArtifactStore, Engine, EngineConfig
from repro.util.encoding import MatrixEncoding

#: An in-process op slower than this counts as failed.
OP_DEADLINE_S = 60.0
#: Service deadline per ``Engine.submit`` job (``triangle_stream``).
JOB_TIMEOUT_S = 20.0
#: Seed of the probe batch behind ``spikes_per_item``: fixed, so the
#: figure is identical across runs unless the construction changes.
PROBE_SEED = 2018
#: Columns per run checked against the gate-by-gate reference evaluator.
SLOW_COLUMNS = 2


def instrument(tracer):
    """Patch the library's public entry points so ``tracer`` times them."""

    def count_result_bytes(tr, result):
        tr.add("engine.result_bytes", result.node_values.nbytes)

    def time_program_runs(tr, program):
        tr.patch(type(program), "run", "backends.run_s")

    tracer.patch(MatrixEncoding, "encode", "core.encode_s")
    tracer.patch(SignedBinaryNumber, "value", "core.decode_s")
    tracer.patch(Engine, "compile", "engine.compile_s", on_result=time_program_runs)
    tracer.patch(Engine, "evaluate", "engine.evaluate_s", on_result=count_result_bytes)
    tracer.patch(DiskArtifactStore, "get", "diskcache.restore_s")


@dataclasses.dataclass
class Phase:
    """What one measuring phase saw: per-op latency, outcome, spans and the
    peak resident memory since the previous op ended."""

    latencies: list = dataclasses.field(default_factory=list)
    layers: list = dataclasses.field(default_factory=list)
    peaks_mb: list = dataclasses.field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0

    def __post_init__(self):
        reset_peak_rss()

    def record(self, latency, ok, items, layers):
        self.peaks_mb.append(peak_rss_mb())
        reset_peak_rss()
        self.attempted += 1
        self.latencies.append(latency)
        self.layers.append(layers)
        if ok:
            self.items += items
        else:
            self.failed += 1


def _slow_reference(circuit, column):
    """(energy, outputs) of one input column by gate-by-gate evaluation."""
    values = circuit.evaluate_slow(column)
    return int(values[circuit.n_inputs :].sum()), values[circuit.outputs]


class Workload:
    """Base: closed-loop measurement of ``op`` plus the shared checks."""

    name = ""
    items_per_op = 0
    workers = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed, tmp):
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.tracer = NullTracer()
        self.telemetry = False
        self.slow_columns = []
        self.slow_refs = []

    # Subclasses provide: make_inputs, setup, check_setup, op, probe,
    # teardown and the ``circuit`` the workload compiles.

    @staticmethod
    def _coverage_of(circuit):
        plan = build_template_plan(circuit, min_cover=0.0)
        return plan.covered_gates / circuit.size if plan is not None else 0.0

    def template_coverage(self):
        """Share of the compiled circuit's gates inside template blocks."""
        return self._coverage_of(self.circuit)

    def service_stats(self):
        """``EvaluationService.stats()`` of the workload's engine, if it runs one."""
        return None

    def measure(self, seconds):
        phase = Phase()
        start = time.perf_counter()
        end = start + seconds
        while phase.attempted == 0 or time.perf_counter() < end:
            # ``op`` returns its output check, run outside the timed region.
            op_start = time.perf_counter()
            try:
                verify = self.op()
            except Exception:  # a failed request is counted, not fatal
                traceback.print_exc()
                verify = lambda: False  # noqa: E731
            latency = time.perf_counter() - op_start
            layers = self.tracer.take()
            phase.record(
                latency, latency <= OP_DEADLINE_S and verify(), self.items_per_op, layers
            )
        phase.elapsed = time.perf_counter() - start
        return phase

    def _check_probe(self, energy, outputs):
        """Compare the sampled columns (first in the batch) with evaluate_slow."""
        problems = []
        for k, (ref_energy, ref_outputs) in enumerate(self.slow_refs):
            if int(energy[k]) != ref_energy:
                problems.append(f"energy of sampled column {k}: {energy[k]} != {ref_energy}")
            if not np.array_equal(outputs[:, k], ref_outputs):
                problems.append(f"outputs of sampled column {k} differ from evaluate_slow")
        return problems


# ------------------------------------------------------------------ matmul
class _MatmulWorkload(Workload):
    """Shared by the ``C = AB`` workloads: random {-1,0,1} pairs, exact A@B."""

    n = 0
    pool_size = 0

    def make_inputs(self):
        shape = (self.pool_size, self.n, self.n)
        self.a = self.rng.integers(-1, 2, size=shape)
        self.b = self.rng.integers(-1, 2, size=shape)
        self.products = np.matmul(self.a, self.b)
        self.slow_columns = [
            int(i) for i in self.rng.choice(self.pool_size, SLOW_COLUMNS, replace=False)
        ]

    def _pairs(self):
        idx = self.rng.choice(self.pool_size, self.items_per_op, replace=False)
        return idx, [(self.a[i], self.b[i]) for i in idx]

    def _correct(self, idx, products):
        return len(products) == len(idx) and all(
            np.array_equal(product, self.products[i]) for i, product in zip(idx, products)
        )

    @staticmethod
    def _encode_pair(mc, a, b):
        column = np.zeros(mc.circuit.n_inputs, dtype=np.int8)
        for encoding, matrix in ((mc.encoding_a, a), (mc.encoding_b, b)):
            column[encoding.offset : encoding.offset + encoding.total_wires] = (
                encoding.encode(matrix)
            )
        return column

    def _slow_check_setup(self, mc):
        self.slow_refs = [
            _slow_reference(mc.circuit, self._encode_pair(mc, self.a[i], self.b[i]))
            for i in self.slow_columns
        ]

    def _probe(self, mc, engine):
        probe = np.random.default_rng(PROBE_SEED)
        shape = (16, self.n, self.n)
        pairs = [(self.a[i], self.b[i]) for i in self.slow_columns]
        pairs += list(zip(probe.integers(-1, 2, size=shape), probe.integers(-1, 2, size=shape)))
        batch = np.stack([self._encode_pair(mc, a, b) for a, b in pairs], axis=1)
        result = engine.evaluate(mc.circuit, batch)
        spikes = float(result.energy[SLOW_COLUMNS:].mean())
        return spikes, self._check_probe(result.energy, result.outputs)


class Naive32Query(_MatmulWorkload):
    """Steady-state queries on the naive n=32 circuit (ROADMAP reference)."""

    name = "naive32_query"
    n = 32
    pool_size = 256
    items_per_op = 64

    def setup(self, telemetry):
        self.telemetry = telemetry
        with self.tracer.span("core.build_s"):
            self.mc = build_naive_matmul_circuit(self.n, bit_width=1, stages=2)
        with self.tracer.span("circuits.hash_s"):
            self.mc.circuit.structural_hash()
        self.engine = Engine(EngineConfig(telemetry=telemetry))
        self.mc.engine = self.engine
        self.engine.compile(self.mc.circuit)
        self.mc.evaluate_batch([(self.a[0], self.b[0])])

    @property
    def circuit(self):
        return self.mc.circuit

    def check_setup(self):
        self._slow_check_setup(self.mc)
        return []

    def op(self):
        idx, pairs = self._pairs()
        products = self.mc.evaluate_batch(pairs)
        return lambda: self._correct(idx, products)

    def probe(self):
        return self._probe(self.mc, self.engine)

    def teardown(self):
        self.engine.close()
        self.mc = self.engine = None


class Strassen8Cold(_MatmulWorkload):
    """Construct, hash, compile and query the Strassen n=8 circuit per op."""

    name = "strassen8_cold"
    n = 8
    pool_size = 64
    items_per_op = 8

    def _construct(self):
        with self.tracer.span("core.build_s"):
            mc = build_matmul_circuit(self.n, bit_width=1)
        with self.tracer.span("circuits.hash_s"):
            digest = mc.circuit.structural_hash()
        mc.engine = Engine(EngineConfig(telemetry=self.telemetry))
        mc.engine.compile(mc.circuit)
        return mc, digest

    def setup(self, telemetry):
        # One full op warms the process-level memos construction relies on.
        self.telemetry = telemetry
        self.mc, self.digest = self._construct()
        self.mc.evaluate_batch(self._pairs()[1])

    @property
    def circuit(self):
        return self.mc.circuit

    def check_setup(self):
        self._slow_check_setup(self.mc)
        return []

    def op(self):
        idx, pairs = self._pairs()
        mc, digest = self._construct()
        products = mc.evaluate_batch(pairs)
        return lambda: digest == self.digest and self._correct(idx, products)

    def probe(self):
        return self._probe(self.mc, self.mc.engine)

    def teardown(self):
        self.mc = None


class Strassen8Load(_MatmulWorkload):
    """Cold start of the Strassen n=8 circuit from a JSON file and a disk store."""

    name = "strassen8_load"
    n = 8
    pool_size = 64
    items_per_op = 8
    # Each set-up writes ~90 MB in ~230 files, slow to delete on some hosts.
    setup_repeats = 3

    def _engine(self):
        return Engine(
            EngineConfig(
                artifact_cache=True, artifact_dir=self.artifacts, telemetry=self.telemetry
            )
        )

    def setup(self, telemetry):
        self.telemetry = telemetry
        self.workdir = tempfile.mkdtemp(prefix="load-", dir=self.tmp)
        with self.tracer.span("core.build_s"):
            self.mc = build_matmul_circuit(self.n, bit_width=1)
        with self.tracer.span("circuits.hash_s"):
            self.digest = self.mc.circuit.structural_hash()
        self.path = os.path.join(self.workdir, "strassen8.json")
        dump_circuit(self.mc.circuit, self.path)
        self.artifacts = os.path.join(self.workdir, "artifacts")
        self._engine().compile(self.mc.circuit)

    @property
    def circuit(self):
        return self.mc.circuit

    def check_setup(self):
        self._slow_check_setup(self.mc)
        return []

    def template_coverage(self):
        # The op compiles the loaded circuit, and JSON keeps no template
        # blocks: this is the figure a provenance-keeping format would lift.
        return self._coverage_of(load_circuit(self.path))

    def op(self):
        idx, pairs = self._pairs()
        with self.tracer.span("serialize.load_s"):
            circuit = load_circuit(self.path)
        with self.tracer.span("circuits.hash_s"):
            digest = circuit.structural_hash()
        engine = self._engine()
        engine.compile(circuit)
        loaded = dataclasses.replace(self.mc, circuit=circuit, engine=engine)
        products = loaded.evaluate_batch(pairs)
        return lambda: digest == self.digest and self._correct(idx, products)

    def probe(self):
        return self._probe(self.mc, self._engine())

    def teardown(self):
        # The files stay until the run's scratch directory is removed at
        # exit: freshly written files are slow to delete on some hosts, and
        # that cost belongs to no measured figure.
        self.mc = None


# ---------------------------------------------------------------- triangles
class TriangleStream(Workload):
    """Graph decisions ``trace(A^3) >= tau`` pipelined through the service."""

    name = "triangle_stream"
    n = 8
    pool_size = 256
    items_per_op = 64
    workers = 2
    in_flight = 2
    #: 6 x the expected triangle count of G(8, 1/2) (56 / 8 = 7): about the
    #: median trace(A^3) of any pool, so decisions are mixed, and fixed, so
    #: the circuit is the same for every seed.
    tau = 42

    def make_inputs(self):
        self.graphs = self._random_graphs(self.rng, self.pool_size)
        self.decisions = np.array(
            [TraceCircuit.reference_trace(g) >= self.tau for g in self.graphs]
        )
        self.slow_columns = [
            int(i) for i in self.rng.choice(self.pool_size, SLOW_COLUMNS, replace=False)
        ]

    def _random_graphs(self, rng, count):
        upper = np.triu(rng.random((count, self.n, self.n)) < 0.5, k=1)
        return (upper | upper.transpose(0, 2, 1)).astype(np.int64)

    def _encode(self, graphs):
        return np.stack([self.tc.encoding.encode(g) for g in graphs], axis=1)

    def setup(self, telemetry):
        self.telemetry = telemetry
        with self.tracer.span("core.build_s"):
            self.tc = build_trace_circuit(self.n, self.tau, bit_width=1)
        with self.tracer.span("circuits.hash_s"):
            self.tc.circuit.structural_hash()
        self.engine = Engine(
            EngineConfig(
                max_workers=self.workers,
                parallel_threshold=self.items_per_op,
                telemetry=telemetry,
            )
        )
        self.tc.engine = self.engine
        self.engine.compile(self.tc.circuit)
        # Start the service and install the program on every worker.
        batch = self._encode(self.graphs[: self.items_per_op])
        warm = [
            self.engine.submit(self.tc.circuit, batch, timeout=JOB_TIMEOUT_S)
            for _ in range(self.in_flight)
        ]
        for future in warm:
            future.result(timeout=JOB_TIMEOUT_S)

    @property
    def circuit(self):
        return self.tc.circuit

    def service_stats(self):
        # The engine exposes its service only as ``_service`` (the CLI's
        # ``--metrics`` output reads it the same way).
        service = self.engine._service
        return service.stats() if service is not None else None

    def check_setup(self):
        # Per-graph energy reference from a serial engine (no service route),
        # itself checked against evaluate_slow on the sampled columns.
        result = Engine().evaluate(self.tc.circuit, self._encode(self.graphs))
        self.energies = result.energy
        self.slow_refs = [
            _slow_reference(self.tc.circuit, self.tc.encoding.encode(self.graphs[i]))
            for i in self.slow_columns
        ]
        problems = []
        if not np.array_equal(result.outputs[0].astype(bool), self.decisions):
            problems.append("serial engine decisions differ from TraceCircuit.reference")
        problems += self._check_probe(
            result.energy[self.slow_columns], result.outputs[:, self.slow_columns]
        )
        return problems

    def _submit(self):
        start = time.perf_counter()
        idx = self.rng.choice(self.pool_size, self.items_per_op, replace=False)
        batch = self._encode(self.graphs[idx])
        with self.tracer.span("engine.submit_s"):
            future = self.engine.submit(self.tc.circuit, batch, timeout=JOB_TIMEOUT_S)
        return start, idx, future

    def _complete(self, pending, phase):
        start, idx, future = pending
        ok = False
        try:
            with self.tracer.span("service.wait_s"):
                result = future.result(timeout=JOB_TIMEOUT_S + 10.0)
            with self.tracer.span("core.decode_s"):
                decisions = result.outputs[0].astype(bool)
                energy = result.energy
            self.tracer.add("engine.result_bytes", result.node_values.nbytes)
            ok = np.array_equal(decisions, self.decisions[idx]) and np.array_equal(
                energy, self.energies[idx]
            )
        except Exception:  # DeadlineExceeded, TimeoutError, worker failures
            traceback.print_exc()
        phase.record(
            time.perf_counter() - start, ok, self.items_per_op, self.tracer.take()
        )

    def measure(self, seconds):
        """One thread keeps ``in_flight`` jobs outstanding until time is up."""
        phase = Phase()
        pending = deque()
        start = time.perf_counter()
        end = start + seconds
        while True:
            while len(pending) < self.in_flight and (
                time.perf_counter() < end or phase.attempted + len(pending) == 0
            ):
                try:
                    pending.append(self._submit())
                except Exception:  # refused submission: a failed request
                    traceback.print_exc()
                    phase.record(0.0, False, self.items_per_op, self.tracer.take())
            if not pending:
                break
            self._complete(pending.popleft(), phase)
        phase.elapsed = time.perf_counter() - start
        return phase

    def probe(self):
        probe = self._random_graphs(np.random.default_rng(PROBE_SEED), 64)
        graphs = np.concatenate([self.graphs[self.slow_columns], probe])
        result = self.engine.evaluate(self.tc.circuit, self._encode(graphs))
        spikes = float(result.energy[SLOW_COLUMNS:].mean())
        return spikes, self._check_probe(result.energy, result.outputs)

    def teardown(self):
        self.engine.close()
        self.tc = self.engine = None


WORKLOADS = {
    cls.name: cls for cls in (Naive32Query, Strassen8Cold, TriangleStream, Strassen8Load)
}

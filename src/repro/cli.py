"""Command-line interface for the reproduction.

The CLI exposes the operations a user typically wants without writing
Python: inspecting a fast-multiplication algorithm and its sparsity
constants, predicting circuit sizes, building a circuit and exporting it to
JSON, and answering a triangle-threshold query for a graph given as an edge
list.

Examples
--------
::

    python -m repro.cli algorithms
    python -m repro.cli info strassen
    python -m repro.cli count --kind trace --n 16 --d 3 --bit-width 1
    python -m repro.cli predict --d 4
    python -m repro.cli build-trace --n 8 --tau 30 --d 3 --output trace8.json
    python -m repro.cli build-matmul --n 4 --bit-width 2 --d 2 --output mm4.json
    python -m repro.cli triangles --edges graph.txt --tau 5
    python -m repro.cli simulate --circuit trace8.json --inputs rows.txt --metrics json
    python -m repro.cli batch-eval --circuit trace8.json --inputs a.txt b.txt --workers 2
    python -m repro.cli energy-trace --circuit trace8.json --samples 32
    python -m repro.cli stats --circuit trace8.json --samples 8 --format text
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Threshold circuits for matrix multiplication (Parekh et al., SPAA 2018)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list the registered fast multiplication algorithms")

    info = sub.add_parser("info", help="describe an algorithm and its sparsity constants")
    info.add_argument("algorithm", help="algorithm name (see `algorithms`)")

    count = sub.add_parser("count", help="exact dry-run gate count of a construction")
    count.add_argument("--kind", choices=["trace", "matmul"], default="trace")
    count.add_argument("--n", type=int, required=True, help="matrix dimension (power of T)")
    count.add_argument("--d", type=int, default=None, help="depth parameter (omit for log-log schedule)")
    count.add_argument("--bit-width", type=int, default=None, help="bits per signed entry magnitude")
    count.add_argument("--algorithm", default="strassen")
    count.add_argument("--stages", type=int, default=1)

    predict = sub.add_parser("predict", help="predicted gate-count exponent omega + c*gamma^d")
    predict.add_argument("--d", type=int, default=None)
    predict.add_argument("--algorithm", default="strassen")

    trace = sub.add_parser("build-trace", help="build a trace(A^3) >= tau circuit and export JSON")
    trace.add_argument("--n", type=int, required=True)
    trace.add_argument("--tau", type=int, required=True)
    trace.add_argument("--d", type=int, default=2)
    trace.add_argument("--bit-width", type=int, default=None)
    trace.add_argument("--algorithm", default="strassen")
    trace.add_argument("--output", default=None, help="path for the JSON netlist")

    matmul = sub.add_parser("build-matmul", help="build a C = AB circuit and export JSON")
    matmul.add_argument("--n", type=int, required=True)
    matmul.add_argument("--d", type=int, default=2)
    matmul.add_argument("--bit-width", type=int, default=None)
    matmul.add_argument("--algorithm", default="strassen")
    matmul.add_argument("--output", default=None)

    triangles = sub.add_parser("triangles", help="answer a triangle-threshold query for an edge list")
    triangles.add_argument("--edges", required=True, help="text file with one 'u v' edge per line")
    triangles.add_argument("--tau", type=int, required=True, help="triangle threshold")
    triangles.add_argument("--d", type=int, default=2)
    triangles.add_argument("--naive", action="store_true", help="also run the naive depth-2 circuit")

    simulate = sub.add_parser(
        "simulate", help="evaluate a serialized circuit on 0/1 input rows via the engine"
    )
    simulate.add_argument("--circuit", required=True, help="circuit JSON (see build-trace/build-matmul)")
    simulate.add_argument(
        "--inputs", required=True,
        help="text file: one assignment per line, 0/1 tokens or a contiguous bitstring",
    )
    simulate.add_argument("--backend", choices=["auto", "sparse", "dense", "exact"], default="auto")
    simulate.add_argument("--chunk-size", type=int, default=None, help="batch column-block width")
    simulate.add_argument("--workers", type=int, default=None, help="shard chunks over N processes")
    simulate.add_argument(
        "--metrics", choices=["text", "json"], default=None,
        help="enable telemetry and dump the metric snapshot after the run "
        "(json: embedded in the payload; text: Prometheus format appended)",
    )

    batch_eval = sub.add_parser(
        "batch-eval",
        help="pipeline many input batches through the persistent evaluation service",
    )
    batch_eval.add_argument("--circuit", required=True, help="circuit JSON")
    batch_eval.add_argument(
        "--inputs", required=True, nargs="+",
        help="one or more input-row files; each file is submitted as one job",
    )
    batch_eval.add_argument("--backend", choices=["auto", "sparse", "dense", "exact"], default="auto")
    batch_eval.add_argument("--workers", type=int, default=2, help="resident worker processes")
    batch_eval.add_argument("--chunk-size", type=int, default=None, help="batch column-block width")
    batch_eval.add_argument(
        "--repeat", type=int, default=1,
        help="submit every batch this many times (steady-state throughput)",
    )
    batch_eval.add_argument(
        "--metrics", choices=["text", "json"], default=None,
        help="enable telemetry and dump the metric snapshot after the run "
        "(json: embedded in the payload; text: Prometheus format appended)",
    )

    stats = sub.add_parser(
        "stats",
        help="process telemetry snapshot (optionally exercising a circuit first)",
    )
    stats.add_argument("--circuit", default=None, help="circuit JSON to evaluate before the dump")
    stats.add_argument("--inputs", default=None, help="input rows file (default: random samples)")
    stats.add_argument("--samples", type=int, default=8, help="random samples when --inputs is omitted")
    stats.add_argument("--seed", type=int, default=2018, help="seed for random samples")
    stats.add_argument("--backend", choices=["auto", "sparse", "dense", "exact"], default="auto")
    stats.add_argument("--format", choices=["json", "text"], default="json")

    soak = sub.add_parser(
        "soak",
        help="run the invariant soak harness against a resident evaluation service",
    )
    soak.add_argument(
        "--seconds", type=float, default=None,
        help="submission window length (default: SOAK_SECONDS env or 10)",
    )
    soak.add_argument("--workers", type=int, default=2, help="resident worker processes")
    soak.add_argument("--seed", type=int, default=2018, help="input generation seed")
    soak.add_argument(
        "--faults", default=None, metavar="JSON",
        help="inject a FaultPlan given as its JSON dict form",
    )
    soak.add_argument(
        "--aggressive", action="store_true",
        help="inject the kitchen-sink aggressive_plan() (ignored if --faults given)",
    )
    soak.add_argument(
        "--timeout", type=float, default=None,
        help="per-job deadline in seconds (DeadlineExceeded becomes an allowed failure)",
    )

    verify = sub.add_parser(
        "verify",
        help="statically verify circuit JSON files (abstract interpretation + provenance)",
    )
    verify.add_argument("circuits", nargs="+", help="circuit JSON files to verify")
    verify.add_argument(
        "--quick", action="store_true",
        help="structure + provenance only (skip intervals, reachability, plan cross-checks)",
    )
    verify.add_argument("--format", choices=["json", "text"], default="json")

    energy_trace = sub.add_parser(
        "energy-trace", help="spiking-mode per-layer spike counts and energy of a circuit"
    )
    energy_trace.add_argument("--circuit", required=True, help="circuit JSON")
    energy_trace.add_argument("--inputs", default=None, help="input rows file (default: random samples)")
    energy_trace.add_argument("--samples", type=int, default=16, help="random samples when --inputs is omitted")
    energy_trace.add_argument("--seed", type=int, default=2018, help="seed for random samples")
    energy_trace.add_argument("--backend", choices=["auto", "sparse", "dense", "exact"], default="auto")

    cache = sub.add_parser(
        "cache", help="inspect and manage the on-disk compile-artifact cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="artifact counts, byte totals, and per-artifact listing"
    )
    cache_stats.add_argument(
        "--artifact-dir", default=None,
        help="artifact directory (default: $REPRO_ARTIFACT_DIR or ~/.cache/repro/artifacts)",
    )
    cache_stats.add_argument("--format", choices=["json", "text"], default="json")
    cache_prune = cache_sub.add_parser(
        "prune", help="sweep stale staging dirs and evict oldest artifacts over a size cap"
    )
    cache_prune.add_argument("--artifact-dir", default=None)
    cache_prune.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest artifacts (by mtime — restores refresh it) until the total fits",
    )
    cache_prune.add_argument(
        "--tmp-age", type=float, default=3600.0,
        help="sweep .tmp-* staging dirs older than this many seconds (crashed writers)",
    )
    cache_warm = cache_sub.add_parser(
        "warm", help="pre-compile circuits into the artifact store"
    )
    cache_warm.add_argument(
        "--circuit", action="append", default=None,
        help="circuit JSON to compile and store, repeatable (omitted: recompile the "
        "circuits already bundled in the store for --backend)",
    )
    cache_warm.add_argument(
        "--backend", choices=["auto", "sparse", "dense", "exact"], default="auto"
    )
    cache_warm.add_argument("--artifact-dir", default=None)

    return parser


def _print(payload: dict, stream) -> None:
    json.dump(payload, stream, indent=2, default=str)
    stream.write("\n")


def _cmd_algorithms(args, stream) -> int:
    from repro.fastmm import available_algorithms

    _print({"algorithms": available_algorithms()}, stream)
    return 0


def _cmd_info(args, stream) -> int:
    from repro.fastmm import get_algorithm, sparsity_parameters

    algorithm = get_algorithm(args.algorithm)
    params = sparsity_parameters(algorithm)
    _print(
        {
            "description": algorithm.describe().splitlines(),
            "sparsity": params.as_dict(),
        },
        stream,
    )
    return 0


def _cmd_count(args, stream) -> int:
    from repro.core.gate_count_model import count_matmul_circuit, count_trace_circuit
    from repro.fastmm import get_algorithm

    algorithm = get_algorithm(args.algorithm)
    if args.kind == "trace":
        cost = count_trace_circuit(
            args.n,
            bit_width=args.bit_width,
            algorithm=algorithm,
            depth_parameter=args.d,
            stages=args.stages,
        )
    else:
        cost = count_matmul_circuit(
            args.n,
            bit_width=args.bit_width,
            algorithm=algorithm,
            depth_parameter=args.d,
            stages=args.stages,
        )
    _print({"kind": args.kind, "n": args.n, "d": args.d, **cost.as_dict()}, stream)
    return 0


def _cmd_predict(args, stream) -> int:
    from repro.core.gate_count_model import predicted_exponent
    from repro.fastmm import get_algorithm, sparsity_parameters

    algorithm = get_algorithm(args.algorithm)
    params = sparsity_parameters(algorithm)
    _print(
        {
            "algorithm": args.algorithm,
            "omega": algorithm.omega,
            "gamma": params.side_A.gamma,
            "c": params.side_A.c,
            "d": args.d,
            "exponent": predicted_exponent(algorithm, args.d),
        },
        stream,
    )
    return 0


def _export(circuit, path: Optional[str], stream, extra: dict) -> int:
    from repro.circuits.serialize import dump_circuit

    stats = circuit.stats()
    payload = {**extra, **stats.as_dict()}
    if path:
        dump_circuit(circuit, path)
        payload["written_to"] = path
    _print(payload, stream)
    return 0


def _cmd_build_trace(args, stream) -> int:
    from repro.core.trace_circuit import build_trace_circuit
    from repro.fastmm import get_algorithm

    built = build_trace_circuit(
        args.n,
        args.tau,
        bit_width=args.bit_width,
        algorithm=get_algorithm(args.algorithm),
        depth_parameter=args.d,
    )
    return _export(built.circuit, args.output, stream, {"kind": "trace", "tau": args.tau})


def _cmd_build_matmul(args, stream) -> int:
    from repro.core.matmul_circuit import build_matmul_circuit
    from repro.fastmm import get_algorithm

    built = build_matmul_circuit(
        args.n,
        bit_width=args.bit_width,
        algorithm=get_algorithm(args.algorithm),
        depth_parameter=args.d,
    )
    return _export(built.circuit, args.output, stream, {"kind": "matmul"})


def _read_edge_list(path: str) -> np.ndarray:
    edges: List[tuple] = []
    max_vertex = -1
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_number}: expected 'u v', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                continue
            edges.append((u, v))
            max_vertex = max(max_vertex, u, v)
    if max_vertex < 0:
        raise ValueError(f"{path}: no edges found")
    adjacency = np.zeros((max_vertex + 1, max_vertex + 1), dtype=np.int64)
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = 1
    return adjacency


def _cmd_triangles(args, stream) -> int:
    from repro.core.naive_circuits import build_naive_triangle_circuit
    from repro.triangles import build_triangle_query, triangle_count

    adjacency = _read_edge_list(args.edges)
    n = adjacency.shape[0]
    query = build_triangle_query(n, tau_triangles=args.tau, depth_parameter=args.d)
    answer = query.evaluate(adjacency)
    payload = {
        "vertices": n,
        "edges": int(adjacency.sum() // 2),
        "tau": args.tau,
        "circuit_answer": bool(answer),
        "exact_triangles": triangle_count(adjacency),
        "circuit_gates": query.trace_circuit.circuit.size,
        "circuit_depth": query.trace_circuit.circuit.depth,
    }
    if args.naive:
        naive = build_naive_triangle_circuit(max(n, 3), args.tau)
        padded = np.zeros((max(n, 3), max(n, 3)), dtype=np.int64)
        padded[:n, :n] = adjacency
        payload["naive_answer"] = bool(naive.evaluate(padded))
        payload["naive_gates"] = naive.circuit.size
    _print(payload, stream)
    return 0


def _read_input_rows(path: str, n_inputs: int) -> np.ndarray:
    """Read 0/1 assignments (one per line) into a ``(n_inputs, batch)`` array.

    Each non-comment line is either whitespace-separated 0/1 tokens or a
    contiguous bitstring like ``0110``; every line must provide exactly
    ``n_inputs`` values.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split() if " " in line or "\t" in line else list(line)
            if len(tokens) != n_inputs or any(t not in ("0", "1") for t in tokens):
                raise ValueError(
                    f"{path}:{line_number}: expected {n_inputs} 0/1 values, got {line!r}"
                )
            rows.append([int(t) for t in tokens])
    if not rows:
        raise ValueError(f"{path}: no input rows found")
    return np.asarray(rows, dtype=np.int64).T


def _make_engine(backend: str, chunk_size=None, workers=None):
    from repro.engine import Engine, EngineConfig, default_engine

    if chunk_size is None and workers is None and backend == "auto":
        return default_engine()
    config = EngineConfig(
        backend=backend,
        chunk_size=chunk_size if chunk_size is not None else EngineConfig.chunk_size,
        max_workers=workers if workers is not None else 0,
        # The user asked for workers: the scheduler shards any batch, however
        # small, and narrows the chunk width so every worker gets one.
        parallel_threshold=1,
    )
    return Engine(config)


@contextlib.contextmanager
def _metrics_session(wanted: bool):
    """Swap in a fresh enabled registry for one command, then restore.

    The swap keeps ``--metrics`` runs self-contained: the dump covers only
    this command's work, and in-process callers of :func:`main` (tests)
    don't inherit an enabled registry after the command returns.
    """
    if not wanted:
        yield None
        return
    from repro import obs

    previous = obs.get_registry()
    registry = obs.MetricsRegistry()
    obs.set_registry(registry)
    try:
        yield registry
    finally:
        obs.set_registry(previous)


def _emit_metrics(payload: dict, registry, fmt, stream) -> None:
    """Attach (json) or append (text) the metric dump to the command output."""
    if registry is not None and fmt == "json":
        payload["metrics"] = registry.snapshot()
    _print(payload, stream)
    if registry is not None and fmt == "text":
        stream.write(registry.render())


def _cmd_simulate(args, stream) -> int:
    from repro.circuits.serialize import load_circuit

    circuit = load_circuit(args.circuit)
    batch = _read_input_rows(args.inputs, circuit.n_inputs)
    with _metrics_session(args.metrics is not None) as registry:
        engine = _make_engine(args.backend, args.chunk_size, args.workers)
        program = engine.compile(circuit)
        result = engine.evaluate(circuit, batch)  # cache hit: no recompile
        payload = {
            "circuit": args.circuit,
            "n_inputs": circuit.n_inputs,
            "gates": circuit.size,
            "batch": int(batch.shape[1]),
            "backend": program.backend_name,
            "output_labels": circuit.output_labels,
            "outputs": result.outputs.T.tolist(),
            "energy": result.energy.tolist(),
            "cache": engine.cache_info().as_dict(),
        }
        _emit_metrics(payload, registry, args.metrics, stream)
    return 0


def _cmd_batch_eval(args, stream) -> int:
    import time

    from repro.circuits.serialize import load_circuit
    from repro.engine import Engine, EngineConfig

    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    circuit = load_circuit(args.circuit)
    batches = [_read_input_rows(path, circuit.n_inputs) for path in args.inputs]
    config = EngineConfig(
        backend=args.backend,
        chunk_size=args.chunk_size if args.chunk_size is not None else EngineConfig.chunk_size,
        # --workers 1 evaluates inline (no resident pool), same as the engine.
        max_workers=args.workers,
        # Batches of two or more rows reach the resident pool, however
        # narrow; single-row files (and --workers 1) evaluate inline, in
        # which case the printed "service" stats are null.
        parallel_threshold=1,
    )
    with _metrics_session(args.metrics is not None) as registry:
        with Engine(config) as engine:
            program = engine.compile(circuit)
            start = time.perf_counter()
            futures = [
                engine.submit(circuit, batch)
                for _ in range(args.repeat)
                for batch in batches
            ]
            results = [future.result() for future in futures]
            elapsed = time.perf_counter() - start
            jobs = []
            for path, result in zip(args.inputs, results[-len(batches):]):
                jobs.append(
                    {
                        "inputs": path,
                        "batch": int(np.atleast_2d(result.outputs).shape[1]),
                        "outputs": np.atleast_2d(result.outputs).T.tolist(),
                        "energy": np.atleast_1d(result.energy).tolist(),
                    }
                )
            service = engine._service  # surfaced for observability; may be None
            payload = {
                "circuit": args.circuit,
                "n_inputs": circuit.n_inputs,
                "gates": circuit.size,
                "backend": program.backend_name,
                "workers": config.max_workers,
                "jobs_submitted": len(futures),
                "wall_s": round(elapsed, 4),
                "jobs_per_s": round(len(futures) / elapsed, 2) if elapsed else None,
                "service": service.stats().as_dict() if service is not None else None,
                "cache": engine.cache_info().as_dict(),
                "jobs": jobs,
            }
            _emit_metrics(payload, registry, args.metrics, stream)
    return 0


def _cmd_stats(args, stream) -> int:
    from repro import obs

    previous = obs.get_registry()
    # Reuse an already-enabled process registry (REPRO_TELEMETRY=1) so the
    # dump includes whatever this process recorded; otherwise start fresh.
    registry = previous if previous.enabled else obs.MetricsRegistry()
    obs.set_registry(registry)
    try:
        if args.circuit is not None:
            from repro.circuits.serialize import load_circuit

            circuit = load_circuit(args.circuit)
            if args.inputs is not None:
                batch = _read_input_rows(args.inputs, circuit.n_inputs)
            else:
                if args.samples < 1:
                    raise ValueError(f"--samples must be >= 1, got {args.samples}")
                rng = np.random.default_rng(args.seed)
                batch = rng.integers(0, 2, size=(circuit.n_inputs, args.samples))
            engine = _make_engine(args.backend)
            engine.evaluate(circuit, batch)
        if args.format == "text":
            stream.write(registry.render())
        else:
            _print(registry.snapshot(), stream)
    finally:
        obs.set_registry(previous)
    return 0


def _cmd_energy_trace(args, stream) -> int:
    from repro.circuits.serialize import load_circuit

    circuit = load_circuit(args.circuit)
    if args.inputs is not None:
        batch = _read_input_rows(args.inputs, circuit.n_inputs)
    else:
        if args.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {args.samples}")
        rng = np.random.default_rng(args.seed)
        batch = rng.integers(0, 2, size=(circuit.n_inputs, args.samples))
    engine = _make_engine(args.backend)
    trace = engine.spike_trace(circuit, batch)
    payload = {
        "circuit": args.circuit,
        "circuit_size": circuit.size,
        "backend": engine.compile(circuit).backend_name,
        **trace.as_dict(),
    }
    payload["mean_fraction_firing"] = (
        payload["mean_energy"] / circuit.size if circuit.size else 0.0
    )
    _print(payload, stream)
    return 0


def _cmd_soak(args, stream) -> int:
    from repro.engine.faults import FaultPlan, aggressive_plan
    from repro.engine.soak import default_soak_config, run_soak

    seconds = args.seconds
    if seconds is None:
        seconds = float(os.environ.get("SOAK_SECONDS", "10"))
    plan = None
    if args.faults is not None:
        plan = FaultPlan.from_json(args.faults)
    elif args.aggressive:
        plan = aggressive_plan()
    report = run_soak(
        seconds,
        config=default_soak_config(max_workers=args.workers),
        fault_plan=plan,
        seed=args.seed,
        job_timeout=args.timeout,
    )
    problems = report.problems()
    _print({**report.as_dict(), "problems": problems, "ok": not problems}, stream)
    return 0 if not problems else 1


def _cmd_verify(args, stream) -> int:
    from repro.circuits.serialize import load_circuit
    from repro.statics import StaticReport, verify_circuit

    deep = not args.quick
    reports = []
    for path in args.circuits:
        try:
            # The verifier runs the structure and provenance passes itself
            # (and reports them as findings, not exceptions), so load
            # without them to avoid doing the work twice.  The loader's
            # input checks still run.
            circuit = load_circuit(path, trusted=True)
        except Exception as exc:  # noqa: BLE001 - per-file error becomes a finding
            report = StaticReport(target=str(path))
            report.issues.append(f"failed to load circuit: {exc}")
            reports.append(report)
            continue
        reports.append(
            verify_circuit(
                circuit,
                intervals=deep,
                reachability=deep,
                plans=deep,
                target=str(path),
            )
        )
    ok = all(report.ok for report in reports)
    if args.format == "json":
        _print(
            {"ok": ok, "reports": [report.as_dict() for report in reports]},
            stream,
        )
    else:
        for report in reports:
            status = "ok" if report.ok else "FAIL"
            stream.write(f"{report.target}: {status}\n")
            for issue in report.issues:
                stream.write(f"  issue: {issue}\n")
            for warning in report.warnings:
                stream.write(f"  warning: {warning}\n")
    return 0 if ok else 1


def _cmd_cache(args, stream) -> int:
    from repro.engine.diskcache import DiskArtifactStore

    store = DiskArtifactStore(args.artifact_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        entries = store.entries()
        if args.format == "json":
            payload = stats.as_dict()
            payload["entries"] = [entry.as_dict() for entry in entries]
            _print(payload, stream)
        else:
            stream.write(f"artifact dir: {stats.directory}\n")
            stream.write(
                f"artifacts: {stats.artifacts} ({stats.total_bytes} bytes, "
                f"{stats.tmp_dirs} staging dirs)\n"
            )
            for entry in entries:
                circuit_note = " +circuit" if entry.has_circuit else ""
                stream.write(
                    f"  {entry.backend:7s} {entry.structural_hash[:16]}... "
                    f"v{entry.version} {entry.bytes} bytes{circuit_note}\n"
                )
        return 0

    if args.cache_command == "prune":
        result = store.prune(max_bytes=args.max_bytes, tmp_max_age_s=args.tmp_age)
        result["directory"] = store.directory
        _print(result, stream)
        return 0

    # warm: compile circuits (user files, or the ones bundled in existing
    # artifacts) and publish the programs so later processes restore them.
    from repro.circuits.serialize import load_circuit
    from repro.engine import Engine, EngineConfig

    jobs = []
    if args.circuit:
        for path in args.circuit:
            # User-supplied files keep the validate-by-default load; only
            # checksummed in-store bundles take the trusted fast path.
            jobs.append((path, load_circuit(path)))
    else:
        for entry in store.entries():
            if not entry.has_circuit:
                continue
            circuit = store.get_circuit(entry.structural_hash, entry.backend)
            if circuit is not None:
                jobs.append((entry.path, circuit))
    engine = Engine(EngineConfig(backend=args.backend))
    warmed = []
    for label, circuit in jobs:
        key_hash = circuit.structural_hash()
        if args.backend != "auto" and store.contains(key_hash, args.backend):
            warmed.append(
                {
                    "source": label,
                    "structural_hash": key_hash,
                    "backend": args.backend,
                    "stored": False,
                }
            )
            continue
        program, key = engine.compile_entry(circuit)
        stored = store.put(key[0], key[1], program, circuit=circuit)
        warmed.append(
            {
                "source": label,
                "structural_hash": key[0],
                "backend": key[1],
                "stored": stored,
            }
        )
    _print({"directory": store.directory, "warmed": warmed}, stream)
    return 0


_COMMANDS = {
    "algorithms": _cmd_algorithms,
    "info": _cmd_info,
    "count": _cmd_count,
    "predict": _cmd_predict,
    "build-trace": _cmd_build_trace,
    "build-matmul": _cmd_build_matmul,
    "triangles": _cmd_triangles,
    "simulate": _cmd_simulate,
    "batch-eval": _cmd_batch_eval,
    "stats": _cmd_stats,
    "soak": _cmd_soak,
    "verify": _cmd_verify,
    "energy-trace": _cmd_energy_trace,
    "cache": _cmd_cache,
}


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    """Entry point; returns a process exit code."""
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args, stream)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())

#!/usr/bin/env python3
"""Benchmark of the circuit library along the path a user runs.

Run from the repository root:

    python3 perfbench/run.py --workload naive32_query --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the time
into an untraced half and a traced half and prints the per-layer metrics,
including the tracing overhead between the two halves.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
environment fingerprint and ``fail_frac``.  The exit code is 0 only when
every output was correct and nothing leaked.  See perfbench/README.md for
the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Variables that would switch telemetry or fault injection on behind the
#: benchmark's back.
SCRUBBED_ENV = ("REPRO_TELEMETRY", "REPRO_TELEMETRY_DEBUG", "REPRO_FAULTS")
#: Scratch space inside the checkout, removed when the run ends.
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _registry_totals(delta):
    counters, samples = {}, {}
    for name, _labels, value in delta.get("counters", ()):
        counters[name] = counters.get(name, 0) + value
    for name, _labels, state in delta.get("histograms", ()):
        samples.setdefault(name, []).extend(state["samples"])
    return counters, samples


def _stats_change(before, after):
    """Change in the reported ``ServiceStats`` counters (empty without a service)."""
    if before is None or after is None:
        return {}
    return {
        name: getattr(after, name) - getattr(before, name)
        for name in ("jobs", "installs", "retries", "worker_restarts")
    }


def end_to_end(wl, setup_s, phase, spikes):
    lat = phase.latencies
    return {
        "setup_s": (harness.median(setup_s), "s"),
        "items_per_s": (phase.items / phase.elapsed, "1/s"),
        "op_p50_ms": (harness.percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": (harness.percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (harness.median(phase.peaks_mb), "MiB"),
        "circuit_gates": (wl.circuit.size, "count"),
        "circuit_depth": (wl.circuit.depth, "layers"),
        "spikes_per_item": (spikes, "spikes"),
    }


def per_layer(wl, plain, traced, setup_layers, delta, service):
    """Per-layer figures of the traced phase.

    A time is the median per-op total of its span; a layer the ops never
    call (construction on a query workload, say) reports its time in the
    traced set-up instead.  Cache counts from the telemetry registry are per
    op; ``service`` holds the phase's change in each ``ServiceStats`` field,
    and its installs, retries and restarts are totals over the phase.
    """
    ops = traced.layers

    def layer(name):
        per_op = [op.get(name, 0.0) for op in ops]
        return harness.median(per_op) if any(per_op) else setup_layers.get(name, 0.0)

    def per_op_ratio(numerator):
        return harness.median(
            [numerator(op) / lat for op, lat in zip(ops, traced.latencies) if lat > 0]
        )

    counters, samples = _registry_totals(delta)
    jobs = service.get("jobs", 0)
    inputs = counters.get("service.pickle_bytes", 0) + counters.get("service.shm_bytes", 0)
    plain_p50 = harness.percentile(plain.latencies, 50)
    traced_p50 = harness.percentile(traced.latencies, 50)
    metrics = {
        name: (layer(name), "s")
        for name in (
            "core.build_s", "core.encode_s", "core.decode_s", "circuits.hash_s",
            "serialize.load_s", "engine.compile_s", "engine.evaluate_s",
            "engine.submit_s", "backends.run_s", "diskcache.restore_s",
        )
    }
    metrics.update({
        "circuits.template_coverage": (wl.template_coverage(), "frac"),
        "engine.result_bytes": (layer("engine.result_bytes"), "B"),
        "backends.run_share": (per_op_ratio(lambda op: op.get("backends.run_s", 0.0)), "frac"),
        "cache.hits": (counters.get("cache.hits", 0) / traced.attempted, "count"),
        "cache.misses": (counters.get("cache.misses", 0) / traced.attempted, "count"),
        "cache.disk_hits": (counters.get("diskcache.hits", 0) / traced.attempted, "count"),
        "service.job_s": (harness.median(samples.get("service.job_s", [])), "s"),
        "service.task_s": (harness.median(samples.get("worker.task_s", [])), "s"),
        "service.queue_wait_s": (harness.median(samples.get("worker.queue_wait_s", [])), "s"),
        # Per job: the input block shipped out plus the node matrix that
        # comes back (one job per op on the service workload).
        "service.transport_bytes": (
            inputs / jobs + layer("engine.result_bytes") if jobs else 0.0, "B"
        ),
        "service.installs": (service.get("installs", 0), "count"),
        "service.retries": (service.get("retries", 0), "count"),
        "service.worker_restarts": (service.get("worker_restarts", 0), "count"),
        "trace.overhead_frac": (traced_p50 / plain_p50 - 1.0, "frac"),
        "trace.layer_coverage": (
            per_op_ratio(lambda op: sum(op.get(n, 0.0) for n in harness.TOP_LEVEL_SPANS)),
            "frac",
        ),
    })
    return metrics


def run(args, tmp):
    import workloads  # imports the library: needs src/ on the path
    from repro.engine import fault_plan_from_env
    from repro.obs import get_registry

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    problems = []
    if get_registry().enabled or fault_plan_from_env() is not None:
        problems.append("telemetry or fault injection active in the untraced run")
    shm_before = harness.shm_blocks()
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
    wl.make_inputs()

    # setup_s is an end-to-end figure, so a traced run sets up only once.
    setup_s = []
    for repeat in range(1 if args.trace else wl.setup_repeats):
        if repeat:
            wl.teardown()
        gc.collect()
        start = time.perf_counter()
        wl.setup(telemetry=False)
        setup_s.append(time.perf_counter() - start)
    problems += wl.check_setup()

    # The first op after a set-up pays one-off costs (first reads of freshly
    # written files, lazy initialisation) that later ops do not, so each
    # measured phase starts after one op that is checked but not timed.
    phase_s = args.seconds / 2 if args.trace else args.seconds
    warm = [wl.measure(0.0)]
    gc.collect()
    plain = wl.measure(phase_s)
    if get_registry().enabled:
        problems.append("telemetry registry enabled during the untraced phase")
    phases = [plain]

    if args.trace:
        wl.teardown()
        tracer = harness.Tracer()
        workloads.instrument(tracer)
        wl.tracer = tracer
        try:
            wl.setup(telemetry=True)
            setup_layers = tracer.take()
            warm.append(wl.measure(0.0))
            get_registry().drain()
            # Service stats are a view over the registry: read both ends
            # before draining it.
            stats_before = wl.service_stats()
            traced = wl.measure(phase_s)
            service = _stats_change(stats_before, wl.service_stats())
            delta = get_registry().drain()
        finally:
            tracer.restore()
            wl.tracer = harness.NullTracer()
        phases.append(traced)

    spikes, probe_problems = wl.probe()
    problems += probe_problems
    if args.trace:
        metrics = per_layer(wl, plain, traced, setup_layers, delta, service)
    else:
        metrics = end_to_end(wl, setup_s, plain, spikes)
    wl.teardown()
    leaks = harness.leaked_resources(shm_before)
    if leaks["processes"] or leaks["shm"]:
        problems.append(f"leaked after the workload: {leaks}")

    attempted = sum(p.attempted for p in phases + warm)
    failed = sum(p.failed for p in phases + warm)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": [p.attempted for p in phases],
        "fail_frac": failed / attempted,
        "problems": problems,
        "fingerprint": harness.fingerprint(ROOT, wl.workers),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(json.dumps({"perfbench": report}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no library source under {src}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    harness.single_malloc_arena()
    sys.path.insert(0, src)
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    # Everything temporary, the artifact store included, stays in the run's
    # scratch directory; the user's ~/.cache/repro is never touched.
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_ARTIFACT_DIR"] = os.path.join(tmp, "artifacts")
    tempfile.tempdir = tmp
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

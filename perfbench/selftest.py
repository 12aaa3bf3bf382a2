#!/usr/bin/env python3
"""Self-test of the benchmark: a very short run of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, runs the benchmark command once
untraced and once traced with ``--seconds 1`` and checks that the last line
holds exactly the agreed keys, that every named metric is emitted with its
unit, that end-to-end metrics are non-zero, that ``fail_frac == 0`` and that
on the in-process workloads ``trace.layer_coverage`` is at least 0.9.  It
then copies only BENCHMARK.json and the benchmark's own files into an empty
directory and checks the command fails there without printing a result.
Exits non-zero on the first violation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180
#: Least share of an in-process op's time the non-nested spans must cover.
MIN_LAYER_COVERAGE = 0.9


def _run(spec, cwd, workload, trace):
    args = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(spec, workload, trace):
    proc = _run(spec, ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line)["perfbench"], json.loads(result_line)
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: not clean: {result}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        raise AssertionError(f"{label}: metric names {sorted(metrics)}")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {m['name']} reported as {got}")
        if not trace and not got["value"] > 0:
            raise AssertionError(f"{label}: {m['name']} is {got['value']}")
    if report["fail_frac"] != 0:
        raise AssertionError(f"{label}: fail_frac {report['fail_frac']}")
    # On an in-process workload the traced layers must account for the op.
    if trace and report["fingerprint"]["workers"] == 1:
        coverage = metrics["trace.layer_coverage"]["value"]
        if coverage < MIN_LAYER_COVERAGE:
            raise AssertionError(f"{label}: trace.layer_coverage {coverage} < {MIN_LAYER_COVERAGE}")
    print(f"ok  {label}: {result['attempted']} ops")


def check_bare_directory(spec):
    """Without the library source the command must fail and print no result."""
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"ok  bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

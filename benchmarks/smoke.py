"""Smoke test of the benchmark at a tiny size.

    python3 benchmarks/smoke.py

Runs every workload at n=2 with 4 steps, untraced and traced, for one second
each, and checks that

- the metric tables of harness.py name, unit and direct every metric as
  BENCHMARK.json does, and each run emits every one of them with its unit;
- a correct run reports `correct: true` and a run whose recorded error norms
  are wrong reports the failure;
- every name the tracer wraps is back in place after the traced run, and the
  traced self times add up to the traced wall time;
- run.py exits with an error and prints no result where the program's
  sources are missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _tiny(workload):
    return dataclasses.replace(workload, n=2, steps=4)


def _reference(workload, mesh_path):
    """Errors and exact counts of one traced run, as reference.json has them."""
    import harness
    import spans
    import workloads
    from sfwg import errors

    tracer = spans.Tracer()
    with spans.traced(tracer), tracer.span("run"):
        result = workloads.run_pipeline(workload, mesh_path,
                                        errors.default_solution())
    layers = spans.layer_metrics(tracer)
    counts = {**result.counts,
              **{key: layers[key] for key in harness.TRACED_COUNTS}}
    return {"errors": result.errors, "counts": counts,
            "seed_dependent_counts": []}


def _check_metrics(failures, label, result, table):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(table):
        failures.append(f"{label}: metrics {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if metric["unit"] != table[name][0]:
            failures.append(f"{label}: {name} has unit {metric['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r}")


def check_tables(failures):
    import harness
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        if declared != table:
            failures.append(f"BENCHMARK.json {key} differs from harness.py")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")


def check_runs(failures):
    import harness
    import spans
    import workloads

    for workload in map(_tiny, workloads.WORKLOADS.values()):
        workdir = HERE / "_work" / "smoke"
        try:
            reference = _reference(
                workload, workloads.write_inputs(workload, 1, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for trace, table in ((0, harness.END_TO_END), (1, harness.PER_LAYER)):
            label = f"{workload.name} trace={trace}"
            result, record = harness.run(workload, 1, 1.0, trace, reference)
            _check_metrics(failures, label, result, table)
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {record['problems']}")
            if trace and spans.unrestored():
                failures.append(f"{label}: not restored {spans.unrestored()}")
        wrong = dict(reference, errors={key: 10.0 * val for key, val
                                        in reference["errors"].items()})
        result, _ = harness.run(workload, 1, 1.0, 0, wrong)
        if result["correct"] or not result["failed"]:
            failures.append(f"{workload.name}: wrong error norms not caught")


def check_bare_directory(failures):
    """run.py must fail, printing no result, without the program's sources."""
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / HERE.name).mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / HERE.name)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "tri-k2-n32",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("run.py succeeded without the program's sources")


def main():
    run.pin_environment()
    run.import_program()
    failures = []
    check_tables(failures)
    check_runs(failures)
    check_bare_directory(failures)
    for text in failures:
        print(f"FAIL {text}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

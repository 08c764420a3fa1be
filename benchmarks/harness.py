"""Benchmark of the sfwg transient pipeline: timing loop, metrics, record.

With `--trace 0` the metrics are the end-to-end ones, measured untraced:
at least two full pipeline runs, more while they fit in `--seconds`, then
set-up-only runs while those fit, for more `setup_s` samples. With
`--trace 1` the first half of the time goes to untraced runs and the second
to traced runs (at least one of each), and the metrics are the per-module
ones of `spans.py` (medians over the traced runs) plus the tracing overhead.

Import this module only after `run.pin_environment()` and
`run.import_program()`, since it imports numpy and sfwg.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads
from sfwg import errors

HERE = Path(__file__).resolve().parent

#: name -> (unit, better); mirrored by BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "march_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "err_trb": ("norm", "lower"),
    "err_h2": ("norm", "lower"),
    "err_l2": ("norm", "lower"),
}

TRACED_COUNTS = (
    "fespace.basis_evals", "fespace.quad_builds", "weakcalc.local_ops",
    "weakcalc.interpolates", "assembly.load_evals", "assembly.bproj_evals",
    "driver.factorizations", "driver.factor_nnz", "driver.solves",
)

PER_LAYER = {
    "mesh.build_s": ("s", "lower"),
    "mesh.cells": ("count", "lower"),
    "mesh.edges": ("count", "lower"),
    "fespace.dofmap_s": ("s", "lower"),
    "fespace.dofs": ("count", "lower"),
    "fespace.free_dofs": ("count", "lower"),
    "fespace.basis_eval_s": ("s", "lower"),
    "fespace.basis_evals": ("count", "lower"),
    "fespace.quad_build_s": ("s", "lower"),
    "fespace.quad_builds": ("count", "lower"),
    "weakcalc.local_op_s": ("s", "lower"),
    "weakcalc.local_ops": ("count", "lower"),
    "weakcalc.interpolate_s": ("s", "lower"),
    "weakcalc.interpolates": ("count", "lower"),
    "weakcalc.cond_warnings": ("count", "lower"),
    "assembly.stiffness_self_s": ("s", "lower"),
    "assembly.mass_s": ("s", "lower"),
    "assembly.load_setup_s": ("s", "lower"),
    "assembly.bproj_setup_s": ("s", "lower"),
    "assembly.A_nnz": ("count", "lower"),
    "assembly.load_eval_ms": ("ms", "lower"),
    "assembly.load_evals": ("count", "lower"),
    "assembly.bproj_eval_ms": ("ms", "lower"),
    "assembly.bproj_evals": ("count", "lower"),
    "driver.factor_s": ("s", "lower"),
    "driver.factorizations": ("count", "lower"),
    "driver.factor_nnz": ("count", "lower"),
    "driver.init_state_s": ("s", "lower"),
    "driver.solve_ms": ("ms", "lower"),
    "driver.solves": ("count", "lower"),
    "driver.solve_bytes": ("B", "lower"),
    "driver.step_self_ms": ("ms", "lower"),
    "driver.solve_relres_max": ("ratio", "lower"),
    "errors.eval_s": ("s", "lower"),
    "errors.norm_2h_s": ("s", "lower"),
    "mesh.self_s": ("s", "lower"),
    "fespace.self_s": ("s", "lower"),
    "weakcalc.self_s": ("s", "lower"),
    "assembly.self_s": ("s", "lower"),
    "driver.self_s": ("s", "lower"),
    "errors.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

#: Size of the untimed warm-up run that fills the library's quadrature caches.
WARMUP_N, WARMUP_STEPS = 2, 2


class Session:
    """Repeated pipeline runs of one workload with their checks."""

    def __init__(self, workload, mesh_path, reference):
        self.workload = workload
        self.mesh_path = mesh_path
        self.reference = reference
        self.solution = errors.default_solution()
        self.attempted = 0
        self.problems = []
        self.full = []
        self.setups = []
        self.traced = []
        self.peak_rss_mb = math.nan

    def warm_up(self, seed, workdir):
        """One untimed run at a tiny size, so the library's quadrature
        caches are filled before anything is timed."""
        tiny = dataclasses.replace(self.workload, n=WARMUP_N,
                                   steps=WARMUP_STEPS)
        try:
            workloads.run_pipeline(
                tiny, workloads.write_inputs(tiny, seed, workdir),
                self.solution)
        except Exception:  # reported; the timed runs show whether it repeats
            traceback.print_exc()
            self.problems.append((-1, "warm-up run raised"))

    @property
    def failed(self):
        return len({index for index, _ in self.problems})

    def attempt(self, setup_only=False, tracer=None):
        """One checked run; returns its result, or None if it raised."""
        index = self.attempted
        self.attempted += 1
        try:
            if tracer is None:
                result = workloads.run_pipeline(
                    self.workload, self.mesh_path, self.solution, setup_only)
            else:
                with spans.traced(tracer), tracer.span("run"):
                    result = workloads.run_pipeline(
                        self.workload, self.mesh_path, self.solution)
                layers = spans.layer_metrics(tracer)
                result.layers = {**result.counts, **layers}
                result.counts.update({key: layers[key]
                                      for key in TRACED_COUNTS})
            problems = workloads.check_run(self.workload, result,
                                           self.reference)
        except Exception:  # a run that raises is a failed operation
            traceback.print_exc()
            self.problems.append((index, "raised; traceback on stderr"))
            return None
        finally:
            gc.collect()
        if tracer is not None:
            problems += _accounting_problems(result.layers)
        self.problems += [(index, text) for text in problems]
        if not (setup_only or tracer or self.full):
            # later runs add allocator fragmentation, not workload memory
            self.peak_rss_mb = _peak_rss_mb()
        (self.setups if setup_only else
         self.traced if tracer is not None else self.full).append(result)
        return result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _accounting_problems(layers):
    parts = sum(layers[f"{m}.self_s"] for m in spans.MODULES + ("bench",))
    parts += layers["trace.unattributed_s"]
    gap = abs(parts - layers["trace.wall_s"])
    if gap > 1e-6 * max(layers["trace.wall_s"], 1.0):
        return [f"self times add up to {parts!r} s, traced wall "
                f"{layers['trace.wall_s']!r} s"]
    return []


#: Full runs an untraced measurement makes even past its deadline, so that a
#: median never rests on a single run of the largest workload.
MIN_FULL_RUNS = 2


def _repeat(until, make_run, estimate=None, at_least=1):
    """Call make_run at least `at_least` times, then while the next call is
    expected to end before `until`.

    The expected length of a call is the longest one seen so far, or
    `estimate` if none has run. Returns the longest call.
    """
    longest = estimate
    calls = 0
    while calls < at_least or time.perf_counter() + longest <= until:
        began = time.perf_counter()
        make_run()
        calls += 1
        longest = max(longest or 0.0, time.perf_counter() - began)
    return longest


def measure(session, seconds, trace):
    """Fill `seconds` with checked runs, as the module docstring says."""
    start = time.perf_counter()
    deadline = start + seconds
    if not trace:
        longest = _repeat(deadline, session.attempt, at_least=MIN_FULL_RUNS)
        setup = max((r.setup_s for r in session.full), default=longest)
        _repeat(deadline, lambda: session.attempt(setup_only=True), setup,
                at_least=0)
        return
    _repeat(start + 0.5 * seconds, session.attempt)
    _repeat(deadline, lambda: session.attempt(tracer=spans.Tracer()))


def _median(values):
    return statistics.median(values) if values else math.nan


def _number(value):
    """JSON has no NaN: a metric or timing that was not measured is null."""
    return None if value is None or math.isnan(value) else value


def end_to_end_metrics(session):
    full = session.full
    steps = np.concatenate([r.step_ms for r in full]) if full else np.empty(0)
    first = full[0].errors if full else {}
    values = {
        "setup_s": _median([r.setup_s for r in full + session.setups]),
        "march_s": _median([r.march_s for r in full]),
        "wall_s": _median([r.wall_s for r in full]),
        "step_ms_p50": float(np.percentile(steps, 50)) if len(steps) else math.nan,
        "step_ms_p90": float(np.percentile(steps, 90)) if len(steps) else math.nan,
        "peak_rss_mb": session.peak_rss_mb,
    }
    for key in ("trb", "h2", "l2"):
        values[f"err_{key}"] = first.get(key, math.nan)
    samples = {"setup_s": len(full) + len(session.setups),
               "march_s": len(full), "wall_s": len(full),
               "step_ms_p50": len(steps), "step_ms_p90": len(steps),
               "peak_rss_mb": 1}
    for key in ("err_trb", "err_h2", "err_l2"):
        samples[key] = len(full)
    return values, samples


def per_layer_metrics(session):
    traced = session.traced
    values = {name: _median([r.layers[name] for r in traced])
              for name in PER_LAYER if name != "trace.overhead_s"}
    for name, (unit, _) in PER_LAYER.items():
        if unit == "count" and traced:  # identical in every run, or failed
            values[name] = traced[0].layers[name]
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - _median([r.wall_s for r in session.full]))
    samples = dict.fromkeys(values, len(traced))
    return values, samples


def _repeat_problems(session):
    """Outputs and counts must be identical in every run of one process."""
    runs = session.full + session.traced
    problems = []
    for r in runs[1:]:
        if r.errors != runs[0].errors:
            problems.append(f"error norms differ between runs: {r.errors} "
                            f"vs {runs[0].errors}")
    for r in runs[1:] + session.setups:
        for key, val in r.counts.items():
            if key in runs[0].counts and val != runs[0].counts[key]:
                problems.append(f"count {key} differs between runs")
    return problems


def environment(nproc, seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(workload, seed, seconds, trace, reference):
    """Measure one workload; returns (result line, record)."""
    workdir = HERE / "_work" / str(os.getpid())
    try:
        mesh_path = workloads.write_inputs(workload, seed, workdir)
        session = Session(workload, mesh_path, reference)
        session.warm_up(seed, workdir)
        measure(session, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    repeat = _repeat_problems(session)
    session.problems += [(-1, text) for text in repeat]
    if trace:
        values, samples = per_layer_metrics(session)
        units = PER_LAYER
    else:
        values, samples = end_to_end_metrics(session)
        units = END_TO_END
    measured = session.traced if trace else session.full
    failed = session.failed
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": min(failed, session.attempted),
        "metrics": {name: {"value": _number(values[name]),
                           "unit": units[name][0]}
                    for name in units},
    }
    record = {
        "workload": dataclasses.asdict(workload),
        "trace": trace,
        "runs": {"full": len(session.full), "setup_only": len(session.setups),
                 "traced": len(session.traced)},
        "samples": samples,
        "per_run": [{"setup_s": r.setup_s, "march_s": _number(r.march_s),
                     "wall_s": _number(r.wall_s),
                     "step_ms_p50": (float(np.median(r.step_ms))
                                     if len(r.step_ms) else None)}
                    for r in session.full + session.setups + session.traced],
        "counts": measured[0].counts if measured else {},
        "other_warnings": sum(r.other_warnings for r in
                              session.full + session.setups + session.traced),
        "problems": [text for _, text in session.problems],
    }
    return result, record


def main(argv, nproc):
    """Measure the workload named on the command line; returns the exit code."""
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[workload.name]
    result, record = run(workload, args.seed, args.seconds, args.trace,
                         reference)
    record["environment"] = environment(nproc, args.seed)
    for name, metric in result["metrics"].items():
        print(f"{workload.name:16s} {name:28s} {metric['value']} "
              f"{metric['unit']}  (n={record['samples'][name]})")
    for text in record["problems"]:
        print(f"FAILED CHECK: {text}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

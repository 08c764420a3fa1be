"""Span tracing of the sfwg pipeline from outside the program.

`traced(tracer)` replaces the public names of the pipeline's modules with
wrappers that record a span per call: its name, start, end and parent. Spans
stay in memory; `layer_metrics` turns them into the per-module numbers when
the run is over. Every replaced name is put back when the block exits, and
`unrestored()` lists any that was not.

Some names are imported into other modules by name (`from .fespace import
cell_quadrature`), so they are replaced in each module that uses them. The
cell basis is traced at `CellBasis.eval`, the method every `cell_basis(...)`
result calls, so no evaluation is missed whichever module built the basis.
`splu` is replaced in `sfwg.driver`; its wrapper records the L+U nonzero
count of every factorization and the relative residual of every solve.

A span named `bench.*` is the benchmark's own work inside the traced run
(residuals, factor sizes); it is reported apart from the program's modules.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from sfwg import assembly, driver, errors, fespace, mesh as meshmod, weakcalc

#: The program's modules that get spans, in pipeline order.
MODULES = ("mesh", "fespace", "weakcalc", "assembly", "driver", "errors")

#: Bytes a triangular solve reads per stored factor entry: an 8-byte value
#: and a 4-byte row index. Vector traffic and cache reuse are ignored.
BYTES_PER_FACTOR_NNZ = 12

_TARGETS = [
    (meshmod, "build_uniform_triangle_mesh", "mesh.build"),
    (meshmod, "read_mesh_file", "mesh.build"),
    (fespace, "build_dofmap", "fespace.dofmap"),
    (fespace.CellBasis, "eval", "fespace.basis_eval"),
    (weakcalc, "local_weak_laplacian", "weakcalc.local_op"),
    (weakcalc, "interpolate", "weakcalc.interpolate"),
    (assembly, "assemble_stiffness", "assembly.stiffness"),
    (assembly, "assemble_mass_v0", "assembly.mass"),
    (assembly.LoadAssembler, "__init__", "assembly.load_setup"),
    (assembly.LoadAssembler, "assemble", "assembly.load_eval"),
    (assembly.BoundaryProjector, "__init__", "assembly.bproj_setup"),
    (assembly.BoundaryProjector, "values", "assembly.bproj_eval"),
    (driver.TransientProblem, "__init__", "driver.problem_setup"),
    (driver.TransientProblem, "run", "driver.run"),
    (driver.TransientProblem, "initial_state", "driver.init_state"),
    (driver.ThetaStepper, "step", "driver.step"),
    (errors, "evaluate_errors", "errors.eval"),
    (errors, "norm_2h", "errors.norm_2h"),
] + [(module, name, "fespace.quad_build")
     for module in (weakcalc, assembly, errors)
     for name in ("cell_quadrature", "edge_quadrature")]

_ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr, _ in _TARGETS}
_ORIGINALS[(driver, "splu")] = vars(driver)["splu"]


class Tracer:
    """In-memory span store for one traced pipeline run."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []
        self.factor_nnz = []
        self.solves = []  # (L+U nnz of the factor used, relative residual)

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def wrap_splu(self, splu):
        factor = self.wrap(splu, "driver.factor")

        @functools.wraps(splu)
        def traced(matrix, *args, **kwargs):
            return _TracedLU(self, factor(matrix, *args, **kwargs), matrix)
        return traced


class _TracedLU:
    """A SuperLU factorization whose solves are spans with a residual."""

    def __init__(self, tracer, lu, matrix):
        self._tracer = tracer
        self._lu = lu
        self._matrix = matrix
        self._solve = tracer.wrap(lu.solve, "driver.solve")
        with tracer.span("bench.factor_nnz"):
            self._nnz = lu.L.nnz + lu.U.nnz
        tracer.factor_nnz.append(self._nnz)

    def solve(self, rhs, *args, **kwargs):
        x = self._solve(rhs, *args, **kwargs)
        with self._tracer.span("bench.relres"):
            scale = np.linalg.norm(rhs)
            res = np.linalg.norm(self._matrix @ x - rhs)
            self._tracer.solves.append(
                (self._nnz, res / scale if scale else res))
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


@contextmanager
def traced(tracer):
    """Wrap every traced name for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _TARGETS:
            saved.append((owner, attr))
            setattr(owner, attr, tracer.wrap(_ORIGINALS[(owner, attr)], name))
        saved.append((driver, "splu"))
        driver.splu = tracer.wrap_splu(_ORIGINALS[(driver, "splu")])
        yield tracer
    finally:
        for owner, attr in saved:
            setattr(owner, attr, _ORIGINALS[(owner, attr)])


def unrestored():
    """Names whose original object is not in place; empty after `traced`."""
    return sorted(f"{getattr(owner, '__name__', owner)}.{attr}"
                  for (owner, attr), orig in _ORIGINALS.items()
                  if vars(owner)[attr] is not orig)


def layer_metrics(tracer):
    """Per-module metrics of one traced run whose root span is span 0.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, since the pipeline is one thread. The
    module self times plus the root's own self time (`trace.unattributed_s`)
    add up to the root's duration (`trace.wall_s`).
    """
    starts = np.asarray(tracer.starts)
    dur = np.asarray(tracer.ends) - starts
    parents = np.asarray(tracer.parents)
    children = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(children, parents[has_parent], dur[has_parent])
    own = dur - children

    count, incl, excl = {}, {}, {}
    module_self = dict.fromkeys(MODULES + ("bench",), 0.0)
    for i, name in enumerate(tracer.names[1:], start=1):
        count[name] = count.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        excl[name] = excl.get(name, 0.0) + own[i]
        module_self[name.split(".", 1)[0]] += own[i]

    def per_call_ms(name):
        return incl.get(name, 0.0) / count[name] * 1e3 if count.get(name) else 0.0

    solves = np.asarray(tracer.solves, dtype=float).reshape(-1, 2)
    metrics = {
        "mesh.build_s": incl.get("mesh.build", 0.0),
        "fespace.dofmap_s": incl.get("fespace.dofmap", 0.0),
        "fespace.basis_eval_s": incl.get("fespace.basis_eval", 0.0),
        "fespace.basis_evals": count.get("fespace.basis_eval", 0),
        "fespace.quad_build_s": incl.get("fespace.quad_build", 0.0),
        "fespace.quad_builds": count.get("fespace.quad_build", 0),
        "weakcalc.local_op_s": incl.get("weakcalc.local_op", 0.0),
        "weakcalc.local_ops": count.get("weakcalc.local_op", 0),
        "weakcalc.interpolate_s": incl.get("weakcalc.interpolate", 0.0),
        "weakcalc.interpolates": count.get("weakcalc.interpolate", 0),
        "assembly.stiffness_self_s": excl.get("assembly.stiffness", 0.0),
        "assembly.mass_s": incl.get("assembly.mass", 0.0),
        "assembly.load_setup_s": incl.get("assembly.load_setup", 0.0),
        "assembly.bproj_setup_s": incl.get("assembly.bproj_setup", 0.0),
        "assembly.load_eval_ms": per_call_ms("assembly.load_eval"),
        "assembly.load_evals": count.get("assembly.load_eval", 0),
        "assembly.bproj_eval_ms": per_call_ms("assembly.bproj_eval"),
        "assembly.bproj_evals": count.get("assembly.bproj_eval", 0),
        "driver.factor_s": incl.get("driver.factor", 0.0),
        "driver.factorizations": count.get("driver.factor", 0),
        "driver.factor_nnz": max(tracer.factor_nnz, default=0),
        "driver.init_state_s": incl.get("driver.init_state", 0.0),
        "driver.solve_ms": per_call_ms("driver.solve"),
        "driver.solves": count.get("driver.solve", 0),
        "driver.solve_bytes": (BYTES_PER_FACTOR_NNZ * solves[:, 0].mean()
                               if len(solves) else 0.0),
        "driver.step_self_ms": (excl.get("driver.step", 0.0)
                                / count["driver.step"] * 1e3
                                if count.get("driver.step") else 0.0),
        "driver.solve_relres_max": solves[:, 1].max() if len(solves) else 0.0,
        "errors.eval_s": incl.get("errors.eval", 0.0),
        "errors.norm_2h_s": incl.get("errors.norm_2h", 0.0),
    }
    for module, seconds in module_self.items():
        metrics[f"{module}.self_s"] = seconds
    metrics["trace.wall_s"] = dur[0]
    metrics["trace.unattributed_s"] = own[0]
    metrics["trace.spans"] = len(tracer.names)
    return {key: float(val) if isinstance(val, (float, np.floating)) else int(val)
            for key, val in metrics.items()}

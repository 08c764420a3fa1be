"""The benchmark's workloads, their generated inputs, one timed pipeline run,
and the output checks.

A pipeline run is what a user of the library does to get a checked solution:
build or read the mesh, build the DOF map, assemble a `TransientProblem`,
march it to t_end with `.run(...)`, and evaluate the three error norms. Every
call goes through the module attributes of `sfwg.mesh`, `sfwg.fespace`,
`sfwg.driver` and `sfwg.errors`, so the tracer in `spans.py` sees them when
it has wrapped those names.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sfwg import driver, errors, fespace, mesh as meshmod, weakcalc

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Relative agreement demanded of the error norms of the fixed workloads with
#: the values recorded at the seed commit. Round-off is strongly amplified
#: here: perturbing every local P_j mass matrix by about one unit in the last
#: place moved err_l2 by 2.6e-6 (tri-k2-n32) and 6.2e-7 (tri-k3-n8-long),
#: relative. The tolerance is ten times the larger, so a change that only
#: reorders floating-point sums passes and a change of the scheme does not.
ERROR_RTOL = 3e-5

#: Jitter amplitude of the file-mesh workload, as a share of the mesh width.
JITTER = 0.2

#: Final time of every workload, where the error norms are taken.
T_END = 1.0


@dataclass(frozen=True)
class Workload:
    """One configuration of the transient solve.

    `mesh` is "tri" (uniform triangles, no random input) or "jitter-quad"
    (a seeded jittered square grid, written to a file and read back through
    `mesh_family="file"`). `check` is "exact" (error norms equal the recorded
    values to ERROR_RTOL) or "band" (each norm within `band` times the
    recorded uniform-mesh value, a rule that holds for any seed).
    """

    name: str
    mesh: str
    n: int
    k: int
    j: int
    theta: float
    steps: int
    check: str
    band: float = 3.0


WORKLOADS = {w.name: w for w in (
    Workload("tri-k2-n32", "tri", n=32, k=2, j=5, theta=0.5, steps=100,
             check="exact"),
    Workload("tri-k3-n8-long", "tri", n=8, k=3, j=7, theta=0.5, steps=1024,
             check="exact"),
    Workload("jitter-quad-k3", "jitter-quad", n=12, k=3, j=9, theta=1.0,
             steps=100, check="band"),
)}


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def jitter_quad_mesh(n, seed):
    """n x n square grid with every vertex moved by a seeded uniform jitter.

    Interior vertices move by up to JITTER * h in each coordinate; boundary
    vertices other than the corners slide along their side by up to the same
    amount. A corner of a grid square sits h/sqrt(2) from the diagonal through
    its two neighbours; the corner moves by at most sqrt(2) * JITTER * h and
    the diagonal by at most the same, which leaves a gap of at least 0.14 h,
    so every cell stays strictly convex.
    """
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    grid = np.arange(n + 1) * h
    x, y = np.meshgrid(grid, grid)
    verts = np.column_stack([x.ravel(), y.ravel()])
    shift = rng.uniform(-JITTER * h, JITTER * h, size=verts.shape)
    ix = np.tile(np.arange(n + 1), n + 1)
    iy = np.repeat(np.arange(n + 1), n + 1)
    on_x_side = (ix == 0) | (ix == n)
    on_y_side = (iy == 0) | (iy == n)
    shift[on_x_side, 0] = 0.0
    shift[on_y_side, 1] = 0.0
    verts = verts + shift
    cells = []
    for j in range(n):
        for i in range(n):
            ll = j * (n + 1) + i
            cells.append((ll, ll + 1, ll + n + 2, ll + n + 1))
    return meshmod.Mesh(verts, cells)


def write_inputs(workload, seed, directory):
    """Write the workload's generated input files; returns the mesh path.

    Only the jittered workload has one. The seed drives nothing else.
    """
    if workload.mesh != "jitter-quad":
        return None
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}-n{workload.n}-seed{seed}.mesh"
    meshmod.write_mesh_file(jitter_quad_mesh(workload.n, seed), path)
    return path


@dataclass
class RunResult:
    """Timings, outputs and program-visible counts of one pipeline run."""

    setup_s: float
    march_s: float = math.nan
    errors_s: float = math.nan
    step_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    errors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    other_warnings: int = 0

    @property
    def wall_s(self):
        return self.setup_s + self.march_s + self.errors_s


def _build_mesh(workload, mesh_path):
    if workload.mesh == "tri":
        return meshmod.build_uniform_triangle_mesh(workload.n)
    return meshmod.read_mesh_file(mesh_path)


def run_pipeline(workload, mesh_path, solution, setup_only=False):
    """One timed run of the pipeline; with `setup_only`, stop after set-up.

    Every ConditioningWarning is recorded and counted (the default filter
    would show only the first per call site). Other warnings are counted
    too and reported in the run record, so none is hidden.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        mesh = _build_mesh(workload, mesh_path)
        dofmap = fespace.build_dofmap(mesh, workload.k)
        problem = driver.TransientProblem(mesh, dofmap, workload.j,
                                          solution.f,
                                          solution.boundary_data())
        t1 = time.perf_counter()
        result = RunResult(setup_s=t1 - t0)
        if not setup_only:
            stamps = []
            u, _ = problem.run(workload.theta, workload.steps, T_END,
                               solution.psi, solution.grad_psi,
                               observer=lambda n, t, w: stamps.append(
                                   time.perf_counter()))
            t2 = time.perf_counter()
            errs = errors.evaluate_errors(u, solution, T_END, mesh,
                                          dofmap, problem.A, problem.M)
            t3 = time.perf_counter()
            result.march_s = t2 - t1
            result.errors_s = t3 - t2
            # stamps[0] closes step 1, so the differences time steps 2..P
            result.step_ms = np.diff(stamps) * 1e3
            result.errors = errs.as_dict()
            result.counts["observer_calls"] = len(stamps)
    cond = sum(issubclass(w.category, weakcalc.ConditioningWarning)
               for w in caught)
    result.other_warnings = len(caught) - cond
    result.counts.update({
        "mesh.cells": mesh.num_cells,
        "mesh.edges": mesh.num_edges,
        "fespace.dofs": dofmap.total_dofs,
        "fespace.free_dofs": len(dofmap.free_dofs),
        "assembly.A_nnz": problem.A.mat.nnz,
        "weakcalc.cond_warnings": cond,
    })
    return result


def check_run(workload, result, reference):
    """Problems with one run's outputs and counts; empty when it is correct.

    `reference` is the workload's entry of reference.json. Counts the run
    produced are compared exactly with the recorded ones, except those that
    depend on the seed; the error norms by the workload's rule.
    """
    problems = []
    for key, got in result.counts.items():
        if key in reference["seed_dependent_counts"]:
            continue
        want = reference["counts"].get(key)
        if got != want:
            problems.append(f"count {key} = {got}, recorded {want}")
    for key, got in result.errors.items():
        ref = reference["errors"][key]
        if not math.isfinite(got) or got <= 0.0:
            problems.append(f"err_{key} = {got!r} is not a positive number")
        elif workload.check == "exact":
            if abs(got - ref) > ERROR_RTOL * ref:
                problems.append(f"err_{key} = {got!r}, recorded {ref!r} "
                                f"(rtol {ERROR_RTOL:g})")
        elif max(got / ref, ref / got) > workload.band:
            problems.append(f"err_{key} = {got!r} is outside {workload.band}x "
                            f"of the uniform-mesh value {ref!r}")
    return problems

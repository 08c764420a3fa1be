"""Implicit theta-scheme time integration and the stationary biharmonic solve,
both on the operators a `TransientProblem` owns.

One step of

    (M/tau + theta A) U^n = (M/tau - (1-theta) A) U^{n-1}
                            + theta F^n + (1-theta) F^{n-1}

on the free DOFs, with boundary DOFs prescribed at t_n, is taken in
increment form (Beam and Warming's delta form): with K = M/(theta tau) + A,

    K D = (theta F^n + (1-theta) F^{n-1} - A U^{n-1}) / theta + boundary lift,

with D = G^n - U^{n-1} prescribed on the boundary, and U^n = U^{n-1} + D.
The right-hand side holds no M U/tau, so a step does one sparse matvec, and
the right-hand side does not grow as tau shrinks. theta = 1 is
backward Euler, theta = 1/2 Crank-Nicolson; theta in [1/2, 1] is
unconditionally dissipative. K is constant in time within a stage of the
run (the backward-Euler start-up, then the theta-steps), so each stage
factors it once (sparse LU) and reuses the factor for every step of the
stage; only one stage's factor is alive at a time.

The right-hand side theta F^n + (1-theta) F^{n-1} and the boundary values
G^n depend on t_n only, never on U^{n-1}. So `TransientProblem.run` samples
the data callables (the load and the two boundary callables) one level
ahead on one worker thread while the calling thread applies the previous
level's samples and takes its step: once per level, in time order, never two
at once. Everything else, the sparse maps of the samples, the solves and the
observer, stays on the calling thread. SuperLU's solve and numpy's ufuncs
release the GIL, so the two overlap.

`TransientProblem.stationary` solves A u = F on the free DOFs with the same
A, load map and boundary map at t = 0; with f = lap^2 u it realizes the
elliptic projection of u that the error analysis of the scheme splits
through.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from . import assembly, mesh as meshmod, weakcalc
from .fespace import WeakFunction, build_dofmap

MESH_FAMILIES = ("tri", "quad", "file")


class SolverError(RuntimeError):
    """A sparse factorization inside the driver failed (singular matrix)."""


class ConstrainedSolve:
    """Factored solve of K x = b on the DOFs `idx`, with every other entry of
    x prescribed.

    K[idx][:, idx] is factored once with SuperLU; a singular matrix, which
    SuperLU reports as a RuntimeError, is raised again as a SolverError
    naming `what`, the system being factored. This is the one place the
    driver factors a matrix.
    """

    def __init__(self, K, idx, what):
        self.size = K.shape[0]
        self.idx = np.asarray(idx, dtype=int)
        mask = np.ones(self.size, dtype=bool)
        mask[self.idx] = False
        self.fixed_idx = np.flatnonzero(mask)
        K = K.tocsr()
        try:
            self._lu = splu(K[self.idx][:, self.idx].tocsc())
        except RuntimeError as exc:
            raise SolverError(f"{what}: {exc}") from exc
        # only the coupling to the prescribed entries is kept for the lift
        self._coupling = K[self.idx][:, self.fixed_idx]

    def solve(self, rhs, fixed=None):
        """The full solution vector x.

        Off `idx`, x keeps the values of `fixed` (zero when it is None);
        the entries of `fixed` on `idx` are ignored. On `idx`, x solves
        K[idx, idx] x[idx] = rhs[idx] - K[idx, rest] fixed[rest], with
        `rest` every other entry: the prescribed values are lifted to the
        right-hand side.
        """
        b = np.asarray(rhs, dtype=float)[self.idx]
        if fixed is None:
            x = np.zeros(self.size)
        else:
            x = np.array(fixed, dtype=float)
            b = b - self._coupling @ x[self.fixed_idx]
        x[self.idx] = self._lu.solve(b)
        return x


def _check_tau(tau, name="tau"):
    """Raise ValueError unless the step tau is finite and positive with a
    finite reciprocal: the step matrix holds M/(theta tau), so a subnormal
    tau would overflow it."""
    if not (0.0 < tau < np.inf and 1.0 / float(tau) < np.inf):
        raise ValueError(f"{name} must be finite and > 0 with a finite "
                         f"reciprocal, got {tau}")


def _check_step(theta, tau):
    """Raise ValueError unless theta lies in [1/2, 1] and `_check_tau`
    accepts tau."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    _check_tau(tau)


def default_j(k, mesh_family, mesh=None):
    """The default j: k+3 on triangular meshes and k+6 on quadrilateral ones,
    the offsets used by the convergence tables.

    A file mesh, passed as `mesh`, gets k + max(3, N - 1), with N the
    largest number of edges of any cell, so the default is never below the
    coercivity threshold k + N - 1 that `assemble_stiffness` enforces.
    """
    if mesh_family == "quad":
        return k + 6
    if mesh_family == "file":
        return k + max(3, max(mesh.cell_groups) - 1)
    return k + 3


@dataclass
class SchemeConfig:
    """Run parameters for a transient solve; j defaults to `default_j`.

    k, j, steps and n must be integers (numpy integers are taken as ints);
    a bool or any other value raises a ValueError naming the field. A
    `"file"` configuration runs on `mesh`, a `Mesh` read by the caller
    (`mesh.read_mesh_file`); the configuration reads no file.
    """

    k: int = 2
    j: int | None = None
    theta: float = 1.0
    steps: int = 100
    t_end: float = 1.0
    mesh_family: str = "tri"
    n: int = 4
    mesh: meshmod.Mesh | None = None

    def __post_init__(self):
        for name in ("k", "j", "steps", "n"):
            value = getattr(self, name)
            if value is None and name == "j":
                continue
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [1/2, 1], got {self.theta}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        _check_tau(self.t_end / self.steps,
                   f"tau = t_end/steps = {self.t_end}/{self.steps}")
        if self.mesh_family not in MESH_FAMILIES:
            raise ValueError(f"unknown mesh family {self.mesh_family!r}")
        if self.mesh_family == "file" and self.mesh is None:
            raise ValueError("mesh_family 'file' needs mesh")
        if self.j is None:
            self.j = default_j(self.k, self.mesh_family, self.mesh)
        if self.j < self.k:
            raise ValueError(f"j must be >= k, got j={self.j}, k={self.k}")
        if self.mesh_family != "file" and self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def problem(self, f, boundary):
        """The TransientProblem of this configuration's mesh, degree k and
        j, for the load f and the boundary data; the step count, theta and
        t_end are arguments of its `run`."""
        if self.mesh_family == "tri":
            grid = meshmod.build_uniform_triangle_mesh(self.n)
        elif self.mesh_family == "quad":
            grid = meshmod.build_quad_mesh(self.n)
        else:
            grid = self.mesh
        return TransientProblem(grid, build_dofmap(grid, self.k), self.j, f,
                                boundary)


@dataclass
class StepDiagnostics:
    n: int
    t: float


class ThetaStepper:
    """One-step solver for the implicit theta scheme in increment form.

    M and A are `SparseSym`s. Holds the LU factorization of the constant
    K = M/(theta tau) + A on the free DOFs; safe to reuse across steps.
    """

    def __init__(self, M, A, free, theta, tau):
        _check_step(theta, tau)
        self.A = A.mat
        self.theta = float(theta)
        self._solver = ConstrainedSolve(M.mat / (self.theta * float(tau))
                                        + self.A, free,
                                        "step matrix M/(theta tau) + A")

    def step(self, u, load_prev, load_curr, g_curr=None):
        """Advance one step; u is the full vector at the previous level and
        g_curr the prescribed boundary values at the new one (zero when
        None).

        Solves K d = (theta F^n + (1-theta) F^{n-1} - A u) / theta for the
        increment d, with d = g_curr - u on the boundary, and returns u + d.
        """
        rhs = (self.theta * load_curr + (1.0 - self.theta) * load_prev
               - self.A @ u) / self.theta
        g = 0.0 if g_curr is None else g_curr
        return u + self._solver.solve(rhs, g - u)


class TransientProblem:
    """Assembled operators for the space of `dofmap`, reusable across runs;
    `mesh` must be `dofmap.mesh`, or a ValueError is raised."""

    def __init__(self, mesh, dofmap, j, f, boundary):
        if mesh is not dofmap.mesh:
            raise ValueError("mesh is not the mesh of the DOF map")
        self.dofmap = dofmap
        self.f = f
        self.A = assembly.assemble_stiffness(dofmap, j)
        self.M = assembly.assemble_mass_v0(dofmap)
        self._loads = assembly.LoadAssembler(dofmap)
        self._bproj = assembly.BoundaryProjector(dofmap, boundary)

    def initial_state(self, psi, grad_psi):
        """U^0 from the initial data.

        The interior blocks are the cell projections of psi and the boundary
        DOFs the edge projections. The edge DOFs carry no mass, so they act
        as algebraic constraints; projected edge values would violate those
        constraints at t=0, and the Crank-Nicolson step would then carry an
        undamped sign-alternating transient (the stiff-limit amplification
        is -(1-theta)/theta). The free edge DOFs therefore solve the edge
        rows of A, which is the state the time-continuous reduction of the
        scheme actually evolves.
        """
        wf = weakcalc.interpolate(psi, grad_psi, self.dofmap)
        dm = self.dofmap
        free = dm.free_dofs
        edge_free = free[free >= dm.trace_offset]
        if len(edge_free) == 0:
            return wf
        u = ConstrainedSolve(self.A.mat, edge_free, "edge block of A").solve(
            np.zeros(dm.total_dofs), wf.coeffs)
        return WeakFunction(dm, u)

    def stationary(self):
        """The stationary solve (Dw u_h, Dw v) = (f, v_0) for all v with zero
        boundary DOFs, with f and the boundary DOFs taken at t = 0."""
        u = ConstrainedSolve(self.A.mat, self.dofmap.free_dofs,
                             "reduced stiffness matrix").solve(
            self._loads.assemble(self.f, 0.0), self._bproj.values(0.0))
        return WeakFunction(self.dofmap, u)

    def run(self, theta, steps, t_end, psi, grad_psi, observer=None):
        """Run `steps` uniform theta-steps from t=0 to t_end.

        With theta < 3/4 the first step is replaced by two backward-Euler
        half-steps. Near theta = 1/2 the stiff-mode amplification factor
        -(1-theta)/theta approaches -1, so the discrete initial layer would
        otherwise ring undamped and flatten observed time-convergence rates;
        the damped start costs one O(tau^2) local error and keeps the scheme
        second order.

        The run goes in time order, so at most one factorization is alive at
        a time: theta and every stage's step are checked first (a
        ValueError before any work), then the consistent initial state is
        taken (its edge-block factor is released on return), then each
        stage with levels to reach, the backward-Euler start-up at
        theta < 3/4 and the theta-steps, factors its step matrix, advances,
        and releases the factor before the next stage factors. At
        theta < 3/4 the theta-step matrix is thus factored after level 1 is
        reported, and the observer's interval for level 2 includes that
        factorization.

        After the initial state, the data callables run on one worker
        thread, one level ahead of the step: the load f at t = 0, then f
        and the boundary data at each level (the half level included), once
        each, in time order, never two at once and never past t_end. They
        may run while the observer does. psi, grad_psi and the observer run
        on the calling thread. An exception raised by a data callable is
        raised again here when its level is due, and the worker is joined
        before `run` returns or raises.
        """
        tau = t_end / steps
        # (theta, tau, levels) per stage; a level is (t, n), with n None at
        # the unreported half level
        levels = [(n * tau, n) for n in range(1, steps + 1)]
        stages = [(theta, tau, levels)]
        if theta < 0.75:
            stages = [(1.0, 0.5 * tau, [(0.5 * tau, None), (tau, 1)]),
                      (theta, tau, levels[1:])]
        for stage_theta, stage_tau, _ in stages:
            _check_step(stage_theta, stage_tau)
        u = self.initial_state(psi, grad_psi).coeffs
        diagnostics = []
        free = self.dofmap.free_dofs
        with ThreadPoolExecutor(max_workers=1) as pool:
            samples = _one_ahead(pool, self._sample_level, [0.0] + [
                t for _, _, stage_levels in stages for t, _ in stage_levels])
            load_prev = self._loads.assemble(self.f, 0.0,
                                             samples=next(samples)[0])
            for stage_theta, stage_tau, stage_levels in stages:
                if stage_levels:
                    u, load_prev = self._advance(
                        ThetaStepper(self.M, self.A, free, stage_theta,
                                     stage_tau),
                        stage_levels, samples, u, load_prev, observer,
                        diagnostics)
        return WeakFunction(self.dofmap, u), diagnostics

    def _sample_level(self, t):
        """The samples of the load f at time t and, after t = 0, of the
        boundary data (None at t = 0, where no boundary values are used)."""
        return (self._loads.sample(self.f, t),
                self._bproj.sample(t) if t > 0.0 else None)

    def _advance(self, stepper, levels, samples, u, load_prev, observer,
                 diagnostics):
        """Step u to each level (t, n) in turn with `stepper`, reporting the
        levels with an n; `samples` yields each level's data samples.
        Returns u and the load at the last level.

        The stepper lives in this call's scope only, so its factor is
        released on return, before the caller builds the next one.
        """
        for t, n in levels:
            load_samples, boundary_samples = next(samples)
            load_curr = self._loads.assemble(self.f, t, samples=load_samples)
            u = stepper.step(u, load_prev, load_curr,
                             self._bproj.values(t, samples=boundary_samples))
            load_prev = load_curr
            if n is None:
                continue
            diagnostics.append(StepDiagnostics(n, t))
            if observer is not None:
                observer(n, t, WeakFunction(self.dofmap, u.copy()))
        return u, load_prev


def _one_ahead(pool, fn, items):
    """Yield fn(item) for each of `items` in order, each computed on `pool`
    while the caller works on the previous result.

    One call is in flight at a time, and none is submitted after a call
    raised or past the last item.
    """
    pending = pool.submit(fn, items[0])
    for item in items[1:]:
        done = pending.result()
        pending = pool.submit(fn, item)
        yield done
    yield pending.result()

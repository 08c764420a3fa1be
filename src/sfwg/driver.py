"""Implicit theta-scheme time integration and the stationary biharmonic solve,
both on the operators a `TransientProblem` owns.

`TransientProblem(mesh, dofmap, j, f, boundary)` is the one way to build a
problem: the `DofMap` is the discrete space (the mesh and degree k, which
it checks), and j, the degree of the weak Laplacian, is checked where the
stiffness is assembled. `default_j(k, mesh)` gives the default j. The
schedule, theta, steps and t_end, is given to `TransientProblem.run`.

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
unconditionally dissipative. K depends only on the (theta, tau) of a step,
which changes at most once in a run (from the backward-Euler start-up to
the theta-steps). `TransientProblem.run` is one loop over the time levels
that factors K (sparse LU) when the pair changes and reuses the factor
until then; only one factor is alive at a time.

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

import numbers
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse.linalg import splu

from . import assembly, weakcalc
from .fespace import WeakFunction, check_k, check_mesh
from .mesh import as_int

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
        self.idx = np.asarray(idx, dtype=int)
        mask = np.ones(K.shape[0], dtype=bool)
        mask[self.idx] = False
        self.fixed_idx = np.flatnonzero(mask)
        rows = K.tocsr()[self.idx]
        # only the coupling to the prescribed entries is kept for the lift
        self._coupling = rows[:, self.fixed_idx]
        block = rows[:, self.idx]
        # the row slice is freed before the column copy is made, so the
        # copy can reuse its memory; only the copy is alive while SuperLU
        # factors it, which sets the peak RSS
        del rows
        block = block.tocsc()
        try:
            self._lu = splu(block)
        except RuntimeError as exc:
            raise SolverError(f"{what}: {exc}") from exc

    def solve(self, rhs, fixed):
        """The full solution vector x.

        Off `idx`, x keeps the values of `fixed`; the entries of `fixed` on
        `idx` are ignored. On `idx`, x solves
        K[idx, idx] x[idx] = rhs[idx] - K[idx, rest] fixed[rest], with
        `rest` every other entry: the prescribed values are lifted to the
        right-hand side.
        """
        x = np.array(fixed, dtype=float)
        b = (np.asarray(rhs, dtype=float)[self.idx]
             - self._coupling @ x[self.fixed_idx])
        x[self.idx] = self._lu.solve(b)
        return x


def _as_real(name, value):
    """value as a float; a bool or a non-real value raises a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_tau(tau, name="tau"):
    """tau as a float, or a ValueError naming it unless it is a real number,
    finite and positive with a finite reciprocal: the step matrix holds
    M/(theta tau), so a subnormal tau would overflow it."""
    tau = _as_real(name, tau)
    if not (0.0 < tau < np.inf and 1.0 / tau < np.inf):
        raise ValueError(f"{name} must be finite and > 0 with a finite "
                         f"reciprocal, got {tau}")
    return tau


def _check_theta(theta):
    """theta as a float, or a ValueError naming theta unless it is a real
    number in [1/2, 1]."""
    theta = _as_real("theta", theta)
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    return theta


def _check_run(theta, steps, t_end):
    """The schedule of a run as (float theta, int steps, float t_end), or a
    ValueError naming the first bad one: steps must be an integer >= 1,
    theta one that `_check_theta` accepts, t_end a finite positive real
    number and tau = t_end/steps one that `_check_tau` accepts, as must
    tau/2 at theta < 3/4, where `TransientProblem.run` starts with two
    backward-Euler half steps."""
    steps = as_int("steps", steps)
    theta = _check_theta(theta)
    t_end = _as_real("t_end", t_end)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 < t_end < np.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    tau = _check_tau(t_end / steps, f"tau = t_end/steps = {t_end}/{steps}")
    if theta < 0.75:  # the backward-Euler start-up's half step
        _check_tau(0.5 * tau, "the half step tau/2")
    return theta, steps, t_end


def default_j(k, mesh):
    """The default j, k + max(3, N - 1) with N the largest number of edges
    of any cell of `mesh`: k + 3 on triangles and quadrilaterals, and never
    below the coercivity threshold k + N - 1 that `assemble_stiffness`
    enforces. k and the mesh are checked as `DofMap` checks them."""
    return check_k(k) + max(3, max(check_mesh(mesh).cell_groups) - 1)


class ThetaStepper:
    """One-step solver for the implicit theta scheme in increment form.

    M and A are `SparseSym`s. Holds the LU factorization of the constant
    K = M/(theta tau) + A on the free DOFs; safe to reuse across steps.
    theta and tau are checked as `TransientProblem.run` checks them: a
    ValueError names the bad one before anything is factored.
    """

    def __init__(self, M, A, free, theta, tau):
        self.theta = _check_theta(theta)
        tau = _check_tau(tau)
        self.A = A.mat
        self._solver = ConstrainedSolve(M.mat / (self.theta * tau)
                                        + self.A, free,
                                        "step matrix M/(theta tau) + A")

    def step(self, u, load_prev, load_curr, g_curr):
        """Advance one step; u is the full vector at the previous level and
        g_curr the prescribed boundary values at the new one, a full-length
        vector read on the boundary DOFs only.

        Solves K d = (theta F^n + (1-theta) F^{n-1} - A u) / theta for the
        increment d, with d = g_curr - u on the boundary, and returns u + d.
        """
        rhs = (self.theta * load_curr + (1.0 - self.theta) * load_prev
               - self.A @ u) / self.theta
        return u + self._solver.solve(rhs, g_curr - u)


class TransientProblem:
    """Assembled operators for the space of `dofmap` with the weak
    Laplacian in P_j, for the load f and the boundary data; reusable across
    runs. `mesh` must be `dofmap.mesh`, or a ValueError is raised; j is
    checked by `assembly.assemble_stiffness`, before any local operator is
    built."""

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
            self._loads.assemble(self._loads.sample(self.f, 0.0)),
            self._bproj.values(self._bproj.sample(0.0)))
        return WeakFunction(self.dofmap, u)

    def run(self, theta, steps, t_end, psi, grad_psi, observer=None):
        """Run `steps` uniform theta-steps from t=0 to t_end; return the
        final state and the reported levels, the (n, t) pairs the observer
        is called with, in time order.

        With theta < 3/4 the first step is replaced by two backward-Euler
        half-steps. Near theta = 1/2 the stiff-mode amplification factor
        -(1-theta)/theta approaches -1, so the discrete initial layer would
        otherwise ring undamped and flatten observed time-convergence rates;
        the damped start costs one O(tau^2) local error and keeps the scheme
        second order.

        The run is one loop over its time levels, in time order, each level
        with the (theta, tau) of its step. theta, steps and t_end are
        checked first (`_check_run`, which also checks the half step tau/2
        at theta < 3/4: a ValueError before any work); then the consistent
        initial state is taken (its edge-block factor is
        released on return). A level whose pair differs from the previous
        level's releases the live step factor and factors its own, so at
        most one factorization is alive at a time. At theta < 3/4 the
        theta-step matrix is thus factored after level 1 is reported, and
        the observer's interval for level 2 includes that factorization.

        After the initial state, the data callables run on one worker
        thread, one level ahead of the step: the load f at t = 0, then f
        and the boundary data at each level (the half level included), once
        each, in time order, never two at once and never past t_end. They
        may run while the observer does. psi, grad_psi and the observer run
        on the calling thread. An exception raised by a data callable is
        raised again here when its level is due, and the worker is joined
        before `run` returns or raises.
        """
        theta, steps, t_end = _check_run(theta, steps, t_end)
        tau = t_end / steps
        # (theta, tau, t, n) per level, with n None at the unreported half
        # level
        levels = [(theta, tau, n * tau, n) for n in range(1, steps + 1)]
        if theta < 0.75:
            levels[:1] = [(1.0, 0.5 * tau, 0.5 * tau, None),
                          (1.0, 0.5 * tau, tau, 1)]
        u = self.initial_state(psi, grad_psi).coeffs
        reported = []
        free = self.dofmap.free_dofs
        live = None
        with ThreadPoolExecutor(max_workers=1) as pool:
            load_samples, _ = pool.submit(self._sample_level, 0.0).result()
            pending = pool.submit(self._sample_level, levels[0][2])
            load_prev = self._loads.assemble(load_samples)
            for i, (level_theta, level_tau, t, n) in enumerate(levels):
                if (level_theta, level_tau) != live:
                    stepper = None  # release the live factor first
                    stepper = ThetaStepper(self.M, self.A, free, level_theta,
                                           level_tau)
                    live = (level_theta, level_tau)
                load_samples, boundary_samples = pending.result()
                if i + 1 < len(levels):
                    pending = pool.submit(self._sample_level, levels[i + 1][2])
                load_curr = self._loads.assemble(load_samples)
                u = stepper.step(u, load_prev, load_curr,
                                 self._bproj.values(boundary_samples))
                load_prev = load_curr
                if n is not None:
                    reported.append((n, t))
                    if observer is not None:
                        observer(n, t, WeakFunction(self.dofmap, u.copy()))
        return WeakFunction(self.dofmap, u), reported

    def _sample_level(self, t):
        """The samples of the load f at time t and, after t = 0, of the
        boundary data (None at t = 0, where no boundary values are used)."""
        return (self._loads.sample(self.f, t),
                self._bproj.sample(t) if t > 0.0 else None)

"""Implicit theta-scheme time integration and the stationary biharmonic solve.

One step solves

    (M/tau + theta A) U^n = (M/tau - (1-theta) A) U^{n-1}
                            + theta F^n + (1-theta) F^{n-1} + boundary lift

on the free DOFs, with boundary DOFs prescribed at t_n. theta = 1 is
backward Euler, theta = 1/2 Crank-Nicolson; theta in [1/2, 1] is
unconditionally dissipative. The step matrix is constant in time, so its
sparse LU factorization is built once and reused.
"""

from __future__ import annotations

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
    finite reciprocal: the step matrix holds M/tau, so a subnormal tau
    would overflow it."""
    if not (0.0 < tau < np.inf and 1.0 / float(tau) < np.inf):
        raise ValueError(f"{name} must be finite and > 0 with a finite "
                         f"reciprocal, got {tau}")


def default_j(k, mesh_family, mesh_path=None):
    """The default j: k+3 on triangular meshes and k+6 on quadrilateral ones,
    the offsets used by the convergence tables.

    A file mesh is read from `mesh_path` and gets k + max(3, N - 1), with N
    the largest number of edges of any cell, so the default is never below
    the coercivity threshold k + N - 1 that `assemble_stiffness` enforces.
    """
    if mesh_family == "quad":
        return k + 6
    if mesh_family == "file":
        cells = meshmod.read_mesh_file(mesh_path).cells
        return k + max(3, max(len(ring) for ring in cells) - 1)
    return k + 3


@dataclass
class SchemeConfig:
    """Run parameters for a transient solve; j defaults to `default_j`."""

    k: int = 2
    j: int | None = None
    theta: float = 1.0
    steps: int = 100
    t_end: float = 1.0
    mesh_family: str = "tri"
    n: int = 4
    mesh_path: str | None = None

    def __post_init__(self):
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
        if self.mesh_family == "file" and not self.mesh_path:
            raise ValueError("mesh_family 'file' needs mesh_path")
        if self.j is None:
            self.j = default_j(self.k, self.mesh_family, self.mesh_path)
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
            grid = meshmod.read_mesh_file(self.mesh_path)
        return TransientProblem(grid, build_dofmap(grid, self.k), self.j, f,
                                boundary)


@dataclass
class StepDiagnostics:
    n: int
    t: float


class ThetaStepper:
    """One-step solver for the implicit theta scheme.

    M and A are `SparseSym`s. Holds the LU factorization of the constant
    step matrix on the free DOFs; safe to reuse across steps.
    """

    def __init__(self, M, A, free, theta, tau):
        if not 0.5 <= theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")
        _check_tau(tau)
        self.M = M.mat
        self.A = A.mat
        self.theta = float(theta)
        self.tau = float(tau)
        self._solver = ConstrainedSolve(self.M / self.tau
                                        + self.theta * self.A, free,
                                        "step matrix M/tau + theta A")

    def step(self, u, load_prev, load_curr, g_curr=None):
        """Advance one step; u is the full vector at the previous level and
        g_curr the prescribed boundary values at the new one."""
        rhs = self.M @ (u / self.tau) + self.theta * load_curr \
            + (1.0 - self.theta) * load_prev \
            - (1.0 - self.theta) * (self.A @ u)
        return self._solver.solve(rhs, g_curr)


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

    def run(self, theta, steps, t_end, psi, grad_psi, observer=None):
        """Run `steps` uniform theta-steps from t=0 to t_end.

        With theta < 3/4 the first step is replaced by two backward-Euler
        half-steps. Near theta = 1/2 the stiff-mode amplification factor
        -(1-theta)/theta approaches -1, so the discrete initial layer would
        otherwise ring undamped and flatten observed time-convergence rates;
        the damped start costs one O(tau^2) local error and keeps the scheme
        second order.
        """
        tau = t_end / steps
        free = self.dofmap.free_dofs
        stepper = ThetaStepper(self.M, self.A, free, theta, tau)
        u = self.initial_state(psi, grad_psi).coeffs
        # (stepper, t, n) per solve; n is None at the unreported half level
        plan = [(stepper, n * tau, n) for n in range(1, steps + 1)]
        if theta < 0.75:
            be = ThetaStepper(self.M, self.A, free, 1.0, 0.5 * tau)
            plan[0:1] = [(be, 0.5 * tau, None), (be, tau, 1)]
        load_prev = self._loads.assemble(self.f, 0.0)
        diagnostics = []
        for st, t, n in plan:
            load_curr = self._loads.assemble(self.f, t)
            u = st.step(u, load_prev, load_curr, self._bproj.values(t))
            load_prev = load_curr
            if n is None:
                continue
            diagnostics.append(StepDiagnostics(n, t))
            if observer is not None:
                observer(n, t, WeakFunction(self.dofmap, u.copy()))
        return WeakFunction(self.dofmap, u), diagnostics


def solve_biharmonic(dofmap, j, f, boundary, t=0.0, A=None):
    """Stationary solve of the weak-Laplacian energy system.

    Solves (Dw u_h, Dw v) = (f, v_0) for all v with zero boundary DOFs,
    with boundary DOFs prescribed from `boundary` at time t. With
    f = lap^2 u this realizes the elliptic projection of u.
    """
    if A is None:
        A = assembly.assemble_stiffness(dofmap, j)
    F = assembly.LoadAssembler(dofmap).assemble(lambda _t, x, y: f(x, y), t)
    g = assembly.BoundaryProjector(dofmap, boundary).values(t)
    u = ConstrainedSolve(A.mat, dofmap.free_dofs,
                         "reduced stiffness matrix").solve(F, g)
    return WeakFunction(dofmap, u)

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

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from . import assembly, mesh as meshmod, weakcalc
from .fespace import DofMap, QuadratureConfig, WeakFunction, build_dofmap

MESH_FAMILIES = ("tri", "quad", "file")


class SolverError(RuntimeError):
    """A sparse factorization inside the driver failed (singular matrix)."""


def _factor(S, what):
    """SuperLU factorization of the square sparse matrix S.

    SuperLU reports a singular matrix as a RuntimeError; it is raised again
    as a SolverError naming `what`, the system being factored.
    """
    try:
        return splu(S.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"{what}: {exc}") from exc


def default_j(k, mesh_family):
    """The default j: k+3 on triangular and file meshes, k+6 on quadrilateral
    ones, the offsets used by the convergence tables."""
    return k + (6 if mesh_family == "quad" else 3)


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
    initialization: str = "consistent"
    startup: str = "auto"
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.j is None:
            self.j = default_j(self.k, self.mesh_family)
        if self.j < self.k:
            raise ValueError("j must be >= k")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.mesh_family not in MESH_FAMILIES:
            raise ValueError(f"unknown mesh family {self.mesh_family!r}")
        if self.mesh_family == "file" and not self.mesh_path:
            raise ValueError("mesh_family 'file' needs mesh_path")
        if self.mesh_family != "file" and self.n < 1:
            raise ValueError("n must be >= 1")
        if self.initialization not in ("consistent", "projection"):
            raise ValueError(f"unknown initialization {self.initialization!r}")
        if self.startup not in ("auto", "none"):
            raise ValueError(f"unknown startup {self.startup!r}")

    @property
    def tau(self):
        return self.t_end / self.steps

    def build_mesh(self):
        if self.mesh_family == "tri":
            return meshmod.build_uniform_triangle_mesh(self.n)
        if self.mesh_family == "quad":
            return meshmod.build_quad_mesh(self.n)
        return meshmod.read_mesh_file(self.mesh_path)


@dataclass
class StepDiagnostics:
    n: int
    t: float


class ThetaStepper:
    """One-step solver for the implicit theta scheme.

    Holds the LU factorization of the constant step matrix on the free
    DOFs; safe to reuse across steps.
    """

    def __init__(self, M, A, free, theta, tau):
        if not 0.5 <= theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.M = M.mat if isinstance(M, assembly.SparseSym) else M
        self.A = A.mat if isinstance(A, assembly.SparseSym) else A
        self.free = np.asarray(free, dtype=int)
        self.theta = float(theta)
        self.tau = float(tau)
        S = (self.M / self.tau + self.theta * self.A).tocsr()
        self._lu = _factor(S[self.free][:, self.free],
                           "step matrix M/tau + theta A")

    def step(self, u, load_prev, load_curr, g_curr=None):
        """Advance one step; u is the full vector at the previous level."""
        rhs = self.M @ (u / self.tau) + self.theta * load_curr \
            + (1.0 - self.theta) * load_prev \
            - (1.0 - self.theta) * (self.A @ u)
        rhs_f = rhs[self.free]
        if g_curr is not None:
            rhs_f = rhs_f - self.theta * (self.A @ g_curr)[self.free]
        u_next = np.zeros_like(u) if g_curr is None else g_curr.copy()
        u_next[self.free] = self._lu.solve(rhs_f)
        return u_next


class TransientProblem:
    """Assembled operators for one mesh and space, reusable across runs."""

    def __init__(self, mesh, dofmap, j, f, boundary, quad=QuadratureConfig()):
        self.mesh = mesh
        self.dofmap = dofmap
        self.k = dofmap.k
        self.j = j
        self.f = f
        self.boundary = boundary
        self.quad = quad
        self.A = assembly.assemble_stiffness(mesh, dofmap, self.k, j, quad)
        self.M = assembly.assemble_mass_v0(mesh, dofmap, self.k, quad)
        self._loads = assembly.LoadAssembler(mesh, dofmap, quad.load(self.k))
        self._bproj = assembly.BoundaryProjector(mesh, dofmap, boundary,
                                                 quad.load(self.k))

    def initial_state(self, psi, grad_psi, initialization="consistent"):
        """U^0 from the initial data.

        The interior blocks are always the cell projections of psi. In
        `projection` mode the edge blocks are the edge projections as well.
        The edge DOFs carry no mass, so they act as algebraic constraints;
        projected edge values violate those constraints at t=0 and the
        Crank-Nicolson step then carries an undamped sign-alternating
        transient (the stiff-limit amplification is -(1-theta)/theta). The
        default `consistent` mode therefore solves the edge-row constraint
        for the free edge DOFs, which is the state the time-continuous
        reduction of the scheme actually evolves.
        """
        wf = weakcalc.interpolate(psi, grad_psi, self.mesh, self.dofmap)
        if initialization == "projection":
            return wf
        if initialization != "consistent":
            raise ValueError(f"unknown initialization {initialization!r}")
        dm = self.dofmap
        free = dm.free_dofs
        edge_free = free[free >= dm.trace_offset]
        if len(edge_free) == 0:
            return wf
        u = wf.coeffs.copy()
        u[edge_free] = 0.0
        A_ee = self.A.mat[edge_free][:, edge_free]
        rhs = -(self.A.mat @ u)[edge_free]
        u[edge_free] = _factor(A_ee, "edge block of A").solve(rhs)
        return WeakFunction(dm, u)

    def run(self, theta, steps, t_end, psi, grad_psi, observer=None,
            initialization="consistent", startup="auto"):
        """Run `steps` uniform theta-steps from t=0 to t_end.

        With `startup="auto"` and theta < 3/4 the first step is replaced by
        two backward-Euler half-steps. Near theta = 1/2 the stiff-mode
        amplification factor approaches -1, so the discrete initial layer
        would otherwise ring undamped and flatten observed time-convergence
        rates; the damped start costs one O(tau^2) local error and keeps the
        scheme second order.
        """
        if startup not in ("auto", "none"):
            raise ValueError(f"unknown startup {startup!r}")
        tau = t_end / steps
        stepper = ThetaStepper(self.M, self.A, self.dofmap.free_dofs, theta,
                               tau)
        u = self.initial_state(psi, grad_psi, initialization).coeffs
        load_prev = self._loads.assemble(self.f, 0.0)
        diagnostics = []
        first = 1
        if startup == "auto" and theta < 0.75:
            be = ThetaStepper(self.M, self.A, self.dofmap.free_dofs, 1.0,
                              0.5 * tau)
            for half in (0.5 * tau, tau):
                load_half = self._loads.assemble(self.f, half)
                g = self._bproj.values(half)
                u = be.step(u, load_prev, load_half, g)
                load_prev = load_half
            diagnostics.append(StepDiagnostics(1, tau))
            if observer is not None:
                observer(1, tau, WeakFunction(self.dofmap, u.copy()))
            first = 2
        for n in range(first, steps + 1):
            t = n * tau
            load_curr = self._loads.assemble(self.f, t)
            g = self._bproj.values(t)
            u = stepper.step(u, load_prev, load_curr, g)
            load_prev = load_curr
            diagnostics.append(StepDiagnostics(n, t))
            if observer is not None:
                observer(n, t, WeakFunction(self.dofmap, u.copy()))
        return WeakFunction(self.dofmap, u), diagnostics


@dataclass
class TransientResult:
    u: WeakFunction
    mesh: object
    dofmap: DofMap
    A: assembly.SparseSym
    M: assembly.SparseSym
    diagnostics: list


def run_transient(config, f, psi, grad_psi, boundary, observer=None):
    """Build the discrete problem from a config and run the theta scheme."""
    mesh = config.build_mesh()
    dofmap = build_dofmap(mesh, config.k)
    problem = TransientProblem(mesh, dofmap, config.j, f, boundary,
                               config.quadrature)
    u, diagnostics = problem.run(config.theta, config.steps, config.t_end,
                                 psi, grad_psi, observer=observer,
                                 initialization=config.initialization,
                                 startup=config.startup)
    return TransientResult(u, mesh, dofmap, problem.A, problem.M, diagnostics)


def solve_biharmonic(mesh, dofmap, j, f, boundary, t=0.0,
                     quad=QuadratureConfig(), A=None):
    """Stationary solve of the weak-Laplacian energy system.

    Solves (Dw u_h, Dw v) = (f, v_0) for all v with zero boundary DOFs,
    with boundary DOFs prescribed from `boundary` at time t. With
    f = lap^2 u this realizes the elliptic projection of u.
    """
    k = dofmap.k
    if A is None:
        A = assembly.assemble_stiffness(mesh, dofmap, k, j, quad)
    F = assembly.assemble_load(lambda _t, x, y: f(x, y), t, mesh, dofmap, k,
                               quad.load(k))
    g = assembly.boundary_values(mesh, dofmap, boundary, t)
    A_ff, b_f, _ = assembly.reduce_system(A, F, dofmap, g)
    x = _factor(A_ff.mat, "reduced stiffness matrix").solve(b_f)
    return WeakFunction(dofmap, assembly.expand_free(dofmap, x, g))

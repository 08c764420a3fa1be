"""Discrete norms, error evaluation, observed convergence rates, and the
manufactured space-time solution driving the convergence harness.

Errors are always measured against the weak-space projection of the exact
solution (not the exact solution itself), evaluated at the final time of a
run. With boundary DOFs prescribed from the exact solution, the error is
zero there by construction and all three norms see only the free DOFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import weakcalc
from .assembly import BoundaryData
from .fespace import cell_basis, cell_quadrature, edge_basis, edge_quadrature

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed forms of an exact solution and the data it induces.

    All callables are vectorized over numpy arrays. `grad_u` returns a
    (gx, gy) pair; `f` is the forcing u_t + lap^2 u.
    """

    u: Callable
    u_t: Callable
    grad_u: Callable
    laplace_u: Callable
    bilaplace_u: Callable

    def f(self, t, x, y):
        return self.u_t(t, x, y) + self.bilaplace_u(t, x, y)

    def psi(self, x, y):
        return self.u(0.0, x, y)

    def grad_psi(self, x, y):
        return self.grad_u(0.0, x, y)

    def boundary_data(self):
        """Trace and edge-normal-derivative data read off the exact solution."""

        def trace(t, x, y):
            return self.u(t, x, y)

        def normal(t, x, y, nx, ny):
            gx, gy = self.grad_u(t, x, y)
            return gx * nx + gy * ny

        return BoundaryData(trace=trace, normal=normal)

    def self_check(self, samples=100, seed=20240, tol=1e-10):
        """Verify f - u_t - lap^2 u vanishes at random space-time points."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 1.0, samples)
        x = rng.uniform(0.0, 1.0, samples)
        y = rng.uniform(0.0, 1.0, samples)
        gap = self.f(t, x, y) - self.u_t(t, x, y) - self.bilaplace_u(t, x, y)
        return float(np.abs(gap).max()) <= tol


def default_solution():
    """The separable benchmark solution cos(2 pi (t^2+1)) cos(2 pi x) cos(2 pi y)."""

    def T(t):
        return np.cos(TWO_PI * (t * t + 1.0))

    def Tp(t):
        return -TWO_PI * 2.0 * t * np.sin(TWO_PI * (t * t + 1.0))

    def u(t, x, y):
        return T(t) * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)

    def u_t(t, x, y):
        return Tp(t) * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)

    def grad_u(t, x, y):
        gx = -TWO_PI * T(t) * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
        gy = -TWO_PI * T(t) * np.cos(TWO_PI * x) * np.sin(TWO_PI * y)
        return gx, gy

    def laplace_u(t, x, y):
        return -2.0 * TWO_PI ** 2 * u(t, x, y)

    def bilaplace_u(t, x, y):
        return 4.0 * TWO_PI ** 4 * u(t, x, y)

    return ManufacturedSolution(u, u_t, grad_u, laplace_u, bilaplace_u)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _form_norm(w, K, what):
    """sqrt(w^T K w), rejecting a quadratic form below -1e-12."""
    q = K.quad_form(w.coeffs)
    if q < -1e-12:
        raise ValueError(f"{what} quadratic form is negative: {q!r}")
    return math.sqrt(max(q, 0.0))


def triple_bar_norm(w, A):
    """Energy norm sqrt(w^T A w) = (sum_T ||Dw w||_T^2)^(1/2)."""
    return _form_norm(w, A, "energy")


def l2_norm_v0(w, M):
    """L2 norm of the interior component, sqrt(w^T M w)."""
    return _form_norm(w, M, "mass")


def norm_2h(w):
    """Mesh-dependent H2-type norm, on the mesh of w's DOF map.

    Per cell: ||lap v0||_T^2 + h_T^-3 ||v0 - vb||_dT^2
    + h_T^-1 ||(grad v0 - vn n_e) . n||_dT^2, with n the outward cell normal.
    Cell rules are exact to max(2(k-2), 1) and edge rules to 2k+2, the
    degrees of the squared integrands.
    """
    mesh, k = w.dofmap.mesh, w.dofmap.k
    total = 0.0
    for c in range(mesh.num_cells):
        cb = cell_basis(mesh, c, k)
        w_int = w.interior(c)
        rule = cell_quadrature(mesh, c, max(2 * (k - 2), 1))
        _, _, laps = cb.eval(rule.points)
        lap_v0 = laps @ w_int
        total += float(rule.weights @ (lap_v0 * lap_v0))
        hT = mesh.cell_diameters[c]
        for pos, e in enumerate(mesh.cell_edges[c]):
            sign = mesh.cell_edge_signs[c][pos]
            n_out = sign * mesh.edge_normals[e]
            er = edge_quadrature(2 * k + 2, endpoints=mesh.edge_endpoints(e))
            vals, grads, _ = cb.eval(er.points)
            v0 = vals @ w_int
            vb = edge_basis(mesh, e, k).eval(er.s) @ w.trace(e)
            jump = v0 - vb
            total += float(er.weights @ (jump * jump)) / hT ** 3
            gn = (grads @ n_out) @ w_int
            vn = edge_basis(mesh, e, k - 1).eval(er.s) @ w.normal(e)
            flux = gn - sign * vn
            total += float(er.weights @ (flux * flux)) / hT
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# rates and reports
# ---------------------------------------------------------------------------


def compute_rates(levels):
    """Observed rates log(e_prev/e_curr) / log(n_curr/n_prev).

    `levels` is a sequence of (n, error) pairs with strictly increasing n.
    The first level has no rate; non-positive errors give None.
    """
    ns = [n for n, _ in levels]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("refinement levels must be strictly increasing")
    rates = [None]
    for (n0, e0), (n1, e1) in zip(levels, levels[1:]):
        if e0 > 0.0 and e1 > 0.0:
            rates.append(math.log(e0 / e1) / math.log(n1 / n0))
        else:
            rates.append(None)
    return rates


@dataclass
class ErrorTriple:
    trb: float
    h2: float
    l2: float

    def as_dict(self):
        return {"trb": self.trb, "h2": self.h2, "l2": self.l2}


def error_norms(e, A, M):
    """The energy, 2h and interior-L2 norms of an error e."""
    return ErrorTriple(triple_bar_norm(e, A), norm_2h(e), l2_norm_v0(e, M))


def evaluate_errors(U, exact, t, mesh, dofmap, A, M):
    """Error of U against the weak-space projection of the exact solution.

    Returns the energy, 2h and interior-L2 norms of interpolate(u(t)) - U.
    Raises ValueError when `mesh` is not the mesh of `dofmap`.
    """
    if mesh is not dofmap.mesh:
        raise ValueError("mesh is not the mesh of the DOF map")
    Qhu = weakcalc.interpolate(lambda x, y: exact.u(t, x, y),
                               lambda x, y: exact.grad_u(t, x, y), dofmap)
    return error_norms(Qhu - U, A, M)


@dataclass
class ErrorRow:
    index: int
    spacing: float
    trb: float
    h2: float
    l2: float


@dataclass
class ErrorReport:
    """Per-refinement errors with observed rates; axis is 'n' or 'P'."""

    axis: str = "n"
    rows: list = field(default_factory=list)

    def add(self, index, spacing, errors):
        self.rows.append(ErrorRow(index, spacing, errors.trb, errors.h2,
                                  errors.l2))

    def rates(self):
        out = {}
        for key in ("trb", "h2", "l2"):
            levels = [(row.index, getattr(row, key)) for row in self.rows]
            out[key] = compute_rates(levels) if len(levels) > 1 else [None]
        return out

"""Discrete norms, error evaluation, observed convergence rates, and the
manufactured space-time solution driving the convergence harness.

Errors are always measured against the weak-space projection of the exact
solution (not the exact solution itself), evaluated at the final time of a
run. Boundary values prescribed from the exact solution share the trace
rules and edge kernel of `interpolate`: the error's boundary trace DOFs
are zero bit for bit, and its normal DOFs differ by their rules only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import weakcalc
from .assembly import BoundaryData
from .fespace import (cell_basis, cell_quadrature, cell_quadrature_size,
                      edge_quadrature, legendre_table)

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

        def normal(t, x, y, nx, ny):
            gx, gy = self.grad_u(t, x, y)
            return gx * nx + gy * ny

        return BoundaryData(trace=self.u, normal=normal)

    def self_check(self):
        """Check u_t, grad_u and laplace_u against centred differences of u,
        and bilaplace_u against those of laplace_u, at 100 seeded random
        points, each to 1e-4 times its largest magnitude (the default
        solution: 2.5e-5)."""
        rng = np.random.default_rng(20240)
        txy = np.array([rng.uniform(0.0, 1.0, 100) for _ in "txy"])
        step = 1e-3
        h = step * np.eye(3)[:, :, None]  # one step along each of t, x, y

        def diffs(g):  # the first and second differences along t, x, y
            up, down = (np.array([g(*(txy + s)) for s in d]) for d in (h, -h))
            return ((up - down) / (2.0 * step),
                    (up - 2.0 * g(*txy) + down) / step ** 2)

        d1, d2 = diffs(self.u)
        pairs = ((self.u_t(*txy), d1[0]),
                 (np.stack(self.grad_u(*txy)), d1[1:]),
                 (self.laplace_u(*txy), d2[1] + d2[2]),
                 (self.bilaplace_u(*txy), diffs(self.laplace_u)[1][1:].sum(0)))
        return all(np.abs(got - want).max() <= 1e-4 * np.abs(got).max()
                   for got, want in pairs)


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
    """sqrt(w^T K w), rejecting a quadratic form negative beyond round-off,
    below -1e-12 |w|^T |K| |w|; the scale is taken only for a negative
    form."""
    q = float(w.coeffs @ (K.mat @ w.coeffs))
    if q < 0.0:
        a = np.abs(w.coeffs)
        if q < -1e-12 * float(a @ (abs(K.mat) @ a)):
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

    Each cell and each of its edges gets its own rule and basis table, as
    in a loop over cells; the tables of each vertex-count group are stacked
    and contracted with the coefficients read through the DOF map's
    cell-DOF table, so only the order of the sums differs from that loop.
    """
    dofmap = w.dofmap
    mesh, k = dofmap.mesh, dofmap.k
    nb = dofmap.cell_block
    cell_exactness, edge_exactness = max(2 * (k - 2), 1), 2 * k + 2
    Lt = legendre_table(k, edge_exactness)
    Ln = legendre_table(k - 1, edge_exactness)
    total = 0.0
    for p, group in mesh.cell_groups.items():
        n = len(group.cells)
        n_out = group.signs[..., None] * mesh.edge_normals[group.edges]
        nq = cell_quadrature_size(p, cell_exactness)
        lap = np.empty((n, nq, nb))
        cell_w = np.empty((n, nq))
        vals = np.empty((n, p, len(Lt), nb))
        flux = np.empty_like(vals)
        edge_w = np.empty((n, p, len(Lt)))
        for r, c in enumerate(group.cells.tolist()):
            cb = cell_basis(mesh, c, k)
            rule = cell_quadrature(mesh, c, cell_exactness)
            _, _, lap[r] = cb.eval(rule.points, grads=False)
            cell_w[r] = rule.weights
            for i, e in enumerate(group.edges[r].tolist()):
                er = edge_quadrature(edge_exactness,
                                     endpoints=mesh.edge_endpoints(e))
                vals[r, i], grads, _ = cb.eval(er.points, laps=False)
                flux[r, i] = grads @ n_out[r, i]
                edge_w[r, i] = er.weights
        coeffs = w.coeffs[dofmap.cell_dof_tables[p]]
        v0 = coeffs[:, :nb, None]
        vb = coeffs[:, nb:nb + p * (k + 1)].reshape(n, p, k + 1)
        vn = coeffs[:, nb + p * (k + 1):].reshape(n, p, k)
        lap_v0 = (lap @ v0)[..., 0]
        jump = (vals.reshape(n, -1, nb) @ v0).reshape(n, p, -1) - vb @ Lt.T
        normal = ((flux.reshape(n, -1, nb) @ v0).reshape(n, p, -1)
                  - group.signs[..., None] * (vn @ Ln.T))
        h = mesh.cell_diameters[group.cells]
        jumps = (edge_w * jump * jump).sum(axis=(1, 2))
        normals = (edge_w * normal * normal).sum(axis=(1, 2))
        total += float((cell_w * lap_v0 * lap_v0).sum()
                       + (jumps / h ** 3).sum() + (normals / h).sum())
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# rates and error norms
# ---------------------------------------------------------------------------


def check_increasing(ns):
    """Raise ValueError unless the list of refinement levels ns increases."""
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"refinement levels must strictly increase: {ns}")


def compute_rates(levels):
    """Observed rates log(e_prev/e_curr) / log(n_curr/n_prev).

    `levels` is a sequence of (n, error) pairs with strictly increasing n.
    The first level has no rate; non-positive errors give None.
    """
    check_increasing([n for n, _ in levels])
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

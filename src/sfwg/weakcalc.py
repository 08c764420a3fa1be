"""Element-local computations: the weak Laplacian and the L2 projections,
with the rule stacker, data sampler and edge kernel that `assembly` shares.

The weak Laplacian of a weak function v = {v0, vb, vn n_e} on a cell T is
the P_j polynomial whose moments against every test polynomial phi in P_j
satisfy

    (Dw v, phi)_T = (v0, lap phi)_T - <vb, grad phi . n>_dT
                    + <vn (n_e . n), phi>_dT

with n the outward normal of T. The vn DOFs are stored against the fixed
edge normal n_e; the sign (n_e . n) = +-1 is read from the cell's row of
its `mesh.CellGroup` and applied here, never in storage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from . import fespace
from .fespace import (cell_basis, cell_quadrature, cell_quadrature_size,
                      data_exactness, dim_pk, edge_quadrature,
                      edge_quadrature_size, legendre_mass_denominators,
                      legendre_table)
from .mesh import as_int

#: Condition estimate beyond which local mass solves get a warning.
CONDITION_LIMIT = 1e12

# Called with the arguments scipy's cho_factor, cho_solve and
# solve_triangular pass for an F-ordered upper factor (the wrappers' defaults
# and clean=False, trans=1), so the results are theirs, bit for bit, without
# their per-call validation and batching.
_POTRF, _POTRS, _TRTRS = get_lapack_funcs(("potrf", "potrs", "trtrs"),
                                          dtype=np.float64)
# numpy and scipy each bundle their own OpenBLAS with its own thread pool;
# taking the Grams from scipy's BLAS, like the factorizations above, keeps
# the local kernels on one pool, so the two never contend for the CPUs.
_GEMM = get_blas_funcs("gemm", dtype=np.float64)


class LocalSolveError(RuntimeError):
    """A local mass-matrix factorization failed (degenerate cell or
    insufficient quadrature)."""


class ConditioningWarning(UserWarning):
    """A local mass matrix is close to numerically singular."""


class _SpdSolver:
    """Equilibrated Cholesky solve with one step of iterative refinement.

    Scaled-monomial mass matrices at high degree are poorly conditioned;
    diagonal equilibration plus refinement keeps local projections accurate
    enough for the exactness identities checked in the test suite.
    """

    def __init__(self, M, context=""):
        d = np.sqrt(M.diagonal())
        if not np.all(d > 0.0) or not np.all(np.isfinite(M)):
            raise LocalSolveError(f"mass matrix not positive {context}")
        self.M = M
        self.d = d
        self.factor, info = _POTRF(M / (d[:, None] * d), clean=False)
        if info > 0:
            raise LocalSolveError(
                f"mass matrix factorization failed {context}: leading minor "
                f"{info} is not positive definite; the scaled-monomial basis "
                f"of this degree is too ill-conditioned on this cell, or the "
                f"cell is degenerate; a smaller projection degree "
                f"(--j-offset) avoids it")
        rdiag = np.abs(self.factor.diagonal())
        # cond(M) <= cond(D)^2 cond(Ms); R-diagonal spread estimates cond(Ms)
        est = (d.max() / d.min()) ** 2 * (rdiag.max() / rdiag.min()) ** 2
        if est > CONDITION_LIMIT:
            warnings.warn(
                f"local mass matrix condition estimate {est:.2e} {context}",
                ConditioningWarning, stacklevel=3)

    def solve(self, B):
        b = np.asarray(B, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        x, _ = _POTRS(self.factor, b / self.d[:, None])
        x /= self.d[:, None]
        r = b - self.M @ x
        dx, _ = _POTRS(self.factor, r / self.d[:, None])
        x += dx / self.d[:, None]
        return x[:, 0] if squeeze else x

    def half_solve(self, B):
        """R^-T D^-1 B, so that (half_solve B)^T (half_solve B) = B^T M^-1 B.

        Forming quadratic forms through the half solve keeps them symmetric
        positive semidefinite by construction and avoids the conditioning
        loss of multiplying fully solved factors back together.
        """
        z, _ = _TRTRS(self.factor, B / self.d[:, None], trans=1)
        return z


def _weighted_gram(v, w):
    """The symmetrized Gram matrix V^T diag(w) V of a basis table.

    The operands are the F-ordered transposes of C-ordered tables, so the
    BLAS call copies nothing.
    """
    G = _GEMM(1.0, v.T, (w[:, None] * v).T, trans_b=True)
    return 0.5 * (G + G.T)


def cell_mass_matrix(basis, rule):
    """Mass matrix of a cell basis under the given quadrature rule."""
    vals, _, _ = basis.eval(rule.points, grads=False, laps=False)
    return _weighted_gram(vals, rule.weights)


@dataclass
class LocalWeakLaplacian:
    """The map G = M^-1 B from local weak DOFs to P_j coefficients of Dw v.

    G is never formed: `apply` solves with B times the coefficients, and
    `energy_matrix` works through the Cholesky half solve. Column layout
    matches DofMap.cell_dofs: interior P_k block, then one trace block per
    edge, then one normal block per edge (ring order). `mass` is the P_j
    mass matrix M of the cell; `moments` holds the right-hand-side matrix B.
    """

    cell: int
    mass: np.ndarray
    moments: np.ndarray
    _solver: _SpdSolver

    def apply(self, local_coeffs):
        """P_j coefficients of Dw applied to a local coefficient vector.

        Solving with the combined moment vector is more accurate than a
        formed G @ coeffs when the P_j mass matrix is poorly conditioned:
        the large per-DOF contributions cancel before the solve, not after.
        """
        b = self.moments @ np.asarray(local_coeffs, dtype=float)
        return self._solver.solve(b)

    def energy_matrix(self):
        """Local energy form B^T M^-1 B = (Dw phi_i, Dw phi_j)_T.

        Built through the Cholesky half solve, which keeps the block
        symmetric positive semidefinite to round-off.
        """
        Z = self._solver.half_solve(self.moments)
        # numpy's syrk: single-threaded here; scipy's shifts A by round-off
        return Z.T @ Z


def check_degree(k, j):
    """j as an int, or a ValueError unless it is an integer (not a bool)
    with k <= j <= 15, the largest degree the 2j cell rule supports."""
    j = as_int("j", j)
    if j < k:
        raise ValueError("projection degree j must be >= k")
    if 2 * j > fespace.MAX_TRIANGLE_EXACTNESS:
        raise ValueError(
            f"projection degree j={j} is above "
            f"{fespace.MAX_TRIANGLE_EXACTNESS // 2}, the largest the 2j cell "
            f"rule supports")
    return j


def local_weak_laplacian(dofmap, cell, j):
    """Build the weak-Laplacian projection matrix of one cell.

    Cell rules are exact to 2j (the P_j mass) and edge rules to k+j+1 (the
    P_j x P_k edge couplings), so every moment is integrated exactly. j
    must be an integer with k <= j <= 15, the largest the 2j cell rule
    supports; anything else raises a ValueError.
    """
    mesh, k = dofmap.mesh, dofmap.k
    j = check_degree(k, j)
    cb_j = cell_basis(mesh, cell, j)
    cb_k = cell_basis(mesh, cell, k)
    rule = cell_quadrature(mesh, cell, 2 * j)
    vj, _, lj = cb_j.eval(rule.points, grads=False)
    vk, _, _ = cb_k.eval(rule.points, grads=False, laps=False)
    w = rule.weights

    Mj = _weighted_gram(vj, w)

    group, row = mesh.cell_groups[len(mesh.cells[cell])], mesh.cell_rows[cell]
    edges = group.edges[row].tolist()
    # the trace and the normal block of each edge, in ring order
    Bt = np.empty((len(Mj), len(edges), k + 1))
    Bn = np.empty((len(Mj), len(edges), k))
    Lt = legendre_table(k, k + j + 1)
    Ln = legendre_table(k - 1, k + j + 1)
    for i, (e, sign) in enumerate(zip(edges, group.signs[row].tolist())):
        n_out = sign * mesh.edge_normals[e]
        er = edge_quadrature(k + j + 1, endpoints=mesh.edge_endpoints(e))
        vje, gje, _ = cb_j.eval(er.points, laps=False)
        gn = gje @ n_out
        wt = er.weights
        Bt[:, i] = -gn.T @ (wt[:, None] * Lt)
        Bn[:, i] = sign * (vje.T @ (wt[:, None] * Ln))
    B = np.hstack([lj.T @ (w[:, None] * vk), Bt.reshape(len(Mj), -1),
                   Bn.reshape(len(Mj), -1)])

    solver = _SpdSolver(Mj, context=f"(cell {cell}, degree {j})")
    return LocalWeakLaplacian(cell, Mj, B, solver)


def as_samples(what, values, shape):
    """A data callable's result as a new float array of `shape`: a constant
    is broadcast, any other shape raises a ValueError naming `what`. The
    caller owns the copy, which a callable reusing its result array cannot
    change."""
    values = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(values, shape).copy()
    except ValueError:
        raise ValueError(f"{what} returned shape {values.shape}, expected "
                         f"{shape} or a constant") from None


def stack_rules(rules, npts):
    """The points and weights of a sequence of rules with `npts` points in
    all, stacked into one (npts, 2) and one (npts,) array, and the offset
    of each rule's first point, with a last offset past the end. No rule is
    kept: holding all, on the n = 32 triangles, cost 1 to 7.5 MB of peak
    memory."""
    pts, wts = np.empty((npts, 2)), np.empty(npts)
    first = [0]
    for rule in rules:
        a, b = first[-1], first[-1] + len(rule.weights)
        pts[a:b], wts[a:b] = rule.points, rule.weights
        first.append(b)
    return pts, wts, np.array(first)


def edge_moments(samples, weights, masses, degree, exactness):
    """L2 projections onto P_degree, one row per edge, of (edges, points)
    `samples` on rules `edge_quadrature(exactness, ...)` with `weights`:
    Legendre moments over the (edges, degree + 1) `masses` |e|/(2m + 1).
    They sum elementwise in point order, with no BLAS product, whose
    blocking would make a row depend on how many edges share the call."""
    moments = ((weights * samples)[:, :, None]
               * legendre_table(degree, exactness)).sum(axis=1)
    return moments / masses


def _project_cells(f, mesh, cells, degree, what):
    """The L2 projections of f onto P_degree on `cells`, one row per cell:
    one data rule and one basis table per cell, f sampled once."""
    exactness = data_exactness(degree)
    npts = sum(cell_quadrature_size(len(mesh.cells[c]), exactness)
               for c in cells)
    pts, wts, first = stack_rules(
        (cell_quadrature(mesh, c, exactness) for c in cells), npts)
    x, y = pts.T.copy()
    fx = as_samples(what, f(x, y), x.shape)
    out = np.empty((len(cells), dim_pk(degree)))
    for r, (c, a, b) in enumerate(zip(cells, first, first[1:])):
        vals, _, _ = cell_basis(mesh, c, degree).eval(
            pts[a:b], grads=False, laps=False)
        solver = _SpdSolver(_weighted_gram(vals, wts[a:b]),
                            context=f"(cell {c}, degree {degree})")
        out[r] = solver.solve(vals.T @ (wts[a:b] * fx[a:b]))
    return out


def _project_edges(g, mesh, edges, degree, what):
    """The L2 projections of g onto P_degree on `edges`, one row per edge:
    one data rule per edge, g sampled once, and one `edge_moments`."""
    exactness = data_exactness(degree)
    pts, wts, _ = stack_rules(
        (edge_quadrature(exactness, endpoints=mesh.edge_endpoints(e))
         for e in edges), len(edges) * edge_quadrature_size(exactness))
    x, y = pts.T.copy()
    gx = as_samples(what, g(x, y), x.shape)
    masses = (mesh.edge_lengths[edges][:, None]
              / legendre_mass_denominators(degree))
    return edge_moments(gx.reshape(len(edges), -1),
                        wts.reshape(len(edges), -1), masses, degree, exactness)


def project_cell(f, mesh, cell, degree):
    """L2 projection of a scalar field onto P_degree on one cell.

    Realizes both the interior projection (degree k) and the weak-Laplacian
    range projection (degree j). f(x, y) is called once, with 1-D arrays of
    the data rule's points; a constant result is broadcast.
    """
    if as_int("degree", degree) < 0:
        raise ValueError("projection degree must be >= 0")
    return _project_cells(f, mesh, [cell], degree, "f")[0]


def project_edge(g, mesh, edge, degree):
    """L2 projection onto P_degree on one edge (diagonal Legendre solve).

    g(x, y) is called once, with 1-D arrays of the data rule's points; a
    constant result is broadcast. The rule is exact to 2 * degree, so P_degree
    is reproduced; above degree 30 no edge rule is, and a QuadratureError
    is raised.
    """
    if as_int("degree", degree) < 0:
        raise ValueError("projection degree must be >= 0")
    return _project_edges(g, mesh, [edge], degree, "g")[0]


def interpolate(u, grad_u, dofmap):
    """Projection of a smooth field into the weak space of the DOF map.

    Interior blocks get the cell P_k projection of u, trace blocks the edge
    P_k projection of u, and normal blocks the edge P_{k-1} projection of
    grad u . n_e (the fixed edge normal, not the outward cell normal).

    Each of the three families builds its data rules first, one per cell
    and one per edge, into stacked arrays, and then calls its callable
    once: u at all cell points and at all trace points, grad_u at all
    normal points, each time with 1-D coordinate arrays; a constant
    result, or component of grad_u, is broadcast. Each block is then
    projected from its own samples, with one basis table per cell, as
    `project_cell` and `project_edge` project it, bit for bit.
    """
    mesh, k = dofmap.mesh, dofmap.k
    cells, edges = range(mesh.num_cells), range(mesh.num_edges)

    def grad_n(x, y):
        # n_e at each normal point; every edge has the same number of points
        nx, ny = np.repeat(mesh.edge_normals, len(x) // len(edges), axis=0).T
        gx, gy = grad_u(x, y)
        return (as_samples("grad_u", gx, x.shape) * nx
                + as_samples("grad_u", gy, x.shape) * ny)

    return fespace.WeakFunction(dofmap, np.concatenate([
        _project_cells(u, mesh, cells, k, "u").ravel(),
        _project_edges(u, mesh, edges, k, "u").ravel(),
        _project_edges(grad_n, mesh, edges, k - 1, "grad_u").ravel()]))

"""Element-local computations: the weak Laplacian and the L2 projections.

The weak Laplacian of a weak function v = {v0, vb, vn n_e} on a cell T is
the P_j polynomial whose moments against every test polynomial phi in P_j
satisfy

    (Dw v, phi)_T = (v0, lap phi)_T - <vb, grad phi . n>_dT
                    + <vn (n_e . n), phi>_dT

with n the outward normal of T. The vn DOFs are stored against the fixed
edge normal n_e; the sign (n_e . n) = +-1 is applied here, never in storage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from . import fespace
from .fespace import (DATA_EXACTNESS_MARGIN, cell_basis, cell_quadrature,
                      dim_pk, edge_quadrature, legendre_mass_denominators,
                      legendre_table)

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
    j: int
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


def local_weak_laplacian(dofmap, cell, j):
    """Build the weak-Laplacian projection matrix of one cell.

    Cell rules are exact to 2j (the P_j mass) and edge rules to k+j+1 (the
    P_j x P_k edge couplings), so every moment is integrated exactly.
    """
    mesh, k = dofmap.mesh, dofmap.k
    if j < k:
        raise ValueError("projection degree j must be >= k")
    if 2 * j > fespace.MAX_TRIANGLE_EXACTNESS:
        raise ValueError(
            f"projection degree j={j} is above "
            f"{fespace.MAX_TRIANGLE_EXACTNESS // 2}, the largest the 2j cell "
            f"rule supports")
    cb_j = cell_basis(mesh, cell, j)
    cb_k = cell_basis(mesh, cell, k)
    rule = cell_quadrature(mesh, cell, 2 * j)
    vj, _, lj = cb_j.eval(rule.points, grads=False)
    vk, _, _ = cb_k.eval(rule.points, grads=False, laps=False)
    w = rule.weights

    Mj = _weighted_gram(vj, w)

    edges = mesh.cell_edges[cell]
    dimk, dimj = dim_pk(k), dim_pk(j)
    nloc = dimk + len(edges) * (k + 1) + len(edges) * k
    B = np.empty((dimj, nloc))
    B[:, :dimk] = lj.T @ (w[:, None] * vk)

    col_t = dimk
    col_n = dimk + len(edges) * (k + 1)
    Lt = legendre_table(k, k + j + 1)
    Ln = legendre_table(k - 1, k + j + 1)
    for e, sign in zip(edges, mesh.cell_edge_signs[cell]):
        n_out = sign * mesh.edge_normals[e]
        er = edge_quadrature(k + j + 1, endpoints=mesh.edge_endpoints(e))
        vje, gje, _ = cb_j.eval(er.points, laps=False)
        gn = gje @ n_out
        wt = er.weights
        B[:, col_t:col_t + k + 1] = -gn.T @ (wt[:, None] * Lt)
        B[:, col_n:col_n + k] = sign * (vje.T @ (wt[:, None] * Ln))
        col_t += k + 1
        col_n += k

    solver = _SpdSolver(Mj, context=f"(cell {cell}, degree {j})")
    return LocalWeakLaplacian(cell, j, Mj, B, solver)


def project_cell(f, mesh, cell, degree):
    """L2 projection of a scalar field onto P_degree on one cell.

    Realizes both the interior projection (degree k) and the weak-Laplacian
    range projection (degree j).
    """
    if degree < 0:
        raise ValueError("projection degree must be >= 0")
    rule = cell_quadrature(
        mesh, cell, max(2 * degree, degree + DATA_EXACTNESS_MARGIN))
    basis = cell_basis(mesh, cell, degree)
    vals, _, _ = basis.eval(rule.points, grads=False, laps=False)
    M = _weighted_gram(vals, rule.weights)
    b = vals.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
    solver = _SpdSolver(M, context=f"(cell {cell}, degree {degree})")
    return solver.solve(b)


def project_edge(g, mesh, edge, degree):
    """L2 projection onto P_degree on one edge (diagonal Legendre solve)."""
    if degree < 0:
        raise ValueError("projection degree must be >= 0")
    exactness = min(degree + DATA_EXACTNESS_MARGIN, fespace.MAX_EDGE_EXACTNESS)
    er = edge_quadrature(exactness, endpoints=mesh.edge_endpoints(edge))
    L = legendre_table(degree, exactness)
    b = L.T @ (er.weights * g(er.points[:, 0], er.points[:, 1]))
    return b / (float(mesh.edge_lengths[edge])
                / legendre_mass_denominators(degree))


def interpolate(u, grad_u, dofmap):
    """Projection of a smooth field into the weak space of the DOF map.

    Interior blocks get the cell P_k projection of u, trace blocks the edge
    P_k projection of u, and normal blocks the edge P_{k-1} projection of
    grad u . n_e (the fixed edge normal, not the outward cell normal).
    """
    mesh, k = dofmap.mesh, dofmap.k
    wf = fespace.WeakFunction.zeros(dofmap)
    for c in range(mesh.num_cells):
        wf.coeffs[dofmap.cell_slice(c)] = project_cell(u, mesh, c, k)
    for e in range(mesh.num_edges):
        wf.coeffs[dofmap.trace_slice(e)] = project_edge(u, mesh, e, k)
        ne = mesh.edge_normals[e]

        def dn(x, y, _ne=ne):
            gx, gy = grad_u(x, y)
            return gx * _ne[0] + gy * _ne[1]

        wf.coeffs[dofmap.normal_slice(e)] = project_edge(dn, mesh, e, k - 1)
    return wf

"""Global assembly: stiffness and interior-mass matrices, load vectors, and
essential boundary-condition reduction with a lift vector.

Assembly accumulates per-cell contributions into a coordinate list and
compresses to CSR with sorted indices and duplicate summation, so the result
is deterministic regardless of cell processing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import weakcalc
from .fespace import (QuadratureConfig, cell_basis, cell_quadrature,
                      edge_basis, edge_quadrature)

_DROP_TOL = 1e-14


@dataclass
class SparseSym:
    """Symmetric sparse matrix in CSR form."""

    mat: sp.csr_matrix

    @classmethod
    def from_triplets(cls, n, rows, cols, vals):
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        if m.nnz:
            cutoff = _DROP_TOL * np.abs(m.data).max()
            m.data[np.abs(m.data) < cutoff] = 0.0
            m.eliminate_zeros()
        return cls(m)

    @property
    def dim(self):
        return self.mat.shape[0]

    def __matmul__(self, x):
        return self.mat @ x

    def toarray(self):
        return self.mat.toarray()

    def quad_form(self, w):
        """w^T A w."""
        return float(w @ (self.mat @ w))

    def symmetry_error(self):
        """Largest relative asymmetry, verified on demand."""
        d = sp.csr_matrix(self.mat - self.mat.T)
        num = np.abs(d.data).max() if d.nnz else 0.0
        den = np.abs(self.mat.data).max() if self.mat.nnz else 1.0
        return num / max(den, 1e-300)

    def submatrix(self, idx):
        return SparseSym(self.mat[idx][:, idx].tocsr())


def build_local_laplacians(mesh, dofmap, k, j, quad=QuadratureConfig()):
    """Weak-Laplacian projection matrices for every cell."""
    return [weakcalc.local_weak_laplacian(mesh, dofmap, c, k, j, quad)
            for c in range(mesh.num_cells)]


def assemble_stiffness(mesh, dofmap, k, j, quad=QuadratureConfig(),
                       local_ops=None):
    """Global energy matrix with entries (Dw phi_i, Dw phi_j).

    Each cell contributes G^T M_j G scattered to its weak DOFs; the result
    is positive semidefinite on the full space and positive definite on the
    zero-boundary subspace.

    Raises ValueError when j < k + N - 1, with N the largest number of
    edges of any cell: below that degree the weak Laplacian cannot separate
    the edge DOFs, and the free block is singular to round-off.
    """
    nmax = max(len(edges) for edges in mesh.cell_edges)
    if j < k + nmax - 1:
        raise ValueError(
            f"j={j} is below the coercivity threshold k + N - 1 = "
            f"{k + nmax - 1} (k={k}, N={nmax} edges per cell)")
    if local_ops is None:
        local_ops = build_local_laplacians(mesh, dofmap, k, j, quad)
    rows, cols, vals = [], [], []
    for op in local_ops:
        local = op.energy_matrix()
        local = 0.5 * (local + local.T)
        idx = dofmap.cell_dofs(op.cell)
        nloc = len(idx)
        rows.append(np.repeat(idx, nloc))
        cols.append(np.tile(idx, nloc))
        vals.append(local.ravel())
    return SparseSym.from_triplets(dofmap.total_dofs, np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))


def assemble_mass_v0(mesh, dofmap, k, quad=QuadratureConfig()):
    """Interior-component mass matrix; rows and columns of edge DOFs are zero."""
    exact = quad.cell_exactness if quad.cell_exactness is not None else 2 * k
    rows, cols, vals = [], [], []
    for c in range(mesh.num_cells):
        rule = cell_quadrature(mesh, c, exact)
        M = weakcalc.cell_mass_matrix(cell_basis(mesh, c, k), rule)
        idx = np.arange(dofmap.cell_slice(c).start, dofmap.cell_slice(c).stop)
        nloc = len(idx)
        rows.append(np.repeat(idx, nloc))
        cols.append(np.tile(idx, nloc))
        vals.append(M.ravel())
    return SparseSym.from_triplets(dofmap.total_dofs, np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))


class LoadAssembler:
    """Precomputed interior load integration, reused across time levels.

    The quadrature points and weighted basis values never change, so one
    sparse matrix application per time level turns f samples into the load
    vector (zeros on all edge DOFs).
    """

    def __init__(self, mesh, dofmap, exactness=None):
        k = dofmap.k
        exact = exactness if exactness is not None else QuadratureConfig().load(k)
        rows, cols, vals = [], [], []
        all_pts = []
        base = 0
        for c in range(mesh.num_cells):
            rule = cell_quadrature(mesh, c, exact)
            basis_vals, _, _ = cell_basis(mesh, c, k).eval(rule.points)
            wphi = rule.weights[:, None] * basis_vals
            idx = np.arange(dofmap.cell_slice(c).start,
                            dofmap.cell_slice(c).stop)
            npts = len(rule.weights)
            rows.append(np.repeat(idx, npts))
            cols.append(np.tile(np.arange(base, base + npts), len(idx)))
            vals.append(wphi.T.ravel())
            all_pts.append(rule.points)
            base += npts
        pts = np.vstack(all_pts)
        self.x = pts[:, 0].copy()
        self.y = pts[:, 1].copy()
        self.phi = sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(dofmap.total_dofs, base)).tocsr()

    def assemble(self, f, t):
        return self.phi @ np.asarray(f(t, self.x, self.y), dtype=float)


def assemble_load(f, t, mesh, dofmap, k, exactness=None):
    """Load vector with entries (f(t, .), phi_i) over interior DOFs."""
    if k != dofmap.k:
        raise ValueError("k does not match the DOF map")
    return LoadAssembler(mesh, dofmap, exactness).assemble(f, t)


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary values as callables of time.

    `trace(t, x, y)` gives the boundary trace, `normal(t, x, y, nx, ny)` the
    normal-derivative data with respect to the fixed edge normal. None means
    homogeneous (the clamped case).
    """

    trace: Callable | None = None
    normal: Callable | None = None

    @classmethod
    def homogeneous(cls):
        return cls(None, None)

    @property
    def is_homogeneous(self):
        return self.trace is None and self.normal is None


class BoundaryProjector:
    """Projects boundary data onto boundary trace/normal DOFs at any time."""

    def __init__(self, mesh, dofmap, data, exactness=None):
        self.dofmap = dofmap
        self.data = data
        self._edges = []
        if data.is_homogeneous:
            return
        k = dofmap.k
        exact = exactness if exactness is not None else k + 12
        for e in mesh.boundary_edges:
            er = edge_quadrature(exact, endpoints=mesh.edge_endpoints(e))
            trace_b = edge_basis(mesh, e, k)
            normal_b = edge_basis(mesh, e, k - 1)
            wt = er.weights
            trace_proj = (trace_b.eval(er.s) * wt[:, None]).T \
                / trace_b.mass_diagonal()[:, None]
            normal_proj = (normal_b.eval(er.s) * wt[:, None]).T \
                / normal_b.mass_diagonal()[:, None]
            self._edges.append((int(e), er.points[:, 0].copy(),
                                er.points[:, 1].copy(),
                                mesh.edge_normals[e].copy(),
                                trace_proj, normal_proj))

    def values(self, t):
        """Full-length vector of prescribed values, zero on free DOFs."""
        g = np.zeros(self.dofmap.total_dofs)
        for e, x, y, ne, trace_proj, normal_proj in self._edges:
            g[self.dofmap.trace_slice(e)] = trace_proj @ self.data.trace(t, x, y)
            g[self.dofmap.normal_slice(e)] = normal_proj @ self.data.normal(
                t, x, y, ne[0], ne[1])
        return g


def boundary_values(mesh, dofmap, data, t):
    """Prescribed boundary DOF values at time t (zeros when homogeneous)."""
    return BoundaryProjector(mesh, dofmap, data).values(t)


def reduce_system(A, rhs, dofmap, g=None):
    """Eliminate boundary DOFs symmetrically.

    Returns (A_ff, b_f, lift): the free-DOF submatrix, the reduced right-hand
    side rhs[free] - lift, and the lift vector (A g)[free] produced by the
    prescribed boundary values g. Homogeneous data gives a zero lift.
    """
    free = dofmap.free_dofs
    A_ff = A.submatrix(free)
    b_f = np.asarray(rhs, dtype=float)[free]
    if g is None:
        lift = np.zeros(len(free))
    else:
        lift = (A @ g)[free]
    return A_ff, b_f - lift, lift


def expand_free(dofmap, x_free, g=None):
    """Rebuild a full coefficient vector from free values plus boundary data."""
    full = np.zeros(dofmap.total_dofs) if g is None else np.asarray(g, float).copy()
    full[dofmap.free_dofs] = x_free
    return full


def dump_matrix_market(A, path):
    """Write the matrix in Matrix Market coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), A.mat.tocoo(), symmetry="symmetric")

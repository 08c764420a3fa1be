"""Global assembly: stiffness and interior-mass matrices, load vectors, and
prescribed boundary values.

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
from .fespace import (DATA_EXACTNESS_MARGIN, cell_basis, cell_quadrature,
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


def assemble_stiffness(mesh, dofmap, k, j):
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
    rows, cols, vals = [], [], []
    for c in range(mesh.num_cells):
        op = weakcalc.local_weak_laplacian(mesh, dofmap, c, k, j)
        local = op.energy_matrix()
        local = 0.5 * (local + local.T)
        idx = dofmap.cell_dofs(c)
        nloc = len(idx)
        rows.append(np.repeat(idx, nloc))
        cols.append(np.tile(idx, nloc))
        vals.append(local.ravel())
    return SparseSym.from_triplets(dofmap.total_dofs, np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))


def assemble_mass_v0(mesh, dofmap, k):
    """Interior-component mass matrix; rows and columns of edge DOFs are zero.

    Cell rules are exact to 2k, the degree of the P_k mass integrand.
    """
    rows, cols, vals = [], [], []
    for c in range(mesh.num_cells):
        rule = cell_quadrature(mesh, c, 2 * k)
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

    def __init__(self, mesh, dofmap):
        k = dofmap.k
        rows, cols, vals = [], [], []
        all_pts = []
        base = 0
        for c in range(mesh.num_cells):
            rule = cell_quadrature(mesh, c, k + DATA_EXACTNESS_MARGIN)
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
        """Load vector with entries (f(t, .), phi_i) over interior DOFs."""
        return self.phi @ np.asarray(f(t, self.x, self.y), dtype=float)


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

    def __init__(self, mesh, dofmap, data):
        self.dofmap = dofmap
        self.data = data
        self._edges = []
        if data.is_homogeneous:
            return
        k = dofmap.k
        for e in mesh.boundary_edges:
            er = edge_quadrature(k + DATA_EXACTNESS_MARGIN,
                                 endpoints=mesh.edge_endpoints(e))
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


def dump_matrix_market(A, path):
    """Write the matrix in Matrix Market coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), A.mat.tocoo(), symmetry="symmetric")

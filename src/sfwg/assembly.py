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


def _range(dof_slice):
    return np.arange(dof_slice.start, dof_slice.stop)


def _sample(what, fn, t, x, *rest):
    """fn(t, x, *rest) as a float array shaped like x; a constant result is
    broadcast, any other shape raises a ValueError naming `what`."""
    vals = np.asarray(fn(t, x, *rest), dtype=float)
    try:
        return np.broadcast_to(vals, x.shape)
    except ValueError:
        raise ValueError(f"{what} returned shape {vals.shape}, expected "
                         f"{x.shape} or a constant") from None


def _scatter(blocks, shape=None):
    """Scatter dense blocks given as (row_idx, col_idx, block) triplets.

    Returns the coordinate triplets (rows, cols, vals), block by block in
    row-major order, or with `shape` the CSR matrix summing them.
    """
    rows = np.concatenate([np.repeat(r, len(c)) for r, c, _ in blocks])
    cols = np.concatenate([np.tile(c, len(r)) for r, c, _ in blocks])
    vals = np.concatenate([block.ravel() for _, _, block in blocks])
    if shape is None:
        return rows, cols, vals
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def assemble_stiffness(dofmap, j):
    """Global energy matrix with entries (Dw phi_i, Dw phi_j).

    Each cell contributes G^T M_j G scattered to its weak DOFs; the result
    is positive semidefinite on the full space and positive definite on the
    zero-boundary subspace.

    Raises ValueError when j < k + N - 1, with N the largest number of
    edges of any cell: below that degree the weak Laplacian cannot separate
    the edge DOFs, and the free block is singular to round-off.
    """
    mesh, k = dofmap.mesh, dofmap.k
    nmax = max(len(edges) for edges in mesh.cell_edges)
    if j < k + nmax - 1:
        raise ValueError(
            f"j={j} is below the coercivity threshold k + N - 1 = "
            f"{k + nmax - 1} (k={k}, N={nmax} edges per cell)")
    blocks = []
    for c in range(mesh.num_cells):
        local = weakcalc.local_weak_laplacian(dofmap, c, j).energy_matrix()
        idx = dofmap.cell_dofs(c)
        blocks.append((idx, idx, 0.5 * (local + local.T)))
    return SparseSym.from_triplets(dofmap.total_dofs, *_scatter(blocks))


def assemble_mass_v0(dofmap):
    """Interior-component mass matrix; rows and columns of edge DOFs are zero.

    Cell rules are exact to 2k, the degree of the P_k mass integrand.
    """
    mesh, k = dofmap.mesh, dofmap.k
    blocks = []
    for c in range(mesh.num_cells):
        rule = cell_quadrature(mesh, c, 2 * k)
        M = weakcalc.cell_mass_matrix(cell_basis(mesh, c, k), rule)
        idx = _range(dofmap.cell_slice(c))
        blocks.append((idx, idx, M))
    return SparseSym.from_triplets(dofmap.total_dofs, *_scatter(blocks))


class LoadAssembler:
    """Precomputed interior load integration, reused across time levels.

    The quadrature points and weighted basis values never change, so one
    sparse matrix application per time level turns f samples into the load
    vector (zeros on all edge DOFs).
    """

    def __init__(self, dofmap):
        mesh, k = dofmap.mesh, dofmap.k
        blocks, pts = [], []
        base = 0
        for c in range(mesh.num_cells):
            rule = cell_quadrature(mesh, c, k + DATA_EXACTNESS_MARGIN)
            basis_vals, _, _ = cell_basis(mesh, c, k).eval(rule.points)
            cols = np.arange(base, base + len(rule.weights))
            blocks.append((_range(dofmap.cell_slice(c)), cols,
                           (rule.weights[:, None] * basis_vals).T))
            pts.append(rule.points)
            base += len(cols)
        self.x, self.y = np.vstack(pts).T.copy()
        self.phi = _scatter(blocks, (dofmap.total_dofs, base))

    def assemble(self, f, t):
        """Load vector with entries (f(t, .), phi_i) over interior DOFs."""
        return self.phi @ _sample("load f", f, t, self.x, self.y)


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary values as two vectorized callables of time.

    `trace(t, x, y)` gives the boundary trace, `normal(t, x, y, nx, ny)` the
    derivative along the fixed edge normal (nx, ny). All arguments but t are
    arrays shaped like x, one entry per boundary point. Each callable, like
    the load f(t, x, y), returns an array shaped like x or a constant, which
    is broadcast; any other shape is a ValueError naming the callable.
    `homogeneous()` is the zero data of the clamped case.
    """

    trace: Callable
    normal: Callable

    def __post_init__(self):
        if not (callable(self.trace) and callable(self.normal)):
            raise TypeError("BoundaryData needs a trace and a normal callable")

    @classmethod
    def homogeneous(cls):
        return cls(lambda t, x, y: np.zeros_like(x),
                   lambda t, x, y, nx, ny: np.zeros_like(x))


class BoundaryProjector:
    """Prescribed boundary values at any time, built like `LoadAssembler`.

    The boundary points and per-edge Legendre projections never change, so
    each time level samples the data once and applies one sparse map onto
    the trace DOFs and one onto the normal DOFs.
    """

    def __init__(self, dofmap, data):
        self.data = data
        mesh, k = dofmap.mesh, dofmap.k
        trace_blocks, normal_blocks, pts, normals = [], [], [], []
        base = 0
        for e in mesh.boundary_edges:
            er = edge_quadrature(k + DATA_EXACTNESS_MARGIN,
                                 endpoints=mesh.edge_endpoints(e))
            cols = np.arange(base, base + len(er.weights))
            for blocks, rows, degree in (
                    (trace_blocks, dofmap.trace_slice(e), k),
                    (normal_blocks, dofmap.normal_slice(e), k - 1)):
                b = edge_basis(mesh, e, degree)
                proj = (b.eval(er.s) * er.weights[:, None]).T \
                    / b.mass_diagonal()[:, None]
                blocks.append((_range(rows), cols, proj))
            pts.append(er.points)
            normals.append(np.broadcast_to(mesh.edge_normals[e],
                                           er.points.shape))
            base += len(cols)
        self.x, self.y = np.vstack(pts).T.copy()
        self.nx, self.ny = np.vstack(normals).T.copy()
        shape = (dofmap.total_dofs, base)
        self._trace = _scatter(trace_blocks, shape)
        self._normal = _scatter(normal_blocks, shape)

    def values(self, t):
        """Full-length vector of prescribed values, zero on free DOFs."""
        x, y = self.x, self.y
        return self._trace @ _sample("boundary trace", self.data.trace,
                                     t, x, y) \
            + self._normal @ _sample("boundary normal", self.data.normal,
                                     t, x, y, self.nx, self.ny)


def dump_matrix_market(A, path):
    """Write the matrix in Matrix Market coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), A.mat.tocoo(), symmetry="symmetric")

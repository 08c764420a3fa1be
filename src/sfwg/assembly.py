"""Global assembly: stiffness and interior-mass matrices, load vectors, and
prescribed boundary values.

Assembly writes each cell's dense block in place into one preallocated
coordinate list, whose row and column indices come in one step from the
DOF map's cell-DOF tables, one group of cells of one vertex count at a
time. scipy's CSR conversion sums the duplicates and sorts the indices. An
entry of the stiffness sums at most two blocks (an edge has at most two
cells), so the result does not depend on the order of the list.

Loads and boundary values sample their data at fixed stacked points, then
apply a fixed map to the samples; the boundary values project theirs with
the edge kernel of `interpolate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import weakcalc
from .fespace import (cell_basis, cell_quadrature, cell_quadrature_size,
                      data_exactness, edge_quadrature, edge_quadrature_size,
                      legendre_mass_denominators)
from .mesh import as_int

_DROP_TOL = 1e-14


@dataclass
class SparseSym:
    """Symmetric sparse matrix; callers use `mat`, its CSR form."""

    mat: sp.csr_matrix

    @classmethod
    def from_triplets(cls, n, rows, cols, vals):
        # canonical: tocsr sums the duplicates and sorts the indices
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        if m.nnz:
            cutoff = _DROP_TOL * np.abs(m.data).max()
            m.data[np.abs(m.data) < cutoff] = 0.0
            m.eliminate_zeros()
        return cls(m)


def _block_list(tables):
    """A coordinate list for dense blocks, with its values left to fill.

    `tables` maps a key to a pair of index tables (n, m) and (n, q): block
    b of that key has rows rows[b] and columns cols[b]. Returns the row and
    column lists, filled, the value list, and for each key the (n, m, q)
    view of the value list that holds its blocks, block by block in
    row-major order.
    """
    sizes = [rows.shape[0] * rows.shape[1] * cols.shape[1]
             for rows, cols in tables.values()]
    total = sum(sizes)
    rows_out = np.empty(total, dtype=np.intp)
    cols_out = np.empty(total, dtype=np.intp)
    vals = np.empty(total)
    views = {}
    start = 0
    for (key, (rows, cols)), size in zip(tables.items(), sizes):
        shape = (rows.shape[0], rows.shape[1], cols.shape[1])
        part = slice(start, start + size)
        rows_out[part].reshape(shape)[...] = rows[:, :, None]
        cols_out[part].reshape(shape)[...] = cols[:, None, :]
        views[key] = vals[part].reshape(shape)
        start += size
    return rows_out, cols_out, vals, views


def _cell_blocks(mesh):
    """Yield (c, p, r) for each cell c in order: its vertex count p and its
    row r in the tables of `mesh.cell_groups[p]`."""
    return zip(range(mesh.num_cells), map(len, mesh.cells),
               mesh.cell_rows.tolist())


def check_j(dofmap, j):
    """j as an int, or a ValueError naming it unless it is an integer (not
    a bool) with k + N - 1 <= j <= 15, N the largest number of edges of any
    cell of the DOF map's mesh: below k + N - 1 the weak Laplacian cannot
    separate the edge DOFs, and the free stiffness block is singular to
    round-off; above 15 the 2j cell rule does not exist
    (`weakcalc.check_degree`)."""
    j, k = as_int("j", j), dofmap.k
    nmax = max(dofmap.mesh.cell_groups)
    if j < k + nmax - 1:
        raise ValueError(
            f"j={j} is below the coercivity threshold k + N - 1 = "
            f"{k + nmax - 1} (k={k}, N={nmax} edges per cell)")
    return weakcalc.check_degree(k, j)


def assemble_stiffness(dofmap, j):
    """Global energy matrix with entries (Dw phi_i, Dw phi_j).

    Each cell contributes G^T M_j G scattered to its weak DOFs; the result
    is positive semidefinite on the full space and positive definite on the
    zero-boundary subspace. j is checked with `check_j` before any local
    operator is built.
    """
    j = check_j(dofmap, j)
    rows, cols, vals, blocks = _block_list(
        {p: (t, t) for p, t in dofmap.cell_dof_tables.items()})
    for c, p, r in _cell_blocks(dofmap.mesh):
        # Z^T Z through numpy's syrk: exactly symmetric as it comes
        local = weakcalc.local_weak_laplacian(dofmap, c, j)
        blocks[p][r] = local.energy_matrix()
    return SparseSym.from_triplets(dofmap.total_dofs, rows, cols, vals)


def assemble_mass_v0(dofmap):
    """Interior-component mass matrix; rows and columns of edge DOFs are zero.

    Cell rules are exact to 2k, the degree of the P_k mass integrand.
    """
    mesh, k = dofmap.mesh, dofmap.k
    cb = dofmap.cell_block
    rows, cols, vals, blocks = _block_list(
        {p: (t[:, :cb], t[:, :cb]) for p, t in dofmap.cell_dof_tables.items()})
    for c, p, r in _cell_blocks(mesh):
        rule = cell_quadrature(mesh, c, 2 * k)
        blocks[p][r] = weakcalc.cell_mass_matrix(cell_basis(mesh, c, k), rule)
    return SparseSym.from_triplets(dofmap.total_dofs, rows, cols, vals)


class LoadAssembler:
    """Precomputed interior load integration, reused across time levels.

    The quadrature points and weighted basis values never change, so one
    sparse matrix application per time level turns f samples into the load
    vector (zeros on all edge DOFs): `assemble(sample(f, t))`. `sample`
    only calls f at the fixed points, so a caller can take the samples of a
    later level (on another thread, say) and apply them when it is due.
    """

    def __init__(self, dofmap):
        mesh, k = dofmap.mesh, dofmap.k
        exactness = data_exactness(k)
        # the points of each cell, cell by cell: cell c's start at first[c]
        npts = {p: cell_quadrature_size(p, exactness)
                for p in mesh.cell_groups}
        pts, weights, first = weakcalc.stack_rules(
            (cell_quadrature(mesh, c, exactness)
             for c in range(mesh.num_cells)),
            sum(npts[p] * len(g.cells) for p, g in mesh.cell_groups.items()))
        tables = {p: (t[:, :dofmap.cell_block],
                      first[mesh.cell_groups[p].cells, None]
                      + np.arange(npts[p]))
                  for p, t in dofmap.cell_dof_tables.items()}
        rows, cols, vals, blocks = _block_list(tables)
        for c, p, r in _cell_blocks(mesh):
            a, b = first[c], first[c + 1]
            basis_vals, _, _ = cell_basis(mesh, c, k).eval(
                pts[a:b], grads=False, laps=False)
            np.multiply(basis_vals.T, weights[a:b], out=blocks[p][r])
        self.x, self.y = pts.T.copy()
        self.phi = sp.coo_matrix((vals, (rows, cols)),
                                 shape=(dofmap.total_dofs, first[-1])).tocsr()

    def sample(self, f, t):
        """f(t, x, y) at the fixed points (x, y), as one float array."""
        return weakcalc.as_samples("load f", f(t, self.x, self.y),
                                   self.x.shape)

    def assemble(self, samples):
        """Load vector with entries (f(t, .), phi_i) over interior DOFs,
        from `samples` = `sample(f, t)`."""
        return self.phi @ samples


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed boundary values as two vectorized callables of time.

    `trace(t, x, y)` gives the boundary trace, `normal(t, x, y, nx, ny)` the
    derivative along the fixed edge normal (nx, ny). All arguments but t are
    arrays shaped like x, one entry per boundary point. Each callable, like
    the load f(t, x, y), returns an array shaped like x or a constant, which
    is broadcast; any other shape is a ValueError naming the callable.
    `TransientProblem.run` calls both, and f, on one worker thread, one time
    level ahead of the step (see the module `sfwg.driver`).
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

    The boundary points never change, so each time level samples the data
    there once and projects the samples onto the trace and normal DOFs with
    `weakcalc.edge_moments`, the edge kernel of `interpolate`. As in
    `LoadAssembler`, `sample` only calls the data, and `values` applies its
    result: `values(sample(t))`.
    """

    def __init__(self, dofmap, data):
        self.data = data
        mesh, k = dofmap.mesh, dofmap.k
        self._exactness = data_exactness(k)
        edges = mesh.boundary_edges
        npts = edge_quadrature_size(self._exactness)
        pts, weights, _ = weakcalc.stack_rules(
            (edge_quadrature(self._exactness, endpoints=mesh.edge_endpoints(e))
             for e in edges.tolist()), len(edges) * npts)
        self._weights = weights.reshape(len(edges), npts)
        self.x, self.y = pts.T.copy()
        self.nx, self.ny = np.repeat(mesh.edge_normals[edges], npts,
                                     axis=0).T.copy()
        lengths = mesh.edge_lengths[edges][:, None]
        self._size = dofmap.total_dofs
        # (DOFs, degree, edge masses |e|/(2m + 1)) of the traces and normals
        self._blocks = [(dofs, m, lengths / legendre_mass_denominators(m))
                        for dofs, m in ((dofmap.trace_dofs(edges), k),
                                        (dofmap.normal_dofs(edges), k - 1))]

    def sample(self, t):
        """The (trace, normal) data at time t at the fixed boundary points."""
        x, y = self.x, self.y
        return (weakcalc.as_samples("boundary trace",
                                    self.data.trace(t, x, y), x.shape),
                weakcalc.as_samples("boundary normal",
                                    self.data.normal(t, x, y, self.nx,
                                                     self.ny), x.shape))

    def values(self, samples):
        """Full-length vector of prescribed values, zero on free DOFs,
        from `samples` = `sample(t)`."""
        out = np.zeros(self._size)
        for (dofs, degree, masses), g in zip(self._blocks, samples):
            out[dofs] = weakcalc.edge_moments(
                g.reshape(self._weights.shape), self._weights, masses,
                degree, self._exactness)
        return out


def dump_matrix_market(A, path):
    """Write the matrix in Matrix Market coordinate format. Opening the file
    here makes a directory path raise; `mmwrite` would skip it silently."""
    from scipy.io import mmwrite

    with open(path, "wb") as fh:
        mmwrite(fh, A.mat.tocoo(), symmetry="symmetric")

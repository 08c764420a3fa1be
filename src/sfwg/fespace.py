"""Polynomial bases on cells and edges, quadrature, and the global DOF map.

Cell spaces use scaled, centroid-centered monomials ((x-xc)/h_T)^a
((y-yc)/h_T)^b so local mass matrices stay bounded under refinement. Edge
spaces use Legendre polynomials in the arc-length parameter s in [-1, 1]
(s = -1 at the lower-indexed endpoint), making edge projections diagonal
solves.

Quadrature degrees are part of the method, not settings. Integrals of
polynomials use a rule exact for their integrand, chosen next to the
integral. Integrals of data (loads, boundary values, projections of smooth
fields) against P_d use one rule, `data_exactness(d)` =
max(2d, d + DATA_EXACTNESS_MARGIN): exact to 2d, so a projection
reproduces P_d, and DATA_EXACTNESS_MARGIN = 9 above d, so data integration
error stays below the discretization error. Nine is the smallest margin
that keeps the k = 2 load moments of the manufactured solution within 1e-9
relative of an exactness-20 rule on tri n=4; at 8 they miss it by 1.1e-9.
The margin governs up to d = 9. Every step samples the data at these
points, so a larger rule is per-step work.

Global DOF ordering: all cell-interior blocks first (cell-major), then all
edge-trace blocks, then all edge-normal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh, as_int

MAX_TRIANGLE_EXACTNESS = 30
MAX_EDGE_EXACTNESS = 60
#: Exactness above the test-polynomial degree for integrals of data.
DATA_EXACTNESS_MARGIN = 9


def data_exactness(degree):
    """Exactness of the rules that integrate data against P_degree."""
    return max(2 * degree, degree + DATA_EXACTNESS_MARGIN)


def dim_pk(degree):
    """Dimension of the 2D polynomial space of total degree <= degree."""
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree):
    """Exponent pairs (a, b), ordered by total degree then a descending."""
    return tuple((d - i, i) for d in range(degree + 1) for i in range(d + 1))


@lru_cache(maxsize=None)
def _exponent_gathers(degree):
    """Column indices and factors that turn 1D power tables into the
    monomial tables of CellBasis.eval.

    Returns, per exponent pair (a, b) of `monomial_exponents(degree)`, the
    indices a, b, a-1, b-1, a-2, b-2 (clipped at 0) and the factors a, b,
    a(a-1), b(b-1). A clipped index always meets a zero factor.
    """
    a, b = np.array(monomial_exponents(degree), dtype=np.intp).T
    idx = tuple(np.maximum(e - s, 0) for s in (0, 1, 2) for e in (a, b))
    fac = tuple(f.astype(float) for f in (a, b, a * (a - 1), b * (b - 1)))
    for arr in idx + fac:
        arr.flags.writeable = False  # shared by every caller of the cache
    return idx + fac


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellBasis:
    """Scaled monomial basis of P_degree on one cell."""

    degree: int
    centroid: np.ndarray
    scale: float

    def eval(self, points, grads=True, laps=True):
        """Values, and the gradients and Laplacians asked for, of every basis
        function.

        Returns arrays of shape (npts, dim), (npts, dim, 2), (npts, dim),
        with None in place of a table not asked for. Evaluation is valid
        anywhere; callers restrict to the cell.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.degree
        # powers[m] = (xi^m, eta^m): one running product, as a loop over m
        powers = np.empty((d + 1, 2, len(pts)))
        powers[0] = 1.0
        powers[1:] = ((pts - self.centroid) / self.scale).T
        np.multiply.accumulate(powers, axis=0, out=powers)
        px, py = powers[:, 0].T, powers[:, 1].T
        a, b, a1, b1, a2, b2, fa, fb, faa, fbb = _exponent_gathers(d)
        # take() returns C-ordered tables; px[:, a] would give F-ordered
        # ones, and the BLAS products of the callers would then round
        # differently.
        pxa, pyb = px.take(a, axis=1), py.take(b, axis=1)
        inv_h = 1.0 / self.scale
        vals = pxa * pyb
        grad_table = lap_table = None
        if grads:
            grad_table = np.empty(vals.shape + (2,))
            grad_table[:, :, 0] = fa * px.take(a1, axis=1) * pyb * inv_h
            grad_table[:, :, 1] = fb * pxa * py.take(b1, axis=1) * inv_h
        if laps:
            inv_h2 = inv_h * inv_h
            lap_table = (faa * px.take(a2, axis=1) * pyb * inv_h2
                         + fbb * pxa * py.take(b2, axis=1) * inv_h2)
        return vals, grad_table, lap_table


def cell_basis(mesh, cell, degree):
    return CellBasis(degree, mesh.cell_centroids[cell],
                     float(mesh.cell_diameters[cell]))


def _legendre(x, degree):
    """P_0..P_degree at the 1D array x, shape (len(x), degree+1).

    This is numpy's legvander written out: the same recurrence in the same
    operation order, and a transposed view with its strides, without its
    per-call overhead.
    """
    v = np.empty((degree + 1, len(x)))
    v[0] = 1.0
    if degree > 0:
        v[1] = x
        for i in range(2, degree + 1):
            v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v.T


@lru_cache(maxsize=None)
def legendre_table(degree, exactness):
    """The edge basis of P_degree at the reference abscissae s in [-1, 1]
    of every `edge_quadrature(exactness, ...)`, which no edge changes:
    `_legendre(s, degree)`, one row per point of the rule. Computed once
    per pair, read-only and shared."""
    s, _, _ = _gauss_m11(edge_quadrature_size(exactness))
    table = _legendre(s, degree)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def legendre_mass_denominators(degree):
    """2m + 1 for m = 0..degree: the mass of P_m on an edge of length L is
    L / (2m + 1). Read-only and shared."""
    den = 2.0 * np.arange(degree + 1) + 1.0
    den.flags.writeable = False
    return den


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights."""

    points: np.ndarray
    weights: np.ndarray


class QuadratureError(ValueError):
    """Unsupported exactness degree or invalid quadrature input."""


def _gauss_01(npts):
    """The Gauss-Legendre rule of `_gauss_m11`, mapped onto [0, 1]."""
    _, w, along = _gauss_m11(npts)
    return along[:, 0], 0.5 * w


@lru_cache(maxsize=None)
def _triangle_moment(a, b):
    # Exact moment of x^a y^b over the unit right triangle.
    num = 1
    for i in range(1, a + 1):
        num *= i
    for i in range(1, b + 1):
        num *= i
    den = 1
    for i in range(1, a + b + 3):
        den *= i
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _reference_triangle_rule(exactness):
    """Collapsed tensor-Gauss rule on the unit right triangle.

    The collapse map x=u, y=v(1-u) carries Jacobian (1-u), which raises the
    u-degree by one; (exactness+3)//2 Gauss points per direction keep the
    rule exact.
    """
    if not 1 <= exactness <= MAX_TRIANGLE_EXACTNESS:
        raise QuadratureError(
            f"triangle exactness {exactness} outside [1, {MAX_TRIANGLE_EXACTNESS}]")
    m = (exactness + 3) // 2
    u, wu = _gauss_01(m)
    v, wv = _gauss_01(m)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv) * (1.0 - U)
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    wts = W.ravel()
    _verify_triangle_rule(pts, wts, exactness)
    return pts, wts


def _verify_triangle_rule(pts, wts, exactness):
    for a, b in monomial_exponents(exactness):
        approx = float(wts @ (pts[:, 0] ** a * pts[:, 1] ** b))
        exact = float(_triangle_moment(a, b))
        if abs(approx - exact) > 1e-13 * max(1.0, abs(exact)):
            raise QuadratureError(
                f"triangle rule failed moment check for x^{a} y^{b}")


def triangle_quadrature(exactness, vertices=None):
    """Rule exact to `exactness` on the reference or a physical triangle."""
    pts, wts = _reference_triangle_rule(exactness)
    if vertices is None:
        return QuadratureRule(pts.copy(), wts.copy())
    v = np.asarray(vertices, dtype=float)
    # rows v1 - v0 and v2 - v0: the transposed Jacobian of the affine map
    jac_t = v[1:] - v[0]
    det = jac_t[0, 0] * jac_t[1, 1] - jac_t[1, 0] * jac_t[0, 1]
    if det <= 0.0:
        raise QuadratureError("triangle vertices must be counter-clockwise")
    return QuadratureRule(v[0] + pts @ jac_t, wts * det)


@lru_cache(maxsize=None)
def _reference_square_rule(exactness):
    """Tensor Gauss-Legendre rule on the unit square, with the bilinear
    shape functions of the vertices (0,0), (1,0), (1,1), (0,1) and their
    derivatives at its points; all read-only and shared.

    Returns the (m*m, 2) points, the (3, 1, 4, m*m) tables of the shape
    functions N_i, of dN_i/ds and of dN_i/dt, with one row per vertex i,
    and the weights. A convex quad maps through
    x(s, t) = sum_i N_i(s, t) v_i, whose det J is affine in s and t, so a
    degree-`exactness` integrand pulls back to bidegree exactness+1, and
    m = (exactness+3)//2 points per direction keep the rule exact.
    """
    if not 1 <= exactness <= MAX_TRIANGLE_EXACTNESS:
        raise QuadratureError(
            f"square exactness {exactness} outside [1, {MAX_TRIANGLE_EXACTNESS}]")
    u, wu = _gauss_01((exactness + 3) // 2)
    s, t = (g.ravel() for g in np.meshgrid(u, u, indexing="ij"))
    wts = np.outer(wu, wu).ravel()
    pts = np.column_stack([s, t])
    _verify_square_rule(pts, wts, exactness + 1)
    shape = np.array([[(1.0 - s) * (1.0 - t), s * (1.0 - t), s * t,
                       (1.0 - s) * t],
                      [t - 1.0, 1.0 - t, t, -t],
                      [s - 1.0, -s, s, 1.0 - s]])[:, None]
    for arr in (pts, shape, wts):
        arr.flags.writeable = False
    return pts, shape, wts


def _verify_square_rule(pts, wts, bidegree):
    # every moment of x^a y^b, a and b <= bidegree, against 1/((a+1)(b+1))
    powers = np.arange(bidegree + 1)
    approx = (pts[:, 0, None] ** powers).T @ (
        wts[:, None] * pts[:, 1, None] ** powers)
    exact = 1.0 / np.outer(powers + 1, powers + 1)
    bad = np.argwhere(np.abs(approx - exact) > 1e-13)
    if len(bad):
        a, b = bad[0]
        raise QuadratureError(
            f"square rule failed moment check for x^{a} y^{b}")


def _bilinear_quadrature(vertices, exactness):
    """The tensor rule of `_reference_square_rule` mapped onto a convex
    counter-clockwise quad through its bilinear map, with weights
    w_i w_j det J(s_i, t_j)."""
    _, shape, wts = _reference_square_rule(exactness)
    # x, dx/ds and dx/dt, one coordinate per row, as sums over the vertices
    # in ring order: no BLAS product, whose blocking would set the rounding
    x, xs, xt = (shape * vertices.T[:, :, None]).sum(axis=2)
    det = xs[0] * xt[1] - xs[1] * xt[0]
    return QuadratureRule(x.T.copy(), wts * det)


def _fan_quadrature(vertices, centroid, exactness):
    """The rule exact to `exactness` on the fan of triangles (centroid,
    v_i, v_i+1) of a convex counter-clockwise ring, taken as given.

    All fan triangles are mapped in one stacked affine product, whose
    points and weights equal those of `triangle_quadrature` on each fan
    triangle in turn, bit for bit.
    """
    pts, wts = _reference_triangle_rule(exactness)
    # rows v_i - c and v_i+1 - c: the transposed Jacobian of each map
    jac_t = np.empty((len(vertices), 2, 2))
    jac_t[:, 0] = vertices - centroid
    jac_t[:-1, 1] = jac_t[1:, 0]
    jac_t[-1, 1] = jac_t[0, 0]
    det = jac_t[:, 0, 0] * jac_t[:, 1, 1] - jac_t[:, 1, 0] * jac_t[:, 0, 1]
    return QuadratureRule((centroid + pts @ jac_t).reshape(-1, 2),
                          (det[:, None] * wts).ravel())


def cell_quadrature(mesh, cell, exactness):
    """Quadrature exact to `exactness` on a mesh cell.

    `Mesh` has validated the ring (convex, counter-clockwise) and computed
    `mesh.cell_centroids`, so the rule takes both as given. A triangle gets
    the affine map of `triangle_quadrature`; a quad the tensor Gauss rule
    through its bilinear map, (exactness+3)//2 points per direction; a cell
    with five or more vertices the centroid fan, triangle by triangle in
    ring order.
    """
    vertices = mesh.cell_vertices(cell)
    if len(vertices) == 3:
        return triangle_quadrature(exactness, vertices)
    if len(vertices) == 4:
        return _bilinear_quadrature(vertices, exactness)
    return _fan_quadrature(vertices, mesh.cell_centroids[cell], exactness)


def cell_quadrature_size(nverts, exactness):
    """Number of points of `cell_quadrature` on a cell with `nverts`
    vertices: one triangle rule, one tensor rule of ((exactness+3)//2)**2
    points, or one triangle rule per fan triangle."""
    if nverts == 4:
        return len(_reference_square_rule(exactness)[2])
    npts = len(_reference_triangle_rule(exactness)[1])
    return npts if nverts == 3 else nverts * npts


@lru_cache(maxsize=None)
def _gauss_m11(npts):
    """Gauss-Legendre abscissae s and weights on [-1, 1], and the factor
    (s + 1)/2 of the affine map onto an edge, as an (npts, 1) column; all
    read-only and shared."""
    s, w = leggauss(npts)
    # even-moment self check against 2/(m+1)
    for m in range(0, 2 * npts - 1, 2):
        approx = float(w @ s ** m)
        exact = 2.0 / (m + 1)
        if abs(approx - exact) > 1e-13 * max(1.0, exact):
            raise QuadratureError(f"Gauss rule failed moment check for s^{m}")
    along = 0.5 * (s[:, None] + 1.0)
    for arr in (s, w, along):
        arr.flags.writeable = False
    return s, w, along


def edge_quadrature_size(exactness):
    """Number of points of `edge_quadrature(exactness, ...)`."""
    return exactness // 2 + 1


def edge_quadrature(exactness, endpoints=None):
    """Gauss-Legendre rule on [-1, 1], optionally mapped to a physical edge.

    When `endpoints` (a pair of 2D points) is given, `points` are physical
    and the weights include the length Jacobian. The edge bases at the
    reference abscissae, which every rule of one exactness shares, are in
    `legendre_table`.
    """
    if not 1 <= exactness <= MAX_EDGE_EXACTNESS:
        raise QuadratureError(
            f"edge exactness {exactness} outside [1, {MAX_EDGE_EXACTNESS}]")
    s, w, along = _gauss_m11(edge_quadrature_size(exactness))
    if endpoints is None:
        return QuadratureRule(s.copy(), w.copy())
    p = np.asarray(endpoints[0], float)
    d = np.asarray(endpoints[1], float) - p
    length = float(np.hypot(d[0], d[1]))
    return QuadratureRule(p + along * d, w * (0.5 * length))


# ---------------------------------------------------------------------------
# DOF map and weak functions
# ---------------------------------------------------------------------------


def check_mesh(mesh):
    """mesh, or a ValueError naming it unless it is a `Mesh`."""
    if not isinstance(mesh, Mesh):
        raise ValueError(f"mesh must be a Mesh, got {mesh!r}")
    return mesh


def check_k(k):
    """k as an int, or a ValueError naming k unless it is an integer >= 2
    (a bool is not; numpy integers are taken as ints)."""
    k = as_int("k", k)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return k


class DofMap:
    """Global indexing of the three weak-function DOF families: the discrete
    space of degree k on `mesh`, which the weak Laplacian's degree j
    completes. mesh must be a `Mesh` and k an integer >= 2 (numpy integers
    are taken as ints); anything else raises a ValueError naming it.

    Interior blocks hold P_k coefficients per cell, trace blocks k+1 Legendre
    coefficients per edge, normal blocks k coefficients per edge. Boundary
    DOFs are exactly the trace and normal DOFs of boundary edges.

    `cell_dof_tables` maps each vertex count p of the mesh to a read-only
    (n, m) integer table, built once: row r holds the m local weak DOFs of
    the cell `mesh.cell_groups[p].cells[r]`, and `cell_dofs(c)` is the row
    of cell c. Assembly takes the indices of its coordinate lists from these
    tables.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh = check_mesh(mesh)
        self.k = k = check_k(k)
        self.cell_block = dim_pk(k)
        self.trace_block = k + 1
        self.normal_block = k
        ncells, nedges = mesh.num_cells, mesh.num_edges
        self.trace_offset = ncells * self.cell_block
        self.normal_offset = self.trace_offset + nedges * self.trace_block
        self.total_dofs = self.normal_offset + nedges * self.normal_block

        bdry = mesh.boundary_edges
        self.boundary_dofs = np.sort(np.concatenate(
            [self.trace_dofs(bdry).ravel(), self.normal_dofs(bdry).ravel()]))
        mask = np.ones(self.total_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.free_dofs = np.nonzero(mask)[0]

        self.cell_dof_tables = {}
        for p, group in mesh.cell_groups.items():
            n = len(group.cells)
            table = np.hstack([
                group.cells[:, None] * self.cell_block
                + np.arange(self.cell_block),
                self.trace_dofs(group.edges).reshape(n, -1),
                self.normal_dofs(group.edges).reshape(n, -1)])
            table.flags.writeable = False
            self.cell_dof_tables[p] = table

    def trace_dofs(self, edges):
        """The trace DOFs of an array of edges, along a new last axis."""
        return (self.trace_offset + np.asarray(edges)[..., None]
                * self.trace_block + np.arange(self.trace_block))

    def normal_dofs(self, edges):
        """The normal DOFs of an array of edges, along a new last axis."""
        return (self.normal_offset + np.asarray(edges)[..., None]
                * self.normal_block + np.arange(self.normal_block))

    def cell_dofs(self, c):
        """Global indices of the local weak DOFs of cell c.

        Layout matches the local weak-Laplacian columns: interior block,
        then one trace block per edge, then one normal block per edge, edges
        in ring order. A read-only row of `cell_dof_tables`.
        """
        mesh = self.mesh
        return self.cell_dof_tables[len(mesh.cells[c])][mesh.cell_rows[c]]


def build_dofmap(mesh, k):
    return DofMap(mesh, k)


@dataclass
class WeakFunction:
    """Coefficient vector over the weak-function DOF families."""

    dofmap: DofMap
    coeffs: np.ndarray

    @classmethod
    def zeros(cls, dofmap):
        return cls(dofmap, np.zeros(dofmap.total_dofs))

    def __add__(self, other):
        self._check_compatible(other)
        return WeakFunction(self.dofmap, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return WeakFunction(self.dofmap, self.coeffs - other.coeffs)

    def __mul__(self, alpha):
        return WeakFunction(self.dofmap, self.coeffs * float(alpha))

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if other.dofmap is not self.dofmap:
            raise ValueError("weak functions live on different DOF maps")

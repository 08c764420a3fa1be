"""Polynomial bases on cells and edges, quadrature, and the global DOF map.

Cell spaces use scaled, centroid-centered monomials ((x-xc)/h_T)^a
((y-yc)/h_T)^b so local mass matrices stay bounded under refinement. Edge
spaces use Legendre polynomials in the arc-length parameter s in [-1, 1]
(s = -1 at the lower-indexed endpoint), making edge projections diagonal
solves.

Quadrature degrees are part of the method, not settings. Integrals of
polynomials use a rule exact for their integrand, chosen next to the
integral. Integrals of data (loads, boundary values, projections of smooth
fields) use the degree of the polynomial tested against plus
DATA_EXACTNESS_MARGIN, so data integration error stays below the
discretization error.

Global DOF ordering: all cell-interior blocks first (cell-major), then all
edge-trace blocks, then all edge-normal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_TRIANGLE_EXACTNESS = 30
MAX_EDGE_EXACTNESS = 60
#: Exactness above the test-polynomial degree for integrals of data.
DATA_EXACTNESS_MARGIN = 12


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

    cell: int
    degree: int
    centroid: np.ndarray
    scale: float

    def eval(self, points):
        """Values, gradients and Laplacians of every basis function.

        Returns arrays of shape (npts, dim), (npts, dim, 2), (npts, dim).
        Evaluation is valid anywhere; callers restrict to the cell.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        npts = pts.shape[0]
        d = self.degree
        xi = (pts[:, 0] - self.centroid[0]) / self.scale
        eta = (pts[:, 1] - self.centroid[1]) / self.scale
        px = np.ones((npts, d + 1))
        py = np.ones((npts, d + 1))
        for m in range(1, d + 1):
            px[:, m] = px[:, m - 1] * xi
            py[:, m] = py[:, m - 1] * eta
        a, b, a1, b1, a2, b2, fa, fb, faa, fbb = _exponent_gathers(d)
        # take() keeps the gathered tables C-ordered; px[:, a] would give
        # F-ordered ones, and the BLAS products of the callers would then
        # round differently.
        pxa, pyb = px.take(a, axis=1), py.take(b, axis=1)
        inv_h = 1.0 / self.scale
        inv_h2 = inv_h * inv_h
        vals = pxa * pyb
        grads = np.empty(vals.shape + (2,))
        grads[:, :, 0] = fa * px.take(a1, axis=1) * pyb * inv_h
        grads[:, :, 1] = fb * pxa * py.take(b1, axis=1) * inv_h
        laps = (faa * px.take(a2, axis=1) * pyb * inv_h2
                + fbb * pxa * py.take(b2, axis=1) * inv_h2)
        return vals, grads, laps


def cell_basis(mesh, cell, degree):
    return CellBasis(cell, degree, mesh.cell_centroids[cell],
                     float(mesh.cell_diameters[cell]))


@dataclass(frozen=True)
class EdgeBasis:
    """Legendre basis of P_degree on one edge, parameterized on [-1, 1]."""

    edge: int
    degree: int
    start: np.ndarray
    end: np.ndarray
    length: float

    def eval(self, s):
        """Legendre values P_0..P_degree at the 1D parameter array s.

        Returns shape (len(s), degree+1). This is numpy's legvander written
        out: the same recurrence in the same operation order, and a
        transposed view with its strides, without its per-call overhead.
        """
        x = np.asarray(s, dtype=float)
        v = np.empty((self.degree + 1, len(x)))
        v[0] = 1.0
        if self.degree > 0:
            v[1] = x
            for i in range(2, self.degree + 1):
                v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
        return v.T

    def point(self, s):
        s = np.asarray(s, dtype=float)[..., None]
        return self.start + 0.5 * (s + 1.0) * (self.end - self.start)

    def mass_diagonal(self):
        """Edge mass matrix diagonal: L / (2m + 1)."""
        return self.length / (2.0 * np.arange(self.degree + 1) + 1.0)


def edge_basis(mesh, edge, degree):
    p, q = mesh.edge_endpoints(edge)
    return EdgeBasis(edge, degree, p, q, float(mesh.edge_lengths[edge]))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights; `s` holds the [-1,1] abscissae for edge rules."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int
    s: np.ndarray | None = None


class QuadratureError(ValueError):
    """Unsupported exactness degree or invalid quadrature input."""


@lru_cache(maxsize=None)
def _gauss_01(npts):
    x, w = leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


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
        return QuadratureRule(pts.copy(), wts.copy(), exactness)
    v = np.asarray(vertices, dtype=float)
    B = np.column_stack([v[1] - v[0], v[2] - v[0]])
    det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    if det <= 0.0:
        raise QuadratureError("triangle vertices must be counter-clockwise")
    return QuadratureRule(v[0] + pts @ B.T, wts * det, exactness)


def polygon_quadrature(vertices, exactness):
    """Fan-triangulated rule from the centroid of a convex polygon."""
    v = np.asarray(vertices, dtype=float)
    p = len(v)
    if p < 3:
        raise QuadratureError("polygon needs at least 3 vertices")
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    scale = float(np.abs(e).max()) ** 2
    if np.any(cross < -1e-12 * scale):
        raise QuadratureError("polygon is not convex")
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cr = x * yn - xn * y
    area2 = cr.sum()
    if area2 <= 0.0:
        raise QuadratureError("polygon must be counter-clockwise")
    cx = ((x + xn) * cr).sum() / (3.0 * area2)
    cy = ((y + yn) * cr).sum() / (3.0 * area2)
    centroid = np.array([cx, cy])
    parts_p = []
    parts_w = []
    for i in range(p):
        tri = np.array([centroid, v[i], v[(i + 1) % p]])
        rule = triangle_quadrature(exactness, tri)
        parts_p.append(rule.points)
        parts_w.append(rule.weights)
    return QuadratureRule(np.vstack(parts_p), np.concatenate(parts_w), exactness)


def cell_quadrature(mesh, cell, exactness):
    """Quadrature on a mesh cell; direct map for triangles, fan otherwise."""
    verts = mesh.cell_vertices(cell)
    if len(verts) == 3:
        return triangle_quadrature(exactness, verts)
    return polygon_quadrature(verts, exactness)


@lru_cache(maxsize=None)
def _gauss_m11(npts):
    s, w = leggauss(npts)
    # even-moment self check against 2/(m+1)
    for m in range(0, 2 * npts - 1, 2):
        approx = float(w @ s ** m)
        exact = 2.0 / (m + 1)
        if abs(approx - exact) > 1e-13 * max(1.0, exact):
            raise QuadratureError(f"Gauss rule failed moment check for s^{m}")
    return s, w


def edge_quadrature(exactness, endpoints=None):
    """Gauss-Legendre rule on [-1, 1], optionally mapped to a physical edge.

    When `endpoints` (a pair of 2D points) is given, `points` are physical
    and the weights include the length Jacobian; the reference abscissae stay
    available in `s` for edge-basis evaluation.
    """
    if not 1 <= exactness <= MAX_EDGE_EXACTNESS:
        raise QuadratureError(
            f"edge exactness {exactness} outside [1, {MAX_EDGE_EXACTNESS}]")
    npts = exactness // 2 + 1
    s, w = _gauss_m11(npts)
    if endpoints is None:
        return QuadratureRule(s.copy(), w.copy(), exactness, s=s.copy())
    p, q = (np.asarray(endpoints[0], float), np.asarray(endpoints[1], float))
    length = float(np.hypot(*(q - p)))
    pts = p + 0.5 * (s[:, None] + 1.0) * (q - p)
    return QuadratureRule(pts, w * (0.5 * length), exactness, s=s.copy())


# ---------------------------------------------------------------------------
# DOF map and weak functions
# ---------------------------------------------------------------------------


class DofMap:
    """Global indexing of the three weak-function DOF families.

    Interior blocks hold P_k coefficients per cell, trace blocks k+1 Legendre
    coefficients per edge, normal blocks k coefficients per edge. Boundary
    DOFs are exactly the trace and normal DOFs of boundary edges.
    """

    def __init__(self, mesh, k):
        if k < 2:
            raise ValueError("polynomial degree k must be >= 2")
        self.mesh = mesh
        self.k = k
        self.cell_block = dim_pk(k)
        self.trace_block = k + 1
        self.normal_block = k
        ncells, nedges = mesh.num_cells, mesh.num_edges
        self.trace_offset = ncells * self.cell_block
        self.normal_offset = self.trace_offset + nedges * self.trace_block
        self.total_dofs = self.normal_offset + nedges * self.normal_block

        bdry = []
        for e in mesh.boundary_edges:
            bdry.extend(range(*self._trace_range(e)))
            bdry.extend(range(*self._normal_range(e)))
        self.boundary_dofs = np.array(sorted(bdry), dtype=int)
        mask = np.ones(self.total_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.free_dofs = np.nonzero(mask)[0]

    def _trace_range(self, e):
        start = self.trace_offset + e * self.trace_block
        return start, start + self.trace_block

    def _normal_range(self, e):
        start = self.normal_offset + e * self.normal_block
        return start, start + self.normal_block

    def cell_slice(self, c):
        return slice(c * self.cell_block, (c + 1) * self.cell_block)

    def trace_slice(self, e):
        return slice(*self._trace_range(e))

    def normal_slice(self, e):
        return slice(*self._normal_range(e))

    def cell_dofs(self, c):
        """Global indices of the local weak DOFs of cell c.

        Layout matches the local weak-Laplacian columns: interior block,
        then one trace block per edge, then one normal block per edge, edges
        in ring order.
        """
        idx = list(range(c * self.cell_block, (c + 1) * self.cell_block))
        for e in self.mesh.cell_edges[c]:
            idx.extend(range(*self._trace_range(e)))
        for e in self.mesh.cell_edges[c]:
            idx.extend(range(*self._normal_range(e)))
        return np.array(idx, dtype=int)


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

    def copy(self):
        return WeakFunction(self.dofmap, self.coeffs.copy())

    def interior(self, cell):
        return self.coeffs[self.dofmap.cell_slice(cell)]

    def trace(self, edge):
        return self.coeffs[self.dofmap.trace_slice(edge)]

    def normal(self, edge):
        return self.coeffs[self.dofmap.normal_slice(edge)]

    def boundary_magnitude(self):
        """Largest boundary DOF, zero for members of the zero-trace subspace."""
        if len(self.dofmap.boundary_dofs) == 0:
            return 0.0
        return float(np.abs(self.coeffs[self.dofmap.boundary_dofs]).max())

    def __add__(self, other):
        self._check_compatible(other)
        return WeakFunction(self.dofmap, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return WeakFunction(self.dofmap, self.coeffs - other.coeffs)

    def __mul__(self, alpha):
        return WeakFunction(self.dofmap, self.coeffs * float(alpha))

    __rmul__ = __mul__

    def __neg__(self):
        return WeakFunction(self.dofmap, -self.coeffs)

    def _check_compatible(self, other):
        if other.dofmap is not self.dofmap:
            raise ValueError("weak functions live on different DOF maps")

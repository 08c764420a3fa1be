"""Meshes of the unit square with oriented edge data.

Cells are convex polygons stored as counter-clockwise vertex rings. Every
edge carries a fixed unit normal: on interior edges it points from the
lower-indexed adjacent cell to the higher-indexed one, on boundary edges it
is the outward normal of the domain. All sign bookkeeping downstream (weak
Laplacian, jump norms) relies on this orientation rule.
"""

from __future__ import annotations

import numpy as np

#: Area of the computational domain (0,1)^2.
DOMAIN_AREA = 1.0

_AREA_TOL = 1e-12
_GEOM_TOL = 1e-12


class MeshError(ValueError):
    """A mesh violated a structural or geometric invariant."""


class MeshFileError(MeshError):
    """A mesh file could not be parsed."""


class Mesh:
    """Immutable 2D mesh of the unit square.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : tuple of vertex-index tuples, counter-clockwise
    edge_vertices : (ne, 2) int array, lower vertex index first
    edge_cells : (ne, 2) int array, (lower adjacent cell, higher adjacent
        cell); the second entry is -1 on boundary edges
    edge_normals : (ne, 2) float array, the fixed unit normal of each edge
    edge_lengths : (ne,) float array
    cell_edges : tuple of edge-index tuples, in ring order per cell
    cell_edge_signs : tuple of +-1 tuples; +1 where the edge normal is the
        outward normal of that cell
    cell_areas, cell_diameters, cell_centroids, h
    """

    def __init__(self, vertices, cells):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")
        self.cells = tuple(tuple(int(v) for v in ring) for ring in cells)
        if not self.cells:
            raise MeshError("mesh has no cells")
        self._check_rings()
        self._compute_cell_geometry()
        self._build_edges()
        self._validate()

    # -- derived geometry -------------------------------------------------

    def _check_rings(self):
        nv = len(self.vertices)
        for c, ring in enumerate(self.cells):
            if len(ring) < 3:
                raise MeshError(f"cell {c} has fewer than 3 vertices")
            if len(set(ring)) != len(ring):
                raise MeshError(f"cell {c} repeats a vertex")
            if min(ring) < 0 or max(ring) >= nv:
                raise MeshError(f"cell {c} references a missing vertex")

    def _compute_cell_geometry(self):
        ncells = len(self.cells)
        areas = np.empty(ncells)
        diams = np.empty(ncells)
        cents = np.empty((ncells, 2))
        for c, ring in enumerate(self.cells):
            pts = self.vertices[list(ring)]
            x, y = pts[:, 0], pts[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            area2 = cross.sum()
            if area2 <= 0.0:
                raise MeshError(f"cell {c} is not counter-clockwise")
            areas[c] = 0.5 * area2
            cents[c, 0] = ((x + xn) * cross).sum() / (3.0 * area2)
            cents[c, 1] = ((y + yn) * cross).sum() / (3.0 * area2)
            d = pts[:, None, :] - pts[None, :, :]
            diams[c] = np.sqrt((d * d).sum(axis=2).max())
            self._check_convex(c, pts, diams[c])
        self.cell_areas = areas
        self.cell_diameters = diams
        self.cell_centroids = cents
        self.h = float(diams.max())

    @staticmethod
    def _check_convex(c, pts, diam):
        # Fan quadrature from the centroid needs convexity.
        e = np.roll(pts, -1, axis=0) - pts
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        if np.any(cross < -_GEOM_TOL * diam * diam):
            raise MeshError(f"cell {c} is not convex")

    def _build_edges(self):
        # key: sorted vertex pair -> list of (cell, tail, head)
        seen = {}
        order = []
        for c, ring in enumerate(self.cells):
            p = len(ring)
            for i in range(p):
                a, b = ring[i], ring[(i + 1) % p]
                key = (a, b) if a < b else (b, a)
                if key not in seen:
                    seen[key] = []
                    order.append(key)
                seen[key].append((c, a, b))

        ne = len(order)
        self.edge_vertices = np.empty((ne, 2), dtype=int)
        self.edge_cells = np.empty((ne, 2), dtype=int)
        self.edge_normals = np.empty((ne, 2))
        self.edge_lengths = np.empty(ne)
        edge_id = {}
        for e, key in enumerate(order):
            uses = seen[key]
            if len(uses) > 2:
                raise MeshError(f"edge {key} is shared by more than two cells")
            if len(uses) == 2:
                (c0, a0, b0), (c1, a1, b1) = uses
                if (a0, b0) != (b1, a1):
                    raise MeshError(
                        f"edge {key} is traversed twice in the same direction")
                lo, hi = (c0, c1) if c0 < c1 else (c1, c0)
            else:
                (c0, a0, b0) = uses[0]
                lo, hi = c0, -1
            # normal = outward normal of the lower-indexed cell
            tail, head = next((a, b) for (c, a, b) in uses if c == lo)
            t = self.vertices[head] - self.vertices[tail]
            length = float(np.hypot(t[0], t[1]))
            if length <= _GEOM_TOL:
                raise MeshError(f"edge {key} has zero length")
            self.edge_vertices[e] = key
            self.edge_cells[e] = (lo, hi)
            self.edge_normals[e] = (t[1] / length, -t[0] / length)
            self.edge_lengths[e] = length
            edge_id[key] = e

        cell_edges = []
        cell_signs = []
        for c, ring in enumerate(self.cells):
            p = len(ring)
            ids = []
            signs = []
            for i in range(p):
                a, b = ring[i], ring[(i + 1) % p]
                e = edge_id[(a, b) if a < b else (b, a)]
                ids.append(e)
                signs.append(1 if self.edge_cells[e, 0] == c else -1)
            cell_edges.append(tuple(ids))
            cell_signs.append(tuple(signs))
        self.cell_edges = tuple(cell_edges)
        self.cell_edge_signs = tuple(cell_signs)

    # -- validation --------------------------------------------------------

    def _validate(self):
        v = self.vertices
        if np.any(v < -_GEOM_TOL) or np.any(v > 1.0 + _GEOM_TOL):
            raise MeshError("vertex outside the unit square")
        total = self.cell_areas.sum()
        if abs(total - DOMAIN_AREA) > _AREA_TOL:
            raise MeshError(
                f"cell areas sum to {total!r}, expected {DOMAIN_AREA}"
                " (overlap or gap in the mesh)")
        nv, ne, nc = len(self.vertices), len(self.edge_vertices), len(self.cells)
        if nv - ne + nc != 1:
            raise MeshError(
                f"Euler relation violated: V-E+C = {nv - ne + nc}, expected 1")
        for e in range(ne):
            if self.edge_cells[e, 1] == -1 and not self._on_square_boundary(e):
                a, b = self.edge_vertices[e]
                raise MeshError(f"dangling interior edge ({a}, {b})")

    def _on_square_boundary(self, e):
        p = self.vertices[self.edge_vertices[e, 0]]
        q = self.vertices[self.edge_vertices[e, 1]]
        for axis in (0, 1):
            for val in (0.0, 1.0):
                if abs(p[axis] - val) <= _GEOM_TOL and abs(q[axis] - val) <= _GEOM_TOL:
                    return True
        return False

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edge_vertices)

    @property
    def boundary_edges(self):
        return np.nonzero(self.edge_cells[:, 1] == -1)[0]

    @property
    def interior_edges(self):
        return np.nonzero(self.edge_cells[:, 1] != -1)[0]

    def edge_endpoints(self, e):
        """Endpoint coordinates, lower vertex index first (the s = -1 end)."""
        return (self.vertices[self.edge_vertices[e, 0]],
                self.vertices[self.edge_vertices[e, 1]])

    def cell_vertices(self, c):
        return self.vertices[list(self.cells[c])]


def build_uniform_triangle_mesh(n):
    """Uniform triangulation of the unit square.

    Each of the n x n squares is split by its lower-left to upper-right
    diagonal, giving 2n^2 cells, (n+1)^2 vertices and 3n^2+2n edges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = [(ix / n, iy / n) for iy in range(n + 1) for ix in range(n + 1)]
    cells = []
    for iy in range(n):
        for ix in range(n):
            ll = iy * (n + 1) + ix
            lr = ll + 1
            ul = ll + (n + 1)
            ur = ul + 1
            cells.append((ll, lr, ur))
            cells.append((ll, ur, ul))
    return Mesh(verts, cells)


def build_quad_mesh(n):
    """n x n axis-aligned square cells treated as 4-gons."""
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = [(ix / n, iy / n) for iy in range(n + 1) for ix in range(n + 1)]
    cells = []
    for iy in range(n):
        for ix in range(n):
            ll = iy * (n + 1) + ix
            lr = ll + 1
            ul = ll + (n + 1)
            ur = ul + 1
            cells.append((ll, lr, ur, ul))
    return Mesh(verts, cells)


def write_mesh_file(mesh, path):
    """Write the line-oriented text format; edges are derived, never stored."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("sfwg-mesh 1\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"cells {mesh.num_cells}\n")
        for ring in mesh.cells:
            fh.write(" ".join([str(len(ring))] + [str(v) for v in ring]) + "\n")


def read_mesh_file(path):
    """Read a mesh file and fully re-validate it.

    Normals are always recomputed from the orientation rule; the file only
    stores vertices and cell rings. A file that cannot be read, decoded or
    parsed, or whose mesh fails validation, raises MeshFileError naming the
    path.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MeshFileError(f"{path}: cannot read mesh file: {reason}") from exc
    tokens = []
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))

    def fail(lineno, msg):
        raise MeshFileError(f"{path}:{lineno}: {msg}")

    if not tokens:
        raise MeshFileError(f"{path}: empty mesh file")
    pos = 0
    lineno, head = tokens[pos]
    if head != ["sfwg-mesh", "1"]:
        fail(lineno, "expected header 'sfwg-mesh 1'")
    pos += 1

    def expect_section(name):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFileError(f"{path}: missing '{name}' section")
        lineno, words = tokens[pos]
        if len(words) != 2 or words[0] != name:
            fail(lineno, f"expected '{name} N'")
        try:
            count = int(words[1])
        except ValueError:
            fail(lineno, f"bad count in '{name}' header")
        if count < 0:
            fail(lineno, f"negative count in '{name}' header")
        pos += 1
        return count

    nv = expect_section("vertices")
    verts = []
    for _ in range(nv):
        if pos >= len(tokens):
            raise MeshFileError(f"{path}: truncated vertex list")
        lineno, words = tokens[pos]
        if len(words) != 2:
            fail(lineno, "expected 'x y'")
        try:
            verts.append((float(words[0]), float(words[1])))
        except ValueError:
            fail(lineno, "bad vertex coordinate")
        pos += 1

    nc = expect_section("cells")
    cells = []
    for _ in range(nc):
        if pos >= len(tokens):
            raise MeshFileError(f"{path}: truncated cell list")
        lineno, words = tokens[pos]
        try:
            nums = [int(w) for w in words]
        except ValueError:
            fail(lineno, "bad cell line")
        if len(nums) < 1 or len(nums) != nums[0] + 1:
            fail(lineno, "cell line must be 'p v0 ... v{p-1}'")
        cells.append(tuple(nums[1:]))
        pos += 1

    if pos != len(tokens):
        lineno, _ = tokens[pos]
        fail(lineno, "trailing content after cell list")
    try:
        return Mesh(verts, cells)
    except MeshError as exc:
        raise MeshFileError(f"{path}: {exc}") from exc

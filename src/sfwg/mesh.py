"""Meshes of the unit square with oriented edge data.

Cells are convex polygons stored as counter-clockwise vertex rings. Every
edge carries a fixed unit normal: on interior edges it points from the
lower-indexed adjacent cell to the higher-indexed one, on boundary edges it
is the outward normal of the domain. Only the mesh applies this rule: each
`CellGroup` holds n_e . n for its cells' edges, n the cell's outward normal.

A mesh is built from whole arrays: the cells are grouped by vertex count
(`CellGroup`), and each group's geometry and checks are computed for all of
its cells at once. Edges are numbered in order of first appearance, cell by
cell along each ring. The checks run in a fixed order, and the first fault
found is the one raised: every ring (in cell order), then orientation and
convexity (per cell, in cell order), then the edges (in edge order), then
the domain. Every array of a mesh is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

#: Area of the computational domain (0,1)^2.
DOMAIN_AREA = 1.0

_AREA_TOL = 1e-12
_GEOM_TOL = 1e-12

# Fault messages by code, 0 for none, in the order each entity is checked.
_RING_FAULTS = ("", "has fewer than 3 vertices", "repeats a vertex",
                "references a missing vertex")
_SHAPE_FAULTS = ("", "is not counter-clockwise", "is not convex")
_EDGE_FAULTS = ("", "is shared by more than two cells",
                "is traversed twice in the same direction", "has zero length")


class MeshError(ValueError):
    """A mesh violated a structural or geometric invariant."""


class MeshFileError(MeshError):
    """A mesh file could not be parsed."""


@dataclass(frozen=True)
class CellGroup:
    """The cells with one vertex count p, as rows of read-only tables.

    cells : (n,) int array, the cell indices, ascending
    edges : (n, p) int array, the edges of each cell in ring order
    signs : (n, p) float array, n_e . n on those edges: +1.0 where the cell
        is the lower-indexed one of the edge, and -1.0 elsewhere
    points : (n, p, 2) float array, the vertex coordinates of each ring
    """

    cells: np.ndarray
    edges: np.ndarray
    signs: np.ndarray
    points: np.ndarray


def as_int(name, value):
    """value as an int; a bool or a non-integer raises a ValueError naming
    it. Numpy integers are taken as ints."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def _first_fault(codes, messages, name):
    """Raise a MeshError for the first nonzero code, naming its entity."""
    bad = np.flatnonzero(codes)
    if len(bad):
        i = bad[0]
        raise MeshError(f"{name(i)} {messages[codes[i]]}")


def _rings(cells):
    """The cell rings as tuples of Python ints. An index that is not an
    integer (a float, a string, a bool) raises a MeshError naming its cell;
    converting it would truncate 1.9 to vertex 1 or parse "1"."""
    rings = tuple(map(tuple, cells))
    if {type(v) for ring in rings for v in ring} <= {int}:
        return rings
    for c, ring in enumerate(rings):
        for v in ring:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise MeshError(
                    f"cell {c} has a non-integer vertex index {v!r}")
    return tuple(tuple(map(int, ring)) for ring in rings)


def _ring_tables(rings, sizes, nv):
    """{p: (cells, (n, p) vertex table)} per vertex count p, after checking
    every ring."""
    codes = np.zeros(len(rings), dtype=np.intp)
    tables = {}
    for p in np.unique(sizes).tolist():
        cells = np.flatnonzero(sizes == p)
        if p < 3:
            codes[cells] = 1
            continue
        rows = [rings[c] for c in cells.tolist()]
        try:
            table = np.array(rows, dtype=np.intp)
        except OverflowError:
            # an index beyond the machine integers is checked as a Python
            # int, and fails as a missing vertex
            table = np.array(rows, dtype=object)
        srt = np.sort(table, axis=1)
        repeats = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        missing = (srt[:, 0] < 0) | (srt[:, -1] >= nv)
        codes[cells] = np.where(repeats, 2, np.where(missing, 3, 0))
        tables[p] = (cells, table)
    _first_fault(codes, _RING_FAULTS, lambda c: f"cell {c}")
    return tables


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
    cell_groups : read-only mapping from vertex count p to the `CellGroup`
        of the cells with p vertices (the one cell-edge incidence), by
        ascending p
    cell_rows : (nc,) int array, the row of each cell in its group's tables
    cell_areas, cell_diameters, cell_centroids, h

    Every array is read-only, the rows returned by `edge_endpoints` and
    `cell_vertices` included, and after construction setting or deleting
    any attribute raises an AttributeError naming it.
    """

    _frozen = False

    def __init__(self, vertices, cells):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")
        self.cells = _rings(cells)
        if not self.cells:
            raise MeshError("mesh has no cells")
        sizes = np.fromiter(map(len, self.cells), dtype=np.intp,
                            count=len(self.cells))
        tables = _ring_tables(self.cells, sizes, len(self.vertices))
        points = self._compute_cell_geometry(tables)
        incidence = self._build_edges(tables, sizes)
        self._validate()
        self.cell_rows = np.empty(len(self.cells), dtype=np.intp)
        groups = {}
        for p, (cells, _) in tables.items():
            self.cell_rows[cells] = np.arange(len(cells))
            group = CellGroup(cells, *incidence[p], points[p])
            _read_only(group.cells, group.edges, group.signs, group.points)
            groups[p] = group
        self.cell_groups = MappingProxyType(groups)
        _read_only(self.vertices, self.edge_vertices, self.edge_cells,
                   self.edge_normals, self.edge_lengths, self.cell_areas,
                   self.cell_diameters, self.cell_centroids, self.cell_rows)
        self._frozen = True

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"Mesh is immutable: cannot set {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"Mesh is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # a copy or an unpickled mesh is built again from its vertices and
        # rings, since `cell_groups` cannot be pickled
        return Mesh, (self.vertices, self.cells)

    # -- derived geometry -------------------------------------------------

    def _compute_cell_geometry(self, tables):
        """Areas, centroids and diameters, after the orientation and
        convexity checks; returns the (n, p, 2) ring coordinates per p."""
        ncells = len(self.cells)
        areas = np.empty(ncells)
        diams = np.empty(ncells)
        cents = np.empty((ncells, 2))
        codes = np.zeros(ncells, dtype=np.intp)
        points = {}
        for p, (cells, table) in tables.items():
            pts = self.vertices[table]
            x, y = pts[..., 0], pts[..., 1]
            xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
            cross = x * yn - xn * y
            area2 = cross.sum(axis=1)
            d = pts[:, :, None, :] - pts[:, None, :, :]
            diam = np.sqrt((d * d).sum(axis=3).max(axis=(1, 2)))
            # Fan quadrature from the centroid needs convexity.
            e = np.roll(pts, -1, axis=1) - pts
            turn = (e[..., 0] * np.roll(e[..., 1], -1, axis=1)
                    - e[..., 1] * np.roll(e[..., 0], -1, axis=1))
            tol = -_GEOM_TOL * diam[:, None] * diam[:, None]
            codes[cells] = np.where(area2 <= 0.0, 1,
                                    np.where((turn < tol).any(axis=1), 2, 0))
            areas[cells] = 0.5 * area2
            diams[cells] = diam
            # a cell without area fails the orientation check below
            with np.errstate(divide="ignore", invalid="ignore"):
                cents[cells, 0] = (((x + xn) * cross).sum(axis=1)
                                   / (3.0 * area2))
                cents[cells, 1] = (((y + yn) * cross).sum(axis=1)
                                   / (3.0 * area2))
            points[p] = pts
        _first_fault(codes, _SHAPE_FAULTS, lambda c: f"cell {c}")
        self.cell_areas = areas
        self.cell_diameters = diams
        self.cell_centroids = cents
        self.h = float(diams.max())
        return points

    def _build_edges(self, tables, sizes):
        """The edge arrays; returns the cell-edge incidence per vertex count
        p, as (n, p) tables of edges and of their signs."""
        nv = len(self.vertices)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        # half-edge i runs from tails[i] to heads[i] along the ring of
        # owner[i]; half-edges are numbered cell by cell in ring order
        tails = np.empty(starts[-1], dtype=np.intp)
        heads = np.empty_like(tails)
        owner = np.empty_like(tails)
        slots = {}
        for p, (cells, table) in tables.items():
            slot = starts[cells][:, None] + np.arange(p)
            tails[slot] = table
            heads[slot] = np.roll(table, -1, axis=1)
            owner[slot] = cells[:, None]
            slots[p] = slot
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        _, first, inverse = np.unique(lo * nv + hi, return_index=True,
                                      return_inverse=True)
        # number the vertex pairs by first appearance
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        edge_of = rank[inverse]
        first_use = first[order]
        uses = np.bincount(edge_of)
        # the second use of each edge; read only where there is one
        by_edge = np.argsort(edge_of, kind="stable")
        after_first = np.minimum(np.cumsum(uses) - uses + 1, len(tails) - 1)
        second_use = by_edge[after_first]

        # the normal is the outward normal of the lower-indexed cell, whose
        # half-edge is the first use
        tail, head = tails[first_use], heads[first_use]
        t = self.vertices[head] - self.vertices[tail]
        length = np.hypot(t[:, 0], t[:, 1])
        codes = np.select(
            [uses > 2, (uses == 2) & (tails[second_use] == tail),
             length <= _GEOM_TOL], [1, 2, 3], 0)
        _first_fault(codes, _EDGE_FAULTS, lambda e: "edge {}".format(
            (int(lo[first_use[e]]), int(hi[first_use[e]]))))

        self.edge_vertices = np.column_stack([lo[first_use], hi[first_use]])
        self.edge_cells = np.column_stack(
            [owner[first_use], np.where(uses == 2, owner[second_use], -1)])
        self.edge_normals = np.empty((len(first_use), 2))
        self.edge_normals[:, 0] = t[:, 1] / length
        self.edge_normals[:, 1] = -t[:, 0] / length
        self.edge_lengths = length

        signs = np.where(self.edge_cells[edge_of, 0] == owner, 1.0, -1.0)
        return {p: (edge_of[slot], signs[slot]) for p, slot in slots.items()}

    # -- validation --------------------------------------------------------

    def _validate(self):
        v = self.vertices
        if np.any(v < -_GEOM_TOL) or np.any(v > 1.0 + _GEOM_TOL):
            raise MeshError("vertex outside the unit square")
        total = self.cell_areas.sum()
        if abs(total - DOMAIN_AREA) > _AREA_TOL:
            raise MeshError(
                f"cell areas sum to {float(total)!r}, expected {DOMAIN_AREA}"
                " (overlap or gap in the mesh)")
        nv, ne, nc = len(self.vertices), len(self.edge_vertices), len(self.cells)
        if nv - ne + nc != 1:
            raise MeshError(
                f"Euler relation violated: V-E+C = {nv - ne + nc}, expected 1")
        boundary = np.flatnonzero(self.edge_cells[:, 1] == -1)
        p = v[self.edge_vertices[boundary, 0]]
        q = v[self.edge_vertices[boundary, 1]]
        on_side = np.zeros(len(boundary), dtype=bool)
        for axis in (0, 1):
            for val in (0.0, 1.0):
                on_side |= ((np.abs(p[:, axis] - val) <= _GEOM_TOL)
                            & (np.abs(q[:, axis] - val) <= _GEOM_TOL))
        dangling = boundary[~on_side]
        if len(dangling):
            a, b = self.edge_vertices[dangling[0]]
            raise MeshError(f"dangling interior edge ({a}, {b})")

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
        """The (p, 2) vertex coordinates of cell c, in ring order."""
        return self.cell_groups[len(self.cells[c])].points[self.cell_rows[c]]


def _square_grid(n, split):
    """The mesh of the n x n squares of the unit square, each square with
    corners (ll, lr, ur, ul) giving the cells `split(ll, lr, ur, ul)`; the
    (n+1)^2 vertices are numbered row by row from (0, 0). A bool or a
    non-integer n raises a ValueError, as does n < 1."""
    n = as_int("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = [(ix / n, iy / n) for iy in range(n + 1) for ix in range(n + 1)]
    cells = []
    for iy in range(n):
        for ix in range(n):
            ll = iy * (n + 1) + ix
            ul = ll + (n + 1)
            cells.extend(split(ll, ll + 1, ul + 1, ul))
    return Mesh(verts, cells)


def build_uniform_triangle_mesh(n):
    """Uniform triangulation of the unit square.

    Each of the n x n squares is split by its lower-left to upper-right
    diagonal, giving 2n^2 cells, (n+1)^2 vertices and 3n^2+2n edges.
    """
    return _square_grid(n, lambda ll, lr, ur, ul: ((ll, lr, ur),
                                                    (ll, ur, ul)))


def build_quad_mesh(n):
    """n x n axis-aligned square cells treated as 4-gons."""
    return _square_grid(n, lambda ll, lr, ur, ul: ((ll, lr, ur, ul),))


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

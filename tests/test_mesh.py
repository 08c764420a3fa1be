import pickle

import numpy as np
import pytest

from sfwg import mesh as sm


def test_triangle_mesh_n1_counts():
    m = sm.build_uniform_triangle_mesh(1)
    assert m.num_cells == 2
    assert m.num_vertices == 4
    assert m.num_edges == 5


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_triangle_mesh_count_formulas(n):
    m = sm.build_uniform_triangle_mesh(n)
    assert m.num_cells == 2 * n * n
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_edges == 3 * n * n + 2 * n
    assert m.cell_areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_triangle_mesh_diameters():
    m = sm.build_uniform_triangle_mesh(2)
    assert np.allclose(m.cell_diameters, np.sqrt(2.0) / 2.0)
    assert m.h == pytest.approx(np.sqrt(2.0) / 2.0)


@pytest.mark.parametrize("n,cells,verts,edges,boundary", [
    (1, 1, 4, 4, 4),
    (2, 4, 9, 12, 8),
    (3, 9, 16, 24, 12),
])
def test_quad_mesh_counts(n, cells, verts, edges, boundary):
    m = sm.build_quad_mesh(n)
    assert m.num_cells == cells
    assert m.num_vertices == verts
    assert m.num_edges == edges
    assert len(m.boundary_edges) == boundary
    assert m.num_edges == 2 * n * (n + 1)


def test_quad_mesh_diameter():
    m = sm.build_quad_mesh(3)
    assert np.allclose(m.cell_diameters, np.sqrt(2.0) / 3.0)


@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
@pytest.mark.parametrize("n", list(range(1, 17)))
def test_mesh_invariants(build, n):
    m = build(n)
    # Euler relation for a simply connected mesh of the square
    assert m.num_vertices - m.num_edges + m.num_cells == 1
    assert m.cell_areas.sum() == pytest.approx(1.0, abs=1e-12)
    norms = np.linalg.norm(m.edge_normals, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-14


def test_boundary_edge_normal_points_outward():
    m = sm.build_quad_mesh(2)
    for e in m.boundary_edges:
        mid = 0.5 * (m.vertices[m.edge_vertices[e, 0]]
                     + m.vertices[m.edge_vertices[e, 1]])
        outside = mid + 1e-3 * m.edge_normals[e]
        assert (outside < -1e-9).any() or (outside > 1 + 1e-9).any()


def test_roundtrip_bit_exact(tmp_path):
    m = sm.build_uniform_triangle_mesh(3)
    path = tmp_path / "tri3.msh"
    sm.write_mesh_file(m, path)
    m2 = sm.read_mesh_file(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.cells == m2.cells
    assert np.array_equal(m.edge_vertices, m2.edge_vertices)
    assert np.array_equal(m.edge_cells, m2.edge_cells)


def test_read_matches_builder(tmp_path):
    path = tmp_path / "tri1.msh"
    sm.write_mesh_file(sm.build_uniform_triangle_mesh(1), path)
    m = sm.read_mesh_file(path)
    ref = sm.build_uniform_triangle_mesh(1)
    assert m.cells == ref.cells
    assert np.array_equal(m.vertices, ref.vertices)


def test_read_file_with_comments(tmp_path):
    path = tmp_path / "hand.msh"
    path.write_text(
        "# hand-written square\n"
        "sfwg-mesh 1\n"
        "vertices 4\n"
        "0 0\n1 0\n1 1\n0 1  # upper left\n"
        "cells 1\n"
        "4 0 1 2 3\n")
    m = sm.read_mesh_file(path)
    assert m.num_cells == 1
    assert m.num_edges == 4


def test_clockwise_cell_rejected(tmp_path):
    path = tmp_path / "cw.msh"
    path.write_text(
        "sfwg-mesh 1\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n4 0 3 2 1\n")
    with pytest.raises(sm.MeshFileError, match="counter-clockwise") as info:
        sm.read_mesh_file(path)
    assert str(info.value).startswith(f"{path}: ")


def test_area_deficit_rejected(tmp_path):
    path = tmp_path / "gap.msh"
    path.write_text(
        "sfwg-mesh 1\nvertices 4\n0 0\n0.9 0\n0.9 1\n0 1\ncells 1\n4 0 1 2 3\n")
    with pytest.raises(sm.MeshFileError, match="areas sum") as info:
        sm.read_mesh_file(path)
    assert str(info.value).startswith(f"{path}: ")


def test_malformed_file_rejected(tmp_path):
    bad_header = tmp_path / "bad.msh"
    bad_header.write_text("not-a-mesh\n")
    with pytest.raises(sm.MeshFileError):
        sm.read_mesh_file(bad_header)
    truncated = tmp_path / "trunc.msh"
    truncated.write_text("sfwg-mesh 1\nvertices 2\n0 0\n")
    with pytest.raises(sm.MeshFileError):
        sm.read_mesh_file(truncated)


def test_unreadable_file_rejected(tmp_path):
    # missing, a directory, or not ASCII: each names the path
    undecodable = tmp_path / "latin.msh"
    undecodable.write_bytes(b"sfwg-mesh 1\n# caf\xe9\n")
    for path in (tmp_path / "missing.msh", tmp_path, undecodable):
        with pytest.raises(sm.MeshFileError, match="cannot read mesh file"):
            sm.read_mesh_file(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_vertex_rejected(tmp_path, bad):
    # NaN fails every comparison, so the bounds and area checks alone pass it
    m = sm.build_quad_mesh(2)
    verts = m.vertices.copy()
    verts[4] = float(bad)  # the centre vertex (0.5, 0.5)
    with pytest.raises(sm.MeshError, match="finite"):
        sm.Mesh(verts, m.cells)
    path = tmp_path / "bad.msh"
    sm.write_mesh_file(m, path)
    text = path.read_text()
    assert text.count("\n0.5 0.5\n") == 1
    path.write_text(text.replace("\n0.5 0.5\n", f"\n{bad} {bad}\n"))
    with pytest.raises(sm.MeshFileError, match="finite") as info:
        sm.read_mesh_file(path)
    assert str(info.value).startswith(f"{path}: ")


def test_dangling_interior_edge_rejected():
    # two triangles that cover the square but reference duplicate vertices
    # for the diagonal: each diagonal edge is used once and is not on the
    # domain boundary
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (1, 1)]
    cells = [(0, 1, 2), (0, 4, 3)]
    with pytest.raises(sm.MeshError, match="dangling"):
        sm.Mesh(verts, cells)


def test_nonconvex_cell_rejected():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    with pytest.raises(sm.MeshError, match="convex"):
        sm.Mesh(verts, [(0, 1, 2, 4, 3)])  # reentrant corner at (0.5, 0.5)


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        sm.build_uniform_triangle_mesh(0)
    with pytest.raises(ValueError):
        sm.build_quad_mesh(0)


# -- every MeshError of Mesh(...), message and precedence -------------------

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
# the square cut into a quad and three triangles around (0.5, 0.5)
MIXED = SQUARE + [(0.5, 0.5), (0.5, 0)]
MIXED_CELLS = [(0, 5, 4), (5, 1, 2, 4), (2, 3, 4), (4, 3, 0)]


@pytest.mark.parametrize("verts,cells,message", [
    ([0, 1, 2], [(0, 1, 2)], "vertices must be an (nv, 2) array"),
    ([(0, 0), (1, float("nan")), (1, 1)], [(0, 1, 2)],
     "vertex coordinates must be finite"),
    (SQUARE, [], "mesh has no cells"),
    (SQUARE, [(0, 1, 2), (0, 2, 3), (0, 1)],
     "cell 2 has fewer than 3 vertices"),
    (SQUARE, [(0, 1, 2), (0, 2, 2)], "cell 1 repeats a vertex"),
    (SQUARE, [(0, 1, 2), (0, 2, 9)], "cell 1 references a missing vertex"),
    (SQUARE, [(0, 1, 2), (0, -1, 3)], "cell 1 references a missing vertex"),
    (SQUARE, [(0, 1, 2), (0, 3, 2)], "cell 1 is not counter-clockwise"),
    # no area: no centroid, and no division warning
    (SQUARE + [(0.5, 0)], [(0, 4, 1)], "cell 0 is not counter-clockwise"),
    (SQUARE + [(0.5, 0.5)], [(0, 1, 2, 4, 3)], "cell 0 is not convex"),
    # a third cell on edge (0, 1), on the side of the first
    ([(0, 0), (1, 0), (0.5, 0.5), (0.5, -0.5), (0.5, 0.2)],
     [(0, 1, 2), (1, 0, 3), (0, 1, 4)],
     "edge (0, 1) is shared by more than two cells"),
    ([(0, 0), (1, 0), (0.5, 0.5), (0.5, 0.2)], [(0, 1, 2), (0, 1, 3)],
     "edge (0, 1) is traversed twice in the same direction"),
    # vertex 4 duplicates vertex 2: positive area, convex, one empty edge
    (SQUARE + [(1, 1)], [(0, 1, 2, 4, 3)], "edge (2, 4) has zero length"),
    ([(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 1, 2, 3)],
     "vertex outside the unit square"),
    ([(0, 0), (0.9, 0), (0.9, 1), (0, 1)], [(0, 1, 2, 3)],
     "cell areas sum to 0.9, expected 1.0 (overlap or gap in the mesh)"),
    # an unused vertex
    (SQUARE + [(0.5, 0.5)], [(0, 1, 2, 3)],
     "Euler relation violated: V-E+C = 2, expected 1"),
    ([(0, 0), (1, 0), (1, 1), (0, 1), (1, 1)], [(0, 1, 2), (0, 4, 3)],
     "dangling interior edge (0, 2)"),
])
def test_mesh_error_messages(verts, cells, message):
    with pytest.raises(sm.MeshError) as info:
        sm.Mesh(verts, cells)
    assert str(info.value) == message


def test_mixed_mesh_is_valid():
    m = sm.Mesh(MIXED, MIXED_CELLS)
    assert m.num_cells == 4 and m.num_edges == 9


def _mixed(**replace):
    cells = list(MIXED_CELLS)
    for c, ring in replace.items():
        cells[int(c[1:])] = ring
    return cells


@pytest.mark.parametrize("verts,cells,message", [
    # two bad cells: the lower index is named, whatever its vertex count
    (MIXED, _mixed(c1=(4, 2, 1, 5), c2=(4, 3, 2)),
     "cell 1 is not counter-clockwise"),
    (MIXED, [MIXED_CELLS[0], (4, 3, 2), (4, 2, 1, 5), MIXED_CELLS[3]],
     "cell 1 is not counter-clockwise"),
    # a reentrant quad at (0.9, 0.5) before a clockwise triangle
    (MIXED + [(0.9, 0.5)], _mixed(c1=(5, 1, 2, 6), c2=(4, 3, 2)),
     "cell 1 is not convex"),
    # within one cell, orientation is checked before convexity
    (SQUARE + [(0.5, 0.5)], [(3, 4, 2, 1, 0)],
     "cell 0 is not counter-clockwise"),
    # every ring is checked before any geometry
    (SQUARE, [(0, 3, 2), (0, 2, 9)], "cell 1 references a missing vertex"),
    # edges are checked in order of first appearance, not of vertex pair:
    # (2, 4) is edge 2, (0, 3) is edge 4
    (SQUARE + [(1, 1), (0.5, 0.5)], [(0, 1, 2, 4, 3), (3, 0, 5)],
     "edge (2, 4) has zero length"),
    (SQUARE + [(1, 1), (0.5, 0.5)], [(0, 1, 2, 4, 3), (0, 1, 5)],
     "edge (0, 1) is traversed twice in the same direction"),
])
def test_mesh_error_precedence(verts, cells, message):
    with pytest.raises(sm.MeshError) as info:
        sm.Mesh(verts, cells)
    assert str(info.value) == message


# -- vertex indices must be integers ------------------------------------------


@pytest.mark.parametrize("bad", [1.9, 1.0, "1", True, np.True_, np.float64(1)])
def test_non_integer_vertex_index_rejected(bad):
    # int() would truncate 1.9 to vertex 1 and parse "1"
    with pytest.raises(sm.MeshError) as info:
        sm.Mesh(SQUARE, [(0, 2, 3), (0, bad, 2)])
    assert str(info.value) == f"cell 1 has a non-integer vertex index {bad!r}"


def test_numpy_integer_vertex_indices_accepted():
    ref = sm.Mesh(SQUARE, [(0, 1, 2), (0, 2, 3)])
    for cells in (np.array([(0, 1, 2), (0, 2, 3)], dtype=np.int32),
                  [(np.int64(0), np.uint8(1), 2), (0, 2, np.int16(3))]):
        m = sm.Mesh(SQUARE, cells)
        assert m.cells == ref.cells
        assert all(type(v) is int for ring in m.cells for v in ring)


def test_index_beyond_machine_integers_is_a_missing_vertex():
    with pytest.raises(sm.MeshError) as info:
        sm.Mesh(SQUARE, [(0, 1, 2), (0, 2, 2 ** 70)])
    assert str(info.value) == "cell 1 references a missing vertex"


# -- read-only arrays ---------------------------------------------------------


def test_mesh_arrays_are_read_only():
    m = sm.Mesh(MIXED, MIXED_CELLS)
    arrays = [m.vertices, m.edge_vertices, m.edge_cells, m.edge_normals,
              m.edge_lengths, m.cell_areas, m.cell_diameters,
              m.cell_centroids, m.cell_rows, *m.edge_endpoints(0),
              m.cell_vertices(0), m.cell_vertices(1)]
    for group in m.cell_groups.values():
        arrays += [group.cells, group.edges, group.signs, group.points]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_mesh_attributes_cannot_be_rebound():
    # normals and the groups' signs could otherwise be made to disagree
    m = sm.Mesh(MIXED, MIXED_CELLS)
    normals = m.edge_normals
    with pytest.raises(AttributeError, match="'edge_normals'"):
        m.edge_normals = -normals
    with pytest.raises(AttributeError, match="'h'"):
        del m.h
    group = m.cell_groups[3]
    with pytest.raises(TypeError):
        m.cell_groups[3] = group
    assert m.edge_normals is normals and m.cell_groups[3] is group
    # a pickled mesh is built again, and guarded again
    m2 = pickle.loads(pickle.dumps(m))
    assert np.array_equal(m2.edge_normals, normals)
    with pytest.raises(AttributeError, match="'edge_normals'"):
        m2.edge_normals = normals


# -- bitwise oracle: the former per-cell, per-edge loop builder ---------------


def _loop_mesh(vertices, cells):
    """The mesh attributes as the former loop builder computed them."""
    v = np.array(vertices, dtype=float)
    cells = tuple(tuple(int(i) for i in ring) for ring in cells)
    nc = len(cells)
    areas, diams, cents = np.empty(nc), np.empty(nc), np.empty((nc, 2))
    for c, ring in enumerate(cells):
        pts = v[list(ring)]
        x, y = pts[:, 0], pts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        area2 = cross.sum()
        areas[c] = 0.5 * area2
        cents[c, 0] = ((x + xn) * cross).sum() / (3.0 * area2)
        cents[c, 1] = ((y + yn) * cross).sum() / (3.0 * area2)
        d = pts[:, None, :] - pts[None, :, :]
        diams[c] = np.sqrt((d * d).sum(axis=2).max())
    seen, order = {}, []
    for c, ring in enumerate(cells):
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            key = (a, b) if a < b else (b, a)
            if key not in seen:
                seen[key] = []
                order.append(key)
            seen[key].append((c, a, b))
    ne = len(order)
    ev, ec = np.empty((ne, 2), dtype=int), np.empty((ne, 2), dtype=int)
    en, el = np.empty((ne, 2)), np.empty(ne)
    edge_id = {}
    for e, key in enumerate(order):
        uses = seen[key]
        lo = uses[0][0]
        hi = uses[1][0] if len(uses) == 2 else -1
        tail, head = uses[0][1:]
        t = v[head] - v[tail]
        length = float(np.hypot(t[0], t[1]))
        ev[e], ec[e] = key, (lo, hi)
        en[e] = (t[1] / length, -t[0] / length)
        el[e] = length
        edge_id[key] = e
    cell_edges, cell_signs = [], []
    for c, ring in enumerate(cells):
        ids = [edge_id[tuple(sorted((ring[i], ring[(i + 1) % len(ring)])))]
               for i in range(len(ring))]
        cell_edges.append(tuple(ids))
        cell_signs.append(tuple(1.0 if ec[e, 0] == c else -1.0 for e in ids))
    return dict(vertices=v, cells=cells, edge_vertices=ev, edge_cells=ec,
                edge_normals=en, edge_lengths=el,
                cell_edges=tuple(cell_edges),
                cell_edge_signs=tuple(cell_signs), cell_areas=areas,
                cell_diameters=diams, cell_centroids=cents,
                h=float(diams.max()))


def _jittered_quads(n, seed):
    rng = np.random.default_rng(seed)
    grid = sm.build_quad_mesh(n)
    verts = grid.vertices.copy()
    inner = (verts > 0.0).all(axis=1) & (verts < 1.0).all(axis=1)
    verts[inner] += rng.uniform(-0.2 / n, 0.2 / n, (inner.sum(), 2))
    return verts, grid.cells


def _oracle_cases():
    from test_polygon_cells import PENTA_CELLS, PENTA_VERTS
    cases = [(f"tri{n}", sm.build_uniform_triangle_mesh(n))
             for n in range(1, 5)]
    cases.append(("quad3", sm.build_quad_mesh(3)))
    cases = [(name, (m.vertices, m.cells)) for name, m in cases]
    return cases + [("jitter", _jittered_quads(6, 7)),
                    ("pentagon", (PENTA_VERTS, PENTA_CELLS)),
                    ("mixed", (MIXED, MIXED_CELLS))]


@pytest.mark.parametrize("verts,cells", [c for _, c in _oracle_cases()],
                         ids=[name for name, _ in _oracle_cases()])
def test_mesh_bit_equal_to_loop_builder(verts, cells):
    m = sm.Mesh(verts, cells)
    oracle = _loop_mesh(verts, cells)
    cell_edges = oracle.pop("cell_edges")
    cell_signs = oracle.pop("cell_edge_signs")
    for name, want in oracle.items():
        got = getattr(m, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    for p, group in m.cell_groups.items():
        assert np.array_equal(group.cells,
                              [c for c, ring in enumerate(m.cells)
                               if len(ring) == p])
        assert group.signs.dtype == np.float64
        for r, c in enumerate(group.cells):
            assert m.cell_rows[c] == r
            assert tuple(group.edges[r]) == cell_edges[c]
            assert tuple(group.signs[r]) == cell_signs[c]
            assert np.array_equal(group.points[r],
                                  m.vertices[list(m.cells[c])])


@pytest.mark.parametrize("verts,cells", [c for _, c in _oracle_cases()],
                         ids=[name for name, _ in _oracle_cases()])
def test_interior_edge_normals_are_cell_outward(verts, cells):
    m = sm.Mesh(verts, cells)
    signs = {}
    for group in m.cell_groups.values():
        for c, edges, row in zip(group.cells.tolist(), group.edges.tolist(),
                                 group.signs.tolist()):
            ring = m.cells[c]
            for pos, (e, sign) in enumerate(zip(edges, row)):
                a, b = ring[pos], ring[(pos + 1) % len(ring)]
                t = m.vertices[b] - m.vertices[a]
                outward = np.array([t[1], -t[0]]) / np.hypot(*t)
                assert np.allclose(sign * m.edge_normals[e], outward,
                                   atol=1e-14)
                signs[c, e] = sign
    # interior edges: lower-indexed cell sees +1, higher sees -1
    for e in m.interior_edges.tolist():
        lo, hi = m.edge_cells[e].tolist()
        assert signs[lo, e] == 1.0
        assert signs[hi, e] == -1.0

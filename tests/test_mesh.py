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


@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
def test_interior_edge_normals_are_cell_outward(build):
    m = build(3)
    for c in range(m.num_cells):
        ring = m.cells[c]
        p = len(ring)
        for pos, e in enumerate(m.cell_edges[c]):
            a, b = ring[pos], ring[(pos + 1) % p]
            t = m.vertices[b] - m.vertices[a]
            outward = np.array([t[1], -t[0]]) / np.hypot(*t)
            sign = m.cell_edge_signs[c][pos]
            assert np.allclose(sign * m.edge_normals[e], outward, atol=1e-14)
    # interior edges: lower-indexed cell sees +1, higher sees -1
    for e in m.interior_edges:
        lo, hi = m.edge_cells[e]
        pos_lo = m.cell_edges[lo].index(e)
        pos_hi = m.cell_edges[hi].index(e)
        assert m.cell_edge_signs[lo][pos_lo] == 1
        assert m.cell_edge_signs[hi][pos_hi] == -1


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
    with pytest.raises(sm.MeshError, match="counter-clockwise"):
        sm.read_mesh_file(path)


def test_area_deficit_rejected(tmp_path):
    path = tmp_path / "gap.msh"
    path.write_text(
        "sfwg-mesh 1\nvertices 4\n0 0\n0.9 0\n0.9 1\n0 1\ncells 1\n4 0 1 2 3\n")
    with pytest.raises(sm.MeshError, match="areas sum"):
        sm.read_mesh_file(path)


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

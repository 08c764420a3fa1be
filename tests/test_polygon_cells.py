"""General convex-polygon cells (beyond the built-in quads) through the
whole pipeline: a mixed pentagon/triangle mesh of the unit square."""

import numpy as np
import pytest

from sfwg import assembly as asm, checks, driver as dr, errors as er, fespace as fs, mesh as sm, weakcalc as wc

PENTA_VERTS = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0),
               (1.0, 1.0)]
PENTA_CELLS = [(0, 1, 2, 3, 4),   # pentagon (corner cut off)
               (2, 5, 3)]         # the cut corner triangle


@pytest.fixture(scope="module")
def penta_mesh():
    return sm.Mesh(PENTA_VERTS, PENTA_CELLS)


def test_mixed_mesh_validates(penta_mesh):
    m = penta_mesh
    assert m.num_cells == 2
    assert m.cell_areas.sum() == pytest.approx(1.0, abs=1e-14)
    assert m.cell_areas[0] == pytest.approx(0.875)
    assert m.num_vertices - m.num_edges + m.num_cells == 1
    assert len(m.interior_edges) == 1


def test_mixed_mesh_roundtrip(tmp_path, penta_mesh):
    path = tmp_path / "penta.msh"
    sm.write_mesh_file(penta_mesh, path)
    back = sm.read_mesh_file(path)
    assert back.cells == penta_mesh.cells
    assert np.array_equal(back.vertices, penta_mesh.vertices)


def test_pentagon_quadrature_moments(penta_mesh):
    rule = fs.cell_quadrature(penta_mesh, 0, 8)
    x, y, w = rule.points[:, 0], rule.points[:, 1], rule.weights
    assert w.sum() == pytest.approx(0.875, abs=1e-13)
    # moment of x*y over the pentagon: square minus corner triangle
    # (triangle (1,.5),(1,1),(.5,1): int xy = 31/384 by direct integration)
    tri = fs.triangle_quadrature(8, np.array([[1.0, 0.5], [1.0, 1.0],
                                              [0.5, 1.0]]))
    tri_xy = float(tri.weights @ (tri.points[:, 0] * tri.points[:, 1]))
    assert w @ (x * y) == pytest.approx(0.25 - tri_xy, abs=1e-13)


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_weak_laplacian_exactness_on_pentagon(penta_mesh):
    # the polynomial identity exercises all five edge sign paths at once
    assert checks.exactness_gap(penta_mesh, 2, 8) <= 1e-9


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_stationary_solve_on_mixed_mesh(penta_mesh):
    sol = er.default_solution()
    dm = fs.build_dofmap(penta_mesh, 2)
    f0 = lambda x, y: sol.bilaplace_u(0.0, x, y)
    prob = dr.TransientProblem(penta_mesh, dm, 8, lambda t, x, y: f0(x, y),
                               sol.boundary_data())
    assert checks.free_min_eig(prob.A, dm) > 0.0
    U = prob.stationary()
    Qh = wc.interpolate(lambda x, y: sol.u(0.0, x, y),
                        lambda x, y: sol.grad_u(0.0, x, y), dm)
    err = er.triple_bar_norm(Qh - U, prob.A)
    assert np.isfinite(err) and 0.0 < err < 1e4


def test_stiffness_rejects_j_below_coercivity_threshold(penta_mesh):
    # five edges per cell: j must be at least k + 4
    dm = fs.build_dofmap(penta_mesh, 2)
    with pytest.raises(ValueError, match="coercivity"):
        asm.assemble_stiffness(dm, 5)
    assert checks.free_min_eig(asm.assemble_stiffness(dm, 6),
                               dm) > 0.0

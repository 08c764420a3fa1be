import copy
import dataclasses

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legval, legvander
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from sfwg import checks, errors as er, fespace as fs, mesh as sm, weakcalc as wc
from conftest import monomial_field


def test_weak_laplacian_of_constant_is_zero():
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    u, gu, _ = monomial_field(0, 0)
    w = wc.interpolate(u, gu, dm)
    for c in range(m.num_cells):
        op = wc.local_weak_laplacian(dm, c, 5)
        got = op.apply(w.coeffs[dm.cell_dofs(c)])
        # the function Dw(1) vanishes; measure in the L2(T) coefficient norm
        assert np.sqrt(got @ op.mass @ got) < 1e-11


@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
def test_weak_laplacian_of_x_squared_is_two(build):
    m = build(2)
    dm = fs.build_dofmap(m, 2)
    u, gu, _ = monomial_field(2, 0)
    w = wc.interpolate(u, gu, dm)
    for c in range(m.num_cells):
        op = wc.local_weak_laplacian(dm, c, 5)
        got = op.apply(w.coeffs[dm.cell_dofs(c)])
        want = np.zeros(fs.dim_pk(5))
        want[0] = 2.0  # constant basis function is 1
        assert abs(got[0] - 2.0) < 1e-9
        assert checks.mass_gap(op, got, want) < 1e-10


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_weak_laplacian_cubic_example():
    # u = x^3 y^2 with k >= 5: Dw of its interpolant equals the P_j
    # projection of lap u = 6 x y^2 + 2 x^3
    m = sm.build_uniform_triangle_mesh(1)
    k, j = 5, 8
    dm = fs.build_dofmap(m, k)

    def u(x, y):
        return x ** 3 * y ** 2

    def gu(x, y):
        return 3 * x ** 2 * y ** 2, 2 * x ** 3 * y

    def lap(x, y):
        return 6 * x * y ** 2 + 2 * x ** 3

    w = wc.interpolate(u, gu, dm)
    for c in range(m.num_cells):
        op = wc.local_weak_laplacian(dm, c, j)
        got = op.apply(w.coeffs[dm.cell_dofs(c)])
        want = wc.project_cell(lap, m, c, j)
        assert checks.mass_gap(op, got, want) < 1e-9


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@pytest.mark.parametrize("build,k,j", [
    (sm.build_uniform_triangle_mesh, 2, 5),
    (sm.build_uniform_triangle_mesh, 3, 6),
    (sm.build_quad_mesh, 2, 8),
    (sm.build_quad_mesh, 3, 9),
])
def test_polynomial_exactness_property(build, k, j):
    # weak Laplacian of the interpolant of any P_k polynomial equals the
    # P_j projection of its Laplacian, up to quadrature round-off
    assert checks.exactness_gap(build(2), k, j) < 1e-9


def test_weak_laplacian_residual_invariant():
    # columns of G = apply(I) satisfy the defining moment equations: M G = B
    # backward stably, row by row
    m = sm.build_quad_mesh(2)
    dm = fs.build_dofmap(m, 3)
    for c in [0, 3]:
        op = wc.local_weak_laplacian(dm, c, 7)
        G = op.apply(np.eye(op.moments.shape[1]))
        R = op.mass @ G - op.moments
        scale = (np.abs(op.mass) @ np.abs(G)) + np.abs(op.moments) + 1e-30
        assert (np.abs(R) / scale).max() < 1e-10


def test_weak_laplacian_linearity():
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    op = wc.local_weak_laplacian(dm, 0, 5)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(op.moments.shape[1])
    w = rng.standard_normal(op.moments.shape[1])
    lhs = op.apply(2.5 * v - 1.5 * w)
    rhs = 2.5 * op.apply(v) - 1.5 * op.apply(w)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_sign_consistency_under_normal_flip():
    # flipping n_e on one interior edge and negating that edge's normal
    # coefficients leaves Dw unchanged on both adjacent cells
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    e = int(m.interior_edges[0])
    lo, hi = m.edge_cells[e]

    # a Mesh rejects rebinding, so the flipped variant bypasses that guard
    # on purpose: a shallow copy with two attributes set through object
    m2 = copy.copy(m)
    normals = m.edge_normals.copy()
    normals[e] = -normals[e]
    object.__setattr__(m2, "edge_normals", normals)
    object.__setattr__(m2, "cell_groups", {
        p: dataclasses.replace(group, signs=np.where(
            group.edges == e, -group.signs, group.signs))
        for p, group in m.cell_groups.items()})
    dm2 = fs.build_dofmap(m2, 2)  # same indexing: only normals and signs differ

    rng = np.random.default_rng(17)
    w = rng.standard_normal(dm.total_dofs)
    w2 = w.copy()
    w2[dm.normal_dofs(e)] = -w2[dm.normal_dofs(e)]
    for c in (lo, hi):
        op1 = wc.local_weak_laplacian(dm, c, 5)
        op2 = wc.local_weak_laplacian(dm2, c, 5)
        d1 = op1.apply(w[dm.cell_dofs(c)])
        d2 = op2.apply(w2[dm.cell_dofs(c)])
        assert np.abs(d1 - d2).max() <= 1e-9 * max(1.0, np.abs(d1).max())


def test_degenerate_degree_rejected():
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    with pytest.raises(ValueError):
        wc.local_weak_laplacian(dm, 0, 1)  # j < k


# -- weighted Gram products --------------------------------------------------


def _numpy_gram(v, w):
    G = v.T @ (w[:, None] * v)
    return 0.5 * (G + G.T)


def _jittered_quad():
    grid = sm.build_quad_mesh(2)
    verts = grid.vertices.copy()
    verts[4] += [0.08, -0.07]  # the centre vertex, a corner of every cell
    return sm.Mesh(verts, grid.cells)


@pytest.mark.parametrize("j", [5, 7])
def test_weighted_gram_matches_numpy_bit_for_bit(j):
    # the P_5 and P_7 tables under their 2j rules on a triangle, the shapes
    # of the k = 2 and k = 3 triangle runs; numpy does not thread them
    m = sm.build_uniform_triangle_mesh(2)
    rule = fs.cell_quadrature(m, 3, 2 * j)
    vals, _, _ = fs.cell_basis(m, 3, j).eval(rule.points)
    assert np.array_equal(wc._weighted_gram(vals, rule.weights),
                          _numpy_gram(vals, rule.weights))


def test_weighted_gram_on_jittered_quad():
    # the P_9 table under the 100-point tensor rule: numpy's product may
    # round differently, so agreement is to round-off, symmetry exact
    m = _jittered_quad()
    rule = fs.cell_quadrature(m, 0, 18)
    vals, _, _ = fs.cell_basis(m, 0, 9).eval(rule.points)
    assert vals.shape == (100, 55)
    G = wc._weighted_gram(vals, rule.weights)
    want = _numpy_gram(vals, rule.weights)
    assert np.array_equal(G, G.T)
    assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n,k", [(1, 2), (2, 3)])
def test_mass_and_projection_keep_numpy_results(n, k):
    # cell_mass_matrix and project_cell equal their former numpy-Gram forms
    # bit for bit on triangles
    m = sm.build_uniform_triangle_mesh(n)
    f = lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    for c in range(m.num_cells):
        basis = fs.cell_basis(m, c, k)
        rule = fs.cell_quadrature(m, c, 2 * k)
        vals, _, _ = basis.eval(rule.points)
        assert np.array_equal(wc.cell_mass_matrix(basis, rule),
                              _numpy_gram(vals, rule.weights))

        rule = fs.cell_quadrature(
            m, c, max(2 * k, k + fs.DATA_EXACTNESS_MARGIN))
        vals, _, _ = basis.eval(rule.points)
        b = vals.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
        want = wc._SpdSolver(_numpy_gram(vals, rule.weights)).solve(b)
        assert np.array_equal(wc.project_cell(f, m, c, k), want)


# -- local mass solves ------------------------------------------------------


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_spd_solver_matches_scipy_bit_for_bit():
    # a jittered quad cell at j = 9, the criterion-3 degree
    m = _jittered_quad()
    M = wc.cell_mass_matrix(fs.cell_basis(m, 0, 9),
                            fs.cell_quadrature(m, 0, 18))
    solver = wc._SpdSolver(M)
    d = np.sqrt(np.diag(M))
    factor = cho_factor(M / np.outer(d, d), lower=False, check_finite=False)
    B = np.random.default_rng(9).standard_normal((len(M), 7))

    for rhs in (B, B[:, :1]):
        x = cho_solve(factor, rhs / d[:, None], check_finite=False)
        x /= d[:, None]
        dx = cho_solve(factor, (rhs - M @ x) / d[:, None], check_finite=False)
        x += dx / d[:, None]
        assert np.array_equal(solver.solve(rhs), x)
    assert np.array_equal(solver.solve(B[:, 0]), x[:, 0])
    assert np.array_equal(
        solver.half_solve(B),
        solve_triangular(factor[0], B / d[:, None], trans="T", lower=False,
                         check_finite=False))


def test_spd_solver_rejects_indefinite_matrix():
    with pytest.raises(wc.LocalSolveError,
                       match=r"\(cell 7, degree 3\).*leading minor 2"):
        wc._SpdSolver(np.array([[1.0, 2.0], [2.0, 1.0]]),
                      context="(cell 7, degree 3)")


# -- projections -------------------------------------------------------------


@pytest.mark.parametrize("degree,message", [
    (-1, "^projection degree must be >= 0$"),
    (2.0, "^degree must be an integer, got 2.0$"),
    (2.5, "^degree must be an integer, got 2.5$"),
    (True, "^degree must be an integer, got True$"),
    ("2", "^degree must be an integer, got '2'$")])
def test_projection_rejects_bad_degree(degree, message):
    m = sm.build_uniform_triangle_mesh(1)
    with pytest.raises(ValueError, match=message):
        wc.project_cell(lambda x, y: x, m, 0, degree)
    with pytest.raises(ValueError, match=message):
        wc.project_edge(lambda x, y: x, m, 0, degree)


def test_project_cell_constant():
    m = sm.build_uniform_triangle_mesh(1)
    c = wc.project_cell(lambda x, y: np.full_like(x, 3.0), m, 0, 2)
    want = np.zeros(6)
    want[0] = 3.0
    assert np.allclose(c, want, atol=1e-12)


def test_project_cell_reproduces_polynomials():
    m = sm.build_quad_mesh(2)
    rng = np.random.default_rng(2)
    u = lambda x, y: 1.0 + x - 2 * y + 0.5 * x * y - x ** 2 + y ** 2
    for cell in range(m.num_cells):
        coeffs = wc.project_cell(u, m, cell, 2)
        pts = rng.uniform(0, 0.5, size=(10, 2))
        vals, _, _ = fs.cell_basis(m, cell, 2).eval(pts)
        assert np.abs(vals @ coeffs - u(pts[:, 0], pts[:, 1])).max() < 1e-10


def test_project_cell_refinement_experiment():
    # L2 projection error of cos(2 pi x) cos(2 pi y) at degree 4, one cell
    # vs a 2x2 split; frozen values from the quadrature oracle
    f = lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)

    def err(grid, degree=4):
        tot = 0.0
        for c in range(grid.num_cells):
            coeffs = wc.project_cell(f, grid, c, degree)
            rule = fs.cell_quadrature(grid, c, 28)
            vals, _, _ = fs.cell_basis(grid, c, degree).eval(rule.points)
            r = f(rule.points[:, 0], rule.points[:, 1]) - vals @ coeffs
            tot += float(rule.weights @ (r * r))
        return np.sqrt(tot)

    e1 = err(sm.build_quad_mesh(1))
    e2 = err(sm.build_quad_mesh(2))
    assert e1 == pytest.approx(0.19127063784511067, rel=1e-10)
    assert e2 == pytest.approx(0.007739227362472218, rel=1e-10)
    # the O(h^5) asymptotic ratio is 32; at this coarse pre-asymptotic level
    # the measured ratio is 24.71 (phase alignment of f about cell centers)
    assert e1 / e2 > 16.0


def test_project_edge_constant_and_linear():
    m = sm.build_quad_mesh(2)
    e = 0
    c = wc.project_edge(lambda x, y: np.full_like(x, 4.0), m, e, 2)
    assert np.allclose(c, [4.0, 0.0, 0.0], atol=1e-13)
    # linear in arc length is reproduced exactly from degree 1 on
    p, q = m.edge_endpoints(e)
    t = (q - p) / m.edge_lengths[e]
    g = lambda x, y: 2.0 * ((x - p[0]) * t[0] + (y - p[1]) * t[1]) - 1.0
    c = wc.project_edge(g, m, e, 1)
    rule = fs.edge_quadrature(13, endpoints=(p, q))  # 7 points
    pts = rule.points
    s = fs._gauss_m11(fs.edge_quadrature_size(13))[0]
    assert np.abs(legvander(s, 1) @ c
                  - g(pts[:, 0], pts[:, 1])).max() < 1e-12


def test_project_edge_against_weighted_lstsq_oracle():
    # 50 Gauss points with sqrt-weight scaling reproduce the continuous L2
    # projection; solving by lstsq is an independent route
    m = sm.build_quad_mesh(4)
    e = next(int(e) for e in m.boundary_edges
             if abs(m.edge_endpoints(e)[0][1]) < 1e-14
             and abs(m.edge_endpoints(e)[1][1]) < 1e-14
             and min(m.edge_endpoints(e)[0][0], m.edge_endpoints(e)[1][0]) < 1e-14)
    assert m.edge_lengths[e] == pytest.approx(0.25)
    g = lambda x, y: np.cos(2 * np.pi * x)
    mine = wc.project_edge(g, m, e, 2)
    p, q = m.edge_endpoints(e)
    s, w = leggauss(50)
    pts = p + 0.5 * (s[:, None] + 1.0) * (q - p)
    sqw = np.sqrt(w * m.edge_lengths[e] / 2.0)
    oracle, *_ = np.linalg.lstsq(sqw[:, None] * legvander(s, 2),
                                 sqw * g(pts[:, 0], pts[:, 1]), rcond=None)
    assert np.abs(mine - oracle).max() < 1e-8


def test_project_edge_reproduces_legendre_above_the_margin():
    # the data rule is exact to 2d, so P_d is reproduced where d + 9 falls
    # short of 2d; d = 31 would need exactness 62, past the edge rules
    m = sm.build_uniform_triangle_mesh(1)  # edge 0 runs (0, 0) to (1, 0)
    for degree in (10, 13, 30):
        unit = np.eye(degree + 1)[degree]
        c = wc.project_edge(lambda x, y: legval(2.0 * x - 1.0, unit), m, 0,
                            degree)
        assert np.abs(c - unit).max() < 1e-12, degree
    with pytest.raises(fs.QuadratureError, match="edge exactness 62"):
        wc.project_edge(lambda x, y: x, m, 0, 31)


# -- interpolation -----------------------------------------------------------


def test_interpolate_zero():
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    u, gu, _ = monomial_field(0, 0)
    w = wc.interpolate(lambda x, y: np.zeros_like(x),
                       lambda x, y: (np.zeros_like(x), np.zeros_like(x)), dm)
    assert np.abs(w.coeffs).max() == 0.0


@pytest.mark.parametrize("k", [2, 3])
def test_interpolate_reproduces_polynomials(k):
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, k)
    rng = np.random.default_rng(23)
    for (a, b) in [(k, 0), (1, k - 1), (0, 0)]:
        u, gu, _ = monomial_field(a, b)
        w = wc.interpolate(u, gu, dm)
        for c in [0, m.num_cells - 1]:
            pts = m.cell_centroids[c] + rng.uniform(-0.05, 0.05, size=(5, 2))
            vals, _, _ = fs.cell_basis(m, c, k).eval(pts)
            assert np.abs(vals @ w.coeffs[dm.cell_dofs(c)[:dm.cell_block]]
                          - u(pts[:, 0], pts[:, 1])).max() < 1e-10
        s = fs._gauss_m11(fs.edge_quadrature_size(9))[0]
        for e in [0, m.num_edges - 1]:
            rule = fs.edge_quadrature(9, endpoints=m.edge_endpoints(e))  # 5
            pts = rule.points
            trace = w.coeffs[dm.trace_dofs(e)]
            assert np.abs(legvander(s, k) @ trace
                          - u(pts[:, 0], pts[:, 1])).max() < 1e-10
            gx, gy = gu(pts[:, 0], pts[:, 1])
            ne = m.edge_normals[e]
            normal = w.coeffs[dm.normal_dofs(e)]
            assert np.abs(legvander(s, k - 1) @ normal
                          - (gx * ne[0] + gy * ne[1])).max() < 1e-10


@pytest.mark.parametrize("k,min_factor", [(2, 6.4), (3, 12.8)])
def test_interpolate_refinement_rate(k, min_factor):
    # interior-component L2 error of the benchmark initial profile drops by
    # at least 2^(k+1) * 0.8 on the finer doubling (n=4 -> n=8); the first
    # doubling (n=2 -> 4) is still pre-asymptotic at k=2
    u = lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    gu = lambda x, y: (-2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                       -2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
    errs = []
    for n in (4, 8):
        m = sm.build_uniform_triangle_mesh(n)
        dm = fs.build_dofmap(m, k)
        w = wc.interpolate(u, gu, dm)
        tot = 0.0
        for c in range(m.num_cells):
            rule = fs.cell_quadrature(m, c, 2 * k + 16)
            vals, _, _ = fs.cell_basis(m, c, k).eval(rule.points)
            r = (u(rule.points[:, 0], rule.points[:, 1])
                 - vals @ w.coeffs[dm.cell_dofs(c)[:dm.cell_block]])
            tot += float(rule.weights @ (r * r))
        errs.append(np.sqrt(tot))
    assert errs[0] / errs[1] >= min_factor


def _weak_space(name):
    from test_mesh import _jittered_quads
    from test_polygon_cells import PENTA_CELLS, PENTA_VERTS
    meshes = {"tri4": lambda: sm.build_uniform_triangle_mesh(4),
              "quad3": lambda: sm.build_quad_mesh(3),
              "jitter": lambda: sm.Mesh(*_jittered_quads(4, 5)),
              "pentagon": lambda: sm.Mesh(PENTA_VERTS, PENTA_CELLS)}
    k = {"tri4": 2, "quad3": 3, "jitter": 3, "pentagon": 2}[name]
    return fs.build_dofmap(meshes[name](), k)


def _loop_interpolate(u, grad_u, dofmap):
    """`interpolate` as a loop of projections over cells and edges, each
    sampling its own callable at its own points."""
    mesh, k = dofmap.mesh, dofmap.k
    out = np.zeros(dofmap.total_dofs)
    for c in range(mesh.num_cells):
        rule = fs.cell_quadrature(
            mesh, c, max(2 * k, k + fs.DATA_EXACTNESS_MARGIN))
        vals, _, _ = fs.cell_basis(mesh, c, k).eval(
            rule.points, grads=False, laps=False)
        b = vals.T @ (rule.weights * u(rule.points[:, 0], rule.points[:, 1]))
        solver = wc._SpdSolver(wc._weighted_gram(vals, rule.weights))
        out[dofmap.cell_dofs(c)[:dofmap.cell_block]] = solver.solve(b)
    for e in range(mesh.num_edges):
        ne = mesh.edge_normals[e]

        def dn(x, y):
            gx, gy = grad_u(x, y)
            return gx * ne[0] + gy * ne[1]

        for dofs, degree, g in ((dofmap.trace_dofs(e), k, u),
                                (dofmap.normal_dofs(e), k - 1, dn)):
            exactness = degree + fs.DATA_EXACTNESS_MARGIN
            er = fs.edge_quadrature(exactness,
                                    endpoints=mesh.edge_endpoints(e))
            b = ((er.weights * g(er.points[:, 0], er.points[:, 1]))[:, None]
                 * fs.legendre_table(degree, exactness)).sum(axis=0)
            out[dofs] = b / (float(mesh.edge_lengths[e])
                             / fs.legendre_mass_denominators(degree))
    return out


def _wave(t=0.3):
    sol = er.default_solution()
    return (lambda x, y: sol.u(t, x, y)), (lambda x, y: sol.grad_u(t, x, y))


@pytest.mark.parametrize("name", ["tri4", "quad3", "jitter", "pentagon"])
def test_interpolate_bit_equal_to_entity_loop(name):
    dm = _weak_space(name)
    u, gu = _wave()
    assert np.array_equal(wc.interpolate(u, gu, dm).coeffs,
                          _loop_interpolate(u, gu, dm))


def _counted(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("name", ["tri4", "jitter", "pentagon"])
def test_interpolate_traced_calls_per_entity(monkeypatch, name):
    # one cell rule and one basis table per cell, two edge rules per edge:
    # the counts the benchmark checks exactly
    dm = _weak_space(name)
    counts = dict.fromkeys(("cell_quadrature", "edge_quadrature", "eval"), 0)
    _counted(monkeypatch, wc, "cell_quadrature", counts)
    _counted(monkeypatch, wc, "edge_quadrature", counts)
    _counted(monkeypatch, fs.CellBasis, "eval", counts)
    wc.interpolate(*_wave(), dm)
    m = dm.mesh
    assert counts == {"cell_quadrature": m.num_cells,
                      "edge_quadrature": 2 * m.num_edges,
                      "eval": m.num_cells}


@pytest.mark.parametrize("name", ["tri4", "pentagon"])
def test_interpolate_samples_each_callable_once(name):
    dm = _weak_space(name)
    u, gu = _wave()
    calls = []

    def counted(fn, what):
        def sampled(x, y):
            assert x.ndim == 1 and x.shape == y.shape
            calls.append(what)
            return fn(x, y)
        return sampled

    got = wc.interpolate(counted(u, "u"), counted(gu, "grad_u"), dm)
    assert calls.count("u") <= 2 and calls.count("grad_u") == 1
    assert np.array_equal(got.coeffs, wc.interpolate(u, gu, dm).coeffs)


def test_interpolate_broadcasts_constants_and_names_bad_shapes():
    dm = _weak_space("tri4")
    got = wc.interpolate(lambda x, y: 2.0, lambda x, y: (0.5, -1.0), dm)
    want = wc.interpolate(lambda x, y: np.full_like(x, 2.0),
                          lambda x, y: (np.full_like(x, 0.5),
                                        np.full_like(x, -1.0)), dm)
    assert np.array_equal(got.coeffs, want.coeffs)
    with pytest.raises(ValueError, match="u returned shape"):
        wc.interpolate(lambda x, y: x[:3], lambda x, y: (x, y), dm)
    with pytest.raises(ValueError, match="grad_u returned shape"):
        wc.interpolate(lambda x, y: x, lambda x, y: (x[:3], y), dm)

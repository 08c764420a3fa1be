import numpy as np
import pytest
from numpy.polynomial.legendre import legvander
from scipy.linalg import cho_factor

from sfwg import checks, fespace as fs, mesh as sm
from sfwg.weakcalc import cell_mass_matrix


def test_dim_and_ordering():
    assert fs.dim_pk(2) == 6
    assert fs.monomial_exponents(2) == ((0, 0), (1, 0), (0, 1),
                                        (2, 0), (1, 1), (0, 2))


def test_cell_basis_degree0():
    m = sm.build_quad_mesh(1)
    b = fs.cell_basis(m, 0, 0)
    vals, grads, laps = b.eval(np.array([[0.3, 0.7]]))
    assert vals[0, 0] == 1.0
    assert np.all(grads[0, 0] == 0.0)
    assert laps[0, 0] == 0.0


def test_cell_basis_quadratic_at_centroid():
    m = sm.build_quad_mesh(1)
    b = fs.cell_basis(m, 0, 2)
    h = m.cell_diameters[0]
    vals, grads, laps = b.eval(m.cell_centroids[0])
    i = fs.monomial_exponents(2).index((2, 0))
    assert vals[0, i] == 0.0
    assert np.all(grads[0, i] == 0.0)
    assert laps[0, i] == pytest.approx(2.0 / h ** 2, rel=1e-14)


def test_cell_basis_laplacian_moments():
    # quadrature of (lap of each degree-2 basis fn) over the cell equals the
    # analytic integral: lap is constant 2/h^2 for xi^2 and eta^2, else 0
    m = sm.build_uniform_triangle_mesh(1)
    for c in range(m.num_cells):
        b = fs.cell_basis(m, c, 2)
        rule = fs.cell_quadrature(m, c, 2)
        _, _, laps = b.eval(rule.points)
        got = rule.weights @ laps
        h = m.cell_diameters[c]
        area = m.cell_areas[c]
        want = np.zeros(6)
        want[fs.monomial_exponents(2).index((2, 0))] = 2.0 * area / h ** 2
        want[fs.monomial_exponents(2).index((0, 2))] = 2.0 * area / h ** 2
        assert np.allclose(got, want, atol=1e-13)


def test_cell_basis_gradients_match_finite_differences():
    m = sm.build_uniform_triangle_mesh(2)
    b = fs.cell_basis(m, 1, 3)
    pts = np.array([[0.31, 0.17]])
    vals, grads, laps = b.eval(pts)
    eps = 1e-6
    for axis in range(2):
        dp = pts.copy()
        dp[0, axis] += eps
        dm_ = pts.copy()
        dm_[0, axis] -= eps
        fd = (b.eval(dp)[0] - b.eval(dm_)[0]) / (2 * eps)
        assert np.allclose(grads[0, :, axis], fd[0], atol=1e-8)


# -- quadrature -------------------------------------------------------------


def _per_exponent_tables(basis, pts):
    # CellBasis.eval as one loop over the exponent pairs, the reference
    # its vectorized gather must match bit for bit
    d = basis.degree
    xi = (pts[:, 0] - basis.centroid[0]) / basis.scale
    eta = (pts[:, 1] - basis.centroid[1]) / basis.scale
    px = np.ones((len(pts), d + 1))
    py = np.ones((len(pts), d + 1))
    for m in range(1, d + 1):
        px[:, m] = px[:, m - 1] * xi
        py[:, m] = py[:, m - 1] * eta
    exps = fs.monomial_exponents(d)
    vals = np.empty((len(pts), len(exps)))
    grads = np.zeros((len(pts), len(exps), 2))
    laps = np.zeros((len(pts), len(exps)))
    inv_h = 1.0 / basis.scale
    inv_h2 = inv_h * inv_h
    for i, (a, b) in enumerate(exps):
        vals[:, i] = px[:, a] * py[:, b]
        if a:
            grads[:, i, 0] = a * px[:, a - 1] * py[:, b] * inv_h
        if b:
            grads[:, i, 1] = b * px[:, a] * py[:, b - 1] * inv_h
        if a >= 2:
            laps[:, i] += a * (a - 1) * px[:, a - 2] * py[:, b] * inv_h2
        if b >= 2:
            laps[:, i] += b * (b - 1) * px[:, a] * py[:, b - 2] * inv_h2
    return vals, grads, laps


@pytest.mark.parametrize("degree", range(10))
def test_cell_basis_tables_match_per_exponent_loop(degree):
    m = sm.build_uniform_triangle_mesh(2)
    basis = fs.cell_basis(m, 3, degree)
    inside = fs.cell_quadrature(m, 3, 2 * degree + 1).points
    outside = np.random.default_rng(degree).uniform(-1.0, 2.0, (17, 2))
    for pts in (inside, outside):
        got = basis.eval(pts)
        for g, want in zip(got, _per_exponent_tables(basis, pts)):
            assert np.array_equal(g, want)
            # the products of the callers round by memory order too
            assert g.flags.c_contiguous


@pytest.mark.parametrize("degree", range(10))
def test_edge_basis_table_matches_legvander(degree):
    m = sm.build_uniform_triangle_mesh(2)
    s = np.concatenate([fs.edge_quadrature(2 * degree + 1).s,
                        np.linspace(-1.0, 1.0, 7)])
    got = fs.edge_basis(m, 0, degree).eval(s)
    want = legvander(s, degree)
    assert np.array_equal(got, want)
    assert got.strides == want.strides


def test_triangle_quadrature_reference_moments():
    rule = fs.triangle_quadrature(5)
    x, y, w = rule.points[:, 0], rule.points[:, 1], rule.weights
    assert w @ np.ones_like(x) == pytest.approx(0.5, abs=1e-15)
    assert w @ (x * y) == pytest.approx(1.0 / 24.0, abs=1e-16)
    assert w @ x ** 4 == pytest.approx(1.0 / 30.0, abs=1e-16)


def test_polygon_quadrature_unit_square():
    square = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])
    rule = fs.polygon_quadrature(square, 6)
    x, y, w = rule.points[:, 0], rule.points[:, 1], rule.weights
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    assert w @ (x ** 2 * y ** 2) == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert w @ x ** 3 == pytest.approx(1.0 / 4.0, abs=1e-14)


def test_polygon_quadrature_rejects_nonconvex():
    poly = np.array([[0., 0.], [1., 0.], [0.2, 0.2], [0., 1.]])
    with pytest.raises(fs.QuadratureError, match="convex"):
        fs.polygon_quadrature(poly, 3)


def test_edge_quadrature():
    # 1-point rule integrates constants to the edge length
    m = sm.build_quad_mesh(4)
    e = int(m.boundary_edges[0])
    rule = fs.edge_quadrature(1, endpoints=m.edge_endpoints(e))
    assert rule.weights.sum() == pytest.approx(m.edge_lengths[e], abs=1e-15)
    # 2-point Gauss integrates s^2 over [-1, 1]
    ref = fs.edge_quadrature(3)
    assert len(ref.weights) == 2
    assert ref.weights @ ref.points ** 2 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_legendre_orthogonality_on_edge():
    m = sm.build_uniform_triangle_mesh(2)
    e = 0
    basis = fs.edge_basis(m, e, 3)
    rule = fs.edge_quadrature(7, endpoints=m.edge_endpoints(e))
    V = basis.eval(rule.s)
    assert abs(rule.weights @ (V[:, 2] * V[:, 3])) < 1e-13
    M = V.T @ (rule.weights[:, None] * V)
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() < 1e-12
    assert np.allclose(np.diag(M), basis.mass_diagonal(), rtol=1e-13)


@pytest.mark.parametrize("exactness", [2, 5, 9, 14, 19, 25, 30])
def test_triangle_rule_random_polynomial(exactness):
    rng = np.random.default_rng(exactness)
    coef = rng.standard_normal(len(fs.monomial_exponents(exactness)))
    assert checks.triangle_polynomial_gap(exactness, coef) <= 1e-11


def test_unsupported_exactness():
    with pytest.raises(fs.QuadratureError):
        fs.triangle_quadrature(31)
    with pytest.raises(fs.QuadratureError):
        fs.edge_quadrature(61)
    with pytest.raises(fs.QuadratureError):
        fs.edge_quadrature(0)


@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_cell_mass_matrices_spd(build, n):
    m = build(n)
    for degree in range(11):
        for c in range(m.num_cells):
            rule = fs.cell_quadrature(m, c, max(2 * degree, 1))
            M = cell_mass_matrix(fs.cell_basis(m, c, degree), rule)
            assert np.allclose(M, M.T)
            cho_factor(M)  # raises LinAlgError if not SPD


# -- DOF map ---------------------------------------------------------------


def test_dofmap_counts_triangle():
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    assert dm.total_dofs == 2 * 6 + 5 * 3 + 5 * 2 == 37


def test_dofmap_counts_quad():
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    assert dm.total_dofs == 6 + 4 * 3 + 4 * 2 == 26
    assert len(dm.boundary_dofs) == 20
    assert len(dm.free_dofs) == 6


@pytest.mark.parametrize("build,n,k", [
    (sm.build_uniform_triangle_mesh, 2, 2),
    (sm.build_uniform_triangle_mesh, 3, 3),
    (sm.build_quad_mesh, 2, 4),
])
def test_dofmap_partition(build, n, k):
    m = build(n)
    dm = fs.build_dofmap(m, k)
    assert len(dm.free_dofs) + len(dm.boundary_dofs) == dm.total_dofs
    # the three block families tile [0, total) without gaps or overlaps
    seen = np.zeros(dm.total_dofs, dtype=int)
    for c in range(m.num_cells):
        seen[dm.cell_slice(c)] += 1
    for e in range(m.num_edges):
        seen[dm.trace_slice(e)] += 1
        seen[dm.normal_slice(e)] += 1
    assert np.all(seen == 1)
    # boundary DOFs are exactly the trace+normal DOFs of boundary edges
    expect = []
    for e in m.boundary_edges:
        expect.extend(range(dm.trace_slice(e).start, dm.trace_slice(e).stop))
        expect.extend(range(dm.normal_slice(e).start, dm.normal_slice(e).stop))
    assert np.array_equal(np.sort(expect), dm.boundary_dofs)


def test_dofmap_rejects_low_degree():
    m = sm.build_quad_mesh(1)
    with pytest.raises(ValueError):
        fs.build_dofmap(m, 1)


def test_cell_dofs_layout():
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    idx = dm.cell_dofs(0)
    assert len(idx) == 6 + 3 * 3 + 3 * 2
    assert np.array_equal(idx[:6], np.arange(6))
    e0 = m.cell_edges[0][0]
    assert idx[6] == dm.trace_slice(e0).start


def test_weakfunction_arithmetic():
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    rng = np.random.default_rng(0)
    a = fs.WeakFunction(dm, rng.standard_normal(dm.total_dofs))
    b = fs.WeakFunction(dm, rng.standard_normal(dm.total_dofs))
    assert np.allclose((a + b).coeffs, a.coeffs + b.coeffs)
    assert np.allclose((a - b).coeffs, a.coeffs - b.coeffs)
    assert np.allclose((2.0 * a).coeffs, 2.0 * a.coeffs)
    z = fs.WeakFunction.zeros(dm)
    assert z.boundary_magnitude() == 0.0

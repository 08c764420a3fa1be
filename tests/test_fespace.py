import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander
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


def _gathered_tables(basis, pts):
    # CellBasis.eval as it computed every table: power tables by a loop
    # over m, then gathers of the exponent columns
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = basis.degree
    xi = (pts[:, 0] - basis.centroid[0]) / basis.scale
    eta = (pts[:, 1] - basis.centroid[1]) / basis.scale
    px = np.ones((len(pts), d + 1))
    py = np.ones((len(pts), d + 1))
    for m in range(1, d + 1):
        px[:, m] = px[:, m - 1] * xi
        py[:, m] = py[:, m - 1] * eta
    a, b, a1, b1, a2, b2, fa, fb, faa, fbb = fs._exponent_gathers(d)
    pxa, pyb = px.take(a, axis=1), py.take(b, axis=1)
    inv_h = 1.0 / basis.scale
    inv_h2 = inv_h * inv_h
    vals = pxa * pyb
    grads = np.empty(vals.shape + (2,))
    grads[:, :, 0] = fa * px.take(a1, axis=1) * pyb * inv_h
    grads[:, :, 1] = fb * pxa * py.take(b1, axis=1) * inv_h
    laps = (faa * px.take(a2, axis=1) * pyb * inv_h2
            + fbb * pxa * py.take(b2, axis=1) * inv_h2)
    return vals, grads, laps


@pytest.mark.parametrize("degree", range(10))
def test_cell_basis_flags_compute_only_the_tables_asked_for(degree):
    m = sm.build_quad_mesh(2)
    basis = fs.cell_basis(m, 1, degree)
    rule = fs.cell_quadrature(m, 1, 2 * degree + 1).points
    for pts in (rule, m.cell_centroids[1], np.array([1.3, -0.4])):
        want = _gathered_tables(basis, pts)
        for grads in (True, False):
            for laps in (True, False):
                got = basis.eval(pts, grads=grads, laps=laps)
                for g, w, asked in zip(got, want, (True, grads, laps)):
                    if not asked:
                        assert g is None
                        continue
                    assert np.array_equal(g, w)
                    assert g.flags.c_contiguous
                    assert g.shape[0] == (1 if pts.ndim == 1 else len(pts))


@pytest.mark.parametrize("degree", range(10))
def test_edge_basis_table_matches_legvander(degree):
    # the edge basis evaluator at Gauss and off-rule points alike
    gauss = fs._gauss_m11(fs.edge_quadrature_size(2 * degree + 1))[0]
    s = np.concatenate([gauss, np.linspace(-1.0, 1.0, 7)])
    got = fs._legendre(s, degree)
    want = legvander(s, degree)
    assert np.array_equal(got, want)
    assert got.strides == want.strides


def test_triangle_quadrature_reference_moments():
    rule = fs.triangle_quadrature(5)
    x, y, w = rule.points[:, 0], rule.points[:, 1], rule.weights
    assert w @ np.ones_like(x) == pytest.approx(0.5, abs=1e-15)
    assert w @ (x * y) == pytest.approx(1.0 / 24.0, abs=1e-16)
    assert w @ x ** 4 == pytest.approx(1.0 / 30.0, abs=1e-16)


def _ring_centroid(v):
    """The centroid of a counter-clockwise ring by the formula of `Mesh`."""
    nxt = np.arange(1, len(v) + 1) % len(v)
    x, y = v[:, 0], v[:, 1]
    xn, yn = x[nxt], y[nxt]
    cr = x * yn - xn * y
    area2 = cr.sum()
    return np.array([((x + xn) * cr).sum() / (3.0 * area2),
                     ((y + yn) * cr).sum() / (3.0 * area2)])


def _loop_fan(vertices, exactness):
    """The rule of `cell_quadrature` on a triangle or a ring of five or more
    vertices as a loop over triangles: the cell itself, or the fan from the
    centroid of the raw vertices, each triangle mapped on its own."""
    v = np.asarray(vertices, dtype=float)
    p = len(v)
    ref = fs.triangle_quadrature(exactness)
    if p == 3:
        tris = [v]
    else:
        cen = _ring_centroid(v)
        tris = [np.array([cen, v[i], v[(i + 1) % p]]) for i in range(p)]
    pts, wts = [], []
    for tri in tris:
        jac_t = tri[1:] - tri[0]
        det = jac_t[0, 0] * jac_t[1, 1] - jac_t[1, 0] * jac_t[0, 1]
        pts.append(tri[0] + ref.points @ jac_t)
        wts.append(ref.weights * det)
    return np.vstack(pts), np.concatenate(wts)


def _loop_bilinear(vertices, exactness):
    """The rule of `cell_quadrature` on a quad as a loop over the points of
    the (exactness+3)//2-point Gauss product rule on [0, 1]^2, each mapped
    through x(s, t) = sum_i N_i(s, t) v_i and weighted by det J there."""
    v = np.asarray(vertices, dtype=float)
    x, w = leggauss((exactness + 3) // 2)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    pts, wts = [], []
    for i in range(len(u)):
        for j in range(len(u)):
            s, t = u[i], u[j]
            shape = ((1.0 - s) * (1.0 - t), s * (1.0 - t), s * t,
                     (1.0 - s) * t)
            ds = (t - 1.0, 1.0 - t, t, -t)
            dt = (s - 1.0, -s, s, 1.0 - s)
            xs = sum(ds[a] * v[a] for a in range(4))
            xt = sum(dt[a] * v[a] for a in range(4))
            pts.append(sum(shape[a] * v[a] for a in range(4)))
            wts.append(wu[i] * wu[j] * (xs[0] * xt[1] - xs[1] * xt[0]))
    return np.array(pts), np.array(wts)


def _fan_mesh(name):
    from test_mesh import MIXED, MIXED_CELLS, _jittered_quads
    from test_polygon_cells import PENTA_CELLS, PENTA_VERTS
    cases = {"jitter": _jittered_quads(12, 1),
             "pentagon": (PENTA_VERTS, PENTA_CELLS),
             "mixed": (MIXED, MIXED_CELLS)}
    return sm.Mesh(*cases[name])


@pytest.mark.parametrize("exactness", [1, 6, 12, 18, 30])
@pytest.mark.parametrize("name", ["jitter", "pentagon", "mixed"])
def test_cell_quadrature_bit_equal_to_triangle_loop(name, exactness):
    # triangles and pentagons against the triangle loop, quads against the
    # bilinear-map loop
    m = _fan_mesh(name)
    for c in range(m.num_cells):
        verts = m.cell_vertices(c)
        loop = _loop_bilinear if len(verts) == 4 else _loop_fan
        want_pts, want_wts = loop(verts, exactness)
        rule = fs.cell_quadrature(m, c, exactness)
        assert rule.points.shape == want_pts.shape
        assert np.array_equal(rule.points, want_pts)
        assert np.array_equal(rule.weights, want_wts)


def _tensor_rule_cases(exactness):
    """(rule, ring) of each quad: the cells of a jittered mesh, a trapezoid
    that is not a parallelogram, so det J varies, and the unit square, the
    cell of the one-cell mesh."""
    from test_mesh import _jittered_quads
    cases = []
    for m in (sm.Mesh(*_jittered_quads(12, 1)), sm.build_quad_mesh(1)):
        cases += [(fs.cell_quadrature(m, c, exactness), m.cell_vertices(c))
                  for c in range(m.num_cells)]
    trapezoid = np.array([[0., 0.], [1., 0.], [0.7, 0.6], [0.2, 0.6]])
    cases.append((fs._bilinear_quadrature(trapezoid, exactness), trapezoid))
    return cases


@pytest.mark.parametrize("exactness", [1, 6, 12, 13, 18, 30])
def test_tensor_quad_rule_matches_fan(exactness):
    # every centred, scaled monomial of degree <= exactness against the
    # fan rule; the odd 13 guards the (exactness+3)//2 point count
    npts = fs.cell_quadrature_size(4, exactness)
    assert npts == ((exactness + 3) // 2) ** 2
    for rule, ring in _tensor_rule_cases(exactness):
        assert len(rule.weights) == npts
        cen = _ring_centroid(ring)
        h = max(np.hypot(*(a - b)) for a in ring for b in ring)
        basis = fs.CellBasis(exactness, cen, h)
        fan = fs._fan_quadrature(ring, cen, exactness)
        got, want = (q.weights @ basis.eval(q.points, False, False)[0]
                     for q in (rule, fan))
        assert np.abs(got - want).max() <= 1e-13 * fan.weights.sum()


def test_polygon_quadrature_unit_square():
    # the one-cell quad mesh against exact moments: two or more points per
    # direction integrate x^a y^b exactly for a, b <= 3
    square_mesh = sm.build_quad_mesh(1)
    for exactness in (1, 6, 12, 13, 18, 30):
        square = fs.cell_quadrature(square_mesh, 0, exactness)
        x, y, w = square.points[:, 0], square.points[:, 1], square.weights
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert w @ (x ** 2 * y ** 2) == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert w @ x ** 3 == pytest.approx(1.0 / 4.0, abs=1e-14)


def test_tensor_quad_rule_exactness_range():
    square = sm.build_quad_mesh(1)
    for exactness in (0, fs.MAX_TRIANGLE_EXACTNESS + 1):
        with pytest.raises(fs.QuadratureError, match="square exactness"):
            fs.cell_quadrature(square, 0, exactness)


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
    rule = fs.edge_quadrature(7, endpoints=m.edge_endpoints(e))
    V = fs.legendre_table(3, 7)
    assert abs(rule.weights @ (V[:, 2] * V[:, 3])) < 1e-13
    M = V.T @ (rule.weights[:, None] * V)
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() < 1e-12
    assert np.allclose(np.diag(M),
                       m.edge_lengths[e] / fs.legendre_mass_denominators(3),
                       rtol=1e-13)


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
        seen[dm.cell_dofs(c)[:dm.cell_block]] += 1
    for e in range(m.num_edges):
        seen[dm.trace_dofs(e)] += 1
        seen[dm.normal_dofs(e)] += 1
    assert np.all(seen == 1)
    # boundary DOFs are exactly the trace+normal DOFs of boundary edges
    expect = []
    for e in m.boundary_edges:
        expect.extend(dm.trace_dofs(e))
        expect.extend(dm.normal_dofs(e))
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
    e0 = m.cell_groups[3].edges[m.cell_rows[0], 0]
    assert idx[6] == dm.trace_dofs(e0)[0]


def test_weakfunction_arithmetic():
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    rng = np.random.default_rng(0)
    a = fs.WeakFunction(dm, rng.standard_normal(dm.total_dofs))
    b = fs.WeakFunction(dm, rng.standard_normal(dm.total_dofs))
    assert np.allclose((a + b).coeffs, a.coeffs + b.coeffs)
    assert np.allclose((a - b).coeffs, a.coeffs - b.coeffs)
    assert np.allclose((2.0 * a).coeffs, 2.0 * a.coeffs)


# -- tables built once --------------------------------------------------------


def _edge_ranges(dm, e):
    """The trace and normal DOFs of edge e, from the block offsets."""
    t0 = dm.trace_offset + e * dm.trace_block
    n0 = dm.normal_offset + e * dm.normal_block
    return range(t0, t0 + dm.trace_block), range(n0, n0 + dm.normal_block)


def _list_cell_dofs(dm, c):
    """cell_dofs as the former list-built code gave it."""
    m = dm.mesh
    edges = m.cell_groups[len(m.cells[c])].edges[m.cell_rows[c]].tolist()
    idx = list(range(c * dm.cell_block, (c + 1) * dm.cell_block))
    for e in edges:
        idx.extend(_edge_ranges(dm, e)[0])
    for e in edges:
        idx.extend(_edge_ranges(dm, e)[1])
    return np.array(idx, dtype=int)


@pytest.mark.parametrize("k", [2, 3])
def test_cell_dof_table_rows_equal_list_built_cell_dofs(k):
    from test_polygon_cells import PENTA_CELLS, PENTA_VERTS
    for m in (sm.build_uniform_triangle_mesh(3), sm.build_quad_mesh(2),
              sm.Mesh(PENTA_VERTS, PENTA_CELLS)):
        dm = fs.build_dofmap(m, k)
        for c in range(m.num_cells):
            got = dm.cell_dofs(c)
            want = _list_cell_dofs(dm, c)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for p, table in dm.cell_dof_tables.items():
            for r, c in enumerate(m.cell_groups[p].cells):
                assert np.array_equal(table[r], _list_cell_dofs(dm, c))
        bdry = sorted(i for e in m.boundary_edges
                      for r in _edge_ranges(dm, e) for i in r)
        assert np.array_equal(dm.boundary_dofs, bdry)


@pytest.mark.parametrize("degree", range(10))
def test_legendre_tables_equal_edge_basis_eval(degree):
    # every exactness an edge rule may have, so every one the library uses
    m = sm.build_uniform_triangle_mesh(1)
    for exactness in range(1, fs.MAX_EDGE_EXACTNESS + 1):
        s = fs._gauss_m11(fs.edge_quadrature_size(exactness))[0]
        want = fs._legendre(s, degree)
        got = fs.legendre_table(degree, exactness)
        assert np.array_equal(got, want) and got.strides == want.strides
        assert np.array_equal(got, legvander(s, degree))
        assert fs.legendre_table(degree, exactness) is got
        assert len(got) == fs.edge_quadrature_size(exactness)
    assert np.array_equal(fs.legendre_mass_denominators(degree),
                          2.0 * np.arange(degree + 1) + 1.0)


@pytest.mark.parametrize("nverts,exactness", [(3, 7), (3, 12), (4, 12),
                                              (5, 8)])
def test_cell_quadrature_size(nverts, exactness):
    from test_polygon_cells import PENTA_CELLS, PENTA_VERTS
    m = {3: sm.build_uniform_triangle_mesh(1), 4: sm.build_quad_mesh(1),
         5: sm.Mesh(PENTA_VERTS, PENTA_CELLS)}[nverts]
    rule = fs.cell_quadrature(m, 0, exactness)
    assert len(rule.weights) == fs.cell_quadrature_size(nverts, exactness)


def test_shared_tables_are_read_only():
    m = sm.build_quad_mesh(2)
    dm = fs.build_dofmap(m, 3)
    for arr in (fs.legendre_table(3, 9), fs.legendre_mass_denominators(3),
                dm.cell_dof_tables[4], dm.cell_dofs(1),
                *fs._gauss_m11(fs.edge_quadrature_size(9))):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0

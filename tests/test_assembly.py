import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import Legendre, Polynomial
from numpy.polynomial.legendre import legvander

from sfwg import assembly as asm, checks, errors as er, fespace as fs, mesh as sm, weakcalc as wc
from conftest import monomial_field
from test_mesh import _jittered_quads
from test_polygon_cells import PENTA_CELLS, PENTA_VERTS
from test_weakcalc import _counted, _weak_space


def _setup(build=sm.build_uniform_triangle_mesh, n=2, k=2, j=5):
    m = build(n)
    dm = fs.build_dofmap(m, k)
    A = asm.assemble_stiffness(dm, j)
    return m, dm, A


def test_stiffness_kills_constants():
    # Dw of a constant is zero, so A annihilates the constant weak function
    # up to 1e-10 relative to the matrix scale (entries are O(1e5) here)
    m, dm, A = _setup(n=1)
    u, gu, _ = monomial_field(0, 0)
    w = wc.interpolate(u, gu, dm)
    scale = np.abs(A.mat.data).max() * np.abs(w.coeffs).max()
    assert np.abs(A.mat @ w.coeffs).max() < 1e-10 * scale


def _spd_on_free_block(A, dm):
    """A_ff is SPD exactly when A_ee and the Schur complement S are, and
    the certificate also needs the interior mass block SPD."""
    cert = checks.spectral_certificate(A, asm.assemble_mass_v0(dm), dm)
    assert cert.ok, cert.failure()


def test_stiffness_symmetry_and_spd_on_free_block():
    m, dm, A = _setup(build=sm.build_uniform_triangle_mesh, n=1, k=2, j=5)
    assert abs(A.mat - A.mat.T).max() < 1e-12 * abs(A.mat).max()
    _spd_on_free_block(A, dm)


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("joff", [3, 4])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_stiffness_spd_sweep(build, k, joff, n):
    m = build(n)
    dm = fs.build_dofmap(m, k)
    _spd_on_free_block(asm.assemble_stiffness(dm, k + joff), dm)


@pytest.mark.parametrize("k,j,per_cell", [(3, 7, 1), (2, 5, 0)])
def test_conditioning_warning_count(k, j, per_cell):
    # the counts the benchmark gates on: every cell of a k=3, j=7 triangle
    # mesh warns once, the k=2, j=5 default never
    m = sm.build_uniform_triangle_mesh(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        asm.assemble_stiffness(fs.build_dofmap(m, k), j)
    fired = [w for w in caught
             if issubclass(w.category, wc.ConditioningWarning)]
    assert len(fired) == per_cell * m.num_cells


def test_stiffness_energy_matches_quadrature_oracle():
    m, dm, A = _setup(n=2)
    rng = np.random.default_rng(3)
    ops = [wc.local_weak_laplacian(dm, c, 5) for c in range(m.num_cells)]
    for _ in range(5):
        w = rng.standard_normal(dm.total_dofs)
        qf = float(w @ (A.mat @ w))
        oracle = 0.0
        for op in ops:
            dw = op.apply(w[dm.cell_dofs(op.cell)])
            rule = fs.cell_quadrature(m, op.cell, 2 * 5 + 4)
            vals, _, _ = fs.cell_basis(m, op.cell, 5).eval(rule.points)
            v = vals @ dw
            oracle += float(rule.weights @ (v * v))
        assert qf == pytest.approx(oracle, rel=1e-9)


def test_mass_v0_structure_and_values():
    m, dm, _ = _setup(n=2)
    M = asm.assemble_mass_v0(dm)
    # interpolant of u = 1 has unit interior L2 norm
    u, gu, _ = monomial_field(0, 0)
    w = wc.interpolate(u, gu, dm)
    assert w.coeffs @ (M.mat @ w.coeffs) == pytest.approx(1.0, abs=1e-10)
    # edge-DOF rows and columns are identically zero
    edge_only = np.zeros(dm.total_dofs)
    edge_only[dm.trace_offset:] = 1.0
    assert np.abs(M.mat @ edge_only).max() == 0.0
    # interpolant of u = x: w^T M w = integral of x^2 = 1/3
    u, gu, _ = monomial_field(1, 0)
    w = wc.interpolate(u, gu, dm)
    assert w.coeffs @ (M.mat @ w.coeffs) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_load_vector():
    m, dm, _ = _setup(n=2)
    loads = asm.LoadAssembler(dm)
    zero = loads.assemble(lambda t, x, y: np.zeros_like(x), 0.0)
    assert np.abs(zero).max() == 0.0
    one = loads.assemble(lambda t, x, y: np.ones_like(x), 0.0)
    # entries on edge DOFs are zero
    assert np.abs(one[dm.trace_offset:]).max() == 0.0
    # sum over the constant-basis entries equals the domain area
    const_entries = [one[dm.cell_dofs(c)[0]] for c in range(m.num_cells)]
    assert sum(const_entries) == pytest.approx(1.0, abs=1e-10)


def _fan_rule(m, c, exactness):
    return fs._fan_quadrature(m.cell_vertices(c), m.cell_centroids[c],
                              exactness)


@pytest.mark.parametrize("mesh,k,oracle_rule", [
    (lambda: sm.build_uniform_triangle_mesh(4), 2, fs.cell_quadrature),
    (lambda: sm.Mesh(*_jittered_quads(12, 1)), 3, _fan_rule),
], ids=["tri-k2", "jitter-quad-k3"])
def test_load_against_refined_quadrature_oracle(mesh, k, oracle_rule):
    m = mesh()
    dm = fs.build_dofmap(m, k)
    sol = er.default_solution()
    F = asm.LoadAssembler(dm).assemble(sol.f, 0.5)
    # reference: the same moments under a rule of exactness 20, eight or
    # nine degrees above the load rule's k + DATA_EXACTNESS_MARGIN; on
    # quads the centroid fan, so the tensor rule is not its own oracle
    F_ref = np.zeros(dm.total_dofs)
    for c in range(m.num_cells):
        rule = oracle_rule(m, c, 20)
        phi, _, _ = fs.cell_basis(m, c, k).eval(rule.points)
        fx = sol.f(0.5, rule.points[:, 0], rule.points[:, 1])
        F_ref[dm.cell_dofs(c)[:dm.cell_block]] = phi.T @ (rule.weights * fx)
    assert np.abs(F - F_ref).max() <= 1e-9 * np.abs(F_ref).max()


@pytest.mark.parametrize("build,k,per_cell,per_edge", [
    (sm.build_uniform_triangle_mesh, 2, 49, 6),
    (sm.build_uniform_triangle_mesh, 3, 49, 7),
    (sm.build_quad_mesh, 3, 49, 7),
], ids=["tri-k2", "tri-k3", "quad-k3"])
def test_data_rule_sizes(build, k, per_cell, per_edge):
    # every step samples the load at each cell point and the boundary data
    # at each boundary-edge point, so these sizes are per-step work
    m = build(2)
    dm = fs.build_dofmap(m, k)
    assert asm.LoadAssembler(dm).x.size == per_cell * m.num_cells
    bp = asm.BoundaryProjector(dm, asm.BoundaryData.homogeneous())
    assert bp.x.size == per_edge * len(m.boundary_edges)


def test_boundary_trace_dofs_reproduce_degree_k_above_the_margin():
    # the trace of x**10 on the edge y = 0, ((s + 1)/2)**10, is in P_10: a
    # k = 10 trace rule exact to 2k reproduces it, one exact to k + 9 not
    m = sm.build_uniform_triangle_mesh(1)  # edge 0 runs (0, 0) to (1, 0)
    dm = fs.build_dofmap(m, 10)
    data = asm.BoundaryData(lambda t, x, y: x ** 10,
                            lambda t, x, y, nx, ny: 0.0)
    g = asm.BoundaryProjector(dm, data).values(0.0)
    want = (Polynomial([0.5, 0.5]) ** 10).convert(kind=Legendre).coef
    assert np.abs(g[dm.trace_dofs(0)] - want).max() < 1e-12


@pytest.mark.parametrize("build,k", [
    (lambda: sm.build_uniform_triangle_mesh(2), 2),
    (lambda: sm.build_quad_mesh(2), 3),
    (lambda: sm.Mesh(PENTA_VERTS, PENTA_CELLS), 2),
], ids=["tri", "quad", "pentagon"])
def test_boundary_values_homogeneous_and_manufactured(build, k):
    m = build()
    dm = fs.build_dofmap(m, k)
    homogeneous = asm.BoundaryData.homogeneous()
    g0 = asm.BoundaryProjector(dm, homogeneous).values(0.0)
    assert np.abs(g0).max() == 0.0
    sol = er.default_solution()
    data = sol.boundary_data()
    calls = []

    def trace(*args):
        calls.append("trace")
        return data.trace(*args)

    def normal(*args):
        calls.append("normal")
        return data.normal(*args)

    proj = asm.BoundaryProjector(dm, asm.BoundaryData(trace, normal))
    g = proj.values(0.25)
    # one vectorized call of each callable per time level
    assert sorted(calls) == ["normal", "trace"]
    w = wc.interpolate(lambda x, y: sol.u(0.25, x, y),
                       lambda x, y: sol.grad_u(0.25, x, y), dm)
    assert np.allclose(g[dm.boundary_dofs], w.coeffs[dm.boundary_dofs],
                       atol=1e-12)
    free_mask = np.ones(dm.total_dofs, bool)
    free_mask[dm.boundary_dofs] = False
    assert np.abs(g[free_mask]).max() == 0.0


@pytest.mark.parametrize("name", ["tri4", "jitter", "pentagon"])
def test_boundary_trace_dofs_equal_interpolate_bit_for_bit(name):
    # the boundary values and interpolate project the traces on the same
    # rule with the same edge kernel, so the error of a run with boundary
    # data read off the exact solution is zero on every boundary trace DOF
    dm = _weak_space(name)
    sol, t = er.default_solution(), 0.3
    g = asm.BoundaryProjector(dm, sol.boundary_data()).values(t)
    w = wc.interpolate(lambda x, y: sol.u(t, x, y),
                       lambda x, y: sol.grad_u(t, x, y), dm)
    traces = dm.trace_dofs(dm.mesh.boundary_edges)
    assert np.array_equal(g[traces], w.coeffs[traces])


@pytest.mark.parametrize("name", ["tri4", "jitter", "pentagon"])
def test_load_and_boundary_setup_traced_calls_per_entity(monkeypatch, name):
    # the load builds one cell rule and one basis table per cell, the
    # boundary values one edge rule per boundary edge and no basis table:
    # the counts the benchmark checks exactly
    dm = _weak_space(name)
    m = dm.mesh
    counts = dict.fromkeys(("cell_quadrature", "edge_quadrature", "eval"), 0)
    _counted(monkeypatch, asm, "cell_quadrature", counts)
    _counted(monkeypatch, asm, "edge_quadrature", counts)
    _counted(monkeypatch, fs.CellBasis, "eval", counts)
    asm.LoadAssembler(dm)
    assert counts == {"cell_quadrature": m.num_cells, "edge_quadrature": 0,
                      "eval": m.num_cells}
    counts.update(dict.fromkeys(counts, 0))
    asm.BoundaryProjector(dm, asm.BoundaryData.homogeneous())
    assert counts == {"cell_quadrature": 0,
                      "edge_quadrature": len(m.boundary_edges), "eval": 0}


def test_one_sided_boundary_data_fails_at_construction():
    trace = er.default_solution().boundary_data().trace
    with pytest.raises(TypeError):
        asm.BoundaryData(trace=trace)
    with pytest.raises(TypeError):
        asm.BoundaryData(trace, None)


def _zero(t, x, y, *normal):
    return np.zeros_like(x)


_DATA_CALLABLES = {
    "load f": lambda dm, g: asm.LoadAssembler(dm).assemble(
        lambda t, x, y: g(x), 0.0),
    "boundary trace": lambda dm, g: asm.BoundaryProjector(
        dm, asm.BoundaryData(lambda t, x, y: g(x), _zero)).values(0.0),
    "boundary normal": lambda dm, g: asm.BoundaryProjector(
        dm, asm.BoundaryData(_zero, lambda t, x, y, nx, ny: g(x))
    ).values(0.0),
}


@pytest.mark.parametrize("what", sorted(_DATA_CALLABLES),
                         ids=lambda what: what.replace(" ", "-"))
def test_data_callable_constant_broadcasts_and_bad_shape_is_named(what):
    _, dm, _ = _setup(n=1)
    sampled = _DATA_CALLABLES[what]
    const = sampled(dm, lambda x: 1.0)
    assert np.array_equal(const, sampled(dm, np.ones_like))
    assert np.abs(const).max() > 0.0
    with pytest.raises(ValueError, match=what):
        sampled(dm, lambda x: np.ones(3))


def test_samples_taken_earlier_own_their_memory():
    # samples taken ahead of their use are copies, so a callable may reuse
    # its result array, and applying them equals the direct call
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    sol = er.default_solution()
    buf = {}

    def reused(t, x, y):
        out = buf.setdefault("f", np.empty_like(x))
        out[:] = sol.f(t, x, y)
        return out

    loads = asm.LoadAssembler(dm)
    taken = loads.sample(reused, 0.3)
    reused(0.7, loads.x, loads.y)
    assert np.array_equal(loads.assemble(reused, 0.3, samples=taken),
                          loads.assemble(sol.f, 0.3))
    bproj = asm.BoundaryProjector(dm, sol.boundary_data())
    assert np.array_equal(bproj.values(0.3, samples=bproj.sample(0.3)),
                          bproj.values(0.3))


def test_sparse_sym_drops_tiny_entries():
    rows = np.array([0, 1, 1, 0])
    cols = np.array([0, 1, 0, 1])
    vals = np.array([1.0, 2.0, 1e-17, 1e-17])
    S = asm.SparseSym.from_triplets(2, rows, cols, vals)
    assert S.mat.nnz == 2


def test_matrix_market_dump(tmp_path):
    from scipy.io import mmread

    m, dm, A = _setup(n=1)
    path = tmp_path / "stiff.mtx"
    asm.dump_matrix_market(A, path)
    back = mmread(path).tocsr()
    assert np.abs((back - A.mat)).max() < 1e-15


# -- bitwise oracle: the former per-block coordinate lists --------------------


def _per_block(blocks):
    """Coordinate triplets of dense (rows, cols, block) triplets, one list
    entry per block, as the former scatter built them."""
    rows = np.concatenate([np.repeat(r, len(c)) for r, c, _ in blocks])
    cols = np.concatenate([np.tile(c, len(r)) for r, c, _ in blocks])
    vals = np.concatenate([b.ravel() for _, _, b in blocks])
    return rows, cols, vals


def _per_block_csr(blocks, shape):
    rows, cols, vals = _per_block(blocks)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _assert_same_csr(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


def test_pentagon_assembly_bit_equal_to_per_block_oracle():
    m = sm.Mesh(PENTA_VERTS, PENTA_CELLS)
    k, j = 2, 6
    dm = fs.build_dofmap(m, k)
    n = dm.total_dofs
    cell_range = [dm.cell_dofs(c)[:dm.cell_block] for c in range(m.num_cells)]

    stiff = []
    for c in range(m.num_cells):
        local = wc.local_weak_laplacian(dm, c, j).energy_matrix()
        stiff.append((dm.cell_dofs(c), dm.cell_dofs(c),
                      0.5 * (local + local.T)))
    _assert_same_csr(asm.assemble_stiffness(dm, j).mat,
                     asm.SparseSym.from_triplets(n, *_per_block(stiff)).mat)

    mass = [(cell_range[c], cell_range[c],
             wc.cell_mass_matrix(fs.cell_basis(m, c, k),
                                 fs.cell_quadrature(m, c, 2 * k)))
            for c in range(m.num_cells)]
    _assert_same_csr(asm.assemble_mass_v0(dm).mat,
                     asm.SparseSym.from_triplets(n, *_per_block(mass)).mat)

    load, pts, base = [], [], 0
    for c in range(m.num_cells):
        rule = fs.cell_quadrature(m, c, k + fs.DATA_EXACTNESS_MARGIN)
        vals, _, _ = fs.cell_basis(m, c, k).eval(rule.points)
        cols = np.arange(base, base + len(rule.weights))
        load.append((cell_range[c], cols, (rule.weights[:, None] * vals).T))
        pts.append(rule.points)
        base += len(cols)
    loads = asm.LoadAssembler(dm)
    _assert_same_csr(loads.phi, _per_block_csr(load, (n, base)))
    assert np.array_equal(np.vstack(pts), np.column_stack([loads.x, loads.y]))

    # each boundary edge's Legendre moments, summed in point order as the
    # edge kernel sums them, over its edge masses
    data = er.default_solution().boundary_data()
    want, pts = np.zeros(n), []
    exactness = k + fs.DATA_EXACTNESS_MARGIN
    s = fs._gauss_m11(fs.edge_quadrature_size(exactness))[0]
    for e in m.boundary_edges:
        rule = fs.edge_quadrature(exactness, endpoints=m.edge_endpoints(e))
        x, y = rule.points.T.copy()
        nx, ny = (np.full_like(x, c) for c in m.edge_normals[e])
        for rows, degree, g in (
                (dm.trace_dofs(e), k, data.trace(0.3, x, y)),
                (dm.normal_dofs(e), k - 1, data.normal(0.3, x, y, nx, ny))):
            moments = ((rule.weights * g)[:, None]
                       * legvander(s, degree)).sum(axis=0)
            want[rows] = moments / (
                m.edge_lengths[e] / fs.legendre_mass_denominators(degree))
        pts.append(rule.points)
    bproj = asm.BoundaryProjector(dm, data)
    assert np.array_equal(bproj.values(0.3), want)
    assert np.array_equal(np.vstack(pts), np.column_stack([bproj.x, bproj.y]))

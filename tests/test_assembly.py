import warnings

import numpy as np
import pytest

from sfwg import assembly as asm, checks, errors as er, fespace as fs, mesh as sm, weakcalc as wc
from conftest import monomial_field
from test_polygon_cells import PENTA_CELLS, PENTA_VERTS


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
    assert np.abs(A @ w.coeffs).max() < 1e-10 * scale


def test_stiffness_symmetry_and_spd_on_free_block():
    m, dm, A = _setup(build=sm.build_uniform_triangle_mesh, n=1, k=2, j=5)
    assert A.symmetry_error() < 1e-12
    assert checks.free_min_eig(A, dm) > 0.0


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("joff", [3, 4])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_stiffness_spd_sweep(build, k, joff, n):
    m = build(n)
    dm = fs.build_dofmap(m, k)
    A = asm.assemble_stiffness(dm, k + joff)
    assert checks.free_min_eig(A, dm) > 0.0


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
        qf = float(w @ (A @ w))
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
    assert M.quad_form(w.coeffs) == pytest.approx(1.0, abs=1e-10)
    # edge-DOF rows and columns are identically zero
    edge_only = np.zeros(dm.total_dofs)
    edge_only[dm.trace_offset:] = 1.0
    assert np.abs(M @ edge_only).max() == 0.0
    # interpolant of u = x: w^T M w = integral of x^2 = 1/3
    u, gu, _ = monomial_field(1, 0)
    w = wc.interpolate(u, gu, dm)
    assert M.quad_form(w.coeffs) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_load_vector():
    m, dm, _ = _setup(n=2)
    loads = asm.LoadAssembler(dm)
    zero = loads.assemble(lambda t, x, y: np.zeros_like(x), 0.0)
    assert np.abs(zero).max() == 0.0
    one = loads.assemble(lambda t, x, y: np.ones_like(x), 0.0)
    # entries on edge DOFs are zero
    assert np.abs(one[dm.trace_offset:]).max() == 0.0
    # sum over the constant-basis entries equals the domain area
    const_entries = [one[dm.cell_slice(c).start] for c in range(m.num_cells)]
    assert sum(const_entries) == pytest.approx(1.0, abs=1e-10)


def test_load_against_refined_quadrature_oracle():
    m, dm, _ = _setup(n=4)
    sol = er.default_solution()
    F = asm.LoadAssembler(dm).assemble(sol.f, 0.5)
    # reference: the same moments under a rule six degrees more exact
    F_ref = np.zeros(dm.total_dofs)
    for c in range(m.num_cells):
        rule = fs.cell_quadrature(m, c, 2 + 12 + 6)
        phi, _, _ = fs.cell_basis(m, c, 2).eval(rule.points)
        fx = sol.f(0.5, rule.points[:, 0], rule.points[:, 1])
        F_ref[dm.cell_slice(c)] = phi.T @ (rule.weights * fx)
    assert np.abs(F - F_ref).max() <= 1e-9 * np.abs(F_ref).max()


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

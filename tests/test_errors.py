import numpy as np
import pytest

from sfwg import assembly as asm, driver as dr, errors as er, fespace as fs, mesh as sm, weakcalc as wc
from conftest import monomial_field, random_free_function
from test_weakcalc import _counted, _weak_space


@pytest.fixture(scope="module")
def space():
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(dm, 5)
    M = asm.assemble_mass_v0(dm)
    return m, dm, A, M


def test_manufactured_solution_consistency():
    sol = er.default_solution()
    assert sol.self_check(samples=100, tol=1e-10)


def test_manufactured_solution_values():
    sol = er.default_solution()
    x = np.array([0.25])
    y = np.array([0.0])
    # psi = cos(2 pi x) cos(2 pi y)
    assert sol.psi(x, y)[0] == pytest.approx(np.cos(np.pi / 2), abs=1e-15)
    assert sol.u(0.0, np.array([0.0]), np.array([0.0]))[0] == pytest.approx(1.0)
    # bilaplacian = 64 pi^4 u
    t = np.array([0.3])
    xs = np.array([0.1])
    ys = np.array([0.7])
    assert sol.bilaplace_u(t, xs, ys)[0] == pytest.approx(
        64 * np.pi ** 4 * sol.u(t, xs, ys)[0], rel=1e-13)
    # boundary data: trace and normal derivative against the fixed normal
    bd = sol.boundary_data()
    assert bd.trace(0.2, xs, ys)[0] == pytest.approx(sol.u(0.2, xs, ys)[0])
    gx, gy = sol.grad_u(0.2, xs, ys)
    assert bd.normal(0.2, xs, ys, 0.0, 1.0)[0] == pytest.approx(gy[0])


def test_triple_bar_norm_trivial_and_quadratic(space):
    m, dm, A, M = space
    assert er.triple_bar_norm(fs.WeakFunction.zeros(dm), A) == 0.0
    u = lambda x, y: x ** 2 + y ** 2
    gu = lambda x, y: (2 * x, 2 * y)
    w = wc.interpolate(u, gu, dm)
    assert er.triple_bar_norm(w, A) == pytest.approx(4.0, abs=1e-8)


def test_norm_2h_continuous_interpolant_reduces_to_laplacian(space):
    m, dm, _, _ = space
    u, gu, _ = monomial_field(2, 0)
    w = wc.interpolate(u, gu, dm)
    assert er.norm_2h(w) == pytest.approx(2.0, abs=1e-8)


def test_norm_2h_single_trace_dof_hand_assembled(space):
    # only one trace DOF set on an interior edge: the norm reduces to the
    # two adjacent h^-3 jump terms of that Legendre mode
    m, dm, _, _ = space
    e = int(m.interior_edges[0])
    mode = 1
    w = fs.WeakFunction.zeros(dm)
    w.coeffs[dm.trace_dofs(e)[mode]] = 1.0
    c1, c2 = m.edge_cells[e]
    L = m.edge_lengths[e]
    mass = L / (2 * mode + 1)
    want = np.sqrt((m.cell_diameters[c1] ** -3 + m.cell_diameters[c2] ** -3)
                   * mass)
    assert er.norm_2h(w) == pytest.approx(want, rel=1e-12)


def test_norm_2h_single_normal_dof_hand_assembled(space):
    # only one normal DOF set on an interior edge: the norm reduces to the
    # two adjacent h^-1 flux terms, (grad v0 - vn n_e).n = -+ vn
    m, dm, _, _ = space
    e = int(m.interior_edges[0])
    mode = 1
    w = fs.WeakFunction.zeros(dm)
    w.coeffs[dm.normal_dofs(e)[mode]] = 1.0
    c1, c2 = m.edge_cells[e]
    mass = m.edge_lengths[e] / (2 * mode + 1)
    want = np.sqrt((1.0 / m.cell_diameters[c1] + 1.0 / m.cell_diameters[c2])
                   * mass)
    assert er.norm_2h(w) == pytest.approx(want, rel=1e-12)


def test_l2_norm_v0_values(space):
    m, dm, A, M = space
    u, gu, _ = monomial_field(0, 0)
    w = wc.interpolate(u, gu, dm)
    assert er.l2_norm_v0(w, M) == pytest.approx(1.0, abs=1e-10)
    u, gu, _ = monomial_field(1, 0)
    w = wc.interpolate(u, gu, dm)
    assert er.l2_norm_v0(w, M) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)


def test_l2_norm_matches_quadrature_oracle(space):
    m, dm, A, M = space
    rng = np.random.default_rng(31)
    w = fs.WeakFunction(dm, rng.standard_normal(dm.total_dofs))
    tot = 0.0
    for c in range(m.num_cells):
        rule = fs.cell_quadrature(m, c, 2 * 2 + 2)
        vals, _, _ = fs.cell_basis(m, c, 2).eval(rule.points)
        v = vals @ w.coeffs[dm.cell_dofs(c)[:dm.cell_block]]
        tot += float(rule.weights @ (v * v))
    assert er.l2_norm_v0(w, M) == pytest.approx(np.sqrt(tot), rel=1e-10)


def test_norms_absolutely_homogeneous_and_triangle_inequality(space):
    m, dm, A, M = space
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = random_free_function(dm, rng)
        b = random_free_function(dm, rng)
        alpha = float(rng.uniform(-3, 3))
        for norm in (lambda w: er.triple_bar_norm(w, A),
                     er.norm_2h,
                     lambda w: er.l2_norm_v0(w, M)):
            assert norm(alpha * a) == pytest.approx(abs(alpha) * norm(a),
                                                    rel=1e-12, abs=1e-12)
            assert norm(a + b) <= norm(a) + norm(b) + 1e-12


def test_compute_rates():
    assert er.compute_rates([(8, 4.0), (16, 1.0)]) == [None, 2.0]
    # halving the error while doubling n gives rate 1.00 (reference pair of
    # measured values: 7.2522 -> 3.6277 from n=64 to n=128)
    rates = er.compute_rates([(64, 7.2522), (128, 3.6277)])
    assert rates[1] == pytest.approx(1.00, abs=5e-3)
    assert er.compute_rates([(2, 1.0), (4, 1.0)])[1] == 0.0
    assert er.compute_rates([(2, 1.0), (4, 0.0)])[1] is None
    with pytest.raises(ValueError):
        er.compute_rates([(4, 1.0), (4, 0.5)])


def test_negative_quadratic_form_rejected(space):
    m, dm, A, M = space
    w = fs.WeakFunction(dm, np.ones(dm.total_dofs))
    for norm, K in ((er.triple_bar_norm, A), (er.l2_norm_v0, M)):
        with pytest.raises(ValueError, match="quadratic form is negative"):
            norm(w, asm.SparseSym((-1.0) * K.mat))


def test_evaluate_errors_zero_for_interpolant(space):
    m, dm, A, M = space
    sol = er.default_solution()
    t = 0.5
    U = wc.interpolate(lambda x, y: sol.u(t, x, y),
                       lambda x, y: sol.grad_u(t, x, y), dm)
    e = er.evaluate_errors(U, sol, t, m, dm, A, M)
    assert e.trb <= 1e-12 and e.h2 <= 1e-12 and e.l2 <= 1e-12


def test_error_report_rates():
    rep = er.ErrorReport(axis="n")
    rep.add(4, 0.25, er.ErrorTriple(4.0, 2.0, 1.0))
    rep.add(8, 0.125, er.ErrorTriple(2.0, 1.0, 0.25))
    rates = rep.rates()
    assert rates["trb"] == [None, pytest.approx(1.0)]
    assert rates["l2"] == [None, pytest.approx(2.0)]


def _loop_norm_2h(w):
    """`norm_2h` as a loop over cells and their edges, summed term by
    term."""
    dm = w.dofmap
    mesh, k = dm.mesh, dm.k
    Lt = fs.legendre_table(k, 2 * k + 2)
    Ln = fs.legendre_table(k - 1, 2 * k + 2)
    total = 0.0
    for c in range(mesh.num_cells):
        cb = fs.cell_basis(mesh, c, k)
        w_int = w.coeffs[dm.cell_dofs(c)[:dm.cell_block]]
        rule = fs.cell_quadrature(mesh, c, max(2 * (k - 2), 1))
        _, _, laps = cb.eval(rule.points, grads=False)
        lap_v0 = laps @ w_int
        total += float(rule.weights @ (lap_v0 * lap_v0))
        hT = mesh.cell_diameters[c]
        for e, sign in zip(mesh.cell_edges[c], mesh.cell_edge_signs[c]):
            n_out = sign * mesh.edge_normals[e]
            er_ = fs.edge_quadrature(2 * k + 2,
                                     endpoints=mesh.edge_endpoints(e))
            vals, grads, _ = cb.eval(er_.points, laps=False)
            w_t, w_n = w.coeffs[dm.trace_dofs(e)], w.coeffs[dm.normal_dofs(e)]
            jump = vals @ w_int - Lt @ w_t
            total += float(er_.weights @ (jump * jump)) / hT ** 3
            flux = (grads @ n_out) @ w_int - sign * (Ln @ w_n)
            total += float(er_.weights @ (flux * flux)) / hT
    return np.sqrt(total)


@pytest.mark.parametrize("name", ["tri4", "quad3", "jitter", "pentagon"])
def test_norm_2h_matches_entity_loop(name):
    # random coefficients on every DOF, boundary ones included; only the
    # order of the sums may differ from the loop
    dm = _weak_space(name)
    rng = np.random.default_rng(31)
    assert er.norm_2h(fs.WeakFunction.zeros(dm)) == 0.0
    for _ in range(3):
        w = fs.WeakFunction(dm, rng.standard_normal(dm.total_dofs))
        assert np.abs(w.coeffs[dm.boundary_dofs]).min() > 0.0
        want = _loop_norm_2h(w)
        assert abs(er.norm_2h(w) - want) <= 1e-13 * want


@pytest.mark.parametrize("name", ["tri4", "jitter", "pentagon"])
def test_norm_2h_traced_calls_per_entity(monkeypatch, name):
    # one cell rule per cell and one edge rule per cell edge, and a basis
    # table at each: the counts the benchmark checks exactly
    dm = _weak_space(name)
    counts = dict.fromkeys(("cell_quadrature", "edge_quadrature", "eval"), 0)
    _counted(monkeypatch, er, "cell_quadrature", counts)
    _counted(monkeypatch, er, "edge_quadrature", counts)
    _counted(monkeypatch, fs.CellBasis, "eval", counts)
    er.norm_2h(fs.WeakFunction(dm, np.ones(dm.total_dofs)))
    m = dm.mesh
    cell_edges = sum(map(len, m.cell_edges))
    assert counts == {"cell_quadrature": m.num_cells,
                      "edge_quadrature": cell_edges,
                      "eval": m.num_cells + cell_edges}

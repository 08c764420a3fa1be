from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from sfwg import assembly as asm, checks, driver as dr, errors as er, fespace as fs, mesh as sm, weakcalc as wc
from test_polygon_cells import PENTA_CELLS, PENTA_VERTS


def _scalar_stepper(theta, tau):
    one = asm.SparseSym(sp.csr_matrix(np.array([[1.0]])))
    return dr.ThetaStepper(one, one, np.array([0]), theta, tau)


def test_scalar_surrogate_backward_euler():
    st = _scalar_stepper(1.0, 0.1)
    u1 = st.step(np.array([1.0]), np.zeros(1), np.zeros(1))
    assert u1[0] == pytest.approx(1.0 / 1.1, abs=1e-15)


def test_scalar_surrogate_crank_nicolson():
    st = _scalar_stepper(0.5, 0.1)
    u1 = st.step(np.array([1.0]), np.zeros(1), np.zeros(1))
    assert u1[0] == pytest.approx(0.95 / 1.05, abs=1e-15)


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_scalar_update_formula_exact(theta):
    # the float step matches the exact rational update
    # u1 = (1/tau - (1-theta)) / (1/tau + theta) * u0 for M = A = 1, f = 0
    tau = 0.125
    st = _scalar_stepper(theta, tau)
    u1 = st.step(np.array([1.0]), np.zeros(1), np.zeros(1))
    exact = (Fraction(1, 8) ** -1 - (1 - Fraction(theta))) \
        / (Fraction(1, 8) ** -1 + Fraction(theta))
    assert u1[0] == pytest.approx(float(exact), abs=1e-15)


def test_theta_stepper_validation():
    one = asm.SparseSym(sp.csr_matrix(np.array([[1.0]])))
    with pytest.raises(ValueError):
        dr.ThetaStepper(one, one, np.array([0]), 0.3, 0.1)
    with pytest.raises(ValueError):
        dr.ThetaStepper(one, one, np.array([0]), 1.0, 0.0)
    # 1e-320 is subnormal: 1/tau, the scale of M/tau, overflows
    for tau in (np.nan, np.inf, 1e-320):
        with pytest.raises(ValueError, match="tau"):
            dr.ThetaStepper(one, one, np.array([0]), 1.0, tau)


def test_singular_step_matrix_raises_solver_error():
    zero = asm.SparseSym(sp.csr_matrix((1, 1)))
    with pytest.raises(dr.SolverError, match="singular"):
        dr.ThetaStepper(zero, zero, np.array([0]), 1.0, 0.1)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        dr.SchemeConfig(theta=0.3)
    with pytest.raises(ValueError):
        dr.SchemeConfig(theta=1.2)
    with pytest.raises(ValueError):
        dr.SchemeConfig(k=1)
    with pytest.raises(ValueError):
        dr.SchemeConfig(k=3, j=2)
    with pytest.raises(ValueError):
        dr.SchemeConfig(steps=0)
    with pytest.raises(ValueError):
        dr.SchemeConfig(mesh_family="hex")
    cfg = dr.SchemeConfig(k=2, mesh_family="quad")
    assert cfg.j == 8  # quad default offset is 6
    assert dr.SchemeConfig(k=2).j == 5


def test_default_j_follows_file_mesh(tmp_path):
    assert dr.default_j(2, "tri") == 5 and dr.default_j(2, "quad") == 8
    pentagon = sm.Mesh(PENTA_VERTS, PENTA_CELLS)
    for grid, j in ((sm.build_uniform_triangle_mesh(2), 5),
                    (sm.build_quad_mesh(2), 5), (pentagon, 6)):
        path = tmp_path / f"m{grid.num_cells}.msh"
        sm.write_mesh_file(grid, path)
        assert dr.default_j(2, "file", path) == j
        assert dr.SchemeConfig(k=2, mesh_family="file",
                               mesh_path=str(path)).j == j


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("tau", [1.0, 0.01])
def test_dissipation_random_initial_data(theta, tau):
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(dm, 5)
    M = asm.assemble_mass_v0(dm)
    checked, violations = checks.dissipation_violations(
        M, A, dm, (theta,), (tau,), 3, 20, np.random.default_rng(7))
    assert checked == 60 and violations == 0


def test_theta_step_matches_dense_row_replacement():
    # one step by boundary reduction with lift equals the dense solve of the
    # full step system with boundary rows replaced by the identity
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, 5, sol.f, sol.boundary_data())
    theta, tau = 0.75, 0.2
    u0 = prob.initial_state(sol.psi, sol.grad_psi).coeffs
    loads = asm.LoadAssembler(dm)
    load0 = loads.assemble(sol.f, 0.0)
    load1 = loads.assemble(sol.f, tau)
    g1 = asm.BoundaryProjector(dm, sol.boundary_data()).values(tau)

    stepper = dr.ThetaStepper(prob.M, prob.A, dm.free_dofs, theta, tau)
    u1 = stepper.step(u0, load0, load1, g1)

    Md, Ad = prob.M.toarray(), prob.A.toarray()
    S = Md / tau + theta * Ad
    rhs = Md @ u0 / tau - (1 - theta) * (Ad @ u0) \
        + theta * load1 + (1 - theta) * load0
    for i in dm.boundary_dofs:
        S[i, :] = 0.0
        S[i, i] = 1.0
        rhs[i] = g1[i]
    u_dense = np.linalg.solve(S, rhs)
    assert np.abs(u1 - u_dense).max() <= 1e-9 * max(1.0, np.abs(u_dense).max())


def test_zero_data_gives_zero_solution():
    cfg = dr.SchemeConfig(k=2, j=5, theta=0.5, steps=5, n=2)
    zero = lambda x, y: np.zeros_like(x)
    gzero = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    prob = cfg.problem(lambda t, x, y: np.zeros_like(x),
                       asm.BoundaryData.homogeneous())
    u, _ = prob.run(cfg.theta, cfg.steps, cfg.t_end, zero, gzero)
    assert np.abs(u.coeffs).max() == 0.0


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_observer_sees_every_step(theta):
    # at theta=1/2 the first step is two backward-Euler half-steps, of which
    # only the second is a reported level
    cfg = dr.SchemeConfig(k=2, j=5, theta=theta, steps=4, n=1)
    sol = er.default_solution()
    seen = []
    prob = cfg.problem(sol.f, sol.boundary_data())
    _, diagnostics = prob.run(cfg.theta, cfg.steps, cfg.t_end, sol.psi,
                              sol.grad_psi,
                              observer=lambda n, t, u: seen.append((n, t)))
    assert [n for n, _ in seen] == [1, 2, 3, 4]
    assert [t for _, t in seen] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    assert len(diagnostics) == 4


def test_constrained_solve_matches_row_replacement():
    # solving on the free DOFs with the boundary values lifted to the
    # right-hand side equals solving the full system with boundary rows
    # replaced by the identity
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(dm, 5)
    sol = er.default_solution()
    F = asm.LoadAssembler(dm).assemble(
        lambda t, x, y: sol.bilaplace_u(0.0, x, y), 0.0)
    g = asm.BoundaryProjector(dm, sol.boundary_data()).values(0.0)
    solver = dr.ConstrainedSolve(A.mat, dm.free_dofs, "test matrix")
    x1 = solver.solve(F, g)
    Ad = A.toarray()
    Fd = F.copy()
    for i in dm.boundary_dofs:
        Ad[i, :] = 0.0
        Ad[i, i] = 1.0
        Fd[i] = g[i]
    x2 = np.linalg.solve(Ad, Fd)
    assert np.abs(x1 - x2).max() < 1e-10
    # entries of `fixed` on the solved DOFs are ignored
    noisy = g + np.random.default_rng(3).standard_normal(dm.total_dofs)
    noisy[dm.boundary_dofs] = g[dm.boundary_dofs]
    assert np.array_equal(solver.solve(F, noisy), x1)
    # no fixed values: homogeneous boundary data
    assert np.array_equal(solver.solve(F), solver.solve(F, 0.0 * g))


def test_transient_state_tracks_boundary_values():
    cfg = dr.SchemeConfig(k=2, j=5, theta=1.0, steps=3, n=2)
    sol = er.default_solution()
    grabbed = {}
    prob = cfg.problem(sol.f, sol.boundary_data())
    prob.run(cfg.theta, cfg.steps, cfg.t_end, sol.psi, sol.grad_psi,
             observer=lambda n, t, u: grabbed.update({n: (t, u)}))
    dm = prob.dofmap
    t, u = grabbed[2]
    g = asm.BoundaryProjector(dm, sol.boundary_data()).values(t)
    assert np.allclose(u.coeffs[dm.boundary_dofs], g[dm.boundary_dofs],
                       atol=1e-12)


def test_smoke_manufactured_better_than_perturbed_start():
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(4)
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, 5, sol.f, sol.boundary_data())
    u, _ = prob.run(0.5, 16, 1.0, sol.psi, sol.grad_psi)
    e = er.evaluate_errors(u, sol, 1.0, m, dm, prob.A, prob.M)
    assert np.isfinite(e.l2) and e.l2 > 0.0
    # a heavily perturbed start must end up worse in the interior L2 norm
    bad_psi = lambda x, y: sol.psi(x, y) + 5.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
    bad_grad = lambda x, y: (sol.grad_psi(x, y)[0]
                             + 5.0 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                             sol.grad_psi(x, y)[1]
                             + 5.0 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    u_bad, _ = prob.run(0.5, 16, 1.0, bad_psi, bad_grad)
    e_bad = er.evaluate_errors(u_bad, sol, 1.0, m, dm, prob.A, prob.M)
    assert e_bad.l2 > e.l2


def test_mesh_other_than_the_dofmap_mesh_rejected():
    # an equal but separate mesh is still not the one the DOF map indexes
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    other = sm.build_uniform_triangle_mesh(2)
    with pytest.raises(ValueError, match="mesh of the DOF map"):
        dr.TransientProblem(other, dm, 5, sol.f, sol.boundary_data())
    prob = dr.TransientProblem(m, dm, 5, sol.f, sol.boundary_data())
    with pytest.raises(ValueError, match="mesh of the DOF map"):
        er.evaluate_errors(fs.WeakFunction.zeros(dm), sol, 0.0, other, dm,
                           prob.A, prob.M)


def test_long_time_limit_approaches_stationary_solution():
    # constant-in-time data: the transient solution relaxes to the steady
    # biharmonic solution as t_end grows
    g = lambda x: x ** 2 * (1 - x) ** 2
    gpp = lambda x: 2 - 12 * x + 12 * x ** 2
    bilap = lambda x, y: 24 * g(y) + 2 * gpp(x) * gpp(y) + 24 * g(x)
    m = sm.build_uniform_triangle_mesh(4)
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, 5, lambda t, x, y: bilap(x, y),
                               asm.BoundaryData.homogeneous())
    u_stat = dr.solve_biharmonic(dm, 5, bilap,
                                 asm.BoundaryData.homogeneous(), A=prob.A)
    zero = lambda x, y: np.zeros_like(x)
    gzero = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    gaps = []
    for t_end in (0.005, 0.01, 0.02):
        u, _ = prob.run(1.0, 40, t_end, zero, gzero)
        gaps.append(er.triple_bar_norm(u - u_stat, prob.A))
    assert gaps[0] > gaps[1] > gaps[2]
    # doubling the step count changes the (pre-limit) discrete answer
    u8, _ = prob.run(1.0, 8, 0.005, zero, gzero)
    u16, _ = prob.run(1.0, 16, 0.005, zero, gzero)
    assert np.abs(u8.coeffs - u16.coeffs).max() > 0.0


def test_boundedness_trend_under_tau_refinement():
    # ||U^n|| <= ||U^0|| + C sup||f||; the measured C stays stable as tau
    # shrinks
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, 5, sol.f, sol.boundary_data())
    sup_f = 1.0 + 64.0 * np.pi ** 4  # max over the domain and time interval
    consts = []
    for steps in (10, 20, 40):
        norms = []
        prob.run(1.0, steps, 1.0, sol.psi, sol.grad_psi,
                 observer=lambda n, t, u: norms.append(
                     er.l2_norm_v0(u, prob.M)))
        u0 = prob.initial_state(sol.psi, sol.grad_psi)
        consts.append((max(norms) - er.l2_norm_v0(u0, prob.M)) / sup_f)
    assert consts[2] <= 1.5 * max(consts[0], 1e-12) + 1e-12


def test_solve_biharmonic_zero_and_linear():
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    zero = dr.solve_biharmonic(dm, 5, lambda x, y: np.zeros_like(x),
                               asm.BoundaryData.homogeneous())
    assert np.abs(zero.coeffs).max() == 0.0
    f1 = lambda x, y: np.ones_like(x)
    f2 = lambda x, y: x * y
    u1 = dr.solve_biharmonic(dm, 5, f1, asm.BoundaryData.homogeneous())
    u2 = dr.solve_biharmonic(dm, 5, f2, asm.BoundaryData.homogeneous())
    u12 = dr.solve_biharmonic(dm, 5, lambda x, y: f1(x, y) + f2(x, y),
                              asm.BoundaryData.homogeneous())
    gap = np.abs(u12.coeffs - u1.coeffs - u2.coeffs).max()
    assert gap <= 1e-10 * max(1.0, np.abs(u12.coeffs).max())


def test_solve_biharmonic_convergence_window():
    sol = er.default_solution()
    bd = sol.boundary_data()
    f0 = lambda x, y: sol.bilaplace_u(0.0, x, y)
    u0 = lambda x, y: sol.u(0.0, x, y)
    g0 = lambda x, y: sol.grad_u(0.0, x, y)
    errs = []
    for n in (4, 8):
        m = sm.build_uniform_triangle_mesh(n)
        dm = fs.build_dofmap(m, 2)
        A = asm.assemble_stiffness(dm, 5)
        U = dr.solve_biharmonic(dm, 5, f0, bd, A=A)
        e = wc.interpolate(u0, g0, dm) - U
        errs.append(er.triple_bar_norm(e, A))
    assert 1.6 <= errs[0] / errs[1] <= 2.4


def test_consistent_initial_state_solves_edge_rows():
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, 5, sol.f, sol.boundary_data())
    ref = wc.interpolate(sol.psi, sol.grad_psi, dm)
    cons = prob.initial_state(sol.psi, sol.grad_psi)
    # interior and boundary DOFs agree; free edge DOFs satisfy the edge rows
    assert np.array_equal(cons.coeffs[:dm.trace_offset],
                          ref.coeffs[:dm.trace_offset])
    assert np.allclose(cons.coeffs[dm.boundary_dofs],
                       ref.coeffs[dm.boundary_dofs])
    free_edge = dm.free_dofs[dm.free_dofs >= dm.trace_offset]
    resid = (prob.A.mat @ cons.coeffs)[free_edge]
    scale = np.abs(prob.A.mat @ ref.coeffs).max()
    assert np.abs(resid).max() <= 1e-10 * scale

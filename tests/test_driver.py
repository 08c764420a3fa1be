import re
import threading
import time
import weakref
from contextlib import contextmanager
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
    # tau must be a real number: True is not 1.0, '0.1' is not a number
    for tau in (True, "0.1"):
        with pytest.raises(ValueError, match="^tau must be a real"):
            dr.ThetaStepper(one, one, np.array([0]), 1.0, tau)
    # theta is checked as TransientProblem.run checks it: True is not 1.0
    sol, prob = _tri2_problem()
    for theta in (0.3, True, "1"):
        with pytest.raises(ValueError, match="^theta must") as got:
            dr.ThetaStepper(one, one, np.array([0]), theta, 0.1)
        with pytest.raises(ValueError) as run_error:
            prob.run(theta, 4, 1.0, sol.psi, sol.grad_psi)
        assert str(got.value) == str(run_error.value)


def test_singular_step_matrix_raises_solver_error():
    zero = asm.SparseSym(sp.csr_matrix((1, 1)))
    with pytest.raises(dr.SolverError, match="singular"):
        dr.ThetaStepper(zero, zero, np.array([0]), 1.0, 0.1)


def _local_op_types(monkeypatch):
    """The type of j of every `local_weak_laplacian` call from now on."""
    seen = []
    local_op = wc.local_weak_laplacian

    def recorded(dofmap, cell, j):
        seen.append(type(j))
        return local_op(dofmap, cell, j)

    monkeypatch.setattr(wc, "local_weak_laplacian", recorded)
    return seen


def test_scheme_config_validation(monkeypatch):
    # the scheme's configuration is the DOF map (mesh and k) and j: the DOF
    # map checks k, and the stiffness and each local operator check j
    grid = sm.build_uniform_triangle_mesh(1)
    with pytest.raises(ValueError, match="^k must be >= 2, got 1"):
        fs.build_dofmap(grid, 1)
    with pytest.raises(ValueError, match="^k must be >= 2, got 1"):
        dr.default_j(1, grid)
    dm = fs.build_dofmap(grid, 3)
    with pytest.raises(ValueError, match="coercivity"):
        asm.assemble_stiffness(dm, 2)
    with pytest.raises(ValueError, match="j must be >= k"):
        wc.local_weak_laplacian(dm, 0, 2)
    assert dr.default_j(2, sm.build_quad_mesh(1)) == 5
    assert dr.default_j(2, grid) == 5
    # numpy integers are taken as ints
    seen = _local_op_types(monkeypatch)
    dm = fs.build_dofmap(grid, np.int64(3))
    assert (type(dm.k), dm.k) == (int, 3)
    asm.assemble_stiffness(dm, np.int32(6))
    assert seen == [int] * grid.num_cells


@pytest.mark.parametrize("field,value", [
    ("k", 2.5), ("k", True), ("k", 2.0), ("k", "2"), ("j", 5.5), ("j", "5"),
    ("j", 5.0), ("j", True), ("mesh", None), ("mesh", 4), ("mesh", "x")])
def test_scheme_config_rejects_non_integer(monkeypatch, field, value):
    # each is named where it is used, before anything is built from it:
    # the mesh and k by the DOF map, j before any local operator
    grid = sm.build_quad_mesh(1)
    kind = "a Mesh" if field == "mesh" else "an integer"
    message = "^" + re.escape(f"{field} must be {kind}, got {value!r}") + "$"
    if field != "j":
        with pytest.raises(ValueError, match=message):
            fs.build_dofmap(**{"mesh": grid, "k": 2, field: value})
        # the default j checks k and the mesh as the DOF map does
        with pytest.raises(ValueError, match=message):
            dr.default_j(**{"k": 2, "mesh": grid, field: value})
        return
    sol = er.default_solution()
    dm = fs.build_dofmap(grid, 2)
    with pytest.raises(ValueError, match=message):
        wc.local_weak_laplacian(dm, 0, value)
    seen = _local_op_types(monkeypatch)
    with pytest.raises(ValueError, match=message):
        asm.assemble_stiffness(dm, value)
    with pytest.raises(ValueError, match=message):
        dr.TransientProblem(grid, dm, value, sol.f, sol.boundary_data())
    assert seen == []


def test_default_j_follows_file_mesh(tmp_path):
    # one rule, k + max(3, N - 1), whether the mesh is built or read
    pentagon = sm.Mesh(PENTA_VERTS, PENTA_CELLS)
    sm.write_mesh_file(sm.build_quad_mesh(4), tmp_path / "q4.msh")
    for grid, j in ((sm.build_uniform_triangle_mesh(2), 5),
                    (sm.build_quad_mesh(4), 5),
                    (sm.read_mesh_file(tmp_path / "q4.msh"), 5),
                    (pentagon, 6)):
        assert dr.default_j(2, grid) == j
        # and the stiffness accepts it
        asm.assemble_stiffness(fs.build_dofmap(grid, 2), j)


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

    Md, Ad = prob.M.mat.toarray(), prob.A.mat.toarray()
    S = Md / tau + theta * Ad
    rhs = Md @ u0 / tau - (1 - theta) * (Ad @ u0) \
        + theta * load1 + (1 - theta) * load0
    for i in dm.boundary_dofs:
        S[i, :] = 0.0
        S[i, i] = 1.0
        rhs[i] = g1[i]
    u_dense = np.linalg.solve(S, rhs)
    assert np.abs(u1 - u_dense).max() <= 1e-9 * max(1.0, np.abs(u_dense).max())


def test_tiny_step_keeps_edge_dofs():
    # M/tau dwarfs A at tau = 1e-30; the edge rows carry no mass, so the
    # edge DOFs must come out as at tau = 1e-18, not as round-off of M u/tau
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, 5, sol.f, sol.boundary_data())
    edges = [prob.run(1.0, 1, tau, sol.psi, sol.grad_psi)[0]
             .coeffs[dm.trace_offset:] for tau in (1e-18, 1e-30)]
    assert np.abs(edges[1] - edges[0]).max() \
        <= 1e-9 * np.abs(edges[0]).max()


def test_zero_data_gives_zero_solution():
    m = sm.build_uniform_triangle_mesh(2)
    zero = lambda x, y: np.zeros_like(x)
    gzero = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    prob = dr.TransientProblem(m, fs.build_dofmap(m, 2), 5,
                               lambda t, x, y: np.zeros_like(x),
                               asm.BoundaryData.homogeneous())
    u, _ = prob.run(0.5, 5, 1.0, zero, gzero)
    assert np.abs(u.coeffs).max() == 0.0


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_observer_sees_every_step(theta):
    # at theta=1/2 the first step is two backward-Euler half-steps, of which
    # only the second is a reported level
    m = sm.build_uniform_triangle_mesh(1)
    sol = er.default_solution()
    seen = []
    prob = dr.TransientProblem(m, fs.build_dofmap(m, 2), 5, sol.f,
                               sol.boundary_data())
    _, levels = prob.run(theta, 4, 1.0, sol.psi, sol.grad_psi,
                         observer=lambda n, t, u: seen.append((n, t)))
    assert [n for n, _ in seen] == [1, 2, 3, 4]
    assert [t for _, t in seen] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    # run returns the observer's (n, t) stream, the half level absent
    assert levels == seen


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
    Ad = A.mat.toarray()
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


def test_transient_state_tracks_boundary_values():
    sol, prob = _tri2_problem()
    grabbed = {}
    prob.run(1.0, 3, 1.0, sol.psi, sol.grad_psi,
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
    u_stat = prob.stationary()
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


def test_stationary_zero_and_linear():
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)

    def stationary(f0):
        return dr.TransientProblem(m, dm, 5, lambda t, x, y: f0(x, y),
                                   asm.BoundaryData.homogeneous()).stationary()

    zero = stationary(lambda x, y: np.zeros_like(x))
    assert np.abs(zero.coeffs).max() == 0.0
    f1 = lambda x, y: np.ones_like(x)
    f2 = lambda x, y: x * y
    u1 = stationary(f1)
    u2 = stationary(f2)
    u12 = stationary(lambda x, y: f1(x, y) + f2(x, y))
    gap = np.abs(u12.coeffs - u1.coeffs - u2.coeffs).max()
    assert gap <= 1e-10 * max(1.0, np.abs(u12.coeffs).max())


def test_stationary_convergence_window():
    sol = er.default_solution()
    bd = sol.boundary_data()
    f0 = lambda x, y: sol.bilaplace_u(0.0, x, y)
    u0 = lambda x, y: sol.u(0.0, x, y)
    g0 = lambda x, y: sol.grad_u(0.0, x, y)
    errs = []
    for n in (4, 8):
        m = sm.build_uniform_triangle_mesh(n)
        dm = fs.build_dofmap(m, 2)
        prob = dr.TransientProblem(m, dm, 5, lambda t, x, y: f0(x, y), bd)
        e = wc.interpolate(u0, g0, dm) - prob.stationary()
        errs.append(er.triple_bar_norm(e, prob.A))
    assert 1.6 <= errs[0] / errs[1] <= 2.4


@pytest.mark.parametrize("mesh,j", [
    (lambda: sm.build_uniform_triangle_mesh(4), 5),
    pytest.param(lambda: sm.Mesh(PENTA_VERTS, PENTA_CELLS), 8,
                 marks=pytest.mark.filterwarnings(
                     "ignore::sfwg.weakcalc.ConditioningWarning")),
], ids=["tri4", "pentagon"])
def test_stationary_matches_inline_solve(mesh, j):
    # the problem's own A, load map and boundary map at t = 0, bit for bit
    sol = er.default_solution()
    bd = sol.boundary_data()
    m = mesh()
    dm = fs.build_dofmap(m, 2)
    prob = dr.TransientProblem(m, dm, j, sol.f, bd)
    free = dm.free_dofs
    want = dr.ConstrainedSolve(prob.A.mat, free,
                               "reduced stiffness matrix").solve(
        asm.LoadAssembler(dm).assemble(sol.f, 0.0),
        asm.BoundaryProjector(dm, bd).values(0.0))
    assert np.abs(want[dm.boundary_dofs]).max() > 0.0
    assert np.array_equal(prob.stationary().coeffs, want)


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


def _tri2_problem():
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(2)
    return sol, dr.TransientProblem(m, fs.build_dofmap(m, 2), 5, sol.f,
                                    sol.boundary_data())


class _Factor:
    """A weakref-able stand-in for a SuperLU factor."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs):
        return self._lu.solve(rhs)


def _watch_factors(monkeypatch):
    """Replace driver.splu by one that fails if a factor it made earlier is
    still alive; returns the list of factored shapes and the live factors."""
    shapes, live = [], weakref.WeakSet()
    splu = dr.splu

    def watched(matrix):
        assert not live, "an earlier factor of the run is still alive"
        shapes.append(matrix.shape)
        factor = _Factor(splu(matrix))
        live.add(factor)
        return factor

    monkeypatch.setattr(dr, "splu", watched)
    return shapes, live


@pytest.mark.parametrize("theta", [0.5, 0.6, 0.75, 1.0])
def test_run_keeps_one_factor_alive(monkeypatch, theta):
    # edge block, then (at theta < 3/4) backward Euler, then the theta-step
    # matrix, each released before the next is factored
    sol, prob = _tri2_problem()
    shapes, live = _watch_factors(monkeypatch)
    prob.run(theta, 4, 1.0, sol.psi, sol.grad_psi)
    assert len(shapes) == (3 if theta < 0.75 else 2)
    assert not live


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_factorizations_and_levels_interleave_in_time_order(monkeypatch,
                                                           theta):
    # the edge block, then each step matrix just before the first level it
    # reaches: at theta = 1/2 the theta-step matrix after level 1 is reported
    sol, prob = _tri2_problem()
    events, _ = _watch_factors(monkeypatch)
    prob.run(theta, 4, 1.0, sol.psi, sol.grad_psi,
             observer=lambda n, t, w: events.append(n))
    dm = prob.dofmap
    edge = (dm.free_dofs >= dm.trace_offset).sum()
    step = len(dm.free_dofs)
    want = [(edge, edge), (step, step), 1, 2, 3, 4]
    if theta < 0.75:
        want.insert(3, (step, step))
    assert events == want


def test_single_step_run_skips_the_unused_step_matrix(monkeypatch):
    # at theta = 1/2 one step is the two backward-Euler half-steps, so the
    # theta-step matrix has no level to reach and is never factored
    sol, prob = _tri2_problem()
    shapes, _ = _watch_factors(monkeypatch)
    _, levels = prob.run(0.5, 1, 1.0, sol.psi, sol.grad_psi)
    assert len(shapes) == 2
    assert levels == [(1, 1.0)]


@pytest.mark.parametrize("theta, t_end, steps", [
    (0.3, 1.0, 4),
    (0.3, 1.0, 1),  # the half-steps reach the only level
    (1.0, 1e-320, 1),  # tau subnormal: 1/tau overflows
    (0.5, 8e-309, 1),  # tau passes, the half-step tau/2 does not
])
def test_run_validates_before_any_work(monkeypatch, theta, t_end, steps):
    sol, prob = _tri2_problem()
    calls = []
    monkeypatch.setattr(dr, "splu", lambda *a: calls.append("splu"))
    monkeypatch.setattr(wc, "interpolate",
                        lambda *a: calls.append("interpolate"))
    with pytest.raises(ValueError, match="theta|tau"):
        prob.run(theta, steps, t_end, sol.psi, sol.grad_psi)
    assert calls == []


_BAD_SCHEDULES = [
    ("theta", 0.3, "theta must lie in"), ("theta", 1.2, "theta must lie in"),
    ("theta", True, "theta must be a real"),
    ("theta", "1", "theta must be a real"),
    ("theta", None, "theta must be a real"),
    ("theta", 1j, "theta must be a real"),
    ("steps", 0, "steps must be >= 1"),
    ("steps", 4.0, "steps must be an integer"),
    ("steps", True, "steps must be an integer"),
    ("steps", 10.0, "steps must be an integer"),
    ("t_end", True, "t_end must be a real"),
    ("t_end", "1", "t_end must be a real"),
    ("t_end", None, "t_end must be a real"),
    ("t_end", 1j, "t_end must be a real"),
    ("t_end", 0.0, "t_end must be finite"),
    ("t_end", np.nan, "t_end must be finite"),
    ("t_end", np.inf, "t_end must be finite")]


@pytest.mark.parametrize("field, value, message", _BAD_SCHEDULES,
                         ids=[f"{f}-{v}" for f, v, _ in _BAD_SCHEDULES])
def test_run_rejects_schedule_before_any_work(monkeypatch, field, value,
                                              message):
    sol, prob = _tri2_problem()
    schedule = {"theta": 1.0, "steps": 4, "t_end": 1.0, field: value}
    calls = []
    monkeypatch.setattr(dr, "splu", lambda *a: calls.append("splu"))
    monkeypatch.setattr(wc, "interpolate",
                        lambda *a: calls.append("interpolate"))
    with pytest.raises(ValueError, match=f"^{message}"):
        prob.run(schedule["theta"], schedule["steps"], schedule["t_end"],
                 sol.psi, sol.grad_psi,
                 observer=lambda *a: calls.append("observer"))
    assert calls == []


@pytest.mark.parametrize("steps", [0, 4.0, True])
def test_run_rejects_steps_as_the_config_does(monkeypatch, steps):
    # the run names a bad step count as the check the command line makes
    # of its configuration, before any problem is built, does
    sol, prob = _tri2_problem()
    with pytest.raises(ValueError) as config_error:
        dr._check_run(1.0, steps, 1.0)
    calls = []
    monkeypatch.setattr(dr, "splu", lambda *a: calls.append("splu"))
    with pytest.raises(ValueError, match="^steps must be") as run_error:
        prob.run(1.0, steps, 1.0, sol.psi, sol.grad_psi,
                 observer=lambda *a: calls.append("observer"))
    assert str(run_error.value) == str(config_error.value)
    assert calls == []


def test_run_takes_numpy_and_fraction_schedules():
    # numpy integers are taken as ints, numpy floats and Fractions as floats
    sol, prob = _tri2_problem()
    seen = []
    u, levels = prob.run(np.float32(0.5), np.int64(4), Fraction(1, 2),
                         sol.psi, sol.grad_psi,
                         observer=lambda n, t, w: seen.append((n, t)))
    want, _ = prob.run(0.5, 4, 0.5, sol.psi, sol.grad_psi)
    assert np.array_equal(u.coeffs, want.coeffs)
    assert [(type(n), type(t)) for n, t in seen] == [(int, float)] * 4
    assert levels == [
        (1, 0.125), (2, 0.25), (3, 0.375), (4, 0.5)]


def _run_in_parent_order(prob, sol, theta, steps, t_end, observer):
    """The run with the theta-step matrix factored before the initial state
    and the backward-Euler half-steps, as the driver once ordered it."""
    dm = prob.dofmap
    loads = asm.LoadAssembler(dm)
    bproj = asm.BoundaryProjector(dm, sol.boundary_data())
    tau = t_end / steps
    stepper = dr.ThetaStepper(prob.M, prob.A, dm.free_dofs, theta, tau)
    u = prob.initial_state(sol.psi, sol.grad_psi).coeffs
    plan = [(stepper, n * tau, n) for n in range(1, steps + 1)]
    if theta < 0.75:
        be = dr.ThetaStepper(prob.M, prob.A, dm.free_dofs, 1.0, 0.5 * tau)
        plan[0:1] = [(be, 0.5 * tau, None), (be, tau, 1)]
    load_prev = loads.assemble(sol.f, 0.0)
    for st, t, n in plan:
        load_curr = loads.assemble(sol.f, t)
        u = st.step(u, load_prev, load_curr, bproj.values(t))
        load_prev = load_curr
        if n is not None:
            observer(n, t, u.copy())
    return u


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_staged_run_is_bit_identical_to_parent_order(theta):
    sol, prob = _tri2_problem()
    want, got = [], []
    u_want = _run_in_parent_order(
        prob, sol, theta, 4, 1.0,
        lambda n, t, u: want.append((n, t, u)))
    u_got, _ = prob.run(theta, 4, 1.0, sol.psi, sol.grad_psi,
                        observer=lambda n, t, u: got.append((n, t, u.coeffs)))
    assert [(n, t) for n, t, _ in got] == [(n, t) for n, t, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(u_got.coeffs, u_want)


class _DataLog:
    """Load and boundary callables of the default solution that log each
    call as (name, t, thread) and record a call made while another runs."""

    def __init__(self, sol, fail_at=None):
        self._sol, self._bd = sol, sol.boundary_data()
        self._fail_at = fail_at
        self._lock = threading.Lock()
        self._busy = False
        self.calls, self.overlaps = [], 0

    @contextmanager
    def _call(self, name, t):
        with self._lock:
            self.overlaps += self._busy
            self._busy = True
        self.calls.append((name, t, threading.get_ident()))
        time.sleep(1e-4)  # widens the window an overlapping call would hit
        try:
            yield
        finally:
            with self._lock:
                self._busy = False

    def f(self, t, x, y):
        with self._call("f", t):
            if t == self._fail_at:
                return np.zeros(len(x) + 1)
            return self._sol.f(t, x, y)

    def trace(self, t, x, y):
        with self._call("trace", t):
            return self._bd.trace(t, x, y)

    def normal(self, t, x, y, nx, ny):
        with self._call("normal", t):
            return self._bd.normal(t, x, y, nx, ny)


def _logged_problem(log):
    m = sm.build_uniform_triangle_mesh(2)
    return dr.TransientProblem(m, fs.build_dofmap(m, 2), 5, log.f,
                               asm.BoundaryData(log.trace, log.normal))


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_data_sampled_once_per_level_in_order_on_one_worker(theta):
    sol = er.default_solution()
    log = _DataLog(sol)
    prob = _logged_problem(log)
    seen = []
    before = threading.enumerate()
    u, _ = prob.run(theta, 4, 1.0, sol.psi, sol.grad_psi,
                    observer=lambda n, t, w: seen.append((n, t, w.coeffs)))
    assert threading.enumerate() == before
    times = [0.25 * n for n in range(1, 5)]
    if theta < 0.75:
        times.insert(0, 0.125)  # the backward-Euler half level
    want = [("f", 0.0)] + [(name, t) for t in times
                           for name in ("f", "trace", "normal")]
    assert [(name, t) for name, t, _ in log.calls] == want
    threads = {ident for _, _, ident in log.calls}
    assert len(threads) == 1
    assert threading.main_thread().ident not in threads
    assert log.overlaps == 0
    # the samples are the ones the unpipelined order takes
    _, plain = _tri2_problem()
    want_states = []
    u_plain = _run_in_parent_order(plain, sol, theta, 4, 1.0,
                                   lambda n, t, w: want_states.append(w))
    assert np.array_equal(u.coeffs, u_plain)
    for (_, _, a), b in zip(seen, want_states, strict=True):
        assert np.array_equal(a, b)


def test_data_error_surfaces_from_run_at_its_level():
    # f returns a wrong shape at level 3 of 5: run raises the sampling
    # error, after the observer saw levels 1 and 2, and no thread is left
    sol = er.default_solution()
    tau = 1.0 / 5
    log = _DataLog(sol, fail_at=3 * tau)
    prob = _logged_problem(log)
    seen = []
    before = threading.enumerate()
    with pytest.raises(ValueError, match="load f returned shape"):
        prob.run(1.0, 5, 1.0, sol.psi, sol.grad_psi,
                 observer=lambda n, t, w: seen.append(n))
    assert seen == [1, 2]
    assert threading.enumerate() == before
    assert max(t for _, t, _ in log.calls) == 3 * tau


def test_raising_observer_leaves_no_thread():
    sol = er.default_solution()
    log = _DataLog(sol)
    prob = _logged_problem(log)
    before = threading.enumerate()

    def observer(n, t, w):
        if n == 2:
            raise KeyError("observer stops the run")

    with pytest.raises(KeyError, match="observer stops the run"):
        prob.run(1.0, 5, 1.0, sol.psi, sol.grad_psi, observer=observer)
    assert threading.enumerate() == before
    # at most the level after the last one reached was sampled
    assert max(t for _, t, _ in log.calls) <= 3 * (1.0 / 5)

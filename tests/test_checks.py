import numpy as np
import pytest

from sfwg import (assembly as asm, checks, driver as dr, errors as er,
                  fespace as fs, mesh as sm)


def _march(dm, A, M, theta, tau, steps, rng):
    """Theta-steps of the default solution's load from a random free start,
    with zero boundary data; yields (u_prev, u_next, F_prev, F_next)."""
    loads = asm.LoadAssembler(dm)
    f = er.default_solution().f
    stepper = dr.ThetaStepper(M, A, dm.free_dofs, theta, tau)
    u = checks.random_free_function(dm, rng).coeffs
    F_prev = loads.assemble(f, 0.0)
    for n in range(1, steps + 1):
        F_next = loads.assemble(f, n * tau)
        u_next = stepper.step(u, F_prev, F_next)
        yield u, u_next, F_prev, F_next
        u, F_prev = u_next, F_next


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_energy_identity_holds_to_round_off(theta):
    m = sm.build_uniform_triangle_mesh(4)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(dm, 5)
    M = asm.assemble_mass_v0(dm)
    gaps = [checks.energy_identity_gap(M, A, dm, theta, 0.05, *step)
            for step in _march(dm, A, M, theta, 0.05, 10,
                               np.random.default_rng(2024))]
    assert len(gaps) == 10 and max(gaps) <= 1e-9


def test_each_shared_check_reports_a_failure(monkeypatch):
    # the selftest and the tests trust these measures, so each must be able
    # to fail (exactness is covered by the selftest's vn sign-flip test)
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(dm, 5)
    M = asm.assemble_mass_v0(dm)
    negated = asm.SparseSym(-A.mat)
    assert checks.free_min_eig(negated, dm) < 0.0
    checked, violations = checks.dissipation_violations(
        M, negated, dm, (0.5, 1.0), (0.1,), 3, 10, np.random.default_rng(11))
    assert checked == 60 and violations > 0
    # a step of the scheme with A, checked against the identity with 2A
    step = next(_march(dm, A, M, 0.75, 0.05, 1, np.random.default_rng(3)))
    doubled = asm.SparseSym(2.0 * A.mat)
    assert checks.energy_identity_gap(M, doubled, dm, 0.75, 0.05,
                                      *step) > 1e-3
    u_prev, u_next, F_prev, F_next = step
    lifted = u_next.copy()
    lifted[dm.boundary_dofs[0]] = 1.0
    with pytest.raises(ValueError, match="zero boundary DOFs"):
        checks.energy_identity_gap(M, A, dm, 0.75, 0.05, u_prev, lifted,
                                   F_prev, F_next)
    # two Gauss points integrate s^4 as 2/9, not 2/5
    assert checks.moment_gap(fs.edge_quadrature(3), 4, 0, 2.0 / 5.0) > 1e-11
    # a triangle rule one degree short of the monomials it integrates
    exact_rule = fs.triangle_quadrature
    monkeypatch.setattr(fs, "triangle_quadrature",
                        lambda exactness: exact_rule(exactness - 1))
    coef = np.random.default_rng(7).standard_normal(
        len(fs.monomial_exponents(7)))
    assert checks.triangle_polynomial_gap(7, coef) > 1e-11


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("joff", [3, 4])
def test_schur_validate_sweep(build, k, joff):
    m = build(1)
    dm = fs.build_dofmap(m, k)
    rep = checks.schur_validate(dm, k + joff)
    assert rep.mass_spd
    assert rep.edge_spd
    assert rep.agreement_ok, rep.failure()
    assert rep.ok


def test_schur_validate_zero_rhs():
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    rep = checks.schur_validate(dm, 5, rhs=np.zeros(dm.trace_offset)[
        :len(dm.free_dofs[dm.free_dofs < dm.trace_offset])])
    assert rep.solve_gap == 0.0
    assert rep.ok


def test_schur_validate_random_rhs_quad():
    m = sm.build_quad_mesh(1)
    dm = fs.build_dofmap(m, 2)
    rng = np.random.default_rng(4)
    n_int = int((dm.free_dofs < dm.trace_offset).sum())
    rep = checks.schur_validate(dm, 5, rhs=rng.standard_normal(n_int))
    assert rep.ok
    # at n=1 every quad edge is on the boundary: the edge block is empty
    assert rep.n_edge == 0


def test_schur_edge_block_counts_triangle():
    m = sm.build_uniform_triangle_mesh(1)
    dm = fs.build_dofmap(m, 2)
    rep = checks.schur_validate(dm, 5)
    # one interior edge: k+1 trace DOFs and k normal DOFs are free
    assert rep.n_edge == (2 + 1) + 2
    assert rep.n_interior == 2 * fs.dim_pk(2)

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

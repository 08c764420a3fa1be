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
    F_prev = loads.assemble(loads.sample(f, 0.0))
    for n in range(1, steps + 1):
        F_next = loads.assemble(loads.sample(f, n * tau))
        u_next = stepper.step(u, F_prev, F_next, np.zeros_like(u))
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
    cert = checks.spectral_certificate(negated, M, dm)
    assert cert.mass_spd and not cert.edge_spd and not cert.ok
    assert cert.failure().startswith("edge stiffness block")
    # M lives on the interior DOFs only, so -M negates its interior block
    cert = checks.spectral_certificate(A, asm.SparseSym(-M.mat), dm)
    assert not cert.mass_spd and cert.edge_spd and not cert.ok
    assert cert.failure().startswith("interior mass block")
    # M has no edge rows, so the shift leaves both blocks SPD and moves
    # every eigenvalue of (S, M_00) down by 2 lam_min
    lam_min = checks.spectral_certificate(A, M, dm).lam_min
    cert = checks.spectral_certificate(
        asm.SparseSym(A.mat - 2.0 * lam_min * M.mat), M, dm)
    assert cert.mass_spd and cert.edge_spd and not cert.ok
    assert cert.lam_min == pytest.approx(-lam_min, rel=1e-9)
    assert cert.failure().startswith("smallest eigenvalue")
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


def _certificate(build, n, k, j):
    dm = fs.build_dofmap(build(n), k)
    return checks.spectral_certificate(asm.assemble_stiffness(dm, j),
                                       asm.assemble_mass_v0(dm), dm)


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@pytest.mark.parametrize("build", [sm.build_uniform_triangle_mesh,
                                   sm.build_quad_mesh])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("joff", [3, 4])
def test_schur_validate_sweep(build, k, joff):
    # the certificate that replaced the full-vs-Schur comparison: both
    # blocks SPD and the Schur pencil (S, M_00) positive definite
    cert = _certificate(build, 1, k, k + joff)
    assert cert.mass_spd
    assert cert.edge_spd
    assert cert.lam_min > 0.0, cert.failure()
    assert cert.ok


def test_certificate_lam_min_is_the_backward_euler_decay():
    # with f = 0 and zero boundary data the slowest mode of (S, M_00) is
    # multiplied by 1/(1 + tau lam_min) per backward-Euler step, so the
    # interior L2 norm of the real march decays at that rate
    dm = fs.build_dofmap(sm.build_uniform_triangle_mesh(2), 2)
    A, M = asm.assemble_stiffness(dm, 5), asm.assemble_mass_v0(dm)
    lam_min = checks.spectral_certificate(A, M, dm).lam_min
    tau = 1e-3
    stepper = dr.ThetaStepper(M, A, dm.free_dofs, 1.0, tau)
    zero = np.zeros(dm.total_dofs)
    u = checks.random_free_function(dm, np.random.default_rng(0)).coeffs
    for _ in range(40):
        u = u / np.sqrt(u @ (M.mat @ u))
        u = stepper.step(u, zero, zero, zero)
    rate = np.sqrt(u @ (M.mat @ u))
    assert rate == pytest.approx(1.0 / (1.0 + tau * lam_min), rel=1e-9)


def test_certificate_of_quad_with_empty_edge_block():
    cert = _certificate(sm.build_quad_mesh, 1, 2, 5)
    assert cert.ok, cert.failure()
    # at n=1 every quad edge is on the boundary: the edge block is empty
    assert cert.n_edge == 0 and cert.edge_spd
    assert cert.n_interior == fs.dim_pk(2)


def test_schur_edge_block_counts_triangle():
    cert = _certificate(sm.build_uniform_triangle_mesh, 1, 2, 5)
    assert cert.ok, cert.failure()
    # one interior edge: k+1 trace DOFs and k normal DOFs are free
    assert cert.n_edge == (2 + 1) + 2
    assert cert.n_interior == 2 * fs.dim_pk(2)


CLAMPED_PLATE_LAM1 = 1294.9339795917  # Bjorstad and Tjostheim (1999)


@pytest.mark.parametrize("build,n,k,j,bound", [
    (sm.build_quad_mesh, 8, 3, 6, 2e-3),
    (sm.build_uniform_triangle_mesh, 4, 3, 6, 2e-2),
], ids=["quad-n8-k3-j6", "tri-n4-k3-j6"])
def test_lam_min_approximates_the_clamped_plate_eigenvalue(build, n, k, j,
                                                          bound):
    # lam_min of (S, M_00) is the discrete first eigenvalue of lap^2 u =
    # lam u with u = du/dn = 0 on the unit square
    cert = _certificate(build, n, k, j)
    assert cert.ok, cert.failure()
    assert abs(cert.lam_min / CLAMPED_PLATE_LAM1 - 1.0) <= bound

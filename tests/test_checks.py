import numpy as np

from sfwg import assembly as asm, checks, fespace as fs, mesh as sm


def test_each_shared_check_reports_a_failure(monkeypatch):
    # the selftest and the tests trust these measures, so each must be able
    # to fail (exactness is covered by the selftest's vn sign-flip test)
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(m, dm, 2, 5)
    M = asm.assemble_mass_v0(m, dm, 2)
    negated = asm.SparseSym(-A.mat)
    assert checks.free_min_eig(negated, dm) < 0.0
    checked, violations = checks.dissipation_violations(
        M, negated, dm, (0.5, 1.0), (0.1,), 3, 10, np.random.default_rng(11))
    assert checked == 60 and violations > 0
    # two Gauss points integrate s^4 as 2/9, not 2/5
    assert checks.moment_gap(fs.edge_quadrature(3), 4, 0, 2.0 / 5.0) > 1e-11
    # a triangle rule one degree short of the monomials it integrates
    exact_rule = fs.triangle_quadrature
    monkeypatch.setattr(fs, "triangle_quadrature",
                        lambda exactness: exact_rule(exactness - 1))
    coef = np.random.default_rng(7).standard_normal(
        len(fs.monomial_exponents(7)))
    assert checks.triangle_polynomial_gap(7, coef) > 1e-11

"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Desk-scale versions of the published convergence tables
(rate windows and factor-of-3 error bands instead of the largest runs).
"""

import numpy as np
import pytest

from sfwg import assembly as asm, checks, driver as dr, errors as er, fespace as fs, mesh as sm, weakcalc as wc
from conftest import random_free_function

TABLE4 = {  # triangles, k=2, theta=1/2: (trb, 2h, l2) per n
    4: (1.0411e2, 1.4853e1, 2.6906e-1),
    8: (5.6458e1, 5.8690e0, 9.8158e-2),
    16: (2.8813e1, 1.9380e0, 2.7275e-2),
}


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _h_sweep(build, k, j, theta, steps, ns):
    sol = er.default_solution()
    rows = []
    for n in ns:
        m = build(n)
        dm = fs.build_dofmap(m, k)
        prob = dr.TransientProblem(m, dm, j, sol.f, sol.boundary_data())
        u, _ = prob.run(theta, steps, 1.0, sol.psi, sol.grad_psi)
        rows.append((n, er.evaluate_errors(u, sol, 1.0, m, dm, prob.A,
                                           prob.M)))
    rates = {key: er.compute_rates([(n, getattr(e, key)) for n, e in rows])
             for key in ("trb", "h2", "l2")}
    return rows, rates


def test_criterion_1_spatial_convergence_k2_triangles():
    rows, rates = _h_sweep(sm.build_uniform_triangle_mesh, 2, 5, 0.5, 100,
                           (4, 8, 16))
    trb_rate, h2_rate, l2_rate = (rates["trb"][-1], rates["h2"][-1],
                                  rates["l2"][-1])
    ok = (0.8 <= trb_rate <= 1.2 and 1.6 <= l2_rate <= 2.1
          and 1.2 <= h2_rate <= 1.9)
    factors = []
    for n, e in rows:
        for got, ref in zip((e.trb, e.h2, e.l2), TABLE4[n]):
            factors.append(max(got / ref, ref / got))
    ok = ok and max(factors) <= 3.0
    _report("criterion 1 (k=2 triangles, theta=1/2)", ok,
            f"rates trb={trb_rate:.2f} in [0.8,1.2], 2h={h2_rate:.2f} in "
            f"[1.2,1.9], l2={l2_rate:.2f} in [1.6,2.1]; worst error factor "
            f"vs reference {max(factors):.2f} <= 3")


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_criterion_2_spatial_convergence_k3_triangles():
    rows, rates = _h_sweep(sm.build_uniform_triangle_mesh, 3, 7, 0.5, 200,
                           (2, 4, 8))
    trb_rate, l2_rate = rates["trb"][-1], rates["l2"][-1]
    ok = 1.7 <= trb_rate <= 2.2 and 3.3 <= l2_rate <= 4.1
    _report("criterion 2 (k=3 triangles, theta=1/2)", ok,
            f"rates at n=8: trb={trb_rate:.2f} in [1.7,2.2], "
            f"l2={l2_rate:.2f} in [3.3,4.1]")


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_criterion_3_polygon_path_k3_quads():
    rows, rates = _h_sweep(sm.build_quad_mesh, 3, 9, 1.0, 200, (2, 4, 8))
    trb_rate, l2_rate = rates["trb"][-1], rates["l2"][-1]
    ok = 1.5 <= trb_rate <= 2.2 and 3.0 <= l2_rate <= 4.2
    _report("criterion 3 (k=3 quads, theta=1)", ok,
            f"rates at n=8: trb={trb_rate:.2f} in [1.5,2.2], "
            f"l2={l2_rate:.2f} in [3.0,4.2]")


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
def test_criterion_4_temporal_convergence():
    sol = er.default_solution()
    m = sm.build_uniform_triangle_mesh(8)
    dm = fs.build_dofmap(m, 3)
    prob = dr.TransientProblem(m, dm, 7, sol.f, sol.boundary_data())
    windows = {1.0: (0.8, 1.2), 0.5: (1.7, 2.3)}
    details = []
    ok = True
    for theta, (lo, hi) in windows.items():
        u_ref, _ = prob.run(theta, 1024, 1.0, sol.psi, sol.grad_psi)
        errs = []
        for P in (8, 16, 32, 64):
            u, _ = prob.run(theta, P, 1.0, sol.psi, sol.grad_psi)
            errs.append((P, er.l2_norm_v0(u - u_ref, prob.M)))
        rate = er.compute_rates(errs)[-1]
        details.append(f"theta={theta}: rate={rate:.2f} in [{lo},{hi}]")
        ok = ok and lo <= rate <= hi
    _report("criterion 4 (temporal rates vs reference run)", ok,
            "; ".join(details))


# (family, mesh builder, j - k): k + 3 on triangles and k + 6 on quads, and
# k + 3 on quads, the default of `driver.default_j` on every mesh of the
# square grid
CRITERION_MESHES = pytest.mark.parametrize("family,build,offset", [
    pytest.param("tri", sm.build_uniform_triangle_mesh, 3,
                  id="tri-build_uniform_triangle_mesh"),
    pytest.param("quad", sm.build_quad_mesh, 6, id="quad-build_quad_mesh"),
    pytest.param("quad", sm.build_quad_mesh, 3, id="quad-default_j"),
])


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@CRITERION_MESHES
@pytest.mark.parametrize("k", [2, 3])
def test_criterion_5_weak_laplacian_exactness(family, build, offset, k):
    j = k + offset
    worst = max(checks.exactness_gap(build(n), k, j) for n in (1, 2))
    ok = worst <= 1e-9
    _report(f"criterion 5 (exactness, {family}, k={k}, j={j})", ok,
            f"worst relative coefficient gap {worst:.2e} <= 1e-9 "
            "(L2-weighted coefficient norm)")


@pytest.mark.filterwarnings("ignore::sfwg.weakcalc.ConditioningWarning")
@CRITERION_MESHES
@pytest.mark.parametrize("k", [2, 3])
def test_criterion_6_wellposedness_blocks(family, build, offset, k):
    j = k + offset
    dm = fs.build_dofmap(build(1), k)
    cert = checks.spectral_certificate(asm.assemble_stiffness(dm, j),
                                       asm.assemble_mass_v0(dm), dm)
    edge = "empty" if cert.n_edge == 0 else f"SPD {cert.edge_spd}"
    _report(f"criterion 6 (block structure, {family}, k={k}, j={j})",
            cert.ok,
            f"mass block SPD {cert.mass_spd}, edge block {edge}, "
            f"lam_min of (S, M_00) {cert.lam_min:.4g} > 0")


def test_criterion_7_unconditional_dissipation():
    m = sm.build_uniform_triangle_mesh(2)
    dm = fs.build_dofmap(m, 2)
    A = asm.assemble_stiffness(dm, 5)
    M = asm.assemble_mass_v0(dm)
    checked, violations = checks.dissipation_violations(
        M, A, dm, (0.5, 0.75, 1.0), (1.0, 0.1, 0.01), 10, 20,
        np.random.default_rng(2024))
    lam_min = checks.spectral_certificate(A, M, dm).lam_min
    ok = violations == 0
    _report("criterion 7 (unconditional dissipation)", ok,
            f"{checked} steps over 10 starts x 3 thetas x 3 taus, "
            f"{violations} norm increases; lam_min of (S, M_00) "
            f"{lam_min:.4g} > 0 proves the bound these runs sample")


@pytest.mark.parametrize("seed", [808, 101])
def test_criterion_8_norm_inequality_suites(seed):
    Cs = []
    spreads = []
    for n in (2, 4, 8, 16):
        m = sm.build_uniform_triangle_mesh(n)
        dm = fs.build_dofmap(m, 2)
        A = asm.assemble_stiffness(dm, 5)
        M = asm.assemble_mass_v0(dm)
        rng = np.random.default_rng(seed)
        poincare = []
        ratios = []
        for _ in range(20):
            w = random_free_function(dm, rng)
            tb = er.triple_bar_norm(w, A)
            poincare.append(er.l2_norm_v0(w, M) / tb)
            ratios.append(tb / er.norm_2h(w))
        Cs.append(max(poincare))
        spreads.append((min(ratios), max(ratios)))
    ok_a = Cs[-1] <= 1.5 * Cs[0]
    union = (min(s[0] for s in spreads), max(s[1] for s in spreads))
    widest = max(s[1] / s[0] for s in spreads)
    ok_b = union[1] / union[0] <= 1.25 * widest
    _report(f"criterion 8 (norm inequality suites, seed {seed})",
            ok_a and ok_b,
            f"(a) C(n=16)={Cs[-1]:.3e} <= 1.5 x C(n=2)={Cs[0]:.3e}; "
            f"(b) ratio union width {union[1]/union[0]:.3f} <= "
            f"1.25 x widest level {widest:.3f}")


def test_criterion_9_stationary_biharmonic_rate():
    sol = er.default_solution()
    bd = sol.boundary_data()
    f0 = lambda x, y: sol.bilaplace_u(0.0, x, y)
    u0 = lambda x, y: sol.u(0.0, x, y)
    g0 = lambda x, y: sol.grad_u(0.0, x, y)
    levels = []
    for n in (4, 8, 16):
        m = sm.build_uniform_triangle_mesh(n)
        dm = fs.build_dofmap(m, 2)
        prob = dr.TransientProblem(m, dm, 5, lambda t, x, y: f0(x, y), bd)
        e = wc.interpolate(u0, g0, dm) - prob.stationary()
        levels.append((n, er.triple_bar_norm(e, prob.A)))
    rate = er.compute_rates(levels)[-1]
    ok = 0.8 <= rate <= 1.2
    _report("criterion 9 (stationary biharmonic, k=2)", ok,
            f"energy-norm rate at n=16: {rate:.2f} in [0.8,1.2]")

"""The paper's invariants as measures shared by `sfwg selftest` and the
tests: quadrature moments, weak-Laplacian exactness, SPD on the
zero-boundary subspace, theta-scheme dissipation, the discrete energy
identity and the dense block/Schur validation. Each returns what it
measured; the caller picks the sizes, seeds and bounds.

The block validation mirrors the well-posedness construction: with DOFs
grouped as (interior | edge trace | edge normal), the interior mass block
and the edge-edge stiffness block must both be positive definite, and a
solve through the Schur reduction onto the interior block must agree with
the full solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import assembly, driver, fespace, weakcalc

DENSE_DIM_CAP = 2000


def monomial_field(a, b):
    """Callables (u, grad_u, lap_u) for the stationary monomial u = x^a y^b."""

    def u(x, y):
        return x ** a * y ** b

    def grad(x, y):
        gx = a * x ** (a - 1) * y ** b if a else np.zeros_like(x)
        gy = b * x ** a * y ** (b - 1) if b else np.zeros_like(x)
        return gx, gy

    def lap(x, y):
        r = np.zeros_like(x)
        if a >= 2:
            r = r + a * (a - 1) * x ** (a - 2) * y ** b
        if b >= 2:
            r = r + b * (b - 1) * x ** a * y ** (b - 2)
        return r

    return u, grad, lap


def random_free_function(dofmap, rng):
    """Random coefficients on the free DOFs, zero on the boundary DOFs."""
    w = fespace.WeakFunction.zeros(dofmap)
    w.coeffs[dofmap.free_dofs] = rng.standard_normal(len(dofmap.free_dofs))
    return w


def _rule_integral(rule, a, b):
    pts = rule.points
    x, y = (pts, 1.0) if pts.ndim == 1 else (pts[:, 0], pts[:, 1])
    return float(rule.weights @ (x ** a * y ** b))


def _relative_gap(approx, exact):
    return abs(approx - exact) / max(1.0, abs(exact))


def moment_gap(rule, a, b, exact):
    """Relative gap between the rule's integral of x^a y^b and `exact`.

    On a rule with one-dimensional points (the reference edge rule) the
    integrand is s^a, and b must be 0.
    """
    return _relative_gap(_rule_integral(rule, a, b), exact)


def triangle_polynomial_gap(exactness, coef):
    """Relative gap of the reference triangle rule of the given exactness
    on sum_i coef_i x^a_i y^b_i, over the monomials of degree <= exactness
    in `monomial_exponents` order, against the exact moments."""
    rule = fespace.triangle_quadrature(exactness)
    exps = fespace.monomial_exponents(exactness)
    approx = sum(c * _rule_integral(rule, a, b)
                 for c, (a, b) in zip(coef, exps))
    exact = sum(c * float(fespace._triangle_moment(a, b))
                for c, (a, b) in zip(coef, exps))
    return _relative_gap(approx, exact)


def mass_gap(op, got, want):
    """||got - want|| / max(1, ||want||) in the cell's P_j mass norm."""
    d = got - want
    return np.sqrt(d @ op.mass @ d) / max(1.0, np.sqrt(want @ op.mass @ want))


def exactness_gap(mesh, k, j):
    """Worst relative gap, in the P_j mass norm, between the weak Laplacian
    of the interpolant of each P_k monomial and the P_j projection of its
    Laplacian, over all monomials and cells."""
    dm = fespace.build_dofmap(mesh, k)
    # through the module attribute, so a patched operator is what is checked
    ops = [weakcalc.local_weak_laplacian(dm, c, j)
           for c in range(mesh.num_cells)]
    worst = 0.0
    for (a, b) in fespace.monomial_exponents(k):
        u, gu, lap = monomial_field(a, b)
        w = weakcalc.interpolate(u, gu, dm)
        for op in ops:
            got = op.apply(w.coeffs[dm.cell_dofs(op.cell)])
            want = weakcalc.project_cell(lap, mesh, op.cell, j)
            worst = max(worst, mass_gap(op, got, want))
    return worst


def _min_eig(dense):
    return float(np.linalg.eigvalsh(dense).min())


def free_min_eig(A, dofmap):
    """Smallest eigenvalue of the free-DOF block of the SparseSym A."""
    free = dofmap.free_dofs
    return _min_eig(A.toarray()[np.ix_(free, free)])


def dissipation_violations(M, A, dofmap, thetas, taus, starts, steps, rng):
    """Count steps that grow the interior L2 norm in f = 0 theta-scheme runs.

    For every theta, then every tau, `starts` random free functions (drawn
    from `rng` in that order) are each advanced `steps` steps with zero
    load and zero boundary data. Returns (checked, violations).
    """
    zero = np.zeros(dofmap.total_dofs)
    checked = violations = 0
    for theta in thetas:
        for tau in taus:
            stepper = driver.ThetaStepper(M, A, dofmap.free_dofs, theta, tau)
            for _ in range(starts):
                u = random_free_function(dofmap, rng).coeffs
                prev = np.sqrt(u @ (M.mat @ u))
                for _step in range(steps):
                    u = stepper.step(u, zero, zero)
                    cur = np.sqrt(u @ (M.mat @ u))
                    checked += 1
                    if cur > prev * (1.0 + 1e-12):  # solve round-off
                        violations += 1
                    prev = cur
    return checked, violations


def energy_identity_gap(M, A, dofmap, theta, tau, u_prev, u_next, F_prev,
                        F_next):
    """Relative residual of the discrete energy identity of one theta-step
    u_prev -> u_next with homogeneous boundary data,

        1/2 (|u^n|^2 - |u^{n-1}|^2) + (theta - 1/2) |u^n - u^{n-1}|^2
            + tau |||u^theta|||^2 - tau (F^theta, u^theta) = 0,

    with |.| the interior L2 norm (M), |||.||| the energy norm (A) and
    u^theta, F^theta the theta-weighted averages of the states and of the
    load vectors. The residual is divided by the sum of the terms'
    magnitudes. Raises ValueError when a state has a nonzero boundary DOF.
    """
    bdry = dofmap.boundary_dofs
    if np.any(u_prev[bdry]) or np.any(u_next[bdry]):
        raise ValueError("the energy identity needs zero boundary DOFs")
    du = u_next - u_prev
    u_th = theta * u_next + (1.0 - theta) * u_prev
    F_th = theta * F_next + (1.0 - theta) * F_prev
    terms = np.array([0.5 * (u_next @ (M @ u_next)),
                      -0.5 * (u_prev @ (M @ u_prev)),
                      (theta - 0.5) * (du @ (M @ du)),
                      tau * (u_th @ (A @ u_th)),
                      -tau * (F_th @ u_th)])
    return abs(terms.sum()) / max(np.abs(terms).sum(), 1e-300)


class LinearSolveError(RuntimeError):
    """Singular system, dimension cap exceeded, or non-square input."""


def dense_solve(A, b, cap=DENSE_DIM_CAP):
    """Direct solve of a dense symmetric system with pivot-failure detection."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LinearSolveError("matrix must be square")
    if A.shape[0] > cap:
        raise LinearSolveError(
            f"dense dimension {A.shape[0]} exceeds the cap {cap}")
    if A.shape[0] == 0:
        return np.zeros_like(b)
    try:
        x = scipy.linalg.solve(A, b, assume_a="sym")
    except scipy.linalg.LinAlgError as exc:
        raise LinearSolveError(f"singular matrix: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("solver produced non-finite values")
    return x


@dataclass
class SchurReport:
    """Outcome of the dense block validation on a tiny mesh."""

    n_interior: int
    n_edge: int
    mass_min_eig: float
    edge_min_eig: float | None
    solve_gap: float
    tol: float

    @property
    def mass_spd(self):
        return self.mass_min_eig > 0.0

    @property
    def edge_spd(self):
        return self.edge_min_eig is None or self.edge_min_eig > 0.0

    @property
    def agreement_ok(self):
        return self.solve_gap <= self.tol

    @property
    def ok(self):
        return self.mass_spd and self.edge_spd and self.agreement_ok

    def failure(self):
        if not self.mass_spd:
            return f"interior mass block min eig {self.mass_min_eig:.3e} <= 0"
        if not self.edge_spd:
            return f"edge stiffness block min eig {self.edge_min_eig:.3e} <= 0"
        if not self.agreement_ok:
            return f"full vs Schur solve gap {self.solve_gap:.3e} > {self.tol:.1e}"
        return None


def schur_validate(dofmap, j, rhs=None, tol=1e-9):
    """Dense validation of the block structure on a tiny mesh.

    Checks that (i) the interior mass block is SPD, (ii) the edge block of
    the stiffness matrix restricted to free DOFs is SPD, and (iii) solving
    the stationary system directly agrees with the solve obtained by
    eliminating the edge unknowns through the Schur complement. Without
    `rhs` the interior right-hand side is standard normal, seeded with 0.
    """
    free = dofmap.free_dofs
    if len(free) > DENSE_DIM_CAP:
        raise LinearSolveError(
            f"{len(free)} free DOFs exceed the dense cap {DENSE_DIM_CAP}")
    A = assembly.assemble_stiffness(dofmap, j)
    M = assembly.assemble_mass_v0(dofmap)
    Ad = A.toarray()
    Md = M.toarray()

    i_int = free[free < dofmap.trace_offset]
    i_edge = free[free >= dofmap.trace_offset]
    mass_min = _min_eig(Md[np.ix_(i_int, i_int)])

    E = Ad[np.ix_(i_edge, i_edge)]
    edge_min = _min_eig(E) if len(i_edge) else None

    if rhs is None:
        rhs = np.random.default_rng(0).standard_normal(len(i_int))
    else:
        rhs = np.asarray(rhs, dtype=float)
        if len(rhs) != len(i_int):
            raise ValueError("rhs must have one entry per interior DOF")

    perm = np.concatenate([i_int, i_edge])
    Afull = Ad[np.ix_(perm, perm)]
    bfull = np.concatenate([rhs, np.zeros(len(i_edge))])
    z_full = dense_solve(Afull, bfull)

    A00 = Ad[np.ix_(i_int, i_int)]
    if len(i_edge):
        A0e = Ad[np.ix_(i_int, i_edge)]
        Ae0 = Ad[np.ix_(i_edge, i_int)]
        S = A00 - A0e @ dense_solve(E, Ae0)
        b_int = dense_solve(S, rhs)
        z_schur = np.concatenate([b_int, -dense_solve(E, Ae0 @ b_int)])
    else:
        z_schur = dense_solve(A00, rhs)

    scale = max(1.0, float(np.abs(z_full).max()))
    gap = float(np.abs(z_full - z_schur).max()) / scale
    return SchurReport(len(i_int), len(i_edge), mass_min, edge_min, gap, tol)

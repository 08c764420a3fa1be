"""The paper's invariants as measures shared by `sfwg selftest` and the
tests: quadrature moments, weak-Laplacian exactness, the spectral
certificate of the stiffness and mass matrices, theta-scheme dissipation
and the discrete energy identity. Each returns what it measured; the caller
picks the sizes, seeds and bounds.

The certificate mirrors the well-posedness construction: with the free DOFs
grouped as (interior | edge), the edge-edge stiffness block A_ee and the
interior mass block M_00 must be positive definite, and so must the Schur
complement S = A_00 - A_0e A_ee^-1 A_e0 on the interior DOFs. A_ff is SPD
exactly when A_ee and S are. With f = 0 and zero boundary data the edge
rows of a theta-step eliminate the edge DOFs, so the interior evolves under
the pencil (S, M_00) and each mode is multiplied per step by
r(tau lam) = (1 - (1 - theta) tau lam) / (1 + theta tau lam). |r| <= 1 for
every tau > 0 and theta in [1/2, 1] exactly when lam >= 0, so the smallest
eigenvalue of (S, M_00) being positive proves the unconditional
dissipation that `dissipation_violations` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import driver, fespace, weakcalc

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
    terms = np.array([0.5 * (u_next @ (M.mat @ u_next)),
                      -0.5 * (u_prev @ (M.mat @ u_prev)),
                      (theta - 0.5) * (du @ (M.mat @ du)),
                      tau * (u_th @ (A.mat @ u_th)),
                      -tau * (F_th @ u_th)])
    return abs(terms.sum()) / max(np.abs(terms).sum(), 1e-300)


@dataclass(frozen=True)
class SpectralCertificate:
    """Outcome of `spectral_certificate`: the sizes of the free interior and
    edge blocks, whether M_00 and A_ee are SPD (an empty A_ee is), and the
    smallest eigenvalue of (S, M_00), nan unless both blocks are SPD."""

    n_interior: int
    n_edge: int
    mass_spd: bool
    edge_spd: bool
    lam_min: float

    @property
    def ok(self):
        return self.mass_spd and self.edge_spd and self.lam_min > 0.0

    def failure(self):
        if not self.mass_spd:
            return "interior mass block M_00 is not positive definite"
        if not self.edge_spd:
            return "edge stiffness block A_ee is not positive definite"
        if not self.lam_min > 0.0:
            return f"smallest eigenvalue of (S, M_00) {self.lam_min:.3e} <= 0"
        return None


def _cholesky(dense):
    """The lower Cholesky factor, or None when `dense` is not SPD."""
    try:
        return scipy.linalg.cholesky(dense, lower=True)
    except np.linalg.LinAlgError:
        return None


def spectral_certificate(A, M, dofmap):
    """Dense spectral certificate of the stiffness A and the interior mass M
    (`SparseSym`s) on the free DOFs of `dofmap`; see the module docstring.

    Cholesky-factors A_ee (when there are free edge DOFs) and M_00, forms
    the Schur complement S and takes the smallest eigenvalue of
    `scipy.linalg.eigh(S, M_00)`. A block that is not SPD is reported, not
    raised. More than DENSE_DIM_CAP free DOFs raise a ValueError.
    """
    free = dofmap.free_dofs
    if len(free) > DENSE_DIM_CAP:
        raise ValueError(
            f"{len(free)} free DOFs exceed the dense cap {DENSE_DIM_CAP}")
    n0 = int((free < dofmap.trace_offset).sum())  # free DOFs are sorted
    n_edge = len(free) - n0
    Af = A.mat[free][:, free].toarray()
    M00 = M.mat[free[:n0]][:, free[:n0]].toarray()
    A00, A0e, Aee = Af[:n0, :n0], Af[:n0, n0:], Af[n0:, n0:]
    edge = _cholesky(Aee) if n_edge else None
    edge_spd = not n_edge or edge is not None
    mass_spd = _cholesky(M00) is not None
    lam_min = np.nan
    if edge_spd and mass_spd:
        # A is symmetric, so A_e0 = A_0e^T
        S = A00 - A0e @ scipy.linalg.cho_solve((edge, True), A0e.T) \
            if n_edge else A00
        lam_min = float(scipy.linalg.eigh(S, M00, eigvals_only=True,
                                          subset_by_index=[0, 0])[0])
    return SpectralCertificate(n0, n_edge, mass_spd, edge_spd, lam_min)

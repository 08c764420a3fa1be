"""Dense symmetric solve and the dense block/Schur validation of the
stiffness system.

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

from . import assembly
from .fespace import QuadratureConfig

DENSE_DIM_CAP = 2000


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


def schur_validate(mesh, dofmap, k, j, rhs=None, seed=0, tol=1e-9,
                   quad=QuadratureConfig(), cap=DENSE_DIM_CAP):
    """Dense validation of the block structure on a tiny mesh.

    Checks that (i) the interior mass block is SPD, (ii) the edge block of
    the stiffness matrix restricted to free DOFs is SPD, and (iii) solving
    the stationary system directly agrees with the solve obtained by
    eliminating the edge unknowns through the Schur complement.
    """
    free = dofmap.free_dofs
    if len(free) > cap:
        raise LinearSolveError(
            f"{len(free)} free DOFs exceed the dense cap {cap}")
    A = assembly.assemble_stiffness(mesh, dofmap, k, j, quad)
    M = assembly.assemble_mass_v0(mesh, dofmap, k, quad)
    Ad = A.toarray()
    Md = M.toarray()

    i_int = free[free < dofmap.trace_offset]
    i_edge = free[free >= dofmap.trace_offset]
    C = Md[np.ix_(i_int, i_int)]
    mass_min = float(np.linalg.eigvalsh(C).min())

    E = Ad[np.ix_(i_edge, i_edge)]
    edge_min = float(np.linalg.eigvalsh(E).min()) if len(i_edge) else None

    if rhs is None:
        rhs = np.random.default_rng(seed).standard_normal(len(i_int))
    else:
        rhs = np.asarray(rhs, dtype=float)
        if len(rhs) != len(i_int):
            raise ValueError("rhs must have one entry per interior DOF")

    perm = np.concatenate([i_int, i_edge])
    Afull = Ad[np.ix_(perm, perm)]
    bfull = np.concatenate([rhs, np.zeros(len(i_edge))])
    z_full = dense_solve(Afull, bfull, cap=cap)

    A00 = Ad[np.ix_(i_int, i_int)]
    if len(i_edge):
        A0e = Ad[np.ix_(i_int, i_edge)]
        Ae0 = Ad[np.ix_(i_edge, i_int)]
        S = A00 - A0e @ dense_solve(E, Ae0, cap=cap)
        b_int = dense_solve(S, rhs, cap=cap)
        z_schur = np.concatenate([b_int, -dense_solve(E, Ae0 @ b_int, cap=cap)])
    else:
        z_schur = dense_solve(A00, rhs, cap=cap)

    scale = max(1.0, float(np.abs(z_full).max()))
    gap = float(np.abs(z_full - z_schur).max()) / scale
    return SchurReport(len(i_int), len(i_edge), mass_min, edge_min, gap, tol)

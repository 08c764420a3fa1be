import numpy as np
import pytest
from scipy.linalg import hilbert, invhilbert

from sfwg import checks, fespace as fs, mesh as sm


def test_dense_identity_and_hilbert():
    assert np.allclose(checks.dense_solve(np.eye(4), np.arange(4.0)),
                       np.arange(4.0))
    H = hilbert(4)
    Hinv = invhilbert(4)
    for col in range(4):
        e = np.zeros(4)
        e[col] = 1.0
        assert np.abs(checks.dense_solve(H, e) - Hinv[:, col]).max() < 1e-8


def test_dense_random_spd_residual():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((50, 50))
    A = A @ A.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = checks.dense_solve(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11


def test_dense_solve_guards():
    with pytest.raises(checks.LinearSolveError, match="cap"):
        checks.dense_solve(np.eye(10), np.zeros(10), cap=5)
    singular = np.zeros((3, 3))
    with pytest.raises(checks.LinearSolveError):
        checks.dense_solve(singular, np.ones(3))


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

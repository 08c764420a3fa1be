import json

import numpy as np
import pytest

from sfwg import assembly, cli, driver, errors, fespace, mesh as sm, weakcalc
from test_polygon_cells import PENTA_CELLS, PENTA_VERTS


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def test_convergence_h_small_run(tmp_path):
    prefix = tmp_path / "h"
    code = cli.main(["convergence-h", "--k", "2", "--theta", "0.5",
                     "--n", "2,4", "--steps", "4", "--prefix", str(prefix)])
    assert code == 0
    csv = _read(f"{prefix}.csv").splitlines()
    assert csv[0] == "n_or_P,h_or_tau,trb_err,trb_rate,h2_err,h2_rate,l2_err,l2_rate"
    assert len(csv) == 3
    first = csv[1].split(",")
    assert first[0] == "2"
    assert first[3] == "" and first[5] == "" and first[7] == ""
    second = csv[2].split(",")
    assert second[3] != ""
    md = _read(f"{prefix}.md")
    assert "| n |" in md and "---" in md


def test_reports_are_deterministic(tmp_path):
    args = ["convergence-h", "--k", "2", "--n", "2", "--steps", "3"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(args + ["--prefix", str(a)]) == 0
    assert cli.main(args + ["--prefix", str(b)]) == 0
    assert _read(f"{a}.csv") == _read(f"{b}.csv")
    assert _read(f"{a}.md") == _read(f"{b}.md")


def test_dat_output(tmp_path):
    prefix = tmp_path / "d"
    code = cli.main(["convergence-h", "--n", "2", "--steps", "2",
                     "--dat", "--prefix", str(prefix)])
    assert code == 0
    dat = _read(f"{prefix}.dat")
    assert dat.count("#") == 3  # one block per norm


def test_invalid_theta_exits_2():
    assert cli.main(["convergence-h", "--theta", "0.3", "--n", "2"]) == 2


def test_invalid_k_exits_2(tmp_path, capsys):
    # the DOF map names k before the --prefix directory is made
    prefix = tmp_path / "new" / "x"
    for command in ("convergence-h", "convergence-tau"):
        assert cli.main([command, "--k", "1", "--n", "2",
                         "--prefix", str(prefix)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: k must be >= 2, got 1"]
    assert not prefix.parent.exists()


@pytest.mark.parametrize("args,names", [
    (["convergence-h", "--j-offset", "-1", "--n", "1"], "j=1"),
    (["convergence-h", "--n", "0"], "n must be"),
    (["convergence-h", "--n", "1", "--steps", "0"], "steps must be"),
    (["convergence-h", "--t-end", "0", "--n", "1"], "t_end"),
    (["convergence-h", "--mesh", "hex", "--n", "1"], "hex"),
    (["convergence-tau", "--n", "1", "--p-list", "0"], "steps must be"),
    # 0 must not fall back to measuring against the exact solution
    (["convergence-tau", "--n", "1", "--p-list", "2,4",
      "--reference-steps", "0"], "steps must be"),
    # the 2j cell rule caps j at 15
    (["convergence-h", "--k", "2", "--j-offset", "14", "--n", "1",
      "--steps", "2"], "j=16"),
    # NaN fails every comparison, so only a finiteness check stops these
    (["convergence-h", "--t-end", "nan", "--n", "1"], "t_end"),
    (["convergence-h", "--t-end", "inf", "--n", "1"], "t_end"),
    # a subnormal step: 1/tau, the scale of M/tau, overflows
    (["convergence-h", "--n", "1", "--steps", "2", "--t-end", "1e-320"],
     "tau"),
    # rates need increasing levels: rejected before the sweep runs
    (["convergence-h", "--n", "2,1", "--steps", "2"], "strictly increase"),
    (["convergence-tau", "--n", "1", "--p-list", "4,2"],
     "strictly increase"),
    # the tau sweep names the first step count it would run, not one
    (["convergence-tau", "--n", "1", "--t-end", "1e-320"], "1e-320/8")])
def test_out_of_range_argument_exits_2(tmp_path, capsys, args, names):
    assert cli.main(args + ["--prefix", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and names in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["convergence-h", "--n", "4,,8", "--steps", "1"],
    ["convergence-tau", "--n", "1", "--p-list", "8,,16"]])
def test_empty_list_entry_exits_2(tmp_path, capsys, args):
    # an empty entry is an argparse error, not a skipped level
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "bad integer list" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_tiny_finite_step_runs(tmp_path):
    # 1/tau is finite at 1e-307; the increment-form right-hand side holds
    # no u/tau, so the step runs and reports finite norms
    prefix = tmp_path / "x"
    assert cli.main(["convergence-h", "--n", "1", "--steps", "1",
                     "--t-end", "1e-307", "--prefix", str(prefix)]) == 0
    row = _read(f"{prefix}.csv").splitlines()[1].split(",")
    norms = [float(row[i]) for i in (2, 4, 6)]
    assert np.all(np.isfinite(norms))


def test_ill_conditioned_projection_basis_exits_2(tmp_path, capsys):
    # j = 15 is allowed, but the scaled-monomial P_15 mass matrix of a
    # k = 2 triangle is not numerically positive definite
    assert cli.main(["convergence-h", "--k", "2", "--j-offset", "13",
                     "--n", "1", "--steps", "2",
                     "--prefix", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    for part in ("(cell 0, degree 15)", "leading minor 129",
                 "ill-conditioned", "--j-offset"):
        assert part in err[0]


def test_file_mesh_run(tmp_path):
    path = tmp_path / "m.msh"
    sm.write_mesh_file(sm.build_quad_mesh(2), path)
    prefix = tmp_path / "f"
    code = cli.main(["convergence-h", "--mesh", f"file:{path}",
                     "--n", "2", "--steps", "2", "--prefix", str(prefix)])
    assert code == 0
    rows = _read(f"{prefix}.csv").splitlines()
    assert len(rows) == 2  # single mesh, single row
    assert rows[1].split(",")[0] == "4"  # reported as the cell count


def test_non_ascii_mesh_path_in_report_title(tmp_path):
    path = tmp_path / "m\u00e9sh.msh"
    sm.write_mesh_file(sm.build_quad_mesh(2), path)
    prefix = tmp_path / "f"
    code = cli.main(["convergence-h", "--mesh", f"file:{path}",
                     "--n", "2", "--steps", "2", "--prefix", str(prefix)])
    assert code == 0
    with open(f"{prefix}.md", "r", encoding="utf-8") as fh:
        title = fh.readline()
    assert title.rstrip("\n").endswith(f"mesh=file:{path}")


@pytest.mark.parametrize("command,sizes", [
    ("convergence-h", ["--n", "1", "--steps", "2"]),
    ("convergence-tau", ["--n", "1", "--p-list", "2"])])
def test_missing_mesh_file_exits_2(tmp_path, capsys, command, sizes):
    prefix = tmp_path / "missing"
    code = cli.main([command, "--mesh", f"file:{tmp_path / 'no.msh'}",
                     *sizes, "--prefix", str(prefix)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no.msh" in err


@pytest.mark.parametrize("command,sizes", [
    ("convergence-h", ["--n", "1", "--steps", "2"]),
    ("convergence-tau", ["--n", "1", "--p-list", "2,4"])])
def test_file_mesh_is_read_once(tmp_path, monkeypatch, command, sizes):
    # the default j and every run take the mesh of one read
    path = tmp_path / "q4.msh"
    sm.write_mesh_file(sm.build_quad_mesh(4), path)
    reads = []
    read = sm.read_mesh_file
    monkeypatch.setattr(sm, "read_mesh_file",
                        lambda p: reads.append(p) or read(p))
    assert cli.main([command, "--mesh", f"file:{path}", *sizes,
                     "--prefix", str(tmp_path / "q4")]) == 0
    assert reads == [str(path)]


def test_built_and_read_mesh_give_one_report(tmp_path):
    # the default j follows the mesh, not how it was named: the same quads
    # built by --mesh quad and read from a file give the same h and errors
    path = tmp_path / "q4.msh"
    sm.write_mesh_file(sm.build_quad_mesh(4), path)
    columns = []
    for spec, name in (("quad", "q4b"), (f"file:{path}", "q4")):
        prefix = tmp_path / name
        assert cli.main(["convergence-h", "--mesh", spec, "--n", "4",
                         "--steps", "2", "--prefix", str(prefix)]) == 0
        columns.append([line.split(",")[1:] for line in
                        _read(f"{prefix}.csv").splitlines()])
    assert columns[0] == columns[1]
    assert " j=5 " in _read(tmp_path / "q4b.md").splitlines()[0]


def test_file_mesh_default_j_follows_cells(tmp_path):
    # the pentagon needs j >= k + 4; the default gives k + max(3, N - 1)
    path = tmp_path / "penta.msh"
    sm.write_mesh_file(sm.Mesh(PENTA_VERTS, PENTA_CELLS), path)
    prefix = tmp_path / "pf"
    code = cli.main(["convergence-h", "--mesh", f"file:{path}", "--n", "1",
                     "--steps", "2", "--prefix", str(prefix)])
    assert code == 0
    assert " k=2 j=6 " in _read(f"{prefix}.md").splitlines()[0]


def test_convergence_tau_with_reference(tmp_path):
    prefix = tmp_path / "t"
    code = cli.main(["convergence-tau", "--k", "2", "--theta", "1.0",
                     "--n", "2", "--p-list", "2,4", "--reference-steps", "16",
                     "--prefix", str(prefix)])
    assert code == 0
    rows = _read(f"{prefix}.csv").splitlines()
    assert len(rows) == 3
    p, tau = rows[1].split(",")[0], float(rows[1].split(",")[1])
    assert p == "2" and tau == pytest.approx(0.5)


def test_single_p_has_no_rates(tmp_path):
    prefix = tmp_path / "one"
    code = cli.main(["convergence-tau", "--n", "2", "--p-list", "4",
                     "--prefix", str(prefix)])
    assert code == 0
    rows = _read(f"{prefix}.csv").splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[3] == ""


@pytest.mark.parametrize("command,sizes", [
    ("convergence-h", ["--n", "2", "--steps", "2"]),
    ("convergence-tau", ["--n", "2", "--p-list", "2"]),
    ("convergence-h", ["--n", "2,4", "--steps", "2"])])
def test_dump_matrix_flag(tmp_path, command, sizes):
    from scipy.io import mmread

    prefix = tmp_path / "dm"
    code = cli.main([command, *sizes, "--dump-matrix",
                     "--prefix", str(prefix)])
    assert code == 0
    # one matrix per level of the sweep, named after its n
    ns = [int(n) for n in sizes[1].split(",")]
    assert sorted(p.name for p in tmp_path.glob("dm_*")) == [
        f"dm_stiffness_{n}.mtx" for n in ns]
    for n in ns:
        dm = fespace.build_dofmap(sm.build_uniform_triangle_mesh(n), 2)
        assert mmread(f"{prefix}_stiffness_{n}.mtx").shape == (
            dm.total_dofs, dm.total_dofs)
    # a file mesh ignores --n: its file is named after its cell count, as
    # its report rows are
    path = tmp_path / "q4.msh"
    sm.write_mesh_file(sm.build_quad_mesh(4), path)
    prefix = tmp_path / "fm"
    assert cli.main([command, "--mesh", f"file:{path}", *sizes,
                     "--dump-matrix", "--prefix", str(prefix)]) == 0
    assert sorted(p.name for p in tmp_path.glob("fm_*")) == [
        "fm_stiffness_16.mtx"]
    dm = fespace.build_dofmap(sm.build_quad_mesh(4), 2)
    assert mmread(path.with_name("fm_stiffness_16.mtx")).shape == (
        dm.total_dofs, dm.total_dofs)


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    # SuperLU reports a singular matrix as a RuntimeError
    def singular(_matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(driver, "splu", singular)
    prefix = tmp_path / "sf"
    code = cli.main(["convergence-h", "--n", "2", "--steps", "2",
                     "--prefix", str(prefix)])
    assert code == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "singular" in err


@pytest.mark.parametrize("family,offset,code", [
    ("tri", "1", 2), ("quad", "2", 2), ("tri", "2", 0)])
def test_j_offset_coercivity_threshold(tmp_path, capsys, family, offset,
                                       code):
    # j must be at least k + N - 1: offset 2 on triangles, 3 on quads
    prefix = tmp_path / "j"
    assert cli.main(["convergence-h", "--mesh", family, "--j-offset", offset,
                     "--n", "2", "--steps", "2",
                     "--prefix", str(prefix)]) == code
    assert ("error:" in capsys.readouterr().err) == (code == 2)


def test_selftest_passes(capsys):
    code, results = cli.run_selftest()
    assert code == 0
    assert all(r["ok"] for r in results.values())
    names = set(results)
    assert names == {"quadrature-moments", "weak-laplacian-exactness",
                     "spectrum", "dissipation"}


def test_selftest_json_schema(capsys):
    code = cli.main(["selftest", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    for rec in payload["properties"].values():
        assert set(rec) == {"ok", "seconds", "detail"}
    env = payload["environment"]
    assert set(env) == {"python", "numpy", "scipy", "numpy_blas",
                        "scipy_blas"}
    for lib in ("numpy_blas", "scipy_blas"):
        assert set(env[lib]) == {"name", "version"}
        assert all(isinstance(v, str) and v for v in env[lib].values())


def test_selftest_detects_vn_sign_flip(monkeypatch):
    # mutation check: negating the normal-derivative term must break the
    # polynomial exactness property by O(1)
    orig = weakcalc.local_weak_laplacian

    def flipped(dofmap, cell, j):
        op = orig(dofmap, cell, j)
        k = dofmap.k
        nedges = len(dofmap.mesh.cells[cell])
        start = fespace.dim_pk(k) + nedges * (k + 1)
        op.moments[:, start:] *= -1.0
        return op

    monkeypatch.setattr(weakcalc, "local_weak_laplacian", flipped)
    code, results = cli.run_selftest()
    assert code == 1
    exactness = results["weak-laplacian-exactness"]
    assert not exactness["ok"]
    # the property measured the flip, and did not fail by raising
    assert exactness["detail"].startswith("worst relative gap ")


def test_prefix_directory_is_created(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["convergence-h", "--n", "2", "--steps", "2",
                     "--prefix", "out/deeper/h"]) == 0
    assert (tmp_path / "out" / "deeper" / "h.csv").is_file()


def test_prefix_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    prefix = blocker / "h"
    assert cli.main(["convergence-h", "--n", "2", "--steps", "2",
                     "--prefix", str(prefix)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "--prefix" in err[0]


def test_file_mesh_tau_sweep(tmp_path):
    path = tmp_path / "m.msh"
    sm.write_mesh_file(sm.build_quad_mesh(2), path)
    prefix = tmp_path / "ft"
    code = cli.main(["convergence-tau", "--mesh", f"file:{path}",
                     "--n", "1", "--p-list", "2,4", "--prefix", str(prefix)])
    assert code == 0
    assert len(_read(f"{prefix}.csv").splitlines()) == 3


def test_tau_sweep_builds_one_problem(tmp_path, monkeypatch):
    # the sweep reuses one problem for every step count and the reference
    # run, and its rows equal those of a fresh problem per run
    calls, reports = [], []
    stiffness = assembly.assemble_stiffness

    def counted(*args):
        calls.append(args)
        return stiffness(*args)

    monkeypatch.setattr(assembly, "assemble_stiffness", counted)
    monkeypatch.setattr(cli, "_emit",
                        lambda report, *rest: reports.append(report))
    assert cli.main(["convergence-tau", "--n", "2", "--p-list", "2,4",
                     "--reference-steps", "8",
                     "--prefix", str(tmp_path / "t")]) == 0
    assert len(calls) == 1

    grid = sm.build_uniform_triangle_mesh(2)
    sol = errors.default_solution()

    def fresh_run(steps):
        prob = driver.TransientProblem(grid, fespace.build_dofmap(grid, 2),
                                       5, sol.f, sol.boundary_data())
        u, _ = prob.run(1.0, steps, 1.0, sol.psi, sol.grad_psi)
        return prob, u

    _, ref = fresh_run(8)
    rows = []
    for P in (2, 4):
        prob, u = fresh_run(P)
        e = errors.error_norms(
            fespace.WeakFunction(prob.dofmap, ref.coeffs - u.coeffs),
            prob.A, prob.M)
        rows.append((P, 1.0 / P, e))
    assert reports[0].rows == rows


def test_h_sweep_rows_match_fresh_runs(tmp_path, monkeypatch):
    # one problem per mesh, and each row equals a fresh run's errors
    calls, reports = [], []
    stiffness = assembly.assemble_stiffness

    def counted(*args):
        calls.append(args)
        return stiffness(*args)

    monkeypatch.setattr(assembly, "assemble_stiffness", counted)
    monkeypatch.setattr(cli, "_emit",
                        lambda report, *rest: reports.append(report))
    assert cli.main(["convergence-h", "--n", "2,4", "--steps", "3",
                     "--prefix", str(tmp_path / "h")]) == 0
    assert len(calls) == 2

    sol = errors.default_solution()
    rows = []
    for n in (2, 4):
        grid = sm.build_uniform_triangle_mesh(n)
        dm = fespace.build_dofmap(grid, 2)
        prob = driver.TransientProblem(grid, dm, 5, sol.f,
                                       sol.boundary_data())
        u, _ = prob.run(1.0, 3, 1.0, sol.psi, sol.grad_psi)
        e = errors.evaluate_errors(u, sol, 1.0, grid, dm, prob.A, prob.M)
        rows.append((n, grid.h, e))
    assert reports[0].rows == rows

"""Command-line front end: convergence sweeps in mesh size and time step,
table/CSV/plot-data emission, and the bundled property self-test.

Both sweeps run in one process through one loop: the mesh sweep builds one
problem per mesh, and the time-step sweep builds one problem and runs every
step count on it. Rows are emitted in input order, so reports are
deterministic for a fixed configuration.

`--mesh file:PATH` is read once and reported at its cell count; a built or
read mesh takes its default j from its cells alone (`driver.default_j`).
Each level is an (index, DofMap, j) triple: the DOF map is the space of
degree `--k` on the level's mesh, and j is k + `--j-offset` or the default.
`main` checks every argument first: the meshes, theta, t_end and the step
counts, k and j on each mesh, and the order of the levels. Only then does
it make the `--prefix` directory and write the reports, once with no rows
before the first run and again after each row `_sweep` yields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import scipy

from . import assembly, checks, driver, errors, fespace, mesh, weakcalc

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def _emit(rows, prefix, axis, title, dat):
    """Write the (index, spacing, ErrorTriple) rows to <prefix>.csv and
    <prefix>.md and, with `dat`, <prefix>.dat, in one pass; each norm's
    observed rates are taken once. `axis` ("n" or "P") heads the table's
    index column; with no rows each file holds its headers alone."""
    keys = ("trb", "h2", "l2")
    rates = [errors.compute_rates([(index, getattr(errs, key))
                                   for index, _, errs in rows])
             for key in keys]
    csv = ["n_or_P,h_or_tau,trb_err,trb_rate,h2_err,h2_rate,l2_err,l2_rate"]
    md = [f"# {title}", "",
          f"| {axis} | energy err | rate | 2,h err | rate | L2 err | rate |",
          "|---|---|---|---|---|---|---|"]
    for (index, spacing, errs), row_rates in zip(rows, zip(*rates)):
        csv_cells, md_cells = [f"{index}", f"{spacing:.12e}"], [f"| {index}"]
        for key, rate in zip(keys, row_rates):
            e = getattr(errs, key)
            csv_cells += [f"{e:.12e}", "" if rate is None else f"{rate:.6f}"]
            md_cells += [f"{e:.4E}", "---" if rate is None else f"{rate:.2f}"]
        csv.append(",".join(csv_cells))
        md.append(" | ".join(md_cells) + " |")
    files = {".csv": csv, ".md": md}
    if dat:
        files[".dat"] = []
        for key in keys:
            files[".dat"] += [f"# {key}"] + [
                f"{spacing:.12e} {getattr(errs, key):.12e}"
                for _, spacing, errs in rows] + [""]
    for ext, lines in files.items():
        with open(f"{prefix}{ext}", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _sweep(levels, theta, t_end, step_counts, reference_steps, dump_prefix):
    """Build one problem per (index, dofmap, j) in `levels` and yield
    (index, dofmap, P, errors) for a theta-run to t_end with each step
    count P in `step_counts`, level by level.

    Errors are measured against the interpolated exact solution at t_end
    or, given `reference_steps`, against the final state of a run with that
    many steps. With `dump_prefix` each level's stiffness matrix is written
    to <dump_prefix>_stiffness_<index>.mtx.
    """
    sol = errors.default_solution()
    for index, dofmap, j in levels:
        problem = driver.TransientProblem(dofmap.mesh, dofmap, j, sol.f,
                                          sol.boundary_data())
        if dump_prefix is not None:
            assembly.dump_matrix_market(
                problem.A, f"{dump_prefix}_stiffness_{index}.mtx")
        if reference_steps is None:
            target = weakcalc.interpolate(
                lambda x, y: sol.u(t_end, x, y),
                lambda x, y: sol.grad_u(t_end, x, y), dofmap)
        else:
            target, _ = problem.run(theta, reference_steps, t_end, sol.psi,
                                    sol.grad_psi)
        for P in step_counts:
            u, _ = problem.run(theta, P, t_end, sol.psi, sol.grad_psi)
            yield index, dofmap, P, errors.error_norms(target - u, problem.A,
                                                       problem.M)
        # free this level's operators before the next level builds its own
        del problem, target


# ---------------------------------------------------------------------------
# self-test properties
# ---------------------------------------------------------------------------


def _prop_quadrature_moments():
    rng = np.random.default_rng(7)
    for exactness in (2, 7, 13, 19):
        coef = rng.standard_normal(len(fespace.monomial_exponents(exactness)))
        if checks.triangle_polynomial_gap(exactness, coef) > 1e-11:
            return False, f"triangle moments off at exactness {exactness}"
    square = mesh.build_quad_mesh(1)
    for exactness in (4, 11):
        rule = fespace.cell_quadrature(square, 0, exactness)
        for (a, b) in fespace.monomial_exponents(exactness):
            exact = 1.0 / ((a + 1) * (b + 1))
            if checks.moment_gap(rule, a, b, exact) > 1e-11:
                return False, f"square moments off: x^{a} y^{b}"
    for exactness in (5, 12):
        rule = fespace.edge_quadrature(exactness)
        for mdeg in range(exactness + 1):
            exact = 2.0 / (mdeg + 1) if mdeg % 2 == 0 else 0.0
            if checks.moment_gap(rule, mdeg, 0, exact) > 1e-11:
                return False, f"edge moments off: s^{mdeg}"
    return True, "triangle, quad-cell and edge rules match analytic moments"


def _prop_weak_laplacian_exactness():
    for build in (mesh.build_uniform_triangle_mesh, mesh.build_quad_mesh):
        grid = build(1)
        gap = checks.exactness_gap(grid, 2, 5)
        if gap > 1e-9:
            return False, (f"worst relative gap {gap:.2e} on "
                           f"{build.__name__}(1)")
    return True, "weak Laplacian of P_k interpolants matches projected Laplacian"


def _prop_spectrum():
    for build in (mesh.build_uniform_triangle_mesh, mesh.build_quad_mesh):
        dm = fespace.build_dofmap(build(1), 2)
        cert = checks.spectral_certificate(assembly.assemble_stiffness(dm, 5),
                                           assembly.assemble_mass_v0(dm), dm)
        if not cert.ok:
            return False, f"{build.__name__}(1): {cert.failure()}"
    return True, ("mass and edge blocks SPD, smallest eigenvalue of "
                  "(S, M_00) > 0")


def _prop_dissipation():
    grid = mesh.build_uniform_triangle_mesh(2)
    dm = fespace.build_dofmap(grid, 2)
    A = assembly.assemble_stiffness(dm, 5)
    M = assembly.assemble_mass_v0(dm)
    checked, grew = checks.dissipation_violations(
        M, A, dm, (0.5, 1.0), (0.1,), 3, 10, np.random.default_rng(11))
    if grew:
        return False, f"norm grew in {grew} of {checked} steps"
    return True, "interior L2 norm non-increasing for f=0 runs"


SELFTEST_PROPERTIES = (
    ("quadrature-moments", _prop_quadrature_moments),
    ("weak-laplacian-exactness", _prop_weak_laplacian_exactness),
    ("spectrum", _prop_spectrum),
    ("dissipation", _prop_dissipation),
)


def _environment():
    """Python, numpy and scipy versions and the BLAS each library bundles;
    exact counts and round-off depend on these builds."""
    def blas(lib):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info["name"], "version": info["version"]}

    return {"python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy)}


def run_selftest(json_mode=False):
    """Run the bundled invariant suite at tiny sizes; exit 0 iff all pass."""
    results = {}
    all_ok = True
    for name, fn in SELFTEST_PROPERTIES:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing property is a failing property
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        results[name] = {"ok": bool(ok), "seconds": round(seconds, 3),
                         "detail": detail}
        all_ok = all_ok and ok
    if json_mode:
        print(json.dumps({"passed": all_ok, "properties": results,
                          "environment": _environment()}))
    else:
        for name, res in results.items():
            status = "ok  " if res["ok"] else "FAIL"
            print(f"{status} {name} ({res['seconds']:.2f}s): {res['detail']}")
    return (EXIT_OK if all_ok else EXIT_SELFTEST_FAIL), results


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common(p):
    p.add_argument("--k", type=int, default=2, help="polynomial degree (>= 2)")
    p.add_argument("--j-offset", type=int, default=None,
                   help="j = k + offset (default max(3, N-1) on a mesh "
                        "whose cells have at most N edges: 3 on triangles "
                        "and quads)")
    p.add_argument("--theta", type=float, default=1.0,
                   help="time-scheme parameter in [1/2, 1]")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--mesh", default="tri",
                   help="tri, quad, or file:PATH")
    p.add_argument("--dat", action="store_true",
                   help="also write gnuplot-friendly <prefix>.dat")
    p.add_argument("--dump-matrix", action="store_true",
                   help="dump stiffness matrices in Matrix Market format")


def build_parser():
    p = argparse.ArgumentParser(
        prog="sfwg",
        description="Stabilizer-free weak Galerkin solver for the clamped "
                    "fourth-order parabolic problem on the unit square.")
    sub = p.add_subparsers(dest="command", required=True)

    h = sub.add_parser("convergence-h",
                       help="mesh refinement sweep at fixed step count")
    _add_common(h)
    h.add_argument("--n", type=_int_list, default=[4, 8, 16],
                   help="comma-separated refinement levels")
    h.add_argument("--steps", type=int, default=100, help="time steps P")
    h.add_argument("--prefix", default="sfwg_h")

    t = sub.add_parser("convergence-tau",
                       help="time-step sweep on a fixed mesh")
    _add_common(t)
    t.add_argument("--n", type=int, default=8, help="fixed refinement level")
    t.add_argument("--p-list", type=_int_list, default=[8, 16, 32, 64])
    t.add_argument("--reference-steps", type=int, default=None,
                   help="measure against a reference run with this many "
                        "steps (>= 1)")
    t.add_argument("--prefix", default="sfwg_tau")

    s = sub.add_parser("selftest", help="run the bundled property suite")
    s.add_argument("--json", action="store_true",
                   help="machine-readable summary")
    return p


_BUILDERS = {"tri": mesh.build_uniform_triangle_mesh,
             "quad": mesh.build_quad_mesh}


def _meshes(spec, sizes):
    """(index, mesh) per level of `--mesh spec`: for "tri" and "quad" one
    built mesh per n in `sizes`, indexed by n; for "file:PATH" the one mesh
    read from PATH, indexed by its cell count."""
    if spec.startswith("file:"):
        grid = mesh.read_mesh_file(spec[5:])
        return [(grid.num_cells, grid)]
    if spec not in _BUILDERS:
        raise ValueError(f"unknown mesh {spec!r}: expected tri, quad or "
                         f"file:PATH")
    return [(n, _BUILDERS[spec](n)) for n in sizes]


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
        code, _ = run_selftest(json_mode=args.json)
        return code

    sweep_h = args.command == "convergence-h"
    step_counts, reference_steps = (
        ([args.steps], None) if sweep_h
        else (args.p_list, args.reference_steps))
    try:
        meshes = _meshes(args.mesh, args.n if sweep_h else [args.n])
        # every run's schedule is checked before any problem is built
        for steps in step_counts + (
                [] if reference_steps is None else [reference_steps]):
            driver._check_run(args.theta, steps, args.t_end)
        # the DOF maps check k, and `check_j` checks j against each mesh
        levels = []
        for index, grid in meshes:
            dm = fespace.build_dofmap(grid, args.k)
            j = (driver.default_j(dm.k, grid) if args.j_offset is None
                 else dm.k + args.j_offset)
            levels.append((index, dm, assembly.check_j(dm, j)))
        errors.check_increasing([index for index, _, _ in levels] if sweep_h
                                else step_counts)
        try:
            os.makedirs(os.path.dirname(args.prefix) or os.curdir,
                        exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create the directory of --prefix "
                             f"{args.prefix!r}: {exc}") from exc
        index, dm, j = levels[0]
        title = (f"mesh refinement: k={dm.k} j={j} theta={args.theta} "
                 f"P={args.steps} mesh={args.mesh}" if sweep_h else
                 f"time refinement: k={dm.k} j={j} theta={args.theta} "
                 f"n={index} mesh={args.mesh}")
        axis = "n" if sweep_h else "P"
        # written before the first run, so a report path that cannot be
        # written stops the sweep before any work, and after each row, so
        # a later failure keeps the rows finished
        rows = []
        _emit(rows, args.prefix, axis, title, args.dat)
        for index, dm, P, errs in _sweep(
                levels, args.theta, args.t_end, step_counts, reference_steps,
                args.prefix if args.dump_matrix else None):
            rows.append((index, dm.mesh.h, errs) if sweep_h
                        else (P, args.t_end / P, errs))
            _emit(rows, args.prefix, axis, title, args.dat)
    except driver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    # an OSError is a report or matrix path that cannot be written
    except (mesh.MeshError, weakcalc.LocalSolveError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.prefix}.csv and {args.prefix}.md")
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

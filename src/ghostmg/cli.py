"""Command-line front end: run sweeps, list domains, verify invariants.

``ghostmg run <config>`` expands the sweep described by a flat key = value
config file and writes the result CSV; a config whose ``experiment`` id is
``accuracy`` runs the manufactured-solution accuracy study instead.
``ghostmg catalog`` lists the benchmark domains.  ``ghostmg verify`` runs a
quick structural self-check (transfer transposes, operator symmetry,
positive definiteness, trace constants, cycle linearity) and prints a
PASS/FAIL table.

Exit codes: 0 success, 1 any parameter point or check failed, 2 bad config
(reported before any work is done).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg

from ghostmg import multigrid as mg
from ghostmg import stabilization as stab
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.experiments import (ConfigError, catalog_levelset, load_config,
                                 emit_results, run_accuracy_study,
                                 run_experiment)
from ghostmg.geometry import domain_catalog, domain_names
from ghostmg.linalg import NotSPDError
from ghostmg.one_dim import assemble_1d


def _cmd_run(config_path: str) -> int:
    try:
        config = load_config(config_path)
        output = Path(config.output)
        if not output.parent.is_dir():
            raise ConfigError(f"output directory of {config.output!r} does "
                              "not exist")
        if output.is_dir():
            raise ConfigError(f"output {config.output!r} is a directory")
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if config.experiment == "accuracy":
        try:
            rows = run_accuracy_study(config)
        except Exception as err:  # noqa: BLE001 - reported like a sweep point
            print(f"accuracy study failed: {type(err).__name__}: {err}",
                  file=sys.stderr)
            return 1
        path = emit_results(rows, config.output)
        for row in rows:
            ratio = "" if row.linf_ratio is None \
                else f"  ratio={row.linf_ratio:.3f}"
            print(f"n={row.n:5d}  h={row.h:.6g}  linf={row.linf_error:.4e}"
                  f"{ratio}")
        print(f"wrote {len(rows)} rows to {path}")
        return 0
    rows = run_experiment(config)
    path = emit_results(rows, config.output)
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        point = (f"n={row.n}"
                 + (f" theta1={row.theta1}" if row.theta1 is not None else "")
                 + f" gamma={row.gamma} eta={row.eta}")
        print(f"point failed ({point}): {row.error}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {path}"
          + (f" ({len(failed)} failed)" if failed else ""))
    return 1 if failed else 0


def _cmd_catalog() -> int:
    print("interval  (1D: cut cell at each end of (a, b) in [0, 1])")
    for name in domain_names():
        ls = catalog_levelset(name)
        origin = ls.art_origin
        top = (origin[0] + ls.art_extent, origin[1] + ls.art_extent)
        bcs = ("dirichlet/neumann by region" if ls.bc_predicate is not None
               else "+".join(sorted(set(ls.bc_tags))))
        print(f"{name:10s}(2D: {bcs} on [{origin[0]:g}, {top[0]:g}] x "
              f"[{origin[1]:g}, {top[1]:g}])")
    return 0


# -- verify checks -----------------------------------------------------------


def _check_transpose() -> tuple:
    interval = mg.build_hierarchy(assemble_1d(8, 0.3, 0.7, 2.0 / (0.3 / 8)),
                                  mg.CycleConfig(coarsest_n=4))
    disk = mg.build_hierarchy(
        assemble(ProblemSpec(levelset=domain_catalog("disk"), h=1.0 / 16)),
        mg.CycleConfig(coarsest_n=8))
    nnz = sum((level.R - level.P.T).tocsr().nnz
              for level in interval.levels[:-1] + disk.levels[:-1])
    return "prolongation is the exact transpose of restriction", nnz == 0, \
        f"nonzeros in R - P^T: {nnz}"


def _check_symmetry() -> tuple:
    # The cycles run every level's operator, and the smoothers and the
    # coarsest factor take each as exactly symmetric.
    levels = mg.build_hierarchy(
        assemble(ProblemSpec(levelset=domain_catalog("disk"), h=1.0 / 32)),
        mg.CycleConfig(coarsest_n=4)).levels
    worst = [abs(level.A - level.A.T).max() for level in levels]
    bad = np.flatnonzero(worst)
    return "every level's operator is symmetric", not bad.size, (
        f"level {bad[0]}: max |A - A^T| = {worst[bad[0]]:g}" if bad.size
        else f"A = A^T bitwise on {len(levels)} levels")


def _check_spd() -> tuple:
    # Each coarse level sizes its own penalty, so coercivity is at stake on
    # every level, not only on the assembled one.  Building the hierarchy
    # factors its coarsest level, which fails there if that level is not
    # positive definite.
    disk = domain_catalog("disk")
    system = assemble(ProblemSpec(levelset=disk, h=1.0 / 32, gamma=2.0))
    sizes = []
    try:
        hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
        for level in hierarchy.levels:
            scipy.linalg.cho_factor(level.A.toarray())
            sizes.append(str(level.num_dofs))
        ok, detail = True, f"Cholesky succeeded on {'/'.join(sizes)} DOFs"
    except scipy.linalg.LinAlgError as err:
        ok, detail = False, f"level {len(sizes)}: {err}"
    except NotSPDError as err:  # it names the coarsest level
        ok, detail = False, str(err)
    return "every level with penalty 2 C(K) is positive definite", ok, detail


def _check_constants() -> tuple:
    h = 0.015625
    details = []
    ok = True

    # The 2x2 pencil of the 1D Dirichlet cell, as build_hierarchy pools it.
    want = stab.c_one_dim(0.3, h)
    cell = assemble_1d(64, 0.3, 0.5, 2.0 * want).penalty
    val = stab.pencil_max(cell.B, cell.S)[0]
    rel = abs(val - want) / want
    ok &= rel < 1e-10
    details.append(f"1D cell pencil vs 1/(theta1 h): rel {rel:.2e}")

    tri = stab.c_triangle(1.0, 1.0, h)
    rel = abs(tri - 3.0 * np.sqrt(2.0) / h) / tri
    ok &= rel < 1e-14
    details.append(f"triangle(1,1): rel {rel:.2e}")

    # Every Dirichlet cut cell of the rectangle is a symmetric trapezoid.
    worst = 0.0
    for theta in (0.1, 0.5, 0.9):
        rectangle = domain_catalog("rectangle", theta=theta, h=h)
        quad = assemble(ProblemSpec(levelset=rectangle, h=h)).stabilization.C
        worst = max(worst, float(np.max(np.abs(quad * theta * h - 1.0))))
    ok &= worst < 1e-10
    details.append(f"trapezoid law C = 1/(theta h): err {worst:.2e}")
    return "trace constants reproduced", bool(ok), "; ".join(details)


def _check_linearity() -> tuple:
    system = assemble_1d(16, 0.3, 0.7, 2.0 / (0.3 / 16))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, 17))
    a, b = 0.37, -1.21
    F = np.zeros(17)

    def cycle(u):
        return mg.solve(hierarchy, F, u0=u, max_iters=1)[0]

    combined = cycle(a * x + b * y)
    split = a * cycle(x) + b * cycle(y)
    worst = float(np.max(np.abs(combined - split)))
    return "cycle acts linearly on the iterate", worst < 1e-12, \
        f"superposition defect {worst:.2e}"


def _cmd_verify() -> int:
    checks = (_check_transpose, _check_symmetry, _check_spd,
              _check_constants, _check_linearity)
    failures = 0
    for check in checks:
        name, ok, detail = check()
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghostmg",
        description="Multigrid convergence studies for the ghost finite "
                    "element method on implicit domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser(
        "run", help="run the sweep described by a config file")
    run_parser.add_argument("config", help="path to a key = value config")
    sub.add_parser("catalog", help="list the benchmark domains")
    sub.add_parser("verify", help="run structural self-checks")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "catalog":
        return _cmd_catalog()
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())

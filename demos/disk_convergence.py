"""Two-grid convergence on the disk, and what extra boundary smoothing buys.

The disk is embedded in the unit square and the method assembles only cells
that intersect {psi < 0}.  Cut cells carry the Nitsche boundary terms, and
the penalty is sized per cell from the local trace constant (lambda = 2 C(K)).
Plain four-colour Gauss-Seidel with two pre- and one post-smoothing step
converges at about 0.35-0.39 per cycle, held back near the boundary;
appending a few extra sweeps over the cut unknowns after each full sweep
brings the factor to about 0.019-0.026 at n = 64 ... 256, at negligible
cost, because the cut set is a lower-dimensional fraction of the unknowns.

This script runs the same two-grid solver with eta = 0 and eta = 4 extra
boundary sweeps, on one hierarchy per grid, then contrasts the per-cell
penalty with a single global penalty taken from the worst cut cell.

Run:  python demos/disk_convergence.py   (a few seconds)
"""

from dataclasses import replace

import numpy as np

from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.geometry import domain_catalog


def convergence_factors(n: int, etas: tuple,
                        lambda_mode: str) -> tuple[list, int, int]:
    """Two-grid factors for each eta, on one system and hierarchy: eta
    enters only the cycle."""
    levelset = domain_catalog("disk")
    system = assemble(ProblemSpec(levelset, 1.0 / n, gamma=2.0,
                                  lambda_mode=lambda_mode))
    config = mg.CycleConfig(nu1=2, nu2=1, gamma_star=1, coarsest_n=n // 2)
    hierarchy = mg.build_hierarchy(system, config)
    m = system.grid.num_nodes
    rhos = []
    for eta in etas:
        cycle = replace(hierarchy, config=replace(config, eta=eta))
        _, trace = mg.solve(cycle, np.zeros(m), u0=np.ones(m), max_iters=30)
        rhos.append(trace.rho_mean(21, 30))
    free = int(system.free_dofs.sum())
    cut = int(system.dofs.cut.sum())
    return rhos, free, cut


def main():
    ns = (64, 128, 256)
    print("two-grid convergence factor on the disk (per-cell penalty)")
    print(f"{'n':>5s} {'free':>7s} {'cut':>6s} {'rho (eta=0)':>12s} "
          f"{'rho (eta=4)':>12s}")
    rho_local = {}
    for n in ns:
        (rho0, rho4), free, cut = convergence_factors(n, (0, 4), "local")
        rho_local[n] = rho0
        print(f"{n:5d} {free:7d} {cut:6d} {rho0:12.4f} {rho4:12.4f}")

    print()
    print("per-cell penalty vs one global penalty (eta = 0):")
    print(f"{'n':>5s} {'rho local':>10s} {'rho global':>11s}")
    for n in ns:
        (rho_global,), _, _ = convergence_factors(n, (0,), "global")
        print(f"{n:5d} {rho_local[n]:10.4f} {rho_global:11.4f}")


if __name__ == "__main__":
    main()

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
boundary sweeps, then contrasts the per-cell penalty with a single global
penalty taken from the worst cut cell.

Run:  python demos/disk_convergence.py   (about a minute)
"""

import numpy as np

from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.geometry import domain_catalog


def convergence_factor(n: int, eta: int, lambda_mode: str) -> tuple[float, int, int]:
    levelset = domain_catalog("disk")
    system = assemble(ProblemSpec(levelset, 1.0 / n, gamma=2.0,
                                  lambda_mode=lambda_mode))
    config = mg.CycleConfig(nu1=2, nu2=1, eta=eta, gamma_star=1,
                            coarsest_n=n // 2)
    hierarchy = mg.build_hierarchy(system, config)
    m = system.A.shape[0]
    _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m), max_iters=30)
    free = int(system.free_dofs.sum())
    cut = int(system.cut_dofs.sum())
    return trace.rho_mean(21, 30), free, cut


def main():
    print("two-grid convergence factor on the disk (per-cell penalty)")
    print(f"{'n':>5s} {'free':>7s} {'cut':>6s} {'rho (eta=0)':>12s} "
          f"{'rho (eta=4)':>12s}")
    for n in (64, 128, 256):
        rho0, free, cut = convergence_factor(n, 0, "local")
        rho4, _, _ = convergence_factor(n, 4, "local")
        print(f"{n:5d} {free:7d} {cut:6d} {rho0:12.4f} {rho4:12.4f}")

    print()
    print("per-cell penalty vs one global penalty (eta = 0):")
    print(f"{'n':>5s} {'rho local':>10s} {'rho global':>11s}")
    for n in (64, 128, 256):
        rho_local, _, _ = convergence_factor(n, 0, "local")
        rho_global, _, _ = convergence_factor(n, 0, "global")
        print(f"{n:5d} {rho_local:10.4f} {rho_global:11.4f}")


if __name__ == "__main__":
    main()

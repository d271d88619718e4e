"""Tour of the built-in level-set domains.

Every domain is a signed function psi on a background Cartesian grid; the
method keeps cells that intersect {psi < 0}, snaps near-grid boundary
crossings back to the nearest node, and cuts the rest.  This script
classifies the cells of each catalog domain at a moderate resolution,
reports the active/cut breakdown, and solves a homogeneous problem on each
to show the multigrid factor is insensitive to the boundary shape.

Run:  python demos/implicit_domains.py   (about two minutes)
"""

import numpy as np

from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.geometry import domain_catalog, domain_names


def main():
    print("catalog domains at n = 128 (gamma = 2, eta = 4, two-grid)")
    print(f"{'domain':>10s} {'extent':>7s} {'active':>7s} {'cut cells':>9s} "
          f"{'free dofs':>9s} {'rho':>8s}")
    for name in domain_names():
        if name == "rectangle":
            levelset = domain_catalog(name, theta=0.55, h=1.0 / 128)
        else:
            levelset = domain_catalog(name)
        extent = levelset.art_extent
        h = levelset_h(extent, 128)
        problem = ProblemSpec(levelset, h, gamma=2.0)
        system = assemble(problem)
        config = mg.CycleConfig(nu1=2, nu2=1, eta=4, gamma_star=1,
                                coarsest_n=system.grid.n // 2)
        hierarchy = mg.build_hierarchy(system, config)
        m = system.grid.num_nodes
        _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m),
                            max_iters=30)
        active = int(system.classification.active.sum())
        cut = len(system.cut_cells)
        free = int(system.free_dofs.sum())
        print(f"{name:>10s} {extent:7.1f} {active:7d} {cut:9d} "
              f"{free:9d} {trace.rho_mean(21, 30):8.4f}")


def levelset_h(extent: float, n: int) -> float:
    """Mesh size that puts n cells across the domain's bounding box."""
    return extent / n


if __name__ == "__main__":
    main()

"""Two-grid convergence on the cut interval, and why the penalty size matters.

The 1D model problem puts a weak Dirichlet condition at a = (1 - theta1) h
and a Neumann condition at b = 1 - (1 - theta2) h, so both boundary cells are
cut.  The penalty lambda multiplies the Dirichlet trace term; the sharp trace
constant of the boundary cell is C = 1/(theta1 h), and lambda = 1.1 C gives
textbook multigrid convergence factors (about 0.1) uniformly in the cut
fraction.  Oversizing the penalty to h^-2 keeps the discretization stable and
accurate but ruins the smoother on the boundary rows, which this script makes
visible by sweeping theta1 at a fixed grid.

Run:  python demos/interval_convergence.py
"""

import numpy as np

from ghostmg import multigrid as mg
from ghostmg.one_dim import assemble_1d
from ghostmg.stabilization import c_one_dim

N = 256
THETA1 = (0.0099, 0.05, 0.1, 0.3, 0.5, 0.75, 1.0)
THETA2 = 0.01


def convergence_factor(n: int, theta1: float, gamma: float) -> float:
    """Windowed mean factor of a homogeneous two-grid run with penalty
    gamma C."""
    system = assemble_1d(n, theta1, THETA2, gamma=gamma)
    config = mg.CycleConfig(nu1=2, nu2=1, gamma_star=1, coarsest_n=n // 2)
    hierarchy = mg.build_hierarchy(system, config)
    _, trace = mg.solve(hierarchy, np.zeros(n + 1), u0=np.ones(n + 1),
                        max_iters=50)
    return trace.rho_mean(41, 50)


def main():
    h = 1.0 / N
    print(f"two-grid convergence factor on the interval, n = {N}")
    print(f"{'theta1':>8s} {'rho (lambda = 1.1/(theta1 h))':>30s} "
          f"{'rho (lambda = 1/h^2)':>22s}")
    for t1 in THETA1:
        rho_opt = convergence_factor(N, t1, 1.1)
        rho_stiff = convergence_factor(N, t1,
                                       (1.0 / h ** 2) / c_one_dim(t1, h))
        print(f"{t1:8.4f} {rho_opt:30.4f} {rho_stiff:22.4f}")


if __name__ == "__main__":
    main()

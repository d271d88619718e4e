"""The 1D system of the interval domain with unfitted ends.

The domain is (a, b) inside the unit artificial domain [0, 1] with n cells of
width h = 1/n, where a = (1 - theta1) h lies in the first cell and
b = 1 - (1 - theta2) h in the last.  A weak Dirichlet condition with penalty
lambda = gamma / (theta1 h) is imposed at a and a Neumann condition at b.
As on every level, the operator comes from the cells
(`assembly.PenaltyCells.operator`), and so does F, gathered per node as
`assembly.assemble` gathers the 2D one.  Summed over the cells they split as

    A = A_I + A_B + A_B^T + A_lam,    F = F_f + F_B + F_lam + F_N,

with A_I the P1 stiffness of the truncated mesh, A_B the Dirichlet
consistency block, A_lam the penalty block, F_f the source and F_B, F_lam
and F_N the flux, penalty and Neumann loads.  The splittings are only the
tests' oracle: they build the blocks in closed form and check A and F
against their sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ghostmg.assembly import (_GAUSS_W, _GAUSS_X, Dofs, PenaltyCells,
                              number_dofs)
from ghostmg.geometry import CartesianGrid
from ghostmg.stabilization import c_one_dim, penalties


@dataclass
class OneDimSystem:
    """Assembled 1D Nitsche system A u = F on grid, the unit artificial
    domain with n cells.  Every node is a DOF, in node order, and the nodes
    of the two boundary cells are the cut DOFs (`dofs`); operator,
    canonical CSR, and F are gathered from the cells (`penalty`), which the
    hierarchy pools from.

    The Dirichlet cell, cell 0, is the 2-node case of the 2D cut cells: the
    stiffness of its part of length theta1 h, the Gram of the flux u'(a),
    the trace mass at a and the penalty lam, sized like every level's by
    `stabilization.penalties` from gamma and the cell's trace constant
    1 / (theta1 h) (`stabilization.c_one_dim`); the coarse levels take the
    same gamma.  Cells 1 to n - 2 are full; the listed cells are 0 and
    n - 1, K0 the stiffness of their parts, cell 0's plus A_B + A_B^T, and
    cell n - 1 carries no penalty.
    """

    n: int
    theta1: float
    theta2: float
    g_a: float
    g_b: float
    grid: CartesianGrid
    operator: object
    F: np.ndarray
    penalty: PenaltyCells
    dofs: Dofs

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def lam(self) -> float:
        """The Dirichlet cell's penalty, as its cells hold it."""
        return float(self.penalty.lam[0])


def _check_params(n: int, theta1: float, theta2: float) -> None:
    if n < 2:
        raise ValueError("need at least two cells")
    for name, t in (("theta1", theta1), ("theta2", theta2)):
        if not (0.0 < t <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {t}")


def assemble_1d(n: int, theta1: float, theta2: float, *, gamma: float,
                f: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                g_a: float = 0.0, g_b: float = 0.0) -> OneDimSystem:
    """Assemble the 1D system A u = F on n cells of width h = 1/n, the
    first (Dirichlet) and last (Neumann) cut to the fractions theta1 and
    theta2 in (0, 1].  The Dirichlet cell's penalty is gamma / (theta1 h),
    with gamma keyword-only, by `stabilization.penalties`, which raises
    ValueError unless both are finite and positive; f(x), vectorized, is
    the source (None: zero), g_a the Dirichlet datum at a and g_b the
    Neumann datum u'(b)."""
    _check_params(n, theta1, theta2)
    h = 1.0 / n
    lam = penalties(c_one_dim(theta1, h), 0.0, gamma, "local")
    diff = np.array([[1.0, -1.0], [-1.0, 1.0]])
    trace = np.array([theta1, 1.0 - theta1])
    C = np.outer(trace, [-1.0 / h, 1.0 / h])
    full = np.ones(n, dtype=bool)
    full[[0, -1]] = False
    zero = np.zeros((2, 2))
    penalty = PenaltyCells(
        cells=np.array([[0], [n - 1]]), S=np.stack([theta1 / h * diff, zero]),
        B=np.stack([diff / h ** 2, zero]),
        M=np.stack([np.outer(trace, trace), zero]), lam=np.array([lam, 0.0]),
        full=full, reference=diff / h, gamma=gamma, mode="local",
        K0=np.stack([theta1 / h * diff + C + C.T, theta2 / h * diff]))
    # Per cell: its 3-point Gauss source on its part of (a, b), nonempty by
    # _check_params; then cell 0's flux and penalty loads and cell n - 1's
    # Neumann load, summed per node in that order.
    nodes = [[[0, 1], [0, 1], [n - 1, n]]]
    loads = [[g_a / h * np.array([-1.0, 1.0]), lam * trace * g_a,
              np.array([1.0 - theta2, theta2]) * g_b]]
    if f is not None:
        c = np.arange(n)[:, None]
        lo = np.maximum(c * h, (1.0 - theta1) * h)
        hi = np.minimum((c + 1) * h, 1.0 - (1.0 - theta2) * h)
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * _GAUSS_X
        # The hat functions of nodes c and c + 1 at the cell's Gauss points.
        hats = np.stack([(c + 1) - x / h, x / h - c], -1)
        terms = (half * _GAUSS_W * f(x))[..., None] * hats
        nodes.insert(0, c + np.array([0, 1]))
        loads.insert(0, terms[:, 0] + terms[:, 1] + terms[:, 2])
    F = np.bincount(np.concatenate(nodes).ravel(),
                    np.concatenate(loads).ravel(), minlength=n + 1)
    grid = CartesianGrid(n, (0.0,), 1.0)
    dofs = number_dofs(np.ones(n + 1, dtype=bool),
                       np.isin(np.arange(n + 1), (0, 1, n - 1, n)), grid)
    return OneDimSystem(n, theta1, theta2, g_a, g_b, grid,
                        penalty.operator(grid, dofs.order, dofs.dof), F,
                        penalty, dofs)


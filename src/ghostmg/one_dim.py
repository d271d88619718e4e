"""Closed-form 1D systems for the interval domain with unfitted ends.

The domain is (a, b) inside the unit artificial domain [0, 1] with n cells of
width h = 1/n, where a = (1 - theta1) h lies in the first cell and
b = 1 - (1 - theta2) h in the last.  A weak Dirichlet condition with penalty
lambda is imposed at a and a Neumann condition at b.  The system splits into

    A = A_I + A_B + A_B^T + A_lam,

with A_I the P1 stiffness of the truncated mesh, A_B the Dirichlet
consistency block, A_lam the penalty block; F = F_f + F_B + F_lam + F_N.
A separate flux block A_BN (whose action is -u'(b) times the Neumann trace
weights) enters the residual splitting used to justify coarse-grid transfer
of boundary data: cell fractions coarsen as theta -> (1 + theta) / 2 while
lambda stays fixed, and the coarse boundary residual blocks reproduce the
restriction of the fine residual exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ghostmg.geometry import CartesianGrid
from ghostmg.linalg import canonical_csr
from ghostmg.stabilization import PenaltyCells


@dataclass
class OneDimBlocks:
    """The individual matrix and vector blocks of the 1D system."""

    n: int
    theta1: float
    theta2: float
    lam: float
    A_I: sp.csr_matrix
    A_B: sp.csr_matrix
    A_lam: sp.csr_matrix
    A_BN: sp.csr_matrix

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def a(self) -> float:
        return (1.0 - self.theta1) * self.h

    @property
    def b(self) -> float:
        return 1.0 - (1.0 - self.theta2) * self.h


@dataclass
class OneDimSystem:
    """Assembled 1D Nitsche system A u = F with its blocks."""

    blocks: OneDimBlocks
    A: sp.csr_matrix
    F: np.ndarray
    g_a: float
    g_b: float

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def h(self) -> float:
        return self.blocks.h

    @property
    def grid(self) -> CartesianGrid:
        """The unit artificial domain with n cells."""
        return CartesianGrid(self.n, (0.0,), 1.0)

    @property
    def free_dofs(self) -> np.ndarray:
        return np.ones(self.n + 1, dtype=bool)

    @property
    def cut_dofs(self) -> np.ndarray:
        """The nodes of the two boundary cells."""
        mask = np.zeros(self.n + 1, dtype=bool)
        mask[[0, 1, -2, -1]] = True
        return mask

    @property
    def penalty(self) -> PenaltyCells:
        """The Dirichlet cell, cell 0, as the 2-node case of the 2D cut
        cells: the stiffness of its part of length theta1 h, the Gram of
        the flux u'(a), the trace mass at a and the penalty lam.  The
        system knows lam, not the rule that chose it, so gamma is lam over
        the cell's trace constant 1 / (theta1 h), and the coarse levels
        size their penalties with that gamma under the local rule.  Cells
        1 to n - 2 are full."""
        blocks = self.blocks
        h, theta1 = blocks.h, blocks.theta1
        diff = np.array([[1.0, -1.0], [-1.0, 1.0]])
        trace = np.array([theta1, 1.0 - theta1])
        full = np.ones(self.n, dtype=bool)
        full[[0, -1]] = False
        return PenaltyCells(
            cells=np.zeros((1, 1), dtype=int), S=(theta1 / h * diff)[None],
            B=(diff / h ** 2)[None], M=np.outer(trace, trace)[None],
            lam=np.array([blocks.lam]), full=full, reference=diff / h,
            gamma=blocks.lam * theta1 * h, mode="local")


def _check_params(n: int, theta1: float, theta2: float) -> None:
    if n < 2:
        raise ValueError("need at least two cells")
    for name, t in (("theta1", theta1), ("theta2", theta2)):
        if not (0.0 < t <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {t}")


def system_blocks(n: int, theta1: float, theta2: float, lam: float) -> OneDimBlocks:
    """Build A_I, A_B, A_lam and A_BN for the cut interval.

    A_I comes from summing per-cell stiffness contributions with the first
    and last cells shortened to theta1 h and theta2 h.  A_B and A_lam are the
    rank-one boundary blocks phi_i(a) phi_j'(a) and lam phi_i(a) phi_j(a);
    A_BN carries -u'(b) times the Neumann-end trace weights.
    """
    _check_params(n, theta1, theta2)
    h = 1.0 / n
    m = n + 1

    weights = np.ones(n)
    weights[0] = theta1
    weights[-1] = theta2
    cells = np.arange(n)
    rows = np.concatenate([cells, cells, cells + 1, cells + 1])
    cols = np.concatenate([cells, cells + 1, cells, cells + 1])
    vals = np.concatenate([weights, -weights, -weights, weights]) / h
    A_I = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))

    # p_i = phi_i(a), q_j = phi_j'(a): only the first two basis functions see a.
    p = np.array([theta1, 1.0 - theta1])
    q = np.array([-1.0, 1.0]) / h
    corner = np.outer(p, q)
    A_B = sp.csr_matrix((corner.ravel(), ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(m, m))
    pen = lam * np.outer(p, p)
    A_lam = sp.csr_matrix((pen.ravel(), ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(m, m))

    # s_i = phi_i(b); A_BN u = -u'(b) s, so rows are s_i * (1, -1) / h.
    s = np.array([1.0 - theta2, theta2])
    flux = np.outer(s, np.array([1.0, -1.0]) / h)
    A_BN = sp.csr_matrix(
        (flux.ravel(), ([n - 1, n - 1, n, n], [n - 1, n, n - 1, n])), shape=(m, m)
    )

    return OneDimBlocks(n, theta1, theta2, lam, A_I.tocsr(), A_B.tocsr(),
                        A_lam.tocsr(), A_BN.tocsr())


def source_vector(n: int, theta1: float, theta2: float,
                  f: Optional[Callable[[np.ndarray], np.ndarray]]) -> np.ndarray:
    """Source load F_f, entries int_a^b f phi_i dx, 3-point Gauss per cell."""
    m = n + 1
    F = np.zeros(m)
    if f is None:
        return F
    h = 1.0 / n
    a = (1.0 - theta1) * h
    b = 1.0 - (1.0 - theta2) * h
    gauss_x = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
    gauss_w = np.array([5.0, 8.0, 5.0]) / 9.0
    for c in range(n):
        lo = max(c * h, a)
        hi = min((c + 1) * h, b)
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xq = mid + half * gauss_x
        wq = half * gauss_w
        fq = f(xq)
        # Hat functions of nodes c and c+1 on this cell.
        left = (c + 1) - xq / h
        right = xq / h - c
        F[c] += np.sum(wq * fq * left)
        F[c + 1] += np.sum(wq * fq * right)
    return F


def rhs_blocks(n: int, theta1: float, theta2: float, lam: float,
               g_a: float, g_b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_B, F_lam, F_N boundary load vectors."""
    m = n + 1
    h = 1.0 / n
    F_B = np.zeros(m)
    F_B[0] = -g_a / h
    F_B[1] = g_a / h
    F_lam = np.zeros(m)
    F_lam[0] = lam * theta1 * g_a
    F_lam[1] = lam * (1.0 - theta1) * g_a
    F_N = np.zeros(m)
    F_N[n - 1] = (1.0 - theta2) * g_b
    F_N[n] = theta2 * g_b
    return F_B, F_lam, F_N


def assemble_1d(n: int, theta1: float, theta2: float, lam: float,
                f: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                g_a: float = 0.0, g_b: float = 0.0) -> OneDimSystem:
    """Assemble the full 1D system A u = F.

    Parameters
    ----------
    n : int
        Number of background cells; h = 1/n.
    theta1, theta2 : float
        Cut fractions of the first (Dirichlet) and last (Neumann) cells,
        in (0, 1].
    lam : float
        Nitsche penalty.
    f : callable or None
        Source term f(x), vectorized; None means zero.
    g_a : float
        Dirichlet datum at a.
    g_b : float
        Neumann datum u'(b) at b.
    """
    blocks = system_blocks(n, theta1, theta2, lam)
    A = canonical_csr(blocks.A_I + blocks.A_B + blocks.A_B.T + blocks.A_lam)
    F_B, F_lam, F_N = rhs_blocks(n, theta1, theta2, lam, g_a, g_b)
    F = source_vector(n, theta1, theta2, f) + F_B + F_lam + F_N
    return OneDimSystem(blocks, A, F, g_a, g_b)


def coarse_theta(theta: float) -> float:
    """Cut fraction seen by the next coarser grid: (1 + theta) / 2.

    The boundary point is fixed; doubling h halves the distance fraction
    between the boundary and the surrounding coarse node.
    """
    return 0.5 * (1.0 + theta)


def trace_at_a(u: np.ndarray, theta1: float) -> float:
    """Value of the P1 iterate at the Dirichlet point a."""
    return theta1 * u[0] + (1.0 - theta1) * u[1]


def flux_at_b(u: np.ndarray, h: float) -> float:
    """Derivative of the P1 iterate in the last cell (the flux at b)."""
    return (u[-1] - u[-2]) / h


def boundary_residuals(system: OneDimSystem, u: np.ndarray) -> tuple[float, float]:
    """Dirichlet and Neumann data residuals (r_a, r_b) of an iterate."""
    blocks = system.blocks
    r_a = system.g_a - trace_at_a(u, blocks.theta1)
    r_b = system.g_b - flux_at_b(u, blocks.h)
    return r_a, r_b


def split_residual_fine(system: OneDimSystem, u: np.ndarray) -> dict:
    """The four-way residual splitting on the fine grid.

    r = r_int + r_B + r_lam + r_N, where r_int = F - F_B - F_lam - F_N -
    (A_I + A_B + A_BN) u and the boundary pieces are `rhs_blocks` of the
    data residuals r_a, r_b in place of the data.
    """
    blocks = system.blocks
    n, theta1, theta2, lam = blocks.n, blocks.theta1, blocks.theta2, blocks.lam
    F_B, F_lam, F_N = rhs_blocks(n, theta1, theta2, lam, system.g_a, system.g_b)
    r_a, r_b = boundary_residuals(system, u)
    r_int = system.F - F_B - F_lam - F_N \
        - (blocks.A_I + blocks.A_B + blocks.A_BN) @ u
    r_B, r_lam, r_N = rhs_blocks(n, theta1, theta2, lam, r_a, r_b)
    return {"interior": r_int, "dirichlet_flux": r_B, "penalty": r_lam,
            "neumann": r_N, "r_a": r_a, "r_b": r_b}


def split_residual_coarse(system: OneDimSystem, u: np.ndarray,
                          restrict: sp.csr_matrix) -> np.ndarray:
    """Coarse residual assembled from restricted interior residual plus
    coarse-grid boundary blocks.

    Only the interior part is restricted; the Dirichlet flux, penalty and
    Neumann parts are rebuilt on the coarse grid with spacing 2h, coarse
    fractions (1 + theta) / 2 and the same lambda, using the fine data
    residuals r_a, r_b.  This equals the full restriction of the fine
    residual exactly.
    """
    blocks = system.blocks
    if blocks.n % 2 != 0:
        raise ValueError("fine grid must have an even number of cells")
    parts = split_residual_fine(system, u)
    r_B, r_lam, r_N = rhs_blocks(blocks.n // 2, coarse_theta(blocks.theta1),
                                 coarse_theta(blocks.theta2), blocks.lam,
                                 parts["r_a"], parts["r_b"])
    return restrict @ parts["interior"] + (r_B + r_lam + r_N)

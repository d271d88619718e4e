"""Penalty sizing for the weak Dirichlet terms on cut cells.

The chord penalty lambda(K) = gamma * C(K) must dominate the constant of the
local trace-inverse inequality

    || n . grad v ||^2_{L2(K chord)}  <=  C(K) || grad v ||^2_{L2(K interior)}

over the bilinear shape functions v of the cell; gamma > 1 then makes the
discrete form coercive.  The sharp C(K) is the largest generalized eigenvalue
of the 4x4 pencil (B, S), with B the chord flux Gram matrix and S the cell
stiffness restricted to the interior polygon, both from the batched cut-cell
kernel `assembly.cut_cell_batch`.  The constants span the null space of both,
so `pencil_max` deflates them analytically, by dropping one corner; a stacked
3x3 Cholesky of the reduced S and `eigvalsh` then solve every pencil of the
batch at once.

Constants by shape
------------------
one-dimensional cell   C = 1 / (theta1 h), exact.
triangle               corner triangle with legs theta1 h and theta2 h;
                       `c_triangle`, exact and symmetric in the fractions.
pentagon               fixed constant 3 sqrt(2) / h, the supremum of the
                       pentagon family (reached as the cut corner grows to
                       half the cell); an upper bound, not the sharp value.
quadrilateral          no closed form: the sharp value from `pencil_max`.
                       For the symmetric trapezoid (theta1 == theta2 ==
                       theta) it is exactly 1 / (theta h).

`build_stabilization` applies these rules to the finest 2D grid's Dirichlet
cut cells, and `penalties` sizes every level's penalties from its constants.
The multigrid hierarchy pools each level's cells (`assembly.PenaltyCells`)
2x2 and solves the pooled pencils with `pencil_max`, which also takes the
2x2 pencils of the 1D boundary cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ghostmg.linalg import DegeneratePencilError


def c_one_dim(theta1: float, h: float) -> float:
    """Trace constant of the 1D Dirichlet boundary cell.

    The squared endpoint flux (v')^2 against the H1 seminorm on the cut
    interval of length theta1 h gives exactly 1 / (theta1 h): piecewise
    linear v has constant derivative there, and concentrating the seminorm
    on the boundary cell attains the bound.
    """
    if not 0.0 < theta1 <= 1.0:
        raise ValueError(f"need 0 < theta1 <= 1, got {theta1}")
    if h <= 0.0:
        raise ValueError(f"need h > 0, got {h}")
    return 1.0 / (theta1 * h)


def c_triangle(theta1, theta2, h: float):
    """Sharp trace constant of a triangular cut with legs theta1 h, theta2 h.

    Largest generalized eigenvalue of the chord flux Gram matrix against the
    interior-triangle stiffness, in closed form.  Symmetric in the two
    fractions; equals 3 sqrt(2) / h when both fractions are 1 (the half-cell
    triangle whose chord is the diagonal).  The fractions may be arrays.
    """
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    if not np.all((0.0 < t1) & (t1 <= 1.0) & (0.0 < t2) & (t2 <= 1.0)):
        raise ValueError(f"need fractions in (0, 1], got ({theta1}, {theta2})")
    if h <= 0.0:
        raise ValueError(f"need h > 0, got {h}")
    a, b = t1 * t1, t2 * t2
    s = a + b
    a2, b2 = a * a, b * b
    root = np.sqrt(3.0 * (a2 * a2 + 10.0 * a2 * b2 + b2 * b2))
    return np.sqrt(s) * (3.0 * a2 + 3.0 * b2 + root) / (h * t1 * t2 * s * s)


def c_pentagon(h: float) -> float:
    """Upper-bound constant 3 sqrt(2) / h used for pentagonal cuts.

    The pentagon family's constant grows toward the half-cell triangle value
    as the removed corner approaches half the cell, so that limit value is a
    valid penalty scale for every pentagon.
    """
    if h <= 0.0:
        raise ValueError(f"need h > 0, got {h}")
    return 3.0 * math.sqrt(2.0) / h


def pencil_max(B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each pencil B_k v = C S_k v, for stacks (n, m, m)
    whose common null space is the constants: m = 4 corners of a square
    cell, or the 2 ends of a 1D cell.

    The constants are deflated by dropping the row and column of one corner,
    which is exact because B 1 = S 1 = 0.  Dropping the corner with the
    largest stiffness diagonal keeps the tiny entries of a thin cut in rows
    of their own, so the Cholesky factor of the reduced S resolves them to
    full relative accuracy.  NaN marks a pencil whose reduced stiffness is
    not positive definite (a non-positive Cholesky pivot).
    """
    m = S.shape[1]
    others = np.array([[c for c in range(m) if c != k] for k in range(m)])
    keep = others[np.argmax(np.diagonal(S, axis1=1, axis2=2), axis=1)]
    index = (np.arange(len(S))[:, None, None], keep[:, :, None], keep[:, None, :])
    Sr, Br = S[index], B[index]
    L = np.zeros_like(Sr)
    ok = np.ones(len(Sr), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(m - 1):
            pivot = Sr[:, j, j] - np.einsum("kp,kp->k", L[:, j, :j], L[:, j, :j])
            ok &= pivot > 0.0
            L[:, j, j] = np.sqrt(pivot)
            L[:, j + 1:, j] = (Sr[:, j + 1:, j] - np.einsum(
                "kip,kp->ki", L[:, j + 1:, :j], L[:, j, :j])) / L[:, j, j, None]
    Linv = np.linalg.inv(L[ok])
    C = np.full(len(Sr), np.nan)
    C[ok] = np.linalg.eigvalsh(Linv @ Br[ok] @ Linv.transpose(0, 2, 1))[:, -1]
    return C


#: A coarse cell's penalty is at least the largest penalty of the finer
#: cells it pools over KAPPA.  Without that floor the coarse operators drift
#: too far from the Galerkin ones (the V-cycle diverges on the hourglass at
#: n = 1024); with KAPPA = 32 the 2D V-cycle diverges at eta = 0, and 16
#: leaves the 1D V-cycle at a factor near 0.2 for theta1 = 0.0099.
KAPPA = 8.0

_MODES = ("local", "global")


def penalties(C: np.ndarray, floor, gamma: float, mode: str) -> np.ndarray:
    """Penalties of cells with trace constants C, the one rule of every
    level: gamma * C, at least floor / KAPPA, and floor where C is NaN (a
    singular pencil); under mode "global" every cell takes the largest.
    floor is the largest penalty each cell pools; the finest level pools
    none and passes 0, where the rule is gamma * C bit for bit."""
    lam = np.where(np.isnan(C), floor, np.maximum(gamma * C, floor / KAPPA))
    if mode == "global":
        lam[:] = lam.max(initial=0.0)
    return lam


@dataclass(eq=False)
class StabilizationField:
    """Trace constants C (D,) and penalties lam (D,) of the Dirichlet cut
    cells of a grid, in cut-cell order."""

    C: np.ndarray
    lam: np.ndarray


def build_stabilization(batch: "assembly.CutCellBatch", gamma: float = 2.0,
                        mode: str = "local") -> StabilizationField:
    """Size the chord penalty of every Dirichlet cut cell of the batch from
    `assembly.cut_cell_batch` by `penalties`, from the closed-form trace
    constants of triangles and pentagons and the sharp pencil value of
    quadrilaterals.  gamma must exceed 1 for coercivity; smaller values are
    accepted for experimentation but the system may become indefinite.
    Raises DegeneratePencilError naming the first singular cell.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if gamma <= 0.0:
        raise ValueError(f"need gamma > 0, got {gamma}")
    cut_cells = batch.cut_cells
    h = cut_cells.grid.h
    index = np.flatnonzero(batch.dirichlet)
    vertices = cut_cells.vertices[index]
    C = np.empty(index.size)
    tri, quad = vertices == 3, vertices == 4
    C[tri] = c_triangle(cut_cells.theta[index[tri], 0],
                        cut_cells.theta[index[tri], 1], h)
    C[vertices == 5] = c_pentagon(h)
    C[quad] = pencil_max(batch.B[index[quad]], batch.S[index[quad]])
    bad = np.flatnonzero(np.isnan(C))
    if bad.size:
        raise DegeneratePencilError(
            f"cut cell {cut_cells.cell(index[bad[0]])}: the interior "
            "stiffness is singular off the constants, so the stabilization "
            "constant is unbounded")
    return StabilizationField(C=C, lam=penalties(C, 0.0, gamma, mode))

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
batch at once.  The general deflating solver `linalg.generalized_eig_max` is
the oracle the tests check it against.

Closed forms by shape
---------------------
one-dimensional cell   C = 1 / (theta1 h), exact.
triangle               corner triangle with legs theta1 h and theta2 h;
                       `c_triangle`, exact and symmetric in the fractions.
pentagon               fixed constant 3 sqrt(2) / h, the supremum of the
                       pentagon family (reached as the cut corner grows to
                       half the cell); an upper bound, not the sharp value.
quadrilateral          no trusted closed form: `c_quadrilateral` runs the
                       eigensolve on the canonical trapezoid.  For the
                       symmetric trapezoid (theta1 == theta2 == theta) the
                       eigensolve returns exactly 1 / (theta h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from ghostmg import assembly
from ghostmg.geometry import CartesianGrid, CutCellGeometry
from ghostmg.linalg import DegeneratePencilError, generalized_eig_max


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


# The three corners kept when corner k is dropped.
_OTHERS = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


def pencil_max(B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each pencil B_k v = C S_k v, for stacks (n, 4, 4)
    whose common null space is the constants.

    The constants are deflated by dropping the row and column of one corner,
    which is exact because B 1 = S 1 = 0.  Dropping the corner with the
    largest stiffness diagonal keeps the tiny entries of a thin cut in rows
    of their own, so the 3x3 Cholesky resolves them to full relative
    accuracy.  NaN marks a pencil whose reduced stiffness is not positive
    definite (a non-positive Cholesky pivot).
    """
    keep = _OTHERS[np.argmax(np.diagonal(S, axis1=1, axis2=2), axis=1)]
    index = (np.arange(len(S))[:, None, None], keep[:, :, None], keep[:, None, :])
    Sr, Br = S[index], B[index]
    L = np.zeros_like(Sr)
    ok = np.ones(len(Sr), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(3):
            pivot = Sr[:, j, j] - np.einsum("kp,kp->k", L[:, j, :j], L[:, j, :j])
            ok &= pivot > 0.0
            L[:, j, j] = np.sqrt(pivot)
            L[:, j + 1:, j] = (Sr[:, j + 1:, j] - np.einsum(
                "kip,kp->ki", L[:, j + 1:, :j], L[:, j, :j])) / L[:, j, j, None]
    Linv = np.linalg.inv(L[ok])
    C = np.full(len(Sr), np.nan)
    C[ok] = np.linalg.eigvalsh(Linv @ Br[ok] @ Linv.transpose(0, 2, 1))[:, -1]
    return C


def cell_constants(batch: "assembly.CutCellBatch", index: np.ndarray,
                   method: str = "closed_form") -> np.ndarray:
    """Trace constants of the batch cells `index`.

    method "closed_form" uses the triangle and pentagon formulas and the
    eigensolve for quadrilaterals; "local_eig" solves every pencil.
    """
    vertices = batch.vertices[index]
    eig = vertices == 4 if method == "closed_form" else np.ones(index.size, dtype=bool)
    C = np.empty(index.size)
    tri = ~eig & (vertices == 3)
    C[tri] = c_triangle(batch.theta[index[tri], 0], batch.theta[index[tri], 1], batch.h)
    C[~eig & (vertices == 5)] = c_pentagon(batch.h)
    C[eig] = pencil_max(batch.B[index[eig]], batch.S[index[eig]])
    bad = np.flatnonzero(np.isnan(C))
    if bad.size:
        raise DegeneratePencilError(
            f"cut cell {batch.cells[index[bad[0]]]}: the interior stiffness is "
            "singular off the constants, so the stabilization constant is "
            "unbounded"
        )
    return C


def local_eig_C(cut: CutCellGeometry, grid: CartesianGrid) -> float:
    """Sharp trace constant of one cut cell via the 4x4 generalized
    eigenproblem (chord flux Gram matrix against interior-polygon
    stiffness)."""
    batch = assembly.cut_cell_batch([cut], grid)
    return float(cell_constants(batch, np.zeros(1, dtype=int), "local_eig")[0])


def c_quadrilateral(theta1: float, theta2: float, h: float) -> float:
    """Sharp trace constant of a trapezoidal cut whose bottom edge keeps the
    fraction theta1 and top edge the fraction theta2.

    Solved as the 4x4 generalized eigenproblem on the canonical trapezoid
    (interior corners on the left edge, chord from (theta1 h, 0) to
    (theta2 h, h)); the value is invariant under the symmetries of the cell,
    so any trapezoidal cut with these fractions shares it.  For
    theta1 == theta2 == theta the result is exactly 1 / (theta h).
    """
    t1, t2 = float(theta1), float(theta2)
    if not (0.0 < t1 <= 1.0 and 0.0 < t2 <= 1.0):
        raise ValueError(f"need fractions in (0, 1], got ({theta1}, {theta2})")
    if h <= 0.0:
        raise ValueError(f"need h > 0, got {h}")
    polygon = np.array([[0.0, 0.0], [t1 * h, 0.0], [t2 * h, h], [0.0, h]])
    chord = np.array([[t1 * h, 0.0], [t2 * h, h]])
    tangent = chord[1] - chord[0]
    normal = np.array([tangent[1], -tangent[0]]) / np.hypot(*tangent)
    B = assembly.chord_normal_gram(chord, normal, h, (0.0, 0.0))
    S = assembly.q1_cell_stiffness(polygon, h, (0.0, 0.0))
    return float(pencil_max(B[None], S[None])[0])


def closed_form_C(cut: CutCellGeometry, grid: CartesianGrid) -> float:
    """Constant for one cut cell by shape: triangles and pentagons use their
    closed forms, trapezoids the eigensolve."""
    batch = assembly.cut_cell_batch([cut], grid)
    return float(cell_constants(batch, np.zeros(1, dtype=int))[0])


@dataclass
class StabilizationField:
    """Trace constants and penalties for the Dirichlet cut cells of a grid.

    C maps cell index (i, j) to the trace constant; lam maps it to the
    penalty actually used in assembly; global_C is the max of the local
    constants (None when the grid has no Dirichlet chords).
    """

    gamma: float
    mode: str
    method: str
    C: dict
    lam: dict
    global_C: Optional[float]


_MODES = ("local", "global")
_METHODS = ("closed_form", "local_eig")


def build_stabilization(cut_cells, grid: CartesianGrid, gamma: float = 2.0,
                        mode: str = "local",
                        method: str = "closed_form") -> StabilizationField:
    """Size the chord penalty of every Dirichlet cut cell.

    cut_cells is the list from `extract_cut_geometry` or its
    `assembly.CutCellBatch` (which `assemble` passes, so the batch kernel
    runs once).  mode "local" sets lam(K) = gamma * C(K) per cell; "global"
    sets every penalty to gamma * max_K C(K).  method "closed_form"
    dispatches on the cut shape (trapezoids still use the eigensolve);
    "local_eig" solves the pencil on every cell.  gamma must exceed 1 for
    coercivity; smaller values are accepted for experimentation but the
    system may become indefinite.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if gamma <= 0.0:
        raise ValueError(f"need gamma > 0, got {gamma}")
    batch = (cut_cells if isinstance(cut_cells, assembly.CutCellBatch)
             else assembly.cut_cell_batch(list(cut_cells), grid))
    values = cell_constants(batch, np.flatnonzero(batch.dirichlet), method)
    cells = list(compress(batch.cells, batch.dirichlet))
    global_C = float(values.max()) if values.size else None
    lam = gamma * values
    if mode == "global" and values.size:
        lam[:] = gamma * global_C
    return StabilizationField(gamma=gamma, mode=mode, method=method,
                              C=dict(zip(cells, values.tolist())),
                              lam=dict(zip(cells, lam.tolist())),
                              global_C=global_C)


def global_C(system, dense: bool = False) -> float:
    """Sharp global trace constant of an assembled 2D system.

    The production path takes the max of the per-cell eigensolve constants
    over the Dirichlet cut cells (summing the local inequalities shows the
    global constant never exceeds it, and cut cells dominate the bound).
    With dense=True the genuinely global pencil is solved instead via
    `dense_global_C_2d`, which is only affordable on small grids and serves
    as a cross-check.
    """
    if dense:
        return dense_global_C_2d(system)
    value = build_stabilization(system.cut_cells, system.grid,
                                method="local_eig").global_C
    if value is None:
        raise ValueError(
            "the domain has no weak Dirichlet chords, so the boundary trace "
            "constant is undefined")
    return value


def dense_global_C_1d(n: int, theta1: float, theta2: float) -> float:
    """Global trace constant of the 1D grid: largest generalized eigenvalue
    of the Dirichlet-end flux Gram matrix against the bulk stiffness of the
    whole cut interval.

    The maximizing function concentrates its seminorm on the boundary cell,
    so this equals the local constant 1 / (theta1 h); it cross-checks the
    max-over-cells production path against a genuinely global eigensolve.
    """
    from ghostmg.one_dim import system_blocks

    blocks = system_blocks(n, theta1, theta2, lam=1.0)
    h = blocks.h
    q = np.zeros(n + 1)
    q[0] = -1.0 / h
    q[1] = 1.0 / h
    B = np.outer(q, q)
    S = blocks.A_I.toarray()
    return generalized_eig_max(B, S).value


def dense_global_C_2d(system) -> float:
    """Global trace constant of an assembled 2D system: the largest
    generalized eigenvalue of the summed Dirichlet chord Gram matrices
    against the bulk stiffness of the active mesh, on the free DOFs.

    Bounded above by the max of the local constants (summing the local
    inequalities); intended as a small-grid cross-check of the production
    per-cell path, since it is dense in the number of nodes.
    """
    grid = system.grid
    nn = grid.num_nodes
    batch = assembly.cut_cell_batch(system.cut_cells, grid)
    in_js, in_is = np.nonzero(system.classification.internal)
    internal = assembly.cell_nodes(grid, in_is, in_js)
    d = batch.dirichlet
    B = np.zeros((nn, nn))
    S = np.zeros((nn, nn))

    def scatter(M, nodes, blocks):
        np.add.at(M, (nodes[:, :, None], nodes[:, None, :]), blocks)

    scatter(S, internal, assembly.full_cell_stiffness())
    scatter(S, batch.nodes, batch.S)
    scatter(B, batch.nodes[d], batch.B[d])
    free = np.flatnonzero(system.free_dofs)
    return generalized_eig_max(B[np.ix_(free, free)], S[np.ix_(free, free)]).value

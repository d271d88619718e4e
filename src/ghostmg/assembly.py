"""Bilinear-element assembly of the Nitsche ghost system in 2D.

Every active cell contributes the stiffness of its interior part; cut cells
with a Dirichlet chord additionally contribute the penalty and consistency
chord integrals, and Neumann chords load the right-hand side.  Nodes outside
every active cell keep identity rows so the global numbering stays Cartesian.

Cut cells are integrated in one batched pass, `cut_cell_batch`: the list from
`extract_cut_geometry` is stacked into arrays, polygons grouped by vertex
count (3, 4 or 5) so each group keeps its own centroid fan, and each integral
is one einsum over the batch.  Polygon integrals use a degree-2 rule per fan
triangle for stiffness and a degree-4 rule for sources; chord integrals use
3-point Gauss.  All of those are exact for the polynomial integrands at hand
(the source rule is exact through cubics).  f and each g are evaluated once,
on all of their quadrature points.  The stabilization sizes its penalties
from the same stiffness S and chord flux Gram B, and the per-cell kernels
(`q1_cell_stiffness`, `nitsche_chord_terms`, ...) are batch-of-one calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ghostmg.geometry import (
    DIRICHLET,
    NEUMANN,
    CartesianGrid,
    CellClassification,
    LevelSet,
    SnappedNodeField,
    classify_cells,
    extract_cut_geometry,
    snap_nodes,
)


class AssemblyError(Exception):
    """Geometry handed to the assembler is unusable (degenerate polygon or a
    Dirichlet cut cell without a stabilization value)."""


_GAUSS_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 9.0

# Degree-4 triangle rule (6 points), barycentric coordinates and weights.
_TRI4_A1, _TRI4_W1 = 0.445948490915965, 0.223381589678011
_TRI4_A2, _TRI4_W2 = 0.091576213509771, 0.109951743655322
_TRI4_BARY = np.array([
    (_TRI4_A1, _TRI4_A1, 1.0 - 2.0 * _TRI4_A1),
    (_TRI4_A1, 1.0 - 2.0 * _TRI4_A1, _TRI4_A1),
    (1.0 - 2.0 * _TRI4_A1, _TRI4_A1, _TRI4_A1),
    (_TRI4_A2, _TRI4_A2, 1.0 - 2.0 * _TRI4_A2),
    (_TRI4_A2, 1.0 - 2.0 * _TRI4_A2, _TRI4_A2),
    (1.0 - 2.0 * _TRI4_A2, _TRI4_A2, _TRI4_A2),
])
_TRI4_W = np.array([_TRI4_W1, _TRI4_W1, _TRI4_W1, _TRI4_W2, _TRI4_W2, _TRI4_W2])


def shape_values(xi, eta) -> np.ndarray:
    """The four bilinear shape functions at local (xi, eta) in [0, 1]^2,
    corners BL, BR, TR, TL; shape (4, ...)."""
    return np.array([
        (1.0 - xi) * (1.0 - eta),
        xi * (1.0 - eta),
        xi * eta,
        (1.0 - xi) * eta,
    ])


def shape_gradients(xi, eta, h: float) -> np.ndarray:
    """Physical gradients of the shape functions; shape (4, 2, ...)."""
    one = np.ones_like(xi)
    dxi = np.array([-(1.0 - eta), (1.0 - eta), eta * one, -eta * one])
    deta = np.array([-(1.0 - xi), -xi * one, xi * one, (1.0 - xi)])
    return np.stack([dxi, deta], axis=1) / h


def full_cell_stiffness() -> np.ndarray:
    """Stiffness of an uncut square cell (h-independent in 2D)."""
    d, e, c = 2.0 / 3.0, -1.0 / 6.0, -1.0 / 3.0
    return np.array([
        [d, e, c, e],
        [e, d, e, c],
        [c, e, d, e],
        [e, c, e, d],
    ])


def cell_nodes(grid: CartesianGrid, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Global corner nodes (BL, BR, TR, TL) of cells (i, j); shape (K, 4)."""
    nps = grid.nodes_per_side
    base = i + j * nps
    return np.stack([base, base + 1, base + nps + 1, base + nps], axis=1)


def _local(points: np.ndarray, origins: np.ndarray, h: float):
    """Local (xi, eta) of physical points (K, ..., 2) in the cells whose
    lower-left corners are `origins` (K, 2)."""
    o = origins.reshape((-1,) + (1,) * (points.ndim - 2) + (2,))
    return (points[..., 0] - o[..., 0]) / h, (points[..., 1] - o[..., 1]) / h


def _at_points(fn: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn at the points (x, y), broadcast to their shape so that data
    returning a scalar works too."""
    return np.broadcast_to(np.asarray(fn(x, y), dtype=float), x.shape)


def fan_kernels(polygons: np.ndarray, origins: np.ndarray, h: float):
    """Centroid-fan integrals of K convex CCW polygons with one vertex count m.

    Returns the stiffness (K, 4, 4) from the edge-midpoint rule per fan
    triangle, the areas (K,), and the source rule, cell by cell: its points
    (6 m K, 2) and its weights times the shape values (6 m K, 4).
    """
    centroid = np.broadcast_to(polygons.mean(axis=1, keepdims=True),
                               polygons.shape)
    v1, v2 = polygons, np.roll(polygons, -1, axis=1)
    area = 0.5 * ((v1[..., 0] - centroid[..., 0]) * (v2[..., 1] - centroid[..., 1])
                  - (v2[..., 0] - centroid[..., 0]) * (v1[..., 1] - centroid[..., 1]))
    tri = np.stack([centroid, v1, v2], axis=2)                 # (K, m, 3, 2)
    mids = 0.5 * (tri + np.roll(tri, -1, axis=2))
    G = shape_gradients(*_local(mids, origins, h), h)         # (4, 2, K, m, 3)
    S = np.einsum("kt,iaktq,jaktq->kij", area / 3.0, G, G)
    points = np.einsum("pv,ktvd->ktpd", _TRI4_BARY, tri)       # (K, m, 6, 2)
    N = shape_values(*_local(points, origins, h))             # (4, K, m, 6)
    wN = np.einsum("kt,p,iktp->ktpi", area, _TRI4_W, N)
    return S, area.sum(axis=1), points.reshape(-1, 2), wN.reshape(-1, 4)


def chord_kernels(chords: np.ndarray, normals: np.ndarray, origins: np.ndarray,
                  h: float):
    """3-point Gauss integrals on K chords (K, 2, 2) with unit normals (K, 2).

    Returns the points (K, 3, 2), the weights times the shape values and
    times their normal derivatives (both (K, 3, 4)), and the (K, 4, 4)
    matrices B_ij = int (n . grad N_i)(n . grad N_j), mass_ij = int N_i N_j
    and consistency_ij = int N_i (n . grad N_j).
    """
    d = chords[:, 1] - chords[:, 0]
    w = 0.5 * np.hypot(d[:, 0], d[:, 1])[:, None] * _GAUSS_W    # (K, 3)
    points = (0.5 * (chords[:, 0] + chords[:, 1]))[:, None, :] \
        + _GAUSS_X[:, None] * (0.5 * d)[:, None, :]
    xi, eta = _local(points, origins, h)
    N = np.moveaxis(shape_values(xi, eta), 0, -1)             # (K, 3, 4)
    nd = np.einsum("iakq,ka->kqi", shape_gradients(xi, eta, h), normals)
    wN, wnd = w[..., None] * N, w[..., None] * nd
    return (points, wN, wnd, np.einsum("kqi,kqj->kij", wnd, nd),
            np.einsum("kqi,kqj->kij", wN, N), np.einsum("kqi,kqj->kij", wN, nd))


@dataclass
class CutCellBatch:
    """The K cut cells of a grid, in `extract_cut_geometry` order, stacked
    into arrays with every cut-cell integral that does not depend on data."""

    h: float
    cells: list                # (i, j) per cell
    nodes: np.ndarray          # (K, 4) global corner nodes
    vertices: np.ndarray       # (K,) polygon vertex count, 3, 4 or 5
    theta: np.ndarray          # (K, 2) crossing fractions
    dirichlet: np.ndarray      # (K,) chord boundary condition masks
    neumann: np.ndarray
    area: np.ndarray           # (K,) interior polygon area
    S: np.ndarray              # (K, 4, 4) interior stiffness
    B: np.ndarray              # (K, 4, 4) chord matrices, see `chord_kernels`
    mass: np.ndarray
    consistency: np.ndarray
    chord_points: np.ndarray   # chord quadrature, see `chord_kernels`
    chord_wN: np.ndarray
    chord_wnd: np.ndarray
    fan_points: np.ndarray     # source quadrature, see `fan_kernels`
    fan_wN: np.ndarray
    fan_cell: np.ndarray       # cut cell of each source point

    def loads(self, lam: np.ndarray, f: Optional[Callable],
              g_dirichlet: Optional[Callable],
              g_neumann: Optional[Callable]) -> np.ndarray:
        """Cut-cell load vectors (K, 4): the polygon source of f, the
        Dirichlet chord load lam int g N_i - int (n . grad N_i) g with lam
        over the Dirichlet cells, and the Neumann chord load int g N_i.  Each
        datum is evaluated once, on all of its quadrature points."""
        F = np.zeros((len(self.cells), 4))
        if f is not None:
            fq = _at_points(f, self.fan_points[:, 0], self.fan_points[:, 1])
            np.add.at(F, self.fan_cell, fq[:, None] * self.fan_wN)
        d, n = self.dirichlet, self.neumann
        if g_dirichlet is not None and d.any():
            p = self.chord_points[d]
            gq = _at_points(g_dirichlet, p[..., 0], p[..., 1])
            F[d] += (lam[:, None] * np.einsum("kq,kqi->ki", gq, self.chord_wN[d])
                     - np.einsum("kq,kqi->ki", gq, self.chord_wnd[d]))
        if g_neumann is not None and n.any():
            p = self.chord_points[n]
            gq = _at_points(g_neumann, p[..., 0], p[..., 1])
            F[n] += np.einsum("kq,kqi->ki", gq, self.chord_wN[n])
        return F


def cut_cell_batch(cut_cells: list, grid: CartesianGrid) -> CutCellBatch:
    """Stack the cut cells and run every cut-cell kernel once over the batch.

    Polygons are grouped by vertex count (3, 4 or 5) so each group keeps its
    own centroid fan, with no padding.
    """
    h = grid.h
    K = len(cut_cells)
    cells = [cut.cell for cut in cut_cells]
    origins = (np.asarray(grid.origin, dtype=float)
               + h * np.array(cells, dtype=float).reshape(K, 2))
    vertices = np.array([len(cut.polygon) for cut in cut_cells], dtype=int)
    S = np.empty((K, 4, 4))
    area = np.empty(K)
    fan = []
    for m in (3, 4, 5):
        index = np.flatnonzero(vertices == m)
        polygons = np.array([cut_cells[k].polygon for k in index]).reshape(-1, m, 2)
        S[index], area[index], points, wN = fan_kernels(polygons, origins[index], h)
        fan.append((np.repeat(index, 6 * m), points, wN))
    fan_cell, fan_points, fan_wN = map(np.concatenate, zip(*fan))
    chord_points, chord_wN, chord_wnd, B, mass, consistency = chord_kernels(
        np.array([cut.chord for cut in cut_cells]).reshape(K, 2, 2),
        np.array([cut.normal for cut in cut_cells]).reshape(K, 2), origins, h)
    bc = np.array([cut.bc for cut in cut_cells], dtype=object)
    return CutCellBatch(
        h=h, cells=cells,
        nodes=np.array([cut.nodes for cut in cut_cells], dtype=np.intp).reshape(K, 4),
        vertices=vertices,
        theta=np.array([cut.theta for cut in cut_cells], dtype=float).reshape(K, 2),
        dirichlet=bc == DIRICHLET, neumann=bc == NEUMANN, area=area,
        S=S, B=B, mass=mass, consistency=consistency, chord_points=chord_points,
        chord_wN=chord_wN, chord_wnd=chord_wnd, fan_cell=fan_cell,
        fan_points=fan_points, fan_wN=fan_wN,
    )


def _one(kernel, *arrays, h: float) -> list:
    """A kernel run on a batch of one cell."""
    return kernel(*(np.asarray(a, dtype=float)[None] for a in arrays), h)


def q1_cell_stiffness(polygon: np.ndarray, h: float,
                      cell_origin: tuple) -> np.ndarray:
    """Stiffness integral of the four shape functions over the polygon."""
    return _one(fan_kernels, polygon, cell_origin, h=h)[0][0]


def polygon_source(polygon: np.ndarray, h: float, cell_origin: tuple,
                   f: Callable) -> np.ndarray:
    """Load integral of f against the shape functions over the polygon."""
    *_, points, wN = _one(fan_kernels, polygon, cell_origin, h=h)
    return _at_points(f, points[:, 0], points[:, 1]) @ wN


def nitsche_chord_terms(chord: np.ndarray, normal: np.ndarray, lam: float,
                        h: float, cell_origin: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Penalty and consistency matrices of a Dirichlet chord.

    Returns (penalty, consistency) with penalty_ij = lam * int N_i N_j dS and
    consistency_ij = int (n . grad N_j) N_i dS; the cell matrix gains
    penalty - consistency - consistency^T.
    """
    *_, mass, consistency = _one(chord_kernels, chord, normal, cell_origin, h=h)
    return lam * mass[0], consistency[0]


def chord_normal_gram(chord: np.ndarray, normal: np.ndarray, h: float,
                      cell_origin: tuple) -> np.ndarray:
    """Gram matrix int (n . grad N_i)(n . grad N_j) dS over the chord; the K
    of the local stabilization pencil."""
    return _one(chord_kernels, chord, normal, cell_origin, h=h)[3][0]


def chord_neumann_load(chord: np.ndarray, h: float, cell_origin: tuple,
                       g: Callable) -> np.ndarray:
    """Neumann chord load int g N_i dS (the normal does not enter it)."""
    points, wN, *_ = _one(chord_kernels, chord, np.zeros(2), cell_origin, h=h)
    return _at_points(g, points[0, :, 0], points[0, :, 1]) @ wN[0]


@dataclass
class ProblemSpec:
    """Continuous problem plus discretization choices.

    Attributes
    ----------
    levelset : LevelSet
        Implicit domain; the grid defaults to the level set's artificial
        domain tiled at spacing h.
    h : float
        Background grid spacing.
    f, g_dirichlet, g_neumann : callable or None
        Source and boundary data, vectorized over (x, y); None means zero.
    gamma : float
        Safety factor: the penalty is lambda_K = gamma * C(K).
    lambda_mode : str
        "local" sizes the penalty per cut cell; "global" uses the max of the
        local constants everywhere.
    stabilization_method : str
        "closed_form" uses the per-shape formulas (eigensolve for
        quadrilaterals); "local_eig" solves the 4x4 pencil on every cut cell.
    alpha : float
        Snapping exponent, threshold h^alpha.
    strong_predicate : callable or None
        Nodes (x, y) on the artificial boundary to constrain strongly.
    """

    levelset: LevelSet
    h: float
    f: Optional[Callable] = None
    g_dirichlet: Optional[Callable] = None
    g_neumann: Optional[Callable] = None
    gamma: float = 2.0
    lambda_mode: str = "local"
    stabilization_method: str = "closed_form"
    alpha: float = 1.75
    strong_predicate: Optional[Callable] = None
    grid: Optional[CartesianGrid] = None


@dataclass
class AssembledSystem:
    """Assembled system A u = F with its geometry and DOF bookkeeping."""

    problem: ProblemSpec
    grid: CartesianGrid
    field: SnappedNodeField
    classification: CellClassification
    cut_cells: list
    stabilization: "object"
    A: sp.csr_matrix
    F: np.ndarray
    active_dofs: np.ndarray
    strong_dofs: np.ndarray
    cut_dofs: np.ndarray

    @property
    def free_dofs(self) -> np.ndarray:
        return self.active_dofs & ~self.strong_dofs


def apply_strong_dirichlet(A: sp.csr_matrix, F: np.ndarray,
                           strong: np.ndarray, g: np.ndarray
                           ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Eliminate strongly constrained DOFs symmetrically.

    Constrained rows and columns become identity with the boundary value on
    the right-hand side; the eliminated column contributions move to the
    right-hand side of the free rows, so symmetry is preserved.
    """
    strong = np.asarray(strong, dtype=bool)
    g_vec = np.zeros(A.shape[0])
    g_vec[strong] = np.asarray(g)[strong] if np.ndim(g) else g
    F_out = F - A @ g_vec
    keep = sp.diags((~strong).astype(float))
    A_out = (keep @ A @ keep + sp.diags(strong.astype(float))).tocsr()
    A_out.eliminate_zeros()
    A_out.sum_duplicates()
    A_out.sort_indices()
    F_out[strong] = g_vec[strong]
    return A_out, F_out


def residual(system: AssembledSystem, u: np.ndarray) -> np.ndarray:
    """F - A u with zeros at inactive and strongly constrained DOFs."""
    r = system.F - system.A @ u
    r[~system.free_dofs] = 0.0
    return r


def assemble(problem: ProblemSpec) -> AssembledSystem:
    """Snap, classify, extract cut geometry, size the penalties and build the
    global system."""
    from ghostmg.stabilization import build_stabilization

    levelset = problem.levelset
    grid = problem.grid if problem.grid is not None else levelset.grid(problem.h)
    h = grid.h
    field = snap_nodes(grid, levelset, problem.alpha)
    classification = classify_cells(field)
    cut_cells = extract_cut_geometry(field, classification)
    batch = cut_cell_batch(cut_cells, grid)
    area_floor = 1e-14 * h * h
    degenerate = batch.area < area_floor
    if degenerate.any():
        k = np.argmax(degenerate)
        raise AssemblyError(
            f"cut cell {batch.cells[k]} has degenerate interior polygon "
            f"(area {batch.area[k]:.3e} < {area_floor:.3e})"
        )
    unknown = ~(batch.dirichlet | batch.neumann)
    if unknown.any():
        cut = cut_cells[np.argmax(unknown)]
        raise AssemblyError(f"cut cell {cut.cell} has unknown bc {cut.bc!r}")
    stabilization = build_stabilization(
        batch, grid, gamma=problem.gamma, mode=problem.lambda_mode,
        method=problem.stabilization_method,
    )
    dirichlet = np.flatnonzero(batch.dirichlet)
    lam = np.array([stabilization.lam.get(batch.cells[k], np.nan)
                    for k in dirichlet])
    unpenalized = ~(lam > 0.0)
    if unpenalized.any():
        k = dirichlet[np.argmax(unpenalized)]
        raise AssemblyError(
            f"Dirichlet cut cell {batch.cells[k]} lacks a positive penalty")

    num_nodes = grid.num_nodes
    F = np.zeros(num_nodes)

    # Internal cells all share the reference stiffness.
    in_js, in_is = np.nonzero(classification.internal)
    internal_nodes = cell_nodes(grid, in_is, in_js)
    if in_is.size and problem.f is not None:
        F += _internal_source(problem.f, grid, in_is, in_js, internal_nodes)

    cut_K = batch.S.copy()
    consistency = batch.consistency[dirichlet]
    cut_K[dirichlet] = (cut_K[dirichlet] + lam[:, None, None] * batch.mass[dirichlet]
                        - consistency - consistency.transpose(0, 2, 1))
    # Entries (i, j) and (j, i) accumulate the terms in different orders, so
    # they can drift apart by one ulp; average the halves to keep the
    # assembled operator bitwise symmetric.
    cut_K = 0.5 * (cut_K + cut_K.transpose(0, 2, 1))
    np.add.at(F, batch.nodes, batch.loads(lam, problem.f, problem.g_dirichlet,
                                          problem.g_neumann))

    active = classification.active_nodes
    inactive_idx = np.flatnonzero(~active)
    nodes = np.concatenate([internal_nodes, batch.nodes])
    A = sp.csr_matrix(
        (np.concatenate([np.tile(full_cell_stiffness().ravel(), in_is.size),
                         cut_K.ravel(), np.ones(inactive_idx.size)]),
         (np.concatenate([np.repeat(nodes, 4, axis=1).ravel(), inactive_idx]),
          np.concatenate([np.tile(nodes, (1, 4)).ravel(), inactive_idx]))),
        shape=(num_nodes, num_nodes),
    )
    A.sum_duplicates()
    A.sort_indices()
    F[~active] = 0.0

    strong = np.zeros(num_nodes, dtype=bool)
    if problem.strong_predicate is not None:
        X, Y = grid.node_coordinates()
        pred = problem.strong_predicate
        strong = np.array([pred(x, y) for x, y in zip(X, Y)], dtype=bool) & active
        if np.any(strong):
            if problem.g_dirichlet is not None:
                g_vals = np.asarray(problem.g_dirichlet(X, Y), dtype=float)
            else:
                g_vals = np.zeros(num_nodes)
            A, F = apply_strong_dirichlet(A, F, strong, g_vals)

    return AssembledSystem(
        problem=problem,
        grid=grid,
        field=field,
        classification=classification,
        cut_cells=cut_cells,
        stabilization=stabilization,
        A=A,
        F=F,
        active_dofs=active,
        strong_dofs=strong,
        cut_dofs=classification.cut_nodes & active & ~strong,
    )


def _internal_source(f: Callable, grid: CartesianGrid, in_is: np.ndarray,
                     in_js: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Vectorized load integral over all internal cells, 3x3 tensor Gauss."""
    h = grid.h
    x0, y0 = grid.origin
    xi_1d = 0.5 + 0.5 * _GAUSS_X
    w_1d = 0.5 * _GAUSS_W
    XI, ETA = np.meshgrid(xi_1d, xi_1d, indexing="ij")
    xi_q = XI.ravel()
    eta_q = ETA.ravel()
    w_q = np.outer(w_1d, w_1d).ravel() * h * h
    N = shape_values(xi_q, eta_q)  # (4, 9)
    cx = x0 + in_is * h
    cy = y0 + in_js * h
    xq = cx[:, None] + xi_q[None, :] * h   # (cells, 9)
    yq = cy[:, None] + eta_q[None, :] * h
    fq = _at_points(f, xq, yq)
    loads = (fq * w_q[None, :]) @ N.T      # (cells, 4)
    F = np.zeros(grid.num_nodes)
    np.add.at(F, nodes, loads)
    return F

"""Bilinear-element assembly of the Nitsche ghost system in 2D.

Every active cell contributes the stiffness of its interior part; cut cells
with a Dirichlet chord additionally contribute the penalty and consistency
chord integrals, and Neumann chords load the right-hand side.
A level is its cells (`PenaltyCells`): the full cells, and a list of the
others, each with its block K0 without the penalty and, where it has a
Dirichlet chord, the penalty lam M.  `PenaltyCells.operator` assembles every
operator, the finest in 1D and 2D and each coarse one, from its cells: K0 +
lam M, symmetrized, on the listed cells, the reference stiffness on the
other full ones.  It emits canonical CSR on the fixed 9-point pattern
(3-point in 1D) for the rows it is asked for, each gathered from the cells
around it, and the columns `number_dofs` gives, the level's free DOFs.  A
strong Dirichlet node is no DOF: its couplings, from the same builder with
the strong nodes as columns, move to the right-hand side.  The whole-grid
matrix is a view built on first use (`AssembledSystem.A`).

Cut cells are integrated in one batched pass, `cut_cell_batch`, over the
arrays of `extract_cut_geometry`: polygons come grouped by vertex count (3, 4
or 5) so each group keeps its own centroid fan, and each integral is one
einsum over the batch.  Polygon integrals use a degree-2 rule per fan
triangle for stiffness and a degree-4 rule for sources; chord integrals use
3-point Gauss.  All of those are exact for the polynomial integrands at hand
(the source rule is exact through cubics).  f and each g are evaluated once,
on all of their quadrature points.  The stabilization sizes its penalties
from the same stiffness S and chord flux Gram B; `fan_kernels` and
`chord_kernels` are the only cut-cell kernels.

The internal cells' source is 3x3 tensor Gauss per cell, and those points
lie on three lines per cell row and column: f is called once more, on that
lattice over the internal cells' bounding box (a row of x and a column of
y), each axis is contracted with the 1D weights times the 1D hats, and the
loads land on the nodes by slice adds, with no per-cell arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ghostmg import stabilization
from ghostmg.geometry import (
    CORNERS,
    DIRICHLET,
    NEUMANN,
    CartesianGrid,
    CellClassification,
    CutCells,
    LevelSet,
    SnappedNodeField,
    classify_cells,
    extract_cut_geometry,
    snap_nodes,
)


class AssemblyError(Exception):
    """Input handed to the assembler is unusable: a degenerate polygon, a
    chord of unknown boundary condition, or data of the wrong shape."""


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


def _local(points: np.ndarray, origins: np.ndarray, h: float):
    """Local (xi, eta) of physical points (K, ..., 2) in the cells whose
    lower-left corners are `origins` (K, 2)."""
    o = origins.reshape((-1,) + (1,) * (points.ndim - 2) + (2,))
    return (points[..., 0] - o[..., 0]) / h, (points[..., 1] - o[..., 1]) / h


def _at_points(fn: Callable, x: np.ndarray, y: np.ndarray,
               name: str) -> np.ndarray:
    """The datum `name`, fn, at the points (x, y), broadcast to their
    broadcast shape so that data returning a scalar works too."""
    shape = np.broadcast_shapes(x.shape, y.shape)
    value = np.asarray(fn(x, y), dtype=float)
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise AssemblyError(
            f"{name} returned shape {value.shape} on points of shape {shape}; "
            "data must broadcast like numpy ufuncs: return a scalar or an "
            "array that broadcasts to the shape of x + y") from None


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
    """The K cut cells of a grid with every cut-cell integral that does not
    depend on data."""

    cut_cells: CutCells        # the geometry, in its order
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
        K = len(self.area)
        F = np.zeros((K, 4))
        if f is not None:
            p = self.fan_points
            fq = _at_points(f, p[:, 0], p[:, 1], "f")
            slots = 4 * self.fan_cell[:, None] + np.arange(4)
            F = np.bincount(slots.ravel(), (fq[:, None] * self.fan_wN).ravel(),
                            minlength=4 * K).reshape(K, 4)
        d, n = self.dirichlet, self.neumann
        if g_dirichlet is not None and d.any():
            p = self.chord_points[d]
            gq = _at_points(g_dirichlet, p[..., 0], p[..., 1], "g_dirichlet")
            F[d] += (lam[:, None] * np.einsum("kq,kqi->ki", gq, self.chord_wN[d])
                     - np.einsum("kq,kqi->ki", gq, self.chord_wnd[d]))
        if g_neumann is not None and n.any():
            p = self.chord_points[n]
            gq = _at_points(g_neumann, p[..., 0], p[..., 1], "g_neumann")
            F[n] += np.einsum("kq,kqi->ki", gq, self.chord_wN[n])
        return F


def cut_cell_batch(cut_cells: CutCells) -> CutCellBatch:
    """Run every cut-cell kernel once over the cut cells, each vertex-count
    group of polygons with its own centroid fan, with no padding."""
    grid = cut_cells.grid
    h = grid.h
    K = len(cut_cells)
    origins = np.asarray(grid.origin, dtype=float) + h * cut_cells.cells
    S = np.empty((K, 4, 4))
    area = np.empty(K)
    fan = []
    for m, (index, polygons) in cut_cells.polygons.items():
        S[index], area[index], points, wN = fan_kernels(polygons, origins[index], h)
        fan.append((np.repeat(index, 6 * m), points, wN))
    fan_cell, fan_points, fan_wN = map(np.concatenate, zip(*fan))
    chord_points, chord_wN, chord_wnd, B, mass, consistency = chord_kernels(
        cut_cells.chord, cut_cells.normal, origins, h)
    return CutCellBatch(
        cut_cells=cut_cells, dirichlet=cut_cells.bc == DIRICHLET,
        neumann=cut_cells.bc == NEUMANN, area=area,
        S=S, B=B, mass=mass, consistency=consistency, chord_points=chord_points,
        chord_wN=chord_wN, chord_wnd=chord_wnd, fan_cell=fan_cell,
        fan_points=fan_points, fan_wN=fan_wN,
    )


@dataclass
class ProblemSpec:
    """Continuous problem plus discretization choices.

    Attributes
    ----------
    levelset : LevelSet
        Implicit domain; the grid is the level set's artificial domain tiled
        at spacing h.
    h : float
        Background grid spacing.
    f, g_dirichlet, g_neumann : callable or None
        Source and boundary data; None means zero.  Each is called with
        arrays x and y that broadcast against each other, and returns a
        scalar or an array that broadcasts to their shape, as numpy ufuncs
        do: for the internal cells, f gets a row of x and a column of y, the
        Gauss lattice over the internal cells' bounding box, which reaches
        off the domain, where its values are dropped.
    gamma : float
        Safety factor: the penalty is lambda_K = gamma * C(K), C(K) the
        cell's trace constant, by the rule `stabilization.penalties`, which
        raises ValueError unless gamma and every penalty are finite and
        positive.
    lambda_mode : str
        "local" sizes the penalty per cut cell; "global" uses the max of the
        local constants everywhere.
    alpha : float
        Snapping exponent, threshold h^alpha.
    """

    levelset: LevelSet
    h: float
    f: Optional[Callable] = None
    g_dirichlet: Optional[Callable] = None
    g_neumann: Optional[Callable] = None
    gamma: float = 2.0
    lambda_mode: str = "local"
    alpha: float = 1.75


@dataclass
class AssembledSystem:
    """Assembled system A u = F with its geometry and DOF bookkeeping:
    operator is A on the free DOFs numbered by `dofs` (`number_dofs`), the
    hierarchy's finest level, and penalty the cells it is assembled from
    and the hierarchy pools.  F is on every grid node: zero on the inactive
    ones, the boundary value on the strong ones."""

    problem: ProblemSpec
    grid: CartesianGrid
    field: SnappedNodeField
    classification: CellClassification
    cut_cells: CutCells
    stabilization: stabilization.StabilizationField
    penalty: PenaltyCells
    operator: sp.csr_matrix
    dofs: Dofs
    F: np.ndarray
    active_dofs: np.ndarray
    strong_dofs: np.ndarray

    @property
    def free_dofs(self) -> np.ndarray:
        return self.dofs.free

    @cached_property
    def A(self) -> sp.csr_matrix:
        """The whole-grid view, built from `operator` on first use: canonical
        CSR in node order, with an identity row and column on each
        constrained node.  Neither assembly nor the hierarchy reads it."""
        N, free, order = self.grid.num_nodes, self.dofs.free, self.dofs.order
        rows = self.operator[np.argsort(order)]
        counts = np.ones(N, dtype=np.int32)
        counts[free] = np.diff(rows.indptr)
        # Each constrained row holds its diagonal only.
        indices = np.repeat(np.arange(N, dtype=np.int32), counts)
        data = np.ones(indices.size)
        inside = np.repeat(free, counts)
        indices[inside], data[inside] = order[rows.indices], rows.data
        indptr = np.concatenate(([0], np.cumsum(counts)))
        A = sp.csr_matrix((data, indices, indptr), (N, N))
        A.sort_indices()
        return A


def assemble(problem: ProblemSpec) -> AssembledSystem:
    """Snap, classify, extract cut geometry, size the penalties and build the
    system from its cells, on its free DOFs.  Where the level set's params
    hold a "strong_predicate", as the rectangle's do, the nodes (x, y) it
    marks are constrained strongly.  It is called once on the node
    coordinate arrays, like f and g, so it must combine conditions with |
    and &, not `or` and `and`."""
    levelset = problem.levelset
    grid = levelset.grid(problem.h)
    h = grid.h
    field = snap_nodes(grid, levelset, problem.alpha)
    classification = classify_cells(field)
    cut_cells = extract_cut_geometry(field, classification)
    batch = cut_cell_batch(cut_cells)
    area_floor = 1e-14 * h * h
    degenerate = batch.area < area_floor
    if degenerate.any():
        k = np.argmax(degenerate)
        raise AssemblyError(
            f"cut cell {cut_cells.cell(k)} has degenerate interior polygon "
            f"(area {batch.area[k]:.3e} < {area_floor:.3e})"
        )
    unknown = ~(batch.dirichlet | batch.neumann)
    if unknown.any():
        k = np.argmax(unknown)
        raise AssemblyError(
            f"cut cell {cut_cells.cell(k)} has unknown bc {str(cut_cells.bc[k])!r}")
    stab = stabilization.build_stabilization(
        batch, gamma=problem.gamma, mode=problem.lambda_mode)
    dirichlet = np.flatnonzero(batch.dirichlet)

    active = classification.active_nodes
    strong = np.zeros(grid.num_nodes, dtype=bool)
    predicate = levelset.params.get("strong_predicate")
    if predicate is not None:
        X, Y = grid.node_coordinates()
        strong = np.broadcast_to(np.asarray(predicate(X, Y), dtype=bool),
                                 X.shape) & active
    # The cells: every cut cell, and every internal cell with a strong
    # corner, which holds the reference stiffness on its free corners only.
    at = strong.reshape(grid.nodes_per_side, -1)
    js, is_ = np.nonzero(classification.internal & (
        at[:-1, :-1] | at[:-1, 1:] | at[1:, :-1] | at[1:, 1:]))
    cells = np.concatenate([cut_cells.cells, np.stack((is_, js), 1)])
    reference = full_cell_stiffness()
    K0 = np.concatenate([batch.S, np.broadcast_to(reference, (is_.size, 4, 4))])
    consistency = batch.consistency[dirichlet]
    K0[dirichlet] -= consistency + consistency.transpose(0, 2, 1)
    S, B, M = np.zeros((3,) + K0.shape)
    S[dirichlet], B[dirichlet], M[dirichlet] = (
        batch.S[dirichlet], batch.B[dirichlet], batch.mass[dirichlet])
    lam = np.zeros(len(cells))
    lam[dirichlet] = stab.lam
    penalty = PenaltyCells(
        cells=cells, S=S, B=B, M=M, lam=lam,
        full=classification.internal.ravel(), reference=reference,
        gamma=problem.gamma, mode=problem.lambda_mode, K0=K0)
    dofs = number_dofs(active & ~strong, classification.cut_nodes, grid)

    # The cut cells' loads accumulate in row-major cell order; the
    # internal cells' source, from the lattice, is added to them.
    F = np.bincount(cut_cells.nodes.ravel(), batch.loads(
        stab.lam, problem.f, problem.g_dirichlet, problem.g_neumann).ravel(),
        minlength=grid.num_nodes)
    if problem.f is not None:
        F += _internal_source(problem.f, grid, classification.internal)
    F[~active] = 0.0
    if strong.any():
        # F - A g over the free rows, on the strong columns in node order.
        # Those couplings lie in listed cells only, at most two per pair of
        # nodes, so they are A's entries bit for bit.
        g = np.zeros(np.count_nonzero(strong))
        if problem.g_dirichlet is not None:
            g = _at_points(problem.g_dirichlet, X, Y, "g_dirichlet")[strong]
        column = np.full(grid.num_nodes, -1, dtype=np.int32)
        column[strong] = np.arange(g.size, dtype=np.int32)
        F[dofs.order] -= penalty.operator(grid, dofs.order, column) @ g
        F[strong] = g

    return AssembledSystem(
        problem=problem, grid=grid, field=field, classification=classification,
        cut_cells=cut_cells, stabilization=stab, penalty=penalty,
        operator=penalty.operator(grid, dofs.order, dofs.dof), dofs=dofs,
        F=F, active_dofs=active, strong_dofs=strong)


# Stencil slot sum_d 3**d (offset_d + 1) of the coupling from cell corner a
# to cell corner b, per dimension.
_SLOT = {d: (c[None] - c[:, None] + 1) @ 3 ** np.arange(d)
         for d, c in CORNERS.items()}
# The cells around a node in row-major order hold it as their corner: right,
# left in 1D; TR, TL, BR, BL in 2D (cells SW, SE, NW, NE).
_AROUND = {1: (1, 0), 2: (2, 3, 1, 0)}
# Rows per block of the operator; a block's temporaries stay near 2 MB.
_BLOCK_ROWS = 1 << 15


@dataclass(eq=False)
class PenaltyCells:
    """The cells of one grid, with what the coarser grids' penalties and
    operators are pooled from.

    cells (K, dim) holds, i first and in any order, every active cell whose
    operator block is not `reference` on its free corners; K0 (K, m, m),
    over the cell's m = 2**dim corners in `geometry.CORNERS` order, its
    block less the penalty lam M.  S, B and M (K, m, m) hold its interior
    stiffness, chord flux Gram and chord mass, and lam (K,) its penalty; the
    four are zero on a cell without a Dirichlet chord, so lam > 0 marks a
    penalty cell.  full (n**dim,) marks the cells wholly inside the domain
    by flat index i + n j; their stiffness is `reference`.  gamma is the
    safety factor of the penalty over the trace constant, and mode the rule
    that sized lam, "local" per cell or "global" (one value for all penalty
    cells), which the coarser grids keep.
    """

    cells: np.ndarray
    S: np.ndarray
    B: np.ndarray
    M: np.ndarray
    lam: np.ndarray
    full: np.ndarray
    reference: np.ndarray
    gamma: float
    mode: str
    K0: np.ndarray

    def blocks(self) -> np.ndarray:
        """The cells' operator blocks K0 + lam M, symmetrized."""
        K = self.K0 + self.lam[:, None, None] * self.M
        # Entries (i, j) and (j, i) accumulate the terms in different
        # orders, so they can drift apart by one ulp; averaging the halves
        # keeps the operator bitwise symmetric.
        return 0.5 * (K + K.transpose(0, 2, 1))

    def operator(self, grid: CartesianGrid, rows: np.ndarray,
                 dof: np.ndarray) -> sp.csr_matrix:
        """The operator of the grid these cells tile on its 3**dim-point
        pattern, canonical CSR: a row per node of `rows`, in order, and the
        column dof[q] for node q, couplings to a node of DOF -1 dropped
        (`number_dofs`).

        A coupling sums over the cells that hold both nodes in row-major
        order, first the full cells that are not listed, with the reference
        stiffness, then the listed cells, with their blocks.  It is stored
        where some such cell holds both nodes, whatever its value.  Only the
        cells around the rows are read.
        """
        n, dim = grid.n, grid.dim
        m, slot, size = 2 ** dim, _SLOT[dim], 3 ** dim
        # The kind of each cell, on the grid padded by one cell per side:
        # 0 no cell, 1 a full cell that is not listed, k + 2 listed cell k.
        stride = (n + 2) ** np.arange(dim)
        kinds = np.zeros((n + 2,) * dim, dtype=np.int32)
        kinds[(slice(1, -1),) * dim] = np.reshape(self.full, (n,) * dim)
        kinds = kinds.reshape(-1)
        kinds[(self.cells + 1) @ stride] = np.arange(
            2, len(self.cells) + 2, dtype=np.int32)
        # Row m a + b holds coupling (a, b) of each kind of cell.
        table = np.concatenate([np.zeros((2, m * m)),
                                self.blocks().reshape(-1, m * m)]).T.copy()
        # Padded cell i + (n + 2) j holds node i + (n + 1) j as its TR
        # corner (right in 1D); these steps reach the cell that holds it as
        # corner a.
        around = (1 - CORNERS[dim]) @ stride
        shifts = ((np.arange(size)[:, None] // 3 ** np.arange(dim) % 3 - 1)
                  @ (n + 1) ** np.arange(dim)).astype(np.int32)
        counts, data, indices = [], [], []
        for start in range(0, rows.size, _BLOCK_ROWS):
            row = rows[start:start + _BLOCK_ROWS]
            kind = kinds.take((row if dim == 1 else row + row // (n + 1))
                              + around[:, None])
            values = np.zeros((size, row.size))
            stored = np.zeros((size, row.size), dtype=bool)
            for a in _AROUND[dim]:
                full, held = (kind[a] == 1).astype(float), kind[a] > 0
                for b in range(m):
                    values[slot[a, b]] += full * self.reference[a, b]
                    stored[slot[a, b]] |= held
            for a in _AROUND[dim]:
                for b in range(m):
                    values[slot[a, b]] += table[m * a + b].take(kind[a])
            # Couplings off the grid are not stored, so clipping is safe.
            cols = dof.take(row + shifts[:, None], mode="clip")
            keep = (stored & (cols >= 0)).T
            counts.append(keep.sum(axis=1))
            data.append(values.T[keep])
            indices.append(cols.T[keep])
        # Distinct slots are distinct columns, so no entry repeats.
        A = sp.csr_matrix(
            (np.concatenate(data), np.concatenate(indices),
             np.concatenate(([0], np.cumsum(np.concatenate(counts))))),
            shape=(rows.size, dof.max(initial=-1) + 1))
        A.sort_indices()
        return A


@dataclass(frozen=True, eq=False)
class Dofs:
    """The DOFs of a level, from `number_dofs`: the masks of the free nodes
    and of the free cut nodes, the grid node of each DOF (order), the DOF
    of each node (dof, -1 off the free nodes), the sorted DOFs of the cut
    nodes (cut_at), and the first DOF of each colour class, then N
    (bounds, (0, N) in 1D)."""

    free: np.ndarray
    cut: np.ndarray
    order: np.ndarray
    dof: np.ndarray
    cut_at: np.ndarray
    bounds: np.ndarray


def number_dofs(free: np.ndarray, cut: np.ndarray,
                grid: CartesianGrid) -> Dofs:
    """The DOFs of a level: the free nodes, in 2D sorted by colour class
    (i % 2) + 2 (j % 2), cut nodes first within a class and node order after
    that; in 1D in node order.  Cut nodes off `free` are no cut DOFs."""
    cut = cut & free
    order = np.flatnonzero(free)
    bounds = np.array([0, order.size])
    if grid.dim == 2:
        j, i = np.divmod(order, grid.n + 1)
        # A stable sort of small integers is a radix sort.
        key = (2 * (i % 2 + 2 * (j % 2)) + ~cut[order]).astype(np.int8)
        order = order[np.argsort(key, kind="stable")]
        # Keys 2 c and 2 c + 1 are class c's cut and other nodes.
        counts = np.bincount(key, minlength=8).reshape(4, 2).sum(axis=1)
        bounds = np.concatenate(([0], np.cumsum(counts)))
    dof = np.full(grid.num_nodes, -1, dtype=np.int32)
    dof[order] = np.arange(order.size, dtype=np.int32)
    return Dofs(free=free, cut=cut, order=order, dof=dof,
                cut_at=np.flatnonzero(cut[order]), bounds=bounds)


def _internal_source(f: Callable, grid: CartesianGrid,
                     internal: np.ndarray) -> np.ndarray:
    """The source loads of the internal cells on every grid node, 3x3
    tensor Gauss per cell.

    The cells' Gauss points lie on three lines per cell column and per cell
    row, so f is called once on the lattice over the cells' bounding box: a
    row of x and a column of y.  Each axis is then contracted with the 1D
    weights times the 1D hats of the cell's two corners, cells outside
    `internal` (n, n) are dropped, and each corner's loads land on the
    nodes by one shifted slice add.
    """
    n, h = grid.n, grid.h
    F = np.zeros((n + 1, n + 1))
    rows, cols = np.flatnonzero(internal.any(axis=1)), \
        np.flatnonzero(internal.any(axis=0))
    if not rows.size:
        return F.ravel()
    j0, j1, i0, i1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    xi = 0.5 + 0.5 * _GAUSS_X
    x0, y0 = grid.origin
    xs = ((x0 + h * np.arange(i0, i1))[:, None] + h * xi).reshape(1, -1)
    ys = ((y0 + h * np.arange(j0, j1))[:, None] + h * xi).reshape(-1, 1)
    # A datum that broadcasts, a scalar say, is laid out in full, so that
    # the products below run as they do for its array form.
    fq = np.ascontiguousarray(_at_points(f, xs, ys, "f"))    # (3 nj, 3 ni)
    # Row q: the weight of Gauss point q times the hats of the left and
    # right corner there, times h.
    W = (0.5 * h * _GAUSS_W)[:, None] * np.stack((1.0 - xi, xi), axis=1)
    nj, ni = j1 - j0, i1 - i0
    # f may be anything off the domain, inf too: the other cells' loads are
    # dropped, not scaled by zero, and the flags they raise are not news.
    with np.errstate(invalid="ignore"):
        loads = (fq.reshape(-1, 3) @ W).reshape(nj, 3, 2 * ni)
        loads = (W.T @ loads).reshape(nj, 2, ni, 2)  # cell j, corner y, i, x
    inside = internal[j0:j1, i0:i1]
    for b in range(2):
        for a in range(2):
            corner = F[j0 + b:j1 + b, i0 + a:i1 + a]
            np.add(corner, loads[:, b, :, a], out=corner, where=inside)
    return F.ravel()

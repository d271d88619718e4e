"""Background grids, level sets, snapping and cut-cell geometry.

The computational domain is the negative region of a level-set function
sampled at the nodes of a uniform Cartesian grid.  Nodal values close to zero
are snapped to exactly zero, cells are classified internal / cut / external
from the vertex signs, and each cut cell yields an interior polygon plus a
straight boundary chord between the two edge crossings.

Conventions
-----------
* Node (i, j) sits at (x0 + i h, y0 + j h); the flat node index is
  k = i + j (n + 1).
* A vertex is interior when its snapped value is strictly negative; a snapped
  zero sits on the boundary.  Cells whose boundary chord would degenerate to
  a point (three negative vertices, fourth exactly zero) count as internal so
  no zero-measure cut geometry is ever produced.
* Cut-cell polygons are counterclockwise; the chord is the polygon edge that
  crosses the cell, and its outward unit normal points into the positive
  region.
* Cut cells are extracted all at once, marching-squares style: the corner
  signs of a cell select its counterclockwise walk, and every crossing,
  polygon, chord and normal is an array operation over all cut cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class CheckerboardCellError(Exception):
    """A cut cell has its two interior vertices on a diagonal, so the linear
    chord reconstruction is ambiguous.  These configurations are rejected."""


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform square background grid with n cells per side.

    Attributes
    ----------
    n : int
        Cells per side; multigrid hierarchies additionally require a power of
        two.
    origin : tuple of float
        Coordinates of the lower-left node of the artificial domain.
    extent : float
        Side length of the artificial domain, so h = extent / n.
    """

    n: int
    origin: tuple
    extent: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one cell")
        if self.extent <= 0.0:
            raise ValueError("grid extent must be positive")

    @property
    def dim(self) -> int:
        return len(self.origin)

    @property
    def h(self) -> float:
        return self.extent / self.n

    @property
    def nodes_per_side(self) -> int:
        return self.n + 1

    @property
    def num_nodes(self) -> int:
        return self.nodes_per_side ** self.dim

    def node_coordinates(self) -> tuple[np.ndarray, ...]:
        """Nodal coordinate arrays, flattened in node-index order."""
        side = self.origin[0] + self.h * np.arange(self.nodes_per_side)
        if self.dim == 1:
            return (side,)
        ys = self.origin[1] + self.h * np.arange(self.nodes_per_side)
        X, Y = np.meshgrid(side, ys, indexing="xy")
        return X.ravel(), Y.ravel()

    def coarsen(self) -> "CartesianGrid":
        if self.n % 2 != 0:
            raise ValueError(f"cannot coarsen a grid with odd n = {self.n}")
        return CartesianGrid(self.n // 2, self.origin, self.extent)


@dataclass(frozen=True)
class LevelSet:
    """Implicit domain description: the domain is where the level set is
    negative; the zero set approximates the boundary.

    Multi-component level sets combine as a pointwise max, so the domain is
    the intersection of the component domains.  Boundary-condition assignment
    for a chord uses `bc_predicate` when given (True means Dirichlet),
    otherwise the tag of the component that is active (closest to zero) at
    the chord midpoint.
    """

    name: str
    components: tuple
    bc_tags: tuple
    bc_predicate: Optional[Callable[[float, float], bool]] = None
    params: dict = field(default_factory=dict)
    art_origin: tuple = (0.0, 0.0)
    art_extent: float = 1.0

    def evaluate(self, x, y):
        """Level-set values, the max over components."""
        vals = self.components[0](x, y)
        for comp in self.components[1:]:
            vals = np.maximum(vals, comp(x, y))
        return vals

    def chord_bc(self, x, y):
        """Boundary-condition tag for a chord through (x, y); array
        coordinates give an array of tags.  The predicate and the components
        take arrays, like the level set itself."""
        if self.bc_predicate is not None:
            dirichlet = np.broadcast_to(self.bc_predicate(x, y), np.shape(x))
            tags = np.where(dirichlet, DIRICHLET, NEUMANN)
        else:
            distance = np.abs(np.broadcast_arrays(
                *(comp(x, y) for comp in self.components)))
            tags = np.asarray(self.bc_tags)[np.argmin(distance, axis=0)]
        return tags if np.ndim(x) else str(tags)

    def grid(self, h: float) -> CartesianGrid:
        """Background grid of spacing h covering the artificial domain."""
        n = self.art_extent / h if math.isfinite(h) and h > 0.0 else math.nan
        n_int = int(round(n)) if math.isfinite(n) else 0
        if abs(n - n_int) > 1e-12 or n_int < 1:
            raise ValueError(f"h = {h} is no finite spacing > 0 that tiles "
                             f"extent {self.art_extent}")
        return CartesianGrid(n_int, self.art_origin, self.art_extent)


@dataclass
class SnappedNodeField:
    """Nodal level-set values after snapping |psi| < h^alpha to exactly 0."""

    grid: CartesianGrid
    levelset: LevelSet
    values: np.ndarray
    alpha: float
    threshold: float
    num_snapped: int


@dataclass
class CellClassification:
    """Vertex-sign classification of every background cell.

    Boolean masks are (n, n) arrays indexed [j, i] (row = y).  Node masks are
    flat over the (n+1)^2 nodes.
    """

    grid: CartesianGrid
    internal: np.ndarray
    cut: np.ndarray
    external: np.ndarray
    active_nodes: np.ndarray
    cut_nodes: np.ndarray


@dataclass(eq=False)
class CutCells:
    """The K cut cells of a grid in row-major cell order, as arrays.

    Polygons are grouped by vertex count: polygons[m] holds the indices of
    the cells with m vertices and their (K_m, m, 2) counterclockwise
    vertices, the interior polygons.  The chord is the polygon edge that
    crosses the cell; its unit normal points out of the domain.  Crossing
    fractions are measured along each crossed edge from its interior
    endpoint.
    """

    grid: CartesianGrid
    cells: np.ndarray      # (K, 2) cell indices (i, j)
    nodes: np.ndarray      # (K, 4) corner nodes BL, BR, TR, TL
    vertices: np.ndarray   # (K,) polygon vertex count, 3, 4 or 5
    theta: np.ndarray      # (K, 2) crossing fractions in walk order
    polygons: dict         # m -> (cell indices, polygons)
    chord: np.ndarray      # (K, 2, 2) chord endpoints
    normal: np.ndarray     # (K, 2) outward unit chord normals
    bc: np.ndarray         # (K,) chord boundary-condition tags

    def __len__(self) -> int:
        return len(self.cells)

    def cell(self, k: int) -> tuple:
        """(i, j) of cut cell k."""
        return tuple(self.cells[k].tolist())


def snap_nodes(grid: CartesianGrid, levelset: LevelSet, alpha: float) -> SnappedNodeField:
    """Evaluate the level set at the nodes and snap near-zero values to 0.

    Every node with |psi| < h^alpha stores exactly 0, which removes the
    smallest cut fractions; `ProblemSpec` defaults to alpha = 1.75.  Only 2D
    grids snap: the interval's ends are given by its cut fractions.
    """
    X, Y = grid.node_coordinates()
    values = np.asarray(levelset.evaluate(X, Y), dtype=float)
    threshold = grid.h ** alpha
    snapped = np.abs(values) < threshold
    values = values.copy()
    values[snapped] = 0.0
    return SnappedNodeField(grid, levelset, values, alpha, threshold,
                            int(np.count_nonzero(snapped)))


def classify_cells(field: SnappedNodeField) -> CellClassification:
    """Classify every cell from the signs of its snapped vertex values.

    A vertex is interior iff its value is strictly negative.  With n_neg the
    count of interior vertices and n_pos the count of strictly positive ones:
    external has n_neg == 0; internal has n_neg == 4, or n_neg == 3 with
    n_pos == 0 (chord collapsed to one corner, zero boundary measure);
    everything else is cut.
    """
    grid = field.grid
    n = grid.n
    V = field.values.reshape(grid.nodes_per_side, grid.nodes_per_side)
    neg = V < 0.0
    pos = V > 0.0
    n_neg = (neg[:-1, :-1].astype(np.int8) + neg[:-1, 1:] + neg[1:, :-1] + neg[1:, 1:])
    n_pos = (pos[:-1, :-1].astype(np.int8) + pos[:-1, 1:] + pos[1:, :-1] + pos[1:, 1:])
    external = n_neg == 0
    internal = (n_neg == 4) | ((n_neg == 3) & (n_pos == 0))
    cut = ~(external | internal)

    def nodes_of(cell_mask: np.ndarray) -> np.ndarray:
        m = np.zeros((grid.nodes_per_side, grid.nodes_per_side), dtype=bool)
        m[:-1, :-1] |= cell_mask
        m[:-1, 1:] |= cell_mask
        m[1:, :-1] |= cell_mask
        m[1:, 1:] |= cell_mask
        return m.ravel()

    return CellClassification(
        grid=grid,
        internal=internal,
        cut=cut,
        external=external,
        active_nodes=nodes_of(internal | cut),
        cut_nodes=nodes_of(cut),
    )


# Corner offsets of the cell corners BL, BR, TR, TL (counterclockwise).
CORNER_DX = np.array([0, 1, 1, 0])
CORNER_DY = np.array([0, 0, 1, 1])
#: Corner offsets of a cell, (m, dim): left, right in 1D; BL, BR, TR, TL in
#: 2D, the corner order of the cut-cell kernels.
CORNERS = {1: np.array([[0], [1]]),
           2: np.stack([CORNER_DX, CORNER_DY], axis=1)}


def corner_nodes(cells: np.ndarray, n: int) -> np.ndarray:
    """Grid node of each corner of the cells (K, dim), i first, in `CORNERS`
    order, (K, m), on a grid of n cells per side."""
    weights = (n + 1) ** np.arange(cells.shape[1])
    return (cells @ weights)[:, None] + CORNERS[cells.shape[1]] @ weights


# The scalar math.hypot as a ufunc: np.hypot rounds differently in the last
# bit on about 0.6 % of chords, which would move thin-cut operator entries by
# up to 6e-14 relative.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def extract_cut_geometry(field: SnappedNodeField,
                         classification: Optional[CellClassification] = None
                         ) -> CutCells:
    """Interior polygon, chord, normal and bc tag for every cut cell.

    A cell's corner signs are its case: walking its corners
    counterclockwise keeps each interior corner k and, after it, the
    crossing on edge k (corner k to k + 1) when the edge's ends differ in
    sign.  The chord runs from the crossing where the walk leaves the
    interior to the one where it re-enters.  Cells whose two interior
    vertices lie on a diagonal, and chords of zero length, are rejected
    (CheckerboardCellError, naming the first such cell in row-major order).
    """
    if classification is None:
        classification = classify_cells(field)
    grid = field.grid
    nps = grid.nodes_per_side
    h = grid.h
    x0, y0 = grid.origin
    js, is_ = np.nonzero(classification.cut)
    ci = is_[:, None] + CORNER_DX
    cj = js[:, None] + CORNER_DY
    psi = field.values.reshape(nps, nps)[cj, ci]                  # (K, 4)
    xy = np.stack((x0 + ci * h, y0 + cj * h), axis=-1)            # (K, 4, 2)
    neg = psi < 0.0
    # Edge k runs from corner k to corner k + 1.
    ahead, psi_ahead, xy_ahead = (np.roll(v, -1, axis=1) for v in (neg, psi, xy))
    crossed = neg != ahead
    # Crossing of each edge, measured from its interior end; only the crossed
    # edges are read.
    psi_in = np.where(neg, psi, psi_ahead)
    psi_out = np.where(neg, psi_ahead, psi)
    xy_in = np.where(neg[..., None], xy, xy_ahead)
    xy_out = np.where(neg[..., None], xy_ahead, xy)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = psi_in / (psi_in - psi_out)
        crossing = xy_in + theta[..., None] * (xy_out - xy_in)
    ok = crossed.sum(axis=1) == 2
    chord = np.stack((crossing[neg & ~ahead & ok[:, None]],
                      crossing[~neg & ahead & ok[:, None]]), axis=1)
    t = chord[:, 1] - chord[:, 0]
    length = _hypot(t[:, 0], t[:, 1]).astype(float)
    bad = ~ok
    bad[ok] = length == 0.0
    if bad.any():
        k = int(np.argmax(bad))
        found = int(crossed[k].sum())
        reason = ("interior vertices on a diagonal; refine the grid or adjust "
                  "the level set" if found == 4 else
                  f"expected 2 edge crossings, found {found}" if found != 2
                  else "degenerate zero-length chord")
        raise CheckerboardCellError(f"cell {(int(is_[k]), int(js[k]))}: {reason}")
    walk = np.stack((neg, crossed), axis=2).reshape(-1, 8)
    points = np.stack((xy, crossing), axis=2).reshape(-1, 8, 2)
    vertices = walk.sum(axis=1)
    polygons = {}
    for m in (3, 4, 5):
        index = np.flatnonzero(vertices == m)
        polygons[m] = (index, points[index][walk[index]].reshape(-1, m, 2))
    mid = 0.5 * (chord[:, 0] + chord[:, 1])
    return CutCells(
        grid=grid,
        cells=np.stack((is_, js), axis=1),
        nodes=cj * nps + ci,
        vertices=vertices,
        theta=theta[crossed].reshape(-1, 2),
        polygons=polygons,
        chord=chord,
        normal=np.stack((t[:, 1], -t[:, 0]), axis=1) / length[:, None],
        bc=field.levelset.chord_bc(mid[:, 0], mid[:, 1]),
    )


# ---------------------------------------------------------------------------
# Benchmark domain catalog
# ---------------------------------------------------------------------------

def _disk(params: dict) -> LevelSet:
    cx, cy = params.get("center", (0.5, 0.5))
    r = params.get("radius", 0.4)

    def psi(x, y):
        return (x - cx) ** 2 + (y - cy) ** 2 - r ** 2

    return LevelSet("disk", (psi,), (DIRICHLET,),
                    params={"center": (cx, cy), "radius": r},
                    art_origin=(0.0, 0.0), art_extent=1.0)


def _annulus(params: dict) -> LevelSet:
    cx, cy = params.get("center", (0.0, 0.0))
    r1 = params.get("r1", 0.5)
    r2 = params.get("r2", 0.8)

    def inner(x, y):
        return r1 ** 2 - (x - cx) ** 2 - (y - cy) ** 2

    def outer(x, y):
        return (x - cx) ** 2 + (y - cy) ** 2 - r2 ** 2

    return LevelSet("annulus", (inner, outer), (DIRICHLET, NEUMANN),
                    params={"center": (cx, cy), "r1": r1, "r2": r2},
                    art_origin=(-1.0, -1.0), art_extent=2.0)


_FLOWER_X0 = 0.03 * math.sqrt(3.0)
_FLOWER_Y0 = 0.04 * math.sqrt(2.0)


def _flower(params: dict) -> LevelSet:
    r0 = params.get("radius", 0.52)

    def psi(x, y):
        X = x - _FLOWER_X0
        Y = y - _FLOWER_Y0
        # Products: numpy sends every exponent but 2 to the slow libm pow.
        X2 = X * X
        Y2 = Y * Y
        R2 = X2 + Y2
        R = np.sqrt(R2)
        with np.errstate(divide="ignore", invalid="ignore"):
            pert = Y * (Y2 * Y2 + 5.0 * X2 * X2 - 10.0 * X2 * Y2) / (5.0 * R2 * R2 * R)
        pert = np.where(R > 0.0, pert, 0.0)
        return R - r0 - pert

    return LevelSet("flower", (psi,), (DIRICHLET,), params={"radius": r0},
                    art_origin=(-1.0, -1.0), art_extent=2.0)


def _leaf(params: dict) -> LevelSet:
    r = params.get("radius", 0.7)
    x1 = -0.25 * math.cos(math.pi / 4.0)
    x2 = 0.25 * math.sin(math.pi / 4.0)

    def left(x, y):
        return np.sqrt((x - x1) ** 2 + y ** 2) - r

    def right(x, y):
        return np.sqrt((x - x2) ** 2 + y ** 2) - r

    return LevelSet("leaf", (left, right), (DIRICHLET, DIRICHLET),
                    bc_predicate=lambda x, y: x >= 0.0,
                    params={"radius": r, "centers": (x1, x2)},
                    art_origin=(-1.0, -1.0), art_extent=2.0)


def _hourglass(params: dict) -> LevelSet:
    def psi(x, y):
        X = x - _FLOWER_X0
        Y = y - _FLOWER_Y0
        # Products, not libm pow, as in the flower.
        X2 = X * X
        Y2 = Y * Y
        return 256.0 * (Y2 * Y2) - 16.0 * (X2 * X2) - 128.0 * Y2 + 36.0 * X2

    return LevelSet("hourglass", (psi,), (DIRICHLET,), params={},
                    art_origin=(-1.0, -1.0), art_extent=2.0)


def _rectangle(params: dict) -> LevelSet:
    if "x_cut" in params:
        x_cut = params["x_cut"]
    elif "theta" in params and "h" in params:
        x_cut = 1.0 - (1.0 - params["theta"]) * params["h"]
    else:
        raise ValueError(f"the rectangle takes x_cut, or theta and h; got "
                         f"{sorted(params)}")

    def psi(x, y):
        return x - x_cut + 0.0 * y

    def strong(x, y):
        return (x == 0.0) | (y == 0.0) | (y == 1.0)

    return LevelSet("rectangle", (psi,), (DIRICHLET,),
                    params={"x_cut": x_cut, "strong_predicate": strong},
                    art_origin=(0.0, 0.0), art_extent=1.0)


_CATALOG = {
    "disk": _disk,
    "annulus": _annulus,
    "flower": _flower,
    "leaf": _leaf,
    "hourglass": _hourglass,
    "rectangle": _rectangle,
}


def domain_names() -> list[str]:
    return sorted(_CATALOG)


def domain_catalog(name: str, **params) -> LevelSet:
    """Construct a benchmark domain by name.

    Names: disk, annulus, flower, leaf, hourglass, rectangle.  The rectangle
    takes either x_cut directly or theta and h (cut line at 1 - (1-theta) h)
    and carries a strong-Dirichlet predicate for the grid-aligned edges in
    its params, which `assembly.assemble` reads.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown domain {name!r}; available: {domain_names()}") from None
    return builder(params)

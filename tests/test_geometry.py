"""Grids, snapping, cell classification and cut-cell reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostmg import geometry
from ghostmg.assembly import cut_cell_batch, fan_kernels
from ghostmg.geometry import (
    DIRICHLET,
    CartesianGrid,
    CheckerboardCellError,
    LevelSet,
    SnappedNodeField,
    classify_cells,
    domain_catalog,
    domain_names,
    extract_cut_geometry,
    snap_nodes,
)
from oracles import pow_levelset


# ---------------------------------------------------------------------------
# Background grid
# ---------------------------------------------------------------------------

def test_grid_basic_quantities():
    grid = CartesianGrid(4, (0.0, 0.0), 1.0)
    assert grid.dim == 2
    assert grid.h == 0.25
    assert grid.nodes_per_side == 5
    assert grid.num_nodes == 25
    # Nodes are numbered k = i + j (n + 1), x fastest.
    X, Y = grid.node_coordinates()
    assert (X[2 + 3 * 5], Y[2 + 3 * 5]) == (0.5, 0.75)


def test_grid_one_dimensional():
    grid = CartesianGrid(8, (0.0,), 1.0)
    assert grid.dim == 1
    assert grid.num_nodes == 9
    (x,) = grid.node_coordinates()
    np.testing.assert_allclose(x, np.linspace(0.0, 1.0, 9))


def test_grid_coarsen():
    grid = CartesianGrid(8, (-1.0, -1.0), 2.0)
    coarse = grid.coarsen()
    assert coarse.n == 4
    assert coarse.origin == grid.origin
    assert coarse.extent == grid.extent
    with pytest.raises(ValueError):
        CartesianGrid(5, (0.0, 0.0), 1.0).coarsen()


def test_grid_validation():
    with pytest.raises(ValueError):
        CartesianGrid(0, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        CartesianGrid(4, (0.0, 0.0), -1.0)


def test_levelset_grid_requires_tiling_spacing():
    ls = domain_catalog("disk")
    grid = ls.grid(0.25)
    assert grid.n == 4
    with pytest.raises(ValueError):
        ls.grid(0.3)


# ---------------------------------------------------------------------------
# Snapping
# ---------------------------------------------------------------------------

def test_snap_zeroes_near_boundary_nodes():
    # Plane x = 0.5 + 1e-3: the five nodes at x = 0.5 sit 1e-3 away, inside
    # the threshold h^1.75 = 0.25^1.75 ~ 0.088, so they snap to exactly 0.
    ls = geometry.LevelSet("plane", (lambda x, y: x - 0.501,),
                           (geometry.DIRICHLET,))
    grid = CartesianGrid(4, (0.0, 0.0), 1.0)
    field = snap_nodes(grid, ls, alpha=1.75)
    assert field.num_snapped == 5
    V = field.values.reshape(5, 5)
    assert np.all(V[:, 2] == 0.0)
    assert np.all(V[:, :2] < 0.0)
    assert np.all(V[:, 3:] > 0.0)


def test_snap_threshold_shrinks_with_alpha():
    # Larger alpha means a smaller threshold h^alpha (h < 1), so snapping
    # can only become rarer.
    ls = domain_catalog("disk")
    grid = ls.grid(1.0 / 32)
    counts = [snap_nodes(grid, ls, alpha=a).num_snapped
              for a in (1.0, 1.75, 2.0, 4.0)]
    assert all(c0 >= c1 for c0, c1 in zip(counts, counts[1:]))
    assert snap_nodes(grid, ls, alpha=4.0).threshold == grid.h ** 4.0


def test_snap_preserves_unsnapped_values():
    ls = domain_catalog("disk")
    grid = ls.grid(1.0 / 8)
    field = snap_nodes(grid, ls, alpha=1.75)
    x, y = grid.node_coordinates()
    raw = ls.evaluate(x, y)
    keep = np.abs(raw) >= field.threshold
    np.testing.assert_array_equal(field.values[keep], raw[keep])


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def half_plane_field(x_cut: float, n: int = 4) -> SnappedNodeField:
    ls = geometry.LevelSet("plane", (lambda x, y: x - x_cut,),
                           (geometry.DIRICHLET,))
    grid = CartesianGrid(n, (0.0, 0.0), 1.0)
    return snap_nodes(grid, ls, alpha=8.0)  # tiny threshold: no snapping


def test_classify_half_plane_counts():
    # Cut line x = 0.55 on a 4x4 grid: columns 0-1 internal, column 2 cut,
    # column 3 external.
    cls = classify_cells(half_plane_field(0.55))
    assert int(cls.internal.sum()) == 8
    assert int(cls.cut.sum()) == 4
    assert int(cls.external.sum()) == 4
    assert np.all(cls.cut[:, 2])
    assert int(cls.active_nodes.sum()) == 20
    assert int(cls.cut_nodes.sum()) == 10


def test_classify_partitions_cells():
    for name in ("disk", "annulus", "flower"):
        ls = domain_catalog(name)
        field = snap_nodes(ls.grid(ls.art_extent / 32), ls, alpha=1.75)
        cls = classify_cells(field)
        total = cls.internal.astype(int) + cls.cut + cls.external
        assert np.all(total == 1)


def single_cell_field(values) -> SnappedNodeField:
    """One unit cell with prescribed corner values, flat order BL BR TL TR."""
    grid = CartesianGrid(1, (0.0, 0.0), 1.0)
    ls = geometry.LevelSet("manual", (lambda x, y: x,), (geometry.DIRICHLET,))
    return SnappedNodeField(grid, ls, np.asarray(values, dtype=float),
                            alpha=8.0, threshold=0.0, num_snapped=0)


def test_classify_snapped_corner_is_internal():
    # Three interior vertices and one snapped zero: the chord has collapsed
    # to a corner, so the cell counts as internal.
    cls = classify_cells(single_cell_field([-1.0, -1.0, -1.0, 0.0]))
    assert int(cls.internal.sum()) == 1
    assert int(cls.cut.sum()) == 0


def test_classify_positive_corner_is_cut():
    cls = classify_cells(single_cell_field([-1.0, -1.0, -1.0, 1.0]))
    assert int(cls.cut.sum()) == 1


def test_classify_all_nonnegative_is_external():
    cls = classify_cells(single_cell_field([0.0, 1.0, 0.0, 2.0]))
    assert int(cls.external.sum()) == 1
    assert int(cls.active_nodes.sum()) == 0


# ---------------------------------------------------------------------------
# Edge crossings
# ---------------------------------------------------------------------------

def test_cut_fraction_values():
    # The crossing on an edge sits psi_a / (psi_a - psi_b) of the way from
    # its interior end a; a snapped-zero exterior end gives exactly 1.
    for corners, theta in (([-1.0, 3.0, 1.0, 5.0], 0.25),
                           ([-1.0, 0.0, 1.0, 5.0], 1.0),
                           ([-2.0, 2.0, 2.0, 5.0], 0.5)):
        cuts = extract_cut_geometry(single_cell_field(corners))
        assert cuts.theta[0, 0] == theta


def test_cut_fraction_scale_invariance():
    small = extract_cut_geometry(single_cell_field([-0.3, 0.7, 0.7, 1.0]))
    large = extract_cut_geometry(single_cell_field([-3.0, 7.0, 7.0, 10.0]))
    np.testing.assert_array_equal(small.theta, large.theta)


# ---------------------------------------------------------------------------
# Cut-cell reconstruction
# ---------------------------------------------------------------------------

def test_triangle_cut_cell():
    # BL interior; crossings at 0.25 along the bottom edge and 0.5 up the
    # left edge.  Area = (1/2) * 0.25 * 0.5.
    cut = extract_cut_geometry(single_cell_field([-1.0, 3.0, 1.0, 5.0]))
    assert len(cut) == 1 and cut.vertices[0] == 3
    assert tuple(cut.theta[0]) == (0.25, 0.5)
    assert cut_cell_batch(cut).area[0] == pytest.approx(0.0625, rel=1e-15)
    np.testing.assert_allclose(
        sorted(cut.chord[0].tolist()), [[0.0, 0.5], [0.25, 0.0]], atol=1e-15)
    # Outward normal points away from the interior corner.
    assert cut.normal[0] @ np.array([1.0, 1.0]) > 0.0
    assert np.hypot(*cut.normal[0]) == pytest.approx(1.0, rel=1e-15)


def test_quadrilateral_cut_cell():
    # Left half kept; bottom crossing at x = 0.5, top crossing at x = 0.25.
    cut = extract_cut_geometry(single_cell_field([-1.0, 1.0, -1.0, 3.0]))
    assert len(cut) == 1 and cut.vertices[0] == 4
    assert cut_cell_batch(cut).area[0] == pytest.approx(0.375, rel=1e-14)
    assert cut.normal[0] @ np.array([1.0, 0.0]) > 0.0


def test_pentagon_cut_cell():
    # Only TR exterior; removed corner triangle has legs 0.5 and 0.25.
    cut = extract_cut_geometry(single_cell_field([-1.0, -1.0, -3.0, 1.0]))
    assert len(cut) == 1 and cut.vertices[0] == 5
    assert cut_cell_batch(cut).area[0] == pytest.approx(1.0 - 0.0625, rel=1e-14)
    index, polygons = cut.polygons[5]
    assert index.tolist() == [0] and len(polygons[0]) == 5


def test_snapped_exterior_gives_full_fraction():
    # BR exactly zero: the crossing sits on the node, theta = 1 on that edge.
    cut = extract_cut_geometry(single_cell_field([-1.0, 0.0, -1.0, 1.0]))
    assert len(cut) == 1 and cut.vertices[0] == 4
    assert 1.0 in cut.theta[0]


def test_checkerboard_cell_raises():
    with pytest.raises(CheckerboardCellError):
        extract_cut_geometry(single_cell_field([-1.0, 1.0, 1.0, -1.0]))


def test_cut_cells_cover_every_cut_flag():
    ls = domain_catalog("disk")
    field = snap_nodes(ls.grid(1.0 / 16), ls, alpha=1.75)
    cls = classify_cells(field)
    cells = extract_cut_geometry(field, cls)
    assert len(cells) == int(cls.cut.sum())
    flagged = set(map(tuple, cells.cells.tolist()))
    js, is_ = np.nonzero(cls.cut)
    assert flagged == set(zip(is_.tolist(), js.tolist()))


def test_cut_polygon_invariants_on_disk():
    ls = domain_catalog("disk")
    field = snap_nodes(ls.grid(1.0 / 32), ls, alpha=1.75)
    h = field.grid.h
    cuts = extract_cut_geometry(field)
    areas = cut_cell_batch(cuts).area
    for k in range(len(cuts)):
        area = areas[k]
        normal = cuts.normal[k]
        assert 0.0 < area <= h * h + 1e-15
        assert np.hypot(*normal) == pytest.approx(1.0, rel=1e-12)
        # Outward: walking off the chord midpoint along the normal must
        # increase the level set.
        mid = 0.5 * (cuts.chord[k, 0] + cuts.chord[k, 1])
        step = 1e-6 * h
        ahead = ls.evaluate(mid[0] + step * normal[0],
                            mid[1] + step * normal[1])
        behind = ls.evaluate(mid[0] - step * normal[0],
                             mid[1] - step * normal[1])
        assert ahead > behind


def test_polygonal_disk_area_converges():
    # Internal cells plus cut polygons approximate pi r^2; measured errors
    # on this catalog disk are 2.8e-4 (n=64) and 5.0e-5 (n=128).
    ls = domain_catalog("disk")
    exact = math.pi * 0.4 ** 2
    errors = []
    for n in (64, 128):
        field = snap_nodes(ls.grid(1.0 / n), ls, alpha=1.75)
        cls = classify_cells(field)
        cuts = extract_cut_geometry(field, cls)
        area = (int(cls.internal.sum()) * field.grid.h ** 2
                + cut_cell_batch(cuts).area.sum())
        errors.append(abs(area - exact))
    assert errors[0] <= 5e-4
    assert errors[1] <= 1e-4


def test_polygon_area_unit_square():
    square = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])
    area = fan_kernels(square[None], np.zeros((1, 2)), 2.0)[1][0]
    assert area == pytest.approx(4.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Domain catalog
# ---------------------------------------------------------------------------

def test_domain_names():
    assert domain_names() == ["annulus", "disk", "flower", "hourglass",
                              "leaf", "rectangle"]


def test_unknown_domain_raises():
    with pytest.raises(KeyError):
        domain_catalog("torus")


def test_rectangle_cut_line_from_theta():
    ls = domain_catalog("rectangle", theta=0.3, h=0.125)
    assert ls.params["x_cut"] == pytest.approx(1.0 - 0.7 * 0.125, rel=1e-15)
    assert ls.params["strong_predicate"](0.0, 0.4)
    assert not ls.params["strong_predicate"](0.5, 0.4)


def test_annulus_assigns_bc_by_nearest_component():
    ls = domain_catalog("annulus")
    assert ls.chord_bc(0.5, 0.0) == geometry.DIRICHLET   # inner circle
    assert ls.chord_bc(0.8, 0.0) == geometry.NEUMANN     # outer circle


def test_leaf_assigns_bc_by_predicate():
    ls = domain_catalog("leaf")
    assert ls.chord_bc(0.5, 0.1) == geometry.DIRICHLET
    assert ls.chord_bc(-0.5, 0.1) == geometry.NEUMANN


def cut_cells_or_error(field):
    """Cut cells and polygon vertex counts of a field, or the error text of
    the cell that its extraction rejects."""
    try:
        cut = extract_cut_geometry(field)
    except CheckerboardCellError as err:
        return str(err)
    return cut.cells, cut.vertices


@pytest.mark.parametrize("name, tol", [("flower", 1e-15),
                                       ("hourglass", 1e-12)])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_product_level_sets_match_their_float_power_form(name, tol, n):
    # The catalog evaluates the flower and the hourglass with products; the
    # oracle keeps the float powers.  Worst differences seen: 3.3e-16 on the
    # flower, 1.1e-13 on the hourglass, whose terms reach about 1e2.
    ls, oracle = domain_catalog(name), pow_levelset(name)
    grid = ls.grid(ls.art_extent / n)
    x, y = grid.node_coordinates()
    assert np.abs(ls.evaluate(x, y) - oracle.evaluate(x, y)).max() <= tol
    field = snap_nodes(grid, ls, 1.75)
    reference = snap_nodes(grid, oracle, 1.75)
    for test in (np.less, np.equal, np.greater):
        np.testing.assert_array_equal(test(field.values, 0.0),
                                      test(reference.values, 0.0))
    cls, ref_cls = classify_cells(field), classify_cells(reference)
    for mask in ("internal", "cut", "external", "active_nodes", "cut_nodes"):
        np.testing.assert_array_equal(getattr(cls, mask),
                                      getattr(ref_cls, mask))
    got, want = cut_cells_or_error(field), cut_cells_or_error(reference)
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_multi_component_levelset_is_intersection():
    ls = domain_catalog("annulus")
    # Inside the hole, between the circles, and outside.
    assert ls.evaluate(0.0, 0.0) > 0.0
    assert ls.evaluate(0.65, 0.0) < 0.0
    assert ls.evaluate(0.95, 0.0) > 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_disks_classify_and_reconstruct(seed):
    """Classification partitions the cells and every reconstructed polygon is
    a nonempty subset of its cell, for random disk positions and sizes."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([8, 16, 32]))
    cx, cy = rng.uniform(0.35, 0.65, size=2)
    r = float(rng.uniform(0.15, 0.3))
    ls = domain_catalog("disk", center=(cx, cy), radius=r)
    field = snap_nodes(ls.grid(1.0 / n), ls, alpha=1.75)
    cls = classify_cells(field)
    assert np.all(cls.internal.astype(int) + cls.cut + cls.external == 1)
    h = field.grid.h
    cuts = extract_cut_geometry(field, cls)
    areas = cut_cell_batch(cuts).area
    groups = cuts.polygons.values()
    assert sorted(k for index, _ in groups for k in index) == \
        list(range(len(cuts)))
    for index, polygons in groups:
        for k, polygon in zip(index, polygons):
            area = areas[k]
            assert 0.0 < area <= h * h + 1e-15
            i, j = cuts.cell(k)
            x0, y0 = field.grid.origin
            assert np.all(polygon[:, 0] >= x0 + i * h - 1e-12)
            assert np.all(polygon[:, 0] <= x0 + (i + 1) * h + 1e-12)
            assert np.all(polygon[:, 1] >= y0 + j * h - 1e-12)
            assert np.all(polygon[:, 1] <= y0 + (j + 1) * h + 1e-12)


# ---------------------------------------------------------------------------
# Array extraction against the per-cell walk
# ---------------------------------------------------------------------------

def walk_cut_geometry(field, classification):
    """Reference: the cut cells by walking each one's corners
    counterclockwise, keeping interior corners and inserting the two edge
    crossings, one cell at a time in row-major order."""
    grid = field.grid
    nps, h = grid.nodes_per_side, grid.h
    V = field.values.reshape(nps, nps)
    x0, y0 = grid.origin
    cells = []
    for j, i in zip(*(a.tolist() for a in np.nonzero(classification.cut))):
        corner_idx = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        psi = [V[cj, ci] for ci, cj in corner_idx]
        xy = [np.array((x0 + ci * h, y0 + cj * h)) for ci, cj in corner_idx]
        neg = [p < 0.0 for p in psi]
        if sum(neg) == 2 and neg[0] == neg[2]:
            raise CheckerboardCellError(
                f"cell {(i, j)}: interior vertices on a diagonal; "
                "refine the grid or adjust the level set")
        polygon, crossings, thetas = [], [], []
        for k in range(4):
            a, b = k, (k + 1) % 4
            if neg[a]:
                polygon.append(xy[a])
            if neg[a] != neg[b]:
                if neg[a]:
                    theta = psi[a] / (psi[a] - psi[b])
                    point = xy[a] + theta * (xy[b] - xy[a])
                else:
                    theta = psi[b] / (psi[b] - psi[a])
                    point = xy[b] + theta * (xy[a] - xy[b])
                crossings.append(len(polygon))
                thetas.append(theta)
                polygon.append(point)
        if len(crossings) != 2:
            raise CheckerboardCellError(
                f"cell {(i, j)}: expected 2 edge crossings, found {len(crossings)}")
        poly = np.array(polygon)
        c0, c1 = crossings
        if (c0 + 1) % len(poly) == c1:
            chord = np.array([poly[c0], poly[c1]])
        else:
            chord = np.array([poly[c1], poly[c0]])
        t = chord[1] - chord[0]
        length = math.hypot(t[0], t[1])
        if length == 0.0:
            raise CheckerboardCellError(f"cell {(i, j)}: degenerate zero-length chord")
        mid = 0.5 * (chord[0] + chord[1])
        cells.append(dict(
            cell=(i, j), theta=tuple(thetas), polygon=poly, chord=chord,
            normal=np.array((t[1], -t[0])) / length,
            bc=field.levelset.chord_bc(mid[0], mid[1]),
            nodes=np.array([ci + cj * nps for ci, cj in corner_idx])))
    return cells


def corner_codes(field, classification):
    """4-bit code of each cut cell, bit k set when corner k (BL, BR, TR,
    TL) is interior."""
    nps = field.grid.nodes_per_side
    neg = field.values.reshape(nps, nps) < 0.0
    js, is_ = np.nonzero(classification.cut)
    corners = (neg[js, is_], neg[js, is_ + 1], neg[js + 1, is_ + 1], neg[js + 1, is_])
    return {int(sum(int(c) << k for k, c in enumerate(bits))) for bits in zip(*corners)}


def assert_extraction_matches_the_walk(field):
    """Array extraction and walk agree bit for bit, or raise the same
    error naming the same cell."""
    classification = classify_cells(field)
    try:
        expected = walk_cut_geometry(field, classification)
    except CheckerboardCellError as err:
        with pytest.raises(CheckerboardCellError) as raised:
            extract_cut_geometry(field, classification)
        assert str(raised.value) == str(err)
        return
    cuts = extract_cut_geometry(field, classification)
    assert len(cuts) == len(expected)
    polygons = {k: polygon for index, group in cuts.polygons.values()
                for k, polygon in zip(index.tolist(), group)}
    for k, want in enumerate(expected):
        assert cuts.cell(k) == want["cell"]
        assert tuple(cuts.theta[k].tolist()) == want["theta"]
        assert cuts.bc[k] == want["bc"]
        assert cuts.vertices[k] == len(want["polygon"])
        np.testing.assert_array_equal(polygons[k], want["polygon"])
        for name in ("chord", "normal", "nodes"):
            np.testing.assert_array_equal(getattr(cuts, name)[k], want[name])


@pytest.mark.parametrize("code", range(1, 15))
def test_array_extraction_matches_the_walk_on_every_corner_code(code):
    # One cell per code, with exterior corners strictly positive and
    # snapped to zero; codes 5 and 10 are the two checkerboards.
    grid = CartesianGrid(1, (0.25, -0.5), 0.5)
    ls = LevelSet("manual", (lambda x, y: x,), (DIRICHLET,))
    magnitudes = np.array([0.3, 1.7, 0.9, 2.5])
    order = [0, 1, 3, 2]   # flat node order BL, BR, TL, TR
    for exterior in (1.0, 0.0):
        values = np.where([code >> k & 1 for k in range(4)], -magnitudes,
                          exterior * magnitudes)[order]
        field = SnappedNodeField(grid, ls, values, alpha=8.0, threshold=0.0,
                                 num_snapped=0)
        classification = classify_cells(field)
        if classification.cut.any():
            assert corner_codes(field, classification) == {code}
        assert_extraction_matches_the_walk(field)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["disk", "ellipse", "annulus", "signs"]),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       n=st.integers(min_value=3, max_value=64),
       alpha=st.floats(1.2, 3.0))
def test_array_extraction_matches_the_walk_on_random_domains(kind, seed, n,
                                                             alpha):
    """Random disks, ellipses (bc by predicate), annuli (bc by the nearest
    component) and random corner signs with zeros: the array extraction
    equals the walk, checkerboard errors included; a coarse snapping
    exponent puts snapped zeros on many corners."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(0.35, 0.65, size=2)
    if kind == "signs":
        grid = CartesianGrid(n, (0.0, 0.0), 1.0)
        ls = LevelSet("manual", (lambda x, y: x,), (DIRICHLET,))
        values = rng.choice([-1.0, 0.0, 1.0], size=grid.num_nodes) \
            * rng.uniform(0.1, 1.0, size=grid.num_nodes)
        field = SnappedNodeField(grid, ls, values, alpha=alpha, threshold=0.0,
                                 num_snapped=0)
    else:
        if kind == "disk":
            ls = domain_catalog("disk", center=(cx, cy),
                                radius=float(rng.uniform(0.1, 0.4)))
        elif kind == "annulus":
            r1 = float(rng.uniform(0.1, 0.25))
            ls = domain_catalog("annulus", center=(cx - 0.5, cy - 0.5), r1=r1,
                                r2=r1 + float(rng.uniform(0.1, 0.5)))
        else:
            rx, ry = rng.uniform(0.1, 0.4, size=2)

            def psi(x, y):
                return ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 - 1.0

            ls = LevelSet("ellipse", (psi,), (DIRICHLET,),
                          bc_predicate=lambda x, y: x >= cx)
        field = snap_nodes(ls.grid(ls.art_extent / n), ls, alpha=alpha)
    assert_extraction_matches_the_walk(field)

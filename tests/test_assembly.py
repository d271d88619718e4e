"""Element kernels and global assembly of the embedded-boundary system."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostmg import stabilization
from ghostmg.assembly import (
    AssemblyError,
    ProblemSpec,
    _internal_source,
    assemble,
    chord_kernels,
    cut_cell_batch,
    fan_kernels,
    full_cell_stiffness,
    number_dofs,
    shape_gradients,
    shape_values,
)
from ghostmg.geometry import (DIRICHLET, CartesianGrid, LevelSet,
                              corner_nodes, domain_catalog, domain_names)
from oracles import internal_source


# ---------------------------------------------------------------------------
# Element kernels
# ---------------------------------------------------------------------------

def fan_one(polygon, h, origin=(0.0, 0.0)):
    """`fan_kernels` on a batch of one polygon: stiffness (4, 4), and the
    source rule's points and weighted shape values."""
    S, _, points, wN = fan_kernels(np.asarray(polygon, dtype=float)[None],
                                   np.asarray(origin, dtype=float)[None], h)
    return S[0], points, wN


def source_load(polygon, h, origin, f):
    """Load of f against the shape functions over the polygon."""
    _, points, wN = fan_one(polygon, h, origin)
    return f(points[:, 0], points[:, 1]) @ wN


def test_shape_functions_partition_of_unity():
    rng = np.random.default_rng(2)
    xi, eta = rng.uniform(0.0, 1.0, size=(2, 20))
    N = shape_values(xi, eta)
    np.testing.assert_allclose(N.sum(axis=0), 1.0, rtol=1e-14)
    G = shape_gradients(xi, eta, 0.125)
    np.testing.assert_allclose(G.sum(axis=0), 0.0, atol=1e-13)


def test_shape_functions_nodal():
    # N_i at corner j is the Kronecker delta (corners BL, BR, TR, TL).
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    for j, (xi, eta) in enumerate(corners):
        N = shape_values(np.array([xi]), np.array([eta]))[:, 0]
        expected = np.zeros(4)
        expected[j] = 1.0
        np.testing.assert_allclose(N, expected, atol=1e-15)


def test_full_cell_stiffness_properties():
    K = full_cell_stiffness()
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(K) > -1e-14)


def test_cut_stiffness_of_full_square_matches_reference():
    h = 0.125
    square = h * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    K = fan_one(square, h)[0]
    np.testing.assert_allclose(K, full_cell_stiffness(), atol=1e-14)


def test_cut_stiffness_additivity():
    # Splitting the cell vertically: the two halves sum to the full matrix.
    h = 0.25
    left = h * np.array([(0.0, 0.0), (0.4, 0.0), (0.4, 1.0), (0.0, 1.0)])
    right = h * np.array([(0.4, 0.0), (1.0, 0.0), (1.0, 1.0), (0.4, 1.0)])
    K = fan_one(left, h)[0] + fan_one(right, h)[0]
    np.testing.assert_allclose(K, full_cell_stiffness(), atol=1e-14)


def test_polygon_source_integrates_constants():
    h = 0.5
    square = h * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    F = source_load(square, h, (0.0, 0.0), lambda x, y: np.ones_like(x))
    # Loads of f = 1 sum to the polygon area.
    assert F.sum() == pytest.approx(h * h, rel=1e-14)
    np.testing.assert_allclose(F, h * h / 4.0, rtol=1e-13)


def test_polygon_source_additivity():
    # A chord splits the cell into a triangle and a pentagon; their loads of
    # a quadratic f (degree-4 integrand, so every rule here is exact) sum to
    # the load over the whole cell.
    h, origin = 0.5, (0.3, -0.2)
    ox, oy = origin

    def f(x, y):
        return 1.0 + x - 2.0 * y + 3.0 * x * y + x * x

    def cell(points):
        return np.array([(ox + h * a, oy + h * b) for a, b in points])

    square = cell([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    triangle = cell([(0.0, 0.0), (0.7, 0.0), (0.0, 0.4)])
    pentagon = cell([(0.7, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.4)])
    F = (source_load(triangle, h, origin, f)
         + source_load(pentagon, h, origin, f))
    np.testing.assert_allclose(F, source_load(square, h, origin, f),
                               rtol=1e-13)


def test_chord_kernels_partition_of_unity():
    chord = np.array([(0.1, 0.0), (0.0, 0.2)])
    t = chord[1] - chord[0]
    normal = np.array([t[1], -t[0]]) / np.hypot(*t)
    length = float(np.hypot(*t))
    lam = 7.0
    _, wN, _, B, mass, consistency = (
        a[0] for a in chord_kernels(chord[None], normal[None], np.zeros((1, 2)),
                                    0.25))
    # sum_ij penalty_ij = lam * int (sum_i N_i)^2 = lam * |chord|.
    assert (lam * mass).sum() == pytest.approx(lam * length, rel=1e-13)
    # sum_j (n . grad N_j) = 0, so every consistency row sums to zero.
    np.testing.assert_allclose(consistency.sum(axis=1), 0.0, atol=1e-13)
    # Gram rows against the constant flux deficit: B @ 1 = 0 as well.
    np.testing.assert_allclose(B @ np.ones(4), 0.0, atol=1e-12)
    # The Neumann load of g = 1, int N_i, sums to the chord length.
    loads = np.ones(3) @ wN
    assert loads.sum() == pytest.approx(length, rel=1e-13)


# ---------------------------------------------------------------------------
# Global assembly
# ---------------------------------------------------------------------------

def linear(x, y):
    return 1.0 + 2.0 * x - 3.0 * y


def test_patch_linear_on_disk():
    # A linear function lies in the trial space and satisfies the weak form
    # exactly, so the discrete solution reproduces it at every active node.
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 32, g_dirichlet=linear,
                                  gamma=2.0))
    u = spla.spsolve(system.A.tocsc(), system.F)
    X, Y = system.grid.node_coordinates()
    err = np.abs(u - linear(X, Y))[system.active_dofs].max()
    assert err <= 1e-11


def test_patch_linear_on_rectangle_with_strong_edges():
    ls = domain_catalog("rectangle", theta=0.37, h=1.0 / 32)
    system = assemble(ProblemSpec(
        ls, 1.0 / 32, g_dirichlet=linear, gamma=2.0))
    assert int(system.strong_dofs.sum()) > 0
    u = spla.spsolve(system.A.tocsc(), system.F)
    X, Y = system.grid.node_coordinates()
    err = np.abs(u - linear(X, Y))[system.active_dofs].max()
    assert err <= 1e-12


@pytest.mark.parametrize("name", ["disk", "annulus", "leaf", "rectangle"])
def test_constant_is_reproduced(name):
    # g = 1 with f = 0: u = 1 has zero flux and zero interior residual, so
    # the assembled residual vanishes on the free DOFs.
    kw = {"theta": 0.37, "h": 1.0 / 32} if name == "rectangle" else {}
    ls = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 32,
        g_dirichlet=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        gamma=2.0))
    r = system.F - system.A @ np.ones(system.A.shape[0])
    assert np.abs(r[system.free_dofs]).max() <= 1e-12


@pytest.mark.parametrize("name", ["disk", "annulus", "flower", "leaf",
                                  "hourglass", "rectangle"])
def test_assembled_operator_exactly_symmetric(name):
    kw = {"theta": 0.61, "h": 1.0 / 32} if name == "rectangle" else {}
    ls = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 32, gamma=2.0))
    asym = system.A - system.A.T
    assert asym.nnz == 0


@pytest.mark.parametrize("name", ["disk", "annulus", "flower", "leaf",
                                  "hourglass", "rectangle"])
def test_finest_penalty_cells_assemble_the_free_block(name):
    # The finest operator is the cells' operator over the whole grid,
    # restricted to the free DOFs in their order, bit for bit; on the
    # rectangle, whose internal cells with a strong corner are listed cells
    # too, the couplings to the strong nodes drop.  The whole-grid view
    # holds it as its free block.
    kw = {"theta": 0.55, "h": 1.0 / 64} if name == "rectangle" else {}
    ls = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 64, gamma=2.0))
    nodes = np.arange(system.grid.num_nodes)
    whole = system.penalty.operator(system.grid, nodes, nodes)
    order, free = system.dofs.order, np.flatnonzero(system.free_dofs)
    block = whole[order][:, order]
    block.sort_indices()
    for a, b in ((system.operator, block),
                 (system.A[free][:, free], whole[free][:, free])):
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


@pytest.mark.parametrize("name", ["disk", "annulus", "flower", "leaf",
                                  "hourglass", "rectangle"])
def test_assembled_operator_positive_definite(name):
    kw = {"theta": 0.61, "h": 1.0 / 32} if name == "rectangle" else {}
    ls = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 32, gamma=2.0))
    free = np.flatnonzero(system.free_dofs)
    A_free = system.A[free][:, free].toarray()
    assert np.all(np.linalg.eigvalsh(A_free) > 0.0)


def test_rows_of_uncut_interior_node_sum_to_zero():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16, gamma=2.0))
    cls = system.classification
    interior_only = system.active_dofs & ~cls.cut_nodes
    row_sums = np.asarray(system.A.sum(axis=1)).ravel()
    np.testing.assert_allclose(row_sums[interior_only], 0.0, atol=1e-13)


def test_inactive_nodes_carry_identity_rows():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16))
    inactive = np.flatnonzero(~system.active_dofs)
    assert inactive.size > 0
    sub = system.A[inactive]
    assert sub.nnz == inactive.size
    np.testing.assert_array_equal(system.A.diagonal()[inactive], 1.0)
    assert np.all(system.F[inactive] == 0.0)


def test_degenerate_sliver_raises():
    # A corner sliver with area ~5e-17 h^2 trips the degenerate-polygon
    # guard before it can poison the linear system.
    ls = LevelSet("sliver", (lambda x, y: x + y - 1e-8,), (DIRICHLET,))
    with pytest.raises(AssemblyError):
        assemble(ProblemSpec(ls, 0.5, alpha=30.0))


def test_dirichlet_cell_without_penalty_raises(monkeypatch):
    # A stabilization field that drops one Dirichlet cell is caught, and the
    # error names the first cell without a positive penalty.
    build = stabilization.build_stabilization
    dropped = []

    def lossy(batch, **kwargs):
        field = build(batch, **kwargs)
        first = np.flatnonzero(batch.dirichlet)[0]
        dropped.append(batch.cut_cells.cell(first))
        field.lam[0] = 0.0
        return field

    monkeypatch.setattr(stabilization, "build_stabilization", lossy)
    with pytest.raises(AssemblyError, match="lacks a positive penalty") as err:
        assemble(ProblemSpec(domain_catalog("disk"), 1.0 / 16))
    assert str(dropped[0]) in str(err.value)


def test_degenerate_sliver_error_names_the_cell():
    ls = LevelSet("sliver", (lambda x, y: x + y - 1e-8,), (DIRICHLET,))
    with pytest.raises(AssemblyError, match=r"cut cell \(0, 0\) has degenerate"):
        assemble(ProblemSpec(ls, 0.5, alpha=30.0))


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_scalar_data_matches_array_data(name):
    # Data returning a plain float is broadcast to the quadrature points and
    # gives exactly the right-hand side of its array-valued form.
    ls = domain_catalog(name)
    h = ls.art_extent / 32
    scalar = assemble(ProblemSpec(ls, h, f=lambda x, y: 1.0,
                                  g_dirichlet=lambda x, y: 0.5,
                                  g_neumann=lambda x, y: -2.0))
    array = assemble(ProblemSpec(
        ls, h, f=lambda x, y: np.ones_like(x),
        g_dirichlet=lambda x, y: np.full_like(x, 0.5),
        g_neumann=lambda x, y: np.full_like(x, -2.0)))
    np.testing.assert_array_equal(scalar.F, array.F)
    assert np.any(scalar.F != 0.0)


def test_free_dofs_exclude_strong():
    ls = domain_catalog("rectangle", theta=0.5, h=1.0 / 16)
    system = assemble(ProblemSpec(ls, 1.0 / 16))
    assert not np.any(system.free_dofs & system.strong_dofs)
    assert np.all(system.free_dofs | system.strong_dofs
                  | ~system.active_dofs)


def test_cut_dofs_are_active_free_cut_nodes():
    ls = domain_catalog("annulus")
    system = assemble(ProblemSpec(ls, 2.0 / 32))
    expected = (system.classification.cut_nodes & system.active_dofs
                & ~system.strong_dofs)
    np.testing.assert_array_equal(system.dofs.cut, expected)


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_number_dofs_is_one_consistent_record(dim, n, seed):
    # On random masks, with cut nodes off the free ones too: order and dof
    # are inverses, bounds splits order into classes 0 to 3 in turn, each
    # class lists its cut nodes first and keeps node order otherwise, and
    # cut_at is the sorted DOFs of the free cut nodes.  In 1D the DOFs are
    # the free nodes in node order, one class.
    rng = np.random.default_rng(seed)
    grid = CartesianGrid(n, (0.0,) * dim, 1.0)
    free = rng.random(grid.num_nodes) < rng.random()
    cut = rng.random(grid.num_nodes) < rng.random()
    dofs = number_dofs(free, cut, grid)
    N = np.count_nonzero(free)
    np.testing.assert_array_equal(dofs.free, free)
    np.testing.assert_array_equal(dofs.cut, cut & free)
    np.testing.assert_array_equal(np.sort(dofs.order), np.flatnonzero(free))
    np.testing.assert_array_equal(dofs.dof[dofs.order], np.arange(N))
    np.testing.assert_array_equal(dofs.dof[~free], -1)
    np.testing.assert_array_equal(dofs.cut_at, np.sort(dofs.dof[cut & free]))
    if dim == 1:
        np.testing.assert_array_equal(dofs.order, np.flatnonzero(free))
        np.testing.assert_array_equal(dofs.bounds, [0, N])
        return
    assert dofs.bounds.size == 5 and dofs.bounds[0] == 0
    assert dofs.bounds[-1] == N and np.all(np.diff(dofs.bounds) >= 0)
    j, i = np.divmod(dofs.order, n + 1)
    classes = i % 2 + 2 * (j % 2)
    for c, (start, stop) in enumerate(zip(dofs.bounds, dofs.bounds[1:])):
        nodes = dofs.order[start:stop]
        assert np.all(classes[start:stop] == c)
        first = np.count_nonzero(dofs.cut[nodes])
        assert dofs.cut[nodes[:first]].all()
        assert np.all(np.diff(nodes[:first]) > 0)
        assert np.all(np.diff(nodes[first:]) > 0)


# ---------------------------------------------------------------------------
# Pattern-built operator against the triplet construction
# ---------------------------------------------------------------------------

def triplet_reference(system):
    """Reference: A as triplet (COO) sums of every internal and cut cell in
    row-major cell order, internal cells first, then the identity rows,
    duplicates summed; F as the internal cells' source cell by cell
    (`oracles.internal_source`) plus the cut cells' loads; strong DOFs then
    eliminated as diag(keep) A diag(keep) + diag(strong) with stored zeros
    dropped."""
    problem, grid, cls = system.problem, system.grid, system.classification
    batch = cut_cell_batch(system.cut_cells)
    d = np.flatnonzero(batch.dirichlet)
    lam = system.stabilization.lam
    K = batch.S.copy()
    C = batch.consistency[d]
    K[d] = (K[d] - (C + C.transpose(0, 2, 1))) \
        + lam[:, None, None] * batch.mass[d]
    K = 0.5 * (K + K.transpose(0, 2, 1))
    in_js, in_is = np.nonzero(cls.internal)
    internal = corner_nodes(np.stack((in_is, in_js), 1), grid.n)
    nodes = np.concatenate([internal, system.cut_cells.nodes])
    inactive = np.flatnonzero(~cls.active_nodes)
    N = grid.num_nodes
    A = sp.csr_matrix(
        (np.concatenate([np.tile(full_cell_stiffness().ravel(), in_is.size),
                         K.ravel(), np.ones(inactive.size)]),
         (np.concatenate([np.repeat(nodes, 4, axis=1).ravel(), inactive]),
          np.concatenate([np.tile(nodes, (1, 4)).ravel(), inactive]))),
        shape=(N, N))
    A.sum_duplicates()
    A.sort_indices()
    F = np.zeros(N)
    if problem.f is not None:
        F = internal_source(problem.f, grid, cls.internal)
    np.add.at(F, system.cut_cells.nodes, batch.loads(
        lam, problem.f, problem.g_dirichlet, problem.g_neumann))
    F[~cls.active_nodes] = 0.0
    strong = system.strong_dofs
    if strong.any():
        X, Y = grid.node_coordinates()
        g = np.where(strong, problem.g_dirichlet(X, Y), 0.0)
        F = F - A @ g
        keep = sp.diags((~strong).astype(float))
        A = (keep @ A @ keep + sp.diags(strong.astype(float))).tocsr()
        A.eliminate_zeros()
        A.sum_duplicates()
        A.sort_indices()
        F[strong] = g[strong]
    return A, F


def _catalog_domain(name, n):
    if name == "rectangle":
        return domain_catalog(name, theta=0.3, h=1.0 / n)
    return domain_catalog(name)


@pytest.mark.parametrize("name", domain_names())
@pytest.mark.parametrize("f", [
    lambda x, y: np.exp(x * y),
    lambda x, y: np.where(x + 0.3 * y > 0.1, 1.0 + x * x, -2.0 + y),
], ids=["exp", "piecewise"])
def test_lattice_source_matches_the_cell_by_cell_source(name, f):
    # One call of f on the Gauss lattice of the internal cells' bounding
    # box gives each cell's 3x3 Gauss load, summed in another order.
    ls = _catalog_domain(name, 64)
    system = assemble(ProblemSpec(ls, ls.art_extent / 64))
    grid, internal = system.grid, system.classification.internal
    expected = internal_source(f, grid, internal)
    np.testing.assert_allclose(_internal_source(f, grid, internal), expected,
                               rtol=0.0, atol=1e-14 * np.abs(expected).max())


def test_source_off_the_domain_is_never_read():
    # The annulus' lattice spans its hole; f = inf there must not reach F.
    ls = domain_catalog("annulus")
    h = ls.art_extent / 32
    inf_in_hole = assemble(ProblemSpec(
        ls, h, f=lambda x, y: np.where(x * x + y * y < 0.09, np.inf, 1.0)))
    one = assemble(ProblemSpec(ls, h, f=lambda x, y: 1.0))
    np.testing.assert_array_equal(inf_in_hole.F, one.F)


@pytest.mark.parametrize("datum", ["f", "g_dirichlet", "g_neumann"])
def test_data_that_does_not_broadcast_is_a_named_error(datum):
    # The chord points are (cells, 3), so a flat result of their size does
    # not broadcast; f's first points are flat, so it gets one value more.
    ls = domain_catalog("annulus")
    extra = int(datum == "f")
    data = {datum: lambda x, y: np.ones(x.size + extra)}
    with pytest.raises(AssemblyError, match=(
            rf"{datum} returned shape \(\d+,\) on points of shape \(\d+,"
            r"( 3)?\); data must broadcast like numpy ufuncs")):
        assemble(ProblemSpec(ls, ls.art_extent / 32, **data))


@pytest.mark.parametrize("name", ["disk", "flower", "hourglass"])
def test_a_build_reads_only_its_rows(name):
    # 100 rows of the finest operator at n = 512 are its first 100 rows,
    # built with less than two floats per grid node: the builder reads only
    # the cells around its rows.
    ls = domain_catalog(name)
    system = assemble(ProblemSpec(ls, ls.art_extent / 512))
    order, dof = system.dofs.order, system.dofs.dof
    tracemalloc.start()
    try:
        rows = system.penalty.operator(system.grid, order[:100], dof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * system.grid.num_nodes
    first = system.operator[:100]
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(rows, part), getattr(first, part))


@pytest.mark.parametrize("name", ["disk", "annulus", "flower", "leaf",
                                  "hourglass", "rectangle"])
def test_pattern_operator_matches_the_triplet_reference(name):
    # A bit for bit: the same pattern (inactive identity rows included) and
    # the same sums in the same order; the rectangle also eliminates its
    # strong edges.  F sums the internal cells' Gauss points in another
    # order than the cell-by-cell reference, so it agrees to rounding.
    ls = _catalog_domain(name, 32)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 32,
        f=lambda x, y: np.sin(3.0 * x) + y * y,
        g_dirichlet=lambda x, y: 1.0 + x * y,
        g_neumann=lambda x, y: x - 0.5 * y))
    assert system.strong_dofs.any() == (name == "rectangle")
    A, F = triplet_reference(system)
    assert system.A.has_canonical_format
    np.testing.assert_array_equal(system.A.indptr, A.indptr)
    np.testing.assert_array_equal(system.A.indices, A.indices)
    np.testing.assert_array_equal(system.A.data, A.data)
    np.testing.assert_allclose(system.F, F, rtol=0.0,
                               atol=1e-14 * np.abs(F).max())

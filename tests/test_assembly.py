"""Element kernels and global assembly of the embedded-boundary system."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ghostmg import stabilization
from ghostmg.assembly import (
    AssemblyError,
    ProblemSpec,
    apply_strong_dirichlet,
    assemble,
    chord_neumann_load,
    chord_normal_gram,
    full_cell_stiffness,
    nitsche_chord_terms,
    polygon_source,
    q1_cell_stiffness,
    residual,
    shape_gradients,
    shape_values,
)
from ghostmg.geometry import DIRICHLET, LevelSet, domain_catalog


# ---------------------------------------------------------------------------
# Element kernels
# ---------------------------------------------------------------------------

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
    K = q1_cell_stiffness(square, h, (0.0, 0.0))
    np.testing.assert_allclose(K, full_cell_stiffness(), atol=1e-14)


def test_cut_stiffness_additivity():
    # Splitting the cell vertically: the two halves sum to the full matrix.
    h = 0.25
    left = h * np.array([(0.0, 0.0), (0.4, 0.0), (0.4, 1.0), (0.0, 1.0)])
    right = h * np.array([(0.4, 0.0), (1.0, 0.0), (1.0, 1.0), (0.4, 1.0)])
    K = (q1_cell_stiffness(left, h, (0.0, 0.0))
         + q1_cell_stiffness(right, h, (0.0, 0.0)))
    np.testing.assert_allclose(K, full_cell_stiffness(), atol=1e-14)


def test_polygon_source_integrates_constants():
    h = 0.5
    square = h * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    F = polygon_source(square, h, (0.0, 0.0), lambda x, y: np.ones_like(x))
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
    F = (polygon_source(triangle, h, origin, f)
         + polygon_source(pentagon, h, origin, f))
    np.testing.assert_allclose(F, polygon_source(square, h, origin, f),
                               rtol=1e-13)


def test_chord_kernels_partition_of_unity():
    chord = np.array([(0.1, 0.0), (0.0, 0.2)])
    t = chord[1] - chord[0]
    normal = np.array([t[1], -t[0]]) / np.hypot(*t)
    length = float(np.hypot(*t))
    lam = 7.0
    penalty, consistency = nitsche_chord_terms(chord, normal, lam, 0.25,
                                               (0.0, 0.0))
    # sum_ij penalty_ij = lam * int (sum_i N_i)^2 = lam * |chord|.
    assert penalty.sum() == pytest.approx(lam * length, rel=1e-13)
    # sum_j (n . grad N_j) = 0, so every consistency row sums to zero.
    np.testing.assert_allclose(consistency.sum(axis=1), 0.0, atol=1e-13)
    # Gram rows against the constant flux deficit: B @ 1 = 0 as well.
    B = chord_normal_gram(chord, normal, 0.25, (0.0, 0.0))
    np.testing.assert_allclose(B @ np.ones(4), 0.0, atol=1e-12)
    loads = chord_neumann_load(chord, 0.25, (0.0, 0.0),
                               lambda x, y: np.ones_like(x))
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
        ls, 1.0 / 32, g_dirichlet=linear, gamma=2.0,
        strong_predicate=ls.params["strong_predicate"]))
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
        gamma=2.0, strong_predicate=ls.params.get("strong_predicate")))
    r = residual(system, np.ones(system.A.shape[0]))
    assert np.abs(r).max() <= 1e-12


@pytest.mark.parametrize("name", ["disk", "annulus", "flower", "leaf",
                                  "hourglass", "rectangle"])
def test_assembled_operator_exactly_symmetric(name):
    kw = {"theta": 0.61, "h": 1.0 / 32} if name == "rectangle" else {}
    ls = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 32, gamma=2.0,
        strong_predicate=ls.params.get("strong_predicate")))
    asym = system.A - system.A.T
    assert asym.nnz == 0


@pytest.mark.parametrize("name", ["disk", "annulus", "flower", "leaf",
                                  "hourglass", "rectangle"])
def test_assembled_operator_positive_definite(name):
    kw = {"theta": 0.61, "h": 1.0 / 32} if name == "rectangle" else {}
    ls = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        ls, ls.art_extent / 32, gamma=2.0,
        strong_predicate=ls.params.get("strong_predicate")))
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


def test_strong_elimination_preserves_symmetry_and_values():
    import scipy.sparse as sp
    rng = np.random.default_rng(4)
    B = rng.standard_normal((6, 6))
    A = sp.csr_matrix(B @ B.T + 6.0 * np.eye(6))
    F = rng.standard_normal(6)
    strong = np.array([True, False, False, True, False, False])
    g = rng.standard_normal(6)
    A2, F2 = apply_strong_dirichlet(A, F, strong, g)
    assert (A2 - A2.T).nnz == 0
    np.testing.assert_array_equal(F2[strong], g[strong])
    # The eliminated solve agrees with the constrained full solve.
    u = spla.spsolve(A2.tocsc(), F2)
    np.testing.assert_allclose(u[strong], g[strong], atol=1e-14)
    free = ~strong
    dense = A.toarray()
    u_free = np.linalg.solve(dense[np.ix_(free, free)],
                             (F - dense @ (g * strong))[free])
    np.testing.assert_allclose(u[free], u_free, atol=1e-12)


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

    def lossy(*args, **kwargs):
        field = build(*args, **kwargs)
        cell = next(iter(field.lam))
        dropped.append(cell)
        field.lam[cell] = 0.0
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


def test_residual_zeroes_constrained_entries():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16))
    u = np.random.default_rng(0).standard_normal(system.A.shape[0])
    r = residual(system, u)
    assert np.all(r[~system.free_dofs] == 0.0)


def test_free_dofs_exclude_strong():
    ls = domain_catalog("rectangle", theta=0.5, h=1.0 / 16)
    system = assemble(ProblemSpec(ls, 1.0 / 16,
                                  strong_predicate=ls.params[
                                      "strong_predicate"]))
    assert not np.any(system.free_dofs & system.strong_dofs)
    assert np.all(system.free_dofs | system.strong_dofs
                  | ~system.active_dofs)


def test_cut_dofs_are_active_free_cut_nodes():
    ls = domain_catalog("annulus")
    system = assemble(ProblemSpec(ls, 2.0 / 32))
    expected = (system.classification.cut_nodes & system.active_dofs
                & ~system.strong_dofs)
    np.testing.assert_array_equal(system.cut_dofs, expected)

"""Transfers, hierarchies, cycles and the convergence bookkeeping."""

import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from ghostmg import multigrid as mg
from ghostmg.assembly import AssemblyError, ProblemSpec, assemble, number_dofs
from ghostmg.geometry import (DIRICHLET, CartesianGrid, CheckerboardCellError,
                              LevelSet, corner_nodes, domain_catalog,
                              domain_names)
from ghostmg.linalg import DegeneratePencilError, NotSPDError, matvec_into
from ghostmg.one_dim import assemble_1d
from ghostmg.stabilization import KAPPA, pencil_max
from oracles import (canonical_csr, coarse_theta, colours, pow_levelset,
                     restriction_1d, restriction_2d, split_residual_coarse)


# ---------------------------------------------------------------------------
# Transfer operators
# ---------------------------------------------------------------------------

def test_restriction_1d_matrix():
    R = restriction_1d(4).toarray()
    expected = 0.5 * np.array([
        [2.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 2.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 2.0],
    ])
    np.testing.assert_array_equal(R, expected)
    np.testing.assert_array_equal(R @ np.ones(5), [1.5, 2.0, 1.5])


@pytest.mark.parametrize("n", [2, 8, 64])
def test_restriction_1d_matches_the_hat_coefficient_loop(n):
    # Reference: row I has 1 at fine node 2I and 1/2 at its fine neighbours.
    expected = np.zeros((n // 2 + 1, n + 1))
    for I in range(n // 2 + 1):
        expected[I, 2 * I] = 1.0
        for neighbor in (2 * I - 1, 2 * I + 1):
            if 0 <= neighbor <= n:
                expected[I, neighbor] = 0.5
    R = restriction_1d(n)
    assert R.has_canonical_format
    np.testing.assert_array_equal(R.toarray(), expected)


def test_restriction_1d_validation():
    with pytest.raises(ValueError):
        restriction_1d(5)
    with pytest.raises(ValueError):
        restriction_1d(0)


def test_prolongation_reproduces_coarse_hat():
    # The middle coarse basis function interpolates to the fine hat of
    # double width.
    R = restriction_1d(4)
    P = R.T.tocsr()
    e1 = np.zeros(3)
    e1[1] = 1.0
    np.testing.assert_array_equal(P @ e1, [0.0, 0.5, 1.0, 0.5, 0.0])


def test_restriction_2d_tensor_structure():
    R = restriction_2d(2)
    assert R.shape == (4, 9)
    R1 = restriction_1d(2)
    np.testing.assert_array_equal(R.toarray(),
                                  sp.kron(R1, R1).toarray())


def test_restriction_row_sums():
    # Interior rows sum to 2 in 1D and 4 in 2D (the scaling that makes the
    # Galerkin coarse operator match direct coarse assembly).
    R1 = restriction_1d(8).toarray()
    np.testing.assert_allclose(R1[1:-1].sum(axis=1), 2.0, rtol=1e-15)
    R2 = restriction_2d(8)
    sums = np.asarray(R2.sum(axis=1)).ravel().reshape(5, 5)
    np.testing.assert_allclose(sums[1:-1, 1:-1], 4.0, rtol=1e-15)


def _disk_two_levels():
    system = assemble(ProblemSpec(domain_catalog("disk"), 1.0 / 16,
                                  gamma=2.0))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    fine, coarse = hierarchy.levels
    return system, fine, coarse


def test_masked_transfers_zero_constrained_columns():
    # A level's R is the refinement-weight matrix cut to the fine free DOFs:
    # scattered back onto the full grids through each level's DOF order,
    # the constrained fine columns are zero and the free ones carry the raw
    # weights.
    system, fine, coarse = _disk_two_levels()
    np.testing.assert_array_equal(fine.free, system.free_dofs)
    assert (~fine.free).any()
    raw = restriction_2d(16).toarray()
    full = np.zeros_like(raw)
    full[np.ix_(coarse.dofs.order, fine.dofs.order)] = fine.R.toarray()
    assert np.all(full[:, ~fine.free] == 0.0)
    np.testing.assert_array_equal(full[:, fine.free][coarse.free],
                                  raw[:, fine.free][coarse.free])
    np.testing.assert_array_equal(fine.P.toarray(), fine.R.T.toarray())


def test_masked_transfers_flag_dead_coarse_rows():
    # The coarse nodes reached by a free fine DOF are the coarse free DOFs;
    # every other coarse node has no free fine support and is left out.
    # Rows and columns follow the coarse and the fine DOF order.
    system, fine, coarse = _disk_two_levels()
    raw = restriction_2d(16)[:, fine.dofs.order]
    reached = np.diff(raw.indptr) > 0
    np.testing.assert_array_equal(coarse.free, reached)
    assert 0 < reached.sum() < reached.size
    np.testing.assert_array_equal(fine.R.toarray(),
                                  raw[coarse.dofs.order].toarray())
    assert np.all(np.diff(fine.R.indptr) > 0)


@pytest.mark.parametrize("name", domain_names() + ["interval"])
def test_transfers_equal_the_sliced_refinement_matrix_bitwise(name):
    # Each level's R, built from the coarse parents of its fine DOFs, is the
    # refinement-weight matrix of the whole grid cut to the fine DOFs
    # (columns) and the coarse DOFs (rows), canonical and bit for bit; P is
    # its canonical transpose.
    if name == "interval":
        system = assemble_1d(64, 0.3, 0.6, 1.1 / (0.3 / 64))
        restriction = restriction_1d
    else:
        system = _catalog_system(name)
        restriction = restriction_2d
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert len(hierarchy.levels) == 5
    for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
        expected = canonical_csr(
            restriction(fine.grid.n)[:, fine.dofs.order][coarse.dofs.order])
        transposed = canonical_csr(expected.T)
        for got, want in ((fine.R, expected), (fine.P, transposed)):
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(
                    getattr(got, part), getattr(want, part),
                    err_msg=f"{name}, level {fine.index}: {part}")


# ---------------------------------------------------------------------------
# Hierarchies
# ---------------------------------------------------------------------------

def test_cycle_config_validation():
    with pytest.raises(ValueError):
        mg.CycleConfig(gamma_star=3)
    with pytest.raises(ValueError):
        mg.CycleConfig(nu1=-1)
    with pytest.raises(ValueError):
        mg.CycleConfig(coarsest_n=0)


@pytest.mark.parametrize("field, value", [
    ("nu1", 1.5), ("eta", 1.5), ("coarsest_n", 8.0), ("gamma_star", 1.0)])
def test_cycle_config_names_a_field_that_is_no_integer(field, value):
    # Each would fail later, inside build_hierarchy or solve, with a bare
    # TypeError; numpy integers stay accepted.
    with pytest.raises(ValueError, match=field):
        mg.CycleConfig(**{field: value})
    mg.CycleConfig(**{field: np.int64(value)})


def test_solve_reads_a_list_right_hand_side():
    system = assemble_1d(16, 0.3, 0.6, 1.1 / (0.3 / 16), f=lambda x: x)
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    u, trace = mg.solve(hierarchy, system.F, max_iters=3)
    u_list, trace_list = mg.solve(hierarchy, list(system.F), max_iters=3)
    np.testing.assert_array_equal(u_list, u)
    np.testing.assert_array_equal(trace_list.residual_norms,
                                  trace.residual_norms)


def test_depth_validation():
    system = assemble_1d(12, 0.5, 0.5, 100.0)
    with pytest.raises(ValueError):
        mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    system8 = assemble_1d(8, 0.5, 0.5, 100.0)
    with pytest.raises(ValueError):
        mg.build_hierarchy(system8, mg.CycleConfig(coarsest_n=8))


def _penalty_operator(level):
    """sum lam M over the penalty cells of a level, on its DOFs, dense."""
    penalty = level.penalty
    dof = np.full(level.grid.num_nodes, -1)
    dof[level.dofs.order] = np.arange(level.num_dofs)
    nodes = dof[corner_nodes(penalty.cells, level.grid.n)]
    m = nodes.shape[1]
    rows = np.repeat(nodes, m, axis=1).ravel()
    cols = np.tile(nodes, m).ravel()
    values = (penalty.lam[:, None, None] * penalty.M).ravel()
    kept = (rows >= 0) & (cols >= 0)
    out = np.zeros((level.num_dofs, level.num_dofs))
    np.add.at(out, (rows[kept], cols[kept]), values[kept])
    return out


def _assert_compressed_galerkin(hierarchy):
    """Levels live on their free DOFs, P = R^T exactly, and each coarse
    operator is bitwise symmetric and equals the Galerkin product of its
    parent with the parent's penalty exchanged for its own:
    A_c = R (A - Pen) P + Pen_c, Pen = sum lam M over a level's penalty
    cells.  Every nonzero of that product is stored; the operator may
    store exact zeros besides, where a coarse cell holds two nodes that
    the product does not couple."""
    for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
        free_f, free_c = fine.free.sum(), coarse.free.sum()
        assert fine.A.shape == (free_f, free_f)
        assert fine.R.shape == (free_c, free_f)
        np.testing.assert_array_equal(fine.P.toarray(), fine.R.T.toarray())
        assert (coarse.A - coarse.A.T).nnz == 0
        R = fine.R.toarray()
        rap = R @ fine.A.toarray() @ R.T
        exchanged = R @ (fine.A.toarray() - _penalty_operator(fine)) @ R.T \
            + _penalty_operator(coarse)
        np.testing.assert_allclose(coarse.A.toarray(), exchanged, rtol=0.0,
                                   atol=1e-14 * np.abs(rap).max())
        stored = sp.csr_matrix((np.ones(coarse.A.nnz), coarse.A.indices,
                                coarse.A.indptr), shape=coarse.A.shape)
        assert not exchanged[stored.toarray() == 0.0].any()


@pytest.mark.parametrize("name", domain_names() + ["interval"])
def test_coarse_operators_are_the_exchanged_galerkin_products(name):
    # The pooled cell assembly of every coarse level is the Galerkin product
    # with the penalty exchanged: with Neumann cut cells (annulus, leaf),
    # with the rectangle's strong DOFs, and in 1D.
    if name == "interval":
        system = assemble_1d(64, 0.3, 0.6, 1.1 / (0.3 / 64))
    else:
        system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert len(hierarchy.levels) == 5
    _assert_compressed_galerkin(hierarchy)


def test_coarse_operators_skip_constrained_coarse_nodes():
    # Strong nodes inside the domain, a 3x3 block around node (32, 32),
    # leave coarse node (16, 16) without a free fine DOF: it is no coarse
    # DOF, though the coarse cells around it are active, and the coarse
    # operators drop its couplings.
    disk = domain_catalog("disk")
    levelset = dataclasses.replace(disk, params={
        **disk.params,
        "strong_predicate": lambda x, y: ((np.abs(x - 0.5) < 1.5 / 64)
                                          & (np.abs(y - 0.5) < 1.5 / 64))})
    system = assemble(ProblemSpec(levelset, 1.0 / 64, gamma=2.0))
    assert system.strong_dofs.sum() == 9
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert not hierarchy.levels[1].free[16 + 33 * 16]
    _assert_compressed_galerkin(hierarchy)


def _assert_levels_complete(hierarchy, colours):
    """Every level is complete when built: each level but the last holds R
    and P, R == P^T bitwise, and its smoother's `colours` full-sweep steps;
    the last holds a factor that solves its operator and no transfers; and
    every level but the first holds an iterate and a right-hand side of its
    size."""
    *smoothed, last = hierarchy.levels
    for lvl in smoothed:
        transposed = lvl.P.T.tocsr()
        assert lvl.R.shape == transposed.shape
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(lvl.R, part),
                                          getattr(transposed, part),
                                          strict=True)
        assert len(lvl._free_steps) == colours
    assert last.R is None and last.P is None
    assert not hasattr(last, "_free_steps")
    x = np.linspace(1.0, 2.0, last.num_dofs)
    np.testing.assert_allclose(last.coarse_solve(last.A @ x), x, rtol=1e-12)
    assert hierarchy.levels[0].iterate is None
    for lvl in hierarchy.levels[1:]:
        assert lvl.iterate.shape == lvl.rhs.shape == (lvl.num_dofs,)
        assert not np.shares_memory(lvl.iterate, lvl.rhs)


def test_hierarchy_1d_structure():
    system = assemble_1d(16, 0.3, 0.6, 1.1 / (0.3 / 16))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert [lvl.grid.n for lvl in hierarchy.levels] == [16, 8, 4]
    for lvl in hierarchy.levels:
        assert lvl.free.all()
        m = lvl.num_dofs
        np.testing.assert_array_equal(lvl.dofs.order, np.arange(m))
        np.testing.assert_array_equal(np.flatnonzero(lvl.cut),
                                      [0, 1, m - 2, m - 1])
    # Level 0 is the system's operator, not a copy.
    assert np.shares_memory(hierarchy.levels[0].A.data, system.operator.data)
    for lvl in hierarchy.levels[:-1]:
        np.testing.assert_array_equal(lvl.R.toarray(),
                                      restriction_1d(lvl.grid.n).toarray())
    _assert_compressed_galerkin(hierarchy)
    _assert_levels_complete(hierarchy, colours=1)


@pytest.mark.parametrize("name", ["flower", "disk", "annulus", "leaf",
                                  "rectangle"])
def test_global_penalty_rule_holds_on_every_level(name):
    # Under the global rule each coarse level has one penalty on its penalty
    # cells (lam > 0), the largest that the local rule gives them, floored
    # by the finer level's penalty over KAPPA.  On the annulus, the leaf and
    # the rectangle most listed cells carry no penalty (Neumann chords,
    # strong edges) and keep S, B and M zero.
    kw = {"theta": 0.5, "h": 1.0 / 64} if name == "rectangle" else {}
    levelset = domain_catalog(name, **kw)
    system = assemble(ProblemSpec(
        levelset=levelset, gamma=2.0, h=levelset.art_extent / 64,
        lambda_mode="global"))
    penalized = system.penalty.lam > 0.0
    assert penalized.all() == (name in ("flower", "disk"))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
        penalty = coarse.penalty
        pen = penalty.lam > 0.0
        assert penalty.mode == "global" and pen.any()
        own = 2.0 * pencil_max(penalty.B[pen], penalty.S[pen])
        assert not np.isnan(own).any()
        want = max(own.max(), fine.penalty.lam.max() / KAPPA)
        np.testing.assert_array_equal(penalty.lam[pen],
                                      np.full(pen.sum(), want))
        for zero in (penalty.S, penalty.B, penalty.M):
            assert not zero[~pen].any()
    _assert_compressed_galerkin(hierarchy)


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([32, 64, 128]),
       cx=st.floats(0.35, 0.65), cy=st.floats(0.35, 0.65),
       radius=st.floats(0.1, 0.3), aspect=st.floats(0.5, 1.0),
       ellipse=st.booleans(), mode=st.sampled_from(["local", "global"]))
def test_random_disks_and_ellipses_keep_every_level_spd(n, cx, cy, radius,
                                                        aspect, ellipse,
                                                        mode):
    """On random disks and axis-aligned ellipses, under both penalty rules,
    the set-up either raises a named error or builds a hierarchy down to
    n = 4 whose every level is bitwise symmetric and positive definite."""
    rx, ry = radius, radius * aspect if ellipse else radius

    def psi(x, y):
        return ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 - 1.0

    try:
        system = assemble(ProblemSpec(LevelSet("ellipse", (psi,),
                                               (DIRICHLET,)),
                                      1.0 / n, lambda_mode=mode))
        hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    except (CheckerboardCellError, AssemblyError, DegeneratePencilError,
            NotSPDError):
        return
    assert hierarchy.levels[-1].grid.n == 4
    for level in hierarchy.levels:
        assert (level.A != level.A.T).nnz == 0
        level.prepare_coarse_solver()


def _reversed(penalty):
    """The penalty cells with every per-cell array in reverse order."""
    return dataclasses.replace(penalty, **{
        key: getattr(penalty, key)[::-1]
        for key in ("cells", "K0", "S", "B", "M", "lam")})


@pytest.mark.parametrize("name", ["disk", "rectangle"])
def test_levels_do_not_depend_on_the_order_of_their_cells(name):
    # Reversing every array of the finest cells gives bitwise the same
    # finest operator, coarse operators, penalties and one-cycle iterate,
    # with the rectangle's strong DOFs too.
    system = _catalog_system(name)
    assert system.strong_dofs.any() == (name == "rectangle")
    flipped = dataclasses.replace(system, penalty=_reversed(system.penalty))
    rows = np.arange(system.grid.num_nodes)
    operators = [s.penalty.operator(s.grid, rows, rows)
                 for s in (system, flipped)]
    config = mg.CycleConfig(coarsest_n=4, eta=1)
    hierarchies = [mg.build_hierarchy(s, config) for s in (system, flipped)]
    for a, b in [operators] + [
            (x.A, y.A) for x, y in zip(*(h.levels for h in hierarchies))]:
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
    for x, y in zip(*(h.levels[1:] for h in hierarchies)):
        np.testing.assert_array_equal(x.penalty.lam, y.penalty.lam)
    F = np.random.default_rng(3).standard_normal(system.grid.num_nodes)
    u, v = (mg.solve(h, F, max_iters=1)[0] for h in hierarchies)
    np.testing.assert_array_equal(u, v)


@pytest.mark.parametrize("theta1", [0.0099, 0.3, 1.0])
def test_coarse_levels_1d_are_direct_assemblies_with_their_own_penalty(
        theta1):
    # A 1D coarse level is the direct assembly at the pulled-in fractions
    # with its own penalty, gamma / (theta_k h_k), floored by the finer
    # level's over KAPPA; the Galerkin product would keep the finest one.
    n, theta2, gamma = 256, 0.6, 1.1
    system = assemble_1d(n, theta1, theta2, gamma / (theta1 / n))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    lam, floored = system.lam, False
    for level in hierarchy.levels[1:]:
        theta1, theta2 = coarse_theta(theta1), coarse_theta(theta2)
        own = gamma / (theta1 / level.grid.n)
        floored |= lam / KAPPA > own
        lam = max(own, lam / KAPPA)
        assert level.penalty.lam[0] == pytest.approx(lam, rel=1e-12)
        direct = assemble_1d(level.grid.n, theta1, theta2,
                             level.penalty.lam[0]).operator.toarray()
        np.testing.assert_allclose(level.A.toarray(), direct, rtol=0.0,
                                   atol=1e-14 * np.abs(direct).max(),
                                   err_msg=f"level {level.index}")
    assert floored == (system.theta1 < 0.1)


@pytest.mark.parametrize("theta1", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("theta2", [0.1, 0.5, 1.0])
def test_galerkin_equals_direct_coarse_assembly_1d(theta1, theta2):
    # Restricting the fine operator reproduces direct assembly on the coarse
    # grid with halved resolution, pulled-in fractions and the same penalty.
    n, lam = 8, 64.0
    fine = assemble_1d(n, theta1, theta2, lam)
    R = restriction_1d(n)
    rap = (R @ fine.operator @ R.T).toarray()
    coarse = assemble_1d(n // 2, coarse_theta(theta1), coarse_theta(theta2),
                         lam)
    np.testing.assert_allclose(rap, coarse.operator.toarray(), rtol=0.0,
                               atol=1e-13)


@pytest.mark.parametrize("theta1", [0.0099, 0.5, 0.99])
def test_triangle_solve_is_the_forward_substitution_in_place(theta1,
                                                              monkeypatch):
    # A 1D full sweep is one lexicographic Gauss-Seidel step, the forward
    # substitution u = tril(A)^-1 (F - triu(A, 1) u), and each of the eta
    # cut sweeps one such step on the cut block in correction form, which
    # smooth applies in closed form, as one correction.  On every smoothed
    # level and at every scale, smooth agrees in place with the dense
    # substitutions to roundoff, and its eta cut sweeps form one product.
    n = 1024
    system = assemble_1d(n, theta1, 0.01, 1.1 / (theta1 / n))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(eta=4))
    rng = np.random.default_rng(31)
    for level in hierarchy.levels[:-1]:
        A, cut = level.A.toarray(), level.dofs.cut_at
        block = A[np.ix_(cut, cut)]
        for scale in (1e-8, 1.0, 1e8):
            u0 = scale * rng.standard_normal(level.num_dofs)
            F = scale * rng.standard_normal(level.num_dofs)
            expected = solve_triangular(np.tril(A), F - np.triu(A, 1) @ u0,
                                        lower=True)
            for eta in range(9):
                if eta:
                    expected[cut] += solve_triangular(
                        np.tril(block), (F - A @ expected)[cut], lower=True)
                if eta not in (0, 1, 2, 3, 4, 8):
                    continue
                u = u0.copy()
                level.smooth(u, F, eta)
                assert np.abs(u - expected).max() \
                    <= 1e-13 * np.abs(expected).max(), (level.index, scale,
                                                        eta)
    products = []

    def counting_matvec_into(*args):
        products.append(args[0].shape)
        return matvec_into(*args)

    monkeypatch.setattr(mg, "matvec_into", counting_matvec_into)
    level.smooth(u, F, 8)
    assert products == [(cut.size, level.num_dofs)]


def test_one_dimensional_sweeps_factor_only_the_coarsest_level(monkeypatch):
    # A 1D operator is tridiagonal, so each step of the full and the cut
    # sweep solves a bidiagonal triangle by forward substitution: building
    # the hierarchy factors the coarsest operator and no triangle.
    factored, incomplete = [], []
    splu = mg.spla.splu

    def counting_splu(A, **options):
        factored.append(A.shape)
        return splu(A, **options)

    monkeypatch.setattr(mg.spla, "splu", counting_splu)
    monkeypatch.setattr(mg.spla, "spilu",
                        lambda A, **options: incomplete.append(A.shape))
    system = assemble_1d(1024, 0.5, 0.01, 1.1 / (0.5 / 1024))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(eta=4))
    assert factored == [hierarchy.levels[-1].A.shape]
    assert incomplete == []
    for level in hierarchy.levels[:-1]:
        assert len(level._free_steps) == 1
        assert [len(level._cut_sweep(eta)) for eta in (0, 1, 4)] == [0, 1, 1]


def test_one_dimensional_smoother_rejects_a_wider_operator():
    # The 1D step solves a bidiagonal triangle, so an operator that couples
    # DOFs two apart raises, naming the level, as a 2D colour class that
    # couples to itself does.
    m = 9
    A = sp.diags([-0.5, -1.0, 6.0, -1.0, -0.5], [-2, -1, 0, 1, 2],
                 shape=(m, m), format="csr")
    grid = CartesianGrid(m - 1, (0.0,), 1.0)
    free, cut = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    eye = sp.identity(m, format="csr")
    with pytest.raises(ValueError, match="level 2: the 1D operator"):
        mg.MgLevel(A, grid, number_dofs(free, cut, grid), index=2, R=eye,
                   P=eye)


def test_level_rejects_an_operator_not_on_its_dofs():
    # A level's operator is N x N for the N DOFs of its record; any other
    # shape raises, naming the level, when the level is made.
    grid = CartesianGrid(8, (0.0,), 1.0)
    dofs = number_dofs(np.ones(9, dtype=bool), np.zeros(9, dtype=bool), grid)
    assert mg.MgLevel(sp.identity(9, format="csr"), grid, dofs).num_dofs == 9
    for shape in ((5, 5), (9, 5), (5, 9)):
        with pytest.raises(ValueError,
                           match=r"level 1: operator of shape .* on 9 DOFs"):
            mg.MgLevel(sp.csr_matrix(shape), grid, dofs, index=1)
    # A fine operator with the record of the coarser grid.
    system = assemble(ProblemSpec(domain_catalog("disk"), 1.0 / 16))
    coarse = system.grid.coarsen()
    dofs_c = number_dofs(np.ones(coarse.num_nodes, dtype=bool),
                         np.zeros(coarse.num_nodes, dtype=bool), coarse)
    with pytest.raises(ValueError, match="level 2: operator of shape"):
        mg.MgLevel(system.operator, coarse, dofs_c, index=2)


def test_hierarchy_2d_structure():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16, gamma=2.0))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert [lvl.grid.n for lvl in hierarchy.levels] == [16, 8, 4]
    free = system.free_dofs
    order = hierarchy.levels[0].dofs.order
    np.testing.assert_array_equal(np.sort(order), np.flatnonzero(free))
    # Level 0 is the system's operator, not a copy, and the free block of
    # the whole-grid view, permuted, bitwise and in CSR order.
    assert np.shares_memory(hierarchy.levels[0].A.data, system.operator.data)
    block = system.A[order][:, order]
    block.sort_indices()
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(hierarchy.levels[0].A, part),
                                      getattr(block, part))
    _assert_compressed_galerkin(hierarchy)
    # No identity rows remain: the finest level drops every constrained
    # node.  Masks stay over each level's grid nodes, and cut DOFs for the
    # extra sweeps are always free.
    assert hierarchy.levels[0].num_dofs == free.sum() < free.size
    for lvl in hierarchy.levels:
        assert lvl.free.size == lvl.grid.num_nodes
        assert not np.any(lvl.cut & ~lvl.free)
    _assert_levels_complete(hierarchy, colours=4)


def test_set_up_never_builds_the_whole_grid_view():
    # The hierarchy takes the finest operator as is: neither assembly nor
    # build_hierarchy reads system.A, which is built on first use only.
    ls = domain_catalog("rectangle", theta=0.4, h=1.0 / 32)
    for system in (assemble_1d(32, 0.3, 0.6, 1.1 / (0.3 / 32)),
                   assemble(ProblemSpec(
                       ls, 1.0 / 32, g_dirichlet=lambda x, y: x + y))):
        hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
        mg.solve(hierarchy, system.F, max_iters=2)
        assert "A" not in vars(system)
        assert np.shares_memory(hierarchy.levels[0].A.data,
                                system.operator.data)


def _cell_corners(cells: np.ndarray) -> np.ndarray:
    """Flat mask of the corner nodes of the marked cells of an (n,)*dim
    cell array indexed [j, i]."""
    corners = np.zeros(tuple(m + 1 for m in cells.shape), dtype=bool)
    for offset in np.ndindex((2,) * cells.ndim):
        corners[tuple(slice(o, o + m) for o, m in
                      zip(offset, cells.shape))] |= cells
    return corners.ravel()


def _pooled(cells: np.ndarray) -> np.ndarray:
    """Cells of the coarser grid holding a marked cell: 2 x 2 pooling (2
    in 1D)."""
    shape = sum(((m // 2, 2) for m in cells.shape), ())
    return cells.reshape(shape).any(axis=tuple(range(1, 2 * cells.ndim, 2)))


@pytest.mark.parametrize("name", domain_names() + ["interval"])
def test_coarse_cut_dofs_are_corners_of_the_pooled_cut_cells(name):
    # The coarse nodes the fine cut DOFs restrict to are the corners of the
    # coarse cells that hold a fine cut cell, on every level.
    if name == "interval":
        system = assemble_1d(64, 0.3, 0.6, 1.1 / (0.3 / 64))
        cells = np.zeros(64, dtype=bool)
        cells[[0, -1]] = True
    else:
        system = _catalog_system(name)
        cells = system.classification.cut
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert len(hierarchy.levels) == 5
    for lvl in hierarchy.levels:
        np.testing.assert_array_equal(
            lvl.cut, _cell_corners(cells) & lvl.free,
            err_msg=f"{name}, level {lvl.index}")
        cells = _pooled(cells)


def test_coarsest_indefinite_raises():
    # A penalty far below the trace constant leaves even the coarsest
    # operator indefinite; the exact solver reports it instead of silently
    # returning garbage.
    system = assemble_1d(8, 1.0, 0.5, 0.1 / (1.0 / 8))
    with pytest.raises(NotSPDError, match=r"level 1: "):
        mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def small_1d_hierarchy(n=16, coarsest=8, **cfg):
    system = assemble_1d(n, 0.3, 0.6, 1.1 / (0.3 / n))
    config = mg.CycleConfig(coarsest_n=coarsest, **cfg)
    return system, mg.build_hierarchy(system, config)


def one_cycle(hierarchy, F, u):
    """One cycle on full-grid vectors."""
    return mg.solve(hierarchy, F, u0=u, max_iters=1)[0]


def test_one_level_hierarchy_solves_exactly():
    # With no coarser level the cycle is the exact coarsest solve.
    system = assemble_1d(16, 0.3, 0.6, 1.1 / (0.3 / 16))
    order = system.dofs.order
    level = mg.MgLevel(system.operator, system.grid, system.dofs)
    single = mg.Hierarchy([level], mg.CycleConfig(coarsest_n=16))
    u, trace = mg.solve(single, system.F, max_iters=1)
    np.testing.assert_array_equal(u[order], level.coarse_solve(system.F[order]))
    assert trace.residual_norms[-1] <= 1e-12 * trace.residual_norms[0]


@pytest.mark.parametrize("name", ["interval", "disk"])
def test_a_level_used_in_the_wrong_role_raises(name):
    # A level is made either smoothed, with transfers, or the coarsest,
    # factored; smoothing the coarsest level or solving on a smoothed one
    # raises, naming the level, instead of leaving u as it was or calling a
    # factor that is not there.
    if name == "interval":
        system = assemble_1d(32, 0.3, 0.6, 1.1 / (0.3 / 32))
    else:
        system = _catalog_system(name)
    levels = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8)).levels
    coarsest = levels[-1]
    u = np.ones(coarsest.num_dofs)
    with pytest.raises(RuntimeError, match=rf"level {len(levels) - 1}: the "
                       "coarsest level is solved exactly, not smoothed"):
        coarsest.smooth(u, np.zeros_like(u), 4)
    for level in levels[:-1]:
        with pytest.raises(RuntimeError, match=rf"level {level.index}: only "
                           "the coarsest level is factored"):
            level.coarse_solve(np.zeros(level.num_dofs))
    # A level made alone, without transfers, is a coarsest level.
    alone = mg.MgLevel(system.operator, system.grid, system.dofs, index=5)
    with pytest.raises(RuntimeError, match="level 5: the coarsest level"):
        alone.smooth(np.ones(alone.num_dofs), np.zeros(alone.num_dofs), 0)


def test_w_and_v_cycles_coincide_on_two_levels():
    # With one coarsening step both cycles are the two-grid method: the
    # second coarse visit repeats the same exact solve.
    system, v_cycle = small_1d_hierarchy()
    _, w_cycle = small_1d_hierarchy(gamma_star=2)
    rng = np.random.default_rng(1)
    F = rng.standard_normal(17)
    u0 = rng.standard_normal(17)
    np.testing.assert_array_equal(one_cycle(w_cycle, F, u0),
                                  one_cycle(v_cycle, F, u0))


def test_cycle_returns_new_array():
    system, hierarchy = small_1d_hierarchy()
    u0 = np.ones(17)
    out = one_cycle(hierarchy, np.zeros(17), u0)
    assert out is not u0
    np.testing.assert_array_equal(u0, 1.0)


def test_cycle_is_linear():
    # One cycle is an affine map; for the homogeneous right-hand side it is
    # linear in the iterate, and jointly linear in (u, F).
    system, hierarchy = small_1d_hierarchy(n=32, coarsest=8)
    rng = np.random.default_rng(7)
    u1, u2 = rng.standard_normal((2, 33))
    F1, F2 = rng.standard_normal((2, 33))
    a, b = 0.37, -1.21
    combined = one_cycle(hierarchy, a * F1 + b * F2, a * u1 + b * u2)
    separate = (a * one_cycle(hierarchy, F1, u1)
                + b * one_cycle(hierarchy, F2, u2))
    np.testing.assert_allclose(combined, separate, rtol=0.0, atol=1e-12)


def test_smooth_preserves_exact_solution():
    system, hierarchy = small_1d_hierarchy()
    level = hierarchy.levels[0]
    x = np.linalg.solve(system.operator.toarray(), system.F)
    u = x.copy()
    level.smooth(u, system.F, 2)
    np.testing.assert_allclose(u, x, rtol=0.0, atol=1e-10)


def test_identity_transfers_solve_in_one_cycle():
    # With identity transfers the coarse level IS the fine operator, so the
    # exact coarse solve finishes the job in a single cycle.
    system = assemble_1d(8, 0.5, 0.5, 1.1 / (0.5 / 8))
    m = system.operator.shape[0]
    free = np.ones(m, dtype=bool)
    cut = np.zeros(m, dtype=bool)
    dofs = number_dofs(free, cut, system.grid)
    eye = sp.identity(m, format="csr")
    level0 = mg.MgLevel(system.operator, system.grid, dofs, R=eye, P=eye)
    level1 = mg.MgLevel(system.operator, system.grid, dofs, index=1)
    hierarchy = mg.Hierarchy([level0, level1], mg.CycleConfig(coarsest_n=4))
    u = one_cycle(hierarchy, system.F, np.zeros(m))
    r = system.F - system.operator @ u
    assert np.abs(r).max() <= 1e-10


def test_w_cycle_recursion_count():
    # With L coarsening steps, gamma_star = 2 visits the coarsest level 2**L
    # times per cycle; here 32 -> 16 -> 8 -> 4 gives L = 3.
    for gamma_star, visits in ((2, 8), (1, 1)):
        system, hierarchy = small_1d_hierarchy(n=32, coarsest=4,
                                               gamma_star=gamma_star)
        coarsest = hierarchy.levels[-1]
        calls = []
        inner = coarsest._coarse_solve
        coarsest._coarse_solve = lambda F: (calls.append(1), inner(F))[1]
        one_cycle(hierarchy, np.zeros(33), np.zeros(33))
        assert len(calls) == visits


# ---------------------------------------------------------------------------
# solve() and the convergence trace
# ---------------------------------------------------------------------------

def test_solve_1d_converges_to_direct_solution():
    system, hierarchy = small_1d_hierarchy(n=64, coarsest=8)
    u, trace = mg.solve(hierarchy, system.F, max_iters=40,
                        target_residual=1e-12)
    direct = np.linalg.solve(system.operator.toarray(), system.F)
    np.testing.assert_allclose(u, direct, rtol=0.0, atol=1e-9)
    assert trace.residual_norms[-1] <= 1e-12
    assert not trace.diverged and not trace.stalled
    assert trace.iterations < 40  # early stop triggered


def test_solve_fixes_constrained_dofs():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 32, gamma=2.0))
    config = mg.CycleConfig(coarsest_n=16)
    hierarchy = mg.build_hierarchy(system, config)
    u, _ = mg.solve(hierarchy, system.F, u0=np.ones_like(system.F),
                    max_iters=3)
    fixed = ~system.free_dofs
    np.testing.assert_array_equal(u[fixed], system.F[fixed])
    # One cycle takes full-grid vectors too and sets the same entries.
    u = one_cycle(hierarchy, system.F, np.ones_like(system.F))
    assert u.shape == system.F.shape
    np.testing.assert_array_equal(u[fixed], system.F[fixed])


@pytest.mark.parametrize("size", [10, 20, 30])
def test_solve_rejects_vectors_not_on_the_grid(size):
    # A hierarchy on 17 nodes names the size of an F or u0 of any other
    # length instead of indexing it at its DOFs.
    system, hierarchy = small_1d_hierarchy(n=16)
    with pytest.raises(ValueError, match=f"F has shape \\({size},\\); the "
                       "grid has 17 nodes"):
        mg.solve(hierarchy, np.zeros(size))
    with pytest.raises(ValueError, match=f"u0 has shape \\({size},\\)"):
        mg.solve(hierarchy, system.F, u0=np.zeros(size))


def test_readme_quick_start():
    # The README's first example, as printed there.
    problem = ProblemSpec(levelset=domain_catalog("disk"), h=1.0 / 64,
                          f=lambda x, y: np.ones_like(x), gamma=2.0)
    system = assemble(problem)
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8))
    u, trace = mg.solve(hierarchy, system.F, max_iters=100,
                        target_residual=1e-10)
    assert trace.iterations == 5
    assert trace.residual_norms[-1] <= 1e-10
    assert u.shape == (65 ** 2,)
    assert abs(u.max() - 0.04) <= 1e-3


def _catalog_system(name, n=64):
    params = {"theta": 0.5, "h": 1.0 / n} if name == "rectangle" else {}
    levelset = domain_catalog(name, **params)
    return assemble(ProblemSpec(
        levelset=levelset, h=levelset.art_extent / n, gamma=2.0))


@pytest.mark.parametrize("name", domain_names())
def test_two_dimensional_sweeps_scale_by_the_diagonal(name, monkeypatch):
    # Galerkin operators of Q1 keep the 9-point stencil, so on every
    # smoothed level no colour class couples to itself and each step of the
    # full and the cut sweeps is a diagonal scale: building the hierarchy
    # factors the coarsest operator and no Gauss-Seidel triangle.  Every
    # level numbers its free nodes class by class, cut nodes leading each
    # class, so each step smooths a contiguous row range, bit for bit
    # u[sel] += dinv[sel] * (F[sel] - A[sel] @ u), through views of A's CSR
    # arrays, not copies: scaling A's values after the steps are made
    # scales every product they form.  A step's residual is formed in the
    # leading slice of the level's scratch; past the widest class, no step
    # writes to it.
    system = _catalog_system(name)
    factored = []
    splu = mg.spla.splu

    def counting_splu(A, **options):
        factored.append(A.shape)
        return splu(A, **options)

    monkeypatch.setattr(mg.spla, "splu", counting_splu)
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    assert len(hierarchy.levels) == 4
    assert factored == [hierarchy.levels[-1].A.shape]
    assert hierarchy.levels[0]._cut_sweep(1)
    np.testing.assert_array_equal(np.sort(hierarchy.levels[0].dofs.order),
                                  np.flatnonzero(system.free_dofs))
    for level in hierarchy.levels:
        order = level.dofs.order
        assert np.unique(order).size == order.size == level.num_dofs
        assert np.all(level.free[order])
        classes = colours(level)
        assert np.all(np.diff(classes) >= 0)
        cut = level.cut[order]
        for c in range(4):
            assert np.all(np.diff(cut[classes == c].astype(int)) <= 0)
    rng = np.random.default_rng(37)
    for level in hierarchy.levels[:-1]:
        assert len(level._free_steps) == 4
        bounds = level.dofs.bounds
        ncut = np.diff(np.searchsorted(level.dofs.cut_at, bounds))
        full = list(zip(bounds[:-1], bounds[1:]))
        cut = [(start, start + k) for start, k in zip(bounds[:-1], ncut) if k]
        widest = max(stop - start for start, stop in full)
        dinv = 1.0 / level.A.diagonal()
        level.A.data *= 2.0
        try:
            for eta in (0, 2):
                u = rng.standard_normal(level.num_dofs)
                F = rng.standard_normal(level.num_dofs)
                expected = u.copy()
                for start, stop in full + eta * cut:
                    sel = slice(start, stop)
                    y = dinv[sel] * (F[sel] - level.A[sel] @ expected)
                    expected[sel] += y
                level.scratch.fill(np.nan)
                level.smooth(u, F, eta)
                np.testing.assert_array_equal(u, expected)
                np.testing.assert_array_equal(level.scratch[:y.size], y)
                assert np.isnan(level.scratch[widest:]).all()
        finally:
            level.A.data /= 2.0


@pytest.mark.parametrize("name", domain_names())
def test_solve_recovers_a_known_solution(name):
    # With F = A w, solve maps F, u0 and the result through the finest DOF
    # order: from zero and from w itself it returns w on the free nodes,
    # and F on the constrained nodes.
    system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8))
    free = system.free_dofs
    if "strong_predicate" in system.problem.levelset.params:
        assert system.strong_dofs.any()
    w = np.random.default_rng(11).standard_normal(free.size)
    F = system.A @ w
    for u0 in (None, w):
        u, trace = mg.solve(hierarchy, F, u0=u0, max_iters=100,
                            target_residual=1e-10)
        assert trace.residual_norms[-1] <= 1e-10
        assert np.abs(u[free] - w[free]).max() <= 1e-8
        np.testing.assert_array_equal(u[~free], F[~free])


def test_solve_returns_a_start_that_meets_the_target():
    # From u0 = w with F = A w the start residual is roundoff, below the
    # target, so solve runs no cycle and returns w; from zero it cycles.
    system = _catalog_system("disk")
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8))
    free = system.free_dofs
    w = np.random.default_rng(13).standard_normal(free.size)
    F = system.A @ w
    u, trace = mg.solve(hierarchy, F, u0=w, max_iters=100,
                        target_residual=1e-10)
    assert trace.iterations == 0
    assert trace.residual_norms.size == 1
    assert trace.residual_norms[0] <= 1e-10
    np.testing.assert_array_equal(u[free], w[free])
    np.testing.assert_array_equal(u[~free], F[~free])
    _, trace = mg.solve(hierarchy, F, max_iters=100, target_residual=1e-10)
    assert trace.iterations > 0


@pytest.mark.parametrize("name", ["F", "u0"])
def test_solve_rejects_a_non_finite_value_on_a_free_dof(name):
    # A NaN in F or an inf in u0 on a free DOF raises before any cycle,
    # naming the vector and the grid node, with or without a target.  The
    # constrained nodes are not checked: there u is F's entry, as given.
    system = _catalog_system("disk")
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    free = system.free_dofs
    node, constrained = np.flatnonzero(free)[7], np.flatnonzero(~free)[0]
    vectors = {"F": np.ones(free.size), "u0": np.zeros(free.size)}
    vectors[name][node] = np.nan if name == "F" else np.inf
    for target in (None, 1e-10):
        with pytest.raises(ValueError, match=rf"^{name} is (nan|inf) at "
                           rf"grid node {node}, a free DOF"):
            mg.solve(hierarchy, vectors["F"], u0=vectors["u0"], max_iters=3,
                     target_residual=target)
    vectors[name][node], vectors[name][constrained] = 1.0, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, trace = mg.solve(hierarchy, vectors["F"], u0=vectors["u0"],
                            max_iters=3)
    assert np.isfinite(trace.residual_norms).all()
    assert np.isfinite(u[free]).all()
    assert np.isnan(u[constrained]) == (name == "F")


@pytest.mark.parametrize("name", ["flower", "disk", "interval"])
def test_cycle_allocates_nothing_on_smoothed_levels(name):
    # Every step, residual and transfer writes into the level workspace
    # that build_hierarchy allocated, so after a warm-up a cycle's traced
    # allocations stay far below one finest-level vector: the coarsest
    # level's direct solve allocates its result, and little else does.
    if name == "interval":
        system = assemble_1d(1024, 0.5, 0.01, 1.1 / (0.5 / 1024))
    else:
        system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8))
    levels, config = hierarchy.levels, hierarchy.config
    order = hierarchy.levels[0].dofs.order
    F = system.F[order]
    u = np.zeros(order.size)
    mg._cycle(levels, 0, u, F, config)
    tracemalloc.start()
    try:
        mg._cycle(levels, 0, u, F, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * order.size


@pytest.mark.parametrize("name", ["interval", "disk"])
def test_a_solved_hierarchy_is_freed_by_reference_counting(name):
    # The steps a level keeps, the 1D closed-form cut sweep among them, hold
    # arrays and never the level, so a hierarchy that has solved is freed
    # when its last reference goes, without waiting for the garbage
    # collector.
    if name == "interval":
        system = assemble_1d(64, 0.3, 0.01, 1.1 / (0.3 / 64))
    else:
        system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(eta=4))
    mg.solve(hierarchy, system.F, max_iters=2)
    level0 = weakref.ref(hierarchy.levels[0])
    gc.disable()
    try:
        del hierarchy
        assert level0() is None
    finally:
        gc.enable()


def _reference_residual_norms(hierarchy, F, target, max_iters=100):
    """mg.solve from zero, written with plain products as the oracle of its
    workspace form: the coarse right-hand side R @ (F - A u), the
    correction u += P @ u_c and the smoothing steps, each built here from
    the level's operator and DOF record.  In 2D a step is
    u[sel] += dinv[sel] * (F[sel] - rows @ u) on the row range sel of one
    colour class, or of its leading cut DOFs in a cut sweep.  In 1D the
    full step is the direct form u = dinv * T(F - triu(A, 1) @ u), T the
    unit-diagonal solve with I + L D^-1 (`mg._triangle_solve`), and the eta
    cut sweeps are one step u[cut] += Q @ (F[cut] - A[cut] @ u), Q the sum
    over m < eta of G^m T_c^-1, G = -T_c^-1 U_c, for the lower triangle
    T_c and the strict upper triangle U_c of the dense cut block."""
    levels, config = hierarchy.levels, hierarchy.config

    def oracle_steps(level):
        A, dinv = level.A, 1.0 / level.A.diagonal()
        if level.grid.dim == 2:
            def step(sel):
                rows = A[sel]

                def run(u, F):
                    u[sel] += dinv[sel] * (F[sel] - rows @ u)
                return run

            bounds = level.dofs.bounds
            ncut = np.diff(np.searchsorted(level.dofs.cut_at, bounds))
            starts = bounds[:-1]
            return ([step(slice(a, b)) for a, b in zip(starts, bounds[1:])]
                    + config.eta * [step(slice(a, a + k))
                                    for a, k in zip(starts, ncut) if k])
        upper = sp.triu(A, 1, format="csr")
        solve = mg._triangle_solve(A.diagonal(), A.diagonal(-1))

        def full(u, F):
            u[:] = dinv * solve(F - upper @ u)

        cut = level.dofs.cut_at
        if not cut.size or not config.eta:
            return [full]
        rows = A[cut]
        block = rows[:, cut].toarray()
        T_inv = np.linalg.inv(np.tril(block))
        G, Q = T_inv @ -np.triu(block, 1), T_inv
        for _ in range(config.eta - 1):
            Q = T_inv + G @ Q

        def cut_step(u, F):
            u[cut] += Q @ (F[cut] - rows @ u)
        return [full, cut_step]

    smoothers = [oracle_steps(level) for level in levels[:-1]]

    def smooth(k, u, F):
        for step in smoothers[k]:
            step(u, F)

    def cycle(k, u, F):
        level = levels[k]
        if k == len(levels) - 1:
            u[:] = level.coarse_solve(F)
            return
        for _ in range(config.nu1):
            smooth(k, u, F)
        F_c = level.R @ (F - level.A @ u)
        u_c = np.zeros(levels[k + 1].num_dofs)
        for _ in range(config.gamma_star):
            cycle(k + 1, u_c, F_c)
        u += level.P @ u_c
        for _ in range(config.nu2):
            smooth(k, u, F)

    level0 = levels[0]
    F0 = F[level0.dofs.order]
    u = np.zeros(level0.num_dofs)
    norms = [np.abs(F0 - level0.A @ u).max()]
    while norms[-1] > target and len(norms) <= max_iters:
        cycle(0, u, F0)
        norms.append(np.abs(F0 - level0.A @ u).max())
    return np.array(norms)


@pytest.mark.parametrize("gamma_star", [1, 2])
@pytest.mark.parametrize("name", domain_names() + ["interval"])
def test_workspace_cycle_equals_the_plain_products_bitwise(name, gamma_star):
    if name == "interval":
        system = assemble_1d(64, 0.05, 0.6, 1.1 / (0.05 / 64))
    else:
        system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(
        nu1=2, nu2=1, eta=4, coarsest_n=8, gamma_star=gamma_star))
    F = np.random.default_rng(29).standard_normal(system.F.size)
    _, trace = mg.solve(hierarchy, F, max_iters=100, target_residual=1e-10)
    assert trace.iterations > 1
    np.testing.assert_array_equal(
        trace.residual_norms, _reference_residual_norms(hierarchy, F, 1e-10))


def test_trace_bookkeeping():
    trace = mg.ConvergenceTrace(residual_norms=np.array([1.0, 0.1, 0.01]))
    assert trace.iterations == 2
    np.testing.assert_array_equal(trace.rho_per_iter, [0.1, 0.01 / 0.1])
    assert trace.rho_mean(1, 2) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        trace.rho_mean(1, 3)
    with pytest.raises(ValueError):
        trace.rho_mean(0, 2)
    with pytest.raises(ValueError):
        trace.rho_mean(2, 1)


def test_solve_records_per_cycle_factors():
    system, hierarchy = small_1d_hierarchy(n=32, coarsest=16)
    _, trace = mg.solve(hierarchy, np.zeros(33), u0=np.ones(33), max_iters=10)
    assert len(trace.residual_norms) == 11
    assert len(trace.rho_per_iter) == 10
    ratios = trace.residual_norms[1:] / trace.residual_norms[:-1]
    np.testing.assert_allclose(trace.rho_per_iter, ratios, rtol=1e-12)


def test_zero_residual_gives_zero_factors_without_a_warning():
    # F = 0 from u0 = 0 keeps every residual exactly 0; each factor is then
    # 0, not 0 / 0, and the run is not flagged.
    system, hierarchy = small_1d_hierarchy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = mg.solve(hierarchy, np.zeros(17), u0=np.zeros(17),
                            max_iters=3)
        rho = trace.rho_per_iter
    np.testing.assert_array_equal(trace.residual_norms, 0.0)
    np.testing.assert_array_equal(rho, [0.0, 0.0, 0.0])
    assert not trace.diverged


def test_divergent_run_is_flagged_but_kept():
    # A wrong-sign coarse correction (P -> -P) makes the cycle grow the
    # error, by a factor near 1.8 per cycle after the first few; the run
    # must flag divergence, warn once and keep the trace.
    system = assemble_1d(32, 0.5, 0.5, 1.1 / (0.5 / 32))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=16))
    fine = hierarchy.levels[0]
    fine.P = -fine.P
    with pytest.warns(RuntimeWarning) as record:
        _, trace = mg.solve(hierarchy, np.zeros(33), u0=np.ones(33),
                            max_iters=12)
    assert len(record) == 1
    assert trace.diverged
    assert trace.iterations == 12


def test_a_run_stuck_above_its_target_stops_as_stalled():
    # At n = 16384 the residual of a random right-hand side bottoms out
    # near 5e-10, above the target 1e-10; the run stops once five cycles
    # bring no new lowest residual, and names the floor it reached.
    n = 16384
    system = assemble_1d(n, 0.5, 0.01, 1.1 / (0.5 / n))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(eta=4))
    F = np.random.default_rng(0).standard_normal(n + 1)
    with pytest.warns(RuntimeWarning, match="stalled at") as record:
        _, trace = mg.solve(hierarchy, F, max_iters=60,
                            target_residual=1e-10)
    assert len(record) == 1
    assert trace.stalled and not trace.diverged
    assert trace.iterations < 60
    norms = trace.residual_norms
    best = norms[:-mg.DIVERGENCE_PATIENCE].min()
    assert best > 1e-10
    assert np.all(norms[-mg.DIVERGENCE_PATIENCE:] >= best)
    assert f"{best:.3e}" in str(record[0].message)


def test_a_converging_run_is_not_called_stalled():
    # From u = 0 at eta = 0 the first cycle raises the residual many times
    # over, and at a factor near 0.5 the run takes more than five cycles
    # to get back below its start.  The lowest residual counts from cycle
    # 1, so the run goes on to its target.
    ls = domain_catalog("hourglass")
    system = assemble(ProblemSpec(ls, ls.art_extent / 512, gamma=2.0,
                                  f=lambda x, y: np.ones_like(x)))
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=0, coarsest_n=8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, trace = mg.solve(hierarchy, system.F, max_iters=100,
                            target_residual=1e-10)
    assert trace.residual_norms[1] > trace.residual_norms[0]
    assert not trace.stalled and not trace.diverged
    assert trace.residual_norms[-1] <= 1e-10


def test_extra_cut_sweeps_help_on_the_disk():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 64, gamma=2.0))
    m = system.A.shape[0]
    rhos = {}
    for eta in (0, 4):
        config = mg.CycleConfig(nu1=2, nu2=1, eta=eta, coarsest_n=32)
        hierarchy = mg.build_hierarchy(system, config)
        _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m),
                            max_iters=30)
        rhos[eta] = trace.rho_mean(21, 30)
    assert rhos[4] < rhos[0]
    assert rhos[4] < 0.15


def test_cut_dofs_are_lower_dimensional_on_disk():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 64, gamma=2.0))
    free = int(system.free_dofs.sum())
    cut = int(system.dofs.cut.sum())
    assert cut / free < 0.2


@pytest.mark.parametrize("name", ["flower", "hourglass"])
def test_product_level_sets_move_the_solve_only_at_roundoff(name):
    # The catalog's products and the oracle's float powers give the same
    # nodal signs, so the DOFs and the sparsity agree exactly and only the
    # cut fractions, and through them A and F, move at roundoff.
    def setup(levelset):
        system = assemble(ProblemSpec(
            levelset, levelset.art_extent / 256, gamma=2.0,
            f=lambda x, y: np.ones_like(x)))
        _, trace = mg.solve(
            mg.build_hierarchy(system, mg.CycleConfig(2, 1, 4, coarsest_n=8)),
            system.F, max_iters=100, target_residual=1e-10)
        return system, trace

    system, trace = setup(domain_catalog(name))
    reference, ref_trace = setup(pow_levelset(name))
    for mask in ("free", "cut"):
        np.testing.assert_array_equal(getattr(system.dofs, mask),
                                      getattr(reference.dofs, mask))
    np.testing.assert_array_equal(system.A.indptr, reference.A.indptr)
    np.testing.assert_array_equal(system.A.indices, reference.A.indices)
    assert (np.abs(system.A.data - reference.A.data).max()
            <= 1e-12 * np.abs(reference.A.data).max())
    assert (np.abs(system.F - reference.F).max()
            <= 1e-12 * np.abs(reference.F).max())
    assert trace.iterations == ref_trace.iterations
    assert trace.residual_norms[-1] <= 1e-10


# ---------------------------------------------------------------------------
# Residual splitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 64])
def test_splitting_equivalence_random_states(n):
    system = assemble_1d(n, 0.3, 0.7, 1.1 / (0.3 / n), f=lambda x: x,
                         g_a=0.5, g_b=-1.0)
    R = restriction_1d(n)
    rng = np.random.default_rng(42)
    worst = max(
        np.max(np.abs(R @ (system.F - system.operator @ u)
                      - split_residual_coarse(system, u, R)))
        for u in (rng.standard_normal(n + 1) for _ in range(20)))
    assert worst <= 1e-12

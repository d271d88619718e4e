"""Transfers, hierarchies, cycles and the convergence bookkeeping."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.geometry import domain_catalog, domain_names
from ghostmg.linalg import NotSPDError, canonical_csr
from ghostmg.one_dim import assemble_1d, coarse_theta


# ---------------------------------------------------------------------------
# Transfer operators
# ---------------------------------------------------------------------------

def test_restriction_1d_matrix():
    R = mg.restriction_1d(4).toarray()
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
    R = mg.restriction_1d(n)
    assert R.has_canonical_format
    np.testing.assert_array_equal(R.toarray(), expected)


def test_restriction_1d_validation():
    with pytest.raises(ValueError):
        mg.restriction_1d(5)
    with pytest.raises(ValueError):
        mg.restriction_1d(0)


def test_prolongation_reproduces_coarse_hat():
    # The middle coarse basis function interpolates to the fine hat of
    # double width.
    R = mg.restriction_1d(4)
    P = R.T.tocsr()
    e1 = np.zeros(3)
    e1[1] = 1.0
    np.testing.assert_array_equal(P @ e1, [0.0, 0.5, 1.0, 0.5, 0.0])


def test_restriction_2d_tensor_structure():
    R = mg.restriction_2d(2)
    assert R.shape == (4, 9)
    R1 = mg.restriction_1d(2)
    np.testing.assert_array_equal(R.toarray(),
                                  sp.kron(R1, R1).toarray())


def test_restriction_row_sums():
    # Interior rows sum to 2 in 1D and 4 in 2D (the scaling that makes the
    # Galerkin coarse operator match direct coarse assembly).
    R1 = mg.restriction_1d(8).toarray()
    np.testing.assert_allclose(R1[1:-1].sum(axis=1), 2.0, rtol=1e-15)
    R2 = mg.restriction_2d(8)
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
    raw = mg.restriction_2d(16).toarray()
    full = np.zeros_like(raw)
    full[np.ix_(coarse.order, fine.order)] = fine.R.toarray()
    assert np.all(full[:, ~fine.free] == 0.0)
    np.testing.assert_array_equal(full[:, fine.free][coarse.free],
                                  raw[:, fine.free][coarse.free])
    np.testing.assert_array_equal(fine.P.toarray(), fine.R.T.toarray())


def test_masked_transfers_flag_dead_coarse_rows():
    # The coarse nodes reached by a free fine DOF are the coarse free DOFs;
    # every other coarse node has no free fine support and is left out.
    # Rows and columns follow the coarse and the fine DOF order.
    system, fine, coarse = _disk_two_levels()
    raw = mg.restriction_2d(16)[:, fine.order]
    reached = np.diff(raw.indptr) > 0
    np.testing.assert_array_equal(coarse.free, reached)
    assert 0 < reached.sum() < reached.size
    np.testing.assert_array_equal(fine.R.toarray(),
                                  raw[coarse.order].toarray())
    assert np.all(np.diff(fine.R.indptr) > 0)


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


def test_depth_validation():
    system = assemble_1d(12, 0.5, 0.5, 100.0)
    with pytest.raises(ValueError):
        mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8))
    system8 = assemble_1d(8, 0.5, 0.5, 100.0)
    with pytest.raises(ValueError):
        mg.build_hierarchy(system8, mg.CycleConfig(coarsest_n=8))


def _assert_compressed_galerkin(hierarchy):
    """Levels live on their free DOFs, P = R^T exactly, and each coarse
    operator is the bitwise-symmetric Galerkin product of its parent."""
    for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
        free_f, free_c = fine.free.sum(), coarse.free.sum()
        assert fine.A.shape == (free_f, free_f)
        assert fine.R.shape == (free_c, free_f)
        np.testing.assert_array_equal(fine.P.toarray(), fine.R.T.toarray())
        assert (coarse.A - coarse.A.T).nnz == 0
        rap = (fine.R @ fine.A @ fine.P).toarray()
        np.testing.assert_allclose(coarse.A.toarray(), rap, rtol=0.0,
                                   atol=1e-14 * np.abs(rap).max())


def test_hierarchy_1d_structure():
    system = assemble_1d(16, 0.3, 0.6, 1.1 / (0.3 / 16))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert [lvl.n for lvl in hierarchy.levels] == [16, 8, 4]
    for lvl in hierarchy.levels:
        assert lvl.free.all()
        m = lvl.num_dofs
        np.testing.assert_array_equal(lvl.order, np.arange(m))
        np.testing.assert_array_equal(np.flatnonzero(lvl.cut),
                                      [0, 1, m - 2, m - 1])
    np.testing.assert_array_equal(hierarchy.finest.A.toarray(),
                                  system.A.toarray())
    for lvl in hierarchy.levels[:-1]:
        np.testing.assert_array_equal(lvl.R.toarray(),
                                      mg.restriction_1d(lvl.n).toarray())
    _assert_compressed_galerkin(hierarchy)


@pytest.mark.parametrize("theta1", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("theta2", [0.1, 0.5, 1.0])
def test_galerkin_equals_direct_coarse_assembly_1d(theta1, theta2):
    # Restricting the fine operator reproduces direct assembly on the coarse
    # grid with halved resolution, pulled-in fractions and the same penalty.
    n, lam = 8, 64.0
    fine = assemble_1d(n, theta1, theta2, lam)
    R = mg.restriction_1d(n)
    rap = (R @ fine.A @ R.T).toarray()
    coarse = assemble_1d(n // 2, coarse_theta(theta1), coarse_theta(theta2),
                         lam)
    np.testing.assert_allclose(rap, coarse.A.toarray(), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("theta1", [0.0099, 0.5, 0.99])
def test_triangle_solve_equals_the_complete_lu_bitwise(theta1):
    # The 1D Gauss-Seidel triangle is factored by SuperLU's ILU driver with
    # nothing dropped.  On every smoothed level, for the full and the cut
    # triangle, its factors and solves are bitwise those of splu.
    n = 1024
    system = assemble_1d(n, theta1, 0.01, 1.1 / (theta1 / n))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(eta=4))
    rng = np.random.default_rng(31)
    for level in hierarchy.levels[:-1]:
        cut = level.idx_cut
        for A in (level.A, canonical_csr(level.A[cut][:, cut])):
            lu = mg.spla.splu(sp.tril(A, format="csc"), permc_spec="NATURAL",
                              options={"DiagPivotThresh": 0.0,
                                       "SymmetricMode": True})
            solve = mg._triangle_solve(A)
            assert (solve.__self__.L != lu.L).nnz == 0
            assert (solve.__self__.U != lu.U).nnz == 0
            for scale in (1e-8, 1.0, 1e8):
                b = scale * rng.standard_normal(A.shape[0])
                np.testing.assert_array_equal(solve(b), lu.solve(b))


def test_hierarchy_2d_structure():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16, gamma=2.0))
    hierarchy = mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))
    assert [lvl.n for lvl in hierarchy.levels] == [16, 8, 4]
    free = system.free_dofs
    order = hierarchy.finest.order
    np.testing.assert_array_equal(np.sort(order), np.flatnonzero(free))
    np.testing.assert_array_equal(hierarchy.finest.A.toarray(),
                                  system.A[order][:, order].toarray())
    _assert_compressed_galerkin(hierarchy)
    # No identity rows remain: the finest level drops every constrained
    # node.  Masks stay over each level's grid nodes, and cut DOFs for the
    # extra sweeps are always free.
    assert hierarchy.finest.num_dofs == free.sum() < free.size
    for lvl in hierarchy.levels:
        assert lvl.free.size == lvl.grid.num_nodes
        assert not np.any(lvl.cut & ~lvl.free)


def test_coarsest_indefinite_raises():
    # A penalty far below the trace constant leaves even the coarsest
    # operator indefinite; the exact solver reports it instead of silently
    # returning garbage.
    system = assemble_1d(8, 1.0, 0.5, 0.1 / (1.0 / 8))
    with pytest.raises(NotSPDError):
        mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=4))


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def small_1d_hierarchy(n=16, coarsest=8, **cfg):
    system = assemble_1d(n, 0.3, 0.6, 1.1 / (0.3 / n))
    config = mg.CycleConfig(coarsest_n=coarsest, **cfg)
    return system, mg.build_hierarchy(system, config)


def test_mg_cycle_requires_multiple_levels():
    system, hierarchy = small_1d_hierarchy()
    single = mg.Hierarchy(levels=hierarchy.levels[:1],
                          config=hierarchy.config)
    with pytest.raises(ValueError):
        mg.mg_cycle(single, np.zeros(17), np.zeros(17))


def test_w_and_v_cycles_coincide_on_two_levels():
    # With one coarsening step both cycles are the two-grid method: the
    # second coarse visit repeats the same exact solve.
    system, hierarchy = small_1d_hierarchy()
    rng = np.random.default_rng(1)
    F = rng.standard_normal(17)
    u0 = rng.standard_normal(17)
    np.testing.assert_array_equal(mg.mg_cycle(hierarchy, F, u0, gamma_star=2),
                                  mg.mg_cycle(hierarchy, F, u0, gamma_star=1))


def test_cycle_returns_new_array():
    system, hierarchy = small_1d_hierarchy()
    u0 = np.ones(17)
    out = mg.mg_cycle(hierarchy, np.zeros(17), u0)
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
    combined = mg.mg_cycle(hierarchy, a * F1 + b * F2, a * u1 + b * u2)
    separate = (a * mg.mg_cycle(hierarchy, F1, u1)
                + b * mg.mg_cycle(hierarchy, F2, u2))
    np.testing.assert_allclose(combined, separate, rtol=0.0, atol=1e-12)


def test_smooth_preserves_exact_solution():
    system, hierarchy = small_1d_hierarchy()
    level = hierarchy.finest
    x = np.linalg.solve(system.A.toarray(), system.F)
    u = x.copy()
    level.smooth(u, system.F, 2)
    np.testing.assert_allclose(u, x, rtol=0.0, atol=1e-10)


def test_identity_transfers_solve_in_one_cycle():
    # With identity transfers the coarse level IS the fine operator, so the
    # exact coarse solve finishes the job in a single cycle.
    system = assemble_1d(8, 0.5, 0.5, 1.1 / (0.5 / 8))
    m = system.A.shape[0]
    free = np.ones(m, dtype=bool)
    cut = np.zeros(m, dtype=bool)
    order = mg.dof_order(free, cut, system.grid)
    level0 = mg.MgLevel(system.A, free, cut, system.grid, order)
    level1 = mg.MgLevel(system.A, free, cut, system.grid.coarsen(), order,
                        index=1)
    eye = sp.identity(m, format="csr")
    level0.R, level0.P = eye, eye
    config = mg.CycleConfig(coarsest_n=4)
    hierarchy = mg._finalize([level0, level1], config)
    u = mg.mg_cycle(hierarchy, system.F, np.zeros(m))
    r = system.F - system.A @ u
    assert np.abs(r).max() <= 1e-10


def test_w_cycle_recursion_count():
    # With L coarsening steps, gamma_star = 2 visits the coarsest level 2**L
    # times per cycle; here 32 -> 16 -> 8 -> 4 gives L = 3.
    system, hierarchy = small_1d_hierarchy(n=32, coarsest=4)
    coarsest = hierarchy.levels[-1]
    calls = []
    inner = coarsest._coarse_solve
    coarsest._coarse_solve = lambda F: (calls.append(1), inner(F))[1]
    mg.mg_cycle(hierarchy, np.zeros(33), np.zeros(33), gamma_star=2)
    assert len(calls) == 8
    calls.clear()
    mg.mg_cycle(hierarchy, np.zeros(33), np.zeros(33), gamma_star=1)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# solve() and the convergence trace
# ---------------------------------------------------------------------------

def test_solve_1d_converges_to_direct_solution():
    system, hierarchy = small_1d_hierarchy(n=64, coarsest=8)
    u, trace = mg.solve(hierarchy, system.F, max_iters=40,
                        target_residual=1e-12)
    direct = np.linalg.solve(system.A.toarray(), system.F)
    np.testing.assert_allclose(u, direct, rtol=0.0, atol=1e-9)
    assert trace.residual_norms[-1] <= 1e-12
    assert not trace.diverged
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
    u = mg.mg_cycle(hierarchy, system.F, np.ones_like(system.F))
    assert u.shape == system.F.shape
    np.testing.assert_array_equal(u[fixed], system.F[fixed])


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
        levelset=levelset, h=levelset.art_extent / n, gamma=2.0,
        strong_predicate=levelset.params.get("strong_predicate")))


@pytest.mark.parametrize("name", domain_names())
def test_two_dimensional_sweeps_scale_by_the_diagonal(name, monkeypatch):
    # Galerkin operators of Q1 keep the 9-point stencil, so on every
    # smoothed level no colour class couples to itself and each step of the
    # full and the cut sweeps is a diagonal scale: building the hierarchy
    # factors the coarsest operator and no Gauss-Seidel triangle.  Every
    # level numbers its free nodes class by class, cut nodes leading each
    # class, so each step smooths a contiguous row range through slice
    # views of u, F and A's CSR arrays: no index array, no copy of A.  Its
    # residual is formed in the leading slice of the level's scratch.
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
    assert hierarchy.finest._cut_steps
    np.testing.assert_array_equal(np.sort(hierarchy.finest.order),
                                  np.flatnonzero(system.free_dofs))
    for level in hierarchy.levels:
        order = level.order
        assert np.unique(order).size == order.size == level.num_dofs
        assert np.all(level.free[order])
        colours = level.colours()
        assert np.all(np.diff(colours) >= 0)
        cut = level.cut[order]
        for c in range(4):
            assert np.all(np.diff(cut[colours == c].astype(int)) <= 0)
    for level in hierarchy.levels[:-1]:
        assert len(level._free_steps) == 4
        for sel, rows, y, _ in level._free_steps + level._cut_steps:
            assert isinstance(sel, slice)
            assert np.shares_memory(rows.data, level.A.data)
            assert np.shares_memory(rows.indices, level.A.indices)
            assert (rows - level.A[sel]).nnz == 0
            assert y.base is level.scratch and y.size == rows.shape[0]


@pytest.mark.parametrize("name", domain_names())
def test_solve_recovers_a_known_solution(name):
    # With F = A w, solve maps F, u0 and the result through the finest DOF
    # order: from zero and from w itself it returns w on the free nodes,
    # and F on the constrained nodes.
    system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8))
    free = system.free_dofs
    if system.problem.strong_predicate is not None:
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


@pytest.mark.parametrize("name", ["flower", "disk"])
def test_cycle_allocates_nothing_on_smoothed_levels(name):
    # Every step, residual and transfer writes into the level workspace
    # that build_hierarchy allocated, so after a warm-up a cycle's traced
    # allocations stay far below one finest-level vector: the coarsest
    # level's direct solve allocates its result, and little else does.
    system = _catalog_system(name)
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8))
    levels, config = hierarchy.levels, hierarchy.config
    order = hierarchy.finest.order
    F = system.F[order]
    u = np.zeros(order.size)
    mg._cycle(levels, 0, u, F, config, 1)
    tracemalloc.start()
    try:
        mg._cycle(levels, 0, u, F, config, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * order.size


def _reference_residual_norms(hierarchy, F, target, max_iters=100):
    """mg.solve from zero, written with plain products as the oracle of its
    workspace form: a step is u[sel] += solve(F[sel] - rows @ u), the
    coarse right-hand side R @ (F - A u) and the correction u += P @ u_c.
    The oracle takes each step's rows from the level; its solve is the
    diagonal scale in 2D and the lower-triangle solve in 1D."""
    levels, config = hierarchy.levels, hierarchy.config

    def oracle_steps(level, steps):
        out = []
        for sel, rows, *_ in steps:
            if level.grid.dim == 2:
                dinv = 1.0 / level.A.diagonal()[sel]
                solve = partial(np.multiply, dinv)
            else:
                solve = mg._triangle_solve(canonical_csr(rows[:, sel]))
            out.append((sel, rows, solve))
        return out

    smoothers = [oracle_steps(level, level._free_steps)
                 + config.eta * oracle_steps(level, level._cut_steps)
                 for level in levels[:-1]]

    def smooth(k, u, F):
        for sel, rows, solve in smoothers[k]:
            u[sel] += solve(F[sel] - rows @ u)

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
    F0 = F[level0.order]
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
    trace = mg.ConvergenceTrace(u=np.zeros(1),
                                residual_norms=np.array([1.0, 0.1, 0.01]),
                                rho_per_iter=np.array([0.1, 0.1]),
                                wall_ms=1.0)
    assert trace.iterations == 2
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
    cut = int(system.cut_dofs.sum())
    assert cut / free < 0.2


# ---------------------------------------------------------------------------
# Residual splitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 64])
def test_splitting_equivalence_random_states(n):
    system = assemble_1d(n, 0.3, 0.7, 1.1 / (0.3 / n), f=lambda x: x,
                         g_a=0.5, g_b=-1.0)
    rng = np.random.default_rng(42)
    worst = max(
        mg.verify_splitting_equivalence(system, rng.standard_normal(n + 1))
        for _ in range(20))
    assert worst <= 1e-12

"""Acceptance gate: every headline behavior of the solver at a fixed
tolerance, one test per claim.

Each test here is end-to-end: it assembles real systems, runs real cycles and
checks the measured convergence factors, constants or errors against fixed
numeric bars.  Failure messages carry the full measured table so a red test
documents exactly which parameter point broke the bar and by how much.
"""

import dataclasses
import time
from functools import lru_cache

import numpy as np
import pytest

from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble, cut_cell_batch
from ghostmg.cli import main as cli_main
from ghostmg.experiments import THETA1_GRID
from ghostmg.geometry import (
    DIRICHLET,
    CartesianGrid,
    LevelSet,
    SnappedNodeField,
    domain_catalog,
    extract_cut_geometry,
)
from ghostmg.one_dim import assemble_1d
from ghostmg.stabilization import c_one_dim, c_triangle, pencil_max
from oracles import (coarse_theta, dense_global_C_1d, restriction_1d,
                     split_residual_coarse)

NS_1D = (128, 256, 512, 1024)          # h = 2^-7 ... 2^-10
NS_DISK = (64, 128, 256)               # h = 2^-6 ... 2^-8 on the unit square
THETA2 = 0.01


def tuned_penalty(theta1, h):
    return 1.1 / (theta1 * h)


def grid_scaled_penalty(h):
    return 1.0 / h ** 2


@lru_cache(maxsize=None)
def interval_rho(theta1, n, penalty="tuned", cycle="two_grid", eta=0):
    """Windowed mean convergence factor of the homogeneous 1D problem."""
    h = 1.0 / n
    lam = tuned_penalty(theta1, h) if penalty == "tuned" \
        else grid_scaled_penalty(h)
    system = assemble_1d(n, theta1, THETA2, lam)
    if cycle == "two_grid":
        config = mg.CycleConfig(nu1=2, nu2=1, eta=eta, coarsest_n=n // 2)
    else:
        config = mg.CycleConfig(nu1=2, nu2=1, eta=eta, gamma_star=2,
                                coarsest_n=8)
    hierarchy = mg.build_hierarchy(system, config)
    _, trace = mg.solve(hierarchy, np.zeros(n + 1), u0=np.ones(n + 1),
                        max_iters=50)
    return trace.rho_mean(41, 50)


@lru_cache(maxsize=None)
def disk_rho(n, eta, lambda_mode="local"):
    """Windowed mean convergence factor of the homogeneous disk problem."""
    system = assemble(ProblemSpec(levelset=domain_catalog("disk"), h=1.0 / n,
                                  gamma=2.0, lambda_mode=lambda_mode))
    hierarchy = mg.build_hierarchy(
        system, mg.CycleConfig(nu1=2, nu2=1, eta=eta, coarsest_n=n // 2))
    m = system.A.shape[0]
    _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m), max_iters=30)
    return trace.rho_mean(21, 30)


def format_table(rows):
    return "\n".join(rows)


# -- 1. 1D two-grid with the tuned penalty is optimal everywhere ---------------


def test_interval_two_grid_convergence_is_optimal_for_every_cut_fraction():
    start = time.perf_counter()
    violations = []
    for theta1 in THETA1_GRID:
        for n in NS_1D:
            rho = interval_rho(theta1, n)
            if not rho <= 0.15:
                violations.append(
                    f"theta1={theta1} n={n}: rho_mean={rho:.4f} > 0.15")
    elapsed = time.perf_counter() - start
    assert not violations, format_table(violations)
    assert elapsed < 60.0, f"44-point sweep took {elapsed:.1f}s (bar: 60s)"


# -- 2. the grid-scaled penalty 1/h^2 degrades small-fraction convergence ------


def test_grid_scaled_penalty_degrades_small_fraction_convergence():
    # The two rules differ by the factor (1/h^2) / (1.1/(theta1 h)) =
    # theta1 n / 1.1, and the degradation follows that mismatch.  Where it
    # is at least 2 (measured 2.30 to 93), 1/h^2 raises the factor 2.57x
    # to 19.8x.  At theta1 = 0.0099, n = 128 it is only 1.15 (windowed means
    # 0.0403 vs 0.0401), so no doubling is possible and the two factors must
    # agree instead.  At fixed theta1 the mismatch grows with n, and so must
    # the grid-scaled factor (0.040 -> 0.226 -> 0.521 -> 0.733 at
    # theta1 = 0.0099).  A 1D system carries its penalty, not the rule that
    # chose it, so the coarse level sizes its own from gamma = lam theta1 h;
    # for theta1 <= 0.1 that gives the floor lam / KAPPA = 1/(8 h^2), half
    # the coarse grid-scaled 1/H^2.  The test thus compares a hierarchy
    # scaled by 1/h^2 on both levels with the tuned one.
    violations = []
    for theta1 in (t for t in THETA1_GRID if t <= 0.1):
        degraded = [interval_rho(theta1, n, penalty="grid_scaled")
                    for n in NS_1D]
        for n, rho in zip(NS_1D, degraded):
            h = 1.0 / n
            mismatch = grid_scaled_penalty(h) / tuned_penalty(theta1, h)
            tuned = interval_rho(theta1, n)
            if mismatch >= 2.0:
                if not rho >= 2.0 * tuned:
                    violations.append(
                        f"theta1={theta1} n={n} (mismatch {mismatch:.2f}): "
                        f"grid-scaled rho {rho:.4f} < 2 x tuned rho "
                        f"{tuned:.4f}")
            elif not abs(rho - tuned) <= 0.05:
                violations.append(
                    f"theta1={theta1} n={n} (mismatch {mismatch:.2f}): "
                    f"|grid-scaled rho {rho:.4f} - tuned rho {tuned:.4f}| "
                    f"> 0.05")
        if not all(a < b for a, b in zip(degraded, degraded[1:])):
            violations.append(
                f"theta1={theta1}: grid-scaled rho does not grow with n: "
                + ", ".join(f"{rho:.4f}" for rho in degraded))
    assert not violations, format_table(violations)


# -- 3. the W-cycle tracks the two-grid factor --------------------------------


def test_w_cycle_convergence_tracks_two_grid():
    # A W-cycle tracks the two-grid cycle only if every level has a two-grid
    # factor as good as the finest.  Galerkin coarse levels would be the
    # direct assembly at cut fraction (1 + theta1)/2 with the *fine* penalty
    # (test 7): at theta1 = 0.0099, n = 128, 102x, 304x and 708x each coarse
    # level's own tuned value, and the W-cycle then had a dominant
    # eigenvalue of 0.1217-0.1229.  Each coarse level has its own penalty,
    # floored by the finer level's over KAPPA = 8: there the floor leaves
    # the first coarse level at 12.8x its tuned value (then 4.8x, 1.4x and
    # 1x), and with eta = 0 that level has a two-grid factor of 0.521, the
    # others 0.029-0.047.  The W-cycle reads at most 0.0872 over the 44
    # points (0.0599 at theta1 = 0.0099 for every n) and is held to the bar
    # of test 1.  Four extra boundary sweeps bring every level to
    # 0.029-0.040, and the W-cycle then stays within 0.0114 of the two-grid
    # at all 44 points.
    violations = []
    for theta1 in THETA1_GRID:
        for n in NS_1D:
            w = interval_rho(theta1, n, cycle="w", eta=4)
            tg = interval_rho(theta1, n, eta=4)
            if not abs(w - tg) <= 0.05:
                violations.append(
                    f"theta1={theta1} n={n} eta=4: |w {w:.4f} - two-grid "
                    f"{tg:.4f}| = {abs(w - tg):.4f} > 0.05")
            w0 = interval_rho(theta1, n, cycle="w")
            if not w0 <= 0.15:
                violations.append(
                    f"theta1={theta1} n={n} eta=0: w rho_mean={w0:.4f} > 0.15")
    assert not violations, format_table(violations)


# -- 4. the global stability constant follows C = 1/(theta1 h) ----------------


def test_global_stability_constant_follows_the_reciprocal_law():
    values = {}
    violations = []
    for theta1 in THETA1_GRID:
        for n in NS_1D:
            C = dense_global_C_1d(n, theta1, THETA2)
            law = n / theta1  # 1/(theta1 h) with h = 1/n
            values[theta1, n] = C
            rel = abs(C - law) / law
            if not rel <= 1e-8:
                violations.append(
                    f"theta1={theta1} n={n}: C={C!r} vs 1/(theta1 h)={law!r}"
                    f" (rel {rel:.2e})")
    assert not violations, format_table(violations)

    for n in NS_1D:  # slope of log C vs log theta1 at fixed h
        slope = np.polyfit(np.log(THETA1_GRID),
                           np.log([values[t, n] for t in THETA1_GRID]), 1)[0]
        assert abs(slope + 1.0) <= 1e-3, f"theta1-slope {slope} at n={n}"
    for theta1 in THETA1_GRID:  # slope of log C vs log h at fixed theta1
        slope = np.polyfit(np.log([1.0 / n for n in NS_1D]),
                           np.log([values[theta1, n] for n in NS_1D]), 1)[0]
        assert abs(slope + 1.0) <= 1e-3, f"h-slope {slope} at theta1={theta1}"


# -- 5. the closed-form triangle constant equals the eigensolver --------------


def single_corner_cut(theta1, theta2):
    """One unit cell whose boundary cuts the two edges at the BL corner."""
    grid = CartesianGrid(1, (0.0, 0.0), 1.0)
    ls = LevelSet("manual", (lambda x, y: x,), (DIRICHLET,))
    values = [-1.0,
              -1.0 + 1.0 / theta1 if theta1 < 1.0 else 0.0,
              -1.0 + 1.0 / theta2 if theta2 < 1.0 else 0.0,
              5.0]
    field = SnappedNodeField(grid, ls, np.asarray(values, dtype=float),
                             alpha=8.0, threshold=0.0, num_snapped=0)
    cut = extract_cut_geometry(field)
    assert len(cut) == 1
    return cut, grid


def test_triangle_constant_agrees_with_the_eigensolver():
    thetas = np.linspace(0.1, 1.0, 10)
    worst = (0.0, None)
    for theta1 in thetas:
        for theta2 in thetas:
            cut, grid = single_corner_cut(theta1, theta2)
            assert cut.vertices[0] == 3
            batch = cut_cell_batch(cut)
            eig = pencil_max(batch.B, batch.S)[0]
            closed = c_triangle(theta1, theta2, 1.0)
            rel = abs(eig - closed) / closed
            if rel > worst[0]:
                worst = (rel, (theta1, theta2))
    assert worst[0] <= 1e-8, \
        f"closed form vs eigensolver rel {worst[0]:.2e} at {worst[1]}"
    for h in (1.0, 0.125, 1.0 / 64):
        assert c_triangle(1.0, 1.0, h) == \
            pytest.approx(3.0 * np.sqrt(2.0) / h, rel=1e-14)


# -- 6. boundary-aware residual splitting equals plain restriction ------------


def test_residual_splitting_is_equivalent_to_plain_restriction():
    rng = np.random.default_rng(2024)
    for n in (8, 64):
        system = assemble_1d(n, 0.3, 0.7, 1.1 / (0.3 / n))
        R = restriction_1d(n)
        worst = max(
            np.max(np.abs(R @ (system.F - system.operator @ u)
                          - split_residual_coarse(system, u, R)))
            for u in (rng.standard_normal(n + 1) for _ in range(20)))
        assert worst <= 1e-12, f"splitting defect {worst:.2e} at n={n}"


# -- 7. the restricted fine operator equals direct coarse assembly ------------


def test_coarse_operator_equals_direct_coarse_assembly():
    n, lam = 8, 64.0
    R = restriction_1d(n)
    for theta1 in (0.1, 0.5, 1.0):
        for theta2 in (0.1, 0.5, 1.0):
            fine = assemble_1d(n, theta1, theta2, lam)
            rap = (R @ fine.operator @ R.T).toarray()
            direct = assemble_1d(n // 2, coarse_theta(theta1),
                                 coarse_theta(theta2), lam)
            np.testing.assert_allclose(
                rap, direct.operator.toarray(), rtol=0.0, atol=1e-13,
                err_msg=f"theta1={theta1} theta2={theta2}")


# -- 8. disk two-grid with extra cut-cell smoothing is optimal ----------------


def test_disk_two_grid_with_extra_cut_smoothing_is_optimal():
    start = time.perf_counter()
    rhos = {n: disk_rho(n, eta=4) for n in NS_DISK}
    elapsed = time.perf_counter() - start
    table = format_table(f"n={n}: rho_mean={rho:.4f}"
                         for n, rho in rhos.items())
    assert max(rhos.values()) <= 0.15, table
    assert elapsed < 600.0, f"disk sweep took {elapsed:.1f}s (bar: 600s)"


# -- 9. per-cell penalties converge at least as well as the global one --------


def test_local_penalty_converges_at_least_as_well_as_global():
    violations = []
    for n in NS_DISK:
        local = disk_rho(n, eta=0, lambda_mode="local")
        glob = disk_rho(n, eta=0, lambda_mode="global")
        if not local <= glob:
            violations.append(
                f"n={n}: local rho {local:.4f} > global rho {glob:.4f}")
    assert not violations, format_table(violations)


# -- 10. every catalog geometry converges with a uniform bound ----------------


def test_catalog_geometry_convergence_is_uniformly_bounded():
    violations = []
    measured = []
    for name in ("annulus", "flower", "leaf", "hourglass"):
        levelset = domain_catalog(name)
        for exponent in (5, 6, 7, 8):
            n = round(levelset.art_extent * 2.0 ** exponent)
            h = levelset.art_extent / n
            system = assemble(ProblemSpec(
                levelset=levelset, h=h, gamma=2.0))
            hierarchy = mg.build_hierarchy(
                system, mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=n // 2))
            m = system.A.shape[0]
            _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m),
                                max_iters=30)
            rho = trace.rho_mean(21, 30)
            measured.append(f"{name} h=2^-{exponent}: rho_mean={rho:.4f}")
            if not rho <= 0.2:
                violations.append(measured[-1] + " > 0.2")
    assert not violations, format_table(violations + ["--"] + measured)


# -- 11. the manufactured disk solution converges at second order -------------


def test_manufactured_disk_solution_converges_at_second_order():
    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def source(x, y):
        return 2.0 * np.pi ** 2 * exact(x, y)

    errors = []
    for n in (32, 64, 128, 256):
        system = assemble(ProblemSpec(
            levelset=domain_catalog("disk"), h=1.0 / n, f=source,
            g_dirichlet=exact, gamma=2.0))
        hierarchy = mg.build_hierarchy(
            system, mg.CycleConfig(nu1=2, nu2=1, eta=4, gamma_star=2,
                                   coarsest_n=8))
        u, trace = mg.solve(hierarchy, system.F, max_iters=200,
                            target_residual=1e-10)
        assert trace.residual_norms[-1] <= 1e-10, \
            f"n={n}: stalled at residual {trace.residual_norms[-1]:.2e}"
        X, Y = system.grid.node_coordinates()
        interior = system.field.values < 0.0
        errors.append(float(np.max(np.abs(u - exact(X, Y))[interior])))

    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert len(ratios) == 3
    for ratio in ratios:
        assert 3.5 <= ratio <= 4.5, f"max-error ratios {ratios}"


# -- 12. the structural self-check suite passes -------------------------------


def test_structural_self_checks_all_pass(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


# -- 13. deep V-cycles converge like the two-grid method ----------------------


DEEP_NS = (64, 128, 256, 512)
DEEP_DOMAINS = ("flower", "hourglass", "annulus", "leaf", "disk")
# Bars of the eta = 0 deep V at n = 512, just above the measured 0.5812,
# 0.5875, 0.5608, 0.3509 and 0.4052.  The cycle is slower there than it was
# with the inherited penalty (0.501, 0.505, 0.467, 0.307 and 0.397), and
# these bars keep it from sliding further.
DEEP_ETA0_BARS = {"flower": 0.60, "hourglass": 0.60, "annulus": 0.58,
                  "leaf": 0.37, "disk": 0.42}


def deep_v_rho(hierarchy, iterations=30, window=(21, 30)):
    """Windowed mean factor of the homogeneous problem from all ones."""
    m = hierarchy.levels[0].free.size
    _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m),
                        max_iters=iterations)
    return trace.rho_mean(*window)


def test_deep_v_cycle_converges_on_every_level_count():
    # Every coarse level has its own chord penalty, floored by the finer
    # one over KAPPA.  The Galerkin levels inherited the finest penalty,
    # and the deep V(2,1), eta = 4, cycle down to n = 8 read 0.166, 0.205,
    # 0.244 and 0.302 on the flower for n = 64 ... 512 (0.183 on the
    # hourglass at 512); without the extra cut sweeps (eta = 0) the cycle
    # is held to DEEP_ETA0_BARS.  In 1D the V-cycle down to n = 8 at eta = 0 read
    # up to 0.335 at theta1 = 0.0099; it is now held to the two-grid bar.
    start = time.perf_counter()
    violations, measured = [], []
    for name in DEEP_DOMAINS:
        levelset = domain_catalog(name)
        for n in DEEP_NS:
            system = assemble(ProblemSpec(
                levelset=levelset, h=levelset.art_extent / n, gamma=2.0))
            hierarchy = mg.build_hierarchy(system, mg.CycleConfig(
                nu1=2, nu2=1, eta=4, coarsest_n=8))
            rho = deep_v_rho(hierarchy)
            measured.append(f"{name} n={n} eta=4: rho_mean={rho:.4f}")
            if not rho <= 0.15:
                violations.append(measured[-1] + " > 0.15")
        rho = deep_v_rho(dataclasses.replace(
            hierarchy, config=dataclasses.replace(hierarchy.config, eta=0)))
        measured.append(f"{name} n={n} eta=0: rho_mean={rho:.4f}")
        if not rho <= DEEP_ETA0_BARS[name]:
            violations.append(measured[-1] + f" > {DEEP_ETA0_BARS[name]}")
    for theta1 in THETA1_GRID:
        for n in NS_1D:
            system = assemble_1d(n, theta1, THETA2,
                                 tuned_penalty(theta1, 1.0 / n))
            hierarchy = mg.build_hierarchy(system, mg.CycleConfig(
                nu1=2, nu2=1, eta=0, coarsest_n=8))
            rho = deep_v_rho(hierarchy, iterations=50, window=(41, 50))
            if not rho <= 0.15:
                violations.append(
                    f"interval theta1={theta1} n={n} eta=0: "
                    f"rho_mean={rho:.4f} > 0.15")
    elapsed = time.perf_counter() - start
    assert not violations, format_table(violations + ["--"] + measured)
    assert elapsed < 60.0, f"deep V sweep took {elapsed:.1f}s (bar: 60s)"


def test_pooled_1d_trace_constant_is_the_coarse_cell_constant():
    # Pooling the Dirichlet cell with its full neighbour through the local
    # prolongation gives the coarse cell's pencil, whose constant is the
    # closed form at the pulled-in fraction and twice the spacing.
    worst = 0.0
    for theta1 in THETA1_GRID:
        for n in NS_1D:
            system = assemble_1d(n, theta1, THETA2,
                                 tuned_penalty(theta1, 1.0 / n))
            hierarchy = mg.build_hierarchy(system,
                                           mg.CycleConfig(coarsest_n=n // 2))
            penalty = hierarchy.levels[1].penalty
            C = pencil_max(penalty.B, penalty.S)[0]
            want = c_one_dim(coarse_theta(theta1), 2.0 / n)
            worst = max(worst, abs(C - want) / want)
    assert worst <= 1e-12, f"pooled vs closed-form constant: rel {worst:.2e}"

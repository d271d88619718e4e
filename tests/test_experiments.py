"""Tests for the sweep config format, the sweep runner and CSV output."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ghostmg import experiments
from ghostmg import multigrid as mg
from ghostmg.experiments import (
    ACCURACY_CSV_HEADER,
    CSV_HEADER,
    THETA1_GRID,
    AccuracyStudyError,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit_results,
    load_config,
    parse_config,
    run_accuracy_study,
    run_experiment,
)
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.geometry import domain_catalog
from ghostmg.one_dim import assemble_1d

MINIMAL_1D = """
experiment = smoke
dimension = 1
n = 8, 16
theta1 = 0.3, 0.5
"""


#: rho_mean of the V(2,1) interval sweep at n = 64 (coarsest_n = 8, cycles
#: 41-50), keyed by (theta1, eta): the factors of lexicographic Gauss-Seidel
#: with each coarse level's own penalty (0.2202 and 0.1350 at theta1 =
#: 0.0099 when the coarse levels inherited the finest penalty).
INTERVAL_FACTORS = {
    (0.0099, 0): 0.1014437952242783,
    (0.0099, 4): 0.05642152937431729,
    (0.99, 0): 0.04740165048806209,
    (0.99, 4): 0.042213188851158365,
}


# -- config parsing -----------------------------------------------------------


def test_parse_minimal_1d_config():
    config = parse_config(MINIMAL_1D)
    assert config.experiment == "smoke"
    assert config.dimension == 1
    assert config.domain == "interval"
    assert config.ns == (8, 16)
    assert config.theta1 == (0.3, 0.5)


def test_parse_ignores_comments_and_blank_lines():
    config = parse_config(
        "# a full-line comment\n"
        "\n"
        "experiment = smoke   # trailing comment\n"
        "dimension = 1\n"
        "n = 8\n"
    )
    assert config.experiment == "smoke"
    assert config.ns == (8,)


@pytest.mark.parametrize("token", ["2^-4", "2**-4", "0.0625"])
def test_power_forms_parse_to_the_same_h(token):
    config = parse_config(
        f"experiment = smoke\ndimension = 1\nh = {token}\n")
    assert config.ns == (16,)


def test_h_list_converts_through_the_domain_extent():
    # The annulus lives on [-1, 1]^2, so h = 2^-5 means 64 cells per side.
    config = parse_config(
        "experiment = smoke\ndimension = 2\ndomain = annulus\nh = 2^-5\n")
    assert config.ns == (64,)


def test_disk_extent_is_unit():
    config = parse_config(
        "experiment = smoke\ndimension = 2\ndomain = disk\nh = 2^-5\n")
    assert config.ns == (32,)


@pytest.mark.parametrize("text, fragment", [
    ("experiment = x\ndimension = 1\nn = 8\nbogus = 1\n", "unknown key"),
    ("experiment = x\ndimension = 1\nn = 8\nn = 16\n", "duplicate key"),
    ("experiment = x\ndimension = 1\nn =\n", "empty value"),
    ("experiment = x\ndimension = 1\nn 8\n", "expected 'key = value'"),
    ("dimension = 1\nn = 8\n", "missing required key 'experiment'"),
    ("experiment = x\nn = 8\n", "missing required key 'dimension'"),
    ("experiment = x\ndimension = 1\n", "exactly one of 'n' or 'h'"),
    ("experiment = x\ndimension = 1\nn = 8\nh = 0.125\n",
     "exactly one of 'n' or 'h'"),
    ("experiment = x\ndimension = 1\nn = 8.5\n", "must be integers"),
    ("experiment = x\ndimension = 1\nn = 8\neta = 1.5\n", "must be integers"),
    ("experiment = x\ndimension = 1\nn = 8\nwindow = 41\n", "two integers"),
    ("experiment = x\ndimension = two\nn = 8\n", "dimension"),
    # The snapping exponent is ProblemSpec's alone; no sweep sets it.
    ("experiment = x\ndimension = 2\ndomain = disk\nn = 8\nalpha = 1.5\n",
     "unknown key 'alpha'"),
], ids=["unknown-key", "duplicate-key", "empty-value", "no-equals",
        "no-experiment", "no-dimension", "neither-n-nor-h", "both-n-and-h",
        "fractional-n", "fractional-eta", "window-arity", "non-int-dim",
        "alpha-key"])
def test_malformed_configs_raise(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_parse_errors_carry_the_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("experiment = x\ndimension = 1\nbogus = 1\nn = 8\n")


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(MINIMAL_1D)
    config = load_config(path)
    assert config.ns == (8, 16)


@pytest.mark.parametrize("name", [
    "accuracy_disk.cfg", "disk_eta_sweep.cfg", "geometry_suite.cfg",
    "interval_eta_sweep.cfg", "theta_sweep_1d.cfg"])
def test_shipped_configs_parse(name):
    # Every config under demos/configs is accepted as it ships.
    path = Path(__file__).resolve().parents[1] / "demos" / "configs" / name
    config = load_config(path)
    assert config.ns


# -- config validation and defaults -------------------------------------------


def test_one_dim_defaults():
    config = ExperimentConfig("x", 1, (16,))
    assert config.domain == "interval"
    assert config.gamma == (1.1,)
    assert config.iterations == 50
    assert config.window == (41, 50)


def test_two_dim_defaults():
    config = ExperimentConfig("x", 2, (16,), domain="disk")
    assert config.gamma == (2.0,)
    assert config.iterations == 30
    assert config.window == (21, 30)


def test_explicit_values_override_defaults():
    config = ExperimentConfig("x", 1, (16,), gamma=(2.5,), iterations=20,
                              window=(11, 20))
    assert config.gamma == (2.5,)
    assert config.iterations == 20
    assert config.window == (11, 20)


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(dimension=3), "dimension must be 1 or 2"),
    (dict(dimension=1, domain="disk"), "the 1D domain is 'interval'"),
    (dict(dimension=2, domain="blob"), "unknown domain"),
    (dict(ns=()), "no grid sizes"),
    (dict(ns=(7,)), "even and >= 4"),
    (dict(ns=(2,)), "even and >= 4"),
    (dict(dimension=2, domain="disk", theta=(0.5,)), "only applies to"),
    (dict(dimension=2, domain="rectangle"), "needs a 'theta' list"),
    (dict(theta1=(1.5,)), r"in \(0, 1\]"),
    (dict(theta1=(0.0,)), r"in \(0, 1\]"),
    (dict(theta2=0.0), "theta2 must be"),
    (dict(lambda_mode="spectral"), "lambda_mode must be one of"),
    (dict(dimension=2, domain="disk", lambda_mode="inverse_h2"),
     "1D diagnostic"),
    (dict(cycle="f"), "cycle must be one of"),
    (dict(iterations=30, window=(25, 35)), "does not fit"),
    (dict(window=(0, 10)), "does not fit"),
    (dict(eta=(-1,)), "nonnegative"),
    (dict(nu1=-1), "nonnegative"),
    (dict(nu2=-1), "nonnegative"),
    (dict(coarsest_n=0), "coarsest_n must be at least 1"),
    # A V- or W-cycle needs every n to be coarsest_n times a power of two.
    (dict(cycle="v", ns=(96,)), "finest n = 96 is not coarsest_n = 8"),
    (dict(cycle="w", ns=(16, 4)), "finest n = 4 is not coarsest_n = 8"),
    (dict(cycle="v", ns=(16,), coarsest_n=16),
     "finest n = 16 is not coarsest_n = 16"),
    (dict(experiment="accuracy", dimension=2, domain="disk", cycle="v",
          ns=(48,)), "finest n = 48 is not coarsest_n = 8"),
    # The accuracy study sets f and the Dirichlet data of sin(pi x)
    # sin(pi y) only, so on the annulus's outer circle (a Neumann tag) and
    # the leaf's left part (a bc_predicate) it would solve another problem.
    (dict(experiment="accuracy", dimension=2, domain="annulus"),
     "pure-Dirichlet domain; 'annulus' has a Neumann boundary"),
    (dict(experiment="accuracy", dimension=2, domain="leaf"),
     "pure-Dirichlet domain; 'leaf' has a Neumann boundary"),
], ids=["bad-dim", "1d-domain", "2d-domain", "empty-ns", "odd-n", "tiny-n",
        "theta-off-rectangle", "rectangle-sans-theta", "theta1-high",
        "theta1-zero", "theta2-zero", "bad-lambda-mode", "inverse-h2-2d",
        "bad-cycle", "window-overflow", "window-underflow", "negative-eta",
        "negative-nu1", "negative-nu2", "zero-coarsest-n", "v-depth",
        "w-depth", "v-no-coarsening", "accuracy-depth",
        "accuracy-annulus", "accuracy-leaf"])
def test_inconsistent_configs_raise(kwargs, fragment):
    base = dict(experiment="x", dimension=1, ns=(16,))
    base.update(kwargs)
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig(**base)


def test_theta1_grid_contents():
    assert THETA1_GRID == (0.0099, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
                           0.75, 0.9, 0.99, 1.0)
    assert all(0.0 < t <= 1.0 for t in THETA1_GRID)


# -- the sweep runner ----------------------------------------------------------


def small_sweep(**overrides):
    kwargs = dict(experiment="smoke", dimension=1, ns=(8, 16),
                  theta1=(0.3, 0.5), iterations=12, window=(9, 12))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_sweep_produces_one_row_per_parameter_point():
    rows = run_experiment(small_sweep())
    assert len(rows) == 4
    assert [(r.n, r.theta1) for r in rows] == [
        (8, 0.3), (8, 0.5), (16, 0.3), (16, 0.5)]


def test_sweep_rows_carry_metrics():
    rows = run_experiment(small_sweep())
    for row in rows:
        assert row.error is None
        assert 0.0 < row.rho_mean < 1.0
        assert row.final_residual < 1.0
        assert row.iters == 12
        assert row.wall_ms > 0.0
        assert row.h == 1.0 / row.n


def test_eta_and_gamma_multiply_the_row_count():
    rows = run_experiment(small_sweep(ns=(16,), theta1=(0.5,),
                                      gamma=(1.1, 2.0), eta=(0, 1)))
    assert len(rows) == 4
    assert [(r.gamma, r.eta) for r in rows] == [
        (1.1, 0), (1.1, 1), (2.0, 0), (2.0, 1)]


def test_sweep_is_deterministic_up_to_wall_time():
    config = small_sweep()
    first = [row.csv_line() for row in run_experiment(config)]
    second = [row.csv_line() for row in run_experiment(config)]
    strip = lambda line: line.rsplit(",", 1)[0]  # noqa: E731 - drop wall_ms
    assert [strip(a) for a in first] == [strip(b) for b in second]


def test_a_failing_point_is_recorded_without_aborting_the_sweep():
    # A penalty of a tenth of the trace constant leaves the coarsest
    # operator indefinite, so the gamma = 0.1 points fail at run time while
    # the gamma = 1.1 points still run.  The failed build is shared by both
    # eta values of each gamma = 0.1 point, so every one of their rows
    # carries its error.
    rows = run_experiment(small_sweep(ns=(16,), gamma=(0.1, 1.1), cycle="v",
                                      eta=(0, 4)))
    failed = [row for row in rows if row.error is not None]
    passed = [row for row in rows if row.error is None]
    assert len(rows) == 8
    assert [(row.gamma, row.eta) for row in failed] == [(0.1, 0), (0.1, 4)] * 2
    assert {row.gamma for row in passed} == {1.1}
    assert len({row.error for row in failed}) == 1
    for row in failed:
        assert row.rho_mean is None
        assert row.final_residual is None
        assert row.iters is None
        assert row.wall_ms is None
    for row in passed:
        assert row.rho_mean is not None


def test_failure_rows_follow_the_success_row_convention():
    # A failing point's row is the same row the sweep would have filled:
    # same h, positions and blank gamma under inverse_h2, no metrics.
    # At n = 4 the penalty 1/h^2 is a fifth of the trace constant
    # 1/(theta1 h), and the coarsest operator is indefinite.
    rows = run_experiment(small_sweep(ns=(4, 16), theta1=(0.05,),
                                      lambda_mode="inverse_h2"))
    failed, passed = rows
    assert failed.error is not None and passed.error is None
    assert failed.gamma is None and passed.gamma is None
    assert (failed.h, failed.theta1, failed.theta2) == (0.25, 0.05, 0.01)
    assert failed.wall_ms is None and failed.rho_mean is None


def test_points_that_differ_only_in_eta_share_one_build(monkeypatch):
    # Each (n, theta1, gamma) builds one hierarchy for all its eta values,
    # and its rows are those of a build per point, apart from wall_ms.
    config = small_sweep(ns=(16,), theta1=(0.3, 0.5), eta=(0, 2, 4))
    builds, build_hierarchy = [], mg.build_hierarchy

    def counting(system, cycle):
        builds.append(cycle)
        return build_hierarchy(system, cycle)

    monkeypatch.setattr(mg, "build_hierarchy", counting)
    rows = run_experiment(config)
    assert len(builds) == 2
    monkeypatch.undo()

    reference = []
    for theta1 in config.theta1:
        for eta in config.eta:
            system = assemble_1d(16, theta1, config.theta2,
                                 1.1 / (theta1 / 16))
            hierarchy = mg.build_hierarchy(system, mg.CycleConfig(
                nu1=2, nu2=1, eta=eta, coarsest_n=8))
            _, trace = mg.solve(hierarchy, np.zeros(17), u0=np.ones(17),
                                max_iters=12)
            reference.append((theta1, eta, trace.rho_mean(9, 12),
                              float(trace.residual_norms[-1]),
                              trace.iterations))
    assert [(r.theta1, r.eta, r.rho_mean, r.final_residual, r.iters)
            for r in rows] == reference
    assert all(r.error is None and r.wall_ms > 0.0 for r in rows)


@pytest.mark.parametrize("config", [
    small_sweep(ns=(16,), eta=(0, 2)),
    ExperimentConfig("smoke", 2, (16, 32), domain="flower", eta=(0, 4),
                     iterations=8, window=(5, 8)),
], ids=["1d", "2d"])
def test_rerun_rows_match_apart_from_wall_time(config):
    def stable(rows):
        return [replace(row, wall_ms=None) for row in rows]

    first = run_experiment(config)
    assert all(row.error is None for row in first)
    assert stable(first) == stable(run_experiment(config))


def test_inverse_h2_mode_blanks_gamma_and_uses_the_grid_penalty():
    rows = run_experiment(small_sweep(ns=(16,), theta1=(0.5,),
                                      lambda_mode="inverse_h2"))
    assert rows[0].gamma is None
    assert rows[0].lambda_mode == "inverse_h2"


def test_two_dim_sweep_smoke():
    config = ExperimentConfig("smoke", 2, (16,), domain="disk",
                              iterations=8, window=(5, 8))
    rows = run_experiment(config)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.domain == "disk"
    assert row.dim == 2
    assert row.h == 1.0 / 16
    assert 0.0 < row.rho_mean < 1.0


# -- CSV serialization ---------------------------------------------------------


def test_csv_header_matches_the_row_layout():
    # The headers are the rows' field names, and perfbench reads the sweep
    # CSV by column name: a field renamed, reordered or added fails here.
    assert CSV_HEADER == ("experiment,domain,dim,n,h,theta1,theta2,gamma,eta,"
                          "cycle,lambda_mode,rho_mean,final_residual,iters,"
                          "wall_ms")
    assert ACCURACY_CSV_HEADER == ("domain,dim,n,h,linf_error,l2_error,"
                                   "linf_ratio,l2_ratio")
    row = run_experiment(small_sweep(ns=(8,), theta1=(0.5,)))[0]
    assert len(row.csv_line().split(",")) == 15


def test_csv_line_uses_repr_floats_and_empty_for_none():
    row = ResultRow(experiment="x", domain="interval", dim=1, n=8, h=0.125,
                    theta1=0.1, theta2=0.01, gamma=1.1, eta=0,
                    cycle="two_grid", lambda_mode="local",
                    rho_mean=0.0625, final_residual=None, iters=None,
                    wall_ms=None, error="boom")
    fields = row.csv_line().split(",")
    assert fields[4] == repr(0.125)
    assert fields[11] == repr(0.0625)
    assert fields[12:] == ["", "", ""]
    assert "boom" not in row.csv_line()  # error text is not serialized


def test_csv_floats_round_trip_exactly():
    row = run_experiment(small_sweep(ns=(8,), theta1=(0.3,)))[0]
    fields = row.csv_line().split(",")
    assert float(fields[5]) == row.theta1
    assert float(fields[11]) == row.rho_mean
    assert float(fields[12]) == row.final_residual


def test_emit_results_writes_header_and_rows(tmp_path):
    rows = run_experiment(small_sweep())
    path = emit_results(rows, tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    assert path.read_text().endswith("\n")


def test_emit_results_rejects_an_empty_sweep(tmp_path):
    with pytest.raises(ValueError, match="no rows"):
        emit_results([], tmp_path / "out.csv")


# -- accuracy studies ----------------------------------------------------------


def test_one_dim_accuracy_reproduces_the_linear_solution():
    # u(x) = x lies in the trial space, so every grid solves it to roundoff.
    config = ExperimentConfig("accuracy", 1, (8, 16), theta1=(0.5,))
    rows = run_accuracy_study(config)
    assert len(rows) == 2
    for row in rows:
        assert row.linf_error < 1e-10
        assert row.l2_error < 1e-10
    assert rows[0].linf_ratio is None
    assert rows[0].l2_ratio is None
    assert rows[1].linf_ratio is not None


@pytest.mark.parametrize("mode", ["local", "inverse_h2"])
def test_one_dim_accuracy_study_sizes_lam_by_lambda_mode(monkeypatch, mode):
    # The accuracy study sizes the penalty as the sweeps do: 1/h^2 under
    # inverse_h2, gamma / (theta1 h) under the local and global rules.
    seen, assemble = [], experiments.assemble_1d

    def spy(n, theta1, theta2, lam, **data):
        seen.append(lam)
        return assemble(n, theta1, theta2, lam, **data)

    monkeypatch.setattr(experiments, "assemble_1d", spy)
    config = ExperimentConfig("accuracy", 1, (32, 64), theta1=(0.05,),
                              lambda_mode=mode)
    run_accuracy_study(config)
    hs = [1.0 / n for n in config.ns]
    assert seen == ([1.0 / h ** 2 for h in hs] if mode == "inverse_h2"
                    else [1.1 / (0.05 * h) for h in hs])


def test_accuracy_study_raises_when_a_solve_diverges():
    # At n = 8 the penalty 1/h^2 = 64 lies below the trace constant
    # 1/(theta1 h) = 160, so the cycles diverge; that point has no error to
    # report.
    config = ExperimentConfig("accuracy", 1, (8, 16, 32), theta1=(0.05,),
                              lambda_mode="inverse_h2")
    with pytest.warns(RuntimeWarning), \
            pytest.raises(AccuracyStudyError,
                          match=r"n = 8: the solve diverged: \d+ cycles, "
                                r"final residual \S+e\+\d+"):
        run_accuracy_study(config)


def test_accuracy_study_raises_when_the_cycles_run_out(monkeypatch):
    # Two cycles cannot reach 1e-10 on the disk; the study says so rather
    # than report the error of an unfinished solve.
    solve = mg.solve
    monkeypatch.setattr(mg, "solve", lambda *args, **kwargs: solve(
        *args, **{**kwargs, "max_iters": 2}))
    config = ExperimentConfig("accuracy", 2, (16,), domain="disk")
    with pytest.raises(AccuracyStudyError,
                       match="n = 16: the solve did not reach the target: "
                             "2 cycles"):
        run_accuracy_study(config)


def test_two_dim_accuracy_errors_shrink_under_refinement():
    config = ExperimentConfig("accuracy", 2, (16, 32), domain="disk",
                              cycle="v", iterations=30)
    rows = run_accuracy_study(config)
    assert rows[1].linf_error < rows[0].linf_error
    assert rows[1].l2_error < rows[0].l2_error
    assert rows[1].linf_ratio == rows[0].linf_error / rows[1].linf_error
    # Quadratic convergence puts the ratio near 4; at these coarse grids it
    # only needs to be clearly better than first order.
    assert rows[1].linf_ratio > 2.0


def test_accuracy_rows_serialize_with_their_own_header(tmp_path):
    config = ExperimentConfig("accuracy", 1, (8, 16), theta1=(0.5,))
    rows = run_accuracy_study(config)
    path = emit_results(rows, tmp_path / "acc.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ACCURACY_CSV_HEADER
    assert len(lines[0].split(",")) == 8
    first = lines[1].split(",")
    assert first[6:] == ["", ""]  # no ratios on the coarsest row
    assert float(lines[2].split(",")[6]) == rows[1].linf_ratio


def test_rectangle_rows_equal_a_direct_build_of_their_point():
    # The rectangle is the one domain whose cut position enters the point
    # builder; each row of both studies is that of its own build.
    rows = run_experiment(ExperimentConfig(
        "smoke", 2, (16,), domain="rectangle", theta=(0.3, 0.7), eta=(0, 4),
        iterations=8, window=(5, 8)))
    reference = []
    for theta in (0.3, 0.7):
        system = assemble(ProblemSpec(
            levelset=domain_catalog("rectangle", theta=theta, h=1.0 / 16),
            h=1.0 / 16, gamma=2.0, lambda_mode="local"))
        for eta in (0, 4):
            hierarchy = mg.build_hierarchy(system, mg.CycleConfig(
                nu1=2, nu2=1, eta=eta, coarsest_n=8))
            m = system.grid.num_nodes
            _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m),
                                max_iters=8)
            reference.append((theta, theta, eta, trace.rho_mean(5, 8),
                              float(trace.residual_norms[-1]),
                              trace.iterations))
    assert [(r.theta1, r.theta2, r.eta, r.rho_mean, r.final_residual, r.iters)
            for r in rows] == reference

    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def source(x, y):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    rows = run_accuracy_study(ExperimentConfig(
        "accuracy", 2, (16, 32), domain="rectangle", theta=(0.3,)))
    for row, n in zip(rows, (16, 32)):
        h = 1.0 / n
        system = assemble(ProblemSpec(
            levelset=domain_catalog("rectangle", theta=0.3, h=h), h=h,
            f=source, g_dirichlet=exact, gamma=2.0, lambda_mode="local"))
        hierarchy = mg.build_hierarchy(system, mg.CycleConfig(
            nu1=2, nu2=1, eta=0, coarsest_n=n // 2))
        u, _ = mg.solve(hierarchy, system.F, max_iters=200,
                        target_residual=1e-10)
        X, Y = system.grid.node_coordinates()
        err = np.abs(u - exact(X, Y))[system.field.values < 0.0]
        assert (row.domain, row.n, row.h, row.linf_error, row.l2_error) == (
            "rectangle", n, h, float(err.max()),
            float(np.sqrt(h * h * np.sum(err ** 2))))


def test_accuracy_study_state_is_per_row():
    config = ExperimentConfig("accuracy", 1, (8, 16, 32), theta1=(0.5,))
    rows = run_accuracy_study(config)
    assert [row.n for row in rows] == [8, 16, 32]
    assert np.all(np.diff([row.h for row in rows]) < 0)


def test_interval_sweep_factors_are_pinned():
    # The 1D smoother is lexicographic Gauss-Seidel, one class: these
    # factors move if the sweep order or the coarse penalty changes.
    config = ExperimentConfig(experiment="interval_sweep", dimension=1,
                              ns=(64,), theta1=(0.0099, 0.99), eta=(0, 4),
                              cycle="v", coarsest_n=8)
    rows = run_experiment(config)
    assert [(r.theta1, r.eta) for r in rows] == list(INTERVAL_FACTORS)
    for row in rows:
        assert row.error is None
        assert row.rho_mean == pytest.approx(
            INTERVAL_FACTORS[row.theta1, row.eta], rel=0.0, abs=1e-12)

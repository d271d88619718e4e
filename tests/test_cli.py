"""Tests for the command-line front end: run, catalog, verify."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from ghostmg import cli
from ghostmg.cli import main
from ghostmg.experiments import CSV_HEADER

SMOKE_CONFIG = """
experiment = smoke
dimension = 1
n = 8, 16
theta1 = 0.5
iterations = 12
window = 9, 12
"""


def write_config(tmp_path, text, output):
    path = tmp_path / "sweep.cfg"
    path.write_text(text + f"output = {output}\n")
    return path


def test_run_writes_the_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    config = write_config(tmp_path, SMOKE_CONFIG, out)
    assert main(["run", str(config)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert f"wrote 2 rows to {out}" in capsys.readouterr().out


def test_run_reports_failed_points_with_exit_one(tmp_path, capsys):
    # The flower at n = 8 has a checkerboard cell, so that point fails when
    # it assembles; the other point runs.
    out = tmp_path / "rows.csv"
    config = write_config(
        tmp_path,
        "experiment = smoke\ndimension = 2\ndomain = flower\nn = 8, 16\n"
        "cycle = v\ncoarsest_n = 4\niterations = 12\nwindow = 9, 12\n",
        out)
    assert main(["run", str(config)]) == 1
    captured = capsys.readouterr()
    assert "point failed (n=8" in captured.err
    assert "CheckerboardCellError" in captured.err
    assert "(1 failed)" in captured.out
    assert len(out.read_text().splitlines()) == 3  # both rows still written


def test_run_with_a_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_with_a_malformed_config_exits_two(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("experiment = x\ndimension = 1\nbogus = 1\n")
    assert main(["run", str(config)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a sweep or an accuracy study starts."""
    def refuse(config):
        raise AssertionError("the run started despite a bad config")
    monkeypatch.setattr(cli, "run_experiment", refuse)
    monkeypatch.setattr(cli, "run_accuracy_study", refuse)


def test_run_with_a_missing_output_directory_exits_two(tmp_path, capsys,
                                                       no_work):
    config = write_config(tmp_path, SMOKE_CONFIG, tmp_path / "absent" / "r.csv")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "absent" in err


def test_run_with_an_unreachable_coarsest_size_exits_two(tmp_path, capsys,
                                                          no_work):
    # n = 96 is not coarsest_n = 8 times a power of two, so no V-cycle
    # hierarchy reaches the coarsest size; that point used to fail at run
    # time with exit 1.
    out = tmp_path / "rows.csv"
    config = write_config(
        tmp_path, "experiment = smoke\ndimension = 1\nn = 16, 96\n"
        "cycle = v\niterations = 12\nwindow = 9, 12\n", out)
    assert main(["run", str(config)]) == 2
    assert "config error: finest n = 96 is not coarsest_n = 8" \
        in capsys.readouterr().err
    assert not out.exists()


def test_run_with_a_directory_as_output_exits_two(tmp_path, capsys, no_work):
    # The CSV could not be written there, so the sweep must not start.
    config = write_config(tmp_path, SMOKE_CONFIG, tmp_path)
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "is a directory" in err


@pytest.mark.parametrize("key, value", [
    ("h", "0"),
    ("h", "1e-320"),
    ("n", "nan"),
    ("eta", "nan"),
    ("n", "inf"),
    ("window", "41, inf"),
    ("gamma", "nan"),
    ("gamma", "inf"),
], ids=["h-zero", "h-subnormal", "n-nan", "eta-nan", "n-inf", "window-inf",
        "gamma-nan", "gamma-inf"])
def test_run_with_a_bad_number_exits_two(tmp_path, capsys, no_work, key,
                                         value):
    # Each of these once escaped as a traceback, ran every point into a
    # misleading error, or was accepted silently.
    settings = {"n": "8, 16", "theta1": "0.5", "eta": "0, 4",
                "iterations": "50", "window": "41, 50", key: value}
    if key == "h":
        del settings["n"]
    out = tmp_path / "rows.csv"
    config = write_config(
        tmp_path, "experiment = interval_sweep\ndimension = 1\n"
        + "".join(f"{k} = {v}\n" for k, v in settings.items()), out)
    assert main(["run", str(config)]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("point", [
    "dimension = 1\nn = 8, 16\ngamma = 1.1, -1",
    "dimension = 2\ndomain = disk\nn = 16\ngamma = 0",
], ids=["1d-negative", "2d-zero"])
def test_run_with_a_penalty_factor_not_positive_exits_two(tmp_path, capsys,
                                                         no_work, point):
    # Each point used to fail on its own, with NotSPDError in 1D and
    # ValueError in 2D, and the run exited 1.
    out = tmp_path / "rows.csv"
    config = write_config(tmp_path, f"experiment = x\n{point}\n", out)
    assert main(["run", str(config)]) == 2
    assert "config error: gamma: " in capsys.readouterr().err
    assert not out.exists()


def test_run_with_an_unknown_domain_given_spacings_exits_two(tmp_path, capsys,
                                                           no_work):
    # Spacings are converted through the domain's extent before the domain
    # itself is checked.
    config = write_config(tmp_path, "experiment = x\ndimension = 2\n"
                          "domain = torus\nh = 2^-6\n", tmp_path / "r.csv")
    assert main(["run", str(config)]) == 2
    assert "config error: unknown domain 'torus'" in capsys.readouterr().err


@pytest.mark.parametrize("key, point", [
    ("theta1", "dimension = 1\ntheta1 = 0.3, 0.5"),
    ("theta", "dimension = 2\ndomain = rectangle\ntheta = 0.3, 0.5"),
    ("gamma", "dimension = 1\ngamma = 1.1, 2.0"),
    ("eta", "dimension = 1\neta = 0, 4"),
], ids=["theta1", "theta", "gamma", "eta"])
def test_run_accuracy_with_several_values_exits_two(tmp_path, capsys, no_work,
                                                    key, point):
    # An accuracy study runs one parameter point per grid size; a list would
    # silently run its first value only.
    config = write_config(
        tmp_path, f"experiment = accuracy\nn = 8, 16\n{point}\n",
        tmp_path / "acc.csv")
    assert main(["run", str(config)]) == 2
    assert f"config error: an accuracy study takes one {key!r} value" \
        in capsys.readouterr().err


def test_run_accuracy_on_a_neumann_domain_exits_two(tmp_path, capsys,
                                                    no_work):
    # The manufactured data carry no Neumann values, so the errors would
    # measure another problem.
    config = write_config(tmp_path, "experiment = accuracy\ndimension = 2\n"
                          "domain = annulus\nn = 32, 64\n", tmp_path / "a.csv")
    assert main(["run", str(config)]) == 2
    assert "config error: an accuracy study needs a pure-Dirichlet domain" \
        in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_run_accuracy_experiment_writes_ratio_table(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    config = write_config(
        tmp_path,
        "experiment = accuracy\ndimension = 1\nn = 8, 16\ntheta1 = 0.5\n",
        out)
    assert main(["run", str(config)]) == 0
    captured = capsys.readouterr().out
    assert "ratio=" in captured
    lines = out.read_text().splitlines()
    assert lines[0].startswith("domain,dim,n,h,linf_error")
    assert len(lines) == 3


def test_run_accuracy_failure_is_reported_with_exit_one(tmp_path, capsys):
    # The flower at n = 8 has a checkerboard cell, which extraction rejects
    # with a named error; it is reported like a failed sweep point.
    out = tmp_path / "acc.csv"
    config = write_config(
        tmp_path,
        "experiment = accuracy\ndimension = 2\ndomain = flower\nn = 8, 16\n",
        out)
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert "CheckerboardCellError: cell (3, 3)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_accuracy_divergence_exits_one(tmp_path, capsys):
    # A diverged solve fails the study instead of writing its error.
    out = tmp_path / "acc.csv"
    config = write_config(
        tmp_path,
        "experiment = accuracy\ndimension = 1\nn = 8, 16\ntheta1 = 0.05\n"
        "lambda_mode = inverse_h2\n",
        out)
    with pytest.warns(RuntimeWarning):
        assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert "accuracy study failed: AccuracyStudyError: n = 8: the solve " \
        "diverged" in err
    assert not out.exists()


def test_catalog_lists_the_interval_and_every_domain(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("interval", "annulus", "disk", "flower", "hourglass",
                 "leaf", "rectangle"):
        assert name in out


def test_catalog_marks_region_dependent_boundary_conditions(capsys):
    main(["catalog"])
    out = capsys.readouterr().out
    leaf_line = next(line for line in out.splitlines()
                     if line.startswith("leaf"))
    assert "dirichlet/neumann by region" in leaf_line
    disk_line = next(line for line in out.splitlines()
                     if line.startswith("disk"))
    assert "dirichlet" in disk_line


def test_verify_passes_all_checks(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out
    assert "5/5 checks passed" in out


def test_verify_checks_positive_definiteness_on_every_level(monkeypatch):
    # The coarse levels size their own penalties, so the check factors
    # every level of its disk hierarchy and names the first that fails.
    levels = cli.mg.build_hierarchy(
        cli.assemble(cli.ProblemSpec(levelset=cli.domain_catalog("disk"),
                                     h=1.0 / 32)),
        cli.mg.CycleConfig(coarsest_n=4)).levels
    name, ok, detail = cli._check_spd()
    assert ok
    assert detail.endswith(
        "/".join(str(level.num_dofs) for level in levels) + " DOFs")
    assert len(levels) == 4
    build = cli.mg.build_hierarchy

    def indefinite_level_two(system, config):
        hierarchy = build(system, config)
        hierarchy.levels[2].A = -hierarchy.levels[2].A
        return hierarchy

    monkeypatch.setattr(cli.mg, "build_hierarchy", indefinite_level_two)
    name, ok, detail = cli._check_spd()
    assert not ok
    assert detail.startswith("level 2:")


def test_verify_checks_symmetry_on_every_level(monkeypatch):
    # The check reads the operators the cycles run, every hierarchy level,
    # and names the first that is not exactly symmetric.
    name, ok, detail = cli._check_symmetry()
    assert ok
    assert detail == "A = A^T bitwise on 4 levels"
    build = cli.mg.build_hierarchy

    def asymmetric_level_two(system, config):
        hierarchy = build(system, config)
        A = hierarchy.levels[2].A
        hierarchy.levels[2].A = (A + 1e-9 * sp.triu(A, k=1)).tocsr()
        return hierarchy

    monkeypatch.setattr(cli.mg, "build_hierarchy", asymmetric_level_two)
    name, ok, detail = cli._check_symmetry()
    assert not ok
    assert detail.startswith("level 2: max |A - A^T| = ")


def test_verify_reports_an_indefinite_coarsest_level(monkeypatch):
    # Building the hierarchy factors its coarsest level, so a coarsest level
    # that is not positive definite fails inside the build; the check must
    # report it as a failure, not raise.
    coarse_penalty = cli.mg._coarse_penalty

    def negative_penalty(penalty, free, n):
        # Each coarse cell's penalty lam_c M_c becomes -lam_c M_c.
        coarse = coarse_penalty(penalty, free, n)
        return dataclasses.replace(coarse, lam=-coarse.lam)

    monkeypatch.setattr(cli.mg, "_coarse_penalty", negative_penalty)
    name, ok, detail = cli._check_spd()
    assert not ok
    assert detail.startswith("level 3: coarsest operator is not positive "
                             "definite")


def test_verify_checks_the_1d_cell_pencil_that_the_hierarchy_pools(
        monkeypatch, capsys):
    # The 1D constant comes from pencil_max on the system's penalty cell, the
    # production path, so a wrong pencil_max shows as a failed line.
    pencil_max = cli.stab.pencil_max
    monkeypatch.setattr(cli.stab, "pencil_max",
                        lambda B, S: 2.0 * pencil_max(B, S))
    assert main(["verify"]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "trace constants" in line)
    assert line.startswith("[FAIL]")
    assert "1D cell pencil vs 1/(theta1 h): rel 1.00e+00" in line


def test_module_entry_point_runs_without_a_runpy_warning():
    # runpy warns when the package import has already loaded ghostmg.cli.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ghostmg.cli",
         "catalog"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "interval" in done.stdout


def test_main_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_main_rejects_unknown_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])

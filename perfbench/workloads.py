"""The benchmark workloads: seeded inputs, one timed unit of work each, and
the correctness gate applied to every operation in that unit.

Every workload is a closed loop in one process: the next unit starts only
after the previous one has finished.  A unit is the work a user waits for
(one cold solve, one setup plus a batch of right-hand sides, one whole 1D
sweep); an operation is one solve or one sweep point, and it is what the
gate counts.  The seed only shapes the generated inputs; the library never
sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Library calls go through module attributes so that the traced run's
# wrappers see them.
from ghostmg import assembly, cli
from ghostmg import multigrid as mg
from ghostmg.geometry import domain_catalog

TARGET_RESIDUAL = 1e-10
MAX_CYCLES = 100


def _cycle_config() -> mg.CycleConfig:
    """V(2,1) with four extra cut sweeps down to n = 8: the README set-up."""
    return mg.CycleConfig(nu1=2, nu2=1, eta=4, coarsest_n=8)


@dataclass
class Unit:
    """Timings and gate results of one unit of work."""

    total_s: float = 0.0
    setup_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    rho: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    solutions: list = field(default_factory=list)
    # Points whose cycles are timed only together with their set-up (the
    # interval sweep); solve_s is then derived from the unit medians.
    solve_points: int = 0


def _gate_solve(unit: Unit, trace: mg.ConvergenceTrace, error: float,
                tolerance: float, label: str):
    """Record one 2D solve and fail it on divergence, a missed target or an
    error above the workload's tolerance."""
    unit.attempted += 1
    unit.cycles.append(trace.iterations)
    unit.rho.append(float(np.mean(trace.rho_per_iter)))
    unit.errors.append(error)
    if trace.diverged:
        unit.failures.append(f"{label}: diverged")
    elif not trace.residual_norms[-1] <= TARGET_RESIDUAL:
        unit.failures.append(
            f"{label}: residual {trace.residual_norms[-1]:.3e} above "
            f"{TARGET_RESIDUAL:g} after {trace.iterations} cycles")
    elif not error <= tolerance:
        unit.failures.append(
            f"{label}: error {error:.3e} above tolerance {tolerance:.1e}")


def _exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _source(x, y):
    return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


class DiskCold:
    """One fresh manufactured-solution solve per unit on a jittered disk.

    The seed moves the disk centre by up to 0.02 in each direction, which is
    ten cells at n = 512, so every unit sees a different cut pattern and a
    speed-up tuned to one pattern does not show.  n = 512 rather than 1024
    keeps a unit near two seconds, so a run averages over a dozen cut
    patterns and over the machine's noise.
    """

    name = "disk-cold"

    def __init__(self, seed: int, smoke: bool = False):
        self.n = 32 if smoke else 512
        # Nodal max error at this size is 3.14e-6 (n = 512) and 8.0e-4
        # (n = 32) for every centre tried; the tolerance sits just above.
        self.tolerance = 1.5e-3 if smoke else 5.0e-6
        self.rng = np.random.default_rng(seed)

    def run_unit(self, keep: bool = False) -> Unit:
        cx, cy = 0.5 + self.rng.uniform(-0.02, 0.02, size=2)
        label = f"disk centre ({cx:.6f}, {cy:.6f})"
        problem = assembly.ProblemSpec(
            levelset=domain_catalog("disk", center=(cx, cy), radius=0.4),
            h=1.0 / self.n, f=_source, g_dirichlet=_exact, gamma=2.0)
        unit = Unit()
        try:
            t0 = time.perf_counter()
            system = assembly.assemble(problem)
            hierarchy = mg.build_hierarchy(system, _cycle_config())
            t1 = time.perf_counter()
            u, trace = mg.solve(hierarchy, system.F, max_iters=MAX_CYCLES,
                                target_residual=TARGET_RESIDUAL)
            t2 = time.perf_counter()
        except Exception as err:  # noqa: BLE001 - a failed operation is data
            unit.attempted += 1
            unit.failures.append(f"{label}: {type(err).__name__}: {err}")
            return unit
        unit.total_s = t2 - t0
        unit.setup_s.append(t1 - t0)
        unit.solve_s.append(t2 - t1)
        X, Y = system.grid.node_coordinates()
        interior = system.field.values < 0.0
        error = float(np.max(np.abs(u - _exact(X, Y))[interior]))
        _gate_solve(unit, trace, error, self.tolerance, label)
        if keep:
            unit.solutions.append(u)
        return unit


def _smooth_field(rng: np.random.Generator, X: np.ndarray, Y: np.ndarray,
                  lo: float, extent: float, modes: int = 4) -> np.ndarray:
    """A random combination of the low sine modes of the box, with
    coefficients decaying like 1 / (k^2 + l^2)."""
    k = np.arange(1, modes + 1)
    coeff = rng.standard_normal((modes, modes)) / (k[:, None] ** 2
                                                   + k[None, :] ** 2)
    sx = np.sin(np.outer(k, np.pi * (X - lo) / extent))
    sy = np.sin(np.outer(k, np.pi * (Y - lo) / extent))
    return np.einsum("kl,kn,ln->n", coeff, sx, sy)


class FlowerRHS:
    """One setup, then a batch of right-hand sides F = A w with seeded
    smooth w, each solved from zero.

    The flower keeps only 23 % of its nodes free and has the deepest V-cycle
    degradation, so free-DOF compression and convergence fixes show here;
    setup is amortised over the batch.
    """

    name = "flower-rhs"

    def __init__(self, seed: int, smoke: bool = False):
        self.n = 32 if smoke else 512
        self.num_rhs = 2 if smoke else 16
        # max |u - w| over the free nodes reaches 6.7e-9 at n = 512 over 250
        # right-hand sides, and 2.6e-10 at n = 32.
        self.tolerance = 2.0e-8
        self.rng = np.random.default_rng(seed)
        levelset = domain_catalog("flower")
        self.problem = assembly.ProblemSpec(levelset=levelset,
                                   h=levelset.art_extent / self.n, gamma=2.0)
        self.lo = levelset.art_origin[0]
        self.extent = levelset.art_extent

    def run_unit(self, keep: bool = False) -> Unit:
        unit = Unit()
        try:
            t0 = time.perf_counter()
            system = assembly.assemble(self.problem)
            hierarchy = mg.build_hierarchy(system, _cycle_config())
            t1 = time.perf_counter()
        except Exception as err:  # noqa: BLE001 - a failed operation is data
            unit.attempted += self.num_rhs
            unit.failures.extend([f"flower setup: {type(err).__name__}: "
                                  f"{err}"] * self.num_rhs)
            return unit
        unit.setup_s.append(t1 - t0)
        X, Y = system.grid.node_coordinates()
        free = system.free_dofs
        for j in range(self.num_rhs):
            w = _smooth_field(self.rng, X, Y, self.lo, self.extent)
            F = system.A @ w
            label = f"flower rhs {j}"
            try:
                s0 = time.perf_counter()
                u, trace = mg.solve(hierarchy, F, max_iters=MAX_CYCLES,
                                    target_residual=TARGET_RESIDUAL)
                s1 = time.perf_counter()
            except Exception as err:  # noqa: BLE001 - a failed operation
                unit.attempted += 1
                unit.failures.append(f"{label}: {type(err).__name__}: {err}")
                continue
            unit.solve_s.append(s1 - s0)
            error = float(np.max(np.abs(u - w)[free]))
            _gate_solve(unit, trace, error, self.tolerance, label)
            if keep:
                unit.solutions.append(u)
        unit.total_s = unit.setup_s[0] + sum(unit.solve_s)
        return unit


def stable_rows(rows: list) -> list:
    """CSV rows without wall_ms, the one column a rerun may change."""
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


class IntervalSweep:
    """The paper's 1D protocol through ``ghostmg run`` in-process.

    Grid sizes n = 1024, 4096, 16384; four Dirichlet cut fractions (0.0099
    and 0.99 fixed, two drawn from the seed); eta = 0 and 4; V-cycle to
    n = 8; 50 homogeneous cycles, factor over cycles 41-50.  Many tiny levels
    make per-call overhead dominate, and there is no cut-cell geometry, so 2D
    assembly and free-DOF changes should leave it unchanged.  Four fractions
    rather than eight keep a unit near four seconds, so a run takes enough
    units for a steady median.

    Each unit first runs the same sweep with one cycle per point, which is
    its set-up time (assembly and hierarchy plus one cycle), then the full
    sweep.  Every full sweep after the first is a rerun whose CSV must match
    the first one bit for bit apart from wall_ms.
    """

    name = "interval-sweep"

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        rng = np.random.default_rng(seed)
        drawn = np.round(rng.uniform(0.02, 0.98, size=1 if smoke else 2), 4)
        self.theta1 = (0.0099, 0.99, *(float(t) for t in drawn))
        self.ns = (64, 128) if smoke else (1024, 4096, 16384)
        self.etas = (0, 4)
        self.points = len(self.ns) * len(self.theta1) * len(self.etas)
        workdir.mkdir(parents=True, exist_ok=True)
        tag = f"{'smoke-' if smoke else ''}{seed}"
        self.config = self._write(workdir / f"interval-{tag}.cfg", 50,
                                  (41, 50))
        self.setup_config = self._write(
            workdir / f"interval-{tag}-setup.cfg", 1, (1, 1))
        self.reference = None

    def _write(self, path: Path, iterations: int, window: tuple) -> Path:
        lines = [
            "experiment = interval_sweep",
            "dimension = 1",
            "domain = interval",
            "n = " + ", ".join(str(n) for n in self.ns),
            "theta1 = " + ", ".join(repr(t) for t in self.theta1),
            "theta2 = 0.01",
            "gamma = 1.1",
            "eta = " + ", ".join(str(e) for e in self.etas),
            "lambda_mode = local",
            "cycle = v",
            "coarsest_n = 8",
            f"iterations = {iterations}",
            f"window = {window[0]}, {window[1]}",
            f"output = {path.with_suffix('.csv')}",
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def _sweep(self, config: Path) -> tuple:
        """Run one sweep; return (seconds, exit code, rows, diverged count,
        captured stderr)."""
        output = config.with_suffix(".csv")
        output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                code = cli.main(["run", str(config)])
            except Exception as exc:  # noqa: BLE001 - a failed sweep is data
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            t1 = time.perf_counter()
        diverged = sum("residual grew" in str(w.message) for w in caught)
        rows = []
        if output.exists():
            with open(output, newline="") as fh:
                rows = list(csv.DictReader(fh))
        return t1 - t0, code, rows, diverged, err.getvalue()

    def _gate_rows(self, unit: Unit, code: int, rows: list, diverged: int,
                   stderr: str, full: bool):
        """Fail error rows and diverged points; on the full sweep also a
        missed target and any difference from the first full sweep."""
        unit.attempted += self.points
        # `ghostmg run` exits non-zero only with error rows (counted below)
        # or without writing the CSV (every point missing).
        missing = self.points - len(rows)
        if missing:
            unit.failures.extend([f"sweep exit {code}, point missing: "
                                  f"{stderr.strip()}"] * missing)
        if diverged:
            unit.failures.extend(["sweep point diverged"] * diverged)
        for row in rows:
            point = f"n={row['n']} theta1={row['theta1']} eta={row['eta']}"
            if not row["rho_mean"]:
                unit.failures.append(f"{point}: error row")
            elif full and not float(row["final_residual"]) <= TARGET_RESIDUAL:
                unit.failures.append(
                    f"{point}: residual {row['final_residual']} above "
                    f"{TARGET_RESIDUAL:g}")
        if not full:
            return
        stable = stable_rows(rows)
        if self.reference is None:
            self.reference = stable
        elif stable != self.reference:
            differing = sum(a != b for a, b in zip(stable, self.reference))
            unit.failures.extend(
                ["rerun CSV differs from the first run"]
                * max(differing, 1))

    def run_unit(self, keep: bool = False) -> Unit:
        unit = Unit()
        setup = self._sweep(self.setup_config)
        self._gate_rows(unit, *setup[1:], full=False)
        total, code, rows, diverged, stderr = self._sweep(self.config)
        self._gate_rows(unit, code, rows, diverged, stderr, full=True)
        unit.total_s = total
        unit.setup_s.append(setup[0])
        unit.solve_points = self.points
        unit.cycles.extend(int(r["iters"]) for r in rows if r["iters"])
        rhos = [float(r["rho_mean"]) for r in rows if r["rho_mean"]]
        if rhos:
            # The sweep's factor is its worst point: one number per sweep.
            unit.rho.append(max(rhos))
        if keep:
            unit.solutions.append(stable_rows(rows))
        return unit


def make_workload(name: str, seed: int, workdir: Path, smoke: bool = False):
    if name == DiskCold.name:
        return DiskCold(seed, smoke)
    if name == FlowerRHS.name:
        return FlowerRHS(seed, smoke)
    if name == IntervalSweep.name:
        return IntervalSweep(seed, workdir, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (DiskCold.name, FlowerRHS.name, IntervalSweep.name)

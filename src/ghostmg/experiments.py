"""Parameter sweeps and accuracy studies over the domain catalog.

An experiment is described by a flat text config (one ``key = value`` per
line, lists comma-separated, ``#`` starts a comment) and expands into a
deterministic cartesian sweep over grid size, boundary position, penalty
factor and extra cut-cell sweeps.  One point builder, `_system`, assembles
every point of both studies: it sets the 1D penalty, the rectangle's cut
and, for an accuracy study, the manufactured data.  Points that differ only
in eta share one assembly and one hierarchy: eta enters only the cycle, and
a solve overwrites every workspace vector before reading it, so each point's
residual history is bitwise what a build of its own gives.  Every point runs
the homogeneous problem (zero data, all-ones initial iterate, so the
iteration contracts toward the zero solution and the residual never collides
with a nonzero solution's rounding floor) and records the windowed mean
convergence factor.  Failures at one point are recorded on that row and do
not abort the sweep; a failed assembly or build fails every eta of it.

Each row writes its own CSV columns, its dataclass fields in order, under a
header made of the same names; wall-clock time is the only
nondeterministic column.  A row's wall_ms is the shared set-up plus its
own cycles, the cost of its point alone, so the column sums to more than the
sweep's wall time.  Accuracy studies replace the homogeneous problem with a
manufactured solution on a pure-Dirichlet domain and report nodal errors
and refinement ratios instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble
from ghostmg.geometry import NEUMANN, LevelSet, domain_catalog, domain_names
from ghostmg.one_dim import assemble_1d
from ghostmg.stabilization import MODES, c_one_dim

_CYCLES = ("two_grid", "v", "w")
_LAMBDA_MODES = (*MODES, "inverse_h2")


class ConfigError(ValueError):
    """A config file is malformed or inconsistent."""


class AccuracyStudyError(RuntimeError):
    """A manufactured-solution solve of an accuracy study did not reach its
    target residual, so its nodal errors measure the solver, not the
    discretization."""


@dataclass
class ExperimentConfig:
    """One sweep description: the domain, the parameter lists and the cycle.

    Grid sizes are cells per side; h follows from the domain's artificial
    extent.  theta1 drives the 1D Dirichlet-cell sweep; theta drives the
    rectangle's cut-line position; gamma and eta are listable so one config
    covers penalty and extra-smoothing studies.
    """

    experiment: str
    dimension: int
    ns: tuple
    domain: str = ""
    theta1: tuple = (0.5,)
    theta2: float = 0.01
    theta: tuple = ()
    gamma: tuple = ()
    eta: tuple = (0,)
    lambda_mode: str = "local"
    cycle: str = "two_grid"
    nu1: int = 2
    nu2: int = 1
    iterations: int = 0
    window: tuple = ()
    coarsest_n: int = 8
    output: str = "results.csv"

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.dimension}")
        one_d = self.dimension == 1
        if not self.domain:
            self.domain = "interval" if one_d else ""
        if one_d:
            if self.domain != "interval":
                raise ConfigError(
                    f"the 1D domain is 'interval', got {self.domain!r}")
        else:
            if self.domain not in domain_names():
                raise ConfigError(
                    f"unknown domain {self.domain!r}; catalog: "
                    f"{', '.join(domain_names())}")
        if not self.ns:
            raise ConfigError("no grid sizes: set 'n' or 'h'")
        if any(n < 4 or n % 2 for n in self.ns):
            raise ConfigError(f"grid sizes must be even and >= 4, got {self.ns}")
        if self.theta and self.domain != "rectangle":
            raise ConfigError("'theta' only applies to the rectangle domain")
        if self.domain == "rectangle" and not self.theta:
            raise ConfigError("the rectangle domain needs a 'theta' list")
        for t in (*self.theta1, *self.theta):
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"cut fractions must be in (0, 1], got {t}")
        if not 0.0 < self.theta2 <= 1.0:
            raise ConfigError(f"theta2 must be in (0, 1], got {self.theta2}")
        if not self.gamma:
            self.gamma = (1.1,) if one_d else (2.0,)
        if any(not (math.isfinite(g) and g > 0.0) for g in self.gamma):
            raise ConfigError(f"gamma: penalty factors must be finite and "
                              f"positive, got {self.gamma}")
        if self.lambda_mode not in _LAMBDA_MODES:
            raise ConfigError(f"lambda_mode must be one of {_LAMBDA_MODES}, "
                              f"got {self.lambda_mode!r}")
        if self.lambda_mode == "inverse_h2" and not one_d:
            raise ConfigError("lambda_mode inverse_h2 is a 1D diagnostic")
        if self.cycle not in _CYCLES:
            raise ConfigError(f"cycle must be one of {_CYCLES}, "
                              f"got {self.cycle!r}")
        if self.iterations == 0:
            self.iterations = 50 if one_d else 30
        if not self.window:
            self.window = (41, 50) if one_d else (21, 30)
        first, last = self.window
        if not 1 <= first <= last <= self.iterations:
            raise ConfigError(
                f"window {first}..{last} does not fit in {self.iterations} "
                "iterations")
        try:  # the cycle's own checks, before any point assembles
            mg.CycleConfig(self.nu1, self.nu2, min(self.eta, default=0),
                           coarsest_n=self.coarsest_n)
            if self.cycle != "two_grid":  # a two-grid cycle coarsens once
                for n in self.ns:
                    mg._validate_depth(n, self.coarsest_n)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.experiment == "accuracy":
            for key in ("theta1", "theta", "gamma", "eta"):
                if len(getattr(self, key)) > 1:
                    raise ConfigError(
                        f"an accuracy study takes one {key!r} value, got "
                        f"{getattr(self, key)}")
            levelset = None if one_d else catalog_levelset(self.domain)
            if levelset is not None and (NEUMANN in levelset.bc_tags or
                                         levelset.bc_predicate is not None):
                raise ConfigError(
                    f"an accuracy study needs a pure-Dirichlet domain; "
                    f"{self.domain!r} has a Neumann boundary")


# The config keys are ExperimentConfig's fields, n and h standing for ns,
# each with its annotation: "tuple" for a list, or "int", "float", "str".
_KEY_TYPES = {key: field.type for field in fields(ExperimentConfig)
              for key in (("n", "h") if field.name == "ns" else (field.name,))}


def _parse_number(token: str) -> float:
    """A finite float literal, allowing the power forms 2^-7 and 2**-7."""
    token = token.replace("**", "^")
    try:
        if "^" in token:
            base, _, exponent = token.partition("^")
            value = math.pow(float(base), float(exponent))
        else:
            value = float(token)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


def catalog_levelset(domain: str) -> LevelSet:
    """The catalog level set of a 2D domain; the rectangle's at a sample cut,
    which sets neither its extent nor its boundary conditions."""
    sample = {"theta": 0.5, "h": 0.125} if domain == "rectangle" else {}
    return domain_catalog(domain, **sample)


def _artificial_extent(domain: str) -> float:
    """Extent of the domain's background grid; 1 for the interval and for
    a domain that ExperimentConfig then rejects."""
    return (catalog_levelset(domain).art_extent if domain in domain_names()
            else 1.0)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value config format."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value

    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    if "dimension" not in raw:
        raise ConfigError("missing required key 'dimension'")
    if ("n" in raw) == ("h" in raw):
        raise ConfigError("set exactly one of 'n' or 'h'")

    kwargs: dict = {"experiment": raw.pop("experiment")}
    try:
        kwargs["dimension"] = int(raw.pop("dimension"))
    except ValueError as err:
        raise ConfigError(f"dimension: {err}") from err

    lists: dict = {}
    for key, value in raw.items():
        try:
            if _KEY_TYPES[key] == "tuple":
                lists[key] = tuple(_parse_number(tok.strip())
                                   for tok in value.split(","))
            elif _KEY_TYPES[key] == "int":
                kwargs[key] = int(value)
            elif _KEY_TYPES[key] == "float":
                kwargs[key] = _parse_number(value)
            else:
                kwargs[key] = value
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from err

    if "n" in lists:
        ns = lists.pop("n")
        if any(v != int(v) for v in ns):
            raise ConfigError(f"grid sizes must be integers, got {ns}")
        kwargs["ns"] = tuple(int(v) for v in ns)
    else:
        extent = _artificial_extent(kwargs.get("domain", "")
                                    or ("interval" if kwargs["dimension"] == 1
                                        else ""))
        hs = lists.pop("h")
        if not all(h > 0.0 and math.isfinite(extent / h) for h in hs):
            raise ConfigError(f"h: grid spacings must be positive and give a "
                              f"finite grid, got {hs}")
        kwargs["ns"] = tuple(int(round(extent / h)) for h in hs)
    if "eta" in lists:
        etas = lists.pop("eta")
        if any(v != int(v) for v in etas):
            raise ConfigError(f"eta values must be integers, got {etas}")
        kwargs["eta"] = tuple(int(v) for v in etas)
    if "window" in lists:
        window = lists.pop("window")
        if len(window) != 2 or any(v != int(v) for v in window):
            raise ConfigError(f"window takes two integers, got {window}")
        kwargs["window"] = (int(window[0]), int(window[1]))
    kwargs.update(lists)
    return ExperimentConfig(**kwargs)


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


class _CsvRow:
    """A CSV row: its columns are its dataclass fields in order, less the
    error text, which is not serialized."""

    @classmethod
    def header(cls) -> str:
        return ",".join(f.name for f in fields(cls) if f.name != "error")

    def csv_line(self) -> str:
        """Floats as repr, so they read back exactly; None as empty."""
        values = (getattr(self, f.name) for f in fields(self)
                  if f.name != "error")
        return ",".join("" if v is None else repr(v) if isinstance(v, float)
                        else str(v) for v in values)


@dataclass
class ResultRow(_CsvRow):
    """One parameter point of a sweep; metric fields are None on failure and
    the error text is kept on the row."""

    experiment: str
    domain: str
    dim: int
    n: int
    h: float
    theta1: Optional[float]
    theta2: Optional[float]
    gamma: Optional[float]
    eta: int
    cycle: str
    lambda_mode: str
    rho_mean: Optional[float] = None
    final_residual: Optional[float] = None
    iters: Optional[int] = None
    wall_ms: Optional[float] = None
    error: Optional[str] = None


@dataclass
class AccuracyRow(_CsvRow):
    """Nodal errors of a manufactured-solution solve at one grid size.

    Ratios compare against the previous (coarser) row and are None on the
    first row.
    """

    domain: str
    dim: int
    n: int
    h: float
    linf_error: float
    l2_error: float
    linf_ratio: Optional[float] = None
    l2_ratio: Optional[float] = None


def _exact(x, y):
    """The 2D accuracy study's solution."""
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _source(x, y):
    """-laplace(_exact)."""
    return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def _cycle_config(config: ExperimentConfig, n: int, eta: int) -> mg.CycleConfig:
    coarsest = n // 2 if config.cycle == "two_grid" else config.coarsest_n
    return mg.CycleConfig(nu1=config.nu1, nu2=config.nu2, eta=eta,
                          gamma_star=2 if config.cycle == "w" else 1,
                          coarsest_n=coarsest)


def _system(config: ExperimentConfig, n: int, position: Optional[float],
            gamma: Optional[float], manufactured: bool = False):
    """Assemble the point of grid size n, boundary position (theta1 in 1D,
    the rectangle's theta, else None) and penalty factor gamma: with zero
    data, or with manufactured set the accuracy study's data, whose exact
    solution is u = x in 1D and _exact in 2D."""
    h = _artificial_extent(config.domain) / n
    if config.dimension == 1:
        # One Dirichlet cell, so the local and global rules coincide;
        # inverse_h2 asks for the factor that makes its penalty 1/h^2.
        if config.lambda_mode == "inverse_h2":
            gamma = (1.0 / h ** 2) / c_one_dim(position, h)
        data = {"g_a": (1.0 - position) * h, "g_b": 1.0} if manufactured \
            else {}
        return assemble_1d(n, position, config.theta2, gamma=gamma, **data)
    levelset = (domain_catalog("rectangle", theta=position, h=h)
                if config.domain == "rectangle"
                else domain_catalog(config.domain))
    data = {"f": _source, "g_dirichlet": _exact} if manufactured else {}
    return assemble(ProblemSpec(levelset=levelset, h=h, gamma=gamma,
                                lambda_mode=config.lambda_mode, **data))


def _solve_homogeneous(row: ResultRow, hierarchy: mg.Hierarchy,
                       config: ExperimentConfig):
    """Fill row's metrics from the homogeneous problem on `hierarchy`."""
    m = hierarchy.levels[0].grid.num_nodes
    _, trace = mg.solve(hierarchy, np.zeros(m), u0=np.ones(m),
                        max_iters=config.iterations)
    row.rho_mean = trace.rho_mean(*config.window)
    row.final_residual = float(trace.residual_norms[-1])
    row.iters = trace.iterations


def _run_group(config: ExperimentConfig, rows: list):
    """Run the rows of one point that differ only in eta on one system and
    hierarchy, each with its own cycle.  The system and hierarchy are
    local, so they are freed before the next group assembles."""
    first = rows[0]
    start = time.perf_counter()
    try:
        system = _system(config, first.n, first.theta1, first.gamma)
        hierarchy = mg.build_hierarchy(
            system, _cycle_config(config, first.n, first.eta))
    except Exception as err:  # noqa: BLE001 - sweep isolation
        for row in rows:
            row.error = f"{type(err).__name__}: {err}"
        return
    setup = time.perf_counter() - start
    for row in rows:
        start = time.perf_counter()
        try:
            _solve_homogeneous(row, replace(
                hierarchy, config=_cycle_config(config, row.n, row.eta)),
                config)
            row.wall_ms = 1e3 * (setup + time.perf_counter() - start)
        except Exception as err:  # noqa: BLE001 - sweep isolation
            row.error = f"{type(err).__name__}: {err}"


def run_experiment(config: ExperimentConfig) -> list:
    """Expand the config's cartesian sweep and run every parameter point.

    The sweep order is grid size, then boundary position, then gamma, then
    eta; it is deterministic so reruns produce identical rows.  The points
    of one grid size, position and gamma share an assembly and a hierarchy
    (`_run_group`).  A failing point yields a row with empty metrics and the
    error recorded on it.
    """
    rows = []
    one_d = config.dimension == 1
    extent = _artificial_extent(config.domain)
    positions: Sequence = (config.theta1 if one_d else config.theta) \
        or (None,)
    for n in config.ns:
        for position in positions:
            for gamma in config.gamma:
                group = [ResultRow(
                    experiment=config.experiment, domain=config.domain,
                    dim=config.dimension, n=n, h=extent / n,
                    theta1=position,
                    theta2=config.theta2 if one_d else position,
                    gamma=(None if config.lambda_mode == "inverse_h2"
                           else gamma),
                    eta=eta, cycle=config.cycle,
                    lambda_mode=config.lambda_mode) for eta in config.eta]
                _run_group(config, group)
                rows.extend(group)
    return rows


def run_accuracy_study(config: ExperimentConfig) -> list:
    """Solve a manufactured problem at each grid size to a residual of
    1e-10 and report errors.

    1D uses u(x) = x on the cut interval (reproduced exactly by the linear
    elements, so errors sit at roundoff); 2D uses u = sin(pi x) sin(pi y) on
    a pure-Dirichlet catalog domain, the only kind ExperimentConfig admits.
    Errors are measured at the nodes strictly inside the domain: ghost
    values approximate an extension of the solution rather than the
    solution itself, so their deviation from the manufactured formula says
    nothing about the order of the method.
    """
    rows = [_accuracy_point(config, n) for n in config.ns]
    for prev, cur in zip(rows, rows[1:]):
        cur.linf_ratio = prev.linf_error / cur.linf_error
        cur.l2_ratio = prev.l2_error / cur.l2_error
    return rows


def _accuracy_point(config: ExperimentConfig, n: int) -> AccuracyRow:
    """The nodal errors at grid size n; raise AccuracyStudyError when the
    cycles diverge, stall or run out before the target residual."""
    h = _artificial_extent(config.domain) / n
    position = (config.theta1 if config.dimension == 1 else config.theta
                or (None,))[0]
    system = _system(config, n, position, config.gamma[0], manufactured=True)
    hierarchy = mg.build_hierarchy(system, _cycle_config(config, n,
                                                         config.eta[0]))
    target = 1e-10
    u, trace = mg.solve(hierarchy, system.F, max_iters=200,
                        target_residual=target)
    final = trace.residual_norms[-1]
    if trace.diverged or trace.stalled or not final <= target:
        state = ("diverged" if trace.diverged else "stalled" if trace.stalled
                 else "did not reach the target")
        raise AccuracyStudyError(
            f"n = {n}: the solve {state}: {trace.iterations} cycles, final "
            f"residual {final:.3e} against a target of {target:g}")
    if config.dimension == 1:
        err, weight = np.abs(u - h * np.arange(n + 1)), h
    else:
        X, Y = system.grid.node_coordinates()
        err = np.abs(u - _exact(X, Y))[system.field.values < 0.0]
        weight = h * h
    return AccuracyRow(domain=config.domain, dim=config.dimension, n=n, h=h,
                       linf_error=float(err.max()),
                       l2_error=float(np.sqrt(weight * np.sum(err ** 2))))


def emit_results(rows: list, path: Union[str, Path]) -> Path:
    """Write rows as CSV under their type's header, one line per row."""
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.write_text("\n".join([type(rows[0]).header()]
                              + [row.csv_line() for row in rows]) + "\n")
    return path

"""Spans around the public calls of each ghostmg module, for the traced run.

The wrappers are installed from the benchmark's own code by replacing module
attributes (in every ghostmg module that imported them by name) and
``MgLevel`` methods, and removed again after each traced unit, so the
library itself carries no timing code.  Each span records the unit it ran
in, its name, the multigrid level (methods only), its parent span, and its
start and end.  Spans stay in memory until the run writes them out; a span's
self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

from ghostmg import assembly, cli, geometry, linalg, multigrid, one_dim
from ghostmg import stabilization

#: Functions wrapped in a span, by module and attribute.
SPANNED = (
    (geometry, "snap_nodes"),
    (geometry, "classify_cells"),
    (geometry, "extract_cut_geometry"),
    (stabilization, "build_stabilization"),
    (assembly, "assemble"),
    (one_dim, "assemble_1d"),
    (multigrid, "build_hierarchy"),
    (multigrid, "build_hierarchy_1d"),
    (linalg, "rap_product"),
    (multigrid, "solve"),
    (multigrid, "_cycle"),
    (cli, "main"),
)
#: Per-cut-cell kernels, called thousands of times: counted, not spanned.
COUNTED = (
    (linalg, "generalized_eig_max"),
    (assembly, "q1_cell_stiffness"),
)
#: MgLevel methods, spanned and tagged with the level index.
LEVEL_METHODS = ("smooth", "residual", "coarse_solve", "prepare_smoothers",
                 "prepare_coarse_solver")
#: Per-level metrics are reported for L0 (finest) up to this many levels.
LEVELS = 8
#: Extra cut sweeps in the smoother probe.
PROBE_ETA = 4

_TOTAL = {
    "geometry.extract_cut_geometry": "geometry.extract_s",
    "stabilization.build_stabilization": "stabilization.build_s",
    "assembly.assemble": "assembly.assemble_s",
    "one_dim.assemble_1d": "one_dim.assemble_s",
    "multigrid.build_hierarchy": "multigrid.build_hierarchy_s",
    "multigrid.build_hierarchy_1d": "multigrid.build_hierarchy_s",
    "MgLevel.prepare_coarse_solver": "multigrid.coarse_factor_s",
    "MgLevel.residual": "multigrid.residual_s",
    "MgLevel.coarse_solve": "multigrid.coarse_solve_s",
}
_SELF = {
    "assembly.assemble": "assembly.self_s",
    "multigrid._cycle": "multigrid.cycle_self_s",
    "cli.main": "experiments.self_s",
}
_PER_LEVEL = {
    "MgLevel.smooth": "multigrid.smooth_s",
    "MgLevel.prepare_smoothers": "multigrid.smoother_factor_s",
}
# Fine-level geometry calls versus the coarse-level re-classification done
# while building a hierarchy.
_GEOMETRY = {
    "geometry.snap_nodes": "geometry.snap_s",
    "geometry.classify_cells": "geometry.classify_s",
}
_PER_LEVEL_NAMES = (
    ("multigrid.free", "count"), ("multigrid.cut", "count"),
    ("multigrid.nnz", "count"), ("linalg.rap_s", "s"),
    ("multigrid.smoother_factor_s", "s"), ("multigrid.smooth_s", "s"),
    ("multigrid.full_sweep_ms", "ms"), ("multigrid.cut_sweep_ms", "ms"),
    ("multigrid.transfer_ms", "ms"),
)
_GLOBAL_NAMES = (
    ("geometry.snap_s", "s"), ("geometry.classify_s", "s"),
    ("geometry.extract_s", "s"), ("geometry.cut_cells", "count"),
    ("stabilization.build_s", "s"), ("stabilization.eig_solves", "count"),
    ("stabilization.dirichlet_cells", "count"),
    ("assembly.assemble_s", "s"), ("assembly.self_s", "s"),
    ("assembly.stiffness_calls", "count"),
    ("assembly.stiffness_per_cut", "ratio"), ("assembly.nodes", "count"),
    ("assembly.free_share", "ratio"), ("assembly.nnz", "count"),
    ("one_dim.assemble_s", "s"),
    ("multigrid.build_hierarchy_s", "s"), ("multigrid.reclassify_s", "s"),
    ("multigrid.coarse_factor_s", "s"), ("multigrid.levels", "count"),
    ("multigrid.residual_s", "s"), ("multigrid.coarse_solve_s", "s"),
    ("multigrid.cycle_self_s", "s"), ("multigrid.cycles", "count"),
    ("multigrid.rho_mean", "ratio"), ("experiments.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = list(_GLOBAL_NAMES)
    for base, unit in _PER_LEVEL_NAMES:
        names.extend((f"{base}.L{k}", unit) for k in range(LEVELS))
    return names


class Tracer:
    """In-memory span recorder plus the counts taken at the same calls."""

    def __init__(self):
        self.spans: list = []   # [unit, name, level, parent, start, end]
        self._stack: list = []
        self.calls: dict = defaultdict(int)
        self.sizes: dict = defaultdict(float)
        self.hierarchy = None
        self.unit = -1
        self._patches: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, level: bool = False, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [self.unit, name, args[0].index if level else -1,
                      stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_extract(self, cut_cells):
        self.sizes["geometry.cut_cells"] += len(cut_cells)

    def _on_stabilization(self, field):
        self.sizes["stabilization.dirichlet_cells"] += len(field.C)

    def _on_assemble(self, system):
        self.sizes["assembly.nodes"] = system.A.shape[0]
        self.sizes["assembly.free_share"] = (
            np.count_nonzero(system.free_dofs) / system.A.shape[0])
        self.sizes["assembly.nnz"] = system.A.nnz

    def _on_hierarchy(self, hierarchy):
        self.hierarchy = hierarchy

    def _on_solve(self, result):
        trace = result[1]
        self.sizes["solves"] += 1
        self.sizes["multigrid.cycles"] += trace.iterations
        self.sizes["multigrid.rho_mean"] += float(np.mean(trace.rho_per_iter))

    def _install(self):
        hooks = {
            "geometry.extract_cut_geometry": self._on_extract,
            "stabilization.build_stabilization": self._on_stabilization,
            "assembly.assemble": self._on_assemble,
            "multigrid.build_hierarchy": self._on_hierarchy,
            "multigrid.build_hierarchy_1d": self._on_hierarchy,
            "multigrid.solve": self._on_solve,
        }
        replace = {}
        for module, attr in SPANNED + COUNTED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            replace[id(fn)] = (fn, self._counter(name, fn)
                               if (module, attr) in COUNTED
                               else self._span(name, fn,
                                               on_return=hooks.get(name)))
        # Modules that did `from ghostmg.x import f` hold their own binding.
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ghostmg" or key.startswith("ghostmg.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if callable(value) and id(value) in replace \
                        and replace[id(value)][0] is value:
                    self._patches.append((module, key, value))
                    setattr(module, key, replace[id(value)][1])
        for method in LEVEL_METHODS:
            fn = vars(multigrid.MgLevel)[method]
            self._patches.append((multigrid.MgLevel, method, fn))
            setattr(multigrid.MgLevel, method,
                    self._span(f"MgLevel.{method}", fn, level=True))

    def _uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    @contextlib.contextmanager
    def active(self, unit: int):
        """Trace the calls made inside the block as unit `unit`."""
        self.unit = unit
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, units: int, snapshots: list,
                      overhead_s: float) -> dict:
        """Per-layer metrics, times and counts per traced unit; `snapshots`
        holds per-unit level counts and probe timings, reported as medians."""
        spans = self.spans
        child = np.zeros(len(spans))
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[5] - rec[4]
        out = {name: 0.0 for name, _ in layer_metric_names()}
        rap_seen: dict = defaultdict(int)
        for i, (_, name, level, parent, start, end) in enumerate(spans):
            dur = end - start
            parent_name = spans[parent][1] if parent >= 0 else ""
            if name in _TOTAL:
                out[_TOTAL[name]] += dur
            if name in _SELF:
                out[_SELF[name]] += dur - child[i]
            if name in _PER_LEVEL and level < LEVELS:
                out[f"{_PER_LEVEL[name]}.L{level}"] += dur
            if name in _GEOMETRY:
                key = ("multigrid.reclassify_s"
                       if parent_name.startswith("multigrid.build_hierarchy")
                       else _GEOMETRY[name])
                out[key] += dur
            if name == "linalg.rap_product":
                level = rap_seen[parent]
                rap_seen[parent] += 1
                if level < LEVELS:
                    out[f"linalg.rap_s.L{level}"] += dur
        for key in out:
            out[key] /= units
        sizes = self.sizes
        out["geometry.cut_cells"] = sizes["geometry.cut_cells"] / units
        out["stabilization.dirichlet_cells"] = (
            sizes["stabilization.dirichlet_cells"] / units)
        out["stabilization.eig_solves"] = (
            self.calls["linalg.generalized_eig_max"] / units)
        out["assembly.stiffness_calls"] = (
            self.calls["assembly.q1_cell_stiffness"] / units)
        if sizes["geometry.cut_cells"]:
            out["assembly.stiffness_per_cut"] = (
                self.calls["assembly.q1_cell_stiffness"]
                / sizes["geometry.cut_cells"])
        for key in ("assembly.nodes", "assembly.free_share", "assembly.nnz"):
            out[key] = float(sizes[key])
        if sizes["solves"]:
            out["multigrid.cycles"] = sizes["multigrid.cycles"] / sizes["solves"]
            out["multigrid.rho_mean"] = (sizes["multigrid.rho_mean"]
                                         / sizes["solves"])
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = len(spans) / units
        for key, values in _merge(snapshots).items():
            out[key] = float(np.median(values))
        return out

    def take_level_counts(self) -> tuple:
        """Sizes of the last hierarchy built, then drop it; returns
        (counts, hierarchy) so the caller can probe it before release."""
        hierarchy, self.hierarchy = self.hierarchy, None
        if hierarchy is None:
            return {}, None
        counts = {"multigrid.levels": float(len(hierarchy.levels))}
        for level in hierarchy.levels[:LEVELS]:
            k = level.index
            counts[f"multigrid.free.L{k}"] = float(np.count_nonzero(level.free))
            counts[f"multigrid.cut.L{k}"] = float(np.count_nonzero(level.cut))
            counts[f"multigrid.nnz.L{k}"] = float(level.A.nnz)
        return counts, hierarchy

    def dump(self, path, header: dict):
        """Write every span, gzipped JSON, with the run's header."""
        payload = dict(header, columns=["unit", "name", "level", "parent",
                                        "start", "end"], spans=self.spans)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _merge(dicts: list) -> dict:
    merged: dict = defaultdict(list)
    for d in dicts:
        for key, value in d.items():
            merged[key].append(value)
    return merged


def _median_ms(fn, budget_s: float = 0.05, min_reps: int = 5) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if len(times) >= 200:
            break
    return 1e3 * float(np.median(times))


def probe_levels(hierarchy, rng: np.random.Generator) -> dict:
    """Time one full smoothing sweep, one extra cut sweep and the two
    transfers on every smoothed level, outside any cycle.

    The cut sweep is (smooth with eta = 4 minus smooth with eta = 0) / 4.
    """
    out = {}
    for level in hierarchy.levels[:-1][:LEVELS]:
        k = level.index
        m = level.num_dofs
        u = rng.standard_normal(m)
        F = rng.standard_normal(m)
        full = _median_ms(lambda: level.smooth(u, F, 0))
        with_cut = _median_ms(lambda: level.smooth(u, F, PROBE_ETA))
        r = level.residual(u, F)
        uc = rng.standard_normal(level.R.shape[0])
        out[f"multigrid.full_sweep_ms.L{k}"] = full
        out[f"multigrid.cut_sweep_ms.L{k}"] = (with_cut - full) / PROBE_ETA
        out[f"multigrid.transfer_ms.L{k}"] = _median_ms(
            lambda: (level.R @ r, level.P @ uc))
    return out

"""Grid-transfer operators, level hierarchies, smoothing and cycles.

Restriction rows carry the shape-function refinement weights (1/2, 1, 1/2)
in 1D and their tensor product in 2D, and prolongation is exactly the
transpose.  Every level holds its operator, transfers and vectors on its
free DOFs only: a level's restriction is the refinement-weight matrix cut to
the fine free DOFs and to the coarse nodes they reach, which are the coarse
free DOFs, and coarse operators are Galerkin triple products.  Constrained
nodes (ghost exterior nodes, strongly eliminated nodes) appear only at the
API edge: ``solve`` and ``mg_cycle`` take and return vectors on the whole
background grid, with constrained entries equal to F.  One builder serves
the 1D interval and the 2D systems.  Smoothing is Gauss-Seidel over the
free DOFs, optionally followed by extra sweeps on the cut-cell DOFs only,
and the coarsest level is solved exactly.

In 2D, Gauss-Seidel runs over four colour classes, (i % 2) + 2 (j % 2) of
the grid node: the 9-point stencil, which Galerkin products of Q1 keep,
couples no two nodes of one class, so each class is one row-block product
and a diagonal scale.  Each 2D level numbers its free DOFs class by class,
cut DOFs first within a class (``dof_order``), so every class step of the
full sweep is one contiguous row range of A and every cut-sweep step that
range's leading part: a step works on slice views of u, F and A's CSR
arrays, with no gathers, scatters or copies of A.  R, P and the Galerkin
operators are built in this numbering; only ``solve`` and ``mg_cycle`` map
to and from grid order.  In 1D the DOFs keep node order, one
lexicographic class solved by its lower triangle.  Two colours in 1D
(red-black) would turn the V(2,1) cycle into a near-direct solve, at
theta1 = 0.99 and n = 1024 from a factor of 0.085 to 0.017 (eta = 0) and
0.00018 (eta = 4), and so erase the 1D theta1 study.

Each smoothing step, residual and transfer is one call of the CSR kernel
(``matvec_into``) into the level's workspace: a scratch vector of its size,
plus the iterate and right-hand side of each coarse level, all allocated
once by ``build_hierarchy``.  A cycle therefore allocates nothing on the
smoothed levels, and computes what the plain ``A @ u`` expressions would,
bit for bit.

The number of levels is set by ``coarsest_n``: coarsening halves n until it
reaches that size, so the finest n must equal ``coarsest_n * 2**L`` for some
L >= 1.  A two-grid method is a hierarchy built with ``coarsest_n = n // 2``;
deeper hierarchies run V- or W-cycles depending on ``gamma_star``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ghostmg.assembly import AssembledSystem
from ghostmg.geometry import CartesianGrid
from ghostmg.linalg import (NotSPDError, canonical_csr, matvec_into,
                            rap_product)
from ghostmg.one_dim import OneDimSystem, split_residual_coarse

#: Number of consecutive growing-residual cycles before a run is flagged.
DIVERGENCE_PATIENCE = 5


def restriction_1d(n: int) -> sp.csr_matrix:
    """Restriction from n+1 fine nodes to n/2 + 1 coarse nodes.

    Row I holds weight 1 at fine node 2I and 1/2 at its fine neighbours, the
    coefficients of the coarse hat function in the fine basis; boundary rows
    lose the outside neighbour.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError(f"need an even number of cells >= 2, got {n}")
    nc = n // 2
    odd = np.arange(1, n, 2)
    rows = np.concatenate([np.arange(nc + 1), odd // 2, odd // 2 + 1])
    cols = np.concatenate([np.arange(0, n + 1, 2), odd, odd])
    vals = np.repeat([1.0, 0.5], [nc + 1, 2 * nc])
    R = sp.csr_matrix((vals, (rows, cols)), shape=(nc + 1, n + 1))
    return canonical_csr(R)


def restriction_2d(n: int) -> sp.csr_matrix:
    """Tensor-product restriction for the flat node index k = i + j (n + 1)."""
    R1 = restriction_1d(n)
    return canonical_csr(sp.kron(R1, R1, format="csr"))


@dataclass
class CycleConfig:
    """Cycle shape and smoothing parameters.

    nu1 / nu2 pre- and post-smoothing Gauss-Seidel sweeps; eta extra cut-DOF
    sweeps appended to every full sweep; gamma_star recursion count
    (1 = V-cycle, 2 = W-cycle); coarsest_n the grid size solved exactly.
    """

    nu1: int = 2
    nu2: int = 1
    eta: int = 0
    gamma_star: int = 1
    coarsest_n: int = 8

    def __post_init__(self):
        if self.gamma_star not in (1, 2):
            raise ValueError(f"gamma_star must be 1 (V-cycle) or 2 (W-cycle), "
                             f"got {self.gamma_star}")
        if self.nu1 < 0 or self.nu2 < 0 or self.eta < 0:
            raise ValueError("sweep counts must be nonnegative")
        if self.coarsest_n < 1:
            raise ValueError("coarsest_n must be at least 1")


def _validate_depth(n: int, coarsest_n: int):
    """The finest n must be coarsest_n * 2**L for some L >= 1."""
    ratio = n // coarsest_n
    if n % coarsest_n or ratio < 2 or ratio & (ratio - 1):
        raise ValueError(
            f"finest n = {n} is not coarsest_n = {coarsest_n} times a power "
            "of two >= 2, so no nested hierarchy reaches the coarsest size")


def _triangle_solve(A: sp.csr_matrix) -> Callable:
    """Solve with tril(A) of a bitwise symmetric canonical CSR matrix, one
    forward Gauss-Seidel step.  tril(A) is taken as CSC: the CSR arrays of
    triu(A) are the CSC arrays of tril(A^T) = tril(A).

    The factor is SuperLU's complete LU of the triangle, L = tril(A) D^-1
    and U = D, made by its ILU driver with nothing dropped (drop_tol = 0)
    and a workspace of fill_factor = 1 times the triangle, which suffices
    since a triangle has no fill.  Its factors and solves are bitwise those
    of splu, which sizes its workspace by a fixed fill estimate and keeps
    it with the factor: 22 MB at n = 16384 against 1.3 MB here.  Reused
    after free, those workspaces made the peak memory of a 1D sweep vary by
    10 MB from run to run."""
    upper = A.indices >= np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    indptr = np.concatenate(([0], np.cumsum(upper)))[A.indptr]
    tril = sp.csc_matrix((A.data[upper], A.indices[upper], indptr),
                         shape=A.shape)
    return spla.spilu(tril, drop_tol=0.0, fill_factor=1.0, drop_rule="basic",
                      permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True, "Equil": False,
                               "RowPerm": "NOROWPERM",
                               "ILU_MILU": "SILU"}).solve


def _row_range(A: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows start:stop of a CSR matrix as views of its data and indices.
    The arrays are set after construction: the constructor copies a view
    that is much smaller than the array it looks into."""
    lo, hi = A.indptr[start], A.indptr[stop]
    rows = sp.csr_matrix((stop - start, A.shape[1]), dtype=A.dtype)
    rows.data, rows.indices = A.data[lo:hi], A.indices[lo:hi]
    rows.indptr = A.indptr[start:stop + 1] - lo
    return rows


def dof_order(free: np.ndarray, cut: np.ndarray,
              grid: CartesianGrid) -> np.ndarray:
    """Grid node of each DOF of a level: the free nodes, in 2D sorted by
    colour class (i % 2) + 2 (j % 2), cut nodes first within a class and
    node order after that; in 1D in node order."""
    nodes = np.flatnonzero(free)
    if grid.dim == 1:
        return nodes
    j, i = np.divmod(nodes, grid.n + 1)
    # A stable sort of small integers is a radix sort.
    key = 2 * (i % 2 + 2 * (j % 2)) + ~cut[nodes]
    return nodes[np.argsort(key.astype(np.int8), kind="stable")]


class MgLevel:
    """One level: its operator and transfers on its free DOFs, numbered as
    in `order`, which must be dof_order of the masks, the free and cut masks
    over its grid's nodes, its solver caches and its cycle workspace.  The
    operator must be bitwise symmetric, as assembled and Galerkin operators
    are.  `scratch` holds every intermediate vector of the level's steps,
    residual and prolongation; `iterate` and `rhs`, set on coarse levels
    only, are the level's u and F within a cycle."""

    def __init__(self, A: sp.csr_matrix, free: np.ndarray, cut: np.ndarray,
                 grid: CartesianGrid, order: np.ndarray, index: int = 0):
        self.A = canonical_csr(A)
        self.scratch = np.empty(self.num_dofs)
        self.iterate: Optional[np.ndarray] = None
        self.rhs: Optional[np.ndarray] = None
        self.free = np.asarray(free, dtype=bool)
        self.cut = np.asarray(cut, dtype=bool) & self.free
        self.grid = grid
        self.index = index
        self.order = order
        self.R: Optional[sp.csr_matrix] = None
        self.P: Optional[sp.csr_matrix] = None
        self.idx_cut = np.flatnonzero(self.cut[self.order])
        self._free_steps: list = []
        self._cut_steps: list = []
        self._coarse_solve = None

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def num_dofs(self) -> int:
        return self.A.shape[0]

    def residual(self, u: np.ndarray, F: np.ndarray) -> np.ndarray:
        """F - A u, in the level's scratch vector, which the next step,
        residual or prolongation on this level overwrites."""
        r = matvec_into(self.A, u, self.scratch)
        return np.subtract(F, r, out=r)

    # -- smoothing -----------------------------------------------------------

    def colours(self) -> np.ndarray:
        """Colour class (i % 2) + 2 (j % 2) of the grid node of each DOF of
        a 2D level: the 9-point stencil couples no two nodes of one class."""
        j, i = np.divmod(self.order, self.n + 1)
        return i % 2 + 2 * (j % 2)

    def _colour_steps(self, dinv: np.ndarray) -> tuple:
        """Steps of the full and of the cut sweep, one per colour class in
        class order, each a scale by dinv = 1 / diag on a contiguous row
        range, in place in the step's scratch slice.  Raises ValueError if
        a class couples to itself, which an operator wider than the 9-point
        stencil would."""
        colours = self.colours()
        bounds = np.searchsorted(colours, np.arange(5))
        ncut = np.bincount(colours[self.idx_cut], minlength=4)

        def step(start, stop):
            y = self.scratch[:stop - start]
            return (slice(start, stop), _row_range(self.A, start, stop), y,
                    partial(np.multiply, dinv[start:stop], out=y))

        full, cut = [], []
        for c, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            # Each row stores its own diagonal entry, since none is zero.
            inside = self.A.indices[self.A.indptr[start]:self.A.indptr[stop]]
            if np.count_nonzero((inside >= start) & (inside < stop)) \
                    != stop - start:
                raise ValueError(
                    f"level {self.index}: colour class {c} couples to "
                    "itself; the operator is wider than the 9-point stencil")
            full.append(step(start, stop))
            if ncut[c]:
                cut.append(step(start, start + ncut[c]))
        return full, cut

    def prepare_smoothers(self):
        diag = self.A.diagonal()
        if np.any(diag == 0.0):
            raise ZeroDivisionError(
                "smoother hit a zero diagonal; the operator is missing a "
                "stabilization contribution")
        if self.grid.dim == 2:
            self._free_steps, self._cut_steps = self._colour_steps(1.0 / diag)
            return
        # 1D: one lexicographic step, solved by the lower triangle.
        self._free_steps = [(slice(None), self.A, self.scratch,
                             _triangle_solve(self.A))]
        if self.idx_cut.size:
            rows = self.A[self.idx_cut]
            self._cut_steps = [(self.idx_cut, rows,
                                self.scratch[:self.idx_cut.size],
                                _triangle_solve(
                                    canonical_csr(rows[:, self.idx_cut])))]

    def smooth(self, u: np.ndarray, F: np.ndarray, eta: int):
        """One full sweep plus eta extra cut-DOF sweeps, in place.  A step
        (sel, rows, y, solve) updates u[sel] by solve(F[sel] - rows u), the
        residual formed in y, its scratch slice."""
        for sel, rows, y, solve in self._free_steps + eta * self._cut_steps:
            matvec_into(rows, u, y)
            np.subtract(F[sel], y, out=y)
            u[sel] += solve(y)

    # -- exact coarsest solve ------------------------------------------------

    def prepare_coarse_solver(self):
        """Factor A by sparse LU with diagonal pivots only, which for a
        symmetric A is its LDL^T: A is positive definite exactly when the
        row and column orderings agree and every pivot, the diagonal of U,
        is positive."""
        try:
            lu = spla.splu(self.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            spd = (np.array_equal(lu.perm_r, lu.perm_c)
                   and bool(np.all(lu.U.diagonal() > 0.0)))
        except RuntimeError:  # exactly singular
            spd = False
        if not spd:
            raise NotSPDError(
                "coarsest operator is not positive definite; a penalty "
                "below the trace constant (gamma <= 1) can cause this")
        self._coarse_solve = lu.solve

    def coarse_solve(self, F: np.ndarray) -> np.ndarray:
        return self._coarse_solve(F)


@dataclass
class Hierarchy:
    """Prepared multigrid levels plus the cycle configuration; setup_ms is
    the wall time `build_hierarchy` took to build and prepare them."""

    levels: list
    config: CycleConfig
    setup_ms: float = 0.0

    @property
    def finest(self) -> MgLevel:
        return self.levels[0]


def _finalize(levels: list, config: CycleConfig) -> Hierarchy:
    for level in levels[:-1]:
        level.prepare_smoothers()
    for level in levels[1:]:
        level.iterate = np.empty(level.num_dofs)
        level.rhs = np.empty(level.num_dofs)
    levels[-1].prepare_coarse_solver()
    return Hierarchy(levels=levels, config=config)


def _symmetrized(A: sp.csr_matrix) -> sp.csr_matrix:
    """Average away the one-ulp asymmetry of a floating-point triple product
    whose exact value is symmetric (P = R^T and A = A^T)."""
    return canonical_csr(0.5 * (A + A.T))


def build_hierarchy(system: Union[AssembledSystem, OneDimSystem],
                    config: CycleConfig) -> Hierarchy:
    """Hierarchy for an assembled 1D or 2D system.

    Both system types supply A on their grid's nodes, the free and cut
    masks there, and cut_mask(grid) for any coarser grid.  A level's
    restriction is the refinement-weight matrix cut to the fine
    free DOFs (columns) and to the coarse nodes they reach (rows), which are
    the coarse free DOFs, both numbered by dof_order; coarse operators are
    Galerkin products.  Coarse cut masks, which only steer the extra
    smoothing sweeps and the numbering, come from the system's cut_mask on
    each coarser grid.
    """
    start = time.perf_counter()
    grid = system.grid
    _validate_depth(grid.n, config.coarsest_n)
    restriction = restriction_1d if grid.dim == 1 else restriction_2d
    free, cut = system.free_dofs, system.cut_dofs
    order = dof_order(free, cut, grid)
    levels = [MgLevel(system.A[order][:, order], free, cut, grid, order)]
    while levels[-1].n > config.coarsest_n:
        fine = levels[-1]
        R = restriction(fine.n)[:, fine.order]
        free_c = np.diff(R.indptr) > 0
        grid_c = fine.grid.coarsen()
        cut_c = system.cut_mask(grid_c)
        order_c = dof_order(free_c, cut_c, grid_c)
        fine.R = canonical_csr(R[order_c])
        fine.P = canonical_csr(fine.R.T)
        A_c = _symmetrized(rap_product(fine.R, fine.A, fine.P))
        levels.append(MgLevel(A_c, free_c, cut_c, grid_c, order_c,
                              index=len(levels)))
    hierarchy = _finalize(levels, config)
    hierarchy.setup_ms = 1e3 * (time.perf_counter() - start)
    return hierarchy


def _cycle(levels: list, k: int, u: np.ndarray, F: np.ndarray,
           config: CycleConfig, gamma_star: int):
    """One multigrid cycle at level k, updating u in place.  The coarse
    problem lives in level k+1's iterate and rhs; the prolongation is formed
    in level k's scratch before it is added, as u += P u_c would."""
    level = levels[k]
    if k == len(levels) - 1:
        u[:] = level.coarse_solve(F)
        return
    for _ in range(config.nu1):
        level.smooth(u, F, config.eta)
    coarse = levels[k + 1]
    matvec_into(level.R, level.residual(u, F), coarse.rhs)
    coarse.iterate.fill(0.0)
    for _ in range(gamma_star):
        _cycle(levels, k + 1, coarse.iterate, coarse.rhs, config, gamma_star)
    u += matvec_into(level.P, coarse.iterate, level.scratch)
    for _ in range(config.nu2):
        level.smooth(u, F, config.eta)


def _on_grid(F: np.ndarray, order: np.ndarray,
             u_free: np.ndarray) -> np.ndarray:
    """Full-grid iterate: u_free at the grid nodes `order`, F elsewhere."""
    u = np.array(F, dtype=float, copy=True)
    u[order] = u_free
    return u


def mg_cycle(hierarchy: Hierarchy, F: np.ndarray, u: np.ndarray,
             gamma_star: Optional[int] = None) -> np.ndarray:
    """One recursive multigrid cycle (gamma_star 1 = V, 2 = W) on full-grid
    vectors; returns a new iterate whose constrained entries equal F."""
    if len(hierarchy.levels) < 2:
        raise ValueError("a cycle needs at least 2 levels")
    if gamma_star is None:
        gamma_star = hierarchy.config.gamma_star
    if gamma_star not in (1, 2):
        raise ValueError(f"gamma_star must be 1 or 2, got {gamma_star}")
    order = hierarchy.finest.order
    u_free = np.asarray(u, dtype=float)[order]
    _cycle(hierarchy.levels, 0, u_free, F[order], hierarchy.config,
           gamma_star)
    return _on_grid(F, order, u_free)


@dataclass
class ConvergenceTrace:
    """Residual history of a multigrid run.

    residual_norms[m] is the max-norm of the free-DOF residual after m
    cycles; rho_per_iter[m - 1] = residual_norms[m] / residual_norms[m - 1]
    is the per-cycle convergence factor.  diverged flags a run whose
    residual grew for DIVERGENCE_PATIENCE consecutive cycles.
    """

    u: np.ndarray
    residual_norms: np.ndarray
    rho_per_iter: np.ndarray
    wall_ms: float
    diverged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.rho_per_iter)

    def rho_mean(self, first: int, last: int) -> float:
        """Average convergence factor over cycles first..last (1-based,
        inclusive)."""
        if not 1 <= first <= last <= len(self.rho_per_iter):
            raise ValueError(
                f"window {first}..{last} outside the {len(self.rho_per_iter)} "
                "recorded cycles")
        return float(np.mean(self.rho_per_iter[first - 1:last]))


def solve(hierarchy: Hierarchy, F: np.ndarray,
          u0: Optional[np.ndarray] = None, max_iters: int = 30,
          target_residual: Optional[float] = None
          ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Run repeated cycles, recording the free-DOF residual max-norm.

    F and the returned u live on the whole background grid; constrained
    DOFs take their right-hand side values and are never iterated.  With
    target_residual set, iteration stops once the residual norm is at or
    below it, before the first cycle if u0 already meets it.  A residual
    that grows for DIVERGENCE_PATIENCE consecutive cycles flags the trace as
    diverged (with a warning) but the run is preserved.
    """
    levels = hierarchy.levels
    level0 = levels[0]
    order = level0.order
    F_free = F[order]
    u_free = np.zeros(level0.num_dofs) if u0 is None \
        else np.asarray(u0, dtype=float)[order]
    gamma_star = hierarchy.config.gamma_star

    def residual_norm() -> float:
        r = level0.residual(u_free, F_free)
        return float(np.max(np.abs(r, out=r), initial=0.0))

    start = time.perf_counter()
    norms = [residual_norm()]
    rhos = []
    growing = 0
    diverged = False
    for _ in range(max_iters):
        if target_residual is not None and norms[-1] <= target_residual:
            break
        _cycle(levels, 0, u_free, F_free, hierarchy.config, gamma_star)
        rn = residual_norm()
        rhos.append(rn / norms[-1] if norms[-1] > 0.0 else 0.0)
        norms.append(rn)
        growing = growing + 1 if rhos[-1] > 1.0 else 0
        if growing >= DIVERGENCE_PATIENCE and not diverged:
            diverged = True
            warnings.warn(
                f"residual grew for {DIVERGENCE_PATIENCE} consecutive "
                "cycles; continuing and keeping the trace", RuntimeWarning)
    wall_ms = 1e3 * (time.perf_counter() - start)
    u = _on_grid(F, order, u_free)
    trace = ConvergenceTrace(u=u, residual_norms=np.array(norms),
                             rho_per_iter=np.array(rhos), wall_ms=wall_ms,
                             diverged=diverged)
    return u, trace


def verify_splitting_equivalence(system: OneDimSystem, u: np.ndarray,
                                 restrict: Optional[sp.csr_matrix] = None
                                 ) -> float:
    """Max abs difference between restricting the full fine residual and
    rebuilding its boundary pieces directly on the coarse grid.

    The interval system's residual splits into an interior part plus
    Dirichlet-flux, penalty and Neumann parts proportional to the boundary
    data residuals; restriction preserves each piece, so the difference is
    zero to roundoff for every iterate.
    """
    if restrict is None:
        restrict = restriction_1d(system.n)
    r_fine = system.F - system.A @ u
    direct = restrict @ r_fine
    split = split_residual_coarse(system, u, restrict)
    return float(np.max(np.abs(direct - split)))

"""Grid-transfer operators, level hierarchies, smoothing and cycles.

Restriction rows carry the shape-function refinement weights (1/2, 1, 1/2)
in 1D and their tensor product in 2D, and prolongation is exactly the
transpose.  Every level holds its operator, transfers and vectors on its
free DOFs only: a level's prolongation takes each fine free DOF from its
coarse parents with weights 1, 1/2 or 1/4, and those parents are the coarse
free DOFs.  The coarse cut DOFs are, by the same rule, the parents of the
fine cut DOFs, so the hierarchy reads no geometry: no level set is
evaluated below the finest grid.

On nested Q1 spaces the Galerkin product R A P is the coarse assembly of
the fine cell blocks pooled 2x2 (2 in 1D) through the local bilinear
prolongation.  So each level is its cells (`assembly.PenaltyCells`): one
list of those that are not full, each with its block K0 without the
penalty and, on a penalty cell, the trace mass M of its weak Dirichlet
penalty lam M.  `_coarse_penalty` pools the list in one pass, and
`PenaltyCells.operator`, which assembles every level's operator, the finest
too, builds a coarse level from K0_c + lam_c M_c with the level's own
penalty lam_c, sized from the pooled cell's trace constant by the one rule
of every level, `stabilization.penalties`: gamma times the constant,
floored by the largest penalty the cell pools over `stabilization.KAPPA`,
and under the global rule the largest of a level's penalty cells.  A
Galerkin level would inherit the finest penalty, 102x to 708x each 1D
coarse level's tuned value, and the deep V-cycle would degrade with depth.

Constrained nodes (ghost exterior nodes, strong Dirichlet nodes) appear
only at the API edge: ``solve`` takes and returns vectors on the whole
background grid, with constrained entries equal to F, and one cycle is
``solve`` with ``max_iters=1``.  One builder serves the 1D interval and
the 2D systems, and takes their finest operator as is.  Smoothing is
Gauss-Seidel over the free DOFs, optionally followed by extra sweeps on the
cut-cell DOFs only, and the coarsest level is solved exactly.

In 2D, Gauss-Seidel runs over four colour classes, (i % 2) + 2 (j % 2) of
the grid node: the 9-point stencil, which the coarse operators of Q1 keep,
couples no two nodes of one class, so each class is one row-block product
and a diagonal scale.  Each 2D level numbers its free DOFs class by class,
cut DOFs first within a class, and keeps the numbering with its class
bounds and cut DOFs as one record (``assembly.number_dofs``), so every class
step of the full sweep is one contiguous row range of A and every cut-sweep
step that range's leading part: a step works on slice views of u, F and
A's CSR arrays, with no gathers, scatters or copies of A.  Every operator,
R and P is built in this numbering; only ``solve`` maps to and from grid
order.  In 1D the DOFs keep node order, one lexicographic class, and
the operator D + L + U is tridiagonal: the full step is the direct form
u = D^-1 (I + L D^-1)^-1 (F - U u), a unit-diagonal banded forward
substitution in the scratch that divides nowhere, then a multiply by the
stored 1 / D into u.  With the other DOFs held, eta cut sweeps are an
affine map of the cut DOFs, so 1D applies them in closed form: one
correction u[cut] += Q_eta (F - A u)[cut] by a matrix of the cut block made
once per eta (`_cut_sweeps`).
SuperLU factors only the coarsest level, in 1D as in 2D.  Two colours in 1D
(red-black) would turn the V(2,1) cycle into a near-direct solve, at
theta1 = 0.99 and n = 1024 from a factor of 0.085 to 0.017 (eta = 0) and
0.00018 (eta = 4), and so erase the 1D theta1 study.

Each step is one callable, step(u, F), made once by ``prepare_smoothers``
or, for the cut sweeps of each eta, at their first use.
Each 2D or cut step, residual and transfer is one call of the CSR kernel
(``matvec_into``) into the level's workspace: a scratch vector of its size,
plus the iterate and right-hand side of each coarse level, all allocated
once when the level is made.  A cycle therefore allocates nothing on the
smoothed levels, and computes what the plain sparse products would, bit
for bit.

The number of levels is set by ``coarsest_n``: coarsening halves n until it
reaches that size, so the finest n must equal ``coarsest_n * 2**L`` for some
L >= 1.  A two-grid method is a hierarchy built with ``coarsest_n = n // 2``;
deeper hierarchies run V- or W-cycles depending on ``gamma_star``.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtbsv

from ghostmg.assembly import AssembledSystem, Dofs, PenaltyCells, number_dofs
from ghostmg.geometry import CORNERS, CartesianGrid, corner_nodes
from ghostmg.linalg import NotSPDError, matvec_into
from ghostmg.one_dim import OneDimSystem
from ghostmg.stabilization import pencil_max, penalties

#: Number of consecutive growing-residual cycles before a run is flagged
#: diverged, and of cycles without a new lowest residual before a run with
#: a target stops as stalled.
DIVERGENCE_PATIENCE = 5


@dataclass
class CycleConfig:
    """Cycle shape and smoothing parameters.

    nu1 / nu2 pre- and post-smoothing Gauss-Seidel sweeps; eta extra cut-DOF
    sweeps appended to every full sweep, in 1D applied as their closed form,
    one correction of the cut DOFs; gamma_star recursion count
    (1 = V-cycle, 2 = W-cycle); coarsest_n the grid size solved exactly.
    """

    nu1: int = 2
    nu2: int = 1
    eta: int = 0
    gamma_star: int = 1
    coarsest_n: int = 8

    def __post_init__(self):
        for name in ("nu1", "nu2", "eta", "gamma_star", "coarsest_n"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _triangle_solve(diag: np.ndarray, sub: np.ndarray) -> Callable:
    """Solve with I + L D^-1, the unit lower factor of the triangle
    D + L = (I + L D^-1) D of diagonal diag and sub-diagonal sub: BLAS
    banded forward substitution (dtbsv) with a unit diagonal, dividing
    nowhere, in place in the vector it is given.  The band is
    Fortran-ordered, since f2py would copy a C-ordered one on every call."""
    band = np.zeros((2, diag.size), order="F")
    np.divide(sub, diag[:-1], out=band[1, :-1])
    return partial(dtbsv, 1, band, lower=1, diag=1, overwrite_x=1)


def _cut_sweeps(lower: np.ndarray, upper: np.ndarray, eta: int) -> np.ndarray:
    """Q for which u_c += Q (F - A u)_c is eta >= 1 lexicographic
    Gauss-Seidel sweeps on the cut block T + U, lower triangle T and strict
    upper U, with the other DOFs held: Q = sum over m < eta of G^m T^-1,
    G = -T^-1 U, summed as Q <- T^-1 + G Q from Q = T^-1."""
    solve = np.linalg.inv(lower)
    G, Q = solve @ -upper, solve
    for _ in range(eta - 1):
        Q = solve + G @ Q
    return Q


def _correction_step(rows: sp.csr_matrix, sel, y: np.ndarray,
                     solve: Callable) -> Callable:
    """The step u[sel] += solve(F[sel] - rows u), the residual formed in y."""
    def step(u, F):
        np.subtract(F[sel], matvec_into(rows, u, y), out=y)
        u[sel] += solve(y)
    return step


def _row_range(A: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows start:stop of a CSR matrix as views of its data and indices.
    The arrays are set after construction: the constructor copies a view
    that is much smaller than the array it looks into."""
    lo, hi = A.indptr[start], A.indptr[stop]
    rows = sp.csr_matrix((stop - start, A.shape[1]), dtype=A.dtype)
    rows.data, rows.indices = A.data[lo:hi], A.indices[lo:hi]
    rows.indptr = A.indptr[start:stop + 1] - lo
    return rows


def _rows(A: sp.csr_matrix, sel: np.ndarray) -> sp.csr_matrix:
    """Rows sel of a CSR matrix, gathered from its arrays and set after
    construction as in `_row_range`: scipy's indexing costs more."""
    count = A.indptr[sel + 1] - A.indptr[sel]
    rows = sp.csr_matrix((sel.size, A.shape[1]), dtype=A.dtype)
    rows.indptr = np.zeros(sel.size + 1, dtype=A.indptr.dtype)
    np.cumsum(count, out=rows.indptr[1:])
    at = np.repeat(A.indptr[sel] - rows.indptr[:-1], count) \
        + np.arange(rows.indptr[-1])
    rows.data, rows.indices = A.data[at], A.indices[at]
    return rows


class MgLevel:
    """Level `index` on `grid`, complete when made: its operator A on the
    free DOFs of `dofs` (`assembly.number_dofs`), its transfers P and
    R = P^T, which it forms, and smoother or, made without P, the coarsest
    level's factor; `smooth` or `coarse_solve` in the other role raises
    RuntimeError.  A, taken as is, must be canonical CSR and bitwise
    symmetric, as `PenaltyCells.operator` builds every level's, and N x N
    for its N DOFs, with P N x M for the M coarser DOFs, else ValueError.
    `scratch` holds every intermediate vector of its steps, residual and
    prolongation; `iterate` and `rhs`, below the finest level, are its u
    and F in a cycle.  `penalty` holds the cells the next level is pooled
    from."""

    def __init__(self, A: sp.csr_matrix, grid: CartesianGrid, dofs: Dofs,
                 index: int = 0, penalty: Optional[PenaltyCells] = None,
                 P: Optional[sp.csr_matrix] = None):
        if A.shape != (dofs.order.size,) * 2:
            raise ValueError(f"level {index}: operator of shape {A.shape} "
                             f"on {dofs.order.size} DOFs")
        if P is not None and P.shape[0] != A.shape[0]:
            raise ValueError(f"level {index}: P of shape {P.shape} on "
                             f"{A.shape[0]} DOFs")
        self.A, self.grid, self.dofs, self.index = A, grid, dofs, index
        self.R = None if P is None else P.T.tocsr()
        self.P, self.penalty = P, penalty
        self.scratch = np.empty(self.num_dofs)
        self.iterate = np.empty(self.num_dofs) if index else None
        self.rhs = np.empty(self.num_dofs) if index else None
        self._sweeps: dict = {}
        if P is None:
            self.prepare_coarse_solver()
        else:
            self.prepare_smoothers()

    @property
    def free(self) -> np.ndarray:
        return self.dofs.free

    @property
    def cut(self) -> np.ndarray:
        return self.dofs.cut

    @property
    def num_dofs(self) -> int:
        return self.A.shape[0]

    def residual(self, u: np.ndarray, F: np.ndarray) -> np.ndarray:
        """F - A u, in the level's scratch vector, which the next step,
        residual or prolongation on this level overwrites."""
        r = matvec_into(self.A, u, self.scratch)
        return np.subtract(F, r, out=r)

    # -- smoothing -----------------------------------------------------------

    def _colour_steps(self, dinv: np.ndarray) -> tuple:
        """Steps of the full and of the cut sweep, one per colour class in
        class order, each a scale by dinv = 1 / diag on a contiguous row
        range, its residual formed in the leading slice of the scratch.
        Raises ValueError if a class couples to itself, which an operator
        wider than the 9-point stencil would."""
        bounds = self.dofs.bounds
        ncut = np.diff(np.searchsorted(self.dofs.cut_at, bounds))

        def step(start, stop):
            y = self.scratch[:stop - start]
            return _correction_step(
                _row_range(self.A, start, stop), slice(start, stop), y,
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
                f"level {self.index}: smoother hit a zero diagonal; the "
                "operator is missing a stabilization contribution")
        dinv = 1.0 / diag
        if self.grid.dim == 2:
            self._free_steps, cut = self._colour_steps(dinv)
            self._cut_sweep = lambda eta: eta * cut
            return
        # 1D: one lexicographic step, solved by the lower triangle.
        below = self.A.indices < np.repeat(np.arange(-1, self.num_dofs - 1),
                                           np.diff(self.A.indptr))
        if below.any():
            raise ValueError(
                f"level {self.index}: the 1D operator has entries below its "
                "first sub-diagonal; the smoother needs a tridiagonal one")
        sub, sup, y = self.A.diagonal(-1), self.A.diagonal(1), self.scratch
        solve = _triangle_solve(diag, sub)

        def full(u, F):
            # Direct form: u = D^-1 (I + L D^-1)^-1 (F - U u), U u in y.
            np.multiply(sup, u[1:], out=y[:-1])
            y[-1] = 0.0
            np.multiply(solve(np.subtract(F, y, out=y)), dinv, out=u)

        self._free_steps, cut = [full], self.dofs.cut_at
        self._cut_sweep = lambda eta: []  # with no cut DOFs, eta adds none
        if cut.size:
            # The eta cut sweeps in closed form, one correction by Q_eta
            # (`_cut_sweeps`) on the cut block, which couples two cut DOFs
            # only where they are adjacent.
            near = np.diff(cut) == 1
            lower = np.diag(diag[cut]) \
                + np.diag(np.where(near, sub[cut[:-1]], 0.0), -1)
            upper = np.diag(np.where(near, sup[cut[:-1]], 0.0), 1)
            rows, r, out = _rows(self.A, cut), y[:cut.size], np.empty(cut.size)
            # Q.dot, since np.matmul allocates even with out=.
            self._cut_sweep = lambda eta: [_correction_step(
                rows, cut, r, partial(_cut_sweeps(lower, upper, eta).dot,
                                      out=out))] if eta else []

    def smooth(self, u: np.ndarray, F: np.ndarray, eta: int):
        """One full sweep plus eta extra cut-DOF sweeps, in place, in 1D
        as one closed-form correction; the steps are made at first use."""
        steps = self._sweeps.get(eta)
        if steps is None:
            if self.P is None:
                raise RuntimeError(f"level {self.index}: the coarsest level "
                                   "is solved exactly, not smoothed")
            steps = self._sweeps[eta] = self._free_steps + self._cut_sweep(eta)
        for step in steps:
            step(u, F)

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
            raise NotSPDError(f"level {self.index}: coarsest operator is not "
                              "positive definite; a penalty below the trace "
                              "constant (gamma <= 1) can cause this")
        self._coarse_solve = lu.solve

    def coarse_solve(self, F: np.ndarray) -> np.ndarray:
        if self.P is not None:
            raise RuntimeError(f"level {self.index}: only the coarsest level "
                               "is factored; this one is smoothed")
        return self._coarse_solve(F)


@dataclass
class Hierarchy:
    """Prepared multigrid levels plus the cycle configuration."""

    levels: list
    config: CycleConfig


@lru_cache(maxsize=None)
def _parent_steps(dim: int, nodes_per_side: int) -> tuple:
    """For a fine node of parity code c (bit d set where its coordinate
    along axis d is odd): its number of coarse parents, 2 to the power of
    the number of bits set in c, and, in row c, the node steps from its
    first parent to each parent, in increasing order and padded with
    zeros."""
    codes = np.arange(2 ** dim)
    count = 1 << np.count_nonzero(codes[:, None] >> np.arange(dim) & 1, axis=1)
    steps = np.zeros((codes.size, codes.size), dtype=np.int32)
    for c in codes:
        subsets = codes[codes & c == codes]
        steps[c, :subsets.size] = (subsets[:, None] >> np.arange(dim) & 1) \
            @ nodes_per_side ** np.arange(dim)
    return count.astype(np.int32), steps


def _transfers(dofs: Dofs, grid: CartesianGrid,
               grid_c: CartesianGrid) -> tuple:
    """P of the level of `dofs` on `grid` in its and the coarser level's
    DOF numbering, and the coarser level's DOFs.

    Each fine DOF interpolates from its 1, 2 or 4 coarse parents (1 or 2 in
    1D), the coarse nodes at x // 2 and (x + 1) // 2 along each axis, with
    weights 1, 1/2 and 1/4; those are the rows of P.  The coarse free DOFs
    are the parents of the fine DOFs, the coarse cut DOFs the parents of
    the fine cut DOFs.
    """
    dim, nps, ncs = grid.dim, grid.nodes_per_side, grid_c.nodes_per_side
    count_of, steps = _parent_steps(dim, ncs)
    rest, first, odd = dofs.order, 0, 0
    for d in range(dim):
        rest, x = np.divmod(rest, nps)
        first = first + (x >> 1) * ncs ** d
        odd = odd | (x & 1) << d
    count = count_of[odd]
    indptr = np.zeros(dofs.order.size + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    # Entry k of row r takes step k of the row's code from its first parent.
    parents = np.repeat(first, count) + steps.ravel()[
        np.repeat(steps.shape[1] * odd - indptr[:-1], count)
        + np.arange(indptr[-1])]
    free_c = np.zeros(grid_c.num_nodes, dtype=bool)
    free_c[parents] = True
    cut = dofs.cut_at
    cut_c = np.zeros(grid_c.num_nodes, dtype=bool)
    cut_c[(first[cut, None] + steps[odd[cut]])
          [np.arange(steps.shape[1]) < count[cut, None]]] = True
    dofs_c = number_dofs(free_c, cut_c, grid_c)
    P = sp.csr_matrix((np.repeat(1.0 / count, count), dofs_c.dof[parents],
                       indptr), shape=(dofs.order.size, dofs_c.order.size))
    P.sort_indices()
    return P, dofs_c


@lru_cache(maxsize=None)
def _child_prolongations(dim: int) -> tuple:
    """The offsets (m, dim), m = 2**dim, of the children of a cell, child c
    at offset c_d = (c >> d) & 1 along axis d, and P[c, a, A] (m, m, m): the
    bilinear function of coarse corner A at corner a of child c; corners in
    `geometry.CORNERS` order."""
    corners = CORNERS[dim]
    offsets = np.arange(2 ** dim)[:, None] >> np.arange(dim) & 1
    x = 0.5 * (offsets[:, None, :] + corners)[:, :, None, :]
    return offsets, np.prod(np.where(corners == 1, x, 1.0 - x), axis=-1)


def _coarse_penalty(penalty: PenaltyCells, free: np.ndarray,
                    n: int) -> PenaltyCells:
    """The cells of the next coarser grid, pooled 2x2 (2 in 1D) through the
    local prolongations P.

    A coarse cell is listed where a child is, or where full and inactive
    children meet.  Its K0, S, B and M sum P^T X P over its listed
    children, K0 and M masked to the free fine DOFs, as R is; K0 adds the
    reference stiffness of its other full children, and S, on a coarse cell
    with a penalty child, that of every full child.  Such a cell's penalty
    comes from the trace constant of (B, S) and the largest child penalty
    by `stabilization.penalties`, the rule of the finest level too.  The
    other coarse cells keep S, B, M and lam zero.
    """
    dim = penalty.cells.shape[1]
    m, half = 2 ** dim, n // 2
    flat, fine_flat = half ** np.arange(dim), n ** np.arange(dim)
    offsets, prolong = _child_prolongations(dim)
    pooled_ref = (prolong.transpose(0, 2, 1) @ penalty.reference @ prolong
                  ).reshape(m, m * m)

    def over_children(op, mask):
        # Axis by axis: one reduction over strided axes is many times slower.
        mask = mask.reshape((half, 2) * dim)
        for axis in range(2 * dim - 1, 0, -2):
            mask = op(*np.moveaxis(mask, axis, 0))
        return mask.ravel()

    full_c = over_children(np.logical_and, penalty.full)
    listed = over_children(np.logical_or, penalty.full) & ~full_c
    parent = (penalty.cells >> 1) @ flat
    listed[parent] = True
    coarse = np.flatnonzero(listed)
    cells = coarse[:, None] // flat % half
    children = (2 * cells[:, None, :] + offsets) @ fine_flat
    # Each fine cell is child `child` of coarse cell `at`; one batched
    # P^T X P pools its four matrices.
    at = np.searchsorted(coarse, parent)
    child = (penalty.cells & 1) @ (1 << np.arange(dim))
    P = prolong[child][:, None]
    mask = free[corner_nodes(penalty.cells, n)]
    mask = mask[:, :, None] & mask[:, None, :]
    pooled = np.zeros((coarse.size, m, 4, m, m))
    pooled[at, child] = P.transpose(0, 1, 3, 2) @ np.stack(
        [penalty.K0 * mask, penalty.S, penalty.B, penalty.M * mask],
        axis=1) @ P
    K0, S, B, M = pooled.sum(axis=1).transpose(1, 0, 2, 3)
    floor = np.zeros((coarse.size, m))
    floor[at, child] = penalty.lam
    floor = floor.max(axis=1)
    full = penalty.full.copy()
    full[penalty.cells @ fine_flat] = False
    K0 += (full[children] @ pooled_ref).reshape(-1, m, m)
    pen = floor > 0.0
    S[pen] += (penalty.full[children[pen]] @ pooled_ref).reshape(-1, m, m)
    lam = np.zeros(coarse.size)
    lam[pen] = penalties(pencil_max(B[pen], S[pen]), floor[pen],
                         penalty.gamma, penalty.mode)
    return PenaltyCells(
        cells=cells, S=S, B=B, M=M, lam=lam, full=full_c,
        reference=penalty.reference * 2.0 ** (dim - 2), gamma=penalty.gamma,
        mode=penalty.mode, K0=K0)


def build_hierarchy(system: Union[AssembledSystem, OneDimSystem],
                    config: CycleConfig) -> Hierarchy:
    """Hierarchy for an assembled 1D or 2D system, one level per pass.

    Both system types supply the finest operator on their free DOFs, taken
    as is, those DOFs (`dofs`, from `number_dofs`), and the cells that the
    coarser levels are pooled from.  A level's P takes each fine free DOF
    from its coarse parents, whose union is the coarse free DOFs, numbered
    by `number_dofs` (`_transfers`), and the level forms R = P^T.  The
    coarse cut DOFs, which only steer the extra smoothing sweeps and the
    numbering, are the parents of the fine cut DOFs.  The next level's
    operator is assembled from the pooled cells' K0_c + lam_c M_c, with its
    own penalty (`_coarse_penalty`), by `PenaltyCells.operator`.
    """
    grid, dofs, penalty = system.grid, system.dofs, system.penalty
    _validate_depth(grid.n, config.coarsest_n)
    A, levels = system.operator, []
    while grid.n > config.coarsest_n:
        grid_c = grid.coarsen()
        P, dofs_c = _transfers(dofs, grid, grid_c)
        levels.append(MgLevel(A, grid, dofs, len(levels), penalty, P))
        penalty = _coarse_penalty(penalty, dofs.free, grid.n)
        A = penalty.operator(grid_c, dofs_c.order, dofs_c.dof)
        grid, dofs = grid_c, dofs_c
    levels.append(MgLevel(A, grid, dofs, len(levels), penalty))
    return Hierarchy(levels=levels, config=config)


def _cycle(levels: list, k: int, u: np.ndarray, F: np.ndarray,
           config: CycleConfig):
    """One multigrid cycle at level k, updating u in place.  The coarse
    problem, cycled config.gamma_star times, lives in level k+1's iterate
    and rhs; u += P u_c adds a prolongation formed in level k's scratch."""
    level = levels[k]
    if k == len(levels) - 1:
        u[:] = level.coarse_solve(F)
        return
    for _ in range(config.nu1):
        level.smooth(u, F, config.eta)
    coarse = levels[k + 1]
    matvec_into(level.R, level.residual(u, F), coarse.rhs)
    coarse.iterate.fill(0.0)
    for _ in range(config.gamma_star):
        _cycle(levels, k + 1, coarse.iterate, coarse.rhs, config)
    u += matvec_into(level.P, coarse.iterate, level.scratch)
    for _ in range(config.nu2):
        level.smooth(u, F, config.eta)


@dataclass
class ConvergenceTrace:
    """Residual history of a multigrid run.

    residual_norms[m] is the max-norm of the free-DOF residual after m
    cycles.  diverged flags a run whose residual grew for
    DIVERGENCE_PATIENCE consecutive cycles; stalled a run with a target
    that stopped after DIVERGENCE_PATIENCE cycles without a new lowest
    residual.
    """

    residual_norms: np.ndarray
    diverged: bool = False
    stalled: bool = False

    @property
    def iterations(self) -> int:
        return len(self.residual_norms) - 1

    @property
    def rho_per_iter(self) -> np.ndarray:
        """Per-cycle convergence factors: rho_per_iter[m - 1] is
        residual_norms[m] / residual_norms[m - 1], and 0 where that previous
        norm is 0."""
        prev, norms = self.residual_norms[:-1], self.residual_norms[1:]
        return np.divide(norms, prev, out=np.zeros_like(norms),
                         where=prev > 0.0)

    def rho_mean(self, first: int, last: int) -> float:
        """Average convergence factor over cycles first..last (1-based,
        inclusive)."""
        if not 1 <= first <= last <= self.iterations:
            raise ValueError(
                f"window {first}..{last} outside the {self.iterations} "
                "recorded cycles")
        return float(np.mean(self.rho_per_iter[first - 1:last]))


def solve(hierarchy: Hierarchy, F: np.ndarray,
          u0: Optional[np.ndarray] = None, max_iters: int = 30,
          target_residual: Optional[float] = None
          ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Run repeated cycles, recording the free-DOF residual max-norm; with
    max_iters=1 this is one cycle.

    F, u0 and the returned u live on the whole background grid; constrained
    DOFs take their right-hand side values and are never iterated, and u0
    is not modified.  With target_residual set, iteration stops once the
    residual norm is at or below it, before the first cycle if u0 already
    meets it.  It also stops once DIVERGENCE_PATIENCE consecutive cycles
    bring no residual below the lowest since the first cycle, which has
    then met its rounding floor above the target: the trace is flagged as
    stalled, with a warning that names that floor.  A residual that grows for
    DIVERGENCE_PATIENCE consecutive cycles flags the trace as diverged
    (with a warning) but the run is preserved.  Raises ValueError if F or
    u0 is not one value per grid node, or is not finite on a free DOF;
    constrained entries are not checked.
    """
    levels = hierarchy.levels
    level0 = levels[0]
    order = level0.dofs.order
    nodes = level0.grid.num_nodes
    for name, vector in (("F", F), ("u0", u0)):
        if vector is not None and np.shape(vector) != (nodes,):
            raise ValueError(f"{name} has shape {np.shape(vector)}; the grid "
                             f"has {nodes} nodes")
    F_free = np.asarray(F, dtype=float)[order]
    u_free = np.zeros(level0.num_dofs) if u0 is None \
        else np.asarray(u0, dtype=float)[order]
    for name, vector in (("F", F_free), ("u0", u_free)):
        bad = np.flatnonzero(~np.isfinite(vector))
        if bad.size:
            raise ValueError(f"{name} is {vector[bad[0]]} at grid node "
                             f"{order[bad[0]]}, a free DOF")

    def residual_norm() -> float:
        r = level0.residual(u_free, F_free)
        return float(np.max(np.abs(r, out=r), initial=0.0))

    norms = [residual_norm()]
    growing = stagnant = 0
    diverged = stalled = False
    # The first cycle can raise the residual many times over, since the cut
    # rows carry the penalty, so the lowest residual counts from cycle 1.
    best = np.inf
    for _ in range(max_iters):
        if target_residual is not None and norms[-1] <= target_residual:
            break
        _cycle(levels, 0, u_free, F_free, hierarchy.config)
        norms.append(residual_norm())
        growing = growing + 1 if norms[-1] > norms[-2] > 0.0 else 0
        if growing >= DIVERGENCE_PATIENCE and not diverged:
            diverged = True
            warnings.warn(
                f"residual grew for {DIVERGENCE_PATIENCE} consecutive "
                "cycles; continuing and keeping the trace", RuntimeWarning)
        if norms[-1] < best:
            best, stagnant = norms[-1], 0
        else:
            stagnant += 1
        if target_residual is not None and stagnant >= DIVERGENCE_PATIENCE:
            stalled = True
            warnings.warn(
                f"residual stalled at {best:.3e}, above the target "
                f"{target_residual:g}: no lower residual in "
                f"{DIVERGENCE_PATIENCE} cycles; stopping", RuntimeWarning)
            break
    u = np.array(F, dtype=float, copy=True)
    u[order] = u_free
    return u, ConvergenceTrace(residual_norms=np.array(norms),
                               diverged=diverged, stalled=stalled)


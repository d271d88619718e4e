"""Reference implementations that the tests check the solver against.

None of this runs when the package solves: the canonical CSR form by
summed duplicates, a deflating dense generalized eigensolver, the global
trace constants it gives, the cell-by-cell Gauss source of the internal
cells, the closed-form load blocks of the 1D system, its four-way residual
splitting and that splitting's coarse-grid identity, the whole-grid
refinement matrices, and the float-power forms of the flower and hourglass
level sets.  The tests import these as
``from oracles import ...``; pytest puts this directory on ``sys.path``.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from ghostmg import assembly
from ghostmg.geometry import (_FLOWER_X0, _FLOWER_Y0, LevelSet, corner_nodes,
                              domain_catalog)
from ghostmg.linalg import DegeneratePencilError
from ghostmg.one_dim import OneDimSystem
from ghostmg.stabilization import pencil_max


def canonical_csr(matrix) -> sp.csr_matrix:
    """Return `matrix` as CSR in canonical form.

    Duplicate entries are summed (COO accumulation semantics) and column
    indices are sorted within each row.
    """
    a = sp.csr_matrix(matrix)
    a.sum_duplicates()
    a.sort_indices()
    return a


@dataclass
class GeneralizedEigResult:
    """Largest finite eigenvalue of a symmetric pencil K v = lam M v, on the
    complement of the common nullspace of K and M, and the dimension of that
    nullspace."""

    value: float
    deflated_dim: int


#: Relative threshold of the rank decisions in `generalized_eig_max`.
RANK_TOLERANCE = 1e-12


def generalized_eig_max(K: np.ndarray, M: np.ndarray) -> GeneralizedEigResult:
    """Largest finite eigenvalue of the symmetric pencil K v = lam M v.

    K and M are symmetric positive semidefinite and may be singular.  The
    common nullspace (directions with zero energy in both forms) is removed
    first; on the complement M must be positive definite, which holds for
    the boundary-penalty pencils where M is an interior Dirichlet form.
    Directions with zero M-energy but nonzero K-energy make the pencil
    unbounded and raise.

    The common nullspace is detected from a symmetric eigendecomposition of
    the scale-normalized sum K/|K|_max + M/|M|_max with relative threshold
    RANK_TOLERANCE, scaled by the largest eigenvalue magnitude of the matrix
    being examined (for PSD forms, the sum vanishes exactly on the
    intersection of the nullspaces).
    """
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    if K.shape != M.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K and M must be square matrices of equal shape")
    n = K.shape[0]
    s_k = float(np.abs(K).max(initial=0.0))
    s_m = float(np.abs(M).max(initial=0.0))
    if s_k == 0.0 and s_m == 0.0:
        return GeneralizedEigResult(0.0, n)
    S = np.zeros_like(K)
    if s_k > 0.0:
        S += K / s_k
    if s_m > 0.0:
        S += M / s_m
    w, V = np.linalg.eigh(S)
    keep = w > RANK_TOLERANCE * w[-1]
    deflated = int(n - np.count_nonzero(keep))
    if not np.any(keep):
        return GeneralizedEigResult(0.0, n)
    Vk = V[:, keep]
    Kr = Vk.T @ K @ Vk
    Mr = Vk.T @ M @ Vk
    wm, Um = np.linalg.eigh(Mr)
    null_m = wm <= RANK_TOLERANCE * max(wm[-1], 0.0)
    if np.any(null_m):
        # Residual M-null directions: admissible only if K also vanishes
        # there, otherwise the Rayleigh quotient is unbounded.
        U0 = Um[:, null_m]
        if np.abs(Kr @ U0).max(initial=0.0) > RANK_TOLERANCE * max(s_k, 1.0):
            raise DegeneratePencilError(
                "pencil has a direction with zero M-energy and nonzero "
                "K-energy; the stabilization constant is unbounded"
            )
        U1 = Um[:, ~null_m]
        Kr = U1.T @ Kr @ U1
        Mr = U1.T @ Mr @ U1
        deflated += int(np.count_nonzero(null_m))
        if Kr.size == 0:
            return GeneralizedEigResult(0.0, deflated)
    lam = scipy.linalg.eigh(Kr, Mr, eigvals_only=True, check_finite=False)
    return GeneralizedEigResult(float(lam[-1]), deflated)


def global_C(system) -> float:
    """Max of the sharp per-cell constants over the Dirichlet cut cells of
    an assembled 2D system: summing the local inequalities shows the global
    constant never exceeds it."""
    batch = assembly.cut_cell_batch(system.cut_cells)
    dirichlet = np.flatnonzero(batch.dirichlet)
    if not dirichlet.size:
        raise ValueError(
            "the domain has no weak Dirichlet chords, so the boundary trace "
            "constant is undefined")
    C = pencil_max(batch.B[dirichlet], batch.S[dirichlet])
    bad = np.flatnonzero(np.isnan(C))
    if bad.size:
        raise DegeneratePencilError(
            f"cut cell {system.cut_cells.cell(dirichlet[bad[0]])}: the "
            "interior stiffness is singular off the constants")
    return float(C.max())


def dense_global_C_1d(n: int, theta1: float, theta2: float) -> float:
    """Global trace constant of the 1D grid: largest generalized eigenvalue
    of the Dirichlet-end flux Gram matrix against the bulk stiffness of the
    whole cut interval.

    The maximizing function concentrates its seminorm on the boundary cell,
    so this equals the local constant 1 / (theta1 h).
    """
    A_I = dense_blocks_oracle(n, theta1, theta2, lam=1.0)[0]
    h = 1.0 / n
    q = np.zeros(n + 1)
    q[0] = -1.0 / h
    q[1] = 1.0 / h
    return generalized_eig_max(np.outer(q, q), A_I).value


def dense_global_C_2d(system) -> float:
    """Global trace constant of an assembled 2D system: the largest
    generalized eigenvalue of the summed Dirichlet chord Gram matrices
    against the bulk stiffness of the active mesh, on the free DOFs.

    Bounded above by the max of the local constants; dense in the number of
    nodes, so only for small grids.
    """
    grid = system.grid
    nn = grid.num_nodes
    batch = assembly.cut_cell_batch(system.cut_cells)
    in_js, in_is = np.nonzero(system.classification.internal)
    internal = corner_nodes(np.stack((in_is, in_js), 1), grid.n)
    d = batch.dirichlet
    B = np.zeros((nn, nn))
    S = np.zeros((nn, nn))

    def scatter(M, nodes, blocks):
        np.add.at(M, (nodes[:, :, None], nodes[:, None, :]), blocks)

    scatter(S, internal, assembly.full_cell_stiffness())
    scatter(S, batch.cut_cells.nodes, batch.S)
    scatter(B, batch.cut_cells.nodes[d], batch.B[d])
    free = np.flatnonzero(system.free_dofs)
    return generalized_eig_max(B[np.ix_(free, free)],
                               S[np.ix_(free, free)]).value


def internal_source(f, grid, internal) -> np.ndarray:
    """Source loads of the internal cells (n, n) on every grid node, cell by
    cell: the 3x3 tensor Gauss points of each cell as (cells, 9) arrays,
    f on them, the weights times the four shape values, and the loads
    added to each cell's corners in row-major cell order."""
    in_js, in_is = np.nonzero(internal)
    h = grid.h
    x0, y0 = grid.origin
    xi = 0.5 + 0.5 * assembly._GAUSS_X
    XI, ETA = np.meshgrid(xi, xi, indexing="ij")
    xi_q, eta_q = XI.ravel(), ETA.ravel()
    w_q = np.outer(0.5 * assembly._GAUSS_W, 0.5 * assembly._GAUSS_W).ravel() \
        * h * h
    N = assembly.shape_values(xi_q, eta_q)  # (4, 9)
    xq = (x0 + in_is * h)[:, None] + xi_q[None, :] * h   # (cells, 9)
    yq = (y0 + in_js * h)[:, None] + eta_q[None, :] * h
    fq = np.broadcast_to(np.asarray(f(xq, yq), dtype=float), xq.shape)
    F = np.zeros(grid.num_nodes)
    np.add.at(F, corner_nodes(np.stack((in_is, in_js), 1), grid.n),
              (fq * w_q[None, :]) @ N.T)
    return F


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
    """Tensor-product restriction for the flat node index k = i + j (n + 1):
    the refinement-weight matrix of the whole grid, the oracle of the
    transfers that the hierarchy builds on its free DOFs."""
    R1 = restriction_1d(n)
    return canonical_csr(sp.kron(R1, R1, format="csr"))


def colours(level) -> np.ndarray:
    """Colour class (i % 2) + 2 (j % 2) of the grid node of each DOF of a
    2D level, from its DOF order: the 9-point stencil couples no two nodes
    of one class."""
    j, i = np.divmod(level.dofs.order, level.grid.nodes_per_side)
    return i % 2 + 2 * (j % 2)


def dense_blocks_oracle(n, theta1, theta2, lam):
    """Hand-built dense A_I, A_B and A_lam of the 1D system, and the flux
    block A_BN, whose action is -u'(b) times the Neumann trace weights."""
    h = 1.0 / n
    m = n + 1
    A_I = np.zeros((m, m))
    for c in range(n):
        w = {0: theta1, n - 1: theta2}.get(c, 1.0) / h
        A_I[c, c] += w
        A_I[c, c + 1] -= w
        A_I[c + 1, c] -= w
        A_I[c + 1, c + 1] += w
    p = np.array([theta1, 1.0 - theta1])        # phi_i(a)
    q = np.array([-1.0, 1.0]) / h               # phi_i'(a)
    A_B = np.zeros((m, m))
    A_B[:2, :2] = np.outer(p, q)
    A_lam = np.zeros((m, m))
    A_lam[:2, :2] = lam * np.outer(p, p)
    # A_BN u = -u'(b) * s with u'(b) = q . (u_{n-1}, u_n).
    s = np.array([1.0 - theta2, theta2])        # phi_i(b)
    A_BN = np.zeros((m, m))
    A_BN[n - 1:, n - 1:] = -np.outer(s, q)
    return A_I, A_B, A_lam, A_BN


def source_vector(n, theta1, theta2, f) -> np.ndarray:
    """Source load F_f of the 1D system, entries int_a^b f phi_i dx, by
    3-point Gauss on each cell's part of (a, b), one cell at a time."""
    m = n + 1
    F = np.zeros(m)
    if f is None:
        return F
    h = 1.0 / n
    a = (1.0 - theta1) * h
    b = 1.0 - (1.0 - theta2) * h
    gauss_x = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
    gauss_w = np.array([5.0, 8.0, 5.0]) / 9.0
    for c in range(n):
        lo = max(c * h, a)
        hi = min((c + 1) * h, b)
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xq = mid + half * gauss_x
        wq = half * gauss_w
        fq = f(xq)
        # Hat functions of nodes c and c+1 on this cell.
        left = (c + 1) - xq / h
        right = xq / h - c
        F[c] += np.sum(wq * fq * left)
        F[c + 1] += np.sum(wq * fq * right)
    return F


def rhs_blocks(n, theta1, theta2, lam, g_a, g_b):
    """The closed-form boundary loads F_B, F_lam, F_N of the 1D system: the
    flux and penalty loads of g_a at a and the Neumann load of g_b at b."""
    m = n + 1
    h = 1.0 / n
    F_B = np.zeros(m)
    F_B[0] = -g_a / h
    F_B[1] = g_a / h
    F_lam = np.zeros(m)
    F_lam[0] = lam * theta1 * g_a
    F_lam[1] = lam * (1.0 - theta1) * g_a
    F_N = np.zeros(m)
    F_N[n - 1] = (1.0 - theta2) * g_b
    F_N[n] = theta2 * g_b
    return F_B, F_lam, F_N


def coarse_theta(theta: float) -> float:
    """Cut fraction seen by the next coarser grid: (1 + theta) / 2.

    The boundary point is fixed; doubling h halves the distance fraction
    between the boundary and the surrounding coarse node.
    """
    return 0.5 * (1.0 + theta)


def trace_at_a(u: np.ndarray, theta1: float) -> float:
    """Value of the P1 iterate at the Dirichlet point a."""
    return theta1 * u[0] + (1.0 - theta1) * u[1]


def flux_at_b(u: np.ndarray, h: float) -> float:
    """Derivative of the P1 iterate in the last cell (the flux at b)."""
    return (u[-1] - u[-2]) / h


def boundary_residuals(system: OneDimSystem,
                       u: np.ndarray) -> tuple[float, float]:
    """Dirichlet and Neumann data residuals (r_a, r_b) of an iterate."""
    r_a = system.g_a - trace_at_a(u, system.theta1)
    r_b = system.g_b - flux_at_b(u, system.h)
    return r_a, r_b


def split_residual_fine(system: OneDimSystem, u: np.ndarray) -> dict:
    """The four-way residual splitting on the fine grid.

    r = r_int + r_B + r_lam + r_N, where r_int = F - F_B - F_lam - F_N -
    (A_I + A_B + A_BN) u and the boundary pieces are `rhs_blocks` of the
    data residuals r_a, r_b in place of the data.
    """
    n, theta1, theta2, lam = system.n, system.theta1, system.theta2, system.lam
    F_B, F_lam, F_N = rhs_blocks(n, theta1, theta2, lam, system.g_a, system.g_b)
    r_a, r_b = boundary_residuals(system, u)
    A_I, A_B, _, A_BN = dense_blocks_oracle(n, theta1, theta2, lam)
    r_int = system.F - F_B - F_lam - F_N - (A_I + A_B + A_BN) @ u
    r_B, r_lam, r_N = rhs_blocks(n, theta1, theta2, lam, r_a, r_b)
    return {"interior": r_int, "dirichlet_flux": r_B, "penalty": r_lam,
            "neumann": r_N, "r_a": r_a, "r_b": r_b}


def split_residual_coarse(system: OneDimSystem, u: np.ndarray,
                          restrict: sp.csr_matrix) -> np.ndarray:
    """Coarse residual assembled from restricted interior residual plus
    coarse-grid boundary blocks.

    Only the interior part is restricted; the Dirichlet flux, penalty and
    Neumann parts are rebuilt on the coarse grid with spacing 2h, coarse
    fractions (1 + theta) / 2 and the same lambda, using the fine data
    residuals r_a, r_b.  This equals the full restriction of the fine
    residual exactly.
    """
    if system.n % 2 != 0:
        raise ValueError("fine grid must have an even number of cells")
    parts = split_residual_fine(system, u)
    r_B, r_lam, r_N = rhs_blocks(system.n // 2, coarse_theta(system.theta1),
                                 coarse_theta(system.theta2), system.lam,
                                 parts["r_a"], parts["r_b"])
    return restrict @ parts["interior"] + (r_B + r_lam + r_N)


def flower_pow(r0: float):
    """The flower level set of radius r0 written with float powers, the
    reference for the catalog's evaluation by products."""
    def psi(x, y):
        X = x - _FLOWER_X0
        Y = y - _FLOWER_Y0
        R = np.sqrt(X ** 2 + Y ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            pert = (Y ** 5 + 5.0 * X ** 4 * Y - 10.0 * X ** 2 * Y ** 3) / (5.0 * R ** 5)
        pert = np.where(R > 0.0, pert, 0.0)
        return R - r0 - pert
    return psi


def hourglass_pow(x, y):
    """The hourglass level set written with float powers."""
    X = x - _FLOWER_X0
    Y = y - _FLOWER_Y0
    return 256.0 * Y ** 4 - 16.0 * X ** 4 - 128.0 * Y ** 2 + 36.0 * X ** 2


def pow_levelset(name: str) -> LevelSet:
    """The catalog flower or hourglass with its one component replaced by
    the float-power form."""
    levelset = domain_catalog(name)
    if name == "flower":
        component = flower_pow(levelset.params["radius"])
    elif name == "hourglass":
        component = hourglass_pow
    else:
        raise ValueError(f"no float-power oracle for {name!r}")
    return replace(levelset, components=(component,))

"""Sparse and dense linear-algebra kernels used by the solver stack.

Sparse matrices are scipy CSR throughout; helpers here pin down the canonical
form (sorted column indices, duplicates summed) and provide the Galerkin
triple product, a CSR product into a caller's buffer, and a generalized
eigensolver that handles the singular pencils arising from boundary-penalty
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


class NotSPDError(Exception):
    """Cholesky hit a non-positive pivot: the operator lost positive
    definiteness, typically because the boundary penalty is too small."""


class DegeneratePencilError(Exception):
    """The reduced pencil has a direction with zero M-energy but nonzero
    K-energy, so the stabilization constant is unbounded."""


@dataclass
class GeneralizedEigResult:
    """Largest finite eigenvalue of a symmetric pencil K v = lam M v.

    Attributes
    ----------
    value : float
        Largest eigenvalue of the pencil restricted to the complement of the
        common nullspace of K and M.
    deflated_dim : int
        Dimension of the common nullspace that was projected out.
    """

    value: float
    deflated_dim: int


def canonical_csr(matrix) -> sp.csr_matrix:
    """Return `matrix` as CSR in canonical form.

    Duplicate entries are summed (COO accumulation semantics) and column
    indices are sorted within each row.
    """
    a = sp.csr_matrix(matrix)
    a.sum_duplicates()
    a.sort_indices()
    return a


def rap_product(R: sp.csr_matrix, A: sp.csr_matrix, P: sp.csr_matrix) -> sp.csr_matrix:
    """Galerkin triple product R A P as canonical CSR."""
    coarse = R @ A @ P
    return canonical_csr(coarse)


def matvec_into(A: sp.csr_matrix, x: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """A @ x written into `out`, which is returned.

    This is what scipy's `A @ x` computes, a zeroed vector accumulated by
    the CSR kernel, without the dispatch and the fresh vector, so the result
    is bitwise equal.  The kernel is private to scipy; this is the one place
    it is called.  Raises ValueError if A's indptr and indices differ in
    dtype, since the kernel would then work on upcast copies.
    """
    if A.indptr.dtype != A.indices.dtype:
        raise ValueError(
            f"CSR index arrays differ in dtype: indptr {A.indptr.dtype}, "
            f"indices {A.indices.dtype}")
    out.fill(0.0)
    csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)
    return out


def generalized_eig_max(K: np.ndarray, M: np.ndarray,
                        rtol: float = 1e-12) -> GeneralizedEigResult:
    """Largest finite eigenvalue of the symmetric pencil K v = lam M v.

    Both K and M may be singular.  The common nullspace (directions with zero
    energy in both forms) is removed first; on the complement M must be
    positive definite, which holds for the boundary-penalty pencils where M is
    an interior Dirichlet form.  Directions with zero M-energy but nonzero
    K-energy make the pencil unbounded and raise.

    The common nullspace is detected from a symmetric eigendecomposition of
    the scale-normalized sum K/|K|_max + M/|M|_max with relative threshold
    `rtol` (for PSD forms, the sum vanishes exactly on the intersection of
    the nullspaces).

    Parameters
    ----------
    K, M : ndarray
        Symmetric positive semidefinite matrices of equal shape.
    rtol : float
        Relative threshold for rank decisions, scaled by the largest
        eigenvalue magnitude of the matrix being examined.

    Returns
    -------
    GeneralizedEigResult
        Largest finite eigenvalue and the deflated dimension.
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
    keep = w > rtol * w[-1]
    deflated = int(n - np.count_nonzero(keep))
    if not np.any(keep):
        return GeneralizedEigResult(0.0, n)
    Vk = V[:, keep]
    Kr = Vk.T @ K @ Vk
    Mr = Vk.T @ M @ Vk
    wm, Um = np.linalg.eigh(Mr)
    null_m = wm <= rtol * max(wm[-1], 0.0)
    if np.any(null_m):
        # Residual M-null directions: admissible only if K also vanishes
        # there, otherwise the Rayleigh quotient is unbounded.
        U0 = Um[:, null_m]
        if np.abs(Kr @ U0).max(initial=0.0) > rtol * max(s_k, 1.0):
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

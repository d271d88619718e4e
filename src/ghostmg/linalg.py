"""Sparse linear-algebra kernels used by the solver stack: a CSR product into
a caller's buffer, and the errors of the factorizations and penalty pencils.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


class NotSPDError(Exception):
    """Cholesky hit a non-positive pivot: the operator lost positive
    definiteness, typically because the boundary penalty is too small."""


class DegeneratePencilError(Exception):
    """The reduced pencil has a direction with zero M-energy but nonzero
    K-energy, so the stabilization constant is unbounded."""


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
    csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, out)
    return out


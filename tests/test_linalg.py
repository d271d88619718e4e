"""Linear-algebra kernels: the level smoothers and exact coarse solve (run
through ``MgLevel``, their one implementation), the CSR product into a
buffer, triple products, and the generalized eigensolver of the test
oracles."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostmg import linalg
from ghostmg import multigrid as mg
from ghostmg.assembly import ProblemSpec, assemble, number_dofs
from ghostmg.geometry import CartesianGrid, domain_catalog
from oracles import canonical_csr, colours, generalized_eig_max


def two_by_two():
    return sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))


def random_spd(rng, m):
    B = rng.standard_normal((m, m))
    return B @ B.T + m * np.eye(m)


def random_tridiagonal_spd(rng, m):
    """B B^T + m I for a random lower bidiagonal B: tridiagonal, as every
    1D operator is."""
    B = np.diag(rng.standard_normal(m)) \
        + np.diag(rng.standard_normal(m - 1), -1)
    return B @ B.T + m * np.eye(m)


def level_for(A, cut=None, coarsest=False):
    """A 1D level on every row of A (all DOFs free), made complete: a
    smoothed level, whose identity transfers no test applies, or the
    coarsest level, which factors A."""
    m = A.shape[0]
    free = np.ones(m, dtype=bool)
    cut = np.zeros(m, dtype=bool) if cut is None else cut
    grid = CartesianGrid(m - 1, (0.0,), 1.0)
    eye = None if coarsest else sp.identity(m, format="csr")
    return mg.MgLevel(A, grid, number_dofs(free, cut, grid), P=eye)


def test_gauss_seidel_oracle():
    # Forward sweep by hand: u0 = 1/2, then u1 = (2 - 1/2)/2 = 3/4.
    u = np.zeros(2)
    level_for(two_by_two()).smooth(u, np.array([1.0, 2.0]), 0)
    np.testing.assert_allclose(u, [0.5, 0.75], rtol=0.0, atol=1e-15)


def test_gauss_seidel_masked_rows_only():
    # Each extra cut sweep changes the cut DOFs only, by one Gauss-Seidel
    # sweep of the cut rows: tril(A_cc) delta = (F - A u)_c.
    rng = np.random.default_rng(3)
    A_dense = random_tridiagonal_spd(rng, 6)
    F = rng.standard_normal(6)
    cut = np.array([True, False, True, True, False, True])
    level = level_for(sp.csr_matrix(A_dense), cut=cut)
    u_full = rng.standard_normal(6)
    u_cut = u_full.copy()
    level.smooth(u_full, F, 0)
    level.smooth(u_cut, F, 1)
    np.testing.assert_array_equal(u_cut[~cut], u_full[~cut])
    r = (F - A_dense @ u_full)[cut]
    delta = np.linalg.solve(np.tril(A_dense[np.ix_(cut, cut)]), r)
    np.testing.assert_allclose(u_cut[cut], u_full[cut] + delta, rtol=0.0,
                               atol=1e-12)
    assert np.all(u_cut[cut] != u_full[cut])


def disk_level():
    """The finest level of a two-level disk hierarchy (n = 16)."""
    system = assemble(ProblemSpec(domain_catalog("disk"), 1.0 / 16,
                                  gamma=2.0))
    return mg.build_hierarchy(system, mg.CycleConfig(coarsest_n=8)).levels[0]


def test_colour_sweep_is_class_major_gauss_seidel():
    # A 2D level numbers its DOFs class by class and a sweep visits the four
    # colour classes in turn, so the sweep is lexicographic Gauss-Seidel in
    # that numbering: a solve with tril(A).
    level = disk_level()
    classes = colours(level)
    assert np.unique(classes).tolist() == [0, 1, 2, 3]
    assert np.all(np.diff(classes) >= 0)
    rng = np.random.default_rng(17)
    A = level.A.toarray()
    F = rng.standard_normal(level.num_dofs)
    u = rng.standard_normal(level.num_dofs)
    expected = u + np.linalg.solve(np.tril(A), F - A @ u)
    level.smooth(u, F, 0)
    np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-12)


def test_colour_cut_sweep_changes_only_cut_dofs():
    # An extra cut sweep on a 2D level is the Gauss-Seidel sweep of the cut
    # rows, tril(A_cc) in the class-major numbering, and leaves every other
    # DOF alone.
    level = disk_level()
    cut = level.dofs.cut_at
    assert 0 < cut.size < level.num_dofs
    assert np.unique(colours(level)[cut]).size == 4
    rng = np.random.default_rng(19)
    A = level.A.toarray()
    F = rng.standard_normal(level.num_dofs)
    u_full = rng.standard_normal(level.num_dofs)
    u_cut = u_full.copy()
    level.smooth(u_full, F, 0)
    level.smooth(u_cut, F, 1)
    uncut = np.ones(level.num_dofs, dtype=bool)
    uncut[cut] = False
    np.testing.assert_array_equal(u_cut[uncut], u_full[uncut])
    delta = np.linalg.solve(np.tril(A[np.ix_(cut, cut)]),
                            (F - A @ u_full)[cut])
    np.testing.assert_allclose(u_cut[cut], u_full[cut] + delta, rtol=0.0,
                               atol=1e-12)


def test_colour_sweep_rejects_in_class_coupling():
    # A dense 2D operator couples nodes of one colour, which the 9-point
    # stencil never does, so building the sweep fails instead of smoothing
    # with a wrong diagonal scale.
    A = sp.csr_matrix(random_spd(np.random.default_rng(23), 9))
    free, cut = np.ones(9, dtype=bool), np.zeros(9, dtype=bool)
    grid = CartesianGrid(2, (0.0, 0.0), 1.0)
    eye = sp.identity(9, format="csr")
    with pytest.raises(ValueError, match="level 3: colour class 0"):
        mg.MgLevel(A, grid, number_dofs(free, cut, grid), index=3, P=eye)


def test_gauss_seidel_empty_mask_is_noop():
    # With no cut DOFs, extra cut sweeps change nothing.
    rng = np.random.default_rng(5)
    level = level_for(sp.csr_matrix(random_tridiagonal_spd(rng, 5)))
    F = rng.standard_normal(5)
    u_plain = rng.standard_normal(5)
    u_extra = u_plain.copy()
    level.smooth(u_plain, F, 0)
    level.smooth(u_extra, F, 4)
    np.testing.assert_array_equal(u_extra, u_plain)


def test_gauss_seidel_zero_diagonal_raises():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ZeroDivisionError):
        level_for(A)


def test_gauss_seidel_exact_solution_is_fixed_point():
    rng = np.random.default_rng(11)
    A = sp.csr_matrix(random_tridiagonal_spd(rng, 8))
    x = rng.standard_normal(8)
    F = A @ x
    u = x.copy()
    level_for(A).smooth(u, F, 0)
    np.testing.assert_allclose(u, x, rtol=0.0, atol=1e-12)


def test_canonical_csr_sums_duplicates():
    A = sp.coo_matrix(([1.0, 2.0, 5.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    out = canonical_csr(A)
    np.testing.assert_array_equal(out.toarray(), [[0.0, 3.0], [5.0, 0.0]])


def _assert_matvec_into_is_matmul(A, x):
    out = np.full(A.shape[0], np.nan)
    assert linalg.matvec_into(A, x, out) is out
    np.testing.assert_array_equal(out, A @ x, strict=True)


def test_matvec_into_equals_matmul_bitwise():
    # The helper calls scipy's private CSR kernel; if a SciPy release drops
    # or changes it, this is the test that fails.
    rng = np.random.default_rng(31)
    A = canonical_csr(sp.random(40, 30, density=0.2, random_state=rng))
    _assert_matvec_into_is_matmul(A, rng.standard_normal(30))
    # Rows 3 and 7 empty.
    B = A.tolil()
    B[[3, 7], :] = 0.0
    B = canonical_csr(B)
    assert np.count_nonzero(np.diff(B.indptr) == 0) >= 2
    _assert_matvec_into_is_matmul(B, rng.standard_normal(30))
    empty = sp.csr_matrix((0, 30))
    _assert_matvec_into_is_matmul(empty, rng.standard_normal(30))


def test_matvec_into_on_row_range_views():
    # The smoother's zero-copy row blocks of a level operator.
    A = disk_level().A
    x = np.random.default_rng(37).standard_normal(A.shape[1])
    full = A @ x
    for start, stop in [(0, A.shape[0]), (5, 61), (17, 17)]:
        rows = mg._row_range(A, start, stop)
        _assert_matvec_into_is_matmul(rows, x)
        out = np.empty(stop - start)
        np.testing.assert_array_equal(linalg.matvec_into(rows, x, out),
                                      full[start:stop])


def test_matvec_into_rejects_mixed_index_dtypes():
    A = canonical_csr(two_by_two())
    A.indices = A.indices.astype(np.int64)
    A.indptr = A.indptr.astype(np.int32)
    with pytest.raises(ValueError, match="indptr int32, indices int64"):
        linalg.matvec_into(A, np.ones(2), np.empty(2))


def test_matvec_into_rejects_mis_sized_vectors():
    # Unchecked, scipy's kernel reads x and writes out past their ends: a
    # 10-entry x and a 5-entry out on this A killed the interpreter with a
    # segmentation fault (signal 11, exit 139 in a shell).  So the calls
    # run in a subprocess, which such a crash cannot take pytest down with.
    script = textwrap.dedent("""
        import numpy as np
        import scipy.sparse as sp
        from ghostmg.linalg import matvec_into
        A = sp.random(2000, 2000, density=0.01, format="csr", random_state=0)
        for x, out in ((10, 2000), (2000, 5), (10, 5)):
            try:
                matvec_into(A, np.ones(x), np.empty(out))
            except ValueError as err:
                print(err)
    """)
    src = Path(linalg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"A of shape (2000, 2000) takes no x of shape ({x},) into out of "
        f"shape ({out},)" for x, out in ((10, 2000), (2000, 5), (10, 5))]


@pytest.mark.parametrize("p_shape", [(8, 5)], ids=["short-P"])
def test_a_level_rejects_transfers_that_do_not_fit(p_shape):
    # P maps some coarse DOFs to the level's 9, and the level forms R = P^T
    # from it; a P of another shape would reach the CSR kernel in the first
    # cycle.
    A = sp.csr_matrix(random_tridiagonal_spd(np.random.default_rng(3), 9))
    grid = CartesianGrid(8, (0.0,), 1.0)
    dofs = number_dofs(np.ones(9, dtype=bool), np.zeros(9, dtype=bool), grid)
    with pytest.raises(ValueError, match=r"level 2: P of shape"):
        mg.MgLevel(A, grid, dofs, 2, P=sp.csr_matrix(p_shape))


def test_coarse_solve_dense_spd():
    # The coarsest level's exact solve (sparse LDL^T by diagonal-pivot LU).
    rng = np.random.default_rng(1)
    A = random_spd(rng, 10)
    b = rng.standard_normal(10)
    x = level_for(sp.csr_matrix(A), coarsest=True).coarse_solve(b)
    np.testing.assert_allclose(A @ x, b, rtol=0.0, atol=1e-10)


def test_dense_solve_indefinite_raises():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(linalg.NotSPDError,
                       match="level 0: coarsest operator is not positive"):
        level_for(sp.csr_matrix(A), coarsest=True)


def test_generalized_eig_standard_problem():
    K = np.array([[2.0, -1.0], [-1.0, 2.0]])
    result = generalized_eig_max(K, np.eye(2))
    assert result.deflated_dim == 0
    assert result.value == pytest.approx(3.0, rel=1e-14)


def test_generalized_eig_deflates_common_nullspace():
    K = np.diag([2.0, 0.0])
    M = np.diag([1.0, 0.0])
    result = generalized_eig_max(K, M)
    assert result.deflated_dim == 1
    assert result.value == pytest.approx(2.0, rel=1e-14)


def test_generalized_eig_zero_pencil():
    result = generalized_eig_max(np.zeros((3, 3)), np.zeros((3, 3)))
    assert result.value == 0.0
    assert result.deflated_dim == 3


def test_generalized_eig_unbounded_direction_raises():
    K = np.eye(2)
    M = np.diag([1.0, 0.0])
    with pytest.raises(linalg.DegeneratePencilError):
        generalized_eig_max(K, M)


def test_generalized_eig_shape_mismatch_raises():
    with pytest.raises(ValueError):
        generalized_eig_max(np.eye(2), np.eye(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gauss_seidel_decreases_energy_norm(seed):
    """For SPD A the error of a Gauss-Seidel sweep contracts in the A-norm."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 12))
    A_dense = random_tridiagonal_spd(rng, m)
    x = rng.standard_normal(m)
    F = A_dense @ x
    u = rng.standard_normal(m)
    e0 = u - x
    before = float(e0 @ (A_dense @ e0))
    level_for(sp.csr_matrix(A_dense)).smooth(u, F, 0)
    e1 = u - x
    after = float(e1 @ (A_dense @ e1))
    assert after <= before * (1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_generalized_eig_matches_ordinary_eig_for_identity_mass(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    B = rng.standard_normal((m, m))
    K = B @ B.T
    result = generalized_eig_max(K, np.eye(m))
    expected = float(np.linalg.eigvalsh(K)[-1])
    assert result.value == pytest.approx(expected, rel=1e-10, abs=1e-12)

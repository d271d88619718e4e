"""The cut-interval model problem: operator, loads and residual splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostmg.one_dim import assemble_1d
from oracles import (
    boundary_residuals,
    coarse_theta,
    dense_blocks_oracle,
    flux_at_b,
    restriction_1d,
    rhs_blocks,
    source_vector,
    split_residual_coarse,
    split_residual_fine,
    trace_at_a,
)


def _dense_sum(n, theta1, theta2, lam):
    """A_I + A_B + A_B^T + A_lam of the dense oracle."""
    A_I, A_B, A_lam, _ = dense_blocks_oracle(n, theta1, theta2, lam)
    return A_I + A_B + A_B.T + A_lam


@pytest.mark.parametrize("theta1", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("theta2", [0.1, 0.5, 1.0])
def test_blocks_match_dense_oracle(theta1, theta2):
    # The operator assembled from the cells is the sum of the blocks.
    n, lam = 8, 37.0
    A = assemble_1d(n, theta1, theta2, lam).operator.toarray()
    np.testing.assert_allclose(A, _dense_sum(n, theta1, theta2, lam),
                               atol=1e-13)


def test_block_corner_entries():
    # The Dirichlet corner: the first cell shortened to theta1 h, the
    # consistency terms of u'(a) against phi_0(a) = theta1 and
    # phi_1(a) = 1 - theta1, and the penalty lam phi_i(a) phi_j(a); the
    # Neumann corner: the last cell shortened to theta2 h.
    n, theta1, theta2, lam = 16, 0.3, 0.8, 11.0
    h = 1.0 / n
    A = assemble_1d(n, theta1, theta2, lam).operator.toarray()
    np.testing.assert_allclose(
        A[:2, :2],
        [[-theta1 / h + lam * theta1 ** 2,
          -(1.0 - theta1) / h + lam * theta1 * (1.0 - theta1)],
         [-(1.0 - theta1) / h + lam * theta1 * (1.0 - theta1),
          (3.0 - theta1) / h + lam * (1.0 - theta1) ** 2]], rtol=1e-14)
    np.testing.assert_allclose(A[-2:, -2:], [[(1.0 + theta2) / h, -theta2 / h],
                                             [-theta2 / h, theta2 / h]],
                               rtol=1e-15)
    assert np.all(A[0, 2:] == 0.0) and np.all(A[-1, :-2] == 0.0)


@settings(max_examples=40, deadline=None)
@given(log_n=st.integers(3, 10),
       # Above 1e-300 the penalty gamma / (theta1 h) stays finite.
       theta1=st.floats(1e-300, 1.0),
       theta2=st.floats(0.0, 1.0, exclude_min=True),
       gamma=st.floats(1.1, 10.0))
def test_operator_is_the_symmetric_tridiagonal_block_sum(log_n, theta1,
                                                         theta2, gamma):
    """For any fractions and penalty lam = gamma / (theta1 h), A is bitwise
    symmetric, stores nothing outside the tridiagonal band and is the dense
    block sum to roundoff."""
    n = 2 ** log_n
    lam = gamma / (theta1 / n)
    A = assemble_1d(n, theta1, theta2, lam).operator
    assert (A - A.T).nnz == 0
    rows = np.repeat(np.arange(n + 1), np.diff(A.indptr))
    assert np.all(np.abs(A.indices - rows) <= 1)
    dense = A.toarray()
    np.testing.assert_allclose(dense, _dense_sum(n, theta1, theta2, lam),
                               rtol=0.0, atol=1e-13 * np.abs(dense).max())


def test_assembled_operator_is_symmetric():
    system = assemble_1d(32, 0.25, 0.6, 120.0)
    asym = (system.operator - system.operator.T)
    assert abs(asym).max() == 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        assemble_1d(1, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        assemble_1d(8, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        assemble_1d(8, 0.5, 1.5, 1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -5.0])
def test_penalty_must_be_finite_and_positive(lam):
    # A NaN penalty once gave a NaN operator, and zero or negative ones
    # were accepted; lam > 0 is what marks the Dirichlet cell as a penalty
    # cell for the hierarchy.
    with pytest.raises(ValueError, match="lam"):
        assemble_1d(8, 0.5, 0.5, lam)


def test_rhs_blocks_entries():
    # Without a source, F holds the flux and penalty loads of g_a on the
    # Dirichlet cell's nodes and the Neumann load of g_b on the last cell's.
    n, theta1, theta2, lam = 8, 0.3, 0.9, 50.0
    g_a, g_b = 2.0, -1.5
    h = 1.0 / n
    F = assemble_1d(n, theta1, theta2, lam, g_a=g_a, g_b=g_b).F
    np.testing.assert_allclose(
        F[:2], [-g_a / h + lam * theta1 * g_a,
                g_a / h + lam * (1.0 - theta1) * g_a], rtol=1e-15)
    assert np.all(F[2:n - 1] == 0.0)
    np.testing.assert_allclose(
        F[n - 1:], [(1.0 - theta2) * g_b, theta2 * g_b], rtol=1e-15)


def test_source_vector_integrates_exactly():
    # 3-point Gauss per cell part is exact for polynomial f; summing the hat
    # functions gives sum_i F_i = int_a^b f dx.
    n, theta1, theta2, lam = 4, 0.6, 0.7, 10.0
    h = 1.0 / n
    a = (1.0 - theta1) * h
    b = 1.0 - (1.0 - theta2) * h
    F1 = assemble_1d(n, theta1, theta2, lam, f=lambda x: np.ones_like(x)).F
    assert F1.sum() == pytest.approx(b - a, rel=1e-14)
    Fx = assemble_1d(n, theta1, theta2, lam, f=lambda x: x).F
    assert Fx.sum() == pytest.approx(0.5 * (b * b - a * a), rel=1e-14)
    assert np.all(assemble_1d(n, theta1, theta2, lam).F == 0.0)


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
def test_loads_equal_the_closed_form_blocks_bitwise(n):
    # F gathered from the cells is the closed-form splitting
    # F_f + F_B + F_lam + F_N bit for bit, the source summed cell by cell.
    sources = (None, lambda x: x * x, lambda x: np.sin(3.0 * x) + 1.0)
    for theta1 in (0.0099, 0.3, 1.0):
        for theta2 in (0.01, 1.0):
            lam = 2.0 / (theta1 / n)
            for f in sources:
                for g_a, g_b in ((0.0, 0.0), (1.3, -0.4)):
                    F = assemble_1d(n, theta1, theta2, lam, f=f, g_a=g_a,
                                    g_b=g_b).F
                    F_B, F_lam, F_N = rhs_blocks(n, theta1, theta2, lam,
                                                 g_a, g_b)
                    want = source_vector(n, theta1, theta2, f) + F_B \
                        + F_lam + F_N
                    np.testing.assert_array_equal(F.view(np.int64),
                                                  want.view(np.int64))


def test_assemble_1d_calls_f_once():
    # The source is evaluated once, on every cell's Gauss points.
    points = []

    def f(x):
        points.append(np.size(x))
        return np.cos(x)

    assemble_1d(64, 0.3, 0.6, 50.0, f=f)
    assert points == [3 * 64]


def test_trace_and_flux_of_linear_function():
    # For u_i = x_i the trace at a is a and the end derivative is 1.
    n, theta1, theta2 = 8, 0.35, 0.8
    h = 1.0 / n
    u = np.linspace(0.0, 1.0, n + 1)
    assert trace_at_a(u, theta1) == pytest.approx((1.0 - theta1) * h,
                                                  rel=1e-14)
    assert flux_at_b(u, h) == pytest.approx(1.0, rel=1e-13)
    system = assemble_1d(n, theta1, theta2, 100.0,
                         g_a=(1.0 - theta1) * h, g_b=1.0)
    r_a, r_b = boundary_residuals(system, u)
    assert abs(r_a) <= 1e-14
    assert abs(r_b) <= 1e-13


def test_linear_solution_is_exact():
    # u(x) = x solves -u'' = 0 with u(a) = a and u'(b) = 1; the discrete
    # system reproduces it through the nodes.
    n, theta1, theta2 = 16, 0.3, 0.45
    h = 1.0 / n
    a = (1.0 - theta1) * h
    lam = 1.1 / (theta1 * h)
    system = assemble_1d(n, theta1, theta2, lam, g_a=a, g_b=1.0)
    u = np.linalg.solve(system.operator.toarray(), system.F)
    np.testing.assert_allclose(u, np.linspace(0.0, 1.0, n + 1),
                               rtol=0.0, atol=1e-11)


def test_fine_splitting_sums_to_full_residual():
    rng = np.random.default_rng(5)
    for theta1, theta2, g_a, g_b in [(0.3, 0.7, 1.3, -0.4),
                                     (0.0099, 0.01, 0.0, 0.0),
                                     (1.0, 1.0, 2.0, 1.0)]:
        system = assemble_1d(16, theta1, theta2, 2.0 / (theta1 / 16),
                             f=lambda x: np.sin(3.0 * x), g_a=g_a, g_b=g_b)
        for _ in range(4):
            u = rng.standard_normal(17)
            parts = split_residual_fine(system, u)
            total = (parts["interior"] + parts["dirichlet_flux"]
                     + parts["penalty"] + parts["neumann"])
            full = system.F - system.operator @ u
            np.testing.assert_allclose(total, full, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("theta1,theta2", [(0.1, 0.1), (0.5, 0.5),
                                           (1.0, 1.0), (0.0099, 0.9)])
def test_coarse_splitting_equals_restricted_residual(theta1, theta2):
    n = 64
    lam = 1.1 / (theta1 / n)
    system = assemble_1d(n, theta1, theta2, lam, f=lambda x: x * x,
                         g_a=0.7, g_b=-0.2)
    R = restriction_1d(n)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = rng.standard_normal(n + 1)
        split = split_residual_coarse(system, u, R)
        direct = R @ (system.F - system.operator @ u)
        np.testing.assert_allclose(split, direct, rtol=0.0, atol=1e-10)


def test_coarse_splitting_requires_even_n():
    system = assemble_1d(5, 0.5, 0.5, 10.0)
    with pytest.raises(ValueError):
        split_residual_coarse(system, np.zeros(6), restriction_1d(4))


def test_system_supplies_level_grid_and_masks():
    # Every node of the interval is free; the cut mask holds the two nodes
    # of each boundary cell.
    system = assemble_1d(16, 0.3, 0.6, 50.0)
    assert system.grid.dim == 1 and system.grid.n == 16
    assert system.dofs.free.shape == (17,) and system.dofs.free.all()
    np.testing.assert_array_equal(np.flatnonzero(system.dofs.cut),
                                  [0, 1, 15, 16])


def test_coarse_theta_halves_distance():
    assert coarse_theta(1.0) == 1.0
    assert coarse_theta(0.5) == 0.75
    assert coarse_theta(0.0099) == pytest.approx(0.50495, rel=1e-12)


def test_source_skips_cells_outside_domain():
    # With theta2 small, most of the last cell lies beyond b and contributes
    # almost nothing.
    F = assemble_1d(8, 1.0, 0.01, 10.0, f=lambda x: np.ones_like(x)).F
    assert F[-1] < F[1]

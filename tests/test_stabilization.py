"""Trace constants and penalty sizing for the weak Dirichlet terms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostmg.assembly import ProblemSpec, assemble, cut_cell_batch
from ghostmg.geometry import (
    DIRICHLET,
    CartesianGrid,
    CheckerboardCellError,
    CutCellGeometry,
    LevelSet,
    SnappedNodeField,
    domain_catalog,
    extract_cut_geometry,
)
from ghostmg.linalg import DegeneratePencilError, generalized_eig_max
from ghostmg.stabilization import (
    build_stabilization,
    c_one_dim,
    c_pentagon,
    c_quadrilateral,
    c_triangle,
    closed_form_C,
    dense_global_C_1d,
    dense_global_C_2d,
    global_C,
    local_eig_C,
    pencil_max,
)


def cut_from_values(values):
    """Single unit-cell cut geometry from corner values (flat BL BR TL TR)."""
    grid = CartesianGrid(1, (0.0, 0.0), 1.0)
    ls = LevelSet("manual", (lambda x, y: x,), (DIRICHLET,))
    field = SnappedNodeField(grid, ls, np.asarray(values, dtype=float),
                             alpha=8.0, threshold=0.0, num_snapped=0)
    (cut,) = extract_cut_geometry(field)
    return cut, grid


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_one_dim_constant():
    assert c_one_dim(0.5, 0.125) == pytest.approx(16.0, rel=1e-15)
    with pytest.raises(ValueError):
        c_one_dim(0.0, 0.1)
    with pytest.raises(ValueError):
        c_one_dim(0.5, 0.0)


def test_triangle_half_cell_value():
    # Both fractions 1: the chord is the cell diagonal, C = 3 sqrt(2) / h.
    for h in (1.0, 0.25, 1.0 / 64):
        assert c_triangle(1.0, 1.0, h) == pytest.approx(
            3.0 * math.sqrt(2.0) / h, rel=1e-14)


def test_triangle_quarter_corner_value():
    assert c_triangle(0.5, 0.5, 1.0) == pytest.approx(6.0 * math.sqrt(2.0),
                                                      rel=1e-14)


def test_triangle_symmetry_and_scale():
    assert c_triangle(0.3, 0.8, 0.1) == pytest.approx(
        c_triangle(0.8, 0.3, 0.1), rel=1e-14)
    # C scales as 1/h.
    assert c_triangle(0.3, 0.8, 0.125) == pytest.approx(
        8.0 * c_triangle(0.3, 0.8, 1.0), rel=1e-13)


def test_triangle_matches_eigensolve():
    grid = CartesianGrid(1, (0.0, 0.0), 1.0)
    for t1 in (0.2, 0.5, 0.9, 1.0):
        for t2 in (0.25, 0.6, 1.0):
            cut, _ = cut_from_values([-1.0,
                                      -1.0 + 1.0 / t1 if t1 < 1.0 else 0.0,
                                      -1.0 + 1.0 / t2 if t2 < 1.0 else 0.0,
                                      5.0])
            assert cut.shape == "triangle"
            assert local_eig_C(cut, grid) == pytest.approx(
                c_triangle(t1, t2, 1.0), rel=1e-8)


def test_triangle_orientation_invariance():
    # The same corner cut in all four orientations shares one constant.
    values = [
        [-1.0, 3.0, 1.0, 5.0],   # interior corner BL
        [3.0, -1.0, 5.0, 1.0],   # BR
        [5.0, 1.0, 3.0, -1.0],   # TR
        [1.0, 5.0, -1.0, 3.0],   # TL
    ]
    constants = []
    for vals in values:
        cut, grid = cut_from_values(vals)
        assert cut.shape == "triangle"
        assert sorted(cut.theta) == [0.25, 0.5]
        constants.append(local_eig_C(cut, grid))
    np.testing.assert_allclose(constants, constants[0], rtol=1e-12)
    assert constants[0] == pytest.approx(c_triangle(0.25, 0.5, 1.0), rel=1e-12)


def test_pentagon_constant():
    assert c_pentagon(0.5) == pytest.approx(6.0 * math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        c_pentagon(-1.0)


def test_pentagon_constant_bounds_eigensolve():
    # The fixed pentagon value is an upper bound for actual pentagon cuts.
    cut, grid = cut_from_values([-1.0, -1.0, -3.0, 1.0])
    assert cut.shape == "pentagon"
    assert local_eig_C(cut, grid) <= c_pentagon(1.0) * (1.0 + 1e-12)


def test_symmetric_trapezoid_law():
    # theta1 == theta2 == theta gives exactly the 1D law 1 / (theta h).
    for theta in (0.1, 0.3, 0.5, 0.9, 1.0):
        for h in (1.0, 0.125):
            assert c_quadrilateral(theta, theta, h) == pytest.approx(
                1.0 / (theta * h), rel=1e-10)


def test_asymmetric_trapezoid_frozen_values():
    # Eigensolve outputs on the canonical trapezoid at h = 1/4.
    assert c_quadrilateral(0.2, 0.8, 0.25) == pytest.approx(
        13.396466919451875, rel=1e-10)
    assert c_quadrilateral(0.5, 1.0, 0.25) == pytest.approx(
        8.366884667889137, rel=1e-10)
    assert c_quadrilateral(0.9, 0.1, 0.25) == pytest.approx(
        15.234357189947138, rel=1e-10)


def test_trapezoid_validation():
    with pytest.raises(ValueError):
        c_quadrilateral(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        c_quadrilateral(0.5, 0.5, 0.0)


def test_constants_blow_up_monotonically_for_thin_cuts():
    # Shrinking fractions only ever enlarge the constants.
    hs = [c_one_dim(t, 1.0) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    tris = [c_triangle(t, 0.5, 1.0) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    quads = [c_quadrilateral(t, t, 1.0) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    for seq in (hs, tris, quads):
        assert all(a < b for a, b in zip(seq, seq[1:]))


def test_closed_form_dispatch():
    tri, grid = cut_from_values([-1.0, 3.0, 1.0, 5.0])
    assert closed_form_C(tri, grid) == c_triangle(0.25, 0.5, 1.0)
    pent, grid = cut_from_values([-1.0, -1.0, -3.0, 1.0])
    assert closed_form_C(pent, grid) == c_pentagon(1.0)
    quad, grid = cut_from_values([-1.0, 1.0, -1.0, 3.0])
    assert closed_form_C(quad, grid) == pytest.approx(
        local_eig_C(quad, grid), rel=1e-12)


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

def test_build_stabilization_local_vs_global():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16))
    cuts = system.cut_cells
    grid = system.grid
    local = build_stabilization(cuts, grid, gamma=2.0, mode="local")
    glob = build_stabilization(cuts, grid, gamma=2.0, mode="global")
    assert local.C == glob.C
    assert local.global_C == max(local.C.values())
    for cell, C in local.C.items():
        assert local.lam[cell] == pytest.approx(2.0 * C, rel=1e-15)
        assert glob.lam[cell] == pytest.approx(2.0 * glob.global_C, rel=1e-15)
    assert max(local.lam.values()) == pytest.approx(
        min(glob.lam.values()), rel=1e-12)


def test_build_stabilization_skips_neumann_chords():
    ls = domain_catalog("annulus")
    system = assemble(ProblemSpec(ls, 2.0 / 32))
    stab = build_stabilization(system.cut_cells, system.grid)
    dirichlet_cells = {c.cell for c in system.cut_cells if c.bc == DIRICHLET}
    assert set(stab.C) == dirichlet_cells
    assert dirichlet_cells  # the inner circle is Dirichlet
    assert len(dirichlet_cells) < len(system.cut_cells)


def test_build_stabilization_validation():
    with pytest.raises(ValueError):
        build_stabilization([], CartesianGrid(2, (0.0, 0.0), 1.0),
                            mode="other")
    with pytest.raises(ValueError):
        build_stabilization([], CartesianGrid(2, (0.0, 0.0), 1.0),
                            method="exact")
    with pytest.raises(ValueError):
        build_stabilization([], CartesianGrid(2, (0.0, 0.0), 1.0), gamma=0.0)


def test_eigensolve_method_matches_closed_form_on_disk():
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16))
    closed = build_stabilization(system.cut_cells, system.grid,
                                 method="closed_form")
    eig = build_stabilization(system.cut_cells, system.grid,
                              method="local_eig")
    for cell in eig.C:
        # Triangles/trapezoids agree to solver accuracy; pentagons use an
        # upper bound, so the closed form may only exceed the eigensolve.
        assert closed.C[cell] >= eig.C[cell] * (1.0 - 1e-8)


# ---------------------------------------------------------------------------
# Global constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta1", [0.01, 0.1, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", [32, 256, 1024])
def test_dense_global_constant_1d_law(theta1, n):
    # The genuinely global 1D eigensolve reproduces 1 / (theta1 h).
    h = 1.0 / n
    assert dense_global_C_1d(n, theta1, 0.5) == pytest.approx(
        1.0 / (theta1 * h), rel=1e-10)


def test_global_constant_2d_dense_vs_max_local():
    # Summing the per-cell inequalities bounds the dense global constant by
    # the max of the local ones; on the n=16 disk the ratio measures 0.937.
    ls = domain_catalog("disk")
    system = assemble(ProblemSpec(ls, 1.0 / 16))
    dense = dense_global_C_2d(system)
    max_local = global_C(system)
    assert dense <= max_local * (1.0 + 1e-10)
    assert dense >= 0.8 * max_local
    assert global_C(system, dense=True) == pytest.approx(dense, rel=1e-12)


def test_global_constant_requires_dirichlet_chords():
    # A disk fully inside the square but with Neumann tags everywhere.
    ls = domain_catalog("disk")
    neumann = LevelSet("neumann_disk", ls.components, ("neumann",),
                       params=ls.params, art_origin=ls.art_origin,
                       art_extent=ls.art_extent)
    system = assemble(ProblemSpec(neumann, 1.0 / 8))
    with pytest.raises(ValueError):
        global_C(system)


# ---------------------------------------------------------------------------
# Batched kernel against the general eigensolver
# ---------------------------------------------------------------------------

def test_pencil_max_matches_oracle_on_catalog_cuts():
    for name in ("disk", "annulus", "flower", "leaf", "hourglass"):
        ls = domain_catalog(name)
        system = assemble(ProblemSpec(ls, ls.art_extent / 32))
        batch = cut_cell_batch(system.cut_cells, system.grid)
        C = pencil_max(batch.B, batch.S)
        for k in range(len(C)):
            oracle = generalized_eig_max(batch.B[k], batch.S[k]).value
            assert C[k] == pytest.approx(oracle, rel=1e-10)


def test_singular_reduced_stiffness_raises_naming_the_cell():
    # A quadrilateral collapsed onto its chord has zero interior stiffness.
    h = 0.25
    chord = np.array([[h, 0.0], [h, h]])
    cut = CutCellGeometry(cell=(3, 5), shape="quadrilateral", theta=(1.0, 1.0),
                          polygon=np.array([[h, 0.0], [h, 0.0], [h, h], [h, h]]),
                          chord=chord, normal=np.array([1.0, 0.0]),
                          bc=DIRICHLET, nodes=np.arange(4))
    grid = CartesianGrid(8, (-0.75, -1.25), 2.0)
    batch = cut_cell_batch([cut], grid)
    assert np.isnan(pencil_max(batch.B, batch.S)).all()
    with pytest.raises(DegeneratePencilError, match=r"\(3, 5\)"):
        build_stabilization([cut], grid)
    with pytest.raises(DegeneratePencilError, match=r"\(3, 5\)"):
        local_eig_C(cut, grid)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=32, max_value=128),
       cx=st.floats(0.35, 0.65), cy=st.floats(0.35, 0.65),
       radius=st.floats(0.1, 0.3), aspect=st.floats(0.5, 1.0),
       ellipse=st.booleans())
def test_random_disks_and_ellipses_match_the_oracle(n, cx, cy, radius, aspect,
                                                    ellipse):
    """On random disks and axis-aligned ellipses, with cuts at arbitrary
    fractions, every batched trace constant matches the general eigensolver,
    S annihilates the constants and the operator is bitwise symmetric."""
    rx, ry = radius, radius * aspect if ellipse else radius

    def psi(x, y):
        return ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 - 1.0

    ls = LevelSet("ellipse", (psi,), (DIRICHLET,))
    try:
        system = assemble(ProblemSpec(ls, 1.0 / n,
                                      stabilization_method="local_eig"))
    except CheckerboardCellError:
        return
    assert (system.A - system.A.T).nnz == 0
    batch = cut_cell_batch(system.cut_cells, system.grid)
    np.testing.assert_allclose(batch.S @ np.ones(4), 0.0, atol=1e-13)
    C = system.stabilization.C
    assert set(C) == {cell for cell, d in zip(batch.cells, batch.dirichlet) if d}
    for k in np.flatnonzero(batch.dirichlet):
        oracle = generalized_eig_max(batch.B[k], batch.S[k]).value
        assert C[batch.cells[k]] == pytest.approx(oracle, rel=1e-10)

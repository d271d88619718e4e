"""Geometric multigrid for ghost nodal finite element discretizations.

The package solves the Poisson equation on domains defined implicitly by a
level-set function, discretized with bilinear elements on a background
Cartesian grid.  Dirichlet conditions are enforced weakly (Nitsche), with the
penalty sized per cut cell from its shape (closed forms for triangles and
pentagons, a local generalized eigenvalue problem for trapezoids), and the
resulting systems are solved by two-grid, V- and W-cycles whose transfer
operators come from the shape-function refinement identity.

Subpackages
-----------
linalg
    CSR product into a buffer, solver error types.
geometry
    Background grids, level sets, node snapping, cell classification and cut
    geometry extraction, plus the catalog of benchmark domains.
assembly
    Bilinear/linear form assembly in 2D; element kernels; the cells of a
    level, its DOFs and the one operator builder; the strong Dirichlet lift.
one_dim
    The 1D system of the interval domain with one weak Dirichlet and one
    Neumann end, operator and right-hand side gathered from its cells.
stabilization
    Penalty constants: closed forms for 1D, triangle and pentagon cuts, the
    batched pencil solve for trapezoids and pooled coarse cells, and the one
    penalty rule of every level.
multigrid
    Transfer operators, one hierarchy builder for 1D and 2D with every
    level on its free DOFs and its own coarse penalty, Gauss-Seidel
    smoothing, cycles, convergence traces.
experiments
    Config parsing, parameter sweeps, accuracy studies, CSV output.
cli
    The `ghostmg` command: run sweeps, list domains, verify invariants.
"""

# cli is not imported here, so that `python -m ghostmg.cli` runs it fresh;
# `import ghostmg.cli` loads it.
from ghostmg import (assembly, experiments, geometry, linalg, multigrid,
                     one_dim, stabilization)

__all__ = [
    "assembly",
    "cli",
    "experiments",
    "geometry",
    "linalg",
    "multigrid",
    "one_dim",
    "stabilization",
]

__version__ = "0.1.0"

"""Compatible macro-element FEM library (piecewise affine, exact divergence).

A 2D finite-element toolkit built on a six-way macro-triangle subdivision
with divergence-equalizing edge bubbles: every discrete velocity has
elementwise-constant divergence, which makes low-order elasticity
locking-free and the Stokes/Brinkman/Darcy family viscosity-robust.
"""

from .forms import (
    ConfigurationError,
    ProblemCoefficients,
    SaddleSystem,
    assemble_brinkman,
    assemble_elasticity,
    assemble_nitsche_brinkman_tangential,
)
from .mesh import (
    MacroMesh,
    MeshError,
    MeshFormatError,
    SubdividedMesh,
    build_mesh,
    generate_cook_mesh,
    generate_unit_square_mesh,
    read_mesh,
    subdivide,
    validate_mesh,
    write_mesh,
)
from .solve import SolveReport, SolverError, solve
from .space import (
    Dirichlet,
    FESpace,
    FieldSolution,
    Free,
    GeometryError,
    NormalZero,
    build_space,
    eval_velocity,
    fortin_interpolate,
    macro_divergence,
    project_p0,
)
from .vtk import write_vtk

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "Dirichlet",
    "FESpace",
    "FieldSolution",
    "Free",
    "GeometryError",
    "MacroMesh",
    "MeshError",
    "MeshFormatError",
    "NormalZero",
    "ProblemCoefficients",
    "SaddleSystem",
    "SolveReport",
    "SolverError",
    "SubdividedMesh",
    "assemble_brinkman",
    "assemble_elasticity",
    "assemble_nitsche_brinkman_tangential",
    "build_mesh",
    "build_space",
    "eval_velocity",
    "fortin_interpolate",
    "generate_cook_mesh",
    "generate_unit_square_mesh",
    "macro_divergence",
    "project_p0",
    "read_mesh",
    "solve",
    "subdivide",
    "validate_mesh",
    "write_mesh",
    "write_vtk",
]

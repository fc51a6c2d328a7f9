"""The tangential Brinkman formulation: strong normal constraint, weak
tangential one by Nitsche terms. Every added term carries the viscosity,
so at mu = 0 the formulation IS the plain Darcy saddle problem.
"""

from mce.bench import case_darcy
from mce.forms import (
    ProblemCoefficients,
    assemble_brinkman,
    assemble_nitsche_brinkman_tangential,
)
from mce.mesh import generate_unit_square_mesh, subdivide
from mce.space import build_space

print("tangential Nitsche terms vanish in the Darcy limit")
sub = subdivide(generate_unit_square_mesh(4))
space = build_space(sub, "normal")
co = ProblemCoefficients(mu=0.0, sigma=1.0, f=case_darcy().coefficients.f)
plain = assemble_brinkman(space, co)
nit = assemble_nitsche_brinkman_tangential(space, co)
print(f"   matrix difference entries: {(plain.matrix != nit.matrix).nnz} "
      f"(the two formulations coincide at mu = 0)")

"""Weak boundary conditions via Nitsche terms, two ways.

1. Elasticity with the normal displacement prescribed weakly on the whole
   boundary and the tangential part on a Dirichlet portion. The volumetric
   part of the boundary penalty acts on face-mean normal traces, which is
   what keeps the weak formulation locking-free: the energy error is
   unchanged between lambda = 1 and lambda = 1e6.
2. The tangential Brinkman formulation: strong normal constraint, weak
   tangential one. Every added term carries the viscosity, so at mu = 0
   the formulation IS the plain Darcy saddle problem.
"""

import numpy as np

from mce.bench import case_darcy, case_elasticity, error_norms
from mce.forms import (
    ProblemCoefficients,
    assemble_brinkman,
    assemble_nitsche_brinkman_tangential,
    assemble_nitsche_elasticity,
)
from mce.mesh import generate_unit_square_mesh, subdivide
from mce.solve import solve
from mce.space import FieldSolution, build_space

print("1. weakly imposed elasticity boundary conditions")
for lam in (1.0, 1e6):
    errs = []
    case = case_elasticity(lam)
    for n in (4, 8, 16):
        sub = subdivide(generate_unit_square_mesh(n))
        system = assemble_nitsche_elasticity(
            build_space(sub, "free"), case.coefficients,
            dirichlet_tags=set(case.boundary), g=case.velocity)
        u, _, _ = system.expand(solve(system).solution)
        sol = FieldSolution(system.space, u)
        errs.append(error_norms(sol, case).h1_u)
    rates = [np.log(errs[i] / errs[i + 1]) / np.log(2) for i in range(2)]
    print(f"   lambda = {lam:8.0e}: H1 errors "
          f"{', '.join(f'{e:.4f}' for e in errs)}  (rates "
          f"{', '.join(f'{r:.2f}' for r in rates)})")

print("\n2. tangential Nitsche terms vanish in the Darcy limit")
sub = subdivide(generate_unit_square_mesh(4))
space = build_space(sub, "normal")
co = ProblemCoefficients(mu=0.0, sigma=1.0, f=case_darcy().coefficients.f)
plain = assemble_brinkman(space, co)
nit = assemble_nitsche_brinkman_tangential(space, co)
print(f"   matrix difference entries: {(plain.matrix != nit.matrix).nnz} "
      f"(the two formulations coincide at mu = 0)")

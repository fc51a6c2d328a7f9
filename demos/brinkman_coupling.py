"""Coupled Stokes-Brinkman flow on (0,2)^2 driven by a vertical body force.

Normal coupling: free flow below y = 1, porous region above, walls left and
right, open top and bottom. The flow turns from a parabolic profile into a
plug as it crosses the interface; mass is conserved triangle by triangle
for every viscosity contrast.

Tangential coupling: porous region left of x = 1 (sigma = 1000), free flow
to the right (mu = 100), slip wall at x = 0, no-slip at x = 2. The forced
tangential continuity at the interface cannot be upheld as mu/sigma -> 0
in the porous region and the velocity profile along y = 1 develops
oscillations around x = 1.
"""

import numpy as np

from mce.bench import (
    NORMAL_MUS,
    TANGENTIAL_MUS,
    run_brinkman_scenarios,
    second_difference_sign_changes,
)
from mce.space import macro_divergence
from mce.vtk import write_vtk

N = 40  # cells per side; the full-size runs use 80
# both scenarios run on one mesh, each with its default viscosities
normal, tangential = run_brinkman_scenarios(("normal", "tangential"), n=N)

print("normal coupling (upper-region viscosities", list(NORMAL_MUS), ")")
for mu in normal.mu_values:
    sol = normal.solutions[mu]
    div = macro_divergence(sol.space, sol.velocity)
    print(f"  mu = {mu:8.0e}: max |div u_h| = {np.abs(div).max():.2e}, "
          f"max |u| = {np.abs(sol.velocity).max():.3f}")
    write_vtk(sol, f"brinkman_normal_mu{mu:g}.vtk",
              title=f"normal coupling mu={mu:g}")

print("\ntangential coupling (porous-region viscosities",
      list(TANGENTIAL_MUS), ")")
for mu in tangential.mu_values:
    xs, vals = tangential.profiles[mu]
    count = second_difference_sign_changes(xs, vals[:, 1])
    flag = "oscillating" if count >= 2 else "smooth"
    print(f"  mu = {mu:8.0e}: profile curvature sign changes near x=1: "
          f"{count} ({flag})")
    tangential.profile_csv(f"brinkman_tangential_mu{mu:g}_profile.csv", mu)

print("\nwrote VTK fields and y=1 velocity profiles (CSV)")

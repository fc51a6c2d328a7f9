"""Cook's membrane: the macro element stays soft as the material becomes
incompressible, plain affine elements lock.

The tapered panel (corners (0,0), (48,44), (48,60), (0,44)) is clamped on
the left, loaded by a unit vertical shear traction on the right, and
traction-free elsewhere; Young's modulus 200, plane strain. The tip is the
upper right corner (48, 60). As nu -> 0.5 the first Lame coefficient blows
up; elements without a divergence-compatible pressure space then
drastically underestimate the deflection.
"""

from mce.bench import case_cooks, run_locking_study
from mce.vtk import write_vtk

NUS = [0.3, 0.4, 0.49, 0.4999, 0.49999]
N = 16

record = run_locking_study(NUS, n=N)
print(f"{'nu':>9} {'lambda':>12} {'tip (macro)':>13} {'tip (P1)':>11} "
      f"{'P1/macro':>9}")
for row in record.rows:
    lam = case_cooks(row["nu"]).lam
    ratio = row["tip_affine"] / row["tip_compatible"]
    print(
        f"{row['nu']:>9} {lam:>12.4g} {row['tip_compatible']:>13.6f} "
        f"{row['tip_affine']:>11.6f} {ratio:>9.3f}"
    )

print("\nThe macro-element tip displacement is essentially independent of")
print("nu near 0.5, while the plain affine element collapses toward zero.")

record.to_csv("cooks_tips.csv")
write_vtk(record.last, "cooks_solution.vtk", title="cooks membrane displacement")
print("\nwrote cooks_tips.csv and cooks_solution.vtk")

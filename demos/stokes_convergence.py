"""Stokes benchmark on the unit square: convergence table and rates.

Manufactured solution u = (20 x y^3, 5 x^4 - 5 y^4), p = 60 y x^2 - 20 y^3
- 5 with zero body force; Dirichlet data from the exact velocity, so the
pressure level is free and the solve fixes it at zero mean. Velocity
converges at second order in L2 and first order in H1; the
piecewise-constant pressure at first order.
"""

from mce.bench import case_stokes, run_convergence

LEVELS = [4, 8, 16, 32]

case = case_stokes()
print(f"consistency of the manufactured data: "
      f"{case.check_consistency():.2e} (should be ~1e-16)\n")

record = run_convergence(case, LEVELS)
header = f"{'n':>4} {'NNO':>6} {'h':>9} {'L2(u)':>12} {'H1(u)':>12} " \
         f"{'L2(p)':>12} {'|pi0 p - ph|':>13} {'div':>9}"
print(header)
for row in record.rows:
    print(
        f"{row['n']:>4} {row['NNO']:>6} {row['h']:>9.5f} "
        f"{row['err_l2_u']:>12.4e} {row['err_h1_u']:>12.4e} "
        f"{row['err_l2_p']:>12.4e} {row['err_p0p']:>13.4e} "
        f"{row['err_div']:>9.1e}"
    )
print("\nfitted slopes (least squares over the last 3 levels):")
for name, slope in sorted(record.slopes.items()):
    print(f"  {name:>14} = {slope:6.3f}")

record.to_csv("stokes_convergence.csv")
print("\nwrote stokes_convergence.csv")

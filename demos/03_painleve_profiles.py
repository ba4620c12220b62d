"""The two Painleve-type profiles behind the critical expansions.

Solves the Hastings-McLeod connection problem and the pole-free solution
of the fourth-order profile equation, and replays their defining
equations on the stored grids.
"""
import numpy as np

from kdvrmt import painleve
from kdvrmt.core import airy

print("== Hastings-McLeod connection problem ==")
hm = painleve.solve_hastings_mcleod(10.0, 4001)
print(f"  grid residual (FD replay): {hm.residual_norm:.2e}")
print(f"  q(0)        = {painleve.eval_hm(hm, 0.0):.12f}")
print(f"  q(8)/Ai(8)  = {painleve.eval_hm(hm, 8.0)/airy(8.0):.10f}")
print(f"  q(-8)/2     = {painleve.eval_hm(hm, -8.0)/2.0:.10f}")
print(f"  min q       = {hm.q_values.min():.3e}  (positive branch)")

print("\n== pole-free fourth-order profile ==")
for t_param in (0.0, 1.0, -1.0):
    sol = painleve.pi2_solution_cached(t_param, 50.0)
    print(
        f"  T = {t_param:+.0f}: residual {sol.residual_norm:.2e}, "
        f"U(0) = {painleve.eval_pi2(sol, 0.0):+.8f}, "
        f"U(+-50) within {sol.boundary_mismatch:.1e} of the two-term tail"
    )

sol0 = painleve.pi2_solution_cached(0.0, 50.0)

print("\n== tail structure beyond the two-term expansion (T = 0) ==")
xs = np.linspace(15.0, 45.0, 7)
for x in xs:
    mism = painleve.eval_pi2(sol0, float(x)) - float(painleve.pi2_asymptote(float(x), 0.0))
    print(f"  X = {x:5.1f}: U - tail = {mism:+.3e}   X^2 (U - tail) = {x*x*mism:+.5f}")
print("  the product settles near 1/36: at T = 0 the first omitted term is X^-2/36")

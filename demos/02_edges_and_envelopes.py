"""Edge systems, the cusp-shaped phase diagram, and the two edge expansions.

Solves the leading/trailing edge systems past the catastrophe, traces the
cusp, and evaluates the Airy-envelope modulation at the left edge and the
soliton train at the right edge, comparing the former against the direct
solver in its window of validity.
"""
import math

import numpy as np

from kdvrmt import hopf, kdv_asym, kdv_direct

data = hopf.make_sech2_data()
cp = hopf.breaking_point(data)

print("== edge curves emanating from the catastrophe point ==")
rows = kdv_asym.kdv_phase_diagram(data, [0.22, 0.24, 0.26])
print(f"  cusp vertex: ({cp.x_c:.4f}, {cp.t_c:.4f})")
for r in rows:
    print(f"  t={r['t']:.2f}: x- = {r['x_minus']:+.6f}, x+ = {r['x_plus']:+.6f}, width = {r['x_plus']-r['x_minus']:.4f}")
print("  (the trailing system loses solvability near t ~ 0.266 for this profile,")
print("   where its branch value reaches the profile minimum; the sweep reports it)")

t = 0.4
edge = kdv_asym.solve_leading_edge(t, data)
print(f"\n== leading edge at t = {t} ==")
print(f"  x- = {edge.x_edge:+.6f}, u = {edge.u:+.6f}, v = {edge.v:+.6f}")
print(f"  residual replay: 6t + theta(v;u) = {6*t + hopf.theta_of(edge.v, edge.u, data):+.2e}")

eps = 0.06
field = kdv_direct.solve_kdv(data, eps=eps, t_final=t)
xs = np.linspace(edge.x_edge - 0.2, edge.x_edge + 0.4, 9)
print(f"\n  direct vs Airy-envelope modulation at eps = {eps}:")
for x in xs:
    d = kdv_direct.probe(field, float(x))
    a = kdv_asym.leading_edge_approx(float(x), t, eps, edge, data)
    print(f"    x = {x:+.3f}: direct {d:+.5f}  modulated {a:+.5f}  diff {abs(d-a):.4f}")
wavelength = math.pi * eps / math.sqrt(edge.u - edge.v)
print(f"  predicted oscillation wavelength near the edge: {wavelength:.4f}")

print("\n== trailing edge soliton train at t = 0.25 ==")
trail = kdv_asym.solve_trailing_edge(0.25, data)
print(f"  x+ = {trail.x_edge:+.6f}, u = {trail.u:+.6f}, v = {trail.v:+.6f}")
for y in (0.4, 0.6, 0.8, 1.4, 1.6):
    val = kdv_asym.trailing_edge_approx(y, 0.25, 0.01, trail, data)
    x_phys = kdv_asym.trailing_edge_x(y, 0.01, trail)
    print(f"  y = {y:.1f} (x = {x_phys:+.4f}): u_train = {val:+.5f}")
print("  peaks appear where a train center crosses zero; far outside (y < 0)")
print(f"  the value returns to the branch level u = {trail.u:+.5f}")

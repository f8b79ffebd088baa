"""Energy transport of the moving pair bound state.

The electron-photon pair at total momentum s = p + k is governed by the fiber
operator (1/4)(q+s)^2 + (1/2)|q-s| + V(2u), with q = p - k and u = (x - y)/2
its conjugate grid coordinate.  The same energies come out of the
total-momentum-s sector of the two-particle operator written in the relative
coordinate r = x - y, p^2 + |s - p| + V(r), which the scan is compared with.

Boosting the resting bound state is a variational trial state, so
lambda(s) <= lambda0 + s^2; the scan measures a quadratic coefficient near
0.51: the photon cloud lags the boost, adding inertia.  The fibered continuum
edge, in contrast, moves by exactly s^2 in closed form.
"""

import numpy as np

from scatterlab import continuum_edge, default_model, dispersion_scan, make_grid
from scatterlab.experiments import PAIR_REFERENCE_GRID, pair_sector_hamiltonian
from scatterlab.spectral import iterative_lowest, quadratic_fit

model = default_model()
grid = make_grid(1, 512, 32.0)
svals = np.array([0.0, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3])
curve = dispersion_scan(model, grid, svals)
ref_grid = make_grid(*PAIR_REFERENCE_GRID)
reference = np.array([
    iterative_lowest(pair_sector_hamiltonian(model, s), ref_grid, 1, tol=1e-12).eigenvalues[0]
    for s in curve.s_values
])

print(f"lambda0 = {curve.lambda0:.8f}\n")
print("   s       lambda(s)    sector ref    lambda-s^2    edge(s)    flagged")
for s, lam, ref, fl in zip(curve.s_values, curve.lambdas, reference, curve.flagged):
    print(f"{s:+.2f}   {lam:+.8f}   {ref:+.8f}   {lam - s*s:+.8f}   "
          f"{continuum_edge(s):+.6f}   {bool(fl)}")

keep = ~curve.flagged
print(f"\nleast-squares fit lambda(s) ~ a + b s + c s^2 over the kept fibers:")
print(f"  a (binding)        = {curve.lambda0:+.6f}")
print(f"  b (symmetry check) = {curve.linear_coefficient:+.2e}")
print(f"  c (transport)      = {curve.quad_coefficient:+.6f}")
print(f"  c of the sector reference on its larger box = "
      f"{quadratic_fit(curve.s_values[keep], reference[keep])[2]:+.6f}")
print(f"  max |lambda - s^2 - lambda0| = {curve.max_deviation:.3e}")
print("\nc < 1: effective-mass renormalization of the dressed pair.")
print("the rigid-transport value c = 1 is only the variational upper bound.")
print("the |k| kink gives the pair a power-law tail, so c depends on the box.")

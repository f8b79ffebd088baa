"""Grids, wavefunctions, and the three subsystem spectra.

The model has one non-relativistic particle (kinetic energy p^2), one
massless particle (kinetic energy |k|), and a fixed center.  Each pair
interaction binds a subsystem; this demo diagonalizes all three subsystem
Hamiltonians on a one-particle grid and cross-checks the dense oracle with
the matrix-free Lanczos solver.
"""

import numpy as np

from scatterlab import (
    ClusterId,
    TWO_CLUSTERS,
    dense_spectrum,
    default_model,
    iterative_lowest,
    make_grid,
)

grid = make_grid(particles=1, points_per_axis=512, half_extent=32.0)
print(f"grid: N={grid.points_per_axis}, box [-{grid.half_extent}, {grid.half_extent}), "
      f"dx={grid.spacing}, momentum spacing pi/L={np.pi/grid.half_extent:.5f}")

model = default_model()
print("\nmodel: three Poschl-Teller wells, depth 2, width 1")
print("subsystem kinetic energies: p^2 | |k| | (1/4)q^2 + (1/2)|q|\n")

for a in TWO_CLUSTERS:
    h = model.subsystem(a)
    res = dense_spectrum(h, grid, 4)
    it = iterative_lowest(h, grid, 1)
    bound = res.eigenvalues[res.eigenvalues < -1e-6]
    print(f"cluster {a}:")
    print(f"  dense lowest eigenvalues : {np.array2string(res.eigenvalues, precision=8)}")
    print(f"  bound states             : {np.array2string(bound, precision=8)}")
    print(f"  Lanczos ground           : {it.eigenvalues[0]:.10f} "
          f"(residual {it.residuals[0]:.2e})")
    print(f"  oracle agreement         : {abs(it.eigenvalues[0] - res.eigenvalues[0]):.2e}\n")

# the deep electron-proton well is the classic exactly-solvable case: depth
# l(l+1) = 2 binds exactly one state at -1
h = model.subsystem(ClusterId.PHOTON_FREE)
res = dense_spectrum(h, make_grid(1, 256, 16.0), 1)
print(f"electron-proton well ground state: {res.eigenvalues[0]:.8f} (exact continuum: -1)")

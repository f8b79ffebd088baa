"""The dilation generator, virial identity, and sampled positivity.

The conjugate operator A = (P.X + X.P)/2 never gets assembled as a matrix:
the commutator [H, iA] is evaluated as a quadratic form from two inner
products, and independently through its closed-form right-hand side.  On
eigenvectors the form vanishes (virial); on spectrally filtered states it is
bounded below by d(E) - eps, which this demo samples in the free case.
"""

import numpy as np

from scatterlab import (
    ClusterId,
    analytic_commutator_apply,
    commutator_form,
    default_model,
    dense_spectrum,
    free_model,
    make_grid,
    mourre_report,
    sqrt_lemma_eval,
)
from scatterlab.experiments import admissible_random_state, free_threshold_table

model = default_model()
grid1 = make_grid(1, 256, 32.0)

# 1. virial identity on a bound state
h = model.subsystem(ClusterId.PHOTON_FREE)
res = dense_spectrum(h, grid1, 1)
form = commutator_form(res.eigenvectors[0], h)
print(f"virial on the bound state at {res.eigenvalues[0]:+.6f}: form = {form:.2e}")

# 2. path independence: quadratic form vs closed-form commutator
rng = np.random.default_rng(0)
psi = admissible_random_state(grid1, rng, (2.2,))
lhs = psi.inner(analytic_commutator_apply(psi, ClusterId.PAIR_FREE, model)).real
rhs = commutator_form(psi, model.subsystem(ClusterId.PAIR_FREE))
print(f"closed-form route {lhs:.10f} vs form route {rhs:.10f} "
      f"(diff {abs(lhs-rhs):.2e})")

# 3. the resolvent integral representation of |k|
for k in (0.01, 1.0, 10.0):
    print(f"sqrt lemma at k={k}: quadrature {sqrt_lemma_eval(k, 1e-8):.10f}")

# 4. free-case positivity: every filtered sample beats E - delta
grid2 = make_grid(2, 128, 64.0)
report = mourre_report(E=1.0, window=(0.9, 1.1), model=free_model(), grid=grid2,
                       table=free_threshold_table(), samples=8, seed=1,
                       deflation_count=0, boundary_tol=5e-2)
print(f"\nfree positivity at E=1, window (0.9, 1.1): bound {report.bound}")
print(f"form values: {np.array2string(report.form_values, precision=4)}")
print(f"min form {report.min_form:.4f}, violations {report.violations}")

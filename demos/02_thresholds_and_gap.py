"""Thresholds and the gap function.

The negative subsystem eigenvalues, together with zero, are the thresholds.
The gap d(E) is the distance from E down to the nearest threshold of any
cluster; below every threshold it falls back to a fixed positive constant.
The commutator positivity constant at energy E degrades exactly like d(E).
"""

import numpy as np

from scatterlab import TWO_CLUSTERS, default_model, distance_to_threshold, make_grid
from scatterlab.spectral import GAP_BELOW_THRESHOLDS, threshold_table

model = default_model()
table = threshold_table(model, make_grid(1, 512, 32.0))

print("per-cluster negative eigenvalues:")
for a in TWO_CLUSTERS:
    print(f"  {a}: {np.array2string(table.per_cluster[a], precision=6)}")
print(f"\nthreshold set: {np.array2string(table.thresholds, precision=6)}")
print(f"fallback constant b = {GAP_BELOW_THRESHOLDS}")

print("\n  E        d(E)")
for E in np.linspace(-1.6, 1.0, 27):
    print(f"{E:+.2f}   {distance_to_threshold(E, table):8.4f}")

print("\nnote the zeros at the thresholds themselves and the reset to b below")
print("the lowest one; adding a threshold above E never changes d(E).")

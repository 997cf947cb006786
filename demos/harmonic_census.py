#!/usr/bin/env python3
"""Census of harmonic polynomial spaces.

Counts the homogeneous and harmonic dimensions, builds an explicit basis,
and checks the orthonormalized members against a quadrature Gram matrix.
"""

import numpy as np

from hyperharm import (
    count_harmonic,
    count_homogeneous,
    harmonic_basis_raw,
    orthonormalize,
    sphere_quadrature,
)

print("dimension table: K = homogeneous, N = harmonic")
header = "n".rjust(4) + "".join(f"  p={p}".rjust(12) for p in range(2, 7))
print(header)
for n in range(0, 7):
    cells = []
    for p in range(2, 7):
        cells.append(f"{count_homogeneous(p, n)}/{count_harmonic(p, n)}".rjust(12))
    print(str(n).rjust(4) + "".join(cells))

print("\nraw members for p=3, n=2 (each one has an exactly zero laplacian)")
for q in harmonic_basis_raw(3, 2):
    print("  ", q, " laplacian zero:", q.laplacian().is_zero())

print("\northonormalization at p=4, n=3")
basis = orthonormalize(4, 3)
print("  members:", len(basis.members))
# the exact gram is gram_scale times a diagonal, so its rank is the count of nonzero entries
print("  exact gram rank:", sum(v > 0 for v in basis.gram_blocks))

# integrating member products over the sphere should give the identity;
# the product of two degree-3 members needs a degree-6 rule
rule = sphere_quadrature(4, 6)
vals = basis.evaluate_members(rule.nodes)
gram = vals.T @ (rule.weights[:, None] * vals)
off = gram - np.eye(len(basis.members))
print(f"  quadrature gram deviation from identity: {np.max(np.abs(off)):.2e}")

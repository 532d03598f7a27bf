#!/usr/bin/env python3
"""Farey dissection: arcs, bump ladders, and the major/minor split.

Each reduced fraction a/q with q <= N/10 carries an interval of radius
1/(qN) and a ladder of mean-zero bumps partitioning unity on it; the arc
system's ladders are the arc set, and its 4I arcs a/q -+ 4/(qN) are
pairwise disjoint.  The
multiplier decomposes as m = m_maj + m_min with m_maj supported near the
fractions; on every arc the minor part vanishes identically.
"""

import numpy as np

from paravg import OperatorParams, PieceSpec
from paravg.arcs import arc_system, piece_multipliers

N = 64
system = arc_system(N)
print(f"major arcs at N = {N} (q <= {N // 10}):")
for lad in system.ladders.values():
    print(
        f"  {lad.frac.a}/{lad.frac.q:<3d} center {lad.frac.center:.4f} "
        f"radius {1.0 / (lad.frac.q * N):.5f}"
    )
print(f"4I arcs pairwise disjoint: {system.arcs_4i_disjoint()}")
print("\nladder scales per denominator (dyadic up to Nq < N^2, then the core):")
for (q, a), lad in sorted(system.ladders.items()):
    if a == (1 if q > 1 else 0):
        print(f"  q = {q}: {lad.scales}")

print("\npartition of unity on the arc of 1/2 (samples of the ladder sum):")
lad = system.ladders[(2, 1)]
for frac_of_radius in (0.0, 0.3, 0.9):
    xi = 0.5 + frac_of_radius / (N * 2)
    total = sum(lad.eta(level, xi) for level in lad.levels())
    print(f"  xi = 1/2 + {frac_of_radius:.1f}/(Nq): ladder sum = {total:.15f}")

params = OperatorParams.smooth(2, N)
rng = np.random.default_rng(0)
print("\nmaj + min == whole at random frequencies:")
xi = rng.random((200, 2))  # the same draws as 200 calls of rng.random(2)
whole, maj, mino = piece_multipliers([PieceSpec(kind) for kind in ("whole", "maj", "min")], xi, params)
worst = max(abs(d) for d in (whole - (maj + mino)).tolist())
print(f"  max deviation over 200 samples: {worst:.2e}")

print("\nminor part on the arc of 1/3 (should vanish):")
for du in (-0.9, 0.0, 0.7):
    xi = (0.27, (1 / 3 + du / (3 * N)) % 1.0)
    print(f"  |m_min| = {abs(piece_multipliers([PieceSpec('min')], xi, params)[0]):.2e}")

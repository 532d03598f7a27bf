#!/usr/bin/env python3
"""Fourier coefficients of the multiplier pieces: closed form vs quadrature.

Orthogonality in the first n-1 frequency coordinates collapses a piece's
coefficient at r = (r', r_n) to sigma weights times the one-dimensional
bump transform at the residual |r'|^2 - r_n.  Consequences on display:

* the closed form agrees with a blind quadrature oracle to ~1e-12;
* every piece coefficient vanishes exactly on the paraboloid r_n = |r'|^2;
* coefficient size decays like the inverse of the piece's frequency scale,
  uniformly in N once normalized;
* the minor-arc coefficient reaches 1 on the paraboloid, even for the sharp
  cutoff at n = 3, where sigma(0) = 0 keeps the sup off the axes.
"""

import numpy as np

from paravg import CoefficientQuery, OperatorParams, PieceSpec
from paravg.coefficients import (
    coefficient_decay_report,
    coefficient_scale,
    minor_coefficient_report,
    piece_coefficient,
    piece_coefficient_oracle,
)

params = OperatorParams.smooth(2, 8)
spec = PieceSpec("dyadic", 2, 0)

print("closed form vs oracle at scattered lattice points:")
rng = np.random.default_rng(7)
for _ in range(6):
    r = (int(rng.integers(-12, 13)), int(rng.integers(-200, 201)))
    query = CoefficientQuery(spec, r, params)
    closed = piece_coefficient(query)
    oracle = piece_coefficient_oracle(query)
    print(
        f"  r = {str(r):<12} residual {query.residual:<6d} "
        f"|closed| = {abs(closed):.3e}  |closed - oracle| = {abs(closed - oracle):.1e}"
    )

print("\nexact vanishing on the paraboloid r_n = |r'|^2:")
for r1 in (-5, 2, 7):
    query = CoefficientQuery(spec, (r1, r1 * r1), params)
    print(f"  r = ({r1}, {r1 * r1}): coefficient = {piece_coefficient(query)}")

print("\nnormalized decay constants across the scale sweep (fixed piece family):")
for N in (8, 16, 32):
    rep = coefficient_decay_report(spec, OperatorParams.smooth(2, N))
    print(
        f"  N = {N:<3d} sup = {rep.values['sup']:.3e}  normalized = {rep.constant:.4f}"
        f"  (sup at residual {rep.values['argmax_residual']:g})"
    )
print("piece scale for reference:", coefficient_scale(spec, params))

print("\nexact minor-coefficient sup over the scan box, sharp cutoff, n = 3:")
for N in (16, 32):
    rep = minor_coefficient_report(OperatorParams.sharp(3, N))
    print(f"  N = {N:<3d} sup = {rep.values['sup']:.6f}  normalized = {rep.constant:.4f}  ({rep.notes})")

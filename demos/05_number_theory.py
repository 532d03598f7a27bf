#!/usr/bin/env python3
"""Divisor statistics and complete exponential sums behind the arc estimates.

Complete sums over reduced residues are integers (two independent
computations must agree), their dyadic blocks are controlled by truncated
divisor counts, and the level sets {k : d(k, Q) > D} shrink polynomially
in D - the mechanism that replaces epsilon losses with a tunable
threshold.
"""

from paravg.numtheory import (
    divisor_level_counts,
    paraboloid_divisor_count,
    ramanujan_block_report,
    ramanujan_sum,
    truncated_divisor_count,
)

print("complete sums c_q(k) (direct summation == Moebius formula):")
for q, k in ((1, 7), (5, 0), (6, 1), (12, 8), (36, 24)):
    print(f"  c_{q}({k}) = {ramanujan_sum(q, k)}")

print("\ntruncated divisor counts d(k, Q):")
for k, Q in ((12, 4), (720, 8), (997, 8)):
    print(f"  d({k}, {Q}) = {truncated_divisor_count(k, Q)}")

print("\nblock sums vs Q^(1+eps) d(k, Q) (eps = 0.1):")
for Q in (1, 4, 16, 64):
    rep = ramanujan_block_report(Q, 720, 0.1)
    print(f"  Q = {Q:<3d} ratio = {rep.constant:.4f}")

print("\ndivisor level sets |{k <= 1e5 : d(k, Q) > D}| and the D^-2 Q^0.5 bound:")
Ds = [2.0, 8.0, 32.0]
for Q in (16, 64):
    for D, (count, rep) in zip(Ds, divisor_level_counts(10**5, Q, Ds)):
        print(f"  Q = {Q:<3d} D = {D:<5g} count = {count:<6d} ratio = {rep.values['ratio']:.4f}")

print("\nlattice points near the paraboloid with divisor-rich residuals:")
for D in (1.0, 2.0, 4.0):
    count = paraboloid_divisor_count(N=16, K=256, Q=8, D=D, n=2)
    print(f"  D = {D:g}: {count} points with d(r_n - |r'|^2, 8) > D")

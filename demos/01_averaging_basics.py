#!/usr/bin/env python3
"""Averaging along the discrete paraboloid: kernels, exact values, extremizers.

The operator averages a function over the N^(n-1) translates
(k_1, ..., k_{n-1}, k_1^2 + ... + k_{n-1}^2), 1 <= k_i <= N.  Two families
of test functions are interesting:

* the box {1..2N}^(n-1) x {1..nN^2}, whose average is exactly 1 on the
  block {1..N}^(n-1) x {1..N^2};
* the delta at the origin, whose average spreads N^(n-1) equal values over
  a reflected paraboloid patch.

Everything printed here is an exact integer/dyadic identity.
"""

from paravg import OperatorParams, average, box_indicator, delta, lp_norm, paraboloid_kernel

n, N = 2, 4
params = OperatorParams.sharp(n, N)

print(f"kernel support for n={n}, N={N}:")
kernel = paraboloid_kernel(params)
for point, w in kernel.items():
    print(f"  {point}  weight {w.real:g}")
print(f"kernel mass = {lp_norm(kernel, 1):g} = N^(n-1)")

print("\naveraged box (should be exactly 1 on the core block):")
box = box_indicator((1, 1), (2 * N, n * N * N))
abox = average(box, params)
row = [abox((x1, 3)).real for x1 in range(-2, 8)]
print("  values along x2=3:", ["%g" % v for v in row])
core_ok = all(
    abox((x1, x2)) == 1.0 for x1 in range(1, N + 1) for x2 in range(1, N * N + 1)
)
print("  exactly 1 on {1..N} x {1..N^2}:", core_ok)

print("\naveraged delta (N^(n-1) values of size N^(1-n)):")
adelta = average(delta((0, 0)), params)
for point, v in adelta.items():
    print(f"  {point}  {v.real:g}")

print("\nnorm ratios |A f|_p' / |f|_p at p = 2:")
print(f"  box:   {lp_norm(abox, 2.0) / lp_norm(box, 2.0):.6f}  (stays ~const in N)")
print(f"  delta: {lp_norm(adelta, 2.0) / lp_norm(delta((0, 0)), 2.0):.6f}  (= N^(-1/2))")

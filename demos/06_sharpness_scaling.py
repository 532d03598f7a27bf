#!/usr/bin/env python3
"""Sharpness experiments: scaling exponents and the q < p obstruction.

The ratio |A f|_p' / |f|_p decays like N^(-(n+1)(2/p-1)) for the box
family and N^(-(n-1)/p) for the delta family; the exponents cross at
p = (n+3)/(n+1), which is the boundary of the improving range.  Below it
the delta family decays slower, so the box exponent cannot extend.

For q < p no estimate exists at all: splitting any f into two distant
copies multiplies the ratio by 2^(1/q - 1/p) > 1, indefinitely.

Writes scaling CSVs and a log-log SVG next to this script when run.
"""

from pathlib import Path

from paravg import OperatorParams, delta, scaling_fit, sharp_threshold, two_bump_separation_probe
from paravg.cli import emit_plot

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
Ns = [8, 16, 32, 64, 128]

print("fitted log-log slopes (n = 2):")
rows = []
for p, source in ((1.8, "box"), (2.0, "box"), (5 / 3, "delta"), (2.0, "delta")):
    fit = scaling_fit(Ns, 2, p, source)
    print(
        f"  {source:<6s} p = {p:<8.4g} slope = {fit.slope:+.4f} "
        f"target = {fit.target:+.4f} residual = {fit.residual:.4f}"
    )
    if source == "box" and p == 1.8:
        rows = [(2, N, p, source, v) for N, v in zip(fit.Ns, fit.values)]

csv_path = out / "box-scaling.csv"
with open(csv_path, "w") as fh:
    fh.write("n,N,p,source,value\n")
    for row in rows:
        fh.write(",".join(map(repr, row)).replace("'", "") + "\n")
svg = emit_plot(csv_path)
print(f"\nwrote {csv_path} and {svg}")

thr = sharp_threshold(2)
print(f"\ncrossover at p = (n+3)/(n+1) = {thr:.4f}: exponent comparison")
for p in (1.4, thr, 1.9):
    box_exp = -(3) * (2 / p - 1)
    delta_exp = -1 / p
    who = "delta" if delta_exp > box_exp + 1e-12 else ("box" if box_exp > delta_exp + 1e-12 else "tie")
    print(f"  p = {p:.4f}: box {box_exp:+.4f} delta {delta_exp:+.4f} -> slower decay: {who}")

print("\nthe q < p doubling obstruction (f = delta, p = 2, q = 1):")
params = OperatorParams.sharp(2, 8)
rep, _ = two_bump_separation_probe(delta((0, 0)), [(640, 0), (1280, 0)], 2.0, 1.0, params)
for key, gain in rep.values.items():
    print(f"  {key}: measured ratio gain {gain:.12f} (predicted {rep.constant:.12f})")
print("each doubling multiplies the ratio by 2^(1/q - 1/p); no bound survives")

"""Classify traveling-wave parameter sets by the zeros of the quartic.

Every traveling wave u = f(x - ct) of the coupled system obeys
(f')^2 = F(f) with F a quartic in f, so the real zeros of F and their
multiplicities decide everything: no real zeros means no wave, a double zero
flanked by simple ones means a solitary pulse, simple zeros in a row mean
periodic orbits.  This script walks the whole taxonomy.
"""

import numpy as np

import kbwave as kb

CONFIGS = [
    ("solitary pair (double between simples)", kb.Params(2.0, -7 / 4, -7 / 2, -3 / 2)),
    ("four simple zeros (periodic)", kb.Params(2.0, -25 / 16, -25 / 8, -39 / 32)),
    ("double zero above the band", kb.Params(1.0, 3 / 4, 0.0, 0.0)),
    ("no real zeros", kb.Params(0.0, 0.0, 0.0, -1 / 8)),
    ("one double zero only", kb.Params(-0.5, -0.25, 0.25, -0.125)),
    ("two simple zeros + complex pair", kb.Params(0.0, 0.0, 0.0, 1 / 8)),
    ("vanishing boundary, c = 2", kb.Params(2.0, 0.0, 0.0, 0.0)),
]

print(f"{'configuration':<40} {'case':<24} existence")
print("-" * 92)
for label, params in CONFIGS:
    roots = kb.roots_of_F(params)
    tag = kb.classify(roots)
    verdict = kb.existence(tag)
    print(f"{label:<40} {tag.value:<24} {verdict}")
    if roots.entries:
        pretty = ", ".join(f"{v:+.4f} (x{m})" for v, m in roots.entries)
        print(f"{'':<40}   zeros: {pretty}")

print()
print("Bands of F > 0 of the solitary fixture, and the orbit at each edge:")
params = CONFIGS[0][1]
ORBIT_AT = {1: "turning point, f'' =", 2: "exponential approach, rate",
            3: "algebraic approach, rate"}
for lower, upper in kb.bands(params, kb.roots_of_F(params)):
    print(f"  band [{lower.value:+.4f}, {upper.value:+.4f}]")
    for edge in (lower, upper):
        print(f"    f = {edge.value:+.4f} (x{edge.mult}): {ORBIT_AT[edge.mult]} {edge.rate:.4f}")

print()
print("Round trip: parameters -> zeros -> parameters")
roots = kb.roots_of_F(params)
back = kb.params_from_roots(roots)
for name in ("c", "d1", "d2", "d3"):
    a, b = getattr(params, name), getattr(back, name)
    print(f"  {name}: {float(a):+.12f} -> {float(b):+.12f}  (|diff| = {abs(float(a - b)):.2e})")

print()
print("Vanishing boundary conditions force F = -f^2 (f + 2c)^2 <= 0:")
rng = np.random.default_rng(0)
worst = -np.inf
for c in rng.uniform(-5, 5, size=100):
    p = kb.Params(float(c), 0.0, 0.0, 0.0)
    worst = max(worst, float(np.max(kb.eval_F(p, rng.uniform(-10, 10, 100)))))
print(f"  max F over 100 random speeds x 100 random f: {worst:.3e}  (never positive)")

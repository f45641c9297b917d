"""Normal limits: walk sums and fractal increments side by side.

Two faces of the same theorem.  The normalized walk sum S_n/s_n tends to a
standard normal; so does the normalized increment (f(x+h) - f(x)) / (h
sqrt(sigma(h))) for uniform x.  Both are checked with a KS distance here.
"""
from fractions import Fraction

from fractalwalk import (
    FractalFunction,
    WalkParams,
    WeightSequence,
    clt_experiment,
    modulus_experiment,
)

CONST = WeightSequence.constant()

rep = clt_experiment(WalkParams(0.75, CONST, 2000), replicas=5000, seed=3)
ks = rep.find("ks_distance")
print(f"walk CLT: KS = {ks.value:.4f} (tolerance {ks.tolerance['max']}) ->"
      f" {'pass' if ks.passed else 'fail'}")

f = FractalFunction(3, CONST, 1.0)
rep = modulus_experiment(
    f, [Fraction(1, 3**6), Fraction(1, 3**9)],
    x_samples=50_000, seed=0, ks_tol=0.05,
)
for i in (0, 1):
    s = rep.find(f"ks_{i}")
    print(f"increments {s.detail}: KS = {s.value:.4f} ->"
          f" {'pass' if s.passed else 'fail'}")

# deeper h means more slope terms and a better normal fit; the KS trend
# across the two rows above shows it directly

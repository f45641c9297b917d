"""Iterated-logarithm envelopes at desk scale.

The limsup and liminf laws are asymptotic statements; at any reachable
horizon the statistics hover near their constants without settling.  The
experiments therefore compare the walk against a Brownian oracle driven
through the identical variance clock, grid, and envelope: agreement between
the two is the checkable claim, proximity to the constant is only reported.
"""
from fractalwalk import WalkParams, WeightSequence, chung_experiment, lil_experiment

params = WalkParams(0.75, WeightSequence.constant(), 100_000)

rep = lil_experiment(params, replicas=40, seed=0)
print("running-max statistic, exact-variance normalization:")
print(f"  walk median   {rep.find('walk_median').value:.4f}")
print(f"  oracle median {rep.find('oracle_median').value:.4f}")
cov = rep.find("coverage_fraction")
print(f"  coverage of [-0.9, 0.9]: {cov.value:.2f}"
      f" (design floor {cov.tolerance['min']}, verdict {cov.passed})")

rep = lil_experiment(
    params, replicas=40, seed=0,
    normalization="scaled_A", band=(0.0, 1.905), min_fraction=0.95,
)
wf = rep.find("walk_fraction_in_band")
of = rep.find("oracle_fraction_in_band")
print(f"scaled-energy ceiling 1.905: walk {wf.value:.2f}, oracle {of.value:.2f}"
      f" in band (floor 0.95)")

rep = chung_experiment(WalkParams(0.5, WeightSequence.constant(), 100_000),
                       replicas=40, seed=0)
md = rep.find("median_abs_difference")
print(f"running-min statistic: |walk - oracle| median gap {md.value:.4f}"
      f" (tolerance {md.tolerance['max']})")
print(f"  reference constant pi/sqrt(8) = {rep.find('reference_constant').value:.4f};"
      " neither process reaches it at this horizon, both miss it together")

"""Verifying the constant-gap-plus-Gaussian-noise geometry statistically.

One call groups the pairs at random and summarizes them, with one seed for
both the grouping and the sampled pairs; averaging the per-pair differences
inside a group cancels the noise and isolates the gap. Five statistics then
characterize the geometry: a constant gap has near-constant length and
direction and is orthogonal to within-modality differences, while the
residual noise has zero mean and random directions.
"""

from gaplab import group_statistics, make_gap_world

world = make_gap_world(
    n=10_000, d=512, span_dim=64, gap_norm=0.83, sigma=0.05, seed=0
)
report = group_statistics(world.pairs, group_size=100, seed=0)

print(f"{report.n_groups} groups of {report.group_size}; "
      f"true gap norm 0.83, true noise sigma 0.05\n")
print(f"{'statistic':<20}{'mean':>10}{'std':>10}")
for name, mean, std in report.rows():
    print(f"{name:<20}{mean:>10.4f}{std:>10.4f}")

print("\ngap length concentrates at the true norm, gap directions agree")
print("(cosine near 1), the gap is orthogonal to the embedding span, and")
print("the noise is zero-mean with near-orthogonal directions")

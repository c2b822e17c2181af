"""
How faithful is the fitted summary?
===================================

Here the true posterior IS a gate/point-process model, so we can draw from
it exactly, fit a fresh model of the same family to the draws, and measure
every approximation gap against known answers: component locations, gate
probabilities, the outlier rate, the implied distribution of k, expected
counts in sub-intervals, and the intensity curve itself.
"""

import numpy as np

from transdim.diagnostics import (
    approx_posterior_k,
    empirical_count_interval,
    expected_count_interval,
)
from transdim.fit import FitConfig, sem_fit
from transdim.model import (
    ApproxModel,
    GaussianComponent,
    ParamSpace,
    SampleSet,
    model_intensity,
    sample_batch_from_model,
)

# The ground truth: two gated components on (0, 1) and a uniform clutter
# process contributing 0.4 points on average.
space = ParamSpace(np.array([[0.0, 1.0]]))
truth = ApproxModel(space, [
    GaussianComponent(np.array([0.30]), np.array([0.0004]), 0.90),
    GaussianComponent(np.array([0.70]), np.array([0.0009]), 0.50),
], 0.40)

rng = np.random.default_rng(7)
draws, _ = sample_batch_from_model(truth, 50_000, rng)
samples = SampleSet.ingest(space, draws)
print(f"drew {len(samples)} variable-dimensional samples from the known model")

result = sem_fit(samples, FitConfig(iterations=60, averaging_window=30, rng_seed=1))
fit = result.model

# The family is overcomplete: a spurious low-gate component plus a reduced
# clutter rate describes nearly the same point process as clutter alone, so
# do not be surprised if one survives.  What matters is that the implied
# answers below still agree with the truth.
print("\ncomponent recovery:")
print("  truth:  mu, pi   =", [(float(c.mu[0]), c.pi) for c in truth.components])
print("  fitted: mu, pi   =",
      [(round(float(c.mu[0]), 4), round(c.pi, 3))
       for c in sorted(fit.components, key=lambda c: c.mu[0])])
print(f"  outlier rate     = {truth.lam:.3f} true vs {fit.lam:.3f} fitted")

# The number of active points has a closed form either way: truth and fit
# are both (independent gates) convolved with a Poisson count.
p_true = approx_posterior_k(truth)
p_fit = approx_posterior_k(fit, k_cap=p_true.size - 1)
p_emp = samples.empirical_posterior_k()
print("\ndistribution of k (truth / fitted / raw draws):")
for k in range(p_true.size):
    e = p_emp[k] if k < p_emp.size else 0.0
    print(f"  k = {k}: {p_true[k]:.4f}  {p_fit[k]:.4f}  {e:.4f}")
print(f"  total variation truth vs fitted: {0.5 * np.abs(p_true - p_fit).sum():.4f}")

# Counting queries: how many points land in a window?  Three answers per
# window (exact truth, fitted model, empirical average) should agree.
print("\nexpected points per window (truth / fitted / draws):")
for lo, hi in [(0.25, 0.35), (0.6, 0.8), (0.0, 1.0)]:
    box = [(lo, hi)]
    print(f"  [{lo:.2f}, {hi:.2f}]: {expected_count_interval(truth, box):.3f}"
          f"  {expected_count_interval(fit, box):.3f}"
          f"  {empirical_count_interval(samples, box):.3f}")

# Finally the intensity function, i.e. the expected number of points per
# unit length.  Integrated absolute error is a stringent whole-curve gap.
grid = np.linspace(0.0, 1.0, 2001)
true_curve = model_intensity(grid[:, None], truth)
gap = np.trapezoid(np.abs(true_curve - model_intensity(grid[:, None], fit)), grid)
print(f"\nintegrated |intensity gap| over (0, 1): {gap:.4f} points")
print("(for scale: the true intensity integrates to "
      f"{np.trapezoid(true_curve, grid):.3f} points)")

"""Reported errors against the spread of the fit over seeds.

The pull of a fit is (fitted - truth) / reported error.  With honest errors
it is close to a standard normal, so |pull| < 2 holds in 95.4% of seeds.
Each check runs a fixed seed range, chosen before its first run, and asserts
that the share inside lies within a two-sided binomial bound at alpha 1e-3.
"""

import math

import pytest

from ndtrap.ensemble import exponential_survival_curve
from ndtrap.fitters import fit_exponential

ALPHA = 1e-3
INSIDE_TWO_SIGMA = math.erf(2.0 / math.sqrt(2.0))   # 0.9545
SEEDS = range(1000)


def binomial_bounds(n, p, alpha=ALPHA):
    """[lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2, X ~ Bin(n, p)."""
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p)) for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_binomial_bounds_hold_the_mass():
    lo, hi = binomial_bounds(1000, INSIDE_TWO_SIGMA)
    assert 930 < lo < 954 < hi < 977
    assert binomial_bounds(10, 0.5, alpha=0.5) == (4, 6)


# (n0, tau s, duration s, frame rate Hz): few deaths over six lifetimes, one
# lifetime censored, and a thousand particles on a coarse grid
@pytest.mark.parametrize("n0, tau, duration, frame_rate", [
    (30, 5.0, 30.0, 10.0), (100, 40.7, 40.7, 1.0), (1000, 1000.0, 3000.0, 0.1)])
def test_exponential_lifetime_error_covers(n0, tau, duration, frame_rate):
    inside = 0
    for seed in SEEDS:
        fit = fit_exponential(exponential_survival_curve(n0, tau, duration, seed=seed,
                                                         frame_rate=frame_rate))
        inside += abs(fit["tau"] - tau) < 2.0 * fit.errors["tau"]
    lo, hi = binomial_bounds(len(SEEDS), INSIDE_TWO_SIGMA)
    assert lo <= inside <= hi, f"|pull| < 2 in {inside} of {len(SEEDS)} seeds"

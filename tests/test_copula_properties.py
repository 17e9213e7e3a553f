"""Property tests: impute passes every observed cell through unchanged, bit
for bit, on random mixed continuous/ordinal panels and masks; truncated
normal moments are mirror-symmetric."""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from copulacast.copula import (em_fit, impute, project_correlation,
                               truncated_normal_moments)
from copulacast.dataset import MarginalSpec, apply_mask, gen_copula_sample
from copulacast.errors import FitError
from copulacast.rng import rng_for


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(12, 40),
       continuous=st.integers(0, 3), ordinal=st.integers(0, 3),
       levels=st.integers(2, 5), fraction=st.floats(0.0, 0.5))
def test_impute_passes_observed_cells_through_bit_for_bit(
        seed, rows, continuous, ordinal, levels, fraction):
    q = continuous + ordinal
    assume(q >= 2)
    rng = rng_for(seed, "impute-property")
    sigma = project_correlation(np.corrcoef(rng.normal(size=(q, 3 * q))))
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * continuous
             + [MarginalSpec("ordinal", levels=tuple(float(v) for v in range(levels)),
                             probs=(1.0 / levels,) * levels)] * ordinal)
    masked, _ = apply_mask(gen_copula_sample(sigma, specs, rows, seed), fraction,
                           seed + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            model = em_fit(masked, max_iters=3)
        except FitError:          # a column left constant or empty by the mask
            assume(False)
    completed = impute(model, masked)
    seen = masked.mask
    assert completed.mask.all()
    assert np.array_equal(completed.values[seen].view(np.int64),
                          masked.values[seen].view(np.int64))


# Intervals narrower than 0.01 are left out: there the variance is a
# difference of order-one terms, and rounding alone exceeds 1e-9 of it.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(c): the interval "
                   "mass ndtr(b) - ndtr(a) cancels in the upper tail")
@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-12.0, 12.0), hi=st.floats(-12.0, 12.0))
@example(lo=9.0, hi=10.0)
@example(lo=8.5, hi=math.inf)
def test_truncated_moments_are_mirror_symmetric(lo, hi):
    assume(hi - lo >= 0.01)
    mean, var = truncated_normal_moments(lo, hi)
    mirror_mean, mirror_var = truncated_normal_moments(-hi, -lo)
    assert math.isclose(mean, -mirror_mean, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(var, mirror_var, rel_tol=1e-9)

"""Property tests: MAPE is undefined at a zero actual, so mape and
build_report reject any zero and name the first one by index; the exact
Wilcoxon tail keeps the probabilities of a scalar dynamic program."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from copulacast.errors import EvaluationError
from copulacast.evaluation import _average_ranks, _exact_tail, build_report, mape


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mape_and_build_report_name_the_first_zero(data):
    actual = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False).filter(bool),
        min_size=1, max_size=30)))
    zeros = sorted(data.draw(st.sets(st.integers(0, actual.size - 1), min_size=1)))
    actual[zeros] = data.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                       min_size=len(zeros), max_size=len(zeros)))
    predicted = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=actual.size, max_size=actual.size)))
    message = f"actual value at index {zeros[0]} is zero"
    with pytest.raises(EvaluationError, match=message):
        mape(actual, predicted)
    with pytest.raises(EvaluationError, match=message):
        build_report(actual, {"model": predicted, "ensemble": predicted})


def _scalar_exact_tail(doubled_ranks, w_doubled):
    # The per-sum dynamic program over Python ints that the array recursion
    # replaces: counts[s] is the number of sign assignments whose doubled
    # positive-rank sum is s.
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    favored = sum(counts[:min(w_doubled, total) + 1])
    return favored / float(2 ** len(doubled_ranks))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_tail_equals_the_scalar_dynamic_program(data):
    # Small integer magnitudes make tied ranks, whose doubled ranks are odd.
    magnitudes = np.array(data.draw(st.lists(st.integers(1, 8), min_size=1,
                                             max_size=25)), dtype=float)
    doubled = [int(round(2 * r)) for r in _average_ranks(magnitudes)]
    w_doubled = data.draw(st.integers(0, sum(doubled) + 3))
    assert _exact_tail(doubled, w_doubled) == _scalar_exact_tail(doubled,
                                                                 w_doubled)

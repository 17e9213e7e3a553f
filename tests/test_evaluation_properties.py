"""Property test: MAPE is undefined at a zero actual, so mape and
build_report reject any zero and name the first one by index."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from copulacast.errors import EvaluationError
from copulacast.evaluation import build_report, mape


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

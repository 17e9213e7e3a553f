"""Property tests: write_json writes exactly the stdlib's
json.dumps(obj, indent=2, sort_keys=True) text plus a newline, and
write_float_csv exactly what a csv.writer fed "" for a NaN cell and
repr(float(v)) for any other writes (that loop is kept here as the
reference)."""

import csv
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from copulacast.dataset import write_float_csv, write_json

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
               1e-05, 0.1, math.inf, -math.inf, math.nan)

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(-10**40, 10**40) | floats | floats.map(np.float64)
           | st.text())


def containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.lists(floats) | st.lists(floats.map(np.float64))
            | st.lists(st.integers()) | st.lists(st.integers() | floats)
            | st.dictionaries(st.text(), children)
            | st.dictionaries(st.integers(), children))


trees = st.recursive(scalars, containers, max_leaves=40)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


@settings(max_examples=200, deadline=None)
@given(tree=trees)
@example(tree={"é\n\"\\\t☃\U0001f600": [1.0, -0.0, math.nan, 5e-324],
               "": {}, "a": [], "b": (1, True, None, 10**30),
               "c": [np.float64(2.5), np.float64(math.inf), -math.inf],
               "d": {"x": [[1, 2], [3.5, False]]}})
def test_write_json_equals_stdlib_dumps(scratch, tree):
    path = scratch / "tree.json"
    write_json(tree, path)
    assert path.read_text() == json.dumps(tree, indent=2, sort_keys=True) + "\n"


def reference_float_csv(path, header, labels, values):
    """The per-cell loop: a NaN cell is an empty field, any other its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, label in enumerate(labels):
            row = [label]
            for j in range(values.shape[1]):
                v = float(values[i, j])
                row.append("" if math.isnan(v) else repr(v))
            writer.writerow(row)


@st.composite
def float_tables(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (rows, cols), elements=floats))
    labels = draw(st.lists(st.integers(-10**6, 10**6), min_size=rows, max_size=rows)
                  | st.lists(st.dates(), min_size=rows, max_size=rows))
    header = draw(st.lists(st.text(), min_size=cols + 1, max_size=cols + 1))
    return header, labels, values


@settings(max_examples=200, deadline=None)
@given(table=float_tables())
def test_write_float_csv_equals_per_cell_loop(scratch, table):
    header, labels, values = table
    got, want = scratch / "got.csv", scratch / "want.csv"
    write_float_csv(got, header, labels, values)
    reference_float_csv(want, header, labels, values)
    assert got.read_bytes() == want.read_bytes()

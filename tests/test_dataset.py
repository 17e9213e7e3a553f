"""Tests for data ingestion, masking, and synthetic generators."""

import datetime
import json
import math
import os
import re

import numpy as np
import pytest

from copulacast.dataset import (
    CONTINUOUS,
    ORDINAL,
    MarginalSpec,
    MaskRecord,
    ObservationMatrix,
    Schema,
    apply_mask,
    gen_copula_sample,
    gen_seasonal_load,
    load_csv,
    mask_record_to_file,
    monthly_index,
    save_csv,
    write_float_csv,
    write_json,
)
from copulacast.errors import DataError


def schema_of(matrix):
    """Schema describing a matrix's own columns, for reloading saved CSVs."""
    columns = {n: k for n, k in zip(matrix.column_names, matrix.column_kinds)}
    levels = {matrix.column_names[j]: lv for j, lv in matrix.ordinal_levels.items()}
    return Schema(columns=columns, ordinal_levels=levels)


def small_matrix():
    values = np.array([[1.0, 2.0], [3.0, np.nan], [5.0, 6.0]])
    mask = ~np.isnan(values)
    return ObservationMatrix(values=values, mask=mask,
                             column_kinds=(CONTINUOUS, CONTINUOUS),
                             column_names=("a", "b"),
                             time_index=monthly_index(datetime.date(2013, 1, 1), 3))


def test_monthly_index_wraps_years():
    idx = monthly_index(datetime.date(2013, 11, 1), 4)
    assert idx == (datetime.date(2013, 11, 1), datetime.date(2013, 12, 1),
                   datetime.date(2014, 1, 1), datetime.date(2014, 2, 1))


def test_observation_matrix_normalizes_hidden_values():
    values = np.array([[1.0, 99.0], [3.0, 4.0]])
    mask = np.array([[True, False], [True, True]])
    m = ObservationMatrix(values=values, mask=mask,
                          column_kinds=(CONTINUOUS, CONTINUOUS),
                          column_names=("a", "b"),
                          time_index=monthly_index(datetime.date(2013, 1, 1), 2))
    assert np.isnan(m.values[0, 1])
    assert m.values[1, 1] == 4.0


def test_observation_matrix_rejects_shape_mismatch():
    with pytest.raises(DataError):
        ObservationMatrix(values=np.ones((2, 2)), mask=np.ones((2, 3), dtype=bool),
                          column_kinds=(CONTINUOUS, CONTINUOUS),
                          column_names=("a", "b"),
                          time_index=monthly_index(datetime.date(2013, 1, 1), 2))


def panel_with(**changes):
    """small_matrix's fields with some replaced."""
    fields = dict(values=[[1.0, 2.0], [3.0, np.nan], [5.0, 6.0]],
                  mask=[[True, True], [True, False], [True, True]],
                  column_kinds=(CONTINUOUS, CONTINUOUS), column_names=("a", "b"),
                  time_index=monthly_index(datetime.date(2013, 1, 1), 3))
    fields.update(changes)
    return ObservationMatrix(**fields)


NORMAL = MarginalSpec(kind="normal", params=(0.0, 1.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: panel_with(values=np.ones(3), mask=np.ones(3, dtype=bool)),
     DataError, "values must be a 2-d array"),
    (lambda: panel_with(values=np.ones((0, 2)), mask=np.ones((0, 2), dtype=bool),
                        time_index=()),
     DataError, "matrix must have at least one row and one column"),
    (lambda: panel_with(column_kinds=(CONTINUOUS,)),
     DataError, "column annotations do not match column count"),
    (lambda: panel_with(time_index=monthly_index(datetime.date(2013, 1, 1), 2)),
     DataError, "time index length does not match row count"),
    (lambda: panel_with(column_kinds=(CONTINUOUS, "nominal")),
     DataError, "unknown column kind"),
    (lambda: panel_with(column_names=("a", "a")), DataError, "duplicate column names"),
    (lambda: panel_with(column_kinds=(CONTINUOUS, ORDINAL), column_names=("a", "g")),
     DataError, "ordinal column 'g' lacks levels"),
    (lambda: write_float_csv(os.devnull, ["time", "a"], ["x", "y"], np.ones((3, 1))),
     ValueError, "2 labels for 3 rows of values"),
    (lambda: apply_mask(small_matrix(), 1.5, 0),
     ValueError, "fraction must lie in [0, 1], got 1.5"),
    (lambda: apply_mask(panel_with(mask=np.zeros((3, 2), dtype=bool)), 0.5, 0),
     DataError, "matrix has no observed cells to erase"),
    (lambda: gen_copula_sample(np.ones((2, 3)), [NORMAL] * 2, 5, 0),
     ValueError, "sigma must be square"),
    (lambda: gen_copula_sample(np.eye(2), [NORMAL], 5, 0),
     ValueError, "need 2 marginals, got 1"),
    (lambda: gen_copula_sample(np.eye(2), [NORMAL] * 2, 0, 0),
     ValueError, "n must be >= 1"),
    (lambda: gen_copula_sample([[1.0, 0.5], [0.2, 1.0]], [NORMAL] * 2, 5, 0),
     ValueError, "sigma must be symmetric"),
    (lambda: gen_copula_sample([[2.0, 0.0], [0.0, 1.0]], [NORMAL] * 2, 5, 0),
     ValueError, "sigma must have a unit diagonal"),
    (lambda: gen_copula_sample([[1.0, 1.2], [1.2, 1.0]], [NORMAL] * 2, 5, 0),
     ValueError, "sigma must be positive definite"),
    (lambda: gen_seasonal_load(n_periods=23),
     ValueError, "n_periods must be >= 24 (two full seasonal cycles)"),
    (lambda: gen_seasonal_load(n_features=0), ValueError, "n_features must be >= 1"),
    (lambda: gen_seasonal_load(noise_sd=-1.0), ValueError, "noise_sd must be >= 0"),
], ids=["values_1d", "no_rows", "annotations", "time_index_length", "unknown_kind",
        "duplicate_names", "ordinal_without_levels", "csv_label_count",
        "mask_fraction", "mask_nothing_observed", "sample_sigma_not_square",
        "sample_marginal_count", "sample_no_rows", "sample_sigma_asymmetric",
        "sample_sigma_diagonal", "sample_sigma_not_pd", "load_short",
        "load_no_features", "load_negative_noise"])
def test_dataset_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_copy_owns_its_values_and_mask():
    # apply_mask and the copula's fill write into a copy of their input.
    m = small_matrix()
    dup = m.copy()
    dup.values[0, 0] = 99.0
    dup.mask[0, 1] = False
    assert m.values[0, 0] == 1.0 and m.mask[0, 1]
    assert dup.values[0, 0] == 99.0 and not dup.mask[0, 1]
    assert (dup.column_names, dup.time_index) == (m.column_names, m.time_index)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(20, 3)) * math.pi
    mask = rng.random(size=(20, 3)) > 0.2
    values[~mask] = np.nan
    m = ObservationMatrix(values=values, mask=mask,
                          column_kinds=(CONTINUOUS,) * 3,
                          column_names=("x", "y", "z"),
                          time_index=monthly_index(datetime.date(2013, 1, 1), 20))
    path = os.path.join(tmp_path, "round.csv")
    save_csv(m, path)
    back = load_csv(path, schema_of(m))
    assert back.values[back.mask].tolist() == m.values[m.mask].tolist()
    assert np.array_equal(back.mask, m.mask)
    assert back.column_names == m.column_names
    assert back.time_index == m.time_index


def test_csv_round_trip_keeps_ordinal_levels(tmp_path):
    values = np.array([[1.0, 2.0], [2.0, np.nan], [3.0, 2.0], [1.0, 5.0]])
    mask = ~np.isnan(values)
    m = ObservationMatrix(values=values, mask=mask,
                          column_kinds=(ORDINAL, CONTINUOUS),
                          column_names=("grade", "load"),
                          time_index=monthly_index(datetime.date(2013, 1, 1), 4),
                          ordinal_levels={0: (1.0, 2.0, 3.0)})
    path = os.path.join(tmp_path, "ordinal.csv")
    save_csv(m, path)
    back = load_csv(path, schema_of(m))
    assert back.column_kinds == (ORDINAL, CONTINUOUS)
    assert back.ordinal_levels[0] == (1.0, 2.0, 3.0)
    assert np.array_equal(back.mask, m.mask)


def test_load_csv_rejects_unknown_column(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write("time,a\n2013-01,1.0\n")
    schema = Schema(columns={"b": CONTINUOUS})
    with pytest.raises(DataError):
        load_csv(path, schema)


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("time,a,b\n\n", "no data rows"),
    ("time,a,b\n2013-01-01,1.0,2.0\n\n2013-03-01,3.0\n",
     "row 4: expected 3 fields, got 2"),
    ("time,a, a\n2013-01-01,1.0,2.0\n", "column 'a' appears more than once"),
    ("time,a,b\n2020-01-01,1,2\n2020-02-01,2,5\n2020-03-01,3,0\n",
     "ordinal column 'b' at 2020-02-01: value 5.0 is outside the declared "
     "level set"),
    ("time,a,b\n2020-01-01,1,2\n2020-03-01,2,3\n2020-02-01,3,1\n",
     "time index must be strictly increasing"),
    ("time,a,b\n2020-01-01,1,2\n2020-02-01,inf,3\n2020-03-01,3,1\n",
     "observed cells must be finite"),
], ids=["empty", "header_only", "ragged_after_blank_line", "repeated_column",
        "out_of_level", "dates_not_increasing", "infinite_cell"])
def test_load_csv_table_errors_name_file_lines(tmp_path, text, message):
    path = os.path.join(tmp_path, "table.csv")
    with open(path, "w") as fh:
        fh.write(text)
    schema = Schema(columns={"a": CONTINUOUS, "b": ORDINAL},
                    ordinal_levels={"b": [1, 2, 3]})
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_csv(path, schema)


def write_ordinal_csv(tmp_path, cells):
    path = os.path.join(tmp_path, "ordinal.csv")
    with open(path, "w") as fh:
        fh.write("time,g\n")
        for month, cell in enumerate(cells, start=1):
            fh.write(f"2013-{month:02d}-01,{cell}\n")
    return path


def test_load_csv_ordinal_levels_default_to_the_observed_values(tmp_path):
    # Values stay below about 1e4: a loader that built every level from 1
    # to the largest value would exhaust memory here instead of failing.
    path = write_ordinal_csv(tmp_path, ["3", "1000", "", "1", "3"])
    matrix = load_csv(path, Schema(columns={"g": ORDINAL}))
    assert matrix.ordinal_levels == {0: (1.0, 3.0, 1000.0)}


@pytest.mark.parametrize("cell", ["inf", "-inf", "2.5", "0"])
def test_load_csv_ordinal_values_without_levels_must_be_integers(tmp_path, cell):
    path = write_ordinal_csv(tmp_path, ["1", cell, "2", "1"])
    with pytest.raises(DataError, match="ordinal column 'g' holds non-integer "
                       "levels; declare ordinal_levels in the schema"):
        load_csv(path, Schema(columns={"g": ORDINAL}))


def test_apply_mask_count_rounds_half_up():
    m = gen_seasonal_load(n_periods=108, n_features=12, seed=3)
    masked, record = apply_mask(m, 0.10, seed=5)
    # 108 * 13 cells = 1404; 10% = 140.4 -> 140 cells erased.
    assert len(record.erased_cells) == 140
    assert int((~masked.mask).sum()) == 140
    # Half-up boundary: 11% of a 50-cell matrix is 5.5, which rounds to 6.
    small = gen_seasonal_load(n_periods=25, n_features=1, seed=3)
    _, rec2 = apply_mask(small, 0.11, seed=5)
    assert len(rec2.erased_cells) == 6


def test_apply_mask_is_deterministic_and_sorted():
    m = gen_seasonal_load(n_periods=24, n_features=3, seed=1)
    _, rec_a = apply_mask(m, 0.2, seed=42)
    _, rec_b = apply_mask(m, 0.2, seed=42)
    assert rec_a.erased_cells == rec_b.erased_cells
    assert list(rec_a.erased_cells) == sorted(rec_a.erased_cells)
    _, rec_c = apply_mask(m, 0.2, seed=43)
    assert rec_a.erased_cells != rec_c.erased_cells


def test_apply_mask_leaves_original_untouched():
    m = gen_seasonal_load(n_periods=24, n_features=2, seed=1)
    before = m.values.copy()
    masked, _ = apply_mask(m, 0.3, seed=0)
    assert np.array_equal(m.values, before)
    assert masked is not m


def test_mask_record_file_round_trip(tmp_path):
    rec = MaskRecord(erased_cells=((0, 1), (3, 2)), fraction=0.1, seed=9)
    path = os.path.join(tmp_path, "mask.json")
    mask_record_to_file(rec, path)
    with open(path) as fh:
        assert json.load(fh) == rec.to_json()


def test_write_json_sorts_keys_and_ends_with_newline(tmp_path):
    path = os.path.join(tmp_path, "obj.json")
    write_json({"b": 1, "a": [2.5]}, path)
    with open(path) as fh:
        assert fh.read() == '{\n  "a": [\n    2.5\n  ],\n  "b": 1\n}\n'


def test_write_json_defers_to_stdlib_beyond_its_rules(tmp_path):
    # Deep nesting, non-string keys, and the errors json raises for circular
    # and unsupported values, which leave no file behind.
    path = os.path.join(tmp_path, "obj.json")
    deep = [1.5]
    for k in range(100):
        deep = {"k": [deep, k]}
    for obj in (deep, {"a": {2: [1.0], 1: None}}):
        write_json(obj, path)
        with open(path) as fh:
            assert fh.read() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    loop = []
    loop.append(loop)
    for obj, error in ((loop, ValueError), ({"x": object()}, TypeError)):
        with pytest.raises(error) as want:
            json.dumps(obj, indent=2, sort_keys=True)
        fresh = os.path.join(tmp_path, f"{error.__name__}.json")
        with pytest.raises(error) as got:
            write_json(obj, fresh)
        assert str(got.value) == str(want.value)
        assert not os.path.exists(fresh)


def test_gen_seasonal_load_shape_and_names():
    m = gen_seasonal_load()
    assert m.values.shape == (108, 13)
    assert m.column_names[0] == "load"
    assert m.column_names[1] == "feat_01"
    assert m.column_names[-1] == "feat_12"
    assert m.time_index[0] == datetime.date(2013, 1, 1)
    assert bool(m.mask.all())


def test_gen_seasonal_load_target_has_period_12_season():
    m = gen_seasonal_load(n_periods=96, noise_sd=0.0, trend=0.0, seed=0)
    load = m.values[:, 0]
    # Without noise or trend the load repeats exactly every 12 periods.
    assert np.allclose(load[12:], load[:-12])


def test_gen_seasonal_load_features_lag_the_target():
    # With zero noise and zero trend the target is exactly 12-periodic, so a
    # wrap-around roll over a multiple of 12 rows equals the true lag.
    m = gen_seasonal_load(n_periods=60, noise_sd=0.0, trend=0.0, seed=0)
    load = m.values[:, 0]
    for j in (1, 2, 3):
        lag = j % 3
        scale = 0.5 + 0.25 * ((j - 1) % 4)
        offset = 5.0 * j
        expected = offset + scale * np.roll(load, lag)
        assert np.allclose(m.values[:, j], expected, atol=1e-9)


def test_gen_seasonal_load_seed_controls_noise():
    a = gen_seasonal_load(n_periods=24, seed=0)
    b = gen_seasonal_load(n_periods=24, seed=0)
    c = gen_seasonal_load(n_periods=24, seed=1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_marginal_spec_validation():
    with pytest.raises(ValueError):
        MarginalSpec(kind="normal")
    with pytest.raises(ValueError):
        MarginalSpec(kind="ordinal", levels=(1.0,), probs=(1.0,))
    with pytest.raises(ValueError):
        MarginalSpec(kind="ordinal", levels=(1.0, 2.0), probs=(0.7, 0.7))
    with pytest.raises(ValueError):
        MarginalSpec(kind="cauchy", params=(0.0, 1.0))


def test_gen_copula_sample_marginals_and_dependence():
    sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(2.0, 3.0)),
             MarginalSpec(kind="uniform", params=(0.0, 1.0))]
    m = gen_copula_sample(sigma, specs, 4000, seed=11)
    assert m.values.shape == (4000, 2)
    assert abs(float(np.mean(m.values[:, 0])) - 2.0) < 0.2
    assert abs(float(np.std(m.values[:, 0])) - 3.0) < 0.2
    assert 0.0 <= m.values[:, 1].min() and m.values[:, 1].max() <= 1.0
    # Spearman rho of a Gaussian copula is (6/pi) asin(rho/2).
    r0 = np.argsort(np.argsort(m.values[:, 0]))
    r1 = np.argsort(np.argsort(m.values[:, 1]))
    spearman = float(np.corrcoef(r0, r1)[0, 1])
    expected = 6.0 / math.pi * math.asin(0.4)
    assert abs(spearman - expected) < 0.05


def test_gen_copula_sample_ordinal_levels():
    sigma = np.eye(2)
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0)),
             MarginalSpec(kind="ordinal", levels=(1.0, 2.0, 3.0),
                          probs=(0.2, 0.5, 0.3))]
    m = gen_copula_sample(sigma, specs, 3000, seed=4)
    assert m.column_kinds[1] == ORDINAL
    levels, counts = np.unique(m.values[:, 1], return_counts=True)
    assert levels.tolist() == [1.0, 2.0, 3.0]
    assert abs(counts[1] / 3000 - 0.5) < 0.05

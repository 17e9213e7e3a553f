"""Panel data structures, CSV ingestion, sparsity simulation, and generators.

A panel is an m x q matrix of monthly observations: rows are time periods,
columns are variables.  Columns are either continuous or ordinal; cells may
be missing.  This module also provides two synthetic generators used by the
benchmark and the tests: an exact Gaussian-copula sampler with configurable
marginals, and a seasonal load series with lagged covariate columns.
"""

import csv
import datetime
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._normal import ndtr, ndtri
from .errors import DataError
from .rng import rng_for

CONTINUOUS = "continuous"
ORDINAL = "ordinal"
_KINDS = (CONTINUOUS, ORDINAL)
# Cell tokens, stripped of whitespace, that load_csv and eval read as missing.
MISSING_TOKENS = frozenset(("", "NA", "NaN", "nan"))


def monthly_index(start, n):
    """Return n consecutive first-of-month dates beginning at start."""
    out = []
    year, month = start.year, start.month
    for _ in range(n):
        out.append(datetime.date(year, month, 1))
        month += 1
        if month == 13:
            month = 1
            year += 1
    return tuple(out)


@dataclass(frozen=True)
class Schema:
    """Column-kind declaration used when parsing a CSV panel.

    Args:
        columns: mapping of data column name -> kind ("continuous" or
            "ordinal").  Every data column in the file must appear here.
        ordinal_levels: optional mapping of ordinal column name -> strictly
            increasing list or tuple of at least two admissible levels, each
            a finite number (not a boolean).  An ordinal column without an
            entry takes its distinct observed values as its levels; these
            must be integers >= 1.
    """

    columns: dict
    ordinal_levels: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.columns:
            raise DataError("schema declares no data columns")
        for name, kind in self.columns.items():
            if kind not in _KINDS:
                raise DataError(f"column {name!r}: unknown kind {kind!r}")
        for name, levels in self.ordinal_levels.items():
            if self.columns.get(name) != ORDINAL:
                raise DataError(f"levels declared for non-ordinal column {name!r}")
            if not (isinstance(levels, (list, tuple)) and len(levels) >= 2
                    and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                            and abs(x) <= sys.float_info.max for x in levels)):
                raise DataError(f"column {name!r}: levels must be a list of at "
                                f"least two finite numbers, got {levels!r}")
            lv = tuple(float(x) for x in levels)
            if any(b <= a for a, b in zip(lv, lv[1:])):
                raise DataError(f"column {name!r}: levels must be strictly increasing")


@dataclass(eq=False)
class ObservationMatrix:
    """Partially observed numeric panel.

    Attributes:
        values: float array of shape (m, q); missing cells hold NaN.
        mask: bool array of shape (m, q); True marks an observed cell.
        column_kinds: per-column kind, "continuous" or "ordinal".
        column_names: per-column name.
        time_index: per-row date, strictly increasing.
        ordinal_levels: column index -> admissible levels for ordinal columns.
    """

    values: np.ndarray
    mask: np.ndarray
    column_kinds: tuple
    column_names: tuple
    time_index: tuple
    ordinal_levels: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        self.mask = np.array(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise DataError("values must be a 2-d array")
        if self.values.shape != self.mask.shape:
            raise DataError("values and mask shapes differ")
        m, q = self.values.shape
        if m < 1 or q < 1:
            raise DataError("matrix must have at least one row and one column")
        self.column_kinds = tuple(self.column_kinds)
        self.column_names = tuple(self.column_names)
        self.time_index = tuple(self.time_index)
        if len(self.column_kinds) != q or len(self.column_names) != q:
            raise DataError("column annotations do not match column count")
        if len(self.time_index) != m:
            raise DataError("time index length does not match row count")
        if any(k not in _KINDS for k in self.column_kinds):
            raise DataError("unknown column kind")
        if len(set(self.column_names)) != q:
            raise DataError("duplicate column names")
        if any(b <= a for a, b in zip(self.time_index, self.time_index[1:])):
            raise DataError("time index must be strictly increasing")
        if np.any(~np.isfinite(self.values[self.mask])):
            raise DataError("observed cells must be finite")
        self.values[~self.mask] = np.nan
        self.ordinal_levels = {int(j): tuple(float(x) for x in lv)
                               for j, lv in self.ordinal_levels.items()}
        for j, kind in enumerate(self.column_kinds):
            if kind != ORDINAL:
                continue
            if j not in self.ordinal_levels:
                raise DataError(f"ordinal column {self.column_names[j]!r} lacks levels")
            bad = np.flatnonzero(self.mask[:, j] & ~np.isin(
                self.values[:, j], self.ordinal_levels[j]))
            if bad.size:
                i = bad[0]
                raise DataError(
                    f"ordinal column {self.column_names[j]!r} at "
                    f"{self.time_index[i]}: value {float(self.values[i, j])!r} "
                    "is outside the declared level set")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]

    def column_index(self, name):
        """Index of the named column."""
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def copy(self):
        """A panel that owns its arrays: __post_init__ copies them."""
        return replace(self)


@dataclass(frozen=True)
class MaskRecord:
    """Cells additionally erased by apply_mask, for later recovery scoring."""

    erased_cells: tuple
    fraction: float
    seed: int

    def to_json(self):
        return {"erased_cells": [[int(r), int(c)] for r, c in self.erased_cells],
                "fraction": float(self.fraction), "seed": int(self.seed)}


def read_table(path):
    """Read a CSV table: its header and its non-blank rows.

    Returns (header, body): the header's fields stripped of whitespace, and
    one (line, fields) pair per non-blank row after the header, line being
    the row's line number in the file.

    Raises:
        DataError: empty file, a header naming a column twice, no data row,
            or a row whose field count differs from the header's.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0][1]]
    for k, name in enumerate(header):
        if name in header[:k]:
            raise DataError(f"{path}: column {name!r} appears more than once")
    body = [(line, row) for line, row in rows[1:] if row]
    if not body:
        raise DataError(f"{path}: no data rows")
    for line, row in body:
        if len(row) != len(header):
            raise DataError(f"{path}: row {line}: expected {len(header)} "
                            f"fields, got {len(row)}")
    return header, body


def finite_token(tok, path, line, name):
    """float(tok) for a stripped cell token of a read_table row.

    Raises ValueError where float() does, and DataError naming the file, the
    row's line and the column where the number is not finite.
    """
    value = float(tok)
    if not math.isfinite(value):
        raise DataError(f"{path}: row {line}, column {name!r}: "
                        f"{tok!r} is not a finite number")
    return value


def load_csv(path, schema):
    """Parse a CSV panel into an ObservationMatrix.

    The first column holds ISO dates; remaining columns must match the
    schema's declared names.  Empty cells and the tokens NA, NaN and nan
    denote missing values.

    Args:
        path: CSV file path.
        schema: Schema describing the data columns.

    Returns:
        ObservationMatrix.

    Raises:
        DataError, its message led by path: read_table's errors, header
            mismatch, unparsable, non-finite or out-of-level tokens, or
            non-increasing dates.
    """
    header, body = read_table(path)
    declared = list(schema.columns)
    if len(header) < 2:
        raise DataError(f"{path}: header must list a time column and data columns")
    if set(header[1:]) != set(declared):
        raise DataError(
            f"{path}: header columns {header[1:]} do not match schema columns {declared}")
    names = header[1:]
    kinds = tuple(schema.columns[n] for n in names)
    q = len(names)

    dates = []
    values = np.full((len(body), q), np.nan)
    for i, (line, row) in enumerate(body):
        try:
            dates.append(datetime.date.fromisoformat(row[0].strip()))
        except ValueError:
            raise DataError(f"{path}: row {line}: bad date {row[0]!r}") from None
        for j, tok in enumerate(row[1:]):
            tok = tok.strip()
            if tok in MISSING_TOKENS:
                continue
            try:
                values[i, j] = finite_token(tok, path, line, names[j])
            except ValueError:
                raise DataError(
                    f"{path}: row {line}, column {names[j]!r}: "
                    f"cannot parse {tok!r}") from None

    mask = ~np.isnan(values)
    ordinal_levels = {}
    for j, name in enumerate(names):
        if kinds[j] != ORDINAL:
            continue
        if name in schema.ordinal_levels:
            ordinal_levels[j] = tuple(float(x) for x in schema.ordinal_levels[name])
        else:
            obs = values[mask[:, j], j]
            if obs.size == 0:
                raise DataError(f"{path}: ordinal column {name!r} has no observed cells")
            if not (np.all(obs == np.round(obs)) and obs.min() >= 1):
                raise DataError(
                    f"{path}: ordinal column {name!r} holds non-integer levels; "
                    "declare ordinal_levels in the schema")
            ordinal_levels[j] = tuple(np.unique(obs).tolist())

    try:
        return ObservationMatrix(values=values, mask=mask, column_kinds=kinds,
                                 column_names=tuple(names),
                                 time_index=tuple(dates),
                                 ordinal_levels=ordinal_levels)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_csv(matrix, path):
    """Write an ObservationMatrix as CSV; missing cells become empty fields.

    Floats are written with repr-level precision so a save/load round trip
    reproduces every observed cell bit-exactly.
    """
    write_float_csv(path, ["time"] + list(matrix.column_names),
                    [t.isoformat() for t in matrix.time_index],
                    matrix.values)


def write_float_csv(path, header, labels, values):
    """Write a table of floats as CSV: the header row, then one row per label.

    Each row is its label, written as the csv module writes it, followed by
    that row of values, each float as its repr, so float() reads back the
    same double, and each NaN as an empty field, which load_csv reads back
    as missing.  Every CSV table of floats is written here, so all of them
    share one format.
    """
    text = [["" if math.isnan(v) else repr(v) for v in row]
            for row in np.asarray(values, dtype=float).tolist()]
    if len(labels) != len(text):
        raise ValueError(f"{len(labels)} labels for {len(text)} rows of values")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([label, *row] for label, row in zip(labels, text))


def apply_mask(matrix, fraction, seed):
    """Erase a random fraction of the observed cells.

    Cell selection is uniform without replacement over currently observed
    cells; the count is fraction * observed rounded half up.  The input is
    not modified.

    Args:
        matrix: ObservationMatrix.
        fraction: share of observed cells to erase, in [0, 1].
        seed: root seed; the same (matrix, fraction, seed) always erases the
            same cells.

    Returns:
        (masked ObservationMatrix, MaskRecord of the erased cells).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    observed = np.argwhere(matrix.mask)
    if fraction > 0 and observed.shape[0] == 0:
        raise DataError("matrix has no observed cells to erase")
    n_erase = int(math.floor(fraction * observed.shape[0] + 0.5))
    rng = rng_for(seed, "apply_mask")
    picks = rng.choice(observed.shape[0], size=n_erase, replace=False)
    # argwhere lists cells in row-major order, so sorted picks sort the cells.
    cells = observed[np.sort(picks)]
    mask = matrix.mask.copy()
    mask[tuple(cells.T)] = False
    return replace(matrix, mask=mask), MaskRecord(
        erased_cells=tuple(map(tuple, cells.tolist())),
        fraction=float(fraction), seed=int(seed))


@dataclass(frozen=True)
class MarginalSpec:
    """Marginal distribution descriptor for the synthetic copula sampler.

    Kinds: "normal" (params mu, sd), "lognormal" (params of log), "uniform"
    (params lo, hi), and "ordinal" (levels with probs summing to 1).
    """

    kind: str
    params: tuple = ()
    levels: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("normal", "lognormal", "uniform", "ordinal"):
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.kind == "ordinal":
            if len(self.levels) != len(self.probs) or len(self.levels) < 2:
                raise ValueError("ordinal marginal needs matching levels and probs")
            if abs(sum(self.probs) - 1.0) > 1e-9 or min(self.probs) <= 0:
                raise ValueError("ordinal probs must be positive and sum to 1")
        elif len(self.params) != 2:
            raise ValueError(f"{self.kind} marginal needs exactly two parameters")

    @property
    def column_kind(self):
        return ORDINAL if self.kind == "ordinal" else CONTINUOUS

    def quantile(self, u):
        """Inverse CDF applied elementwise to probabilities u in (0, 1)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "normal":
            mu, sd = self.params
            return mu + sd * ndtri(u)
        if self.kind == "lognormal":
            mu, sd = self.params
            return np.exp(mu + sd * ndtri(u))
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, u, side="left")
        return np.asarray(self.levels, dtype=float)[idx]


def gen_copula_sample(sigma, marginals, n, seed):
    """Draw a fully observed panel from a Gaussian copula.

    Latent rows are N(0, sigma); each latent coordinate is pushed through
    the standard normal CDF and the column's marginal quantile function.

    Args:
        sigma: q x q correlation matrix (symmetric, unit diagonal, positive
            definite).
        marginals: sequence of q MarginalSpec.
        n: number of rows to draw, >= 1.
        seed: root seed.

    Returns:
        ObservationMatrix with all cells observed and a monthly time index.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    q = sigma.shape[0]
    if len(marginals) != q:
        raise ValueError(f"need {q} marginals, got {len(marginals)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    if np.any(np.abs(np.diag(sigma) - 1.0) > 1e-10):
        raise ValueError("sigma must have a unit diagonal")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("sigma must be positive definite") from None

    rng = rng_for(seed, "gen_copula_sample")
    z = rng.standard_normal((n, q)) @ chol.T
    u = ndtr(z)
    values = np.empty((n, q))
    ordinal_levels = {}
    for j, spec in enumerate(marginals):
        values[:, j] = spec.quantile(u[:, j])
        if spec.column_kind == ORDINAL:
            ordinal_levels[j] = tuple(float(x) for x in spec.levels)
    names = tuple(f"x{j + 1}" for j in range(q))
    kinds = tuple(spec.column_kind for spec in marginals)
    return ObservationMatrix(
        values=values, mask=np.ones((n, q), dtype=bool),
        column_kinds=kinds, column_names=names,
        time_index=monthly_index(datetime.date(2000, 1, 1), n),
        ordinal_levels=ordinal_levels)


def gen_seasonal_load(n_periods=108, base=100.0, trend=0.5, seasonal_amp=20.0,
                      noise_sd=2.0, n_features=12, seed=0):
    """Generate a monthly load series plus lagged covariate columns.

    The target is base + trend*t + seasonal_amp*sin(2*pi*(t mod 12)/12) plus
    Gaussian noise.  Feature j is an affine copy of the target lagged by
    (j mod 3) periods with its own noise, so features carry real but partly
    redundant signal.

    Args:
        n_periods: number of monthly rows, >= 24.
        base: target level at t = 0.
        trend: additive change per period.
        seasonal_amp: amplitude of the period-12 harmonic.
        noise_sd: noise standard deviation, >= 0; feature noise is half this.
        n_features: number of covariate columns, >= 1.
        seed: root seed.

    Returns:
        Fully observed ObservationMatrix with columns ("load", "feat_01", ...)
        and a monthly index starting 2013-01-01.
    """
    if n_periods < 24:
        raise ValueError("n_periods must be >= 24 (two full seasonal cycles)")
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")

    rng = rng_for(seed, "gen_seasonal_load")
    max_lag = 2
    # one seasonal value per calendar-month residue, so rows 12 apart share
    # the exact same double
    season = np.array([seasonal_amp * math.sin(2.0 * math.pi * r / 12.0)
                       for r in range(12)])
    t_ext = np.arange(-max_lag, n_periods)
    det = base + trend * t_ext + season[t_ext % 12]
    target_ext = det + noise_sd * rng.standard_normal(t_ext.size)

    values = np.empty((n_periods, 1 + n_features))
    values[:, 0] = target_ext[max_lag:]
    for j in range(1, n_features + 1):
        lag = j % 3
        scale = 0.5 + 0.25 * ((j - 1) % 4)
        offset = 5.0 * j
        src = target_ext[max_lag - lag:t_ext.size - lag]
        noise = 0.5 * noise_sd * rng.standard_normal(n_periods)
        values[:, j] = offset + scale * src + noise

    names = ("load",) + tuple(f"feat_{j:02d}" for j in range(1, n_features + 1))
    kinds = (CONTINUOUS,) * (1 + n_features)
    return ObservationMatrix(
        values=values, mask=np.ones_like(values, dtype=bool),
        column_kinds=kinds, column_names=names,
        time_index=monthly_index(datetime.date(2013, 1, 1), n_periods))


def write_json(obj, path):
    """Write obj as JSON: json.dumps(obj, indent=2, sort_keys=True) plus a
    newline.

    The text is built before the file is opened, so a value json rejects
    raises json's own error and leaves no file.  Every JSON artifact is
    written here, so all of them share one format.
    """
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def mask_record_to_file(record, path):
    """Write a MaskRecord as JSON."""
    write_json(record.to_json(), path)

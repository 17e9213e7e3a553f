"""The package's own normal CDF and quantile and its LAPACK bindings,
against scipy.special and scipy.linalg.lapack, which the tests keep as
oracles while the package runs without SciPy."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from copulacast import _lapack
from copulacast._normal import ndtr, ndtri
from test_copula import same_bits

scipy_special = pytest.importorskip("scipy.special")
scipy_lapack = pytest.importorskip("scipy.linalg.lapack")

EXP_M2 = 0.13533528323661269189      # ndtri's branch point exp(-2)
EXP_M32 = 1.2664165549094176e-14     # where sqrt(-2 log y) reaches 8
TINY = 5e-324


def same_values(a, b):
    """Bit for bit, except that any NaN matches any NaN: scipy returns a
    NaN input's NaN with its sign bit set."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def _neighbours(v):
    return [np.nextafter(v, -1.0), v, np.nextafter(v, 2.0)]


NDTRI_EDGES = [0.0, -0.0, 1.0, 0.5, TINY, 2.2250738585072014e-308,
               np.nextafter(1.0, 0.0), np.nan, -0.25, 1.5, -np.inf, np.inf,
               *_neighbours(EXP_M2), *_neighbours(1.0 - EXP_M2),
               *_neighbours(EXP_M32), *_neighbours(1.0 - EXP_M32)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=1, max_size=40))
@example(NDTRI_EDGES)
def test_ndtri_equals_scipy_bit_for_bit(values):
    # The edges: 0 and 1, the exp(-2) branch point on both sides, the
    # sqrt(-2 log y) = 8 switch, denormals, NaN and values outside [0, 1].
    y = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtri(y)
    assert same_values(got, scipy_special.ndtri(y))
    for v in values[:3]:
        assert same_values(ndtri(v), scipy_special.ndtri(v))


def test_ndtri_equals_scipy_on_a_dense_grid():
    rng = np.random.default_rng(0)
    y = np.concatenate([rng.random(200000), 10.0 ** rng.uniform(-320.0, 0.0, 200000),
                        1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 100000), NDTRI_EDGES])
    assert same_values(ndtri(y), scipy_special.ndtri(y))
    assert ndtri(y.reshape(2, -1)).shape == (2, y.size // 2)


# scipy's ndtr flushes to 0 below x = -37.68, where math.erfc still returns
# denormals; above 1e-300 the two agree to 1e-12 relative (measured: at
# most 4.8e-13, the argument -x / sqrt(2) rounded once more than scipy's).
NDTR_REL_TOL = 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
@example([0.0, -0.0, np.inf, -np.inf, np.nan, -37.6, -37.7, -38.5, 8.3, 40.0, 1e-300])
def test_ndtr_stays_within_its_bound_of_scipy(values):
    x = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtr(x)
    want = scipy_special.ndtr(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    big = want >= 1e-300
    assert np.all(np.abs(got[big] - want[big]) <= NDTR_REL_TOL * want[big])
    small = ~big & ~np.isnan(want)
    assert np.all((got[small] >= 0.0) & (got[small] < 1e-300))
    assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0
    assert isinstance(ndtr(0.3), np.float64) and ndtr(np.zeros((2, 3))).shape == (2, 3)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), nrhs=st.integers(0, 5))
def test_potrs_equals_scipy_bit_for_bit(seed, n, nrhs):
    # nrhs 0 is a single 1-d right-hand side.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    low = np.linalg.cholesky(a @ a.T + 0.1 * np.eye(n))
    b = rng.normal(size=(nrhs, n) if nrhs else n)
    got = b.copy()
    assert _lapack.potrs(low.T.copy(), got) == 0
    want, info = scipy_lapack.dpotrs(low, b.T, lower=1)
    assert info == 0
    assert same_bits(got, want.T)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 90), kd=st.integers(0, 12))
def test_pbsv_equals_scipy_bit_for_bit(seed, n, kd):
    rng = np.random.default_rng(seed)
    kd = min(kd, n - 1)
    band = 0.1 * rng.normal(size=(kd + 1, n))
    band[kd] = 3.0 + 10.0 * np.abs(band[kd])
    b = rng.normal(size=n)
    ab, x = band.T.copy(), b.copy()
    assert _lapack.pbsv(ab, x) == 0
    factor, want, info = scipy_lapack.dpbsv(band, b)
    assert info == 0
    assert same_bits(x, want) and same_bits(ab.T, factor)


def test_pbsv_reports_the_first_minor_that_is_not_positive_definite():
    # Upper band storage of [[1, 2, 0], [2, 1, 0], [0, 0, 1]]: the second
    # leading minor is 1 - 4 < 0.
    ab = np.array([[0.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
    assert _lapack.pbsv(ab, np.ones(3)) == 2


def test_missing_lapack_symbols_raise_one_import_error(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(_lapack.ctypes, "CDLL", NoSymbols)
    with pytest.raises(ImportError, match=r"^numpy's BLAS, linked by .*, does not "
                       r"export scipy_dpotrs_64_, scipy_dpbsv_64_: copulacast "
                       r"needs a numpy >= 2\.0 wheel"):
        _lapack._bind()
    x = np.ones(2)
    assert _lapack.pbsv(np.full((2, 1), 4.0), x) == 0 and x.tolist() == [0.25, 0.25]

"""The standard normal CDF and quantile on float64 arrays.

ndtri is the Cephes algorithm that scipy.special.ndtri runs (a rational
approximation in y - 1/2 on the central interval, and in 1/sqrt(-2 log y)
on each tail), evaluated in the same IEEE operations in the same order, so
it returns scipy's bits; the logarithms go through math.log, the C
library's log, as Cephes' do.  ndtr is 0.5 erfc(-x / sqrt 2) through
math.erfc: it agrees with scipy.special.ndtr to a few 1e-13 relative.
Both take array-likes and return arrays of the input's shape (a 0-d input
gives a scalar), with ndtri(0) = -inf, ndtri(1) = inf and NaN outside
[0, 1].
"""

import math

import numpy as np

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# |y - 1/2| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# sqrt(-2 log y) >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes polevl: Horner's rule from the leading coefficient."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes p1evl: polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(x):
    return np.fromiter(map(math.log, x.tolist()), float, count=x.size)


def ndtr(x):
    """Standard normal CDF, elementwise."""
    x = np.asarray(x, dtype=float)
    z = (-x).ravel() / _SQRT_2
    return 0.5 * np.fromiter(map(math.erfc, z.tolist()), float,
                             count=z.size).reshape(x.shape)[()]


def ndtri(y):
    """Standard normal quantile, elementwise, with scipy.special.ndtri's bits."""
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.where(flat == 0.0, -np.inf, np.where(flat == 1.0, np.inf, np.nan))
    upper = flat > 1.0 - _EXP_M2
    p = np.where(upper, 1.0 - flat, flat)
    central = p > _EXP_M2
    if central.any():
        c = p[central] - 0.5
        c2 = c * c
        out[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _SQRT_2PI
    tail = (p <= _EXP_M2) & (flat > 0.0) & (flat < 1.0)
    if tail.any():
        x = np.sqrt(-2.0 * _log(p[tail]))
        x0 = x - _log(x) / x
        z = 1.0 / x
        x1 = np.empty_like(x)
        near = x < 8.0
        for rows, num, den in ((near, _P1, _Q1), (~near, _P2, _Q2)):
            if rows.any():
                zr = z[rows]
                x1[rows] = zr * _polevl(zr, num) / _p1evl(zr, den)
        out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out.reshape(y.shape)[()]

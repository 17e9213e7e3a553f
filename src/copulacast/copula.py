"""Gaussian-copula completion of partially observed mixed panels.

Each column is mapped to a latent standard normal coordinate through its
empirical marginal: continuous cells map to exact latent values via the
rescaled empirical CDF, ordinal cells map to latent intervals between
normal-quantile cut points.  The mapping runs per column, not per cell:
a continuous column's observed rows go through one np.interp and one
normal-quantile call, and an ordinal column's through one searchsorted
against cut points computed once for the column.  The normal CDF and
quantile are _normal.ndtr and ndtri; each completion maps all continuous
cells to latent values in one ndtri call and back in one ndtr call.

The latent rows are modeled as N(0, sigma) with sigma a correlation matrix
estimated by EM: the E-step computes conditional first and second moments
of each row's latent vector given its constraints, the M-step averages
E[z z^T] over rows and rescales the average back onto the correlation
manifold.  Missing cells are then imputed by pushing the conditional latent
means back through the marginal inverses, again one call per column.

One conditioning kernel serves em_fit, impute, pseudo_loglik and e_step:

- A plan (_Plan) is built once per em_fit, impute or complete call from
  the panel's latent cell arrays (_latent_cells: exact values, interval
  bounds and the interval mask, each shaped like the panel), which never
  change between iterations (complete fits and fills one matrix on one
  plan): the rows with an observed cell in one order, by observed-block
  size, with their latent starts and ordinal-slot tables, each size's block
  numbering its own patterns once.  The E-step conditions every row, the
  fill the leading ones, which have a missing cell.  RowConstraint lists
  (e_step, pseudo_loglik) enter through the same arrays and checks.
- Factors and solves run LAPACK's Cholesky routines from numpy's OpenBLAS
  (np.linalg.cholesky and _lapack.potrs), with cho_factor/cho_solve's
  checks kept: one factor and one solve per distinct pattern give both an
  interval row's precision and every row's gain.  Every row with an
  observed cell, exact-only or not, takes its E[z z^T] from this kernel;
  a row with none adds sigma.
- The ordinal mean-field sweep runs for all interval rows at once, one
  array step per (pass, ordinal slot), with each row's coordinate order
  and stopping test, array truncated moments and stacked np.matmul dot
  products laid out with the strides of the scalar loop's operands.

Every result equals the per-row scalar computation bit for bit, which
tests/test_copula.py checks against a copy of that computation.
"""

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._lapack import potrs
from ._normal import ndtr, ndtri
from .dataset import CONTINUOUS, ORDINAL, ObservationMatrix, write_json
from .errors import FitError

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class MarginalTransform:
    """Empirical marginal for one column.

    Continuous columns store the sorted distinct observed values and their
    rescaled cumulative probabilities rank/(m+1).  Ordinal columns store the
    observed levels and the k-1 interior cumulative frequencies that define
    the latent cut points.
    """

    kind: str
    support: np.ndarray
    cum_probs: np.ndarray

    @cached_property
    def cut_points(self):
        """Latent cut points (ordinal columns): normal quantiles of cum_probs,
        computed once per marginal."""
        return ndtri(np.asarray(self.cum_probs))

    def to_latent(self, x):
        """Map a continuous observation to its exact latent value."""
        if self.kind != CONTINUOUS:
            raise ValueError("to_latent applies to continuous columns only")
        p = np.interp(np.asarray(x, dtype=float), self.support, self.cum_probs)
        return ndtri(p)

    def to_interval(self, x):
        """Map an ordinal observation to its latent interval (lo, hi]."""
        if self.kind != ORDINAL:
            raise ValueError("to_interval applies to ordinal columns only")
        idx = int(np.searchsorted(self.support, float(x)))
        if idx >= self.support.size or self.support[idx] != float(x):
            raise ValueError(f"value {x!r} is not an observed level")
        cuts = self.cut_points
        lo = -np.inf if idx == 0 else float(cuts[idx - 1])
        hi = np.inf if idx == self.support.size - 1 else float(cuts[idx])
        return lo, hi

    def from_latent(self, z):
        """Map latent values back to the data scale.

        Continuous columns invert the empirical CDF by linear interpolation,
        clamped to the observed minimum and maximum.  Ordinal columns bin the
        latent value into the level whose interval contains it.
        """
        z = np.asarray(z, dtype=float)
        if self.kind == CONTINUOUS:
            return np.interp(ndtr(z), self.cum_probs, self.support)
        idx = np.searchsorted(self.cut_points, z, side="left")
        return np.asarray(self.support)[idx]

    def to_json(self):
        return {"kind": self.kind,
                "support": np.atleast_1d(self.support).astype(float).tolist(),
                "cum_probs": np.atleast_1d(self.cum_probs).astype(float).tolist()}


@dataclass(frozen=True)
class RowConstraint:
    """Latent-scale constraints for one row.

    exact maps column index -> exact latent value (observed continuous
    cells); intervals maps column index -> (lo, hi] latent interval
    (observed ordinal cells); missing lists unconstrained columns.  The
    three parts partition the columns.
    """

    exact: dict
    intervals: dict
    missing: tuple

    def __post_init__(self):
        cols = sorted(list(self.exact) + list(self.intervals) + list(self.missing))
        if cols != list(range(len(cols))):
            raise ValueError("constraint parts must partition the columns")

    @property
    def n_cols(self):
        return len(self.exact) + len(self.intervals) + len(self.missing)

    @property
    def observed(self):
        return tuple(sorted(list(self.exact) + list(self.intervals)))


def fit_marginals(matrix):
    """Fit one MarginalTransform per column from the observed cells.

    Continuous columns get cumulative probabilities rank/(m_obs + 1) over the
    sorted distinct observed values; ordinal columns get interior cumulative
    frequencies count/m_obs over the observed levels (levels declared but
    never observed are dropped).

    Raises:
        FitError: a column has no observed cells or fewer than two distinct
            observed values, or a continuous column's values lie too far
            apart for from_latent's interpolation slopes to stay finite.
    """
    out = []
    for j in range(matrix.n_cols):
        name = matrix.column_names[j]
        obs = matrix.values[matrix.mask[:, j], j]
        if obs.size == 0:
            raise FitError(f"column {name!r} has no observed cells")
        support, counts = np.unique(obs, return_counts=True)
        if support.size < 2:
            raise FitError(f"column {name!r} is constant among observed cells")
        cum = np.cumsum(counts)
        if matrix.column_kinds[j] == CONTINUOUS:
            probs = cum / (obs.size + 1.0)
            with np.errstate(over="ignore"):
                slopes = np.diff(support) / np.diff(probs)
            if not np.all(np.isfinite(slopes)):
                raise FitError(f"column {name!r}: observed values too far "
                               "apart to interpolate in float64")
        else:
            probs = cum[:-1] / float(obs.size)
        out.append(MarginalTransform(kind=matrix.column_kinds[j],
                                     support=support, cum_probs=probs))
    return out


def _latent_cells(matrix, marginals):
    """The latent images of a matrix's observed cells, as panel-shaped arrays.

    Returns (exact, lo, hi, interval): exact holds the observed continuous
    cells' exact latent values, lo and hi the observed ordinal cells'
    latent intervals (lo, hi], and interval marks the ordinal cells; other
    cells hold 0.0, -inf and inf.  Each column is mapped in one call, and
    the values equal a per-cell to_latent / to_interval build bit for bit.

    Raises:
        ValueError: an ordinal cell holds a level its marginal never saw;
            the message names the column and the 0-based row of the first
            such cell in row-major order.
    """
    if len(marginals) != matrix.n_cols:
        raise ValueError("marginal count does not match column count")
    shape = matrix.values.shape
    exact = np.zeros(shape)
    lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
    interval = np.zeros(shape, dtype=bool)
    unseen = np.zeros(shape, dtype=bool)
    for j, marginal in enumerate(marginals):
        rows = np.flatnonzero(matrix.mask[:, j])
        x = matrix.values[rows, j]
        if marginal.kind == CONTINUOUS:
            # to_latent's probabilities; one ndtri call below maps them all
            exact[rows, j] = np.interp(x, marginal.support, marginal.cum_probs)
            continue
        support = marginal.support
        idx = np.minimum(np.searchsorted(support, x), support.size - 1)
        bounds = np.concatenate(([-np.inf], marginal.cut_points, [np.inf]))
        lo[rows, j], hi[rows, j] = bounds[idx], bounds[idx + 1]
        interval[rows, j] = True
        unseen[rows, j] = support[idx] != x
    if unseen.any():
        i, j = np.argwhere(unseen)[0]
        raise ValueError(f"column {matrix.column_names[j]!r} row {i}: "
                         f"value {float(matrix.values[i, j])!r} is not "
                         "an observed level")
    continuous = matrix.mask & ~interval
    exact[continuous] = ndtri(exact[continuous])
    return exact, lo, hi, interval


def row_constraints(matrix, marginals):
    """Translate every row of a matrix into latent-scale RowConstraints.

    A per-row view of _latent_cells; the result equals a per-cell build
    from to_latent / to_interval bit for bit.

    Raises:
        ValueError: an ordinal cell holds a level its marginal never saw;
            the message names the column and the 0-based row of the first
            such cell in row-major order.
    """
    exact, lo, hi, interval = _latent_cells(matrix, marginals)
    out = []
    for seen, ordinal, z, a, b in zip(matrix.mask.tolist(), interval.tolist(),
                                      exact.tolist(), lo.tolist(), hi.tolist()):
        out.append(RowConstraint(
            exact={j: z[j] for j, s in enumerate(seen) if s and not ordinal[j]},
            intervals={j: (a[j], b[j]) for j, o in enumerate(ordinal) if o},
            missing=tuple(j for j, s in enumerate(seen) if not s)))
    return out


def _constraint_cells(constraints, q):
    """The mask and _latent_cells arrays of a RowConstraint list over q columns."""
    mask = np.zeros((len(constraints), q), dtype=bool)
    exact = np.zeros(mask.shape)
    lo, hi = np.full(mask.shape, -np.inf), np.full(mask.shape, np.inf)
    interval = np.zeros(mask.shape, dtype=bool)
    for i, con in enumerate(constraints):
        mask[i, list(con.observed)] = True
        interval[i, list(con.intervals)] = True
        for j, value in con.exact.items():
            exact[i, j] = value
        for j, (a, b) in con.intervals.items():
            lo[i, j], hi[i, j] = a, b
    return mask, exact, lo, hi, interval


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _truncated_moments(lo, hi, mean, sd):
    """Elementwise truncated-normal moments, the scalar expressions on arrays.

    Each element goes through the same IEEE operations as the scalar form,
    so the results agree bit for bit.  An interval whose lower bound lies
    above the mean takes its mass from the mirror interval (-b, -a), which
    does not cancel in the upper tail; infinite bounds contribute zero
    density, and elements whose interval mass underflows collapse to the
    nearest finite endpoint with zero variance.
    """
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    upper = a > 0
    cdf_b, cdf_a = ndtr(np.stack((np.where(upper, -a, b), np.where(upper, -b, a))))
    mass = cdf_b - cdf_a
    finite_a, finite_b = np.isfinite(a), np.isfinite(b)
    a0 = np.where(finite_a, a, 0.0)
    b0 = np.where(finite_b, b, 0.0)
    pa = np.where(finite_a, _phi(a0), 0.0)
    pb = np.where(finite_b, _phi(b0), 0.0)
    collapsed = mass < 1e-300
    mass = np.where(collapsed, 1.0, mass)
    ratio = (pa - pb) / mass
    mu = mean + sd * ratio
    spread = 1.0 + (a0 * pa - b0 * pb) / mass - ratio * ratio
    var = sd * sd * np.where(0.0 > spread, 0.0, spread)
    if collapsed.any():
        anchor = np.where(np.abs(a) < np.abs(b), lo, hi)
        anchor = np.where(np.isfinite(anchor), anchor,
                          np.where(np.isfinite(hi), hi, lo))
        mu = np.where(collapsed, anchor, mu)
        var = np.where(collapsed, 0.0, var)
    return mu, var


def truncated_normal_moments(lo, hi, mean=0.0, sd=1.0):
    """Mean and variance of N(mean, sd^2) truncated to (lo, hi).

    Bounds may be infinite.  When the interval mass underflows, the moments
    collapse to the nearest finite endpoint with zero variance.  This is the
    scalar view of the array kernel the E-step runs on.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if sd <= 0:
        raise ValueError("need sd > 0")
    mu, var = _truncated_moments(lo, hi, mean, sd)
    return float(mu), float(var)


def _check_finite(a):
    """The finiteness check cho_factor / cho_solve apply to their inputs."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _Plan:
    """The latent cells of a panel, arranged once per fit.

    The cells never change between EM iterations, so everything the
    conditioning needs from them is gathered here once and reused by every
    E-step, the log-likelihood and impute.  rows holds the rows with an
    observed cell in one order, by observed-block size n, interval rows
    first within a size; the partial rows with a missing cell lead it (a
    fully observed row has the largest n), row_order maps it back to panel
    order, and empty counts the other rows.  In that order:

    - z0: each row's observed latent start (exact values, ordinal cells at
      their standard truncated means), padded; at, lo, hi and has, the
      (depth, rows) tables of each row's t-th ordinal cell: its position in
      the observed block, its bounds and whether it exists;
    - blocks, one (n, start, mid, stop, first, pattern, o, m) per size:
      rows start:mid carry interval cells, mid:stop do not; o and m stack
      their observed and missing columns; first holds the block position of
      each distinct observed-column set's first row, pattern each row's set.

    In panel order, loglik_z: per exact block (the exact cells of a row),
    the stacked exact values of its rows; loglik_sizes: the blocks by size,
    as (block ids, their stacked columns); loglik_rows: each row's exact
    block and interval log masses.
    """

    def __init__(self, mask, exact, lo, hi, interval):
        self.q = mask.shape[1]
        n_obs, n_ordinal = mask.sum(axis=1), interval.sum(axis=1)
        exact_cells = mask & ~interval
        keys, block = np.unique(exact_cells, axis=0, return_inverse=True)
        block = block.reshape(-1)
        self.loglik_z = [exact[np.flatnonzero(block == i)[:, None], np.flatnonzero(key)]
                         for i, key in enumerate(keys)]
        sizes = keys.sum(axis=1)
        self.loglik_sizes = []
        for k in np.unique(sizes[sizes > 0]).tolist():
            ids = np.flatnonzero(sizes == k)
            self.loglik_sizes.append((ids.tolist(), np.nonzero(keys[ids])[1].reshape(-1, k)))
        self.exact_finite = bool(np.isfinite(exact[exact_cells]).all())
        # above 0, the mass of the mirror interval, as in _truncated_moments
        cut_lo, cut_hi = lo[interval], hi[interval]
        upper = cut_lo > 0
        cdf_hi, cdf_lo = ndtr(np.stack((np.where(upper, -cut_lo, cut_hi),
                                        np.where(upper, -cut_hi, cut_lo))))
        mass = cdf_hi - cdf_lo
        terms = np.log(np.where(1e-300 > mass, 1e-300, mass)).tolist()
        self.loglik_rows = []
        b = 0
        for block_id, k, d in zip(block.tolist(), exact_cells.sum(axis=1).tolist(),
                                  n_ordinal.tolist()):
            self.loglik_rows.append((block_id if k else None, terms[b:b + d]))
            b += d
        rows = np.flatnonzero(n_obs)
        self.rows = rows = rows[np.lexsort((n_ordinal[rows] == 0, n_obs[rows]))]
        self.row_order = np.argsort(rows, kind="stable")
        self.empty = n_obs.size - rows.size
        mask, latent, lo, hi, interval = (a[rows] for a in (mask, exact, lo, hi, interval))
        sizes, n_ordinal = n_obs[rows], n_ordinal[rows]
        self.partial = int(np.count_nonzero(sizes < self.q))
        cols = np.argsort(~mask, axis=1, kind="stable")
        latent[interval], _ = _truncated_moments(lo[interval], hi[interval], 0.0, 1.0)
        self.z0 = np.take_along_axis(latent, cols[:, :sizes.max(initial=0)], axis=1)
        depth = int(n_ordinal.max(initial=0))
        ordinal = np.argsort(~interval, axis=1, kind="stable")[:, :depth]
        has = np.arange(depth) < n_ordinal[:, None]
        at = np.take_along_axis(np.cumsum(mask, axis=1) - 1, ordinal, axis=1)
        self.has, self.at = has.T, np.where(has, at, 0).T
        self.lo, self.hi = (np.take_along_axis(x, ordinal, axis=1).T for x in (lo, hi))
        self.blocks = []
        starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
        for start, stop in zip(starts, starts[1:] + [rows.size]):
            n = int(sizes[start])
            mid = start + int(np.count_nonzero(n_ordinal[start:stop]))
            o, m = cols[start:stop, :n], cols[start:stop, n:]
            _, first, pattern = np.unique(o, axis=0, return_index=True, return_inverse=True)
            self.blocks.append((n, start, mid, stop, first, pattern.reshape(-1), o, m))


def _check_cells(plan, stop):
    """The E-step's and pseudo_loglik's cell checks on a plan's first stop rows."""
    if not (plan.hi[:, :stop] > plan.lo[:, :stop]).all():
        raise ValueError("need hi > lo")
    if not plan.exact_finite:
        _check_finite(plan.z0[:stop])


class _Conditioning:
    """The conditional-Gaussian algebra of one sigma over a plan's leading rows.

    The first stop rows of the plan's order are conditioned, whole blocks.
    Each block is conditioned in stacked form: one fancy index gathers its
    rows' ridged observed submatrices, one their cross blocks Sigma_MO and
    one their missing blocks, and one np.matmul forms every conditional
    covariance Sigma_MM - gain Sigma_OM.  One np.linalg.cholesky factors a
    block's distinct patterns, and per distinct pattern LAPACK potrs solves
    once, against [I | Sigma_OM^T] if its rows carry interval cells (they
    lead their block), else Sigma_OM^T; the right-hand sides are built as
    rows, LAPACK's column-major columns, and potrs solves each alone, so an
    interval row's precision and each gain are slices of the solution, bit
    for bit.  cho_factor/cho_solve's checks stay: a non-finite input is a
    ValueError, a non-PD block a FitError.  A row with nothing missing and
    no interval cell needs no factor.
    """

    def __init__(self, sigma, plan, ridge, stop):
        self.plan, self.stop = plan, stop
        self.blocks = [block for block in plan.blocks if block[3] <= stop]
        # Finite entries that cannot overflow when the ridge is added pass
        # every finiteness check, so the checks are skipped.
        finite = float(np.abs(sigma).max(initial=0.0)) + abs(ridge) < np.inf
        self.precs, self.gains, self.conds = [], [], []
        for n, start, mid, _, first, pattern, o, m in self.blocks:
            eye = np.eye(n)
            blocks = sigma[o[:, :, None], o[:, None, :]] + ridge * eye
            cross = sigma[m[:, :, None], o[:, None, :]]
            if not finite:
                _check_finite(blocks)
                _check_finite(cross)
            # with nothing missing, only the interval rows' pattern
            at = first if m.size else first[first < mid - start]
            try:
                factors = np.linalg.cholesky(blocks[at])
            except np.linalg.LinAlgError:
                raise FitError("observed block of sigma is not positive "
                               "definite") from None
            del blocks
            # each factor's rows as LAPACK's column-major lower triangle, and
            # each pattern's right-hand sides as rows: [I | Sigma_OM^T]'s
            # columns, the identity solved only for interval patterns
            factors = factors.transpose(0, 2, 1).copy()
            solves = np.empty((at.size, n + m.shape[1], n))
            solves[:, :n] = eye
            solves[:, n:] = cross[at]
            for c, solve, interval in zip(factors, solves, (at < mid - start).tolist()):
                potrs(c, solve if interval else solve[n:])
            self.precs.append(solves[pattern[:mid - start], :n].transpose(0, 2, 1))
            if not m.size:
                self.gains.append(None)
                self.conds.append(None)
                continue
            gain = solves[pattern, n:]
            self.gains.append(gain)
            self.conds.append(sigma[m[:, :, None], m[:, None, :]]
                              - np.matmul(gain, cross.transpose(0, 2, 1)))

    def observed_moments(self, max_inner=50, inner_tol=1e-6):
        """Observed latent means and variances of the conditioned rows.

        Returns (z, v), padded (rows, width) arrays in plan order: exact
        values with zero variance, and for interval cells the ordinal
        mean-field fixed point.  The sweep runs for all interval rows at
        once, one array step per (pass, ordinal slot): slot t is each row's
        t-th ordinal column, so every row keeps the scalar loop's coordinate
        order, and each row stops after the first pass whose relative change
        falls below inner_tol.  A block's dot products prec[k] @ z run as one
        stacked np.matmul whose operands keep the scalar loop's strides (a
        precision row strided by n, a contiguous latent vector), so BLAS
        runs the same kernel and the sums agree bit for bit.
        """
        plan, count = self.plan, self.stop
        _check_cells(plan, count)
        z = plan.z0[:count].copy()
        v = np.zeros_like(z)
        at, lo, hi, has = (table[:, :count] for table in (plan.at, plan.lo, plan.hi, plan.has))
        depth = int(has.sum(axis=0).max(initial=0))
        if not depth:
            return z, v
        diag = np.ones((depth, count))
        dots = np.zeros(count)
        out = dots.reshape(count, 1, 1)
        products = [[] for _ in range(depth)]
        for (n, start, mid, *_), prec in zip(self.blocks, self.precs):
            if mid == start:
                continue
            s = min(depth, n)
            k = at[:s, start:mid].T[:, :, None]
            picked = np.take_along_axis(prec, k, axis=1)    # [b, t] = prec_b[k_bt]
            diag[:s, start:mid] = np.take_along_axis(picked, k, axis=2)[:, :, 0].T
            rows = np.zeros((mid - start, n, n))
            rows[:, :, :s] = picked.transpose(0, 2, 1)      # [b, :, t], strided by n
            for t in range(s):
                products[t].append((rows[:, None, :, t], z[start:mid, :n, None],
                                    out[start:mid]))
        has = has[:depth]
        cond_var = np.where(has, 1.0 / diag, 1.0)
        sd = np.sqrt(cond_var)
        if max_inner > 0 and (has & (sd <= 0)).any():
            raise ValueError("need sd > 0")
        active = np.ones(count, dtype=bool)
        for _ in range(max_inner):
            delta = np.zeros(count)
            scale = np.ones(count)
            for t in range(depth):
                for prec_rows, latent, dot in products[t]:
                    np.matmul(prec_rows, latent, out=dot)
                # only the rows that step: the rest keep their cells
                step = np.flatnonzero(active & has[t])
                k = at[t, step]
                zk = z[step, k]
                mu, var = _truncated_moments(lo[t, step], hi[t, step],
                                             zk - cond_var[t, step] * dots[step],
                                             sd[t, step])
                # the scalar loop's max(delta, |mu - z|) and
                # max(scale, |mu|, |z|, 1.0), one comparison at a time
                change, row_delta = np.abs(mu - zk), delta[step]
                delta[step] = np.where(change > row_delta, change, row_delta)
                row_scale = scale[step]
                for size in (np.abs(mu), np.abs(zk)):
                    row_scale = np.where(size > row_scale, size, row_scale)
                scale[step] = row_scale
                z[step, k] = mu
                v[step, k] = var
            active &= ~(delta / scale < inner_tol)
            if not active.any():
                break
        return z, v

    def missing_means(self, z, latent):
        """Write each conditioned row's missing mean gain @ z_obs into its
        row of latent."""
        rows = self.plan.rows[:, None]
        for (n, start, _, stop, *_, m), gain in zip(self.blocks, self.gains):
            if gain is not None:
                latent[rows[start:stop], m] = np.matmul(gain, z[start:stop, :n, None])[:, :, 0]

    def second_moments(self, z, v):
        """Each conditioned row's symmetrized E[z z^T], stacked in plan order."""
        q = self.plan.q
        out = np.empty((self.stop, q, q))
        for (n, start, _, stop, *_, o, m), gain, cond in zip(
                self.blocks, self.gains, self.conds):
            zb, vb = z[start:stop, :n], v[start:stop, :n]
            batch = np.arange(stop - start)[:, None, None]
            diag = np.zeros((stop - start, n, n))
            diag[:, np.arange(n), np.arange(n)] = vb
            e_zzT = out[start:stop]
            e_zzT[:] = 0.0
            e_zzT[batch, o[:, :, None], o[:, None, :]] = zb[:, :, None] * zb[:, None, :] + diag
            if gain is not None:
                mean_m = np.matmul(gain, zb[:, :, None])              # (b, |m|, 1)
                spread = gain * vb[:, None, :]
                e_zzT[batch, m[:, :, None], m[:, None, :]] = (
                    cond + np.matmul(spread, gain.transpose(0, 2, 1))
                    + mean_m * mean_m.transpose(0, 2, 1))
                cross_mo = mean_m * zb[:, None, :] + spread
                e_zzT[batch, m[:, :, None], o[:, None, :]] = cross_mo
                e_zzT[batch, o[:, :, None], m[:, None, :]] = cross_mo.transpose(0, 2, 1)
            np.multiply(e_zzT + e_zzT.transpose(0, 2, 1), 0.5, out=e_zzT)
        return out


def e_step(sigma, constraint, ridge=1e-8, max_inner=50, inner_tol=1e-6):
    """Conditional latent moments of one row under the copula model.

    Observed continuous coordinates are fixed; observed ordinal coordinates
    are approximated by a truncated-normal mean-field fixed point (iterate
    until the relative change falls below inner_tol, at most max_inner
    passes); missing coordinates get their Gaussian conditional moments given
    the others.  Ordinal posterior variance propagates into E[z z^T].  This
    is a one-row call into the kernel em_fit and impute use.

    Args:
        sigma: q x q latent correlation matrix.
        constraint: RowConstraint for the row.
        ridge: diagonal stabilizer added to the observed block before solves.

    Returns:
        (e_z, e_zzT): length-q conditional mean and q x q conditional second
        moment, with e_zzT symmetric.
    """
    sigma = np.asarray(sigma, dtype=float)
    q = sigma.shape[0]
    if constraint.n_cols != q:
        raise ValueError("constraint arity does not match sigma")
    if not constraint.observed:
        return np.zeros(q), sigma.copy()
    plan = _Plan(*_constraint_cells([constraint], q))
    kernel = _Conditioning(sigma, plan, ridge, plan.rows.size)
    z, v = kernel.observed_moments(max_inner, inner_tol)
    e_z = np.zeros((1, q))
    e_z[0, list(constraint.observed)] = z[0]
    kernel.missing_means(z, e_z)
    return e_z[0], kernel.second_moments(z, v)[0]


def project_correlation(s):
    """Rescale a positive-diagonal symmetric matrix onto the correlation manifold.

    Divides by the outer product of the diagonal's square roots; if the
    result has an eigenvalue below 1e-6 the spectrum is clipped and the
    matrix rescaled again.  The output is symmetric with a unit diagonal and
    minimum eigenvalue >= 1e-6, and the map is idempotent.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("input must be square")
    if not np.allclose(s, s.T, atol=1e-10):
        raise ValueError("input must be symmetric")
    if np.any(np.diag(s) <= 0):
        raise ValueError("input must have a strictly positive diagonal")

    floor = 1e-6
    out = 0.5 * (s + s.T)
    for _ in range(32):
        d = np.sqrt(np.diag(out))
        if not np.all(d == 1.0):
            out = out / np.outer(d, d)
            np.fill_diagonal(out, 1.0)
            out = 0.5 * (out + out.T)
        eigval, eigvec = np.linalg.eigh(out)
        if eigval[0] >= floor:
            return out
        # clip slightly above the floor so the post-rescale spectrum clears it
        clipped = np.maximum(eigval, floor * 1.05)
        out = (eigvec * clipped) @ eigvec.T
        out = 0.5 * (out + out.T)
    raise FitError("correlation projection failed to stabilize")


@dataclass
class CopulaModel:
    """Fitted Gaussian copula: latent correlation plus per-column marginals.

    em_trace rows are (iteration, frobenius_delta, pseudo_loglik) with the
    log likelihood evaluated after that iteration's update.  ridge is the
    diagonal stabilizer the fit conditioned with; impute fills with it too.
    """

    sigma: np.ndarray
    marginals: list
    em_trace: list = field(default_factory=list)
    converged: bool = True
    ridge: float = 1e-8

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        q = self.sigma.shape[0]
        if self.sigma.shape != (q, q) or len(self.marginals) != q:
            raise ValueError("sigma and marginals disagree on dimension")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-8):
            raise ValueError("sigma must be symmetric")
        if np.any(np.abs(np.diag(self.sigma) - 1.0) > 1e-8):
            raise ValueError("sigma must have a unit diagonal")
        if np.linalg.eigvalsh(self.sigma)[0] < -1e-8:
            raise ValueError("sigma must be positive semidefinite")

    @property
    def n_cols(self):
        return self.sigma.shape[0]

    def to_json(self):
        return {"sigma": self.sigma.tolist(),
                "marginals": [m.to_json() for m in self.marginals],
                "em_trace": [[int(t), float(d), float(l)]
                             for t, d, l in self.em_trace],
                "converged": bool(self.converged), "ridge": float(self.ridge)}

    def save(self, path):
        write_json(self.to_json(), path)


def _loglik(sigma, plan, ridge):
    """pseudo_loglik over a plan: one np.linalg.cholesky per block size, one
    solve per exact pattern against all its rows, rows added in order."""
    finite = float(np.abs(sigma).max(initial=0.0)) + abs(ridge) < np.inf
    _check_cells(plan, plan.rows.size)
    exact_terms = [None] * len(plan.loglik_z)
    for ids, cols in plan.loglik_sizes:
        blocks = sigma[cols[:, :, None], cols[:, None, :]]
        if not finite:
            _check_finite(blocks)
        try:
            factors = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            factors = np.array([_repaired_factor(block, ridge) for block in blocks])
        logdets = 2.0 * np.sum(np.log(np.diagonal(factors, axis1=1, axis2=2)), axis=1)
        # each factor's rows as LAPACK's column-major lower triangle
        for block_id, c, logdet in zip(ids, factors.transpose(0, 2, 1).copy(), logdets):
            z = plan.loglik_z[block_id]
            x = z.copy()
            potrs(c, x)
            exact_terms[block_id] = iter([-0.5 * (zr.size * _LOG_2PI + logdet + float(zr @ xr))
                                          for zr, xr in zip(z, x)])
    total = 0.0
    for block_id, terms in plan.loglik_rows:
        if block_id is not None:
            total += next(exact_terms[block_id])
        for term in terms:
            total += term
    return total


def _repaired_factor(block, ridge):
    """The lower Cholesky factor of block, or, with a warning, of block + ridge I."""
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        warnings.warn("singular observed block in pseudo_loglik; "
                      "applying ridge repair")
        return np.linalg.cholesky(block + ridge * np.eye(len(block)))


def pseudo_loglik(sigma, constraints, ridge=1e-8):
    """Observed-data pseudo log likelihood under latent correlation sigma.

    Additive over rows.  Exact continuous coordinates contribute their joint
    Gaussian log density under the corresponding sigma block; ordinal
    coordinates contribute the log of their univariate interval mass (a
    deliberate mean-field simplification).  Singular blocks are
    ridge-repaired with a warning.
    """
    sigma = np.asarray(sigma, dtype=float)
    return _loglik(sigma, _Plan(*_constraint_cells(constraints, sigma.shape[0])), ridge)


def _estep_sum(sigma, plan, ridge):
    """Sum of E[z z^T] over a plan's rows: each row with an observed cell
    from the kernel, added in row order, then sigma once per empty row."""
    kernel = _Conditioning(sigma, plan, ridge, plan.rows.size)
    second = kernel.second_moments(*kernel.observed_moments())
    total = np.zeros((plan.q, plan.q))
    for i in plan.row_order:
        total += second[i]
    for _ in range(plan.empty):
        total += sigma
    return 0.5 * (total + total.T)


def em_fit(matrix, max_iters=100, tol=1e-4, ridge=1e-8):
    """Fit the latent correlation of a Gaussian copula by EM.

    Starts from the identity; each iteration averages the conditional second
    moments over rows and projects the average back onto the correlation
    manifold.  Stops when the relative Frobenius change falls below tol; if
    max_iters passes without that, a warning is issued and the model is
    flagged unconverged.

    Args:
        matrix: ObservationMatrix with at least two rows carrying observed
            cells and no constant columns.
        max_iters: iteration cap, >= 1.
        tol: relative Frobenius-change stopping threshold, > 0.
        ridge: diagonal stabilizer for observed-block solves, >= 0.

    Returns:
        CopulaModel with an em_trace of (iteration, delta, pseudo_loglik).
    """
    return _fit(matrix, max_iters, tol, ridge)[0]


def _fit(matrix, max_iters, tol, ridge):
    """em_fit; returns (model, plan), the plan of the matrix's latent cells
    under the fitted marginals."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not ridge >= 0:
        raise ValueError("ridge must be >= 0")
    rows_with_obs = int(np.any(matrix.mask, axis=1).sum())
    if rows_with_obs < 2:
        raise FitError("need at least two rows with observed cells")
    marginals = fit_marginals(matrix)
    plan = _Plan(matrix.mask, *_latent_cells(matrix, marginals))
    sigma = np.eye(plan.q)
    trace = []
    converged = False
    for it in range(1, max_iters + 1):
        s = _estep_sum(sigma, plan, ridge) / matrix.n_rows
        sigma_next = project_correlation(s)
        delta = float(np.linalg.norm(sigma_next - sigma) / np.linalg.norm(sigma))
        loglik = _loglik(sigma_next, plan, ridge)
        trace.append((it, delta, loglik))
        sigma = sigma_next
        if delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"copula EM did not converge within {max_iters} iterations "
                      f"(last delta {trace[-1][1]:.3e})")
    return CopulaModel(sigma=sigma, marginals=marginals, em_trace=trace,
                       converged=converged, ridge=ridge), plan


def impute(model, matrix):
    """Fill every missing cell with its conditional-mean reconstruction.

    Missing latent coordinates get their conditional means given the row's
    observed constraints; each mean is pushed through the column's marginal
    inverse (continuous: interpolated empirical quantile clamped to the
    observed range; ordinal: binned to a level).  Observed cells pass through
    bit-exact.  Rows with no observed cells fall back to column medians.
    The observed blocks are conditioned with model.ridge, the ridge the
    model was fitted with.

    Returns:
        Fully observed ObservationMatrix.
    """
    if model.n_cols != matrix.n_cols:
        raise ValueError("model and matrix disagree on column count")
    return _fill(model, matrix, _Plan(matrix.mask, *_latent_cells(matrix, model.marginals)))


def _fill(model, matrix, plan):
    """impute on a plan of the matrix's latent cells under model.marginals."""
    kernel = _Conditioning(model.sigma, plan, model.ridge, plan.partial)
    latent = np.zeros(matrix.values.shape)
    kernel.missing_means(kernel.observed_moments()[0], latent)
    values = matrix.values.copy()
    continuous = ~matrix.mask & np.array([m.kind == CONTINUOUS for m in model.marginals])
    latent[continuous] = ndtr(latent[continuous])  # from_latent's probabilities
    for j, marginal in enumerate(model.marginals):
        rows = np.flatnonzero(~matrix.mask[:, j])
        if marginal.kind == CONTINUOUS:
            values[rows, j] = np.interp(latent[rows, j], marginal.cum_probs,
                                        marginal.support)
        else:
            values[rows, j] = marginal.from_latent(latent[rows, j])
    return replace(matrix, values=values, mask=np.ones_like(matrix.mask))


def complete(matrix, max_iters=100, tol=1e-4, ridge=1e-8):
    """Fit the copula to a matrix and impute that same matrix.

    Equals em_fit(matrix, max_iters, tol, ridge) followed by impute bit for
    bit, but builds the latent cells and their plan once: impute's cells
    under the fitted marginals are the ones EM ran on.

    Returns:
        (CopulaModel, fully observed ObservationMatrix).
    """
    model, plan = _fit(matrix, max_iters, tol, ridge)
    return model, _fill(model, matrix, plan)

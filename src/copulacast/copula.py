"""Gaussian-copula completion of partially observed mixed panels.

Each column is mapped to a latent standard normal coordinate through its
empirical marginal: continuous cells map to exact latent values via the
rescaled empirical CDF, ordinal cells map to latent intervals between
normal-quantile cut points.  The mapping runs per column, not per cell:
a continuous column's observed rows go through one np.interp and one
normal-quantile call, and an ordinal column's through one searchsorted
against cut points computed once for the column.  The normal CDF and
quantile are scipy.special.ndtr and ndtri.

The latent rows are modeled as N(0, sigma) with sigma a correlation matrix
estimated by EM: the E-step computes conditional first and second moments
of each row's latent vector given its constraints, the M-step averages
E[z z^T] over rows and rescales the average back onto the correlation
manifold.  Missing cells are then imputed by pushing the conditional latent
means back through the marginal inverses, again one call per column.

One conditioning kernel serves em_fit, impute, pseudo_loglik and e_step:

- A plan (_Plan) is built once per em_fit, impute or complete call from
  the row constraints, which never change between iterations (complete
  fits and fills one matrix on one plan): observed/missing
  index arrays per pattern, exact values and interval bounds as arrays,
  the exact-only rows grouped by pattern, and stacked layouts of the rows
  each E-step visits, grouped by observed-block size.
- Factors and solves call LAPACK potrf/potrs (scipy.linalg.lapack) directly,
  once per distinct pattern, with cho_factor/cho_solve's checks kept.
- The ordinal mean-field sweep runs for all interval rows at once, one
  array step per (pass, ordinal slot), with each row's coordinate order
  and stopping test, array truncated moments and stacked np.matmul dot
  products laid out with the strides of the scalar loop's operands.

Every result equals the per-row scalar computation bit for bit, which
tests/test_copula.py checks against a copy of that computation.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import ndtr, ndtri

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

    @property
    def cut_points(self):
        """Latent cut points (ordinal columns): normal quantiles of cum_probs."""
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

    @classmethod
    def from_json(cls, obj):
        return cls(kind=obj["kind"], support=np.asarray(obj["support"], dtype=float),
                   cum_probs=np.asarray(obj["cum_probs"], dtype=float))


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
            observed values.
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
        else:
            probs = cum[:-1] / float(obs.size)
        out.append(MarginalTransform(kind=matrix.column_kinds[j],
                                     support=support, cum_probs=probs))
    return out


def _latent_column(marginal, x):
    """Latent images of one column's observed values x, in one array call.

    Continuous values map to exact latent floats, ordinal values to (lo, hi)
    intervals between cut points computed once for the column; a value that
    is not an observed level maps to None.
    """
    if marginal.kind == CONTINUOUS:
        return marginal.to_latent(x).tolist()
    support = marginal.support
    idx = np.minimum(np.searchsorted(support, x), support.size - 1)
    bounds = np.concatenate(([-np.inf], marginal.cut_points, [np.inf]))
    return [(lo, hi) if seen else None for lo, hi, seen in
            zip(bounds[idx].tolist(), bounds[idx + 1].tolist(),
                (support[idx] == x).tolist())]


def row_constraints(matrix, marginals):
    """Translate every row of a matrix into latent-scale RowConstraints.

    Each column's observed cells are mapped in one call; the result equals
    a per-cell build from to_latent / to_interval bit for bit.

    Raises:
        ValueError: an ordinal cell holds a level its marginal never saw;
            the message names the column and the 0-based row of the first
            such cell in row-major order.
    """
    if len(marginals) != matrix.n_cols:
        raise ValueError("marginal count does not match column count")
    latent = []
    for j, marginal in enumerate(marginals):
        rows = np.flatnonzero(matrix.mask[:, j])
        latent.append(dict(zip(rows.tolist(),
                               _latent_column(marginal, matrix.values[rows, j]))))
    continuous = [m.kind == CONTINUOUS for m in marginals]
    out = []
    for i, observed in enumerate(matrix.mask.tolist()):
        exact, intervals, missing = {}, {}, []
        for j, seen in enumerate(observed):
            if not seen:
                missing.append(j)
            elif continuous[j]:
                exact[j] = latent[j][i]
            elif latent[j][i] is None:
                raise ValueError(f"column {matrix.column_names[j]!r} row {i}: "
                                 f"value {float(matrix.values[i, j])!r} is not "
                                 "an observed level")
            else:
                intervals[j] = latent[j][i]
        out.append(RowConstraint(exact=exact, intervals=intervals,
                                 missing=tuple(missing)))
    return out


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _truncated_moments(lo, hi, mean, sd):
    """Elementwise truncated-normal moments, the scalar expressions on arrays.

    Each element goes through the same IEEE operations as the scalar form,
    so the results agree bit for bit; infinite bounds contribute zero
    density, and elements whose interval mass underflows collapse to the
    nearest finite endpoint with zero variance.
    """
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = ndtr(b) - ndtr(a)
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


def _potrf(block):
    """Lower Cholesky factor from LAPACK potrf, as cho_factor(lower=True) gives it."""
    c, info = dpotrf(block, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrf")
    return c


def _potrs(c, b):
    """Solve with a _potrf factor through LAPACK potrs, as cho_solve does."""
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


class _Plan:
    """Per-row structure of a constraint list, built once per fit.

    The constraints never change between EM iterations, so everything the
    conditioning needs from them is gathered here once and reused by every
    E-step, the log-likelihood and impute:

    - patterns: each distinct observed-column set as (o, m), its observed
      and missing index arrays; pid maps a row to its pattern;
    - z0: each row's observed latent start (exact values, ordinal cells at
      their standard truncated means); slots and bounds: the positions of
      its ordinal cells in the observed block and their (lo, hi) bounds;
    - groups: the exact-only rows by pattern, with their stacked exact
      values z and sums z^T z;
    - loglik_rows / log_mass: each row's exact block and values, and the
      log masses of its intervals;
    - layout(rows): the stacked arrangement of a row set, cached.
    """

    def __init__(self, constraints, q):
        self.q = q
        self.patterns, self.pid, self.slots, self.bounds = [], [], [], []
        self.interval_rows, self.loglik_rows, self.loglik_blocks = [], [], []
        index, loglik_index, groups = {}, {}, {}
        values, exact_values, cells, lo, hi = [], [], [], [], []
        for r, con in enumerate(constraints):
            obs = con.observed
            if obs not in index:
                index[obs] = len(self.patterns)
                seen = set(obs)
                self.patterns.append((np.array(obs, dtype=np.intp),
                                      np.array([j for j in range(q) if j not in seen],
                                               dtype=np.intp)))
            self.pid.append(index[obs])
            exact, ordinal = con.exact, sorted(con.intervals)
            slots = [obs.index(j) for j in ordinal]
            self.slots.append(slots)
            self.bounds.append(([con.intervals[j][0] for j in ordinal],
                                [con.intervals[j][1] for j in ordinal]))
            cells += [len(values) + k for k in slots]
            lo += self.bounds[-1][0]
            hi += self.bounds[-1][1]
            values += [exact.get(j, 0.0) for j in obs]
            if ordinal:
                self.interval_rows.append(r)
            else:
                groups.setdefault(obs, []).append(r)
            cols = tuple(sorted(exact))
            if cols and cols not in loglik_index:
                loglik_index[cols] = len(self.loglik_blocks)
                c = np.array(cols, dtype=np.intp)
                self.loglik_blocks.append((c[:, None], c[None, :]))
            self.loglik_rows.append((loglik_index.get(cols), len(exact_values),
                                     len(exact_values) + len(cols)))
            exact_values += [exact[j] for j in cols]
        flat = np.array(values)
        exact_values = np.array(exact_values)
        self.exact_finite = bool(np.isfinite(exact_values).all())
        self.loglik_rows = [(block, exact_values[a:b]) for block, a, b in self.loglik_rows]
        lo, hi = np.array(lo), np.array(hi)
        flat[cells], _ = _truncated_moments(lo, hi, 0.0, 1.0)
        self.n_obs = [len(self.patterns[pid][0]) for pid in self.pid]
        ends = np.cumsum(self.n_obs).tolist()
        self.z0 = [flat[end - n:end] for end, n in zip(ends, self.n_obs)]
        mass = ndtr(hi) - ndtr(lo)
        terms = np.log(np.where(1e-300 > mass, 1e-300, mass)).tolist()
        self.log_mass, at = [], 0
        for slots in self.slots:
            self.log_mass.append(terms[at:at + len(slots)])
            at += len(slots)
        self.groups = []
        for obs, rows in sorted(groups.items()):
            z = np.array([self.z0[r] for r in rows]) if obs else None
            self.groups.append((index[obs], len(rows), z, None if z is None else z.T @ z))
        self.group_rows = [rows[0] for obs, rows in sorted(groups.items())
                           if obs and len(obs) < q]
        self._layouts = {}

    def layout(self, rows):
        """The _Layout of a row set, built on first use."""
        key = tuple(rows)
        if key not in self._layouts:
            self._layouts[key] = _Layout(self, rows)
        return self._layouts[key]


def _ragged(lengths):
    """(row, position) index pairs of a ragged array with these row lengths."""
    lengths = np.asarray(lengths, dtype=np.intp)
    row = np.repeat(np.arange(lengths.size), lengths)
    return row, np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class _Layout:
    """A row set arranged for stacked work.

    Rows are ordered by observed-block size n, interval rows first within a
    size, and split into blocks (n, start, mid, stop, pids, o, m): rows
    start:mid of the order carry interval cells, mid:stop do not, and o and
    m stack the rows' observed and missing column indices.  z0 pads the
    rows' observed latent starts to a common width; at, lo, hi and has hold
    each row's t-th ordinal slot (its position in the observed block, its
    bounds, whether it exists) in row t.
    """

    def __init__(self, plan, rows):
        self.rows = sorted(rows, key=lambda r: (plan.n_obs[r], not plan.slots[r]))
        self.row_order = np.argsort(self.rows, kind="stable")
        count = len(self.rows)
        sizes = [plan.n_obs[r] for r in self.rows]
        depths = [len(plan.slots[r]) for r in self.rows]
        self.depth = max(depths, default=0)
        self.z0 = np.zeros((count, max(sizes, default=0)))
        if count:
            self.z0[_ragged(sizes)] = np.concatenate([plan.z0[r] for r in self.rows])
        self.at = np.zeros((self.depth, count), dtype=np.intp)
        self.lo = np.full((self.depth, count), -np.inf)
        self.hi = np.full((self.depth, count), np.inf)
        self.has = np.zeros((self.depth, count), dtype=bool)
        row, t = _ragged(depths)
        self.at[t, row] = [k for r in self.rows for k in plan.slots[r]]
        self.lo[t, row] = [b for r in self.rows for b in plan.bounds[r][0]]
        self.hi[t, row] = [b for r in self.rows for b in plan.bounds[r][1]]
        self.has[t, row] = True
        self.good_intervals = bool((self.hi > self.lo).all())
        self.blocks = []
        start = 0
        while start < count:
            n = sizes[start]
            stop = start + sizes.count(n)
            pids = [plan.pid[r] for r in self.rows[start:stop]]
            mid = start + sum(1 for d in depths[start:stop] if d)
            o = np.array([plan.patterns[p][0] for p in pids])
            m = np.array([plan.patterns[p][1] for p in pids]).reshape(len(pids), plan.q - n)
            self.blocks.append((n, start, mid, stop, pids, o, m))
            start = stop


class _Conditioning:
    """The conditional-Gaussian algebra of one sigma over a layout's rows.

    Each block of the layout is conditioned in stacked form: one fancy index
    gathers its rows' ridged observed submatrices, one their cross blocks
    Sigma_MO and one their missing blocks, and one np.matmul forms every
    conditional covariance Sigma_MM - gain Sigma_OM.  LAPACK potrf/potrs run
    once per distinct pattern, called directly, with the checks cho_factor
    and cho_solve make: a non-finite input is a ValueError, and a block that
    is not positive definite a FitError.  A row with nothing missing and no
    interval cell needs no factor and gets none.
    """

    def __init__(self, sigma, plan, layout, ridge):
        self.plan, self.layout = plan, layout
        # Finite entries that cannot overflow when the ridge is added pass
        # every finiteness check, so the checks are skipped.
        finite = float(np.abs(sigma).max(initial=0.0)) + abs(ridge) < np.inf
        factors, gains = {}, {}
        self.precs, self.gains, self.conds = [], [], []
        self.gain, self.cond = {}, {}
        for n, start, mid, stop, pids, o, m in layout.blocks:
            eye = np.eye(n)
            blocks = sigma[o[:, :, None], o[:, None, :]] + ridge * eye
            if not finite:
                _check_finite(blocks)
            for block, pid in zip(blocks, pids if m.size else pids[:mid - start]):
                if pid not in factors:
                    try:
                        factors[pid] = _potrf(block)
                    except np.linalg.LinAlgError:
                        raise FitError("observed block of sigma is not positive "
                                       "definite") from None
            del blocks
            prec = np.empty((mid - start, n, n))
            for i, pid in enumerate(pids[:mid - start]):
                prec[i] = _potrs(factors[pid], eye)
            self.precs.append(prec)
            if not m.size:
                self.gains.append(None)
                self.conds.append(None)
                continue
            cross = sigma[m[:, :, None], o[:, None, :]]
            if not finite:
                _check_finite(cross)
            for c, pid in zip(cross, pids):
                if pid not in gains:
                    gains[pid] = _potrs(factors[pid], c.T).T
            gain = np.array([gains[pid] for pid in pids])
            cond = (sigma[m[:, :, None], m[:, None, :]]
                    - np.matmul(gain, cross.transpose(0, 2, 1)))
            self.gains.append(gain)
            self.conds.append(cond)
            for i, pid in enumerate(pids):
                self.gain[pid], self.cond[pid] = gain[i], cond[i]

    def observed_moments(self, max_inner=50, inner_tol=1e-6):
        """Observed latent means and variances of the layout's rows.

        Returns (z, v), padded (rows, width) arrays in layout order: exact
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
        layout = self.layout
        count, depth = len(layout.rows), layout.depth
        z = layout.z0.copy()
        v = np.zeros_like(z)
        if not depth:
            return z, v
        if not layout.good_intervals:
            raise ValueError("need hi > lo")
        diag = np.ones((depth, count))
        dots = np.zeros(count)
        out = dots.reshape(count, 1, 1)
        products = [[] for _ in range(depth)]
        for (n, start, mid, _, _, _, _), prec in zip(layout.blocks, self.precs):
            if mid == start:
                continue
            s = min(depth, n)
            k = layout.at[:s, start:mid].T[:, :, None]
            picked = np.take_along_axis(prec, k, axis=1)    # [b, t] = prec_b[k_bt]
            diag[:s, start:mid] = np.take_along_axis(picked, k, axis=2)[:, :, 0].T
            rows = np.zeros((mid - start, n, n))
            rows[:, :, :s] = picked.transpose(0, 2, 1)      # [b, :, t], strided by n
            for t in range(s):
                products[t].append((rows[:, None, :, t], z[start:mid, :n, None],
                                    out[start:mid]))
        has = layout.has
        cond_var = np.where(has, 1.0 / diag, 1.0)
        sd = np.sqrt(cond_var)
        if max_inner > 0 and (has & (sd <= 0)).any():
            raise ValueError("need sd > 0")
        index = np.arange(count)
        active = np.ones(count, dtype=bool)
        for _ in range(max_inner):
            delta = np.zeros(count)
            scale = np.ones(count)
            for t in range(depth):
                for prec_rows, latent, dot in products[t]:
                    np.matmul(prec_rows, latent, out=dot)
                k = layout.at[t]
                zk = z[index, k]
                mu, var = _truncated_moments(layout.lo[t], layout.hi[t],
                                             zk - cond_var[t] * dots, sd[t])
                step = active & has[t]
                # the scalar loop's max(delta, |mu - z|) and
                # max(scale, |mu|, |z|, 1.0), one comparison at a time
                change = np.abs(mu - zk)
                delta = np.where(step & (change > delta), change, delta)
                for size in (np.abs(mu), np.abs(zk)):
                    scale = np.where(step & (size > scale), size, scale)
                z[index, k] = np.where(step, mu, zk)
                v[index, k] = np.where(step, var, v[index, k])
            active &= ~(delta / scale < inner_tol)
            if not active.any():
                break
        return z, v

    def missing_means(self, z, latent):
        """Write each layout row's conditional missing mean gain @ z_obs into
        its row of latent."""
        rows = np.array(self.layout.rows)[:, None]
        for (n, start, _, stop, _, _, m), gain in zip(self.layout.blocks, self.gains):
            if gain is not None:
                latent[rows[start:stop], m] = np.matmul(gain, z[start:stop, :n, None])[:, :, 0]

    def second_moments(self, z, v):
        """Each layout row's symmetrized E[z z^T], stacked in layout order."""
        q = self.plan.q
        out = np.empty((len(self.layout.rows), q, q))
        for (n, start, _, stop, _, o, m), gain, cond in zip(
                self.layout.blocks, self.gains, self.conds):
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
    plan = _Plan([constraint], q)
    kernel = _Conditioning(sigma, plan, plan.layout([0]), ridge)
    z, v = kernel.observed_moments(max_inner, inner_tol)
    e_z = np.zeros((1, q))
    e_z[0, plan.patterns[0][0]] = z[0]
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
    log likelihood evaluated after that iteration's update.
    """

    sigma: np.ndarray
    marginals: list
    em_trace: list = field(default_factory=list)
    converged: bool = True

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
                "converged": bool(self.converged)}

    @classmethod
    def from_json(cls, obj):
        return cls(sigma=np.asarray(obj["sigma"], dtype=float),
                   marginals=[MarginalTransform.from_json(m)
                              for m in obj["marginals"]],
                   em_trace=[(int(t), float(d), float(l))
                             for t, d, l in obj["em_trace"]],
                   converged=bool(obj["converged"]))

    def save(self, path):
        write_json(self.to_json(), path)


def _loglik(sigma, plan, ridge):
    """pseudo_loglik over a plan: one factor per exact pattern, rows in order."""
    finite = float(np.abs(sigma).max(initial=0.0)) + abs(ridge) < np.inf
    factors = {}
    total = 0.0
    for (block_id, z), terms in zip(plan.loglik_rows, plan.log_mass):
        if block_id is not None:
            if block_id not in factors:
                block = sigma[plan.loglik_blocks[block_id]]
                if not finite:
                    _check_finite(block)
                try:
                    c = _potrf(block)
                except np.linalg.LinAlgError:
                    warnings.warn("singular observed block in pseudo_loglik; "
                                  "applying ridge repair")
                    c = _potrf(block + ridge * np.eye(z.size))
                factors[block_id] = (c, 2.0 * np.sum(np.log(np.diag(c))))
            c, logdet = factors[block_id]
            if not plan.exact_finite:
                _check_finite(z)
            quad = float(z @ _potrs(c, z))
            total += -0.5 * (z.size * _LOG_2PI + logdet + quad)
        for term in terms:
            total += term
    return total


def pseudo_loglik(sigma, constraints, ridge=1e-8):
    """Observed-data pseudo log likelihood under latent correlation sigma.

    Additive over rows.  Exact continuous coordinates contribute their joint
    Gaussian log density under the corresponding sigma block; ordinal
    coordinates contribute the log of their univariate interval mass (a
    deliberate mean-field simplification).  Singular blocks are
    ridge-repaired with a warning.
    """
    sigma = np.asarray(sigma, dtype=float)
    return _loglik(sigma, _Plan(constraints, sigma.shape[0]), ridge)


def _estep_sum(sigma, plan, ridge):
    """Sum of E[z z^T] over a plan's rows.

    Rows whose observed coordinates are all exact (continuous) share the
    conditional algebra, so they are processed per pattern with one solve;
    rows with interval constraints get their e_step moments from the
    batched kernel and are added one at a time, in row order.
    """
    q = plan.q
    exact = _Conditioning(sigma, plan, plan.layout(plan.group_rows), ridge)
    total = np.zeros((q, q))
    for pid, count, z, sum_oo in plan.groups:
        o, m = plan.patterns[pid]
        if z is None:
            total += count * sigma
            continue
        if not m.size:
            total += sum_oo
            continue
        mean_m = z @ exact.gain[pid].T            # rows x |mis|
        block = np.zeros((q, q))
        block[o[:, None], o] = sum_oo
        block[m[:, None], m] = count * exact.cond[pid] + mean_m.T @ mean_m
        cross_mo = mean_m.T @ z
        block[m[:, None], o] = cross_mo
        block[o[:, None], m] = cross_mo.T
        total += block
    kernel = _Conditioning(sigma, plan, plan.layout(plan.interval_rows), ridge)
    second = kernel.second_moments(*kernel.observed_moments())
    for i in kernel.layout.row_order:
        total += second[i]
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
        tol: relative Frobenius-change stopping threshold.
        ridge: diagonal stabilizer for observed-block solves.

    Returns:
        CopulaModel with an em_trace of (iteration, delta, pseudo_loglik).
    """
    marginals, plan = _plan_fit(matrix, max_iters, tol)
    return _em(matrix, marginals, plan, max_iters, tol, ridge)


def _plan_fit(matrix, max_iters, tol):
    """Check em_fit's arguments; return the marginals and the plan of the
    matrix's row constraints under them."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    rows_with_obs = int(np.any(matrix.mask, axis=1).sum())
    if rows_with_obs < 2:
        raise FitError("need at least two rows with observed cells")
    marginals = fit_marginals(matrix)
    return marginals, _Plan(row_constraints(matrix, marginals), matrix.n_cols)


def _em(matrix, marginals, plan, max_iters, tol, ridge):
    """EM on a plan of the matrix's constraints under marginals."""
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
                       converged=converged)


def impute(model, matrix):
    """Fill every missing cell with its conditional-mean reconstruction.

    Missing latent coordinates get their conditional means given the row's
    observed constraints; each mean is pushed through the column's marginal
    inverse (continuous: interpolated empirical quantile clamped to the
    observed range; ordinal: binned to a level).  Observed cells pass through
    bit-exact.  Rows with no observed cells fall back to column medians and
    are listed under metadata["degenerate_rows"].  The observed blocks are
    conditioned with the fixed ridge 1e-8, em_fit's default.

    Returns:
        Fully observed ObservationMatrix.
    """
    if model.n_cols != matrix.n_cols:
        raise ValueError("model and matrix disagree on column count")
    return _fill(model, matrix,
                 _Plan(row_constraints(matrix, model.marginals), matrix.n_cols),
                 1e-8)


def _fill(model, matrix, plan, ridge):
    """impute on a plan of the matrix's constraints under model.marginals,
    conditioning the observed blocks with the given ridge."""
    out = matrix.copy()
    rows, degenerate = [], []
    for r, (o, m) in enumerate(plan.patterns[pid] for pid in plan.pid):
        if m.size:
            (rows if o.size else degenerate).append(r)
    kernel = _Conditioning(model.sigma, plan, plan.layout(rows), ridge)
    latent = np.zeros(matrix.values.shape)
    kernel.missing_means(kernel.observed_moments()[0], latent)
    for j, marginal in enumerate(model.marginals):
        rows = np.flatnonzero(~matrix.mask[:, j])
        out.values[rows, j] = marginal.from_latent(latent[rows, j])
    out.mask[:] = True
    if degenerate:
        out.metadata["degenerate_rows"] = degenerate
    out.metadata["imputed"] = True
    return out


def complete(matrix, max_iters=100, tol=1e-4, ridge=1e-8):
    """Fit the copula to a matrix and impute that same matrix.

    Equals em_fit(matrix, max_iters, tol, ridge) followed by impute's fill
    bit for bit, but builds the row constraints and their plan once:
    impute's constraints under the fitted marginals are the ones EM ran on.
    The fill conditions with the fit's ridge, where impute always uses
    1e-8, so the two agree at the default ridge only.

    Returns:
        (CopulaModel, fully observed ObservationMatrix).
    """
    marginals, plan = _plan_fit(matrix, max_iters, tol)
    model = _em(matrix, marginals, plan, max_iters, tol, ridge)
    return model, _fill(model, matrix, plan, ridge)

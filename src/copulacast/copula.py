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
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr, ndtri

from .dataset import CONTINUOUS, ORDINAL, ObservationMatrix
from .errors import FitError

_SQRT_2PI = np.sqrt(2.0 * np.pi)


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

    @property
    def median(self):
        return float(np.atleast_1d(self.from_latent(0.0))[0])

    def to_json(self):
        return {"kind": self.kind,
                "support": [float(v) for v in np.atleast_1d(self.support)],
                "cum_probs": [float(v) for v in np.atleast_1d(self.cum_probs)]}

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


def truncated_normal_moments(lo, hi, mean=0.0, sd=1.0):
    """Mean and variance of N(mean, sd^2) truncated to (lo, hi).

    Bounds may be infinite.  When the interval mass underflows, the moments
    collapse to the nearest finite endpoint with zero variance.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if sd <= 0:
        raise ValueError("need sd > 0")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = ndtr(b) - ndtr(a)
    if mass < 1e-300:
        anchor = lo if abs(a) < abs(b) else hi
        if not np.isfinite(anchor):
            anchor = hi if np.isfinite(hi) else lo
        return float(anchor), 0.0
    pa = _phi(a) if np.isfinite(a) else 0.0
    pb = _phi(b) if np.isfinite(b) else 0.0
    apa = a * pa if np.isfinite(a) else 0.0
    bpb = b * pb if np.isfinite(b) else 0.0
    ratio = (pa - pb) / mass
    mu = mean + sd * ratio
    var = sd * sd * max(1.0 + (apa - bpb) / mass - ratio * ratio, 0.0)
    return float(mu), float(var)


def _observed_block_inverse(sigma, obs, ridge):
    """Cholesky factor of the ridge-stabilized observed-by-observed block."""
    block = sigma[np.ix_(obs, obs)] + ridge * np.eye(len(obs))
    try:
        return cho_factor(block, lower=True)
    except np.linalg.LinAlgError:
        raise FitError("observed block of sigma is not positive definite") from None


def e_step(sigma, constraint, ridge=1e-8, max_inner=50, inner_tol=1e-6):
    """Conditional latent moments of one row under the copula model.

    Observed continuous coordinates are fixed; observed ordinal coordinates
    are approximated by a truncated-normal mean-field fixed point (iterate
    until the relative change falls below inner_tol, at most max_inner
    passes); missing coordinates get their Gaussian conditional moments given
    the others.  Ordinal posterior variance propagates into E[z z^T].

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
    obs = list(constraint.observed)
    obs_set = set(obs)
    mis = [j for j in range(q) if j not in obs_set]

    if not obs:
        return np.zeros(q), sigma.copy()

    z_obs = np.zeros(len(obs))
    v_obs = np.zeros(len(obs))
    pos = {j: k for k, j in enumerate(obs)}
    for j, val in constraint.exact.items():
        z_obs[pos[j]] = val

    ord_cols = sorted(constraint.intervals)
    if ord_cols or mis:
        factor = _observed_block_inverse(sigma, obs, ridge)
    if ord_cols:
        prec = cho_solve(factor, np.eye(len(obs)))
        for j in ord_cols:
            lo, hi = constraint.intervals[j]
            z_obs[pos[j]], _ = truncated_normal_moments(lo, hi)
        for _ in range(max_inner):
            delta = 0.0
            scale = 0.0
            for j in ord_cols:
                k = pos[j]
                cond_var = 1.0 / prec[k, k]
                cond_mean = z_obs[k] - cond_var * (prec[k] @ z_obs)
                lo, hi = constraint.intervals[j]
                mu, var = truncated_normal_moments(lo, hi, cond_mean,
                                                   np.sqrt(cond_var))
                delta = max(delta, abs(mu - z_obs[k]))
                scale = max(scale, abs(mu), abs(z_obs[k]), 1.0)
                z_obs[k] = mu
                v_obs[k] = var
            if delta / scale < inner_tol:
                break

    e_z = np.zeros(q)
    e_zzT = np.zeros((q, q))
    obs_idx = np.asarray(obs, dtype=int)
    e_z[obs_idx] = z_obs
    second_oo = np.outer(z_obs, z_obs) + np.diag(v_obs)
    e_zzT[np.ix_(obs, obs)] = second_oo

    if mis:
        cross = sigma[np.ix_(mis, obs)]
        gain = cho_solve(factor, cross.T).T        # Sigma_MO Sigma_OO^{-1}
        mean_m = gain @ z_obs
        cond_mm = sigma[np.ix_(mis, mis)] - gain @ cross.T
        cov_mm = cond_mm + (gain * v_obs) @ gain.T
        e_z[mis] = mean_m
        e_zzT[np.ix_(mis, mis)] = cov_mm + np.outer(mean_m, mean_m)
        cross_mo = np.outer(mean_m, z_obs) + gain * v_obs
        e_zzT[np.ix_(mis, obs)] = cross_mo
        e_zzT[np.ix_(obs, mis)] = cross_mo.T

    return e_z, 0.5 * (e_zzT + e_zzT.T)


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
        return {"sigma": [[float(v) for v in row] for row in self.sigma],
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
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _loglik(sigma, constraints, ridge):
    """Observed-data pseudo log likelihood under latent correlation sigma.

    Exact continuous coordinates contribute their joint Gaussian log density
    under the corresponding sigma block; ordinal coordinates contribute the
    log of their univariate interval mass (a deliberate mean-field
    simplification).  Singular blocks are ridge-repaired with a warning.
    """
    cache = {}
    total = 0.0
    for con in constraints:
        cols = tuple(sorted(con.exact))
        if cols:
            key = cols
            if key not in cache:
                block = sigma[np.ix_(cols, cols)]
                try:
                    factor = cho_factor(block, lower=True)
                except np.linalg.LinAlgError:
                    warnings.warn("singular observed block in pseudo_loglik; "
                                  "applying ridge repair")
                    factor = cho_factor(block + ridge * np.eye(len(cols)),
                                        lower=True)
                logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
                cache[key] = (factor, logdet)
            factor, logdet = cache[key]
            z = np.array([con.exact[j] for j in cols])
            quad = float(z @ cho_solve(factor, z))
            total += -0.5 * (len(cols) * np.log(2.0 * np.pi) + logdet + quad)
        for j in sorted(con.intervals):
            lo, hi = con.intervals[j]
            mass = ndtr(hi) - ndtr(lo)
            total += float(np.log(max(mass, 1e-300)))
    return total


def pseudo_loglik(model, constraints):
    """Pseudo log likelihood of rows under a fitted CopulaModel; additive over rows."""
    return _loglik(model.sigma, constraints, ridge=1e-8)


def _estep_sum(sigma, constraints, ridge):
    """Sum of E[z z^T] over rows, batching rows that share a missing pattern.

    Rows whose observed coordinates are all exact (continuous) share the
    conditional algebra, so they are processed per pattern with one solve;
    rows with interval constraints fall back to the scalar e_step.  Both
    paths produce the same moments as e_step up to floating-point roundoff.
    """
    q = sigma.shape[0]
    groups = {}
    singles = []
    for i, con in enumerate(constraints):
        if con.intervals:
            singles.append(i)
        else:
            groups.setdefault(tuple(sorted(con.exact)), []).append(i)

    total = np.zeros((q, q))
    for obs, rows in sorted(groups.items()):
        if not obs:
            total += len(rows) * sigma
            continue
        z = np.array([[constraints[i].exact[j] for j in obs] for i in rows])
        mis = [j for j in range(q) if j not in set(obs)]
        sum_oo = z.T @ z
        if not mis:
            total += sum_oo
            continue
        factor = _observed_block_inverse(sigma, list(obs), ridge)
        cross = sigma[np.ix_(mis, list(obs))]
        gain = cho_solve(factor, cross.T).T
        mean_m = z @ gain.T                       # rows x |mis|
        cond_mm = sigma[np.ix_(mis, mis)] - gain @ cross.T
        block = np.zeros((q, q))
        block[np.ix_(list(obs), list(obs))] = sum_oo
        block[np.ix_(mis, mis)] = len(rows) * cond_mm + mean_m.T @ mean_m
        cross_mo = mean_m.T @ z
        block[np.ix_(mis, list(obs))] = cross_mo
        block[np.ix_(list(obs), mis)] = cross_mo.T
        total += block
    for i in singles:
        _, e_zzT = e_step(sigma, constraints[i], ridge=ridge)
        total += e_zzT
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
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    rows_with_obs = int(np.any(matrix.mask, axis=1).sum())
    if rows_with_obs < 2:
        raise FitError("need at least two rows with observed cells")
    marginals = fit_marginals(matrix)
    constraints = row_constraints(matrix, marginals)

    q = matrix.n_cols
    sigma = np.eye(q)
    trace = []
    converged = False
    for it in range(1, max_iters + 1):
        s = _estep_sum(sigma, constraints, ridge) / matrix.n_rows
        sigma_next = project_correlation(s)
        delta = float(np.linalg.norm(sigma_next - sigma) / np.linalg.norm(sigma))
        loglik = _loglik(sigma_next, constraints, ridge)
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
    are listed under metadata["degenerate_rows"].

    Returns:
        Fully observed ObservationMatrix.
    """
    if model.n_cols != matrix.n_cols:
        raise ValueError("model and matrix disagree on column count")
    out = matrix.copy()
    constraints = row_constraints(matrix, model.marginals)
    latent = np.zeros(matrix.values.shape)
    degenerate = []
    for i, con in enumerate(constraints):
        if not con.missing:
            continue
        if not con.observed:
            degenerate.append(i)
        latent[i], _ = e_step(model.sigma, con)
    for j, marginal in enumerate(model.marginals):
        rows = np.flatnonzero(~matrix.mask[:, j])
        out.values[rows, j] = marginal.from_latent(latent[rows, j])
    out.mask[:] = True
    if degenerate:
        out.metadata["degenerate_rows"] = degenerate
    out.metadata["imputed"] = True
    return out

"""Gradient-boosted regression trees with second-order split gains.

Squared-error boosting: at each round the gradient is the current residual
g = pred - y and the Hessian is 1 per row.  Leaves take the regularized
Newton weight -G/(H + reg_alpha); a split is kept only when the gain
0.5*(G_L^2/(H_L+a) + G_R^2/(H_R+a) - G^2/(H+a)) - reg_gamma
is positive.  Trees are grown greedily over midpoint thresholds of each
feature's sorted distinct values, with deterministic tie-breaking by
(feature index, threshold).
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import FitError
from .base import (TrainedForecaster, lag_design, pad_rounds, recursive_path,
                   validation_mape)


@dataclass
class TreeNode:
    """Binary regression-tree node; leaves carry the Newton weight."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self):
        return self.left is None

    def predict_row(self, row):
        node = self
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def to_json(self):
        if self.is_leaf:
            return {"value": float(self.value)}
        return {"feature": int(self.feature), "threshold": float(self.threshold),
                "left": self.left.to_json(), "right": self.right.to_json()}

    @classmethod
    def from_json(cls, obj):
        if "value" in obj:
            return cls(value=float(obj["value"]))
        return cls(feature=int(obj["feature"]), threshold=float(obj["threshold"]),
                   left=cls.from_json(obj["left"]), right=cls.from_json(obj["right"]))


def _leaf_weight(g_sum, h_sum, reg_alpha):
    return -g_sum / (h_sum + reg_alpha)


def _score(g_sum, h_sum, reg_alpha):
    return g_sum * g_sum / (h_sum + reg_alpha)


def _best_split(x, g, h, min_leaf, reg_alpha):
    """Best (gain_core, feature, threshold) over all admissible splits.

    gain_core omits the reg_gamma subtraction; returns (None, False) when no
    threshold satisfies the min_leaf constraint on any feature, with the
    second element reporting whether any admissible threshold existed.
    """
    n, n_feat = x.shape
    g_total, h_total = g.sum(), h.sum()
    parent = _score(g_total, h_total, reg_alpha)
    best = None
    any_candidate = False
    for j in range(n_feat):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        gs = np.cumsum(g[order])
        hs = np.cumsum(h[order])
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            n_left = i + 1
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            any_candidate = True
            gain = 0.5 * (_score(gs[i], hs[i], reg_alpha)
                          + _score(g_total - gs[i], h_total - hs[i], reg_alpha)
                          - parent)
            threshold = 0.5 * (xs[i] + xs[i + 1])
            key = (-gain, j, threshold)
            if best is None or key < best[0]:
                best = (key, gain, j, threshold)
    if best is None:
        return None, any_candidate
    return best[1:], any_candidate


def _build_tree(x, g, h, depth, max_depth, min_leaf, reg_alpha, reg_gamma):
    """Grow one tree; returns (node, any_admissible_threshold_at_root)."""
    g_total, h_total = g.sum(), h.sum()
    leaf = TreeNode(value=_leaf_weight(g_total, h_total, reg_alpha))
    if depth >= max_depth or x.shape[0] < 2 * min_leaf:
        return leaf, False
    split, any_candidate = _best_split(x, g, h, min_leaf, reg_alpha)
    if split is None or split[0] - reg_gamma <= 0:
        return leaf, any_candidate
    _, j, threshold = split
    go_left = x[:, j] <= threshold
    left, _ = _build_tree(x[go_left], g[go_left], h[go_left], depth + 1,
                          max_depth, min_leaf, reg_alpha, reg_gamma)
    right, _ = _build_tree(x[~go_left], g[~go_left], h[~go_left], depth + 1,
                           max_depth, min_leaf, reg_alpha, reg_gamma)
    return TreeNode(feature=j, threshold=threshold, left=left, right=right), any_candidate


@dataclass
class GBTModel:
    """Boosted tree stack with its base score and per-round training loss."""

    base_score: float
    trees: list = field(default_factory=list)
    learn_rate: float = 0.3
    train_losses: list = field(default_factory=list)

    def predict(self, x):
        return self.predict_partial(x, len(self.trees))

    def predict_partial(self, x, n_trees):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(x.shape[0], self.base_score)
        for tree in self.trees[:n_trees]:
            out += self.learn_rate * np.array([tree.predict_row(r) for r in x])
        return out

    def to_json(self):
        return {"base_score": float(self.base_score),
                "learn_rate": float(self.learn_rate),
                "trees": [t.to_json() for t in self.trees],
                "train_losses": [float(v) for v in self.train_losses]}


def fit_gbt_arrays(x, y, n_rounds=50, max_depth=3, min_leaf=2, reg_alpha=0.0,
                   reg_gamma=0.0, learn_rate=0.3):
    """Boost trees on a plain design matrix.

    Stops early when a round's tree cannot improve (no positive-gain split
    and a zero root weight).  Raises FitError when the first round has no
    admissible threshold at all while the target still varies.

    Returns:
        GBTModel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ValueError("x must be (n, p) and y length n")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if min_leaf < 1 or max_depth < 1:
        raise ValueError("min_leaf and max_depth must be >= 1")
    if x.shape[0] < 2 * min_leaf:
        raise FitError(f"need at least {2 * min_leaf} rows to grow a split")

    model = GBTModel(base_score=float(y.mean()), learn_rate=float(learn_rate))
    pred = np.full(y.size, model.base_score)
    for rnd in range(n_rounds):
        g = pred - y
        h = np.ones_like(y)
        tree, any_candidate = _build_tree(x, g, h, 0, max_depth, min_leaf,
                                          reg_alpha, reg_gamma)
        if tree.is_leaf:
            if (rnd == 0 and not any_candidate
                    and float(np.ptp(y)) > 0 and x.shape[0] >= 2 * min_leaf):
                raise FitError("no admissible split: every feature is constant "
                               "while the target varies")
            leaf_step = model.learn_rate * tree.value
            if abs(leaf_step) < 1e-12:
                break
        pred = pred + model.learn_rate * np.array([tree.predict_row(r) for r in x])
        model.trees.append(tree)
        model.train_losses.append(float(np.mean((pred - y) ** 2)))
    return model


def fit_gbt(task, matrix, lags=(1, 2, 3, 12), n_rounds=50, max_depth=3,
            min_leaf=2, reg_alpha=0.0, reg_gamma=0.0, learn_rate=0.3,
            use_features=True):
    """Boosted-tree forecaster over lagged target and covariate columns.

    One round is one boosting round; after each round the validation span is
    forecast recursively with the trees grown so far and its MAPE recorded.

    Returns:
        TrainedForecaster named "gbt".
    """
    lags, design_row, x, target = lag_design(task, matrix, lags, use_features,
                                             min_rows=2 * min_leaf)
    model = fit_gbt_arrays(x, target, n_rounds=n_rounds, max_depth=max_depth,
                           min_leaf=min_leaf, reg_alpha=reg_alpha,
                           reg_gamma=reg_gamma, learn_rate=learn_rate)
    y = matrix.values[:, task.target_column]

    def forecast_path(origin, steps, n_trees):
        return recursive_path(y, origin, steps, lambda t, ext: float(
            model.predict_partial(np.asarray(design_row(t, ext)), n_trees)[0]))

    v_actual = y[task.validation_range[0]:task.validation_stop]
    round_errors = []
    val = None
    for r in range(1, len(model.trees) + 1):
        val = forecast_path(task.train_stop, task.n_validation, r)
        round_errors.append(validation_mape(v_actual, val))
    if val is None:
        val = forecast_path(task.train_stop, task.n_validation, 0)
        round_errors.append(validation_mape(v_actual, val))
    hold = forecast_path(task.validation_stop, task.horizon, len(model.trees))
    return TrainedForecaster(
        name="gbt", round_errors=pad_rounds(round_errors),
        validation_forecast=val, holdout_forecast=hold,
        validation_start=task.validation_range[0],
        holdout_start=task.validation_stop,
        hyper={"lags": list(lags), "n_rounds": int(n_rounds),
               "max_depth": int(max_depth), "min_leaf": int(min_leaf),
               "reg_alpha": float(reg_alpha), "reg_gamma": float(reg_gamma),
               "learn_rate": float(learn_rate), "use_features": bool(use_features)},
        params=model.to_json())

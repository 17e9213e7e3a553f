"""Gradient-boosted regression trees with second-order split gains.

Squared-error boosting: at each round the gradient is the current residual
g = pred - y and the Hessian is 1 per row.  Leaves take the regularized
Newton weight -G/(H + reg_alpha); a split is kept only when the gain
0.5*(G_L^2/(H_L+a) + G_R^2/(H_R+a) - G^2/(H+a)) - reg_gamma
is positive.  Trees are grown greedily over midpoint thresholds of each
feature's sorted distinct values, with deterministic tie-breaking by
(feature index, threshold).

Split search is the exact greedy algorithm of XGBoost (Chen & Guestrin,
KDD 2016) on arrays: the node's design is sorted once per feature, prefix
sums of g and h give every threshold's gain in one elementwise pass over
all features, and one arg-max picks the split.  Grown trees are kept as
nested TreeNode objects, the form models.json stores; for prediction they
are flattened into parallel node arrays (feature, threshold, left, right,
value) and a whole design descends every tree at once.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import FitError
from .base import lag_design, recursive_path, score_round_paths


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
        """Leaf value for one row, walking the nested nodes.

        The reference that _Forest's flat-array descent is tested against.
        """
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

    Row i of a feature's stable sort proposes the midpoint of sorted values
    i and i + 1; it is admissible when both sides keep min_leaf rows and
    the two values differ.  The pick equals a scan over (feature,
    threshold) that keeps the first strictly larger gain: ties go to the
    lower feature, then the lower threshold, and a NaN gain wins only as
    the first candidate.  gain_core omits the reg_gamma subtraction.
    Returns (split, True), or (None, False) when no row is admissible.
    """
    n = x.shape[0]
    if n < 2 * min_leaf:
        return None, False
    g_total, h_total = g.sum(), h.sum()
    parent = _score(g_total, h_total, reg_alpha)
    order = np.argsort(x, axis=0, kind="stable")
    xs = x[order, np.arange(x.shape[1])]
    rows = slice(min_leaf - 1, n - min_leaf)
    gs = np.cumsum(g[order], axis=0)[rows]
    hs = np.cumsum(h[order], axis=0)[rows]
    lo, hi = xs[rows], xs[min_leaf:n - min_leaf + 1]
    admissible = (lo != hi).T  # feature-major, the order of the scan
    if not admissible.any():
        return None, False
    gain = 0.5 * (_score(gs, hs, reg_alpha)
                  + _score(g_total - gs, h_total - hs, reg_alpha)
                  - parent)
    candidates = gain.T[admissible]
    k = int(np.argmax(candidates))  # the first NaN, if there is one
    if k and np.isnan(candidates[k]):
        k = int(np.nanargmax(candidates))
    j, i = np.argwhere(admissible)[k]
    return (candidates[k], int(j), 0.5 * (lo[i, j] + hi[i, j])), True


def _build_tree(x, g, h, depth, max_depth, min_leaf, reg_alpha, reg_gamma):
    """Grow one tree; returns (node, any_admissible_threshold_at_root)."""
    g_total, h_total = g.sum(), h.sum()
    leaf = TreeNode(value=_leaf_weight(g_total, h_total, reg_alpha))
    if depth >= max_depth:
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


class _Forest:
    """Trees flattened into parallel node arrays for vectorized descent.

    Node k sends a row left when x[feature[k]] <= threshold[k], as
    TreeNode.predict_row does; a leaf reads column 0 and points left and
    right at itself, so `depth` steps from the roots land every row on its
    leaf in every tree.
    """

    def __init__(self, trees):
        feature, threshold, left, right, value = [], [], [], [], []
        self.depth = 0

        def add(node, depth):
            k = len(value)
            feature.append(max(node.feature, 0))
            threshold.append(node.threshold)
            value.append(node.value)
            left.append(k)
            right.append(k)
            if node.is_leaf:
                self.depth = max(self.depth, depth)
            else:
                left[k] = add(node.left, depth + 1)
                right[k] = add(node.right, depth + 1)
            return k

        self.roots = np.array([add(tree, 0) for tree in trees], dtype=np.intp)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)

    def leaf_values(self, x):
        """(rows, trees) array of each tree's leaf weight for each row of x."""
        node = np.broadcast_to(self.roots, (x.shape[0], self.roots.size))
        rows = np.arange(x.shape[0])[:, None]
        for _ in range(self.depth):
            go_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


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
        return self.running_sums(x, _Forest(self.trees[:n_trees]))[:, -1]

    def running_sums(self, x, forest):
        """Column r holds base_score + lr*v_1 + ... + lr*v_r for each row.

        v_t is tree t's leaf weight; the terms are added in tree order.
        """
        steps = self.learn_rate * forest.leaf_values(x)
        base = np.full((x.shape[0], 1), self.base_score)
        return np.cumsum(np.hstack([base, steps]), axis=1)

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
    admissible threshold at all while the target still varies, and when a
    round's training loss is not finite.

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
            if rnd == 0 and not any_candidate and float(np.ptp(y)) > 0:
                raise FitError("no admissible split: every feature is constant "
                               "while the target varies")
            leaf_step = model.learn_rate * tree.value
            if abs(leaf_step) < 1e-12:
                break
        pred = pred + model.learn_rate * _Forest([tree]).leaf_values(x)[:, 0]
        model.trees.append(tree)
        loss = float(np.mean((pred - y) ** 2))
        if not np.isfinite(loss):
            raise FitError("gbt training diverged; lower learn_rate")
        model.train_losses.append(loss)
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
    forest = _Forest(model.trees)
    y = matrix.values[:, task.target_column]

    def forecast_paths(origin, steps, rounds):
        # Column k is the path forecast with the first rounds[k] trees; each
        # step stacks every path's own design row and evaluates all trees.
        rounds = np.asarray(rounds)
        paths = np.arange(rounds.size)

        def step(t, ext):
            x = np.column_stack([np.broadcast_to(v, rounds.shape)
                                 for v in design_row(t, ext)])
            return model.running_sums(x, forest)[paths, rounds]

        return recursive_path(y, origin, steps, step)

    n_trees = len(model.trees)
    val_paths = forecast_paths(task.train_stop, task.n_validation,
                               range(1, n_trees + 1) if n_trees else [0])
    hold = forecast_paths(task.validation_stop, task.horizon, [n_trees])[:, 0]
    return score_round_paths(
        "gbt", task, y, val_paths, hold,
        hyper={"lags": list(lags), "n_rounds": int(n_rounds),
               "max_depth": int(max_depth), "min_leaf": int(min_leaf),
               "reg_alpha": float(reg_alpha), "reg_gamma": float(reg_gamma),
               "learn_rate": float(learn_rate), "use_features": bool(use_features)},
        params=model.to_json())

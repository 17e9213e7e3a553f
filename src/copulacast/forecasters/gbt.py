"""Gradient-boosted regression trees with second-order split gains.

Squared-error boosting: at each round the gradient is the current residual
g = pred - y and the Hessian is 1 per row, so a node's H is its row
count.  Leaves take the regularized Newton weight -G/(H + reg_alpha); a
split is kept only when the gain
0.5*(G_L^2/(H_L+a) + G_R^2/(H_R+a) - G^2/(H+a)) - reg_gamma
is positive.  Trees are grown greedily over midpoint thresholds of each
feature's sorted distinct values, with deterministic tie-breaking by
(feature index, threshold).

Split search is the exact greedy algorithm of XGBoost (Chen & Guestrin,
KDD 2016) on arrays: the node's design is sorted once per feature, prefix
sums of g and the left sides' row counts give every threshold's gain in one
elementwise pass over all features, and one arg-max picks the split.  Each
tree grows straight into the parallel node arrays (feature, threshold, left,
right, value) that prediction descends, a whole design through every tree at
once; models.json's nested trees are rendered from those arrays.
"""

import numpy as np

from ..errors import FitError
from .base import lag_design, roll_spans, score_round_paths


def _leaf_weight(g_sum, h_sum, reg_alpha):
    return -g_sum / (h_sum + reg_alpha)


def _score(g_sum, h_sum, reg_alpha):
    return g_sum * g_sum / (h_sum + reg_alpha)


def _best_split(x, g, min_leaf, reg_alpha):
    """Best (gain_core, feature, threshold) over all admissible splits.

    Row i of a feature's stable sort proposes the midpoint of sorted values
    i and i + 1; it is admissible when both sides keep min_leaf rows and
    the two values differ.  A side's H is its row count.  The pick equals a
    scan over (feature, threshold) that keeps the first strictly larger
    gain: ties go to the lower feature, then the lower threshold, and a NaN
    gain (only an overflowed G^2 makes one: inf - inf) wins only as the
    first candidate.  gain_core omits the reg_gamma subtraction.
    Returns None when no row is admissible.
    """
    n = x.shape[0]
    if n < 2 * min_leaf:
        return None
    g_total = g.sum()
    parent = _score(g_total, n, reg_alpha)
    order = np.argsort(x, axis=0, kind="stable")
    xs = x[order, np.arange(x.shape[1])]
    rows = slice(min_leaf - 1, n - min_leaf)
    gs = np.cumsum(g[order], axis=0)[rows]
    hs = np.arange(min_leaf, n - min_leaf + 1.0)[:, None]
    lo, hi = xs[rows], xs[min_leaf:n - min_leaf + 1]
    admissible = (lo != hi).T  # feature-major, the order of the scan
    if not admissible.any():
        return None
    gain = 0.5 * (_score(gs, hs, reg_alpha)
                  + _score(g_total - gs, n - hs, reg_alpha)
                  - parent)
    candidates = gain.T[admissible]
    k = int(np.argmax(candidates))  # the first NaN, if there is one
    if k and np.isnan(candidates[k]):
        k = int(np.nanargmax(candidates))
    j, i = np.argwhere(admissible)[k]
    return candidates[k], int(j), 0.5 * (lo[i, j] + hi[i, j])


class GBTModel:
    """Base score plus boosted trees, as parallel node arrays grown in place.

    Node k sends a row left when x[feature[k]] <= threshold[k]; a leaf
    reads column 0 and points left and right at itself, so `depth` steps
    from the roots land every row on its leaf in every tree.  grow appends
    a tree's nodes in preorder; roots lists the trees the model keeps.
    freeze turns the lists into arrays once, before any descent.
    """

    def __init__(self, base_score, learn_rate):
        self.base_score, self.learn_rate = base_score, learn_rate
        self.train_losses = []
        self.roots, self.feature, self.threshold = [], [], []
        self.left, self.right, self.value = [], [], []
        self.depth = 0

    def grow(self, x, g, max_depth, min_leaf, reg_alpha, reg_gamma):
        """Append one tree grown greedily on (x, g).

        Returns (root, any_candidate, weights): the root's node index,
        whether the root had any admissible threshold, and each row's leaf
        weight, the float its leaf stores.  The caller keeps the tree by
        adding root to roots.
        """
        weights = np.empty(x.shape[0])

        def node(rows, depth):
            k = len(self.value)
            xs, gs = x[rows], g[rows]
            self.feature.append(0)
            self.threshold.append(0.0)
            self.value.append(_leaf_weight(gs.sum(), rows.size, reg_alpha))
            self.left.append(k)
            self.right.append(k)
            split = None
            if depth < max_depth:
                split = _best_split(xs, gs, min_leaf, reg_alpha)
            if split is None or split[0] - reg_gamma <= 0:
                weights[rows] = self.value[k]
                self.depth = max(self.depth, depth)
                return split is not None
            _, j, threshold = split
            self.feature[k], self.threshold[k] = j, threshold
            # The descent's own comparison, so a NaN cell goes right here too.
            go_left = xs[:, j] <= threshold
            self.left[k] = len(self.value)
            node(rows[go_left], depth + 1)
            self.right[k] = len(self.value)
            node(rows[~go_left], depth + 1)
            return True

        root = len(self.value)
        return root, node(np.arange(x.shape[0]), 0), weights

    def freeze(self):
        self.roots, self.feature, self.left, self.right = (
            np.array(a, dtype=np.intp)
            for a in (self.roots, self.feature, self.left, self.right))
        self.threshold, self.value = np.array(self.threshold), np.array(self.value)
        return self

    def predict(self, x):
        return self.predict_partial(x, len(self.roots))

    def predict_partial(self, x, n_trees):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.running_sums(x)[:, min(n_trees, len(self.roots))]

    def running_sums(self, x):
        """Column r holds base_score + lr*v_1 + ... + lr*v_r for each row.

        v_t is tree t's leaf weight; the terms are added in tree order.
        """
        node = np.broadcast_to(self.roots, (x.shape[0], self.roots.size))
        rows = np.arange(x.shape[0])[:, None]
        for _ in range(self.depth):
            go_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        steps = self.learn_rate * self.value[node]
        base = np.full((x.shape[0], 1), self.base_score)
        return np.cumsum(np.hstack([base, steps]), axis=1)

    def to_json(self):
        """Each kept tree as nested split and leaf nodes."""
        def render(k):
            if self.left[k] == k:
                return {"value": float(self.value[k])}
            return {"feature": int(self.feature[k]),
                    "threshold": float(self.threshold[k]),
                    "left": render(self.left[k]), "right": render(self.right[k])}

        return {"base_score": float(self.base_score),
                "learn_rate": float(self.learn_rate),
                "trees": [render(k) for k in self.roots],
                "train_losses": [float(v) for v in self.train_losses]}


def fit_gbt_arrays(x, y, n_rounds=50, max_depth=3, min_leaf=2, reg_alpha=0.0,
                   reg_gamma=0.0, learn_rate=0.3):
    """Boost trees on a plain design matrix.

    Stops early when a round's tree cannot improve (no positive-gain split
    and a zero root weight).  Raises FitError when the first round has no
    admissible threshold at all while the target still varies, and when a
    round's training loss is not finite.  Raises ValueError unless
    learn_rate > 0 and reg_alpha, reg_gamma >= 0.

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
    if not learn_rate > 0:
        raise ValueError("learn_rate must be > 0")
    if not (reg_alpha >= 0 and reg_gamma >= 0):
        raise ValueError("reg_alpha and reg_gamma must be >= 0")
    if x.shape[0] < 2 * min_leaf:
        raise FitError(f"need at least {2 * min_leaf} rows to grow a split")

    base_score, learn_rate = float(y.mean()), float(learn_rate)
    model = GBTModel(base_score, learn_rate)
    pred = np.full(y.size, base_score)
    for rnd in range(n_rounds):
        root, any_candidate, weights = model.grow(x, pred - y, max_depth, min_leaf,
                                                  reg_alpha, reg_gamma)
        if model.left[root] == root:
            if rnd == 0 and not any_candidate and float(np.ptp(y)) > 0:
                raise FitError("no admissible split: no feature has a threshold "
                               f"that leaves min_leaf = {min_leaf} rows on each "
                               "side, while the target varies")
            if abs(learn_rate * model.value[root]) < 1e-12:
                break  # no root points at the stump: it neither renders nor predicts
        pred = pred + learn_rate * weights
        model.roots.append(root)
        loss = float(np.mean((pred - y) ** 2))
        if not np.isfinite(loss):
            raise FitError("gbt training diverged; lower learn_rate")
        model.train_losses.append(loss)
    return model.freeze()


def fit_gbt(task, matrix, lags=(1, 2, 3, 12), n_rounds=50, max_depth=3,
            min_leaf=2, reg_alpha=0.0, reg_gamma=0.0, learn_rate=0.3,
            use_features=True):
    """Boosted-tree forecaster over lagged target and covariate columns.

    One round is one boosting round; after each round the validation span is
    forecast recursively with the trees grown so far and its MAPE recorded.

    Returns:
        TrainedForecaster named "gbt".
    """
    lags, design, x, target = lag_design(task, matrix, lags, use_features,
                                         min_rows=2 * min_leaf)
    model = fit_gbt_arrays(x, target, n_rounds=n_rounds, max_depth=max_depth,
                           min_leaf=min_leaf, reg_alpha=reg_alpha,
                           reg_gamma=reg_gamma, learn_rate=learn_rate)
    y = matrix.values[:, task.target_column]
    # Row k runs the first rounds[k] trees: one validation path per round
    # (the base score alone when no tree was kept), then the holdout path.
    n_trees = len(model.roots)
    rounds = np.append(np.arange(1, n_trees + 1) if n_trees else 0, n_trees)
    paths = np.arange(rounds.size)
    val_paths, hold = roll_spans(
        task, y, max(lags), rounds.size - 1,
        lambda t, window: model.running_sums(design(t, window))[paths, rounds])
    return score_round_paths(
        "gbt", task, y, val_paths, hold,
        hyper={"lags": list(lags), "n_rounds": int(n_rounds),
               "max_depth": int(max_depth), "min_leaf": int(min_leaf),
               "reg_alpha": float(reg_alpha), "reg_gamma": float(reg_gamma),
               "learn_rate": float(learn_rate), "use_features": bool(use_features)},
        params=model.to_json())

"""CART regression trees in pure numpy, plus the zoo's tree predictor.

`_RegressionTree` is the shared engine behind `cart`, `rf` and `gb`.  A
fit argsorts every feature column once; each split partitions that
per-column row order with the split mask, which keeps every column
sorted, so no node sorts again.  At a node, gathering the targets
through the order and taking prefix sums down the columns scores every
candidate threshold of every feature in one 2-D pass: the
variance-reduction split search has no Python loop over features or
thresholds.  Trees are stored as flat parallel arrays, so prediction is
a branch-free array walk and serialisation is plain lists.  Ties between
equally good splits resolve to the lowest feature index and then the
lowest threshold, which is what makes tree fits — and everything stacked
on them (`RandomForestPredictor`, `GradientBoostingPredictor`) —
bit-reproducible across platforms.

`CARTPredictor` wraps one tree in the zoo's predictor protocol.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .protocol import PredictorBase, validate_fit_inputs

__all__ = ["CARTPredictor"]

_NO_FEATURE = -1  # feature index marking a leaf node


class _RegressionTree:
    """Flat-array CART: ``feature < 0`` marks a leaf holding ``value``."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature: np.ndarray = np.empty(0, dtype=np.int64)
        self.threshold: np.ndarray = np.empty(0, dtype=float)
        self.left: np.ndarray = np.empty(0, dtype=np.int64)
        self.right: np.ndarray = np.empty(0, dtype=np.int64)
        self.value: np.ndarray = np.empty(0, dtype=float)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    @staticmethod
    def _best_split(
        X: np.ndarray, y: np.ndarray, order: np.ndarray, min_samples_leaf: int
    ) -> "Optional[tuple[int, float]]":
        """(feature, threshold) minimising the children's summed SSE.

        ``order`` is the node's presort: column ``k`` lists the node's rows
        by ascending ``X[:, k]``, ties by row index.  Gathering the targets
        through it gives every feature's scan order at once, and prefix
        sums down the columns give every candidate split's left/right SSE
        in one 2-D pass.  Splits are only allowed between *distinct*
        feature values and where both children keep ``min_samples_leaf``.
        The first minimum of each column (lowest threshold) is that
        feature's candidate; the lowest feature holding the overall
        minimum wins.
        """
        n, d = order.shape
        cols = np.arange(d)
        xs, ys = X[order, cols], y[order]
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys * ys, axis=0)
        # The last row's square stays a scalar ``**`` (a libm power): an
        # array square computes x*x, which differs from it in the last
        # bit for some doubles, and that bit can flip a near-tied split.
        total = csum[-1]
        total2 = csum2[-2] + np.array([v**2 for v in ys[-1]], dtype=float)
        csum, csum2 = csum[:-1], csum2[:-1]
        # i = size of the left child, 1..n-1.
        i = np.arange(1, n)
        sse = (csum2 - csum * csum / i[:, None]) + (
            (total2 - csum2) - (total - csum) ** 2 / (n - i)[:, None]
        )
        band = (i >= min_samples_leaf) & (n - i >= min_samples_leaf)
        valid = (xs[1:] > xs[:-1]) & band[:, None]
        sse = np.where(valid, sse, np.inf)
        pos = np.argmin(sse, axis=0)  # first minimum -> lowest threshold
        score = sse[pos, cols]
        # Columns without a valid split, or whose first minimum is NaN,
        # fail ``< inf`` and never win.
        ok = score < np.inf
        if not ok.any():
            return None
        # First minimum -> lowest feature index.
        j = int(np.argmin(np.where(ok, score, np.inf)))
        lo, hi = xs[pos[j], j], xs[pos[j] + 1, j]
        t = (lo + hi) / 2.0
        if t >= hi:
            # The midpoint of two nearly-adjacent floats can round up to
            # the right value; ``X <= t`` would then send every row left
            # and leave an empty child.  Fall back to the left value,
            # which splits exactly as scored.
            t = lo
        return j, float(t)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
    ) -> "_RegressionTree":
        feature, threshold, left, right, value = [], [], [], [], []
        d = X.shape[1]

        def build(idx: np.ndarray, order: np.ndarray, depth: int) -> int:
            # ``idx``: the node's rows ascending (the leaf mean's summation
            # order); ``order``: the same rows presorted per column.
            node = len(feature)
            sub_y = y[idx]
            feature.append(_NO_FEATURE)
            threshold.append(0.0)
            left.append(node)
            right.append(node)
            value.append(float(sub_y.mean()))
            if (
                depth >= max_depth
                or idx.size < min_samples_split
                or np.ptp(sub_y) == 0.0
            ):
                return node
            split = self._best_split(X, y, order, min_samples_leaf)
            if split is None:
                return node
            j, t = split
            is_left = X[:, j] <= t
            go_left = is_left[idx]
            # Boolean selection down each column keeps its sorted order.
            in_left = is_left[order].T
            left_order = order.T[in_left].reshape(d, -1).T
            right_order = order.T[~in_left].reshape(d, -1).T
            feature[node] = j
            threshold[node] = t
            left[node] = build(idx[go_left], left_order, depth + 1)
            right[node] = build(idx[~go_left], right_order, depth + 1)
            return node

        build(
            np.arange(X.shape[0]),
            np.argsort(X, axis=0, kind="stable"),
            0,
        )
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        return self

    # ------------------------------------------------------------------ #
    # Prediction: all rows walk the tree one level per pass
    # ------------------------------------------------------------------ #

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                break
            j = np.where(internal, self.feature[node], 0)
            go_left = X[np.arange(X.shape[0]), j] <= self.threshold[node]
            step = np.where(go_left, self.left[node], self.right[node])
            node = np.where(internal, step, node)
        return self.value[node]

    # ------------------------------------------------------------------ #
    # Plain-data round trip
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "_RegressionTree":
        tree = cls()
        tree.feature = np.asarray(d["feature"], dtype=np.int64)
        tree.threshold = np.asarray(d["threshold"], dtype=float)
        tree.left = np.asarray(d["left"], dtype=np.int64)
        tree.right = np.asarray(d["right"], dtype=np.int64)
        tree.value = np.asarray(d["value"], dtype=float)
        return tree


def _validate_tree_params(max_depth, min_samples_split, min_samples_leaf):
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError(
            f"min_samples_split must be >= 2, got {min_samples_split}"
        )
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")


class CARTPredictor(PredictorBase):
    """A single variance-reduction regression tree."""

    KIND = "cart"

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ):
        # ``seed`` is accepted for protocol uniformity: a lone CART fit is
        # deterministic, the ensembles stacked on it are where it matters.
        _validate_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._tree: Optional[_RegressionTree] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CARTPredictor":
        X, y = validate_fit_inputs(X, y, self)
        self._tree = _RegressionTree().fit(
            X,
            y,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self._tree.predict(self._check_predict_input(X))

    @property
    def n_leaves(self) -> int:
        self._require_fitted("count leaves")
        return int((self._tree.feature == _NO_FEATURE).sum())

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._tree is not None

    def _get_state(self) -> dict:
        return {"tree": self._tree.to_jsonable()}

    def _set_state(self, state: dict) -> None:
        self._tree = _RegressionTree.from_jsonable(state["tree"])

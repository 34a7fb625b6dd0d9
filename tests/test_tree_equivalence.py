"""The presorted CART engine grows exactly the trees of a per-feature scan.

`_RegressionTree` presorts every column once per tree and scores all
features' candidate splits in one 2-D pass.  The reference below is the
straightforward form it replaced, frozen: at every node, argsort each
feature on its own and scan its prefix sums.  Over a seeded grid of
feature kinds (integer, continuous, rounded, adjacent floats), duplicated
rows, ``min_samples_leaf`` 1-3 and depths up to 20, `cart`, `rf` and `gb`
must serialise to equal payloads and predict equal bits either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import get_predictor
from repro.predictors.tree import _NO_FEATURE, _RegressionTree


def _reference_best_split(X, y, min_samples_leaf, square=lambda v: v**2):
    """Per-feature split search; ``square`` only exists to build a mutant."""
    n = y.shape[0]
    best_score = np.inf
    best = None
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs, ys = xj[order], y[order]
        i = np.arange(1, n)
        csum = np.cumsum(ys)[:-1]
        csum2 = np.cumsum(ys * ys)[:-1]
        total, total2 = csum[-1] + ys[-1], csum2[-1] + square(ys[-1])
        sse = (
            (csum2 - csum * csum / i)
            + ((total2 - csum2) - (total - csum) ** 2 / (n - i))
        )
        valid = (
            (xs[1:] > xs[:-1])
            & (i >= min_samples_leaf)
            & (n - i >= min_samples_leaf)
        )
        if not valid.any():
            continue
        sse = np.where(valid, sse, np.inf)
        pos = int(np.argmin(sse))
        if sse[pos] < best_score:
            best_score = float(sse[pos])
            t = (xs[pos] + xs[pos + 1]) / 2.0
            if t >= xs[pos + 1]:
                t = xs[pos]
            best = (j, float(t))
    return best


def _reference_fit(
    self, X, y, *, max_depth, min_samples_split, min_samples_leaf
):
    """Recursive fit on row subsets, splitting with the reference search."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(idx, depth):
        node = len(feature)
        feature.append(_NO_FEATURE)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        value.append(float(y[idx].mean()))
        sub_y = y[idx]
        if (
            depth >= max_depth
            or idx.size < min_samples_split
            or np.ptp(sub_y) == 0.0
        ):
            return node
        split = _reference_best_split(X[idx], sub_y, min_samples_leaf)
        if split is None:
            return node
        j, t = split
        go_left = X[idx, j] <= t
        feature[node] = j
        threshold[node] = t
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    self.feature = np.asarray(feature, dtype=np.int64)
    self.threshold = np.asarray(threshold, dtype=float)
    self.left = np.asarray(left, dtype=np.int64)
    self.right = np.asarray(right, dtype=np.int64)
    self.value = np.asarray(value, dtype=float)
    return self


def _features(rng, kind, n, d):
    if kind == "integer":
        return rng.integers(0, int(rng.integers(2, 8)), size=(n, d)).astype(float)
    if kind == "continuous":
        return rng.standard_normal((n, d)) * float(rng.uniform(0.1, 100.0))
    if kind == "rounded":
        return np.round(rng.standard_normal((n, d)), 1)
    # Neighbouring doubles: midpoints round onto a neighbour, exercising
    # the left-value threshold fallback.
    levels = [float(rng.uniform(1.0, 2.0))]
    for _ in range(3):
        levels.append(np.nextafter(levels[-1], np.inf))
    return np.array(levels)[rng.integers(0, 4, size=(n, d))]


_FEATURE_KINDS = ["integer", "continuous", "rounded", "adjacent"]


def _case(seed, kind, duplicated):
    rng = np.random.default_rng([seed, _FEATURE_KINDS.index(kind), int(duplicated)])
    n = int(rng.integers(3, 120))
    d = int(rng.integers(1, 12))
    X = _features(rng, kind, n, d)
    y = X @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)
    if seed % 3 == 0:
        y = np.round(y, 1)  # tied targets, some pure nodes
    if duplicated:
        rows = rng.integers(0, n, size=n)  # a bootstrap resample
        X, y = X[rows], y[rows]
    params = {
        "min_samples_leaf": int(rng.integers(1, 4)),
        "max_depth": int(rng.integers(1, 21)),
    }
    return X, y, params


def _fit_both(monkeypatch, kind, params, X, y):
    """(payload, predictions) from the engine, then from the reference."""
    out = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(_RegressionTree, "fit", _reference_fit)
        model = get_predictor(kind, **params).fit(X, y)
        out.append((model.to_payload(), model.predict(X)))
    monkeypatch.undo()
    return out


_KIND_PARAMS = {
    "cart": {},
    "rf": {"n_estimators": 4, "max_features": 0.6},
    "gb": {"n_estimators": 6},
}


@pytest.mark.parametrize("duplicated", [False, True])
@pytest.mark.parametrize("features", _FEATURE_KINDS)
@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_engine_matches_per_feature_reference(
    monkeypatch, kind, features, duplicated
):
    for seed in range(6):
        X, y, params = _case(seed, features, duplicated)
        params = {**params, **_KIND_PARAMS[kind]}
        (new_payload, new_pred), (ref_payload, ref_pred) = _fit_both(
            monkeypatch, kind, params, X, y
        )
        assert new_payload == ref_payload, (kind, features, duplicated, seed)
        assert np.array_equal(new_pred, ref_pred), (kind, features, seed)


def test_deep_trees_on_wide_inputs_match(monkeypatch):
    rng = np.random.default_rng(7)
    X = np.round(rng.standard_normal((300, 40)), 2)
    y = np.sin(X[:, 0]) + X[:, 1:4].sum(axis=1) + 0.01 * rng.standard_normal(300)
    params = {"max_depth": 20, "min_samples_split": 2, "min_samples_leaf": 1}
    (new_payload, new_pred), (ref_payload, ref_pred) = _fit_both(
        monkeypatch, "cart", params, X, y
    )
    assert new_payload == ref_payload
    assert np.array_equal(new_pred, ref_pred)


def test_zero_feature_input_is_one_leaf(monkeypatch):
    X = np.empty((5, 0))
    y = np.arange(5.0)
    (new_payload, new_pred), (ref_payload, ref_pred) = _fit_both(
        monkeypatch, "cart", {}, X, y
    )
    assert new_payload == ref_payload
    assert new_payload["state"]["tree"]["feature"] == [_NO_FEATURE]
    assert np.array_equal(new_pred, ref_pred)


def _last_square_trap_case():
    """Seeded search for a node whose split hinges on the last row's square.

    The total sum of squares adds the last sorted target's square as a
    scalar ``v ** 2``; for a few doubles that differs from ``v * v`` in
    the last bit.  Two mirrored features induce the same partitions but
    scan them from opposite ends, so their SSEs tie up to rounding, and
    that last bit can decide which feature wins.  Returns the first case
    where the ``v * v`` mutant of the reference picks a different split.
    """
    rng = np.random.default_rng(2024)
    pool = rng.standard_normal(50_000) * 10.0
    traps = [v for v in pool if v**2 != v * v]
    if not traps:
        pytest.skip("this platform's scalar power squares like v * v")
    for _ in range(20_000):
        n = int(rng.integers(4, 12))
        x = rng.permutation(n).astype(float)
        X = np.column_stack([x, -x])
        y = rng.standard_normal(n) * 10.0
        # The mirrored column scans the lowest-x row last.
        y[np.argmin(x)] = traps[int(rng.integers(len(traps)))]
        scalar = _reference_best_split(X, y, 1)
        mutant = _reference_best_split(X, y, 1, square=lambda v: v * v)
        if scalar != mutant:
            return X, y, scalar
    raise AssertionError("seeded search found no split decided by v ** 2")


def test_last_row_square_matches_the_scalar_power():
    X, y, expected = _last_square_trap_case()
    last = y[np.argsort(X[:, 1], kind="stable")][-1]
    assert last**2 != last * last
    order = np.argsort(X, axis=0, kind="stable")
    assert _RegressionTree._best_split(X, y, order, 1) == expected

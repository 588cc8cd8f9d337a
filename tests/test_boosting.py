"""fit_forest against the per-node growth oracle, bit for bit."""

import numpy as np
import pytest
from oracles import slow_fit_forest

from workload_profiler import boosting
from workload_profiler.boosting import BoostingParams, fit_forest


def encoded_case(seed: int, n_rows: int, cards: list[int], n_classes: int, missing: float):
    """Seeded encoded rows ((n, features) one-hot columns, -1 for none) and
    labels that follow two of the features, with noise. The second feature
    copies the first, so their columns tie on every gain."""
    rng = np.random.default_rng(seed)
    cards = [cards[0], *cards]
    codes = np.stack([rng.integers(0, k, n_rows) for k in cards], axis=1)
    codes[:, 1] = codes[:, 0]
    labels = (codes[:, 0] + codes[:, -1]) % n_classes
    noisy = rng.random(n_rows) < 0.15
    labels[noisy] = rng.integers(0, n_classes, int(noisy.sum()))
    labels[:n_classes] = np.arange(n_classes)  # every class present
    offsets = np.concatenate(([0], np.cumsum(cards)[:-1]))
    rows = np.where(rng.random(codes.shape) < missing, -1, codes + offsets)
    rows[rng.random(n_rows) < 0.02] = -1  # a few rows with no column at all
    return rows.astype(np.int64), labels, int(sum(cards))


def assert_same_forest(fast, slow):
    assert np.array_equal(fast.feature, slow.feature)
    # through the bits, so a NaN must be the same NaN
    assert np.array_equal(fast.value.view(np.int64), slow.value.view(np.int64))
    assert np.array_equal(fast.gain.view(np.int64), slow.gain.view(np.int64))


def fit_both(rows, labels, n_classes, dim, params):
    with np.errstate(divide="ignore", invalid="ignore"):
        return (fit_forest(rows, labels, n_classes, dim, params),
                slow_fit_forest(rows, labels, n_classes, dim, params))


@pytest.mark.parametrize("depth", range(8))
def test_tree_growth_equals_the_per_node_oracle(depth):
    for k in range(8):
        rng = np.random.default_rng(1000 * depth + k)
        n_classes = int(rng.integers(2, 8))
        cards = [int(c) for c in rng.integers(1, 9, size=int(rng.integers(1, 5)))]
        rows, labels, dim = encoded_case(
            1000 * depth + k, int(rng.integers(n_classes, 400)), cards, n_classes,
            missing=[0.0, 0.05, 0.4][k % 3],
        )
        params = BoostingParams(
            rounds=int(rng.integers(1, 4)),
            learning_rate=float(rng.choice([0.1, 0.3, 1.0])),
            max_depth=depth,
            min_child_weight=[1.0, 0.0, 0.5, 0.0][k % 4],
            l2=[1.0, 1.0, 0.0, 0.0, 0.3][k % 5],
        )
        assert_same_forest(*fit_both(rows, labels, n_classes, dim, params))


def test_tree_growth_equals_the_oracle_on_a_wide_vocabulary():
    rows, labels, dim = encoded_case(7, 3000, [8000, 200, 5, 3], 4, missing=0.1)
    assert dim >= 16_000
    params = BoostingParams(rounds=2, max_depth=4, min_child_weight=0.0)
    fast, slow = fit_both(rows, labels, 4, dim, params)
    assert (fast.feature >= 0).sum() > 8  # the trees do grow
    assert_same_forest(fast, slow)


def test_a_gain_equal_to_the_threshold_does_not_split(monkeypatch):
    rows, labels, dim = encoded_case(3, 300, [4, 3], 3, missing=0.05)
    params = BoostingParams(rounds=1, max_depth=3)
    first = fit_forest(rows, labels, 3, dim, params)
    assert first.feature[0, 0, 0] >= 0
    monkeypatch.setattr(boosting, "_MIN_GAIN", float(first.gain[0, 0, 0]))
    fast, slow = fit_both(rows, labels, 3, dim, params)
    assert fast.feature[0, 0, 0] == -1
    assert_same_forest(fast, slow)

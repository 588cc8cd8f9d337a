"""fit_forest against the per-node growth oracles, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest
from oracles import slow_fit_forest, slow_fit_forest_rows

from workload_profiler import boosting
from workload_profiler.boosting import BoostingParams, Forest, fit_forest


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
            min_child_weight=[1.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.5, 1.0][k],
            l2=[1.0, 1.0, 0.0, 0.3, 0.3, 1.0, 0.0, 0.0][k],
        )
        assert_same_forest(*fit_both(rows, labels, n_classes, dim, params))


def test_tree_growth_equals_the_oracle_on_a_wide_vocabulary():
    rows, labels, dim = encoded_case(7, 3000, [8000, 200, 5, 3], 4, missing=0.1)
    assert dim >= 16_000
    params = BoostingParams(rounds=2, max_depth=4, min_child_weight=0.0)
    fast, slow = fit_both(rows, labels, 4, dim, params)
    assert (fast.feature >= 0).sum() > 8  # the trees do grow
    assert_same_forest(fast, slow)


def test_without_repeated_pairs_the_fit_equals_the_per_row_oracle():
    # every (row, label) run has length 1, so scaling by the counts is exact
    rows, labels, dim = encoded_case(7, 3000, [8000, 200, 5, 3], 4, missing=0.1)
    keep = np.sort(np.unique(rows, axis=0, return_index=True)[1])
    rows, labels = rows[keep], labels[keep]
    assert len(rows) > 2500
    params = BoostingParams(rounds=2, max_depth=4, min_child_weight=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        fast = fit_forest(rows, labels, 4, dim, params)
        slow = slow_fit_forest_rows(rows, labels, 4, dim, params)
    assert (fast.feature >= 0).sum() > 8  # the trees do grow
    assert_same_forest(fast, slow)


def test_training_pairs_are_the_distinct_rows_first_column_first():
    rows = np.array([[1, 0], [0, 2], [1, 0], [0, 1], [2, -1], [0, 2]])
    distinct, inverse = boosting.distinct_rows(rows)
    assert distinct.tolist() == [[0, 1], [0, 2], [1, 0], [2, -1]]
    assert np.array_equal(distinct[inverse], rows)
    # repeated (row, label) pairs, shuffled: the fit weights each pair by its count
    rows, labels, dim = encoded_case(5, 150, [2, 3], 3, missing=0.1)
    rows, labels = np.tile(rows, (3, 1)), np.tile(labels, 3)
    shuffle = np.random.default_rng(6).permutation(len(rows))
    params = BoostingParams(rounds=3, max_depth=3)
    fast, slow = fit_both(rows[shuffle], labels[shuffle], 3, dim, params)
    assert (fast.feature >= 0).sum() > 3  # the trees do grow
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


# ------------------------------------------------------------------ routing

def per_row_scores(forest, rows):
    """Raw scores and probabilities of each row routed alone through
    ``Forest.leaves``, adding the rounds in order."""
    classes = np.arange(forest.feature.shape[1])
    scores, probs = [], []
    for row in rows:
        node = forest.leaves(row[None, :])[0]
        F = np.zeros(classes.size, dtype=np.float64)
        for r in range(forest.params.rounds):
            F += forest.params.learning_rate * forest.value[r, classes, node[r]]
        scores.append(F)
        probs.append(boosting._softmax(F[None, :])[0])
    shape = (len(rows), classes.size)
    return np.array(scores).reshape(shape), np.array(probs).reshape(shape)


def assert_routes_like_each_row_alone(forest, rows):
    want_scores, want_probs = per_row_scores(forest, rows)
    distinct, inverse = forest.distinct_probabilities(rows)
    scores, probs = forest.raw_scores(rows), distinct[inverse]
    assert scores.shape == probs.shape == want_scores.shape
    assert np.array_equal(scores.view(np.int64), want_scores.view(np.int64))
    assert np.array_equal(probs.view(np.int64), want_probs.view(np.int64))


@pytest.fixture(scope="module")
def routing_case():
    rows, labels, dim = encoded_case(11, 3000, [24, 20, 9], 5, missing=0.05)
    params = BoostingParams(rounds=6, max_depth=5, min_child_weight=0.0)
    forest = fit_forest(rows, labels, 5, dim, params)
    assert (forest.feature >= 0).sum() > 50  # the trees do grow
    return forest, rows


def test_routing_equals_each_row_alone_over_duplicates_and_missing_rows(routing_case):
    forest, rows = routing_case
    rng = np.random.default_rng(0)
    batch = rows[rng.integers(0, 40, size=300)].copy()  # few distinct rows, each many times
    batch[::17] = -1  # rows with no active column at all
    assert len(np.unique(batch, axis=0)) < 45
    assert_routes_like_each_row_alone(forest, batch)


def test_routing_equals_each_row_alone_on_degenerate_batches(routing_case):
    forest, rows = routing_case
    assert_routes_like_each_row_alone(forest, rows[:0])  # an empty (0, f) batch
    assert_routes_like_each_row_alone(forest, np.repeat(rows[5:6], 700, axis=0))  # all equal
    assert_routes_like_each_row_alone(forest, np.full((3, rows.shape[1]), -1))
    distinct = rows[np.unique(rows, axis=0, return_index=True)[1][:200]]
    assert_routes_like_each_row_alone(forest, distinct)  # every row distinct


def test_routing_equals_each_row_alone_past_one_block_of_distinct_rows(routing_case):
    # more than 512 distinct rows, with copies of one row far apart, so a
    # blocked router meets equal rows in different blocks
    forest, rows = routing_case
    rng = np.random.default_rng(1)
    batch = np.concatenate([rows, rows[rng.permutation(len(rows))[:1500]]])
    assert len(np.unique(batch, axis=0)) > 3 * 512
    assert_routes_like_each_row_alone(forest, batch)


def test_a_forest_past_the_int32_routing_bound_is_refused_before_allocating(monkeypatch):
    # Without numpy in the module, any allocation fails with AttributeError,
    # so the bound must be checked first.
    monkeypatch.setattr(boosting, "np", SimpleNamespace())
    assert boosting.MAX_NODES == 2 ** 30  # routing's int32 indices and steps stay below 2^31
    for rounds, n_classes, depth in ((2 ** 10, 2 ** 20, 0), (1, 2 ** 20, 10), (2 ** 40, 2, 6)):
        with pytest.raises(ValueError, match="exceeds"):
            Forest.empty(n_classes, 1, BoostingParams(rounds=rounds, max_depth=depth))
    with pytest.raises(AttributeError):  # one node fewer passes the bound
        Forest.empty(boosting.MAX_NODES - 1, 1, BoostingParams(rounds=1, max_depth=0))


@pytest.mark.parametrize("depth", [0, boosting.MAX_DEPTH])
def test_from_json_of_to_json_gives_the_same_node_arrays(depth):
    rows, labels, dim = encoded_case(5, 800, [6, 5, 7, 4], 3, 0.1)
    params = BoostingParams(rounds=3, max_depth=depth, min_child_weight=0.0)
    forest = fit_forest(rows, labels, 3, dim, params)
    if depth:  # some tree splits on the level above the leaves
        assert (forest.feature[..., 2 ** (depth - 1) - 1:2 ** depth - 1] >= 0).any()
    back = Forest.from_json(forest.to_json(), 3, dim, params)
    assert np.array_equal(back.feature, forest.feature)
    assert np.array_equal(back.value, forest.value)
    assert np.array_equal(back.gain, forest.gain)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    rowwise_silhouette,
    slow_acquires,
    slow_class_report,
    slow_davies_bouldin,
    slow_silhouette,
)
from workload_profiler import metrics
from workload_profiler.errors import DegenerateDataError
from workload_profiler.metrics import (
    EQUAL_WEIGHTS,
    acquires,
    class_report,
    davies_bouldin,
    silhouette_mean,
)


# ------------------------------------------------------------- silhouette

def test_silhouette_two_singletons():
    X = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert silhouette_mean(X, [0, 1]) == 0.0


def test_silhouette_hand_example():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    labels = [0, 0, 1, 1]
    value = silhouette_mean(X, labels)
    assert value == pytest.approx(slow_silhouette(X, labels), abs=1e-12)
    assert 0.92 < value < 0.94


def test_silhouette_interleaved_negative():
    X = np.array([[0.0], [2.0], [4.0], [1.0], [3.0], [5.0]])
    labels = [0, 0, 0, 1, 1, 1]
    value = silhouette_mean(X, labels)
    assert value < 0
    assert value == pytest.approx(slow_silhouette(X, labels), abs=1e-12)


def test_silhouette_excludes_outliers():
    X = np.array([[0.0], [0.1], [9.0], [9.1], [100.0]])
    labels = [0, 0, 1, 1, -1]
    assert silhouette_mean(X, labels) == pytest.approx(
        slow_silhouette(X, labels), abs=1e-12
    )


def test_silhouette_needs_two_clusters():
    with pytest.raises(DegenerateDataError):
        silhouette_mean(np.zeros((4, 1)), [0, 0, 0, -1])


def test_silhouette_subsample_path_is_deterministic():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (300, 2)), rng.normal(8, 1, (300, 2))])
    labels = [0] * 300 + [1] * 300
    a = silhouette_mean(X, labels, max_points=100, seed=5)
    b = silhouette_mean(X, labels, max_points=100, seed=5)
    assert a == b
    assert -1.0 <= a <= 1.0


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_stacked_silhouette_equals_one_call_per_labelling(kind):
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(c, 1.0, (90, 3)) for c in (0.0, 5.0, 9.0)])
    X[7] = X[8]  # a duplicate point
    n = len(X)
    base = np.repeat([0, 1, 2], 90)

    def drop(lab, share):
        return np.where(rng.random(n) < share, -1, lab)

    singletons = base.copy()
    singletons[[0, 100, 200]] = [7, 8, 9]  # singleton clusters score 0
    # n = 270 > max_points: every labelling is scored within one sample of 250 rows.
    stack = np.stack([
        drop(base, 0.2),
        drop(singletons, 0.25),
        drop(rng.integers(0, 4, n), 0.3),
        np.where(base == 1, 0, -1),  # a single cluster: undefined
        np.full(n, -1),  # all outliers: undefined
        base,  # every row clustered
    ])
    got = silhouette_mean(X, stack, kind, max_points=250, seed=3)
    assert len(got) == len(stack)
    for lab, value in zip(stack, got):
        try:
            alone = silhouette_mean(X, lab, kind, max_points=250, seed=3)
        except DegenerateDataError:
            alone = None
        assert value == alone == rowwise_silhouette(X, lab, kind, max_points=250, seed=3)
    assert got[3] is None and got[4] is None and None not in got[:3]
    assert silhouette_mean(X, base, kind, seed=3) != got[5]  # the subsample ran


def test_every_labelling_above_the_cap_shares_one_pass(monkeypatch):
    rng = np.random.default_rng(4)
    n, cap = 600, 400
    X = rng.normal(size=(n, 2))
    stack = np.stack([rng.integers(0, k, n) for k in (2, 3, 5)])  # n > cap rows clustered each
    sizes = []  # distances returned by each kernel call
    kernel = metrics.point_to_rows

    def counted(*args):
        d = kernel(*args)
        sizes.append(d.size)
        return d

    monkeypatch.setattr(metrics, "point_to_rows", counted)
    got = silhouette_mean(X, stack, max_points=cap, seed=1)
    # One pass over the lower triangle of the sample's distances: a full
    # pass per labelling would measure 3 * cap^2, a full shared pass cap^2.
    assert sum(sizes) <= 0.65 * cap**2
    assert got == [rowwise_silhouette(X, lab, max_points=cap, seed=1) for lab in stack]


def _edge_inputs():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    X[[3, 17, 30]] = 0.0  # zero rows: cosine puts them at 1 from everything, itself too
    X[[5, 6, 25]] = X[4]  # exact duplicates
    lab = rng.integers(0, 3, 40)
    lab[[3, 4, 17]] = 0  # a zero row's self-distance 1 enters a(i) of its cluster
    return X, lab


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_silhouette_equals_rowwise_on_zero_and_duplicate_rows(kind):
    X, lab = _edge_inputs()
    assert silhouette_mean(X, lab, kind) == rowwise_silhouette(X, lab, kind)
    dup = np.repeat(X[:10], 3, axis=0)  # every row thrice
    dup_lab = np.repeat(lab[:10], 3)
    assert silhouette_mean(dup, dup_lab, kind) == rowwise_silhouette(dup, dup_lab, kind)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1], [1, 0, 1], [0, -1, 1]])
def test_silhouette_equals_rowwise_on_two_and_three_rows(kind, labels):
    X = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.5]])[: len(labels)]
    assert silhouette_mean(X, labels, kind) == rowwise_silhouette(X, labels, kind)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_silhouette_equals_rowwise_when_the_last_block_holds_one_row(kind):
    first_end = next(metrics._triangle_blocks(1000))[1]
    n = first_end + 1
    assert list(metrics._triangle_blocks(n))[-1] == (first_end, n)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2))
    lab = rng.integers(0, 4, n)
    assert silhouette_mean(X, lab, kind) == rowwise_silhouette(X, lab, kind)


@pytest.mark.parametrize("max_points", [40, 30])  # all rows; a sample of 30
@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_stack_of_equal_distinct_and_undefined_labellings(kind, max_points):
    X, lab = _edge_inputs()
    other = np.roll(lab, 1)
    stack = np.stack([
        lab,
        lab + 5,  # the same clusters under other names: one table of sums with the first
        other,
        np.where(lab == 1, 2, -1),  # fewer than 2 clusters: None
        np.where(lab == 2, -1, lab),  # the first's dense indices, one cluster fewer
    ])
    got = silhouette_mean(X, stack, kind, max_points=max_points, seed=2)
    assert got == [
        rowwise_silhouette(X, row, kind, max_points=max_points, seed=2) for row in stack
    ]
    assert got[0] == got[1] and got[3] is None


def test_a_cluster_with_one_sampled_member_scores_as_a_singleton():
    rng = np.random.default_rng(2)
    n, cap, seed = 300, 100, 7
    X = rng.normal(size=(n, 2))
    sel = np.sort(np.random.default_rng(seed).choice(n, cap, replace=False))
    lab = np.zeros(n, dtype=int)
    lab[np.setdiff1d(np.arange(n), sel)[:5]] = 1  # not sampled
    lab[sel[0]] = 1  # the one sampled member of cluster 1
    value = silhouette_mean(X, lab, max_points=cap, seed=seed)
    assert value == silhouette_mean(X[sel], lab[sel])
    assert value == pytest.approx(slow_silhouette(X[sel], lab[sel]), abs=1e-12)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_silhouette_translation_and_scale_invariance(kind):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    labels = rng.integers(0, 3, size=40)
    base = silhouette_mean(X, labels, kind)
    assert -1.0 <= base <= 1.0
    shifted = silhouette_mean(X + 100.0, labels, kind)
    scaled = silhouette_mean(X * 7.0, labels, kind)
    assert shifted == pytest.approx(base, abs=1e-9)
    assert scaled == pytest.approx(base, abs=1e-9)


# --------------------------------------------------------- davies-bouldin

@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_db_two_tight_far_clusters(kind):
    rng = np.random.default_rng(2)
    # far apart and orthogonal, so tight and separated for every kind
    X = np.vstack([rng.normal(0, 0.1, (50, 2)) + [1000, 0],
                   rng.normal(0, 0.1, (50, 2)) + [0, 1000]])
    labels = [0] * 50 + [1] * 50
    value = davies_bouldin(X, labels, kind)
    assert value < 0.001
    assert value == pytest.approx(slow_davies_bouldin(X, labels, kind), abs=1e-12)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_db_coincident_centroids_degenerate(kind):
    X = np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0], [0.0, 0.0]])
    labels = [0, 0, 1, 1]  # both centroids at (1, 0), which is not a zero vector
    assert davies_bouldin(X, labels, kind) == np.inf


def test_db_hand_arithmetic():
    # separation 1000, sigma 0.1 each -> DB ~ (0.1 + 0.1) / 1000
    X = np.array([[0.0 - 0.1], [0.0 + 0.1], [1000.0 - 0.1], [1000.0 + 0.1]])
    labels = [0, 0, 1, 1]
    assert davies_bouldin(X, labels) == pytest.approx(0.0002, rel=1e-9)


# ---------------------------------------------------------------- acquires

def test_acquires_perfect():
    labels = [0, 1, 2]
    score = acquires(labels, 3, 3, 1.0)
    assert score.total == pytest.approx(1.0)


def test_acquires_worked_example():
    # 20% outliers, 8 actual vs 10 optimal, silhouette 0.5 -> 0.7 exactly
    labels = [-1] * 20 + [i % 8 for i in range(80)]
    score = acquires(labels, 100, 10, 0.5)
    assert score.outliers_score == pytest.approx(0.8)
    assert score.cluster_count_score == pytest.approx(0.8)
    assert score.total == pytest.approx(0.7)
    assert score.total == pytest.approx((0.8 + 0.8 + 0.5) / 3, abs=1e-15)


def test_acquires_prototype_weights():
    # prototype methods: w1 = w2 = 0, the score is the silhouette alone
    score = acquires([0, 1], 2, 5, 0.42, weights=(0.0, 0.0, 1.0))
    assert score.total == pytest.approx(0.42)


def test_acquires_no_clusters_scores_zero_count():
    score = acquires([-1, -1], 2, 3, 0.0)
    assert score.cluster_count_score == 0.0


def test_acquires_validation():
    with pytest.raises(ValueError):
        acquires([0], 1, 0, 0.5)
    with pytest.raises(ValueError):
        acquires([0], 0, 1, 0.5)
    with pytest.raises(ValueError):
        acquires([0], 1, 1, 0.5, weights=(0.5, 0.2, 0.2))


@given(
    st.integers(0, 30),
    st.integers(0, 8),
    st.integers(1, 12),
    st.floats(-1, 1),
)
@settings(max_examples=80, deadline=None)
def test_acquires_matches_direct_arithmetic(n_outliers, n_clusters, optimal, sil):
    labels = list(range(n_clusters)) + [-1] * n_outliers
    n = len(labels)
    if n == 0:
        return
    score = acquires(labels, n, optimal, sil)
    assert score.total == pytest.approx(
        slow_acquires(labels, n, optimal, sil, EQUAL_WEIGHTS), abs=1e-12
    )
    assert 0.0 <= score.outliers_score <= 1.0
    assert 0.0 <= score.cluster_count_score <= 1.0
    assert (score.cluster_count_score == 1.0) == (n_clusters == optimal)


def test_acquires_monotone_in_subscores():
    base = acquires([0, 1, -1], 3, 2, 0.1).total
    better_sil = acquires([0, 1, -1], 3, 2, 0.5).total
    fewer_outliers = acquires([0, 1, 1], 3, 2, 0.1).total
    assert better_sil > base
    assert fewer_outliers > base


# ------------------------------------------------------------ class report

def test_class_report_perfect():
    report = class_report([0, 1, 2, 0], [0, 1, 2, 0])
    assert report.accuracy == 1.0
    for stats in report.per_class.values():
        assert stats["precision"] == stats["recall"] == stats["f1"] == 1.0


def test_class_report_never_predicted_class():
    predicted = [0] * 68
    actual = [6] * 68
    report = class_report(predicted, actual)
    assert report.per_class[6] == {
        "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 68.0,
    }


def test_class_report_hand_confusion():
    predicted = [0, 0, 1, 1, 1, 2, 2, 0, 1, 2]
    actual = [0, 1, 1, 1, 0, 2, 1, 0, 1, 2]
    report = class_report(predicted, actual)
    oracle, accuracy = slow_class_report(predicted, actual)
    assert report.accuracy == pytest.approx(accuracy, abs=1e-12)
    for c, stats in oracle.items():
        for m in ("precision", "recall", "f1"):
            assert report.per_class[c][m] == pytest.approx(stats[m], abs=1e-12)
        assert report.per_class[c]["support"] == stats["support"]
    # supports sum to the evaluation-set size
    assert sum(s["support"] for s in report.per_class.values()) == len(actual)


def test_class_report_randomized_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        predicted = rng.integers(0, k, n).tolist()
        actual = rng.integers(0, k, n).tolist()
        report = class_report(predicted, actual)
        oracle, accuracy = slow_class_report(predicted, actual)
        assert report.accuracy == pytest.approx(accuracy, abs=1e-12)
        micro = sum(1 for p, a in zip(predicted, actual) if p == a) / n
        assert report.accuracy == pytest.approx(micro, abs=1e-15)
        for c in oracle:
            for m in ("precision", "recall", "f1"):
                assert report.per_class[c][m] == pytest.approx(oracle[c][m], abs=1e-12)
        # weighted average is the support-weighted mean
        total = sum(oracle[c]["support"] for c in oracle)
        for m in ("precision", "recall", "f1"):
            expected = sum(oracle[c][m] * oracle[c]["support"] for c in oracle) / total
            assert report.weighted_avg[m] == pytest.approx(expected, abs=1e-12)


def test_class_report_empty_errors():
    with pytest.raises(ValueError):
        class_report([], [])

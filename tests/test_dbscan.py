import numpy as np
import pytest

from oracles import same_partition, slow_dbscan
from workload_profiler.dbscan import dbscan
from workload_profiler.hdbscan import core_distances


def blobs(rng, centers, n_per, sigma=0.3, dims=2):
    return np.vstack([rng.normal(c, sigma, size=(n_per, dims)) for c in centers])


def test_two_far_blobs():
    rng = np.random.default_rng(0)
    X = blobs(rng, [(0, 0), (100, 100)], 10, sigma=0.2)
    labels = dbscan(X, eps=2.0, min_points=3)
    assert sorted(set(labels.tolist())) == [0, 1]
    assert (labels == -1).sum() == 0
    assert same_partition(labels, slow_dbscan(X, 2.0, 3))


def test_isolated_point_is_noise():
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(0, 0.2, size=(10, 2)), [[50.0, 50.0]]])
    labels = dbscan(X, eps=2.0, min_points=3)
    assert labels[-1] == -1
    assert same_partition(labels, slow_dbscan(X, 2.0, 3))


def test_all_identical_points_single_cluster():
    X = np.zeros((12, 3))
    labels = dbscan(X, eps=0.5, min_points=5)
    assert set(labels.tolist()) == {0}


def test_validation():
    X = np.zeros((10, 2))
    with pytest.raises(ValueError):
        dbscan(X, eps=0.0, min_points=3)
    with pytest.raises(ValueError):
        dbscan(X, eps=1.0, min_points=1)
    with pytest.raises(ValueError):
        dbscan(X, eps=1.0, min_points=11)


def test_permutation_invariance_up_to_renaming():
    rng = np.random.default_rng(2)
    X = blobs(rng, [(0, 0), (4, 4), (8, 0)], 15, sigma=0.4)
    labels = dbscan(X, eps=1.0, min_points=4)
    perm = rng.permutation(len(X))
    permuted = dbscan(X[perm], eps=1.0, min_points=4)
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert same_partition(labels, unpermuted)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_oracle_equivalence_random_instances(kind):
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(20, 120))
        dims = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        centers = rng.uniform(0, 10, size=(k, dims))
        X = np.vstack(
            [rng.normal(c, rng.uniform(0.2, 1.5), size=(n // k + 1, dims)) for c in centers]
        )[:n]
        eps = float(rng.uniform(0.3, 2.0)) if kind != "cosine" else float(rng.uniform(0.01, 0.4))
        min_points = int(rng.integers(2, 8))
        fast = dbscan(X, eps, min_points, kind)
        slow = slow_dbscan(X, eps, min_points, kind)
        assert same_partition(fast, slow)
        # the deterministic numbering also makes labels equal outright
        assert np.array_equal(fast, slow) and fast.dtype == slow.dtype


@pytest.mark.parametrize("seed", [80, 92, 129])
def test_cosine_border_points_equal_the_oracle(seed):
    # In these cases, under a kernel whose d(a, b) and d(b, a) differ in the
    # last bits, a non-core row is within eps of a core row by the core
    # row's distances but not by its own.
    rng = np.random.default_rng(seed)
    n, dims, k = int(rng.integers(20, 90)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    X = np.vstack([
        rng.normal(rng.uniform(0, 10, size=dims), rng.uniform(0.2, 1.5), size=(n // k + 1, dims))
        for _ in range(k)
    ])[:n]
    min_points = int(rng.integers(2, 11))
    eps = float(np.quantile(core_distances(X, [min_points], "cosine")[min_points], 0.1))
    fast = dbscan(X, eps, min_points, "cosine")
    slow = slow_dbscan(X, eps, min_points, "cosine")
    assert np.array_equal(fast, slow) and fast.dtype == slow.dtype

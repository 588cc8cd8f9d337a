import importlib

import numpy as np
import pytest

from oracles import same_partition, slow_hdbscan, slow_prim_mst, slow_tree_labels
from workload_profiler.dbscan import eps_cut
from workload_profiler.distances import BLOCK_ELEMENTS, point_to_rows
from workload_profiler.hdbscan import (
    build_merge_tree,
    condense,
    core_distances,
    hdbscan,
    mutual_reachability_mst,
    select_clusters,
    spanning_trees,
    tree_labels,
)


def blobs(rng, centers, n_per, sigma, dims=2):
    return np.vstack([rng.normal(c, sigma, size=(n_per, dims)) for c in centers])


def test_two_tight_blobs():
    rng = np.random.default_rng(0)
    X = blobs(rng, [(0, 0), (10, 10)], 50, sigma=0.05)
    labels = hdbscan(X, 10)
    assert len(set(labels[labels >= 0].tolist())) == 2
    assert (labels == -1).sum() <= 5


def test_four_blobs():
    rng = np.random.default_rng(1)
    X = blobs(rng, [(0, 0), (10, 0), (0, 10), (10, 10)], 100, sigma=0.4)
    labels = hdbscan(X, 25)
    assert len(set(labels[labels >= 0].tolist())) == 4
    assert (labels == -1).sum() <= 0.05 * len(X)


def test_uniform_noise_no_fine_structure():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(100, 2))
    labels = hdbscan(X, 60)
    assert len(set(labels[labels >= 0].tolist())) <= 1


def test_duplicated_points_single_cluster():
    X = np.tile(np.array([[1.5, -2.0, 3.0]]), (20, 1))
    labels = hdbscan(X, 5)
    assert set(labels.tolist()) == {0}
    assert (labels == -1).sum() == 0


def test_validation():
    X = np.zeros((10, 2))
    with pytest.raises(ValueError):
        hdbscan(X, 1)
    with pytest.raises(ValueError):
        hdbscan(X, 11)


def test_min_cluster_size_is_respected():
    rng = np.random.default_rng(3)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 3)) * rng.uniform(0.1, 2)
        for mcs in (2, 5, 15):
            labels = hdbscan(X, mcs)
            for c in set(labels[labels >= 0].tolist()):
                assert (labels == c).sum() >= mcs


def test_core_distance_definition():
    X = np.array([[0.0], [1.0], [3.0], [6.0]])
    # k=2: distance to the 2nd nearest including self = nearest other point
    np.testing.assert_allclose(core_distances(X, (2,))[2], [1.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_shared_core_distances_equal_separate_calls(kind):
    rng = np.random.default_rng(6)
    X = np.vstack([blobs(rng, [(0, 0, 0), (4, 4, 4)], 60, sigma=0.5, dims=3), np.zeros((5, 3))])
    ks = (50, 2, 9, 125, 9)
    shared = core_distances(X, ks, kind)
    assert sorted(shared) == [2, 9, 50, 125]
    for k in ks:
        alone = core_distances(X, (k,), kind)[k]
        assert np.array_equal(shared[k], alone)
        expected = [np.sort(point_to_rows(X[i], X, kind))[k - 1] for i in range(len(X))]
        assert shared[k].tolist() == expected


def assert_mst_like_slow_prim(X, core, edges, k, kind):
    """``edges`` is a minimum spanning tree of mutual reachability that every
    consumer reads as it reads ``slow_prim_mst``'s edges; with tied weights
    the two may choose different edges, in a different order."""
    n = len(X)
    slow = slow_prim_mst(X, core, kind)
    assert edges.shape == (n - 1, 3)
    a, b = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    assert np.array_equal(np.sort(b), np.arange(1, n))  # every point but 0 joins once
    joined_at = np.full(n, -1)
    joined_at[b] = np.arange(n - 1)
    assert np.all(joined_at[a] < joined_at[b])  # from a point already in the tree
    for (i, j, w) in zip(a.tolist(), b.tolist(), edges[:, 2].tolist()):
        assert w == max(core[i], core[j], point_to_rows(X[i], X[j:j + 1], kind)[0])
    assert np.array_equal(np.sort(edges[:, 2]), np.sort(slow[:, 2]))
    assert np.array_equal(tree_labels(edges, k), tree_labels(slow, k))
    for fast_part, slow_part in zip(condense(*build_merge_tree(edges, n), k),
                                    condense(*build_merge_tree(slow, n), k)):
        assert np.array_equal(fast_part, slow_part)
    for eps in np.unique(slow[:, 2])[::5]:
        assert np.array_equal(eps_cut(X, core, edges, eps, kind), eps_cut(X, core, slow, eps, kind))


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
@pytest.mark.parametrize("duplicates", [False, True])
def test_prim_edges_equal_slow_oracle(kind, duplicates):
    rng = np.random.default_rng(7)
    X = blobs(rng, [(0, 0), (3, 0), (0, 5)], 40, sigma=0.4)
    if duplicates:
        # repeated points and an all-equal block make exact mrd ties
        X = np.vstack([X, X[:25], np.full((12, 2), 1.5)])
        X = np.round(X, 1)
    for k in (2, 5, 15):
        core = core_distances(X, (k,), kind)[k]
        assert_mst_like_slow_prim(X, core, mutual_reachability_mst(X, core, kind), k, kind)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_core_selection_equals_full_sort_for_k_from_1_to_n(kind):
    rng = np.random.default_rng(8)
    X = np.round(np.vstack([rng.normal(size=(500, 3)), np.ones((6, 3))]), 1)
    n = len(X)
    for ks in ((1, 2, 7, 38, 250), (1, 5, n - 1, n)):
        core = core_distances(X, ks, kind)
        for k in ks:
            expected = [np.sort(point_to_rows(X[i], X, kind))[k - 1] for i in range(n)]
            assert core[k].tolist() == expected


def kernel_elements(monkeypatch):
    """A list that collects the size of every distance block the clustering
    module asks the kernel for."""
    module = importlib.import_module("workload_profiler.hdbscan")
    sizes = []

    def counted(x, rows, kind="euclidean"):
        d = point_to_rows(x, rows, kind)
        sizes.append(d.size)
        return d

    monkeypatch.setattr(module, "point_to_rows", counted)
    return sizes


def full_sort_core(X, k, kind):
    return [np.sort(point_to_rows(X[i], X, kind))[k - 1] for i in range(len(X))]


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_pruned_core_distances_skip_far_columns_and_equal_a_full_sort(kind, monkeypatch):
    rng = np.random.default_rng(12)
    X = blobs(rng, [(6 * i, 3 * (i % 2), 0) for i in range(12)], 120, sigma=0.4, dims=3)
    n = len(X)
    sizes = kernel_elements(monkeypatch)
    core = core_distances(X, (4, 10), kind)
    assert sum(sizes) < n * n / 3  # a full scan measures n * n
    assert max(sizes) <= BLOCK_ELEMENTS
    for k in (4, 10):
        assert core[k].tolist() == full_sort_core(X, k, kind)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_pruned_core_distances_equal_a_full_sort_with_ties_and_k_up_to_n(kind):
    rng = np.random.default_rng(13)
    grid = rng.integers(0, 5, size=(300, 2)).astype(float)  # many ties at the k-th distance
    X = np.vstack([grid, grid[:40], np.full((30, 2), 2.0), rng.normal(20, 1, (10, 2))])
    n = len(X)
    ks = (2, 7, 31, 64, n - 1, n)
    core = core_distances(X, ks, kind)
    for k in ks:
        assert core[k].tolist() == full_sort_core(X, k, kind), k


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_floor_batches_and_box_bounds_cut_the_mst_distance_work(kind, monkeypatch):
    rng = np.random.default_rng(14)
    X = blobs(rng, [(6 * i, 3 * (i % 2), 0) for i in range(8)], 90, sigma=0.4, dims=3)
    n = len(X)
    core = core_distances(X, (10,), kind)[10]
    sizes = kernel_elements(monkeypatch)
    edges = mutual_reachability_mst(X, core, kind)
    assert len(sizes) < n / 4  # Prim alone takes n - 1 steps
    assert sum(sizes) < 0.4 * n * n  # unpruned, the batches measure about n * n / 2
    assert max(sizes) <= BLOCK_ELEMENTS
    monkeypatch.undo()
    assert_mst_like_slow_prim(X, core, edges, 10, kind)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("trees", [1, 2, 7])
def test_lockstep_trees_equal_slow_oracle_per_tree(kind, duplicates, trees):
    rng = np.random.default_rng(9)
    X = blobs(rng, [(0, 0, 0), (3, 0, 1), (0, 5, 2)], 35, sigma=0.5, dims=3)
    if duplicates:
        X = np.round(np.vstack([X, X[:20], np.full((10, 3), 1.5)]), 1)
    ks = (2, 3, 5, 9, 15, 30, 60)[:trees]
    core, forest = spanning_trees(X, ks, kind)
    assert list(core) == list(forest) == list(ks)
    for k, edges in forest.items():
        assert np.array_equal(core[k], core_distances(X, (k,), kind)[k])
        assert np.array_equal(edges, mutual_reachability_mst(X, core[k], kind))
        assert_mst_like_slow_prim(X, core[k], edges, k, kind)


def test_hdbscan_stack_rows_equal_each_size_alone():
    rng = np.random.default_rng(10)
    X = np.vstack([blobs(rng, [(0, 0), (4, 4), (0, 6)], 40, sigma=0.5), rng.uniform(-3, 9, (8, 2))])
    sizes = (30, 4, 12, 4)
    _, forest = spanning_trees(X, sizes, "manhattan")
    assert list(forest) == [30, 4, 12]  # a repeated size grows one tree
    for k, edges in forest.items():
        assert edges.shape == (len(X) - 1, 3)
        assert np.array_equal(tree_labels(edges, k), hdbscan(X, k, "manhattan"))


def test_mst_total_weight_matches_brute_force():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    core = core_distances(X, (5,))[5]
    edges = mutual_reachability_mst(X, core, "euclidean")
    # brute-force Prim over the dense mutual reachability matrix
    n = len(X)
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    M = np.maximum(np.maximum(core[:, None], core[None, :]), D)
    np.fill_diagonal(M, np.inf)
    in_tree = {0}
    total = 0.0
    while len(in_tree) < n:
        best = np.inf
        best_j = None
        for i in in_tree:
            for j in range(n):
                if j not in in_tree and M[i, j] < best:
                    best, best_j = M[i, j], j
        in_tree.add(best_j)
        total += best
    assert edges[:, 2].sum() == pytest.approx(total, rel=1e-10)


def test_merge_tree_structure():
    rng = np.random.default_rng(5)
    for X in (rng.normal(size=(30, 2)), rng.integers(0, 3, size=(30, 2)).astype(float)):
        n, root = len(X), 2 * len(X) - 2
        core = core_distances(X, (4,))[4]
        up, size, low, lam = build_merge_tree(mutual_reachability_mst(X, core, "euclidean"), n)
        assert up[root] == root and size[root] == n and low[root] == 0
        kept = np.flatnonzero(size[:root] > 0)  # every node but the root and contracted merges
        # a kept node's parent is a kept merge at the same or a lower lam
        assert np.all(up[kept] >= n) and np.all(size[up[kept]] > 0)
        assert np.all(lam[kept] >= lam[up[kept]])
        # each kept merge splits into >= 2 children holding its points; a
        # contracted merge has size 0, no children, and accounts for one of
        # the extra children of its kept ancestor
        internal = size[n:] > 0
        children = np.bincount(up[kept], minlength=root + 1)[n:]
        assert np.all(children[internal] >= 2) and not children[~internal].any()
        assert (children[internal] - 1).sum() == n - 1
        points = np.bincount(up[kept], weights=size[kept], minlength=root + 1)[n:]
        assert np.array_equal(points[internal], size[n:][internal])
        least = np.full(root + 1, n)
        np.minimum.at(least, up[kept], low[kept])
        assert np.array_equal(least[n:][internal], low[n:][internal])
        assert condense(up, size, low, lam, 4)[4][0] == n  # the root cluster
    assert not internal.all()  # the integer grid's ties contract merges


def tree_cases(kind, seeds):
    """Seeded (edges, n, k): Gaussian data, integer grids with heavy ties,
    duplicate blocks (infinite lambdas), 1-D two-valued data and data with
    zero vectors, each at k = 2, k = n and four sizes between."""
    for seed in seeds:
        r = np.random.default_rng(seed)
        n = int(r.integers(5, 120))
        blob = r.normal(size=(n, 2))
        X = (blob * r.uniform(0.2, 3),
             r.integers(0, 4, size=(n, 3)).astype(float),
             np.where(np.arange(n)[:, None] < n // 2, blob, blob[-1]),  # a duplicate block
             r.choice([0.0, 1.0], size=(n, 1)),
             np.where(r.random((n, 1)) < 0.2, 0.0, r.normal(size=(n, 3))))[seed % 5]
        ks = sorted({2, n, *r.integers(2, n + 1, size=4).tolist()})
        _, forest = spanning_trees(X, ks, kind)
        for k, edges in forest.items():
            yield edges, n, k


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_tree_steps_equal_slow_oracle_exactly(kind):
    # the label numbers are written to profiles.json, so they must match, not
    # just the partition
    for edges, n, k in tree_cases(kind, range(40)):
        fast = select_clusters(*condense(*build_merge_tree(edges, n), k))
        slow = slow_tree_labels(edges, n, k)
        assert fast.dtype == slow.dtype and np.array_equal(fast, slow), (kind, n, k)


def test_selection_ties_go_to_the_parent():
    # cluster 1's children 3 and 4 are together exactly as stable as it is
    # (4.0 each way), so 1 is kept; the labels number kept clusters by id
    parent, birth = np.array([-1, 0, 0, 1, 1]), np.array([0.0, 1.0, 1.0, 2.0, 2.0])
    size = np.array([6, 4, 2, 2, 2])
    point_cluster, point_lam = np.array([3, 3, 4, 4, 2, 2]), np.full(6, 3.0)
    labels = select_clusters(point_cluster, point_lam, parent, birth, size)
    assert labels.tolist() == [0, 0, 0, 0, 1, 1]


def test_oracle_equivalence_small_instances():
    rng = np.random.default_rng(6)
    cases = []
    for seed in range(12):
        r = np.random.default_rng(seed)
        k = int(r.integers(1, 4))
        centers = r.uniform(0, 12, size=(k, 2))
        sigma = float(r.uniform(0.2, 1.0))
        n = int(r.integers(24, 61))
        X = np.vstack(
            [r.normal(c, sigma, size=(n // k + 1, 2)) for c in centers]
        )[:n]
        mcs = int(r.integers(3, 9))
        cases.append((X, mcs))
    for X, mcs in cases:
        fast = hdbscan(X, mcs)
        slow = slow_hdbscan(X, mcs)
        assert same_partition(fast, slow), f"mismatch at mcs={mcs}, n={len(X)}"


def test_oracle_equivalence_manhattan():
    r = np.random.default_rng(17)
    X = np.vstack([r.normal((0, 0), 0.5, (25, 2)), r.normal((8, 8), 0.5, (25, 2))])
    assert same_partition(hdbscan(X, 6, "manhattan"), slow_hdbscan(X, 6, "manhattan"))


def test_permutation_invariance_up_to_renaming():
    rng = np.random.default_rng(8)
    X = blobs(rng, [(0, 0), (6, 6)], 30, sigma=0.3)
    labels = hdbscan(X, 8)
    perm = rng.permutation(len(X))
    permuted = hdbscan(X[perm], 8)
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert same_partition(labels, unpermuted)


def test_cosine_with_zero_vectors():
    # zero vectors sit at cosine distance 1 from everything: they become
    # noise while the two directional clusters are still found
    rng = np.random.default_rng(10)
    X = np.vstack(
        [
            np.zeros((5, 3)),
            rng.normal((1, 1, 1), 0.05, (20, 3)),
            rng.normal((-1, 2, 0), 0.05, (20, 3)),
        ]
    )
    labels = hdbscan(X, 5, "cosine")
    assert len(set(labels[labels >= 0].tolist())) == 2
    assert all(labels[i] == -1 for i in range(5))


def test_one_dimensional_data():
    rng = np.random.default_rng(11)
    X = np.concatenate([rng.normal(0, 0.1, 40), rng.normal(10, 0.1, 40)])[:, None]
    labels = hdbscan(X, 10)
    assert len(set(labels[labels >= 0].tolist())) == 2

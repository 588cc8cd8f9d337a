"""Hierarchical density clustering (HDBSCAN-style), implemented from scratch.

Pipeline:
  1. core distance of each point = distance to its k-th nearest neighbor
     (itself included), k = min_cluster_size;
  2. mutual reachability distance mrd(a, b) = max(core_a, core_b, d(a, b));
  3. minimum spanning tree over mrd (Prim, O(n^2) time / O(n) memory per
     tree; the trees of several sizes grow in lockstep);
  4. a merge tree as parent, size, least-point and lambda arrays: one
     union-find pass over the edges in weight order, equal-weight merges
     contracted (build_merge_tree);
  5. condensation at min_cluster_size: points fall out at their lowest big
     ancestor, clusters are numbered in depth-first order (condense);
  6. cluster selection by total stability (excess of mass), root excluded,
     with stability summed by bincount in point order (select_clusters).

Steps 4-6 (tree_labels) are array passes; each "nearest marked ancestor"
query is one pointer-doubling pass over the parent array. Flat DBSCAN cuts
the tree of steps 1-3 at eps instead (dbscan.eps_cut).

Equal-weight merges are contracted into one multi-way split: mutual
reachability ties are structural (mrd repeats core distances across pairs),
and the component structure at a distance threshold is tie-invariant even
though a binary merge order is not. This makes the labelling canonical.

Points outside every selected cluster are labelled -1. When no split of the
root survives condensation the root itself is selected, so a dataset that is
one dense blob (or all-duplicate points) comes back as a single cluster
rather than all noise.
"""

from __future__ import annotations

import numpy as np

from .distances import block_rows, point_to_rows
from .trace_model import matrix_rows


def core_distances(X: np.ndarray, ks, kind: str = "euclidean") -> dict[int, np.ndarray]:
    """Distance to the k-th nearest neighbor, the point itself included, for
    every k in ``ks`` (each 1 <= k <= n) from one distance row per point.

    Rows come in blocks; one partition per row at the largest k and a sort of
    that prefix select every order statistic at once, so each array equals a
    separate per-k computation (and a full sort) exactly.
    """
    kth = sorted({k - 1 for k in ks})
    XF = np.asfortranarray(X)
    n = XF.shape[0]
    table = np.empty((len(kth), n), dtype=np.float64)
    step = block_rows(n)
    for start in range(0, n, step):
        d = point_to_rows(XF[start:start + step], XF, kind)
        d.partition(kth[-1], axis=1)
        prefix = np.sort(d[:, :kth[-1] + 1], axis=1)
        table[:, start:start + step] = prefix[:, kth].T
    return {k: table[kth.index(k - 1)] for k in ks}


def mutual_reachability_mst(X: np.ndarray, core: np.ndarray, kind: str) -> np.ndarray:
    """Prim's MST over the implicit mutual reachability graph.

    ``core`` is one array of n core distances, giving an (n-1, 3) array of
    edges [a, b, weight], or a (K, n) stack of them, giving (K, n-1, 3): K
    trees grown in lockstep, one block of K distance rows per step, each
    tree's edges equal to a call of its own. Rows of the distance matrix are
    recomputed on the fly so memory stays O(K n). A point that joins a tree
    gets an infinite core distance in that tree's working copy, which makes
    every later mutual reachability to it infinite, so it is never offered
    again; argmin breaks ties toward the lowest index. Whenever the points
    left to add have fallen by a quarter, the working columns shrink to the
    points some tree has not reached yet (kept in ascending order, so ties
    still go low), which about halves the distance work.
    """
    core = np.asarray(core, dtype=np.float64)
    cores = np.atleast_2d(core)
    trees, n = cores.shape
    XC = np.ascontiguousarray(X)  # gathers the current points' coordinates
    flat_core = cores.ravel()
    core_at = np.arange(trees) * n  # flat index of (t, 0) in cores
    cols = np.arange(n)  # the point of each working column
    live_core = cores.copy()
    dist_to_tree = np.full((trees, n), np.inf)
    source = np.full((trees, n), -1, dtype=np.int64)
    in_tree = np.zeros((trees, n), dtype=bool)
    edges = np.empty((n - 1, 3, trees), dtype=np.float64)

    current = np.zeros(trees, dtype=np.int64)
    in_tree[:, 0] = True
    shrink_at = n  # the first step shrinks away point 0 and sets up the views
    for step in range(n - 1):
        left = n - 1 - step  # points each tree has still to add
        if left <= shrink_at:
            keep = np.flatnonzero(~in_tree.all(axis=0))
            cols = cols[keep]
            XF = np.asfortranarray(XC[cols])
            live_core, dist_to_tree, source, in_tree = (
                a.take(keep, axis=1) for a in (live_core, dist_to_tree, source, in_tree)
            )
            shrink_at = left * 3 // 4
            # Flat views: working element (t, j) sits at t * width + j.
            at_row = np.arange(trees) * cols.size
            flat_live, flat_dist = live_core.ravel(), dist_to_tree.ravel()
            flat_source, flat_in = source.ravel(), in_tree.ravel()
        row = point_to_rows(XC.take(current, axis=0), XF, kind)
        np.maximum(row, live_core, out=row)
        np.maximum(row, flat_core.take(core_at + current)[:, None], out=row)
        np.copyto(source, current[:, None], where=row < dist_to_tree)
        np.minimum(dist_to_tree, row, out=dist_to_tree)
        pos = dist_to_tree.argmin(axis=1)
        at = at_row + pos
        current = cols.take(pos)
        edges[step, 0] = flat_source.take(at)
        edges[step, 1] = current
        edges[step, 2] = flat_dist.take(at)
        flat_live.put(at, np.inf)
        flat_dist.put(at, np.inf)
        flat_in.put(at, True)
    edges = edges.transpose(2, 0, 1)
    return np.ascontiguousarray(edges if core.ndim == 2 else edges[0])


def _nearest(up: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Each node's nearest ancestor-or-self in ``mark`` by pointer doubling;
    a node with none gets the root, which ``up`` maps to itself."""
    at = np.where(mark, np.arange(up.size), up)
    while True:
        nxt = at[at]
        if np.array_equal(nxt, at):
            return at
        at = nxt


def build_merge_tree(edges: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The component tree of spanning edges, equal-weight merges contracted.

    Points are nodes 0..n-1; the edges merge in stable weight order, merge t
    is node n + t and the last is the root. A merge at its parent merge's
    weight is contracted: its size becomes 0 and every node's parent becomes
    its nearest kept ancestor (the root's is itself), so each kept node is
    one multi-way split at its weight. Any spanning edge set with the
    single-linkage property gives the same kept tree, because components at
    each threshold are graph invariants.

    Returns (up, size, low, lam) per node: parent, points below (0 when
    contracted), least point below, and 1/weight (inf at weight 0).
    """
    order = np.argsort(edges[:, 2], kind="stable")
    parent = list(range(n))  # union-find
    node = list(range(n))  # union-find root -> its component's tree node
    kids, size, low = [], [1] * n, list(range(n))
    for t, (ra, rb) in enumerate(edges[order, :2].astype(np.int64).tolist()):
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        parent[rb] = ra
        a, b = node[ra], node[rb]
        kids += (a, b)
        size.append(size[a] + size[b])
        low.append(min(low[a], low[b]))
        node[ra] = n + t
    up = np.arange(2 * n - 1)
    up[kids] = np.repeat(np.arange(n, 2 * n - 1), 2)
    size = np.array(size)
    weight = np.concatenate([np.zeros(n), edges[order, 2]])
    lam = np.divide(1.0, weight, out=np.full(weight.size, np.inf), where=weight > 0)
    contracted = weight == weight[up]
    contracted[:n] = contracted[-1] = False
    size[contracted] = 0
    return _nearest(up, ~contracted)[up], size, np.array(low), lam


def condense(up, size, low, lam, min_cluster_size: int) -> tuple[np.ndarray, ...]:
    """Condense a merge tree at ``min_cluster_size``; cluster 0 is the root.

    A node is big when it holds at least min_cluster_size points, and a split
    when two or more of its children are big; each big child of a split
    heads a cluster born at the split's lam. A point falls out at its lowest
    big ancestor, at that node's lam, into the cluster of the node's nearest
    head. Clusters are numbered as a depth-first walk from the root would:
    siblings get consecutive ids in least-point order, the last sibling is
    walked first.

    Returns (point_cluster, point_lam) per point and (parent, birth, size)
    per cluster, with parent -1 and birth 0 for the root.
    """
    root, n = up.size - 1, (up.size + 1) // 2
    big = size >= min_cluster_size
    split = np.bincount(up[:root][big[:root]], minlength=up.size) >= 2
    head = big & split[up]
    head[root] = True
    fall = _nearest(up, big)[:n]
    owner = _nearest(up, head)
    heads = np.flatnonzero(head[:root])
    kids: dict[int, list[int]] = {}
    for h in heads[np.argsort(low[heads])].tolist():
        kids.setdefault(int(owner[up[h]]), []).append(h)
    walk, stack = [root], [root]
    while stack:
        sibs = kids.get(stack.pop(), [])
        walk += sibs
        stack += sibs
    walk = np.array(walk)
    cid = np.zeros(up.size, dtype=np.int64)
    cid[walk] = np.arange(walk.size)
    parent, birth = cid[owner[up[walk]]], lam[up[walk]]
    parent[0], birth[0] = -1, 0.0
    return cid[owner[fall]], lam[fall], parent, birth, size[walk]


def select_clusters(point_cluster, point_lam, parent, birth, size) -> np.ndarray:
    """Excess-of-mass selection over condensed clusters; returns the labels.

    A cluster's stability adds, over its points in point order, each point's
    lam minus the cluster's birth, then over its children in id order, each
    child's birth minus its own times the child's size; inf - inf counts 0
    (duplicate-heavy data hits it). Bottom-up, a cluster is kept unless its
    children's total is larger, so ties favour the parent; the root never
    competes. Each kept cluster without a kept ancestor labels every point
    below it, numbered in id order. If no split survived condensation the
    root is selected, so the result is one cluster instead of pure noise.
    """
    def gap(a, b):
        return np.subtract(a, b, out=np.zeros(a.size), where=a != b)

    m = parent.size
    stability = np.bincount(point_cluster, gap(point_lam, birth[point_cluster]), minlength=m)
    np.add.at(stability, parent[1:], gap(birth[1:], birth[parent[1:]]) * size[1:])
    up = np.maximum(parent, 0)  # the root is its own parent
    starts = np.flatnonzero(np.diff(parent)) + 1  # siblings have consecutive ids
    first = np.zeros(m, dtype=np.int64)
    first[parent[starts]] = starts
    first, count = first.tolist(), np.bincount(up[1:], minlength=m).tolist()
    running = stability.tolist()
    marked = np.zeros(m, dtype=bool)
    for c in range(m - 1, 0, -1):
        kids = running[first[c]:first[c] + count[c]]
        if kids and sum(kids) > running[c]:
            running[c] = sum(kids)
        else:
            marked[c] = True
    top = marked & ~marked[_nearest(up, marked)[up]]
    top[0] = not top.any()
    label = np.where(top, np.cumsum(top) - 1, -1)
    return label[_nearest(up, top)[point_cluster]]


def hdbscan(matrix, min_cluster_size: int, kind: str = "euclidean") -> np.ndarray:
    """Cluster rows by density; returns labels with -1 for outliers."""
    X = matrix_rows(matrix)
    n, k = X.shape[0], int(min_cluster_size)
    if k < 2:
        raise ValueError("min_cluster_size must be >= 2")
    if n < k:
        raise ValueError(f"need at least min_cluster_size={k} rows, got {n}")
    _, (edges,) = lockstep_trees(X, [k], kind)
    return tree_labels(edges, k)


def lockstep_trees(X: np.ndarray, sizes, kind: str) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The core distances of each of K sizes (1 <= size <= n) and the (K,
    n-1, 3) edges of their lockstep Prim trees: one core-distance pass and
    one Prim pass, each tree equal to the tree of its size alone."""
    core = core_distances(X, sizes, kind)
    return core, mutual_reachability_mst(X, np.stack([core[k] for k in sizes]), kind)


def tree_labels(edges: np.ndarray, min_cluster_size: int) -> np.ndarray:
    """Labels from one size's spanning tree: its merge tree, condensation
    and excess-of-mass selection."""
    n = edges.shape[0] + 1
    return select_clusters(*condense(*build_merge_tree(edges, n), min_cluster_size))

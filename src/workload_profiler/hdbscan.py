"""Hierarchical density clustering (HDBSCAN-style), implemented from scratch.

Pipeline:
  1. core distance of each point = distance to its k-th nearest neighbor
     (itself included), k = min_cluster_size;
  2. mutual reachability distance mrd(a, b) = max(core_a, core_b, d(a, b));
  3. minimum spanning tree over mrd (Prim, O(n^2) time / O(n) memory per
     tree; the trees of several sizes grow in lockstep);
  4. a merge tree of the components at each distinct edge weight;
  5. condensation of the merge tree at min_cluster_size;
  6. cluster selection by total stability (excess of mass), root excluded.

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

import math
from dataclasses import dataclass

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


@dataclass
class MergeTree:
    """Multi-way component tree: node ids < n_points are single points;
    internal node n_points + t merges children[t] at threshold dist[t]."""

    children: list[list[int]]
    dist: list[float]
    size: list[int]
    n_points: int
    root: int

    def node_size(self, node: int) -> int:
        return 1 if node < self.n_points else self.size[node - self.n_points]

    def node_children(self, node: int) -> list[int]:
        return self.children[node - self.n_points]

    def node_dist(self, node: int) -> float:
        return self.dist[node - self.n_points]


def build_merge_tree(edges: np.ndarray, n: int) -> MergeTree:
    """Contract sorted edges into the component tree, grouping equal weights.

    Any spanning edge set with the single-linkage property yields the same
    tree, because components at each threshold are graph invariants.
    """
    order = np.argsort(edges[:, 2], kind="stable")
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    comp_node = list(range(n))  # union-find root -> current tree node
    min_member = list(range(n))  # per tree node, for canonical child order
    children: list[list[int]] = []
    dists: list[float] = []
    sizes: list[int] = []

    i = 0
    m = len(order)
    while i < m:
        w = edges[order[i], 2]
        j = i
        pending: dict[int, list[int]] = {}
        while j < m and edges[order[j], 2] == w:
            a = int(edges[order[j], 0])
            b = int(edges[order[j], 1])
            ra, rb = find(a), find(b)
            if ra != rb:
                pa = pending.pop(ra, [comp_node[ra]])
                pb = pending.pop(rb, [comp_node[rb]])
                parent[rb] = ra
                pending[ra] = pa + pb
            j += 1
        for root, kids in pending.items():
            kids = sorted(kids, key=lambda k: min_member[k])
            node = n + len(children)
            children.append(kids)
            dists.append(float(w))
            sizes.append(sum(1 if k < n else sizes[k - n] for k in kids))
            comp_node[root] = node
            min_member.append(min(min_member[k] for k in kids))
        i = j

    root_node = comp_node[find(0)]
    return MergeTree(children=children, dist=dists, size=sizes, n_points=n, root=root_node)


@dataclass
class CondensedTree:
    """Merge tree condensed at min_cluster_size; cluster 0 is the root."""

    point_parent: np.ndarray   # cluster each point falls out of
    point_lambda: np.ndarray   # 1/distance at which it falls out
    cluster_parent: list[int]  # -1 for the root
    cluster_birth: list[float]
    cluster_size: list[int]
    cluster_children: list[list[int]]


def condense(tree: MergeTree, min_cluster_size: int) -> CondensedTree:
    n = tree.n_points

    point_parent = np.empty(n, dtype=np.int64)
    point_lambda = np.empty(n, dtype=np.float64)
    cluster_parent = [-1]
    cluster_birth = [0.0]
    cluster_size = [n]
    cluster_children: list[list[int]] = [[]]

    def leaves(node: int) -> list[int]:
        out: list[int] = []
        stack = [node]
        while stack:
            v = stack.pop()
            if v < n:
                out.append(v)
            else:
                stack.extend(tree.node_children(v))
        return out

    stack = [(tree.root, 0)]
    while stack:
        node, cid = stack.pop()
        # Walk down, shedding sub-min_cluster_size side branches as points.
        while True:
            d = tree.node_dist(node)
            lam = math.inf if d <= 0.0 else 1.0 / d
            big: list[int] = []
            for child in tree.node_children(node):
                if tree.node_size(child) >= min_cluster_size:
                    big.append(child)
                else:
                    for p in leaves(child):
                        point_parent[p] = cid
                        point_lambda[p] = lam
            if len(big) >= 2:
                for child in big:
                    c = len(cluster_parent)
                    cluster_parent.append(cid)
                    cluster_birth.append(lam)
                    cluster_size.append(tree.node_size(child))
                    cluster_children.append([])
                    cluster_children[cid].append(c)
                    stack.append((child, c))
                break
            if not big:
                break
            node = big[0]  # the cluster persists through this split

    return CondensedTree(
        point_parent=point_parent,
        point_lambda=point_lambda,
        cluster_parent=cluster_parent,
        cluster_birth=cluster_birth,
        cluster_size=cluster_size,
        cluster_children=cluster_children,
    )


def _gap(lam: float, birth: float) -> float:
    # inf - inf would poison the sum; duplicate-heavy data hits this.
    if math.isinf(lam) and math.isinf(birth):
        return 0.0
    return lam - birth


def cluster_stability(ct: CondensedTree) -> list[float]:
    """Total stability of each condensed cluster (excess-of-mass integrand)."""
    stab = [0.0] * len(ct.cluster_parent)
    for p in range(len(ct.point_parent)):
        c = int(ct.point_parent[p])
        stab[c] += _gap(float(ct.point_lambda[p]), ct.cluster_birth[c])
    for c in range(1, len(ct.cluster_parent)):
        parent = ct.cluster_parent[c]
        stab[parent] += _gap(ct.cluster_birth[c], ct.cluster_birth[parent]) * ct.cluster_size[c]
    return stab


def select_clusters(ct: CondensedTree, stability: list[float]) -> list[int]:
    """Excess-of-mass selection, bottom-up; ties favor the parent.

    The root never competes. If no split survived condensation the root is
    returned so the result is one cluster instead of pure noise.
    """
    k = len(ct.cluster_parent)
    selected = [False] * k
    running = list(stability)
    for c in range(k - 1, 0, -1):
        kids = ct.cluster_children[c]
        kid_total = sum(running[x] for x in kids)
        if kids and kid_total > running[c]:
            running[c] = kid_total
        else:
            selected[c] = True
            stack = list(kids)
            while stack:
                x = stack.pop()
                selected[x] = False
                stack.extend(ct.cluster_children[x])
    chosen = [c for c in range(1, k) if selected[c]]
    return chosen if chosen else [0]


def labels_from_selection(ct: CondensedTree, chosen: list[int], n: int) -> np.ndarray:
    """Each selected cluster owns every point in its condensed subtree."""
    points_in: dict[int, list[int]] = {}
    for p in range(n):
        points_in.setdefault(int(ct.point_parent[p]), []).append(p)
    labels = np.full(n, -1, dtype=np.int64)
    for li, c in enumerate(sorted(chosen)):
        stack = [c]
        while stack:
            x = stack.pop()
            for p in points_in.get(x, ()):
                labels[p] = li
            stack.extend(ct.cluster_children[x])
    return labels


def hdbscan(matrix, min_cluster_size, kind: str = "euclidean") -> np.ndarray:
    """Cluster rows by density; returns labels with -1 for outliers.

    ``min_cluster_size`` is one size, giving n labels, or a sequence of K
    sizes, giving a (K, n) stack: the sizes share one core-distance pass and
    one lockstep Prim pass, then each gets its own merge tree, condensation
    and selection. Each row equals a call with that size alone."""
    X = matrix_rows(matrix)
    n = X.shape[0]
    sizes = [int(k) for k in np.atleast_1d(min_cluster_size)]
    for k in sizes:
        if k < 2:
            raise ValueError("min_cluster_size must be >= 2")
        if n < k:
            raise ValueError(f"need at least min_cluster_size={k} rows, got {n}")

    core = core_distances(X, sizes, kind)
    forest = mutual_reachability_mst(X, np.stack([core[k] for k in sizes]), kind)
    labels = np.empty((len(sizes), n), dtype=np.int64)
    for t, k in enumerate(sizes):
        tree = build_merge_tree(forest[t], n)
        ct = condense(tree, k)
        chosen = select_clusters(ct, cluster_stability(ct))
        labels[t] = labels_from_selection(ct, chosen, n)
    return labels if np.ndim(min_cluster_size) else labels[0]

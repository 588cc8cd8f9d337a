"""Hierarchical density clustering (HDBSCAN-style), implemented from scratch.

Pipeline:
  1. core distance of each point = distance to its k-th nearest neighbor
     (itself included), k = min_cluster_size;
  2. mutual reachability distance mrd(a, b) = max(core_a, core_b, d(a, b));
  3. minimum spanning tree over mrd (Prim, O(n^2) time / O(n) memory);
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

from .distances import point_to_rows
from .trace_model import matrix_rows


def core_distances(X: np.ndarray, ks, kind: str = "euclidean") -> dict[int, np.ndarray]:
    """Distance to the k-th nearest neighbor, the point itself included, for
    every k in ``ks`` (each 1 <= k <= n) from one distance row per point.

    One partition per row selects every order statistic at once, so each
    array equals a separate per-k computation exactly.
    """
    kth = sorted({k - 1 for k in ks})
    XF = np.asfortranarray(X)
    table = np.empty((len(kth), XF.shape[0]), dtype=np.float64)
    for i in range(XF.shape[0]):
        d = point_to_rows(XF[i], XF, kind)
        d.partition(kth)
        table[:, i] = d[kth]
    return {k: table[kth.index(k - 1)] for k in ks}


def mutual_reachability_mst(X: np.ndarray, core: np.ndarray, kind: str) -> np.ndarray:
    """Prim's MST over the implicit mutual reachability graph.

    Returns an (n-1, 3) array of edges [a, b, weight]; rows of the distance
    matrix are recomputed on the fly so memory stays O(n). A point that joins
    the tree gets an infinite core distance in a working copy, which makes
    every later mutual reachability to it infinite, so it is never offered
    again; argmin breaks ties toward the lowest index.
    """
    n = X.shape[0]
    XF = np.asfortranarray(X)
    live_core = np.array(core, dtype=np.float64)
    dist_to_tree = np.full(n, np.inf)
    source = np.full(n, -1, dtype=np.int64)
    edges = np.empty((n - 1, 3), dtype=np.float64)

    current = 0
    live_core[0] = np.inf
    for step in range(n - 1):
        row = point_to_rows(XF[current], XF, kind)
        np.maximum(row, live_core, out=row)
        np.maximum(row, core[current], out=row)
        np.copyto(source, current, where=row < dist_to_tree)
        np.minimum(dist_to_tree, row, out=dist_to_tree)
        nxt = int(np.argmin(dist_to_tree))
        edges[step] = (source[nxt], nxt, dist_to_tree[nxt])
        live_core[nxt] = np.inf
        dist_to_tree[nxt] = np.inf
        current = nxt
    return edges


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


def hdbscan(matrix, min_cluster_size: int, kind: str = "euclidean", core=None) -> np.ndarray:
    """Cluster rows by density; returns labels with -1 for outliers.

    ``core`` takes precomputed core distances for ``min_cluster_size`` (from
    ``core_distances``), so that a grid search computes them once for all
    its sizes."""
    X = matrix_rows(matrix)
    n = X.shape[0]
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    if n < min_cluster_size:
        raise ValueError(f"need at least min_cluster_size={min_cluster_size} rows, got {n}")

    if core is None:
        core = core_distances(X, (min_cluster_size,), kind)[min_cluster_size]
    edges = mutual_reachability_mst(X, core, kind)
    tree = build_merge_tree(edges, n)
    ct = condense(tree, min_cluster_size)
    chosen = select_clusters(ct, cluster_stability(ct))
    return labels_from_selection(ct, chosen, n)

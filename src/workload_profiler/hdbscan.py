"""Hierarchical density clustering (HDBSCAN-style), implemented from scratch.

Pipeline:
  1. core distance of each point = distance to its k-th nearest neighbor
     (itself included), k = min_cluster_size, from a scan of blocks of near
     rows that skips the columns an exact box bound puts beyond the block's
     seed radius (core_distances);
  2. mutual reachability distance mrd(a, b) = max(core_a, core_b, d(a, b));
  3. a minimum spanning tree over mrd, O(n) memory: Prim that adds every
     point whose distance to the tree has reached its core distance along
     with the nearest one, each batch skipping the columns its box bound
     rules out (mutual_reachability_mst); the sizes of a grid group share
     the core-distance pass and grow one tree each (spanning_trees);
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

from .distances import _unbuffered, block_rows, box_lower_bound, point_to_rows
from .trace_model import matrix_rows


# Rows of one block of the pruned core-distance scan, fewer when k_max is
# large: 64 rows and 256 seeds fill one distance block.
CORE_BLOCK_ROWS = 64


@_unbuffered
def core_distances(X: np.ndarray, ks, kind: str = "euclidean") -> dict[int, np.ndarray]:
    """Distance to the k-th nearest neighbor, the point itself included, for
    every k in ``ks`` (each 1 <= k <= n), equal to a full sort of each row.

    The rows are put in ``_near_order`` and taken in blocks of consecutive
    rows. A block first measures its seeds, the rows around it that fill the
    rest of one distance block (at least k_max of them); r, the largest
    k_max-th distance among them, is at least every block row's true
    k_max-th distance. A column whose box bound from the block
    (``box_lower_bound``) exceeds r is farther than r from every block row,
    so it cannot move an order statistic: the block scans its seeds and the
    columns within the bound. One partition per row at k_max and a sort of
    that prefix select every order statistic at once, so each array equals
    a separate per-k computation. A box bounds no cosine distance, so there
    the seeds are every column, a full scan.
    """
    kth = sorted({k - 1 for k in ks})
    width = kth[-1] + 1  # k_max
    n = X.shape[0]
    if kind == "cosine":
        rows, span = block_rows(n), n
    else:  # rows * span <= BLOCK_ELEMENTS and span >= k_max
        rows = min(CORE_BLOCK_ROWS, block_rows(width))
        span = min(n, block_rows(rows))
    order = _near_order(X, rows, 4 * span)
    XS = np.asfortranarray(X[order])
    table = np.empty((len(kth), n), dtype=np.float64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = XS[start:stop]
        at = min(max((start + stop - span) // 2, 0), n - span)
        seeds = point_to_rows(block, XS[at:at + span], kind)
        rest = XS[:0]
        if span < n:
            r = np.partition(seeds, width - 1, axis=1)[:, width - 1].max()
            near = box_lower_bound(block.min(axis=0), block.max(axis=0), XS, kind) <= r
            near[at:at + span] = False
            rest = _gather(XS, np.flatnonzero(near))
        step = block_rows(span + rest.shape[0])
        for s in range(start, stop, step):
            e = min(s + step, stop)
            d = seeds[s - start:e - start]
            if rest.size:
                d = np.concatenate([d, point_to_rows(XS[s:e], rest, kind)], axis=1)
            d.partition(width - 1, axis=1)
            table[:, s:e] = np.sort(d[:, :width], axis=1)[:, kth].T
    table[:, order] = table.copy()
    return {k: table[kth.index(k - 1)] for k in ks}


def _near_order(X: np.ndarray, unit: int, part_rows: int) -> np.ndarray:
    """An order of the rows in which near rows tend to be close: the rows
    are halved, at a multiple of ``unit`` rows, along their feature of
    widest range until a part holds at most ``part_rows``, and each part is
    sorted (stably) along its own widest feature. One sort of all rows along
    one feature can leave most of them in a narrow band of it when a few far
    rows set its range; parts of a few seed spans keep a block's seeds in
    the block's part."""
    order, parts = [], [np.arange(X.shape[0])]
    while parts:
        part = parts.pop()
        rows = X[part]
        part = part[np.argsort(rows[:, np.ptp(rows, axis=0).argmax()], kind="stable")]
        if part.size <= part_rows:
            order.append(part)
        else:
            half = max(unit, part.size // 2 // unit * unit)
            parts += [part[half:], part[:half]]
    return np.concatenate(order)


@_unbuffered
def mutual_reachability_mst(X: np.ndarray, core: np.ndarray, kind: str) -> np.ndarray:
    """A minimum spanning tree of the implicit mutual reachability graph of
    the rows of ``X`` with their ``core`` distances: (n-1, 3) edges [a, b,
    weight]. Rows of the distance matrix are recomputed on the fly, so
    memory stays O(n) besides one block of ``BLOCK_ELEMENTS``.

    Prim's algorithm from point 0, adding a batch of points per step.
    Each step adds the point nearest the tree (argmin; ties go to the lowest
    index) and every other point whose distance to the tree has reached its
    own core distance, its floor; each gets the edge [source, point,
    distance] from a point already in the tree. No edge to b weighs less
    than core_b, so a floor edge is a lightest edge at its point and the
    argmin edge a lightest edge across the tree's cut: by the cut property
    the edges stay inside one MST. The merge tree, ``tree_labels`` and the
    components of ``dbscan.eps_cut`` are the same for every MST (see
    ``build_merge_tree``).

    The new batch then lowers the distance to the tree of each working
    column (a point not yet reached) to the least max(d, core_a) over the
    batch's points a, then the max with the column's own core_b, when that
    is strictly (<) less, in blocks of at most ``BLOCK_ELEMENTS`` distances.
    A column is skipped when the batch's box bound (``box_lower_bound``),
    its least core or core_b already reaches the column's distance, since no
    update could then lower it. The working columns drop the batch at each
    step.
    """
    XC = np.ascontiguousarray(X)
    n = core.size
    edges = np.empty((n - 1, 3), dtype=np.float64)
    cols = np.arange(1, n)  # the point of each working column, ascending
    XF = np.asfortranarray(XC[1:])
    live_core = core[1:]
    dist = np.full(n - 1, np.inf)
    source = np.zeros(n - 1, dtype=np.int64)
    batch, done = np.zeros(1, dtype=np.int64), 0
    while cols.size:
        points, batch_core = XC[batch], core[batch]
        floor = np.maximum(live_core, batch_core.min())
        np.maximum(floor, box_lower_bound(points.min(axis=0), points.max(axis=0), XF, kind),
                   out=floor)
        active = np.flatnonzero(floor < dist)
        best, src, active_core = dist[active], source[active], live_core[active]
        rows = _gather(XF, active)
        step = block_rows(active.size)
        for s in range(0, batch.size, step):
            d = point_to_rows(points[s:s + step], rows, kind)
            np.maximum(d, batch_core[s:s + step, None], out=d)
            reach = np.maximum(d.min(axis=0), active_core)
            better = np.flatnonzero(reach < best)
            best[better] = reach[better]
            src[better] = batch[s:s + step][d[:, better].argmin(axis=0)]
        dist[active], source[active] = best, src

        joined = dist <= live_core
        joined[dist.argmin()] = True
        new = np.flatnonzero(joined)
        batch = cols[new]
        edges[done:done + new.size] = np.column_stack([source[new], batch, dist[new]])
        done += new.size
        keep = np.flatnonzero(~joined)
        cols, live_core, dist, source = cols[keep], live_core[keep], dist[keep], source[keep]
        XF = _gather(XF, keep)
    return edges


def _gather(XF: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of a Fortran-ordered matrix, Fortran-ordered, in one
    copy (each feature gathered as one contiguous row)."""
    return XF.T.take(index, axis=1).T


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
    _, trees = spanning_trees(X, [k], kind)
    return tree_labels(trees[k], k)


def spanning_trees(X: np.ndarray, sizes,
                   kind: str) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """(core distances, spanning tree edges) of each size (1 <= size <= n),
    both keyed by size: one core-distance pass for all sizes, then one
    ``mutual_reachability_mst`` call per size."""
    core = core_distances(X, sizes, kind)
    return core, {k: mutual_reachability_mst(X, c, kind) for k, c in core.items()}


def tree_labels(edges: np.ndarray, min_cluster_size: int) -> np.ndarray:
    """Labels from one size's spanning tree: its merge tree, condensation
    and excess-of-mass selection."""
    n = edges.shape[0] + 1
    return select_clusters(*condense(*build_merge_tree(edges, n), min_cluster_size))

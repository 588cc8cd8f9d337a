"""Brute-force reference implementations used only by the test suite.

These are deliberately slow and structurally different from the library
code: scalar loops, explicit sets, recursion. They define what the fast
paths must reproduce. Every distance is ``ordered_distance``: scalar
arithmetic in the kernel's documented summation order, which
test_distances checks against ``point_to_rows`` bit for bit, so that exact
partition comparisons exercise the clustering logic, not 1-ulp float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workload_profiler import boosting


def _ordered_unit(v: list[float]) -> list[float] | None:
    """``v`` over its norm, the squares summed in ascending order; None for a
    zero vector."""
    sq = v[0] * v[0]
    for x in v[1:]:
        sq += x * x
    return [x / math.sqrt(sq) for x in v] if sq > 0 else None


def ordered_distance(a, b, kind: str) -> float:
    """Scalar distance in point_to_rows' documented summation order:
    manhattan adds |a_j - b_j| for ascending j; euclidean sums the squares of
    even and of odd features separately, each ascending, then adds the two;
    cosine is half that sum over the unit vectors, capped at 2, and 1 when
    either vector is zero."""
    a, b = [float(v) for v in a], [float(v) for v in b]
    if kind == "cosine":
        a, b = _ordered_unit(a), _ordered_unit(b)
        if a is None or b is None:
            return 1.0
    diffs = [p - q for p, q in zip(a, b)]
    if kind == "manhattan":
        total = abs(diffs[0])
        for d in diffs[1:]:
            total += abs(d)
        return total
    sums = []
    for start in (0, 1):
        part = diffs[start::2]
        if part:
            acc = part[0] * part[0]
            for d in part[1:]:
                acc += d * d
            sums.append(acc)
    total = sums[0] + sums[1] if len(sums) == 2 else sums[0]
    return min(0.5 * total, 2.0) if kind == "cosine" else math.sqrt(total)


def _dense_distances(X: np.ndarray, kind: str) -> list[list[float]]:
    """The full distance matrix, each pair computed once: ordered_distance
    is symmetric, as its differences only enter squared or absolute."""
    rows = X.tolist()
    D = [[0.0] * len(rows) for _ in rows]
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            D[i][j] = D[j][i] = ordered_distance(a, rows[j], kind)
    return D


def slow_prim_mst(X: np.ndarray, core: np.ndarray, kind: str) -> np.ndarray:
    """Prim's MST over mutual reachability with explicit in-tree masking;
    ties go to the lowest index. Returns (n-1, 3) edges [a, b, weight]."""
    n = X.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    dist_to_tree = np.full(n, np.inf)
    source = np.full(n, -1, dtype=np.int64)
    edges = np.empty((n - 1, 3), dtype=np.float64)
    rows = X.tolist()

    current = 0
    in_tree[0] = True
    for step in range(n - 1):
        row = np.maximum([ordered_distance(rows[current], r, kind) for r in rows], core)
        row = np.maximum(row, core[current])
        row[in_tree] = np.inf
        better = row < dist_to_tree
        dist_to_tree[better] = row[better]
        source[better] = current
        masked = np.where(in_tree, np.inf, dist_to_tree)
        nxt = int(np.argmin(masked))
        edges[step] = (source[nxt], nxt, dist_to_tree[nxt])
        in_tree[nxt] = True
        dist_to_tree[nxt] = np.inf
        current = nxt
    return edges


# ---------------------------------------------------------------- dbscan

def slow_dbscan(X: np.ndarray, eps: float, min_points: int, kind: str = "euclidean"):
    """Density-connectivity components plus the border tie rule: a border
    point joins the earliest-created adjacent cluster (creation order is
    ascending minimal core index)."""
    n = len(X)
    D = _dense_distances(X, kind)
    core = [sum(1 for j in range(n) if D[i][j] <= eps) >= min_points for i in range(n)]

    comp = [-1] * n
    comps: list[list[int]] = []
    for i in range(n):
        if not core[i] or comp[i] >= 0:
            continue
        stack = [i]
        comp[i] = len(comps)
        members = [i]
        while stack:
            u = stack.pop()
            for v in range(n):
                if core[v] and comp[v] < 0 and D[u][v] <= eps:
                    comp[v] = comp[i]
                    members.append(v)
                    stack.append(v)
        comps.append(members)

    rank = {ci: r for r, ci in enumerate(sorted(range(len(comps)), key=lambda c: min(comps[c])))}
    labels = [-1] * n
    for i in range(n):
        if core[i]:
            labels[i] = rank[comp[i]]
        else:
            adjacent = [rank[comp[j]] for j in range(n) if core[j] and D[i][j] <= eps]
            if adjacent:
                labels[i] = min(adjacent)
    return np.array(labels)


# ---------------------------------------------------------------- hdbscan

class _SlowCluster:
    def __init__(self, cid, parent, birth):
        self.cid = cid
        self.parent = parent
        self.birth = birth
        self.points: dict[int, float] = {}  # point -> fall-out lambda
        self.children: list[int] = []


def slow_hdbscan(X: np.ndarray, mcs: int, kind: str = "euclidean"):
    """Kruskal-style component evolution over the dense mutual reachability
    matrix, recursive condensation, per-point stability, recursive
    excess-of-mass selection. Components of equal weight merge together, so
    the tree is the canonical multi-way one."""
    n = len(X)
    D = _dense_distances(X, kind)
    core = [sorted(D[i])[mcs - 1] for i in range(n)]
    mrd = [[max(core[i], core[j], D[i][j]) for j in range(n)] for i in range(n)]

    # Trees are ("node", children_list, weight); leaves are ints. Components
    # merge level by level over the distinct pairwise weights.
    comp_of = list(range(n))  # point -> component id
    comp_points: dict[int, set[int]] = {i: {i} for i in range(n)}
    comp_tree: dict[int, object] = {i: i for i in range(n)}
    next_id = n

    pairs = sorted(
        ((mrd[i][j], i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda t: t[0],
    )
    k = 0
    while k < len(pairs):
        w = pairs[k][0]
        group = []
        while k < len(pairs) and pairs[k][0] == w:
            group.append(pairs[k])
            k += 1
        # all components linked by an edge of weight w merge simultaneously
        merged_from: dict[int, set[int]] = {}
        for _, i, j in group:
            ci, cj = comp_of[i], comp_of[j]
            if ci == cj:
                continue
            parts = merged_from.pop(ci, {ci}) | merged_from.pop(cj, {cj})
            new = next_id
            next_id += 1
            pts = set()
            for c in parts:
                pts |= comp_points[c]
            for p in pts:
                comp_of[p] = new
            comp_points[new] = pts
            merged_from[new] = parts
        for new, parts in merged_from.items():
            originals = sorted(parts - set(merged_from))  # pre-level components
            comp_tree[new] = ("node", [comp_tree[c] for c in originals], w)
            for c in originals:
                del comp_points[c], comp_tree[c]

    root_tree = comp_tree[comp_of[0]]

    def size(t):
        return 1 if isinstance(t, int) else sum(size(c) for c in t[1])

    def leaves(t):
        return [t] if isinstance(t, int) else [p for c in t[1] for p in leaves(c)]

    clusters: list[_SlowCluster] = [_SlowCluster(0, -1, 0.0)]

    def walk(t, cid):
        while True:
            _, kids, d = t
            lam = math.inf if d <= 0.0 else 1.0 / d
            big = [c for c in kids if size(c) >= mcs]
            for c in kids:
                if size(c) < mcs:
                    for p in leaves(c):
                        clusters[cid].points[p] = lam
            if len(big) >= 2:
                for child in big:
                    new = _SlowCluster(len(clusters), cid, lam)
                    clusters.append(new)
                    clusters[cid].children.append(new.cid)
                    walk(child, new.cid)
                return
            if not big:
                return
            t = big[0]

    walk(root_tree, 0)

    def points_under(cid) -> list[int]:
        out = list(clusters[cid].points)
        for k in clusters[cid].children:
            out.extend(points_under(k))
        return out

    def gap(lam, birth):
        if math.isinf(lam) and math.isinf(birth):
            return 0.0
        return lam - birth

    # Per-point stability: each point contributes until it leaves the cluster,
    # either by its own fall-out or by transferring into a child cluster.
    stability = {}
    for c in clusters:
        total = sum(gap(lam, c.birth) for lam in c.points.values())
        for k in c.children:
            total += gap(clusters[k].birth, c.birth) * len(points_under(k))
        stability[c.cid] = total

    def choose(cid):
        kids = clusters[cid].children
        if not kids:
            return stability[cid], {cid}
        child_val, child_set = 0.0, set()
        for k in kids:
            v, s = choose(k)
            child_val += v
            child_set |= s
        if child_val > stability[cid]:
            return child_val, child_set
        return stability[cid], {cid}

    if clusters[0].children:
        selected = set()
        for k in clusters[0].children:
            selected |= choose(k)[1]
    else:
        selected = {0}

    labels = np.full(n, -1, dtype=np.int64)
    for li, cid in enumerate(sorted(selected)):
        for p in points_under(cid):
            labels[p] = li
    return labels


# The tree steps as the library once ran them: a multi-way merge tree of
# child lists, a stack walk for condensation, per-point Python loops for
# stability and labels. slow_tree_labels must equal the array steps exactly,
# label numbers and dtype included.

@dataclass
class _MergeTree:
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


def _merge_tree(edges: np.ndarray, n: int) -> _MergeTree:
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
    return _MergeTree(children=children, dist=dists, size=sizes, n_points=n, root=root_node)


@dataclass
class _CondensedTree:
    """Merge tree condensed at min_cluster_size; cluster 0 is the root."""

    point_parent: np.ndarray   # cluster each point falls out of
    point_lambda: np.ndarray   # 1/distance at which it falls out
    cluster_parent: list[int]  # -1 for the root
    cluster_birth: list[float]
    cluster_size: list[int]
    cluster_children: list[list[int]]


def _condense(tree: _MergeTree, min_cluster_size: int) -> _CondensedTree:
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

    return _CondensedTree(
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


def _stability(ct: _CondensedTree) -> list[float]:
    """Total stability of each condensed cluster (excess-of-mass integrand)."""
    stab = [0.0] * len(ct.cluster_parent)
    for p in range(len(ct.point_parent)):
        c = int(ct.point_parent[p])
        stab[c] += _gap(float(ct.point_lambda[p]), ct.cluster_birth[c])
    for c in range(1, len(ct.cluster_parent)):
        parent = ct.cluster_parent[c]
        stab[parent] += _gap(ct.cluster_birth[c], ct.cluster_birth[parent]) * ct.cluster_size[c]
    return stab


def _select(ct: _CondensedTree, stability: list[float]) -> list[int]:
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


def _labels(ct: _CondensedTree, chosen: list[int], n: int) -> np.ndarray:
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


def slow_tree_labels(edges: np.ndarray, n: int, mcs: int) -> np.ndarray:
    """HDBSCAN labels of a spanning tree's edges at min_cluster_size mcs."""
    ct = _condense(_merge_tree(edges, n), mcs)
    return _labels(ct, _select(ct, _stability(ct)), n)


# ---------------------------------------------------------------- metrics

def slow_silhouette(X: np.ndarray, labels, kind="euclidean"):
    labels = np.asarray(labels)
    idx = [i for i in range(len(X)) if labels[i] >= 0]
    scores = []
    for i in idx:
        own = [j for j in idx if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(ordered_distance(X[i], X[j], kind) for j in own) / len(own)
        b = math.inf
        for c in set(labels[j] for j in idx if labels[j] != labels[i]):
            other = [j for j in idx if labels[j] == c]
            b = min(b, sum(ordered_distance(X[i], X[j], kind) for j in other) / len(other))
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return sum(scores) / len(scores)


def rowwise_silhouette(X: np.ndarray, labels, kind="euclidean", max_points=20_000, seed=0):
    """Mean silhouette with one distance row and one bincount per scored
    point, over the clustered rows of the uniform sample of max_points rows
    (all rows up to max_points) only, summed in row order: the bits the
    blocked, stacked silhouette_mean must reproduce."""
    labels = np.asarray(labels)
    if X.shape[0] > max_points:
        sel = np.sort(np.random.default_rng(seed).choice(X.shape[0], max_points, replace=False))
        X, labels = X[sel], labels[sel]
    X, lab = X[labels >= 0], labels[labels >= 0]
    if np.unique(lab).size < 2:
        return None
    uniq, dense = np.unique(lab, return_inverse=True)
    k = uniq.size
    counts = np.bincount(dense, minlength=k)
    D = _dense_distances(X, kind)
    total = 0.0
    for i in range(X.shape[0]):
        d = np.array(D[i])
        sums = np.bincount(dense, weights=d, minlength=k)
        c = dense[i]
        if counts[c] == 1:
            continue
        a = (sums[c] - d[i]) / (counts[c] - 1)
        b = float(np.where(np.arange(k) == c, np.inf, sums / counts).min())
        if max(a, b) > 0.0:
            total += (b - a) / max(a, b)
    return float(total / X.shape[0])


def slow_davies_bouldin(X: np.ndarray, labels, kind="euclidean"):
    labels = np.asarray(labels)
    classes = sorted(set(int(v) for v in labels if v >= 0))
    centroids, sigmas = [], []
    for c in classes:
        pts = X[labels == c]
        mu = pts.mean(axis=0)
        centroids.append(mu)
        sigmas.append(sum(ordered_distance(p, mu, kind) for p in pts) / len(pts))
    ratios = []
    for i in range(len(classes)):
        worst = 0.0
        for j in range(len(classes)):
            if i == j:
                continue
            sep = ordered_distance(centroids[i], centroids[j], kind)
            worst = max(worst, math.inf if sep == 0 else (sigmas[i] + sigmas[j]) / sep)
        ratios.append(worst)
    return sum(ratios) / len(ratios)


def slow_acquires(labels, n, optimal, sil, weights):
    labels = list(labels)
    outliers = sum(1 for v in labels if v == -1)
    actual = len(set(v for v in labels if v >= 0))
    o_score = 1 - outliers / n
    c_score = 0.0 if actual == 0 else 1 - abs(optimal - actual) / max(optimal, actual)
    return weights[0] * c_score + weights[1] * o_score + weights[2] * sil


def slow_class_report(predicted, actual):
    classes = sorted(set(predicted) | set(actual))
    out = {}
    for c in classes:
        tp = sum(1 for p, a in zip(predicted, actual) if p == c and a == c)
        fp = sum(1 for p, a in zip(predicted, actual) if p == c and a != c)
        fn = sum(1 for p, a in zip(predicted, actual) if p != c and a == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[c] = {"precision": prec, "recall": rec, "f1": f1, "support": tp + fn}
    accuracy = sum(1 for p, a in zip(predicted, actual) if p == a) / len(actual)
    return out, accuracy


def slow_percentile(values, p):
    """Linear interpolation between closest ranks, position (n-1) * p/100."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


# ---------------------------------------------------------------- helpers

def partition_of(labels):
    """(set of clusters as frozensets, noise set) for renaming-free compare."""
    clusters: dict[int, set[int]] = {}
    noise = set()
    for i, v in enumerate(labels):
        if v < 0:
            noise.add(i)
        else:
            clusters.setdefault(int(v), set()).add(i)
    return {frozenset(m) for m in clusters.values()}, noise


def same_partition(a, b) -> bool:
    return partition_of(a) == partition_of(b)


def slow_bucket(value: float, bounds) -> str:
    """Quartile label of one value: the first bound it does not exceed."""
    for label, bound in zip(("q1", "q2", "q3"), bounds):
        if value <= bound:
            return label
    return "q4"


def slow_forest_probabilities(model_json, metadata) -> dict:
    """Class probabilities of one record by walking model.json's nested trees.

    Numeric metadata is bucketized with the stored bounds and encoded by
    category lookup; each tree is walked from its root; leaf values add up in
    round order; the softmax is taken over the one score vector.
    """
    bounds = model_json.get("bucket_bounds") or {}
    vocab = model_json["vocabulary"]
    active = set()
    at = 0
    for f in vocab["feature_names"]:
        value = metadata[f]
        if f in bounds:
            try:
                value = slow_bucket(float(value), tuple(bounds[f]))
            except (TypeError, ValueError):
                pass
        cats = list(vocab["categories"][f])
        if str(value) in cats:
            active.add(at + cats.index(str(value)))
        at += len(cats)

    lr = model_json["hyperparams"]["learning_rate"]
    labels = model_json["class_labels"]
    raw = np.zeros(len(labels))
    for per_class in model_json["trees"]:
        for c, node in enumerate(per_class):
            while "feature" in node:
                node = node["present"] if node["feature"] in active else node["absent"]
            raw[c] += lr * node["value"]
    e = np.exp(raw - raw.max())
    return dict(zip(labels, e / e.sum()))


def slow_load_trace(path, schema, bucket_bounds=None) -> dict:
    """The row-at-a-time loader: csv.DictReader, one dict per accepted row.

    Returns ids, metadata and runtime dicts, timestamps, the dropped count
    and the bucket bounds as plain Python values, for ``==`` comparison.
    """
    import csv

    def parse_finite(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        declared = [c for c, r in schema.columns.items() if r != "ignore"]
        ts_col = schema.timestamp_column
        accepted, dropped = [], 0
        for row in reader:
            cells = {c: (row.get(c) or "").strip() for c in declared}
            if any(cells[c] == "" for c in declared):
                dropped += 1
                continue
            runtime = {c: parse_finite(cells[c]) for c in schema.runtime_columns}
            checked = [*runtime.values(), *(parse_finite(cells[c]) for c in schema.bucketize)]
            if ts_col is not None:
                checked.append(parse_finite(cells[ts_col]))
            if any(v is None for v in checked):
                dropped += 1
                continue
            accepted.append({
                "id": cells[schema.id_column],
                "metadata": {c: cells[c] for c in schema.metadata_columns},
                "runtime": runtime,
                "ts": int(float(cells[ts_col])) if ts_col else len(accepted),
            })
    bounds = {}
    for col in schema.bucketize:
        if bucket_bounds and col in bucket_bounds:
            bounds[col] = tuple(float(b) for b in bucket_bounds[col])
        else:
            values = np.asarray([float(r["metadata"][col]) for r in accepted])
            bounds[col] = tuple(float(q) for q in np.percentile(values, [25, 50, 75]))
        for r in accepted:
            r["metadata"][col] = slow_bucket(float(r["metadata"][col]), bounds[col])
    return {
        "ids": [r["id"] for r in accepted],
        "metadata": [r["metadata"] for r in accepted],
        "runtime_bits": [[np.float64(v).tobytes() for v in r["runtime"].values()] for r in accepted],
        "ts": [r["ts"] for r in accepted],
        "dropped": dropped,
        "bounds": bounds or None,
    }


def slow_trigger_scan(violated, outlier, times, last_updates, cfg, adopt):
    """The event-at-a-time feedback trigger loop: a deque window with
    front-only eviction, an outlier ledger, every group's freshness and the
    cooldown check, re-evaluated after each event enters.

    ``adopt(k)`` says whether the k-th fired trigger is adopted; an adoption
    clears the window and the outlier count and moves every group's last
    update to the firing event's time. Returns the fires as
    ``(index, sorted causes, window rate)`` and, per event, the window's
    ``(events, violations)`` after it entered.
    """
    from collections import deque

    window = deque()  # (violated, t), oldest first
    window_violations = outliers_seen = 0
    fires, counts = [], []
    last_fire = None
    for i, (v, o, t) in enumerate(zip(violated, outlier, times)):
        window.append((v, t))
        if v:
            window_violations += 1
        if o:
            outliers_seen += 1
        if cfg.window_mode == "events":
            while len(window) > cfg.window:
                window_violations -= window.popleft()[0]
        else:
            while window and window[0][1] <= t - cfg.window:
                window_violations -= window.popleft()[0]
        counts.append((len(window), window_violations))

        causes = set()
        rate = window_violations / len(window) if window else None
        if rate is not None and rate > cfg.tau_v:
            causes.add("violation")
        if min(math.exp(-cfg.decay * (max(t, lu) - lu)) for lu in last_updates) < cfg.tau_f:
            causes.add("freshness")
        if outliers_seen / (i + 1) > cfg.tau_o:
            causes.add("outlier")
        if not causes or (last_fire is not None and i - last_fire < cfg.cooldown):
            continue
        last_fire = i
        fires.append((i, sorted(causes), rate))
        if adopt(len(fires) - 1):
            window.clear()
            window_violations = outliers_seen = 0
            last_updates = [t] * len(last_updates)
    return fires, counts


def _slow_build_tree(rows_flat, cols_flat, g, h, dim, params, feature, value, gain_arr):
    """Tree growth with a Python loop per node and a row mask per leaf;
    returns the per-row predictions."""
    n = g.shape[0]
    pred = np.zeros(n, dtype=np.float64)

    node_of = np.zeros(n, dtype=np.int64)  # -1 once a row reaches a leaf
    level_nodes = np.array([0], dtype=np.int64)

    for depth in range(params.max_depth + 1):
        if level_nodes.size == 0:
            break
        base = level_nodes.min()
        width = int(level_nodes.max() - base + 1)

        live = node_of >= 0
        rel = np.full(n, -1, dtype=np.int64)
        rel[live] = node_of[live] - base

        G = np.bincount(rel[live], weights=g[live], minlength=width)
        H = np.bincount(rel[live], weights=h[live], minlength=width)

        live_entries = rel[rows_flat] >= 0
        rf = rows_flat[live_entries]
        cf = cols_flat[live_entries]
        keys = rel[rf] * dim + cf
        G1 = np.bincount(keys, weights=g[rf], minlength=width * dim).reshape(width, dim)
        H1 = np.bincount(keys, weights=h[rf], minlength=width * dim).reshape(width, dim)
        G0 = G[:, None] - G1
        H0 = H[:, None] - H1

        node_values = -G / (H + params.l2)
        for node in level_nodes:
            value[node] = node_values[node - base]

        if depth == params.max_depth:
            for node in level_nodes:
                sel = node_of == node
                pred[sel] = value[node]
                node_of[sel] = -1
            break

        l2 = params.l2
        score_parent = G**2 / (H + l2)
        gains = 0.5 * (G1**2 / (H1 + l2) + G0**2 / (H0 + l2) - score_parent[:, None])
        ok = (H1 >= params.min_child_weight) & (H0 >= params.min_child_weight)
        gains = np.where(ok, gains, -np.inf)

        next_nodes = []
        for node in level_nodes:
            r = node - base
            col = int(np.argmax(gains[r]))
            best_gain = gains[r, col]
            if not np.isfinite(best_gain) or best_gain <= boosting._MIN_GAIN:
                sel = node_of == node
                pred[sel] = value[node]
                node_of[sel] = -1
                continue
            feature[node] = col
            gain_arr[node] = best_gain
            next_nodes.extend((2 * node + 1, 2 * node + 2))

        if not next_nodes:
            break

        # Move surviving rows to a child: right iff the split column is active.
        live = node_of >= 0
        splitting = live & (feature[np.where(live, node_of, 0)] >= 0)
        goes_right = np.zeros(n, dtype=bool)
        entry_live = splitting[rows_flat]
        match = entry_live & (cols_flat == feature[np.where(splitting, node_of, 0)[rows_flat]])
        goes_right[rows_flat[match]] = True
        node_of[splitting] = 2 * node_of[splitting] + 1 + goes_right[splitting]
        level_nodes = np.unique(np.asarray(next_nodes, dtype=np.int64))

    return pred


def _slow_boost(rows, y, counts, n_classes, dim, params):
    """Softmax boosting over rows in the given order; a row's gradient and
    hessian are scaled by its count when ``counts`` is given."""
    n = len(rows)
    active = rows >= 0
    rows_flat = np.nonzero(active)[0]  # row-major: each row's columns in order
    cols_flat = rows[active]

    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0

    forest = boosting.Forest.empty(n_classes, dim, params)
    F = np.zeros((n, n_classes), dtype=np.float64)
    for r in range(params.rounds):
        P = boosting._softmax(F)
        for c in range(n_classes):
            g = P[:, c] - onehot[:, c]
            h = P[:, c] * (1.0 - P[:, c])
            if counts is not None:
                g = g * counts
                h = h * counts
            pred = _slow_build_tree(
                rows_flat, cols_flat, g, h, dim, params,
                forest.feature[r, c], forest.value[r, c], forest.gain[r, c],
            )
            F[:, c] += params.learning_rate * pred
    return forest


def slow_fit_forest(rows, labels, n_classes, dim, params):
    """Softmax boosting with per-node tree growth over each distinct
    (row, label) pair weighted by its count, as ``fit_forest`` must
    reproduce bit for bit; the split threshold is read from
    ``boosting._MIN_GAIN`` at call time."""
    pairs, counts = np.unique(
        np.column_stack([rows, np.asarray(labels, dtype=np.int64)]), axis=0, return_counts=True
    )  # lexicographic, as canonical_order sorts
    return _slow_boost(pairs[:, :-1], pairs[:, -1], counts.astype(np.float64),
                       n_classes, dim, params)


def slow_fit_forest_rows(rows, labels, n_classes, dim, params):
    """Softmax boosting with per-node tree growth over every row, unweighted:
    what ``fit_forest`` must reproduce bit for bit where no (row, label) pair
    repeats."""
    labels = np.asarray(labels, dtype=np.int64)
    order = boosting.canonical_order(rows, labels)
    return _slow_boost(rows[order], labels[order], None, n_classes, dim, params)

"""Gradient-boosted decision trees with a softmax objective, from scratch.

Inputs are sparse one-hot rows (each row's active column per feature), which makes
exact greedy split finding cheap: for every (tree node, column) pair the
gradient/hessian sums on the column's "present" side are accumulated with one
bincount pass, and the "absent" side follows by subtraction. Trees are grown
level-wise to max_depth with the usual second-order gain

    0.5 * (GL^2/(HL+l2) + GR^2/(HR+l2) - G^2/(H+l2))

and leaf weight -G/(H+l2). Training rows are sorted into a canonical order
first, so the fitted model is invariant to input row permutation. Equal
(row, label) pairs are then adjacent runs, and the trees grow on each run's
head alone, its gradient and hessian multiplied by the run's length (the
instance weights of XGBoost): every histogram, softmax and gradient is over
distinct pairs, and each round's softmax is computed into one reused
(distinct pairs, classes) buffer. Where every run has length 1 the bits are
those of a fit over every row; a longer run's one multiply can differ from
its rows' sequential adds in the last place.

Prediction routes each distinct encoded row once, ROUTE_BLOCK distinct rows at
a time, and takes the softmax of the distinct rows only: scoring memory is
distinct rows x classes plus a block x trees of routing, whatever the batch,
and a row's copies share its values through an inverse index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Forest.empty allocates rounds x classes x (2^(max_depth+1) - 1) nodes, and
# a level's split histograms hold up to 2^max_depth x dim floats.
MAX_DEPTH = 10


@dataclass(frozen=True)
class BoostingParams:
    rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    min_child_weight: float = 1.0
    l2: float = 1.0

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not 0 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must be in [0, {MAX_DEPTH}]")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be a finite number > 0")
        for name in ("min_child_weight", "l2"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0")
        if self.min_child_weight == 0.0 and self.l2 == 0.0:
            # a column absent from a node would score 0/0, and a NaN gain
            # wins argmax, so no node below the root could split
            raise ValueError("min_child_weight and l2 cannot both be 0")

    def forest_shape(self, n_classes: int) -> tuple[int, int, int]:
        """(rounds, classes, nodes per tree) of the forest these params grow."""
        return (self.rounds, n_classes, 2 ** (self.max_depth + 1) - 1)


DEFAULT_PARAMS = BoostingParams()

_MIN_GAIN = 1e-12  # a split must strictly reduce loss

ROUTE_BLOCK = 512  # rows routed together: routing memory stays block x trees
# Routing indexes the flattened node arrays with int32; with at most 2^30 nodes
# every index and every step between them stays below 2^31.
MAX_NODES = 2 ** 30


def canonical_order(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Permutation sorting rows by (one-hot columns, label), ties in input
    order: a stable, order-free presentation of the same training bag."""
    keys = [np.asarray(labels)] + [rows[:, j] for j in reversed(range(rows.shape[1]))]
    return np.lexsort(keys).astype(np.int64)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows in lexicographic order, each row's index into them)."""
    order = np.lexsort(rows.T)  # equal rows end up adjacent
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _softmax(F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax of F, into ``out`` when given; a row's values depend
    on that row alone."""
    z = np.subtract(F, F.max(axis=1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _build_tree(
    rows_flat: np.ndarray,
    cols_flat: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    dim: int,
    params: BoostingParams,
    feature: np.ndarray,
    value: np.ndarray,
    gain_arr: np.ndarray,
) -> np.ndarray:
    """Grow one regression tree into the given node arrays (views into the
    forest's), a level at a time; returns each row's leaf.

    A row at a leaf keeps its node, numbered below every node of a later
    level, so a level's rows are those numbered at or past its first node.
    """
    n = g.shape[0]
    l2 = params.l2
    node_of = np.zeros(n, dtype=np.int64)
    level = np.array([0], dtype=np.int64)  # this level's nodes, ascending

    for depth in range(params.max_depth + 1):
        base = level[0]
        width = int(level[-1] - base + 1)

        live = node_of >= base
        rel = node_of[live] - base
        G = np.bincount(rel, weights=g[live], minlength=width)
        H = np.bincount(rel, weights=h[live], minlength=width)
        value[level] = (-G / (H + l2))[level - base]
        if depth == params.max_depth:
            break

        entries = live[rows_flat]
        rf = rows_flat[entries]
        cf = cols_flat[entries]
        keys = (node_of[rf] - base) * dim + cf
        G1 = np.bincount(keys, weights=g[rf], minlength=width * dim).reshape(width, dim)
        H1 = np.bincount(keys, weights=h[rf], minlength=width * dim).reshape(width, dim)
        G0 = G[:, None] - G1
        H0 = H[:, None] - H1
        score_parent = G**2 / (H + l2)
        gains = 0.5 * (G1**2 / (H1 + l2) + G0**2 / (H0 + l2) - score_parent[:, None])
        ok = (H1 >= params.min_child_weight) & (H0 >= params.min_child_weight)
        gains = np.where(ok, gains, -np.inf)[level - base]

        col = gains.argmax(axis=1)  # the first maximum; a NaN counts as one
        best = gains[np.arange(level.size), col]
        split = np.isfinite(best) & (best > _MIN_GAIN)
        if not split.any():
            break
        parents = level[split]
        feature[parents] = col[split]
        gain_arr[parents] = best[split]

        # Rows of a split node move to a child: right iff the split column is active.
        column = feature[node_of]  # -1 at a leaf
        goes_right = np.zeros(n, dtype=bool)
        goes_right[rows_flat[cols_flat == column[rows_flat]]] = True
        node_of = np.where(column >= 0, 2 * node_of + 1 + goes_right, node_of)
        level = np.stack((2 * parents + 1, 2 * parents + 2), axis=1).ravel()

    return node_of


@dataclass
class Forest:
    """rounds x n_classes heap-layout trees stacked into (rounds, n_classes,
    nodes) arrays: the children of node i are 2i+1 (absent) and 2i+2 (present)."""

    feature: np.ndarray  # split column, -1 where leaf
    value: np.ndarray    # node weight -G/(H+l2); the prediction at leaves
    gain: np.ndarray     # split gain, 0 at leaves
    dim: int
    params: BoostingParams

    @classmethod
    def empty(cls, n_classes: int, dim: int, params: BoostingParams) -> "Forest":
        shape = params.forest_shape(n_classes)
        if math.prod(shape) >= MAX_NODES:  # checked before anything is allocated
            raise ValueError(f"a forest of {math.prod(shape)} nodes {shape} exceeds the "
                             f"{MAX_NODES - 1} that int32 routing indexes")
        return cls(
            feature=np.full(shape, -1, dtype=np.int32),
            value=np.zeros(shape, dtype=np.float64),
            gain=np.zeros(shape, dtype=np.float64),
            dim=dim,
            params=params,
        )

    def _route(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(leaf of every row in every tree as an int32 index into the
        flattened node arrays, (rows, trees); each tree's root index).

        Rows are encoded metadata, (n, features) one-hot columns with -1 for
        an unseen value. The batch descends all trees at once, one level per
        step: a row goes right where the split column is one of its columns.
        """
        feature = self.feature.reshape(-1)
        root = np.arange(0, feature.size, self.feature.shape[-1], dtype=np.int32)
        active = rows.astype(feature.dtype)  # compared without a cast per level
        at = np.repeat(root[None, :], len(rows), axis=0)
        step_base = 1 - root  # at + step_base is k + 1 for tree node k = at - root
        for _ in range(self.params.max_depth):
            split = feature.take(at)
            present = np.zeros(split.shape, dtype=bool)
            for j in range(active.shape[1]):  # in place: memory stays rows x trees
                present |= split == active[:, j, None]
            # Node k moves to its child root + 2k + 1 + present, a step of
            # k + 1 + present; a leaf (split -1) keeps its node. Multiplying the
            # step by the split flag selects without np.where's branches.
            at += (split >= 0) * (at + step_base + present)
        return at, root

    def leaves(self, rows: np.ndarray) -> np.ndarray:
        """Leaf node of every row in every tree, shape (rows, rounds, n_classes)."""
        at, root = self._route(rows)
        return (at - root).reshape(len(rows), *self.feature.shape[:2])

    def raw_scores(self, rows: np.ndarray) -> np.ndarray:
        """Summed leaf values, (rows, n_classes), of the rows as given, routed
        ROUTE_BLOCK at a time; ``distinct_probabilities`` passes only
        distinct rows."""
        n_classes = self.feature.shape[1]
        value = self.value.reshape(-1)
        F = np.zeros((len(rows), n_classes), dtype=np.float64)
        for start in range(0, len(rows), ROUTE_BLOCK):
            scores = F[start:start + ROUTE_BLOCK]  # a view: the adds land in F
            at, _ = self._route(rows[start:start + ROUTE_BLOCK])
            for r in range(0, at.shape[1], n_classes):  # round order keeps every bit
                scores += self.params.learning_rate * value.take(at[:, r:r + n_classes])
        return F

    def distinct_probabilities(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(class probabilities of each distinct row, (distinct, n_classes);
        each row's index into them): each distinct row is routed once."""
        distinct, inverse = distinct_rows(rows)
        return _softmax(self.raw_scores(distinct)), inverse

    def to_json(self) -> list[list[dict]]:
        """Nested per-tree dicts, rounds-major, as model.json stores them."""

        def node(r: int, c: int, i: int) -> dict:
            if self.feature[r, c, i] < 0:
                return {"value": float(self.value[r, c, i])}
            return {
                "feature": int(self.feature[r, c, i]),
                "value": float(self.value[r, c, i]),
                "gain": float(self.gain[r, c, i]),
                "absent": node(r, c, 2 * i + 1),
                "present": node(r, c, 2 * i + 2),
            }

        rounds, n_classes = self.feature.shape[:2]
        return [[node(r, c, 0) for c in range(n_classes)] for r in range(rounds)]

    @classmethod
    def from_json(
        cls, doc: Sequence[Sequence[Mapping]], n_classes: int, dim: int, params: BoostingParams
    ) -> "Forest":
        """The forest of ``to_json``'s nested dicts, each node array filled
        by one assignment from the flat node positions collected in a walk."""
        forest = cls.empty(n_classes, dim, params)
        nodes = forest.feature.shape[-1]
        value_at, values, split_at, features, gains = [], [], [], [], []

        def collect(root: int, node: Mapping, i: int) -> None:
            if i >= nodes:
                raise IndexError(f"a tree is deeper than max_depth {params.max_depth}")
            value_at.append(root + i)
            values.append(node["value"])
            if "feature" in node:
                split_at.append(root + i)
                features.append(node["feature"])
                gains.append(node["gain"])
                collect(root, node["absent"], 2 * i + 1)
                collect(root, node["present"], 2 * i + 2)

        for r, per_class in enumerate(doc):
            for c, tree in enumerate(per_class):
                if c >= n_classes:  # its flat position would be a tree of the next round
                    raise IndexError(f"round {r} has more than {n_classes} trees")
                collect((r * n_classes + c) * nodes, tree, 0)
        # a round past the forest's is a flat position past its end: an IndexError
        forest.value.reshape(-1)[value_at] = values
        forest.feature.reshape(-1)[split_at] = features
        forest.gain.reshape(-1)[split_at] = gains
        return forest


def fit_forest(
    rows: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    dim: int,
    params: BoostingParams = DEFAULT_PARAMS,
) -> Forest:
    """Boost softmax trees on encoded rows ((n, features) one-hot columns,
    -1 for none) with dense labels 0..K-1, once per distinct (row, label)
    pair weighted by its count."""
    labels = np.asarray(labels, dtype=np.int64)
    order = canonical_order(rows, labels)
    rows = rows[order]
    y = labels[order]
    # Equal (row, label) pairs are adjacent now: grow on each run's head,
    # its gradient and hessian scaled by the run's length.
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rows[1:] != rows[:-1]).any(axis=1) | (y[1:] != y[:-1])
    count = np.diff(np.flatnonzero(head), append=len(rows)).astype(np.float64)
    rows = rows[head]
    y = y[head]

    active = rows >= 0
    rows_flat = np.nonzero(active)[0]  # row-major: each row's columns in order
    cols_flat = rows[active]

    forest = Forest.empty(n_classes, dim, params)
    F = np.zeros((len(rows), n_classes), dtype=np.float64)
    P = np.empty_like(F)
    for r in range(params.rounds):
        _softmax(F, out=P)
        for c in range(n_classes):
            p = P[:, c]
            g = (p - (y == c)) * count  # the gradient against the one-hot label
            h = p * (1.0 - p) * count
            leaf = _build_tree(
                rows_flat, cols_flat, g, h, dim, params,
                forest.feature[r, c], forest.value[r, c], forest.gain[r, c],
            )
            F[:, c] += params.learning_rate * forest.value[r, c, leaf]
    return forest


def total_gain_by_column(forest: Forest) -> np.ndarray:
    gains = np.zeros(forest.dim, dtype=np.float64)
    split = forest.feature >= 0
    np.add.at(gains, forest.feature[split], forest.gain[split])
    return gains

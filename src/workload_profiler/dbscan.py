"""Flat DBSCAN (Ester et al., KDD 1996) as an eps-cut of the HDBSCAN tree.

Core point: at least ``min_points`` points (itself included) within eps,
that is a core distance at k = min_points of at most eps. Clusters are the
maximal density-connected sets of core points plus their border points,
numbered 0, 1, ... in order of their least core point (row order); a border
point within eps of several clusters joins the least-numbered one. So the
output is a pure function of the input rows; ``tests/oracles.py:slow_dbscan``
is the exact oracle.
"""

from __future__ import annotations

import numpy as np

from .distances import block_rows, point_to_rows
from .hdbscan import _nearest, spanning_trees
from .trace_model import matrix_rows


def dbscan(matrix, eps: float, min_points: int, kind: str = "euclidean") -> np.ndarray:
    """Label every row; -1 marks outliers. O(n^2) time, O(n) memory."""
    X = matrix_rows(matrix)
    n = X.shape[0]
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_points < 2:
        raise ValueError("min_points must be >= 2")
    if n < min_points:
        raise ValueError(f"need at least min_points={min_points} rows, got {n}")
    core, trees = spanning_trees(X, [min_points], kind)
    return eps_cut(X, core[min_points], trees[min_points], eps, kind)


def eps_cut(X: np.ndarray, core: np.ndarray, edges: np.ndarray, eps: float,
            kind: str) -> np.ndarray:
    """DBSCAN labels from the core distances at k = min_points and the edges
    [a, b, weight] of their mutual reachability tree. Only core points are
    within eps of anything by mutual reachability, and of each other by
    distance, so the tree's edges of weight <= eps join exactly each
    cluster's core points. The tree adds every point but the first once,
    from a point already in the tree (``hdbscan.mutual_reachability_mst``),
    so those edges are parent pointers, and pointer doubling finds each
    point's root. Which of several minimum spanning trees it is does not
    matter: their edges of weight <= eps join the same components."""
    n = X.shape[0]
    up = np.arange(n)
    cut = edges[edges[:, 2] <= eps].astype(np.int64)
    up[cut[:, 1]] = cut[:, 0]
    root = _nearest(up, up == np.arange(n))
    is_core = core <= eps
    labels = np.full(n, -1, dtype=np.int64)
    # core rows ascend, so each root's first occurrence is its least core point
    _, first, which = np.unique(root[is_core], return_index=True, return_inverse=True)
    labels[is_core] = np.argsort(np.argsort(first))[which]

    # A border row takes the least label among the core rows within eps.
    core_rows, core_labels = np.asfortranarray(X[is_core]), labels[is_core]
    non_core = np.flatnonzero(~is_core)
    step = block_rows(core_rows.shape[0])
    for start in range(0, non_core.size, step):
        block = non_core[start:start + step]
        near = point_to_rows(X[block], core_rows, kind) <= eps
        least = np.where(near, core_labels, n).min(axis=1, initial=n)
        labels[block] = np.where(least < n, least, -1)
    return labels

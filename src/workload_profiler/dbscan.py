"""Flat DBSCAN with classical semantics and a deterministic scan order.

Core point: at least ``min_points`` points (itself included) within eps.
Clusters are the maximal density-connected sets of core points plus their
border points. Clusters are numbered 0, 1, ... in order of their earliest
core point (row order), and a border point reachable from several clusters
belongs to the earliest-created one, which makes the output a pure function
of the input rows.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .distances import point_to_rows
from .trace_model import matrix_rows

_UNVISITED = -2
NOISE = -1


def dbscan(matrix, eps: float, min_points: int, kind: str = "euclidean") -> np.ndarray:
    """Label every row; -1 marks outliers. O(n^2) time, O(n) memory."""
    X = np.asfortranarray(matrix_rows(matrix))
    n = X.shape[0]
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_points < 2:
        raise ValueError("min_points must be >= 2")
    if n < min_points:
        raise ValueError(f"need at least min_points={min_points} rows, got {n}")

    def neighborhood(i: int) -> np.ndarray:
        return np.flatnonzero(point_to_rows(X[i], X, kind) <= eps)

    core = np.zeros(n, dtype=bool)
    for i in range(n):
        core[i] = neighborhood(i).size >= min_points

    labels = np.full(n, _UNVISITED, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        if not core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        seeds = deque(neighborhood(i).tolist())
        while seeds:
            j = seeds.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point claimed by this cluster
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster
            if core[j]:
                seeds.extend(neighborhood(j).tolist())
        cluster += 1
    return labels

"""Clustering- and classification-quality scores.

Outlier-labelled points (-1) are excluded from silhouette and Davies-Bouldin.
The composite clustering score is a plain weighted sum of three sub-scores
(cluster-count correctness, outlier reduction, mean silhouette) and is
reported unclamped, so it can be negative when cohesion is poor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import BLOCK_ELEMENTS, _unbuffered, point_to_rows
from .errors import DegenerateDataError
from .trace_model import matrix_rows

DEFAULT_SILHOUETTE_CAP = 20_000


def _triangle_blocks(n: int):
    """(start, end) of the pass's row blocks: block [s, e) is measured
    against the e columns up to its own end, at most BLOCK_ELEMENTS distances
    ((e - s) * e, one row at least), so blocks are taller near the start."""
    start = 0
    while start < n:
        rows = max(1, (math.isqrt(start * start + 4 * BLOCK_ELEMENTS) - start) // 2)
        yield start, min(start + rows, n)
        start += rows


class _ClusterSums:
    """One distinct labelling's distance sums over a pass: each pass row's
    dense cluster index (the spare bin k for rows it does not score) and
    sums[c, j], the sum of the distances from pass row j to the pass rows of
    cluster c, which gets its terms in ascending row order from 0."""

    def __init__(self, dense: np.ndarray, k: int):
        self.dense = dense
        self.k = k
        self.sums = np.empty((k + 1, dense.size))

    def add_block(self, start: int, d: np.ndarray) -> None:
        """Take block [start, end) of distance rows d = D[start:end, :end].

        One flattened bincount over the block's columns starts its rows'
        sums (row r owns bins r * (k + 1) .. r * (k + 1) + k); then each
        block row, in ascending order, is added as a column to every earlier
        row's sum for its cluster, which are the terms those sums get next,
        as D is exactly symmetric."""
        m, end = d.shape
        bins = self.dense[:end] + (self.k + 1) * np.arange(m)[:, None]
        self.sums[:, start:end] = np.bincount(
            bins.ravel(), weights=d.ravel(), minlength=m * (self.k + 1)
        ).reshape(m, self.k + 1).T
        for r, c in enumerate(self.dense[start:end].tolist()):
            if c < self.k:
                self.sums[c, :start] += d[r, :start]

    def mean(self, self_distance: np.ndarray) -> float:
        """Mean coefficient over the scored rows; a singleton scores 0."""
        rows = np.flatnonzero(self.dense < self.k)
        c = self.dense[rows]
        counts = np.bincount(c, minlength=self.k)
        size = counts[c]
        r = np.arange(rows.size)
        means = self.sums[:self.k, rows]
        a = (means[c, r] - self_distance[rows]) / np.maximum(size - 1, 1)
        means /= counts[:, None]
        means[c, r] = np.inf
        b = means.min(axis=0)
        denom = np.maximum(a, b)
        adds = (size > 1) & (denom > 0.0)
        value = np.divide(b - a, denom, out=np.zeros(rows.size), where=adds)
        total = 0.0
        for v in value[adds].tolist():  # ascending rows, in order
            total += v
        return float(total / rows.size)


@_unbuffered
def _silhouette_pass(
    X: np.ndarray, labellings: np.ndarray, scored: np.ndarray, kind: str
) -> list[float | None]:
    """Mean of each labelling over its clustered rows among ``scored``, None
    where fewer than 2 clusters remain, from one pass over the lower triangle
    of the distances among the union of the rows scored, each pair measured
    once. Every (row, cluster) sum adds its terms in ascending column order
    from 0, as a bincount over the whole distance row would, so each value
    has the bits of a pass of its own. Labellings with the same dense
    clusters on the pass rows share one table of sums."""
    picks = [scored[lab[scored] >= 0] for lab in labellings]
    defined = [t for t, idx in enumerate(picks) if np.unique(labellings[t][idx]).size >= 2]
    if not defined:
        return [None] * len(labellings)
    cols = np.unique(np.concatenate([picks[t] for t in defined]))
    tables: dict[tuple[int, bytes], _ClusterSums] = {}
    keys = {}
    for t in defined:
        uniq, members = np.unique(labellings[t][picks[t]], return_inverse=True)
        dense = np.full(cols.size, uniq.size, dtype=np.int64)
        dense[np.searchsorted(cols, picks[t])] = members
        keys[t] = (uniq.size, dense.tobytes())
        if keys[t] not in tables:
            tables[keys[t]] = _ClusterSums(dense, uniq.size)
    XF = np.asfortranarray(X[cols])
    self_distance = np.empty(cols.size)
    for start, end in _triangle_blocks(cols.size):
        d = point_to_rows(XF[start:end], XF[:end], kind)
        r = np.arange(end - start)
        self_distance[start:end] = d[r, start + r]
        for table in tables.values():
            table.add_block(start, d)
    means = {key: table.mean(self_distance) for key, table in tables.items()}
    return [means[keys[t]] if t in keys else None for t in range(len(labellings))]


def silhouette_mean(
    matrix,
    labels,
    kind: str = "euclidean",
    max_points: int = DEFAULT_SILHOUETTE_CAP,
    seed: int = 0,
) -> float | list[float | None]:
    """Mean silhouette coefficient over non-outlier points.

    The scored rows are all n rows of the matrix up to ``max_points``;
    beyond that, one uniform sample of ``max_points`` rows drawn with
    ``seed`` whatever the labels, so it depends only on (n, max_points,
    seed). Each labelling is scored exactly on its clustered rows among them,
    O(m^2) for m scored rows: a cluster's size, its means and the average are
    taken within the scored rows, so a cluster with one scored member is a
    singleton there. Singleton-cluster points score 0 by convention.

    ``labels`` is one labelling, giving a float (DegenerateDataError with
    fewer than 2 clusters among the scored rows), or a (K, n) stack, giving a
    list of K values with None where the labelling alone would raise. All
    labellings share one pass that measures each pair of the union of their
    scored rows once, about m(m+1)/2 distances, with one bincount per
    distinct labelling and block of rows and one in-place add per row; each
    value equals its labelling's own call.
    """
    X = matrix_rows(matrix)
    stack = np.asarray(labels)
    n = stack.shape[-1]
    scored = np.arange(n)
    if n > max_points:
        scored = np.sort(np.random.default_rng(seed).choice(n, max_points, replace=False))
    means = _silhouette_pass(X, np.atleast_2d(stack), scored, kind)
    if stack.ndim == 2:
        return means
    if means[0] is None:
        raise DegenerateDataError("silhouette needs at least 2 clusters after outlier exclusion")
    return means[0]


def davies_bouldin(matrix, labels, kind: str = "euclidean") -> float:
    """Davies-Bouldin index; lower is better, +inf flags coincident centroids."""
    lab = np.asarray(labels)
    keep = lab >= 0
    X, lab = matrix_rows(matrix)[keep], lab[keep]
    uniq = np.unique(lab)
    if uniq.size < 2:
        raise DegenerateDataError("davies_bouldin needs at least 2 clusters")
    centroids = np.stack([X[lab == c].mean(axis=0) for c in uniq])
    sigma = np.array(
        [point_to_rows(centroids[i], X[lab == c], kind).mean() for i, c in enumerate(uniq)]
    )
    sep = point_to_rows(centroids, centroids, kind)
    ratio = np.divide(sigma[:, None] + sigma, sep, out=np.full_like(sep, np.inf), where=sep != 0)
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max(axis=1).mean())


@dataclass(frozen=True)
class AcquiresScore:
    """Composite clustering quality: weighted sum of three sub-scores."""

    cluster_count_score: float
    outliers_score: float
    silhouette_score_mean: float
    weights: tuple[float, float, float]
    total: float


EQUAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def check_acquires_params(
    optimal_cluster_count: int, weights: tuple[float, float, float]
) -> tuple[float, float, float]:
    """The weights as floats, after checking them and the expected cluster count."""
    if optimal_cluster_count < 1:
        raise ValueError("optimal_cluster_count must be >= 1")
    w = tuple(float(x) for x in weights)
    if len(w) != 3 or any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be three nonnegative reals summing to 1")
    return w


def acquires(
    labels,
    n: int,
    optimal_cluster_count: int,
    silhouette_mean_value: float,
    weights: tuple[float, float, float] = EQUAL_WEIGHTS,
) -> AcquiresScore:
    """Score a clustering against an expected cluster count.

    outliers_score      = 1 - |O| / n
    cluster_count_score = 1 - |optimal - actual| / max(optimal, actual)
    total               = w1 * count + w2 * outliers + w3 * silhouette
    An actual count of 0 scores 0 on the count term (failed clustering).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = check_acquires_params(optimal_cluster_count, weights)
    lab = np.asarray(labels)
    n_outliers = int(np.sum(lab == -1))
    actual = int(np.unique(lab[lab >= 0]).size)
    outliers_score = 1.0 - n_outliers / n
    if actual == 0:
        count_score = 0.0
    else:
        count_score = 1.0 - abs(optimal_cluster_count - actual) / max(
            optimal_cluster_count, actual
        )
    total = w[0] * count_score + w[1] * outliers_score + w[2] * silhouette_mean_value
    return AcquiresScore(
        cluster_count_score=count_score,
        outliers_score=outliers_score,
        silhouette_score_mean=silhouette_mean_value,
        weights=w,
        total=total,
    )


@dataclass(frozen=True)
class ClassReport:
    """Per-class precision/recall/F1 plus accuracy and the two averages."""

    per_class: dict[int, dict[str, float]]
    accuracy: float
    macro_avg: dict[str, float]
    weighted_avg: dict[str, float]


def class_report(predicted: Sequence[int], actual: Sequence[int]) -> ClassReport:
    """One-vs-rest classification report; zero denominators score 0."""
    pred = np.asarray(predicted)
    act = np.asarray(actual)
    if pred.size == 0 or pred.shape != act.shape:
        raise ValueError("predicted and actual must be equal-length, nonempty")
    classes = sorted(set(pred.tolist()) | set(act.tolist()))
    per_class: dict[int, dict[str, float]] = {}
    for c in classes:
        tp = int(np.sum((pred == c) & (act == c)))
        fp = int(np.sum((pred == c) & (act != c)))
        fn = int(np.sum((pred != c) & (act == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[int(c)] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": float(tp + fn),
        }
    supports = np.array([per_class[c]["support"] for c in per_class])
    macro = {
        m: float(np.mean([per_class[c][m] for c in per_class]))
        for m in ("precision", "recall", "f1")
    }
    wtotal = supports.sum()
    weighted = {
        m: float(
            np.sum([per_class[c][m] * per_class[c]["support"] for c in per_class]) / wtotal
        )
        if wtotal
        else 0.0
        for m in ("precision", "recall", "f1")
    }
    return ClassReport(
        per_class=per_class,
        accuracy=float(np.mean(pred == act)),
        macro_avg=macro,
        weighted_avg=weighted,
    )

"""Clustering- and classification-quality scores.

Outlier-labelled points (-1) are excluded from silhouette and Davies-Bouldin.
The composite clustering score is a plain weighted sum of three sub-scores
(cluster-count correctness, outlier reduction, mean silhouette) and is
reported unclamped, so it can be negative when cohesion is poor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import block_rows, point_to_rows
from .errors import DegenerateDataError
from .trace_model import matrix_rows

DEFAULT_SILHOUETTE_CAP = 20_000


class _Scoring:
    """One labelling's silhouette within a pass over the union of the rows its
    pass scores: each pass row's dense cluster index (the spare bin k for rows
    this labelling does not score) and each scored row's coefficient."""

    def __init__(self, lab: np.ndarray, idx: np.ndarray, cols: np.ndarray, block: int):
        uniq, dense = np.unique(lab[idx], return_inverse=True)
        self.size = idx.size
        self.k = uniq.size
        self.counts = np.bincount(dense, minlength=self.k)
        self.dense = np.full(cols.size, self.k, dtype=np.int64)
        self.dense[np.searchsorted(cols, idx)] = dense
        self.member = self.dense < self.k
        # Bins of a block's flattened bincount: row r of the block owns
        # bins r * (k + 1) .. r * (k + 1) + k.
        self.bins = self.dense + (self.k + 1) * np.arange(min(block, cols.size))[:, None]
        self.value = np.zeros(cols.size)
        self.adds = np.zeros(cols.size, dtype=bool)  # rows that add a term

    def add_block(self, rows: np.ndarray, d: np.ndarray) -> None:
        """Coefficients of ``rows`` (scored pass rows) from their distance rows."""
        m, k = rows.size, self.k
        sums = np.bincount(
            self.bins[:m].ravel(), weights=d.ravel(), minlength=m * (k + 1)
        ).reshape(m, k + 1)
        r = np.arange(m)
        c = self.dense[rows]
        size = self.counts[c]
        a = (sums[r, c] - d[r, rows]) / np.maximum(size - 1, 1)
        means = sums[:, :k] / self.counts
        means[r, c] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        adds = (size > 1) & (denom > 0.0)  # a singleton scores 0
        self.value[rows] = np.divide(b - a, denom, out=np.zeros(m), where=adds)
        self.adds[rows] = adds

    def mean(self) -> float:
        total = 0.0
        for v in self.value[self.adds].tolist():  # ascending rows, in order
            total += v
        return float(total / self.size)


def _silhouette_pass(
    X: np.ndarray, labellings: np.ndarray, scored: np.ndarray, kind: str
) -> list[float | None]:
    """Mean of each labelling over its clustered rows among ``scored``, None
    where fewer than 2 clusters remain, from one pass over blocks of distance
    rows restricted to the union of the rows scored. bincount adds in index
    order, so each sum has the bits of a pass of its own."""
    picks = [scored[lab[scored] >= 0] for lab in labellings]
    defined = [t for t, idx in enumerate(picks) if np.unique(labellings[t][idx]).size >= 2]
    if not defined:
        return [None] * len(labellings)
    cols = np.unique(np.concatenate([picks[t] for t in defined]))
    XF = np.asfortranarray(X[cols])
    block = block_rows(cols.size)
    scorings = {t: _Scoring(labellings[t], picks[t], cols, block) for t in defined}
    for start in range(0, cols.size, block):
        rows = np.arange(start, min(start + block, cols.size))
        d = point_to_rows(XF[start:start + block], XF, kind)
        for s in scorings.values():
            hit = s.member[rows]
            if hit.all():
                s.add_block(rows, d)
            elif hit.any():
                s.add_block(rows[hit], d[hit])
    return [scorings[t].mean() if t in scorings else None for t in range(len(labellings))]


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
    labellings share one pass over blocks of distance rows, and each value
    equals its labelling's own call.
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

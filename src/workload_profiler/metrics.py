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

from .distances import distance, point_to_rows
from .errors import DegenerateDataError
from .preprocess import proportional_allocation
from .trace_model import matrix_rows

DEFAULT_SILHOUETTE_CAP = 20_000


def _clustered_subset(X: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    keep = labels >= 0
    return X[keep], labels[keep]


def silhouette_mean(
    matrix,
    labels,
    kind: str = "euclidean",
    max_points: int = DEFAULT_SILHOUETTE_CAP,
    seed: int = 0,
) -> float:
    """Mean silhouette coefficient over non-outlier points.

    Exact O(n^2) computation up to ``max_points`` clustered points; beyond
    that a proportional per-cluster subsample (fixed seed) is scored instead.
    Singleton-cluster points score 0 by convention.
    """
    X, lab = _clustered_subset(matrix_rows(matrix), np.asarray(labels))
    uniq = np.unique(lab)
    if uniq.size < 2:
        raise DegenerateDataError("silhouette needs at least 2 clusters after outlier exclusion")

    if X.shape[0] > max_points:
        sizes = {str(c): int(np.sum(lab == c)) for c in uniq}
        alloc = proportional_allocation(sizes, max_points)
        rng = np.random.default_rng(seed)
        picked: list[np.ndarray] = []
        for c in uniq:
            idx = np.flatnonzero(lab == c)
            take = alloc[str(c)]
            picked.append(idx[rng.choice(idx.size, size=take, replace=False)])
        sel = np.sort(np.concatenate(picked))
        X, lab = X[sel], lab[sel]

    X = np.asfortranarray(X)
    # Compact labels to 0..k-1 for bincount aggregation.
    uniq, dense = np.unique(lab, return_inverse=True)
    k = uniq.size
    counts = np.bincount(dense, minlength=k)
    total = 0.0
    for i in range(X.shape[0]):
        d = point_to_rows(X[i], X, kind)
        sums = np.bincount(dense, weights=d, minlength=k)
        c = dense[i]
        if counts[c] == 1:
            continue  # singleton scores 0
        a = (sums[c] - d[i]) / (counts[c] - 1)
        others = np.where(np.arange(k) == c, np.inf, sums / counts)
        b = float(others.min())
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return float(total / X.shape[0])


def davies_bouldin(matrix, labels, kind: str = "euclidean") -> float:
    """Davies-Bouldin index; lower is better, +inf flags coincident centroids."""
    X, lab = _clustered_subset(matrix_rows(matrix), np.asarray(labels))
    uniq = np.unique(lab)
    if uniq.size < 2:
        raise DegenerateDataError("davies_bouldin needs at least 2 clusters")
    centroids = np.stack([X[lab == c].mean(axis=0) for c in uniq])
    sigma = np.array(
        [point_to_rows(centroids[i], X[lab == c], kind).mean() for i, c in enumerate(uniq)]
    )
    k = uniq.size
    worst = np.zeros(k)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            sep = distance(centroids[i], centroids[j], kind)
            ratio = np.inf if sep == 0.0 else (sigma[i] + sigma[j]) / sep
            worst[i] = max(worst[i], ratio)
    return float(worst.mean())


@dataclass(frozen=True)
class AcquiresScore:
    """Composite clustering quality: weighted sum of three sub-scores."""

    cluster_count_score: float
    outliers_score: float
    silhouette_score_mean: float
    weights: tuple[float, float, float]
    total: float

    def to_json(self) -> dict:
        return {
            "cluster_count_score": self.cluster_count_score,
            "outliers_score": self.outliers_score,
            "silhouette_score_mean": self.silhouette_score_mean,
            "weights": list(self.weights),
            "total": self.total,
        }


EQUAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


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
    if optimal_cluster_count < 1:
        raise ValueError("optimal_cluster_count must be >= 1")
    w = tuple(float(x) for x in weights)
    if len(w) != 3 or any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be three nonnegative reals summing to 1")
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

    def to_json(self) -> dict:
        return {
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "accuracy": self.accuracy,
            "macro_avg": self.macro_avg,
            "weighted_avg": self.weighted_avg,
        }


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

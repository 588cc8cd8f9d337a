"""Profile groups: per-cluster statistics, representatives, and persistence.

Statistics are computed over raw (untransformed) runtime values so that
predictions come out in native units; centroids and medoids live in the
transformed space used for clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .distances import DISTANCE_KINDS, _unbuffered, block_rows, point_to_rows
from .errors import EmptyProfileSetError, UndefinedSkewnessError
from .preprocess import TRANSFORM_KINDS, TransformSpec, apply_transform, skewness
from .trace_model import Dataset, FeatureMatrix, runtime_matrix

DEFAULT_PERCENTILES = (5.0, 25.0, 50.0, 75.0, 95.0)


@dataclass(frozen=True)
class ClusteringConfig:
    """One generator configuration: algorithm plus its knobs."""

    algorithm: str  # "dbscan" | "hdbscan"
    transform: str
    distance: str
    min_points: int
    eps: float | None = None  # required for dbscan
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("dbscan", "hdbscan"):
            raise ValueError(f"unknown clustering algorithm {self.algorithm!r}")
        if self.transform not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.transform!r}")
        if self.distance not in DISTANCE_KINDS:
            raise ValueError(f"unknown distance kind {self.distance!r}")
        if self.min_points < 2:
            raise ValueError("min_points must be >= 2")
        if self.algorithm == "dbscan" and not (self.eps is not None and math.isfinite(self.eps)
                                               and self.eps > 0):
            raise ValueError(f"dbscan requires a finite eps > 0, got {self.eps!r}")


def stored_percentile(percentiles: Iterable[float], q: float) -> float | None:
    """The first stored percentile that quantile q names (q * 100 rounded to
    6 places, within 1e-9), or None."""
    key = round(q * 100.0, 6)
    return next((p for p in percentiles if abs(p - key) < 1e-9), None)


@dataclass(frozen=True)
class FeatureStats:
    """Summary of one runtime feature over a profile's members."""

    percentiles: dict[float, float]
    mean: float
    median: float
    std: float
    skewness: float | None

    def quantile(self, q: float) -> float:
        p = stored_percentile(self.percentiles, q)
        if p is None:
            raise KeyError(f"quantile {q} not among stored percentiles {sorted(self.percentiles)}")
        return self.percentiles[p]


@dataclass(frozen=True)
class ProfileGroup:
    label: int
    size: int
    centroid: np.ndarray  # transformed space
    medoid_id: str | None
    stats: dict[str, FeatureStats]  # raw units, keyed by runtime feature
    metadata_bag: dict[str, dict[str, int]]
    last_update: int
    member_ids: tuple[str, ...] | None = field(default=None, metadata={"omit": True})


@dataclass
class ProfileSet:
    """A full clustering result plus the configuration that produced it."""

    groups: tuple[ProfileGroup, ...]
    outlier_ids: tuple[str, ...] | None  # None once written without members
    config: ClusteringConfig
    transform_spec: TransformSpec
    distance_threshold: float
    created_at: int
    n_outliers: int = field(metadata={"key": "outlier_count"})  # kept without outlier_ids
    quality: float | None = None  # composite score at build time

    def group(self, label: int) -> ProfileGroup:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(f"no profile group with label {label}")

    def labels(self) -> list[int]:
        return [g.label for g in self.groups]

    def _centroid_distances(self, matrix: FeatureMatrix) -> np.ndarray:
        """(groups, records) distances, in the transformed space, from each
        centroid to raw runtime rows; the matrix columns are taken by name."""
        names = self.transform_spec.feature_names
        columns = [matrix.feature_names.index(f) for f in names]
        raw = FeatureMatrix(rows=matrix.rows[:, columns], feature_names=names)
        rows = np.asfortranarray(apply_transform(self.transform_spec, raw).rows)
        centroids = np.stack([g.centroid for g in self.groups])
        return point_to_rows(centroids, rows, self.config.distance)

    def outlier_flags(self, matrix: FeatureMatrix) -> np.ndarray:
        """Post-hoc outlier rule for new arrivals, one flag per raw runtime
        row: beyond tau of every centroid."""
        return self._centroid_distances(matrix).min(axis=0) > self.distance_threshold

    def without_members(self) -> "ProfileSet":
        """The set as written without members: no group holds member ids,
        the outlier ids are None and the outlier count stays."""
        return replace(self, outlier_ids=None,
                       groups=tuple(replace(g, member_ids=None) for g in self.groups))


def _feature_stats(values: np.ndarray, percentiles: Sequence[float]) -> FeatureStats:
    pcts = np.percentile(values, list(percentiles))  # linear interpolation
    try:
        skew = skewness(values)
    except UndefinedSkewnessError:
        skew = None
    return FeatureStats(
        percentiles={float(p): float(v) for p, v in zip(percentiles, pcts)},
        mean=float(values.mean()),
        median=float(np.median(values)),
        std=float(values.std()),
        skewness=skew,
    )


@_unbuffered
def _medoid_index(rows: np.ndarray, kind: str) -> int:
    """First row with the least distance sum. Row sums of a C-contiguous
    block have the bits of one row's sum, so blocks keep the same medoid."""
    rows = np.asfortranarray(rows)
    n = rows.shape[0]
    step = block_rows(n)
    sums = np.empty(n)
    for start in range(0, n, step):
        sums[start:start + step] = point_to_rows(rows[start:start + step], rows, kind).sum(axis=1)
    return int(np.argmin(sums))


def build_profiles(
    dataset: Dataset,
    labels,
    config: ClusteringConfig,
    spec: TransformSpec,
    now: int,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> ProfileSet:
    """Assemble one ProfileGroup per non-negative label.

    ``labels`` must align with dataset row order. The post-hoc outlier
    threshold tau is the 95th percentile of member-to-centroid distances
    pooled across all groups.
    """
    lab = np.asarray(labels)
    if lab.shape[0] != len(dataset):
        raise ValueError("labels are not aligned with the dataset")
    if not np.any(lab >= 0):
        raise EmptyProfileSetError("every workload was labelled an outlier")

    raw_matrix = runtime_matrix(dataset)
    T = apply_transform(spec, raw_matrix).rows
    raw = raw_matrix.rows
    ids = dataset.ids
    metadata = dataset.metadata

    groups: list[ProfileGroup] = []
    centroid_dists: list[np.ndarray] = []
    for label in sorted(int(v) for v in np.unique(lab[lab >= 0])):
        idx = np.flatnonzero(lab == label)
        member_rows = T[idx]
        centroid = member_rows.mean(axis=0)
        medoid_local = _medoid_index(member_rows, config.distance)
        stats = {
            f: _feature_stats(raw[idx, j], percentiles)
            for j, f in enumerate(dataset.schema_runtime)
        }
        bag = {f: metadata.counts(j, idx) for j, f in enumerate(metadata.names)}
        groups.append(
            ProfileGroup(
                label=label,
                size=int(idx.size),
                centroid=centroid,
                medoid_id=ids[idx[medoid_local]],
                stats=stats,
                metadata_bag=bag,
                last_update=now,
                member_ids=tuple(ids[idx].tolist()),
            )
        )
        centroid_dists.append(point_to_rows(centroid, member_rows, config.distance))

    tau = float(np.percentile(np.concatenate(centroid_dists), 95))
    outliers = tuple(ids[lab == -1].tolist())
    return ProfileSet(
        groups=tuple(groups),
        outlier_ids=outliers,
        n_outliers=len(outliers),
        config=config,
        transform_spec=spec,
        distance_threshold=tau,
        created_at=now,
    )

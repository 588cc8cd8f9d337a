"""Grid search over profile-generator configurations, scored by the
composite clustering metric."""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dbscan import dbscan
from .errors import DegenerateDataError, NoViableConfigError
from .hdbscan import hdbscan
from .metrics import EQUAL_WEIGHTS, acquires, davies_bouldin, silhouette_mean
from .metrics import DEFAULT_SILHOUETTE_CAP
from .preprocess import fit_transform
from .profiles import ClusteringConfig, ProfileSet, build_profiles
from .trace_model import Dataset, runtime_matrix

# The module, not the function of the same name that the package exports:
# core distances are looked up on it at call time.
_hdbscan_module = importlib.import_module(".hdbscan", __package__)

# Paper-style default search range for the minimum cluster size.
DEFAULT_MIN_POINTS = (50, 100, 200, 300, 400, 600, 1000)


@dataclass(frozen=True)
class GridSpec:
    algorithms: tuple[str, ...] = ("hdbscan",)
    transforms: tuple[str, ...] = ("standard", "minmax", "robust", "power")
    distances: tuple[str, ...] = ("euclidean", "manhattan")
    min_points: tuple[int, ...] = DEFAULT_MIN_POINTS
    eps: tuple[float, ...] = ()  # only consumed by dbscan combinations

    def __post_init__(self):
        from .distances import DISTANCE_KINDS
        from .preprocess import TRANSFORM_KINDS

        if not (self.algorithms and self.transforms and self.distances and self.min_points):
            raise ValueError("grid axes must be nonempty")
        for algorithm in self.algorithms:
            if algorithm == "optics":
                raise NotImplementedError(
                    "OPTICS is a documented extension point; use hdbscan or dbscan"
                )
            if algorithm not in ("hdbscan", "dbscan"):
                raise ValueError(f"unknown clustering algorithm {algorithm!r}")
        for transform in self.transforms:
            if transform not in TRANSFORM_KINDS:
                raise ValueError(f"unknown transform kind {transform!r}")
        for dist in self.distances:
            if dist not in DISTANCE_KINDS:
                raise ValueError(f"unknown distance kind {dist!r}")
        if "dbscan" in self.algorithms and not self.eps:
            raise ValueError("dbscan combinations require at least one eps value")

    @classmethod
    def from_json(cls, doc: Mapping) -> "GridSpec":
        kwargs = {}
        for key in ("algorithms", "transforms", "distances", "min_points", "eps"):
            if key in doc:
                kwargs[key] = tuple(doc[key])
        return cls(**kwargs)

    def combinations(self) -> list[ClusteringConfig]:
        combos: list[ClusteringConfig] = []
        for algorithm in self.algorithms:
            for transform in self.transforms:
                for dist in self.distances:
                    for mp in self.min_points:
                        if algorithm == "dbscan":
                            for eps in self.eps:
                                combos.append(
                                    ClusteringConfig(algorithm, transform, dist, mp, eps=eps)
                                )
                        else:
                            combos.append(ClusteringConfig(algorithm, transform, dist, mp))
        return combos


@dataclass
class GridRow:
    """One evaluated combination of the search."""

    config: ClusteringConfig
    n_clusters: int = 0
    n_outliers: int = 0
    mean_cluster_size: float = 0.0
    silhouette: float = 0.0
    silhouette_defined: bool = False
    silhouette_subsampled: bool = False
    davies_bouldin: float | None = None
    acquires_total: float | None = None
    cluster_count_score: float | None = None
    outliers_score: float | None = None
    error: str | None = None
    selected: bool = False

    def to_record(self) -> dict:
        rec = {
            "algorithm": self.config.algorithm,
            "transform": self.config.transform,
            "distance": self.config.distance,
            "min_points": self.config.min_points,
            "eps": self.config.eps,
            "n_clusters": self.n_clusters,
            "n_outliers": self.n_outliers,
            "mean_cluster_size": self.mean_cluster_size,
            "silhouette": self.silhouette,
            "silhouette_defined": self.silhouette_defined,
            "silhouette_subsampled": self.silhouette_subsampled,
            "davies_bouldin": self.davies_bouldin,
            "acquires_total": self.acquires_total,
            "cluster_count_score": self.cluster_count_score,
            "outliers_score": self.outliers_score,
            "error": self.error,
            "selected": self.selected,
        }
        return rec


GRID_REPORT_FIELDS = (
    "algorithm", "transform", "distance", "min_points", "eps",
    "n_clusters", "n_outliers", "mean_cluster_size",
    "silhouette", "silhouette_defined", "silhouette_subsampled",
    "davies_bouldin", "acquires_total", "cluster_count_score",
    "outliers_score", "error", "selected",
)


def run_clustering(config: ClusteringConfig, transformed, core=None) -> np.ndarray:
    """Labels for one combination; ``core`` is hdbscan's precomputed core
    distances for ``config.min_points``, if any."""
    if config.algorithm == "dbscan":
        return dbscan(transformed, config.eps, config.min_points, config.distance)
    return hdbscan(transformed, config.min_points, config.distance, core=core)


def grid_search(
    dataset: Dataset,
    grid: GridSpec,
    optimal_cluster_count: int,
    seed: int = 0,
    weights: tuple[float, float, float] = EQUAL_WEIGHTS,
    silhouette_cap: int = DEFAULT_SILHOUETTE_CAP,
    now: int = 0,
    percentiles=None,
) -> tuple[ClusteringConfig, ProfileSet, list[GridRow]]:
    """Evaluate every combination and build profiles from the best one.

    The winner maximizes the composite score; ties break toward fewer
    outliers, then smaller min_points, then declaration order. hdbscan core
    distances are computed once per (transform, distance) for every valid
    min_points of the grid; combinations differing only in min_points are
    adjacent, so only one such table is alive at a time.
    """
    matrix = runtime_matrix(dataset)
    n = len(dataset)
    core_sizes = tuple(sorted({k for k in grid.min_points if 2 <= k <= n}))
    core_key: tuple[str, str] | None = None
    core: dict[int, np.ndarray] = {}
    fitted: dict[str, tuple] = {}
    rows: list[GridRow] = []
    best_key = None
    best: tuple | None = None  # (row_index, labels, spec, transformed)

    for order, config in enumerate(grid.combinations()):
        config = ClusteringConfig(
            config.algorithm, config.transform, config.distance,
            config.min_points, eps=config.eps, seed=seed,
        )
        row = GridRow(config=config)
        rows.append(row)
        if config.transform not in fitted:
            fitted[config.transform] = fit_transform(matrix, config.transform)
        spec, transformed = fitted[config.transform]
        try:
            shared = None
            if config.algorithm == "hdbscan" and config.min_points in core_sizes:
                key = (config.transform, config.distance)
                if core_key != key:
                    core_key, core = None, {}  # free the previous table first
                    core = _hdbscan_module.core_distances(
                        transformed.rows, core_sizes, config.distance
                    )
                    core_key = key
                shared = core[config.min_points]
            labels = run_clustering(config, transformed, core=shared)
        except (ValueError, NotImplementedError) as exc:
            row.error = str(exc)
            continue

        clustered = labels[labels >= 0]
        row.n_clusters = int(np.unique(clustered).size)
        row.n_outliers = int(np.sum(labels == -1))
        if row.n_clusters == 0:
            row.error = "no clusters"
            continue
        row.mean_cluster_size = float(clustered.size / row.n_clusters)
        row.silhouette_subsampled = clustered.size > silhouette_cap
        try:
            row.silhouette = silhouette_mean(
                transformed, labels, config.distance, max_points=silhouette_cap, seed=seed
            )
            row.silhouette_defined = True
        except DegenerateDataError:
            row.silhouette = 0.0  # single cluster: neutral cohesion term
        try:
            row.davies_bouldin = davies_bouldin(transformed, labels, config.distance)
        except DegenerateDataError:
            row.davies_bouldin = None
        score = acquires(labels, n, optimal_cluster_count, row.silhouette, weights)
        row.acquires_total = score.total
        row.cluster_count_score = score.cluster_count_score
        row.outliers_score = score.outliers_score

        key = (-score.total, row.n_outliers, config.min_points, order)
        if best_key is None or key < best_key:
            best_key = key
            best = (len(rows) - 1, labels, spec, transformed)

    if best is None:
        raise NoViableConfigError("no grid combination produced a valid clustering")

    row_index, labels, spec, transformed = best
    rows[row_index].selected = True
    winner = rows[row_index].config
    kwargs = {} if percentiles is None else {"percentiles": tuple(percentiles)}
    profile_set = build_profiles(
        dataset, labels, winner, spec, now=now, transformed=transformed, **kwargs
    )
    profile_set.quality = rows[row_index].acquires_total
    return winner, profile_set, rows

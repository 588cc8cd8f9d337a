"""Grid search over profile-generator configurations, scored by the
composite clustering metric."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from .dbscan import eps_cut
from .errors import DegenerateDataError, NoViableConfigError
from .hdbscan import spanning_trees, tree_labels
from .metrics import EQUAL_WEIGHTS, acquires, davies_bouldin, silhouette_mean
from .metrics import DEFAULT_SILHOUETTE_CAP
from .preprocess import fit_transform
from .profiles import DEFAULT_PERCENTILES, ClusteringConfig, ProfileSet, build_profiles
from .trace_model import Dataset, matrix_rows, runtime_matrix

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
        """Checks what no single combination can, then builds every
        combination, whose ``ClusteringConfig`` rejects a bad value."""
        if not (self.algorithms and self.transforms and self.distances and self.min_points):
            raise ValueError("grid axes must be nonempty")
        if "dbscan" in self.algorithms and not self.eps:
            raise ValueError("dbscan combinations require at least one eps value")
        if not all(math.isfinite(eps) and eps > 0 for eps in self.eps):
            raise ValueError(f"eps values must be finite and > 0, got {list(self.eps)}")
        self.combinations()

    @classmethod
    def pinned(cls, c: ClusteringConfig) -> "GridSpec":
        """The grid of one combination."""
        eps = () if c.eps is None else (c.eps,)
        return cls((c.algorithm,), (c.transform,), (c.distance,), (c.min_points,), eps)

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
        return {
            f: getattr(self.config if f in _CONFIG_FIELDS else self, f)
            for f in GRID_REPORT_FIELDS
        }


_CONFIG_FIELDS = ("algorithm", "transform", "distance", "min_points", "eps")
# The report's columns: the configuration, then every GridRow field after it.
GRID_REPORT_FIELDS = _CONFIG_FIELDS + tuple(f.name for f in fields(GridRow)[1:])


def _cluster_group(group: list[GridRow], transformed) -> list[tuple[int, np.ndarray]]:
    """(position, labels) of each row of a group whose size fits the data; a
    row whose size does not gets its error instead. The group's sizes share
    one core-distance pass and grow one MST each, whatever the algorithm:
    an hdbscan row takes its tree's merge, condense and select steps, a
    dbscan row the tree's cut at its eps."""
    X = matrix_rows(transformed)
    n = X.shape[0]
    kind = group[0].config.distance
    sizes = sorted({r.config.min_points for r in group if r.config.min_points <= n})
    if sizes:
        core, trees = spanning_trees(X, sizes, kind)
    out = []
    for i, row in enumerate(group):
        c = row.config
        if c.min_points > n:
            size = "min_points" if c.algorithm == "dbscan" else "min_cluster_size"
            row.error = f"need at least {size}={c.min_points} rows, got {n}"
        elif c.algorithm == "dbscan":
            out.append((i, eps_cut(X, core[c.min_points], trees[c.min_points], c.eps, kind)))
        else:
            out.append((i, tree_labels(trees[c.min_points], c.min_points)))
    return out


def grid_search(
    dataset: Dataset,
    grid: GridSpec,
    optimal_cluster_count: int,
    seed: int = 0,
    weights: tuple[float, float, float] = EQUAL_WEIGHTS,
    silhouette_cap: int = DEFAULT_SILHOUETTE_CAP,
    now: int = 0,
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
) -> tuple[ClusteringConfig, ProfileSet, list[GridRow]]:
    """Evaluate every combination and build profiles from the best one.

    The winner maximizes the composite score; ties break toward fewer
    outliers, then smaller min_points, then declaration order. Combinations
    that share an algorithm, transform and distance are adjacent and are
    evaluated as one group: one core-distance pass and one MST per size
    serve all of the group's sizes, and one silhouette pass scores all of its
    labellings. Only one group's arrays (K labellings of n rows) are alive
    at a time. Every row equals the row of a grid of that combination alone.
    """
    matrix = runtime_matrix(dataset)
    n = len(dataset)
    fitted: dict[str, tuple] = {}
    rows: list[GridRow] = []
    best_key = None
    best: tuple | None = None  # (row_index, labels, spec)

    configs = [
        ClusteringConfig(c.algorithm, c.transform, c.distance, c.min_points, eps=c.eps, seed=seed)
        for c in grid.combinations()
    ]
    for (_, transform, distance), members in groupby(
        configs, key=lambda c: (c.algorithm, c.transform, c.distance)
    ):
        if transform not in fitted:
            fitted[transform] = fit_transform(matrix, transform)
        spec, transformed = fitted[transform]
        first = len(rows)
        group = [GridRow(config, silhouette_subsampled=n > silhouette_cap) for config in members]
        rows.extend(group)

        scored = []
        for i, labels in _cluster_group(group, transformed):
            row = group[i]
            clustered = labels[labels >= 0]
            row.n_clusters = int(np.unique(clustered).size)
            row.n_outliers = int(np.sum(labels == -1))
            if row.n_clusters == 0:
                row.error = "no clusters"
                continue
            row.mean_cluster_size = float(clustered.size / row.n_clusters)
            scored.append((first + i, labels))
        if not scored:
            continue
        silhouettes = silhouette_mean(
            transformed, np.stack([labels for _, labels in scored]), distance,
            max_points=silhouette_cap, seed=seed,
        )

        for (index, labels), silhouette in zip(scored, silhouettes):
            row = rows[index]
            # A single cluster has no silhouette: neutral cohesion term.
            row.silhouette_defined = silhouette is not None
            row.silhouette = 0.0 if silhouette is None else silhouette
            try:
                row.davies_bouldin = davies_bouldin(transformed, labels, distance)
            except DegenerateDataError:
                row.davies_bouldin = None
            score = acquires(labels, n, optimal_cluster_count, row.silhouette, weights)
            row.acquires_total = score.total
            row.cluster_count_score = score.cluster_count_score
            row.outliers_score = score.outliers_score

            key = (-score.total, row.n_outliers, row.config.min_points, index)
            if best_key is None or key < best_key:
                best_key = key
                best = (index, labels, spec)

    if best is None:
        raise NoViableConfigError("no grid combination produced a valid clustering")

    row_index, labels, spec = best
    rows[row_index].selected = True
    winner = rows[row_index].config
    profile_set = build_profiles(dataset, labels, winner, spec, now=now, percentiles=percentiles)
    profile_set.quality = rows[row_index].acquires_total
    return winner, profile_set, rows

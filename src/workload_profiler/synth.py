"""Synthetic workload traces for experiments and the acceptance suite.

Clusters are log-normal blobs around well-separated log-space centers, so
usage values are positive, right-skewed, and cluster cleanly under a power
or standard transform. Each cluster carries its own dominant metadata
values, optionally corrupted with noise, which is what makes the
metadata-only classifier learnable.
"""

from __future__ import annotations

import numpy as np

from .trace_model import Dataset

RUNTIME_FEATURES = ("cpu_usage", "gpu_usage", "mem_usage", "duration")
METADATA_FEATURES = ("app", "owner", "zone")


def _log_centers(n_clusters: int, n_features: int, rng, min_sep: float = 1.4) -> np.ndarray:
    """Cluster centers in log10 space with a minimum pairwise separation."""
    centers = np.empty((n_clusters, n_features))
    placed = 0
    while placed < n_clusters:
        cand = rng.uniform(0.5, 3.5, size=n_features)
        if all(np.linalg.norm(cand - centers[i]) >= min_sep for i in range(placed)):
            centers[placed] = cand
            placed += 1
    return centers


def make_blob_trace(
    n: int,
    n_clusters: int,
    seed: int = 0,
    features: tuple[str, ...] = RUNTIME_FEATURES,
    sigma: float = 0.12,
    metadata_noise: float = 0.0,
    outlier_fraction: float = 0.0,
    id_prefix: str = "w",
    start_time: int = 0,
    centers: np.ndarray | None = None,
    cluster_of: np.ndarray | None = None,
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Build a synthetic trace; returns (dataset, true labels, log centers).

    ``sigma`` is the log-normal shape: values are center * exp(N(0, sigma)).
    ``metadata_noise`` is the chance that the cluster-determined 'app' value
    is replaced by a random one. Outliers get labels -1 and uniform log-space
    positions plus their own metadata value.
    """
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = _log_centers(n_clusters, len(features), rng)
    if cluster_of is None:
        cluster_of = rng.integers(0, n_clusters, size=n)
    cluster_of = np.asarray(cluster_of).copy()

    n_outliers = int(round(n * outlier_fraction))
    if n_outliers:
        out_idx = rng.choice(n, size=n_outliers, replace=False)
        cluster_of[out_idx] = -1

    log_values = np.empty((n, len(features)))
    for i in range(n):
        c = cluster_of[i]
        if c >= 0:
            # sigma acts in natural-log units: value = 10^center * exp(N(0, sigma))
            log_values[i] = centers[c] * np.log(10) + rng.normal(0.0, sigma, len(features))
        else:
            log_values[i] = rng.uniform(-1.0, 5.0, len(features)) * np.log(10)
    values = np.exp(log_values)

    apps, owners, zones = [], [], []
    for c in cluster_of.astype(np.int64).tolist():  # one row's draws at a time, in a fixed order
        if c >= 0:
            app = f"app{c}"
            if metadata_noise and rng.random() < metadata_noise:
                app = f"app{rng.integers(0, n_clusters)}"
            owner = f"user{(c * 3 + int(rng.integers(0, 3))) % (n_clusters * 3)}"
        else:
            app = "adhoc"
            owner = f"user{int(rng.integers(0, n_clusters * 3))}"
        apps.append(app)
        owners.append(owner)
        zones.append(f"z{int(rng.integers(0, 4))}")
    dataset = Dataset.from_columns(
        ids=[f"{id_prefix}{i}" for i in range(n)],
        runtime={f: values[:, j] for j, f in enumerate(features)},
        metadata=dict(zip(METADATA_FEATURES, (apps, owners, zones))),
        submitted_at=np.arange(start_time, start_time + n),
    )
    return dataset, cluster_of, centers


def make_drift_pair(
    n_train: int,
    n_stream_known: int,
    n_stream_drift: int,
    n_clusters: int = 5,
    seed: int = 0,
    sigma: float = 0.12,
) -> tuple[Dataset, Dataset]:
    """Training trace from k blobs plus a stream whose tail drifts to a new,
    previously unseen blob (new metadata value included)."""
    rng = np.random.default_rng(seed)
    centers_all = _log_centers(n_clusters + 1, len(RUNTIME_FEATURES), rng)
    train, _, _ = make_blob_trace(
        n_train,
        n_clusters,
        seed=seed + 1,
        sigma=sigma,
        centers=centers_all[:n_clusters],
        id_prefix="t",
    )
    known, _, _ = make_blob_trace(
        n_stream_known,
        n_clusters,
        seed=seed + 2,
        sigma=sigma,
        centers=centers_all[:n_clusters],
        id_prefix="s",
        start_time=n_train,
    )
    stream = known
    if n_stream_drift:
        drifted, _, _ = make_blob_trace(
            n_stream_drift,
            n_clusters + 1,
            seed=seed + 3,
            sigma=sigma,
            centers=centers_all,
            cluster_of=np.full(n_stream_drift, n_clusters),
            id_prefix="d",
            start_time=n_train + n_stream_known,
        )
        stream = known.concat(drifted)
    return train, stream

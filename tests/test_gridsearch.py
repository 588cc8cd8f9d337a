import numpy as np
import pytest

from oracles import rowwise_silhouette, slow_acquires
from workload_profiler.dbscan import dbscan
from workload_profiler.errors import DegenerateDataError, NoViableConfigError
from workload_profiler.gridsearch import DEFAULT_MIN_POINTS, GridSpec, grid_search
from workload_profiler.hdbscan import hdbscan
from workload_profiler.metrics import silhouette_mean
from workload_profiler.preprocess import fit_transform
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import runtime_matrix


def test_a_cluster_the_silhouette_sample_misses_leaves_the_row_undefined():
    ds, _, _ = make_blob_trace(120, 2, seed=3)
    _, transformed = fit_transform(runtime_matrix(ds), "standard")
    labels = hdbscan(transformed, 10)
    assert np.unique(labels[labels >= 0]).size == 2
    cap = 4

    def sampled_clusters(seed):
        sel = np.random.default_rng(seed).choice(len(ds), cap, replace=False)
        return np.unique(labels[sel][labels[sel] >= 0]).size

    seed = next(s for s in range(100) if sampled_clusters(s) < 2)
    assert silhouette_mean(transformed, np.stack([labels]), max_points=cap, seed=seed) == [None]
    with pytest.raises(DegenerateDataError):
        silhouette_mean(transformed, labels, max_points=cap, seed=seed)
    grid = GridSpec(transforms=("standard",), distances=("euclidean",), min_points=(10,))
    _, _, (row,) = grid_search(ds, grid, 2, seed=seed, silhouette_cap=cap)
    assert row.n_clusters == 2 and row.silhouette_subsampled
    assert not row.silhouette_defined and row.silhouette == 0.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(algorithms=())
    with pytest.raises(ValueError):
        GridSpec(algorithms=("kmeans",))
    with pytest.raises(ValueError):
        GridSpec(algorithms=("dbscan",))  # dbscan needs eps values
    with pytest.raises(ValueError):
        GridSpec(algorithms=("optics",))  # not implemented: an unknown algorithm


def test_default_min_points_range():
    assert GridSpec().min_points == (50, 100, 200, 300, 400, 600, 1000)


def test_single_combination_returned():
    ds, _, _ = make_blob_trace(200, 3, seed=0)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("standard",),
        distances=("euclidean",), min_points=(20,),
    )
    winner, profiles, rows = grid_search(ds, grid, optimal_cluster_count=3, seed=0)
    assert len(rows) == 1 and rows[0].selected
    assert winner.algorithm == "hdbscan" and winner.min_points == 20
    assert len(profiles.groups) == 3


def test_four_blob_grid_finds_four_clusters():
    ds, _, _ = make_blob_trace(600, 4, seed=1)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("standard", "power"),
        distances=("euclidean",), min_points=(10, 30),
    )
    winner, profiles, rows = grid_search(ds, grid, optimal_cluster_count=4, seed=0)
    assert len(rows) == 4
    assert len(profiles.groups) == 4
    selected = [r for r in rows if r.selected]
    assert len(selected) == 1
    # winner's composite score is reproduced by direct arithmetic
    row = selected[0]
    fake_labels = (
        list(range(row.n_clusters))
        + [0] * (len(ds) - row.n_outliers - row.n_clusters)
        + [-1] * row.n_outliers
    )
    expected = slow_acquires(fake_labels, len(ds), 4, row.silhouette, (1 / 3, 1 / 3, 1 / 3))
    assert row.acquires_total == pytest.approx(expected, abs=1e-12)
    # the winner maximizes the score over the report
    assert row.acquires_total == max(r.acquires_total for r in rows if r.acquires_total is not None)


def test_dbscan_combinations():
    ds, _, _ = make_blob_trace(200, 2, seed=3)
    grid = GridSpec(
        algorithms=("dbscan",), transforms=("power",),
        distances=("euclidean",), min_points=(5,), eps=(0.3, 0.8),
    )
    winner, profiles, rows = grid_search(ds, grid, optimal_cluster_count=2, seed=0)
    assert len(rows) == 2
    assert winner.eps in (0.3, 0.8)
    assert len(profiles.groups) >= 1


def test_no_viable_config():
    ds, _, _ = make_blob_trace(60, 2, seed=4)
    # min_points larger than the dataset: every combination is invalid
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("standard",),
        distances=("euclidean",), min_points=(1000,),
    )
    with pytest.raises(NoViableConfigError):
        grid_search(ds, grid, optimal_cluster_count=2, seed=0)
    # dbscan with an eps so tiny everything is noise is also not viable
    grid2 = GridSpec(
        algorithms=("dbscan",), transforms=("standard",),
        distances=("euclidean",), min_points=(5,), eps=(1e-12,),
    )
    with pytest.raises(NoViableConfigError):
        grid_search(ds, grid2, optimal_cluster_count=2, seed=0)


def test_tie_break_prefers_fewer_outliers_then_smaller_min_points():
    ds, _, _ = make_blob_trace(300, 3, seed=5)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("standard",),
        distances=("euclidean",), min_points=(10, 20),
    )
    _, _, rows = grid_search(ds, grid, optimal_cluster_count=3, seed=0)
    best = max(r.acquires_total for r in rows)
    tied = [r for r in rows if r.acquires_total == best]
    selected = next(r for r in rows if r.selected)
    expected = min(tied, key=lambda r: (r.n_outliers, r.config.min_points))
    assert selected is expected


def test_report_records_every_combination():
    ds, _, _ = make_blob_trace(150, 2, seed=6)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("standard", "minmax", "robust"),
        distances=("euclidean", "manhattan"), min_points=(8, 15),
    )
    _, _, rows = grid_search(ds, grid, optimal_cluster_count=2, seed=0)
    assert len(rows) == 3 * 2 * 2
    recs = [r.to_record() for r in rows]
    assert all(set(r) == set(recs[0]) for r in recs)


def _rows_equal_each_combination_alone(ds, grid, **kwargs):
    _, _, rows = grid_search(ds, grid, optimal_cluster_count=3, seed=0, **kwargs)
    assert len(rows) == len(grid.combinations())
    for row in rows:
        c = row.config
        alone = GridSpec(
            algorithms=(c.algorithm,), transforms=(c.transform,),
            distances=(c.distance,), min_points=(c.min_points,),
            eps=() if c.eps is None else (c.eps,),
        )
        try:
            _, _, (single,) = grid_search(ds, alone, optimal_cluster_count=3, seed=0, **kwargs)
        except NoViableConfigError:
            assert row.error is not None
            continue
        expected = single.to_record()
        got = row.to_record()
        del expected["selected"], got["selected"]
        assert got == expected
    return rows


def test_shared_core_distances_give_the_rows_of_each_combination_alone():
    ds, _, _ = make_blob_trace(240, 3, seed=5, outlier_fraction=0.05)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("standard", "power"),
        distances=("euclidean", "manhattan"), min_points=(30, 8, 300, 15),
    )
    rows = _rows_equal_each_combination_alone(ds, grid)
    assert len(rows) == 16
    assert any(r.error for r in rows) and any(r.error is None for r in rows)

    # The default sizes, a silhouette cap below the clustered count, and
    # dbscan combinations of several eps cut from their group's shared trees.
    ds, _, _ = make_blob_trace(640, 3, seed=5, outlier_fraction=0.05)
    grid = GridSpec(
        algorithms=("hdbscan", "dbscan"), transforms=("power",),
        distances=("euclidean", "manhattan", "cosine"), min_points=DEFAULT_MIN_POINTS,
        eps=(0.02, 0.3, 0.8),
    )
    rows = _rows_equal_each_combination_alone(ds, grid, silhouette_cap=250)
    _, transformed = fit_transform(runtime_matrix(ds), "power")
    for row in rows:
        c = row.config
        if c.algorithm == "hdbscan" and row.silhouette_defined:
            labels = hdbscan(transformed, c.min_points, c.distance)
            expected = rowwise_silhouette(transformed.rows, labels, c.distance, 250, seed=0)
            assert row.silhouette == expected
        if c.algorithm == "dbscan" and row.error is None:
            labels = dbscan(transformed, c.eps, c.min_points, c.distance)
            assert (row.n_clusters, row.n_outliers) == (labels.max() + 1, (labels < 0).sum())
    assert any(r.silhouette_subsampled and r.silhouette_defined for r in rows)
    assert any(r.error is None and not r.silhouette_defined for r in rows)
    assert any(r.config.algorithm == "dbscan" and r.silhouette_defined for r in rows)
    assert any(r.error and "min_cluster_size=" in r.error for r in rows)
    assert any(r.error and "min_points=" in r.error for r in rows)

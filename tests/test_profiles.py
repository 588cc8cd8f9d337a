import numpy as np
import pytest

from oracles import slow_percentile
from workload_profiler.artifacts import jsonable, read_record
from workload_profiler.errors import EmptyProfileSetError
from workload_profiler.preprocess import fit_transform
from workload_profiler.distances import point_to_rows
from workload_profiler.profiles import (
    ClusteringConfig,
    ProfileSet,
    _medoid_index,
    build_profiles,
)
from workload_profiler.synth import make_blob_trace
from rows import dataset_of
from workload_profiler.trace_model import FeatureMatrix, runtime_matrix


def config(**kw):
    base = dict(algorithm="hdbscan", transform="standard", distance="euclidean", min_points=2)
    base.update(kw)
    return ClusteringConfig(**base)


def small_setup(tiny_dataset):
    spec, transformed = fit_transform(runtime_matrix(tiny_dataset), "standard")
    return spec, transformed


def test_bookkeeping(tiny_dataset):
    spec, transformed = small_setup(tiny_dataset)
    labels = [0, 0, 1, 1, -1]
    ps = build_profiles(tiny_dataset, labels, config(), spec, now=7)
    assert [g.label for g in ps.groups] == [0, 1]
    assert [g.size for g in ps.groups] == [2, 2]
    assert ps.outlier_ids == ("j5",)
    assert ps.n_outliers == 1
    assert all(g.last_update == 7 for g in ps.groups)


def test_all_outliers_rejected(tiny_dataset):
    spec, _ = small_setup(tiny_dataset)
    with pytest.raises(EmptyProfileSetError):
        build_profiles(tiny_dataset, [-1] * 5, config(), spec, now=0)


def test_stats_hand_example():
    ds = dataset_of(
        (f"w{i}", {"m": "x"}, {"cpu": v}) for i, v in enumerate([10.0, 20.0, 30.0, 40.0])
    )
    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    ps = build_profiles(ds, [0, 0, 0, 0], config(), spec, now=0)
    stats = ps.groups[0].stats["cpu"]
    assert stats.median == pytest.approx(25.0)
    assert stats.percentiles[5.0] == pytest.approx(11.5)  # linear interpolation
    assert stats.mean == pytest.approx(25.0)
    assert stats.percentiles[95.0] == pytest.approx(38.5)


def test_stats_match_percentile_oracle():
    ds, labels, _ = make_blob_trace(300, 3, seed=11)
    spec, transformed = fit_transform(runtime_matrix(ds), "power")
    ps = build_profiles(ds, labels, config(transform="power"), spec, now=0)
    raw = runtime_matrix(ds).rows
    for g in ps.groups:
        idx = [i for i, wid in enumerate(ds.ids.tolist()) if wid in set(g.member_ids)]
        for j, f in enumerate(ds.schema_runtime):
            values = raw[idx, j].tolist()
            for p, got in g.stats[f].percentiles.items():
                assert got == pytest.approx(slow_percentile(values, p), rel=1e-12)
            # percentile ordering invariant
            ordered = [g.stats[f].percentiles[p] for p in sorted(g.stats[f].percentiles)]
            assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
            assert min(values) <= g.stats[f].mean <= max(values)


def test_centroid_and_medoid_in_transformed_space(tiny_dataset):
    spec, transformed = small_setup(tiny_dataset)
    labels = [0, 0, 1, 1, 0]
    ps = build_profiles(tiny_dataset, labels, config(), spec, now=0)
    idx0 = [0, 1, 4]
    np.testing.assert_allclose(ps.groups[0].centroid, transformed.rows[idx0].mean(axis=0))
    # medoid minimizes summed distance to members (brute force)
    member_rows = transformed.rows[idx0]
    sums = [np.linalg.norm(member_rows - member_rows[i], axis=1).sum() for i in range(3)]
    expected = tiny_dataset.ids[idx0[int(np.argmin(sums))]]
    assert ps.groups[0].medoid_id == expected


def test_metadata_bag(tiny_dataset):
    spec, _ = small_setup(tiny_dataset)
    ps = build_profiles(tiny_dataset, [0, 0, 0, 0, 0], config(), spec, now=0)
    bag = ps.groups[0].metadata_bag
    assert bag["user"] == {"alice": 2, "bob": 2, "carol": 1}
    assert bag["task"] == {"train": 3, "infer": 2}


def test_partition_property():
    ds, labels, _ = make_blob_trace(200, 4, seed=2, outlier_fraction=0.1)
    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    ps = build_profiles(ds, labels, config(), spec, now=0)
    covered = set(ps.outlier_ids)
    for g in ps.groups:
        members = set(g.member_ids)
        assert not members & covered  # disjoint
        covered |= members
    assert covered == set(ds.ids.tolist())  # union is the whole dataset


def test_outlier_rule_flags_far_points_not_members():
    ds, labels, _ = make_blob_trace(300, 3, seed=4)
    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    ps = build_profiles(ds, labels, config(), spec, now=0)
    assert ps.distance_threshold > 0
    # tau is the 95th percentile of member-to-own-centroid distances
    members = np.flatnonzero(np.asarray(labels) >= 0)
    flags = ps.outlier_flags(FeatureMatrix(ds.runtime[members], ds.schema_runtime))
    assert flags.shape == (members.size,) and flags.mean() <= 0.05
    # a far-away point is an outlier, whichever column order the rows use
    far = FeatureMatrix(np.full((1, len(ds.schema_runtime)), 1e9), tuple(reversed(ds.schema_runtime)))
    assert ps.outlier_flags(far).tolist() == [True]


def test_profile_set_round_trip():
    ds, labels, _ = make_blob_trace(120, 2, seed=9)
    spec, _ = fit_transform(runtime_matrix(ds), "robust")
    ps = build_profiles(ds, labels, config(transform="robust"), spec, now=3)
    doc = jsonable(ps)
    back = read_record(ProfileSet, doc)
    assert back.labels() == ps.labels()
    assert back.n_outliers == ps.n_outliers
    assert back.distance_threshold == ps.distance_threshold
    np.testing.assert_array_equal(back.groups[0].centroid, ps.groups[0].centroid)
    assert back.groups[0].stats == ps.groups[0].stats
    # without members the ids are dropped but the count survives
    lean = read_record(ProfileSet, jsonable(ps.without_members()))
    assert lean.groups[0].member_ids is None
    assert lean.n_outliers == ps.n_outliers


def test_labels_misaligned(tiny_dataset):
    spec, _ = small_setup(tiny_dataset)
    with pytest.raises(ValueError):
        build_profiles(tiny_dataset, [0, 0, 1], config(), spec, now=0)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "cosine"])
def test_blocked_medoid_equals_the_row_loop(kind):
    rng = np.random.default_rng(12)
    for n in (1, 7, 9, 300, 2500):
        rows = np.round(rng.normal(size=(n, 4)), 1)
        rows[n // 2:] = rows[: n - n // 2]  # duplicates: equal sums, first wins
        F = np.asfortranarray(rows)
        best, best_sum = 0, np.inf
        for i in range(n):
            s = float(point_to_rows(F[i], F, kind).sum())
            if s < best_sum:
                best, best_sum = i, s
        assert _medoid_index(rows, kind) == best

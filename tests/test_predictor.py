import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rows import dataset_of, reordered, rows_of

from workload_profiler.artifacts import jsonable
from workload_profiler.boosting import BoostingParams
from workload_profiler.classifier import build_training_set, train
from workload_profiler.errors import EmptyHoldoutError
from workload_profiler.predictor import (
    PredictionPolicy,
    _errors,
    evaluate_holdout,
    predict,
)
from workload_profiler.preprocess import fit_transform
from workload_profiler.profiles import ClusteringConfig, build_profiles
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import runtime_matrix


def profile_from_values(values):
    ds = dataset_of((f"w{i}", {"m": "x"}, {"cpu": float(v)}) for i, v in enumerate(values))
    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    config = ClusteringConfig("hdbscan", "standard", "euclidean", 2)
    return build_profiles(ds, [0] * len(values), config, spec, now=0).groups[0]


def test_policy_validation():
    with pytest.raises(ValueError):
        PredictionPolicy(kind="wat")
    with pytest.raises(ValueError):
        PredictionPolicy(quantile=0.0)
    with pytest.raises(ValueError):
        PredictionPolicy(quantile=1.0)


def test_fixed_quantile_hand_example():
    profile = profile_from_values([10, 20, 30, 40])
    pred = predict(profile, ["cpu"], PredictionPolicy(kind="fixed_quantile", quantile=0.05))
    assert pred["cpu"] == pytest.approx(11.5)


def test_skew_conditional_switches_on_threshold():
    skewed = profile_from_values([1, 1, 1, 1, 1, 1, 1, 1, 1, 50])  # skewness >> 1
    policy = PredictionPolicy(kind="skew_conditional", quantile=0.05, skew_threshold=1.0)
    assert predict(skewed, ["cpu"], policy)["cpu"] == skewed.stats["cpu"].quantile(0.05)
    flat = profile_from_values([10, 11, 12, 13, 14])  # skewness ~ 0
    assert predict(flat, ["cpu"], policy)["cpu"] == flat.stats["cpu"].median


def test_skew_threshold_extremes():
    profile = profile_from_values([1, 1, 1, 1, 1, 1, 1, 1, 1, 50])
    always_median = PredictionPolicy(kind="skew_conditional", skew_threshold=math.inf)
    assert predict(profile, ["cpu"], always_median)["cpu"] == profile.stats["cpu"].median
    always_quantile = PredictionPolicy(kind="skew_conditional", skew_threshold=-math.inf)
    assert (
        predict(profile, ["cpu"], always_quantile)["cpu"]
        == profile.stats["cpu"].quantile(0.05)
    )


def test_constant_feature_any_policy():
    profile = profile_from_values([7, 7, 7, 7])
    for policy in (
        PredictionPolicy(kind="fixed_quantile", quantile=0.25),
        PredictionPolicy(kind="skew_conditional"),
    ):
        assert predict(profile, ["cpu"], policy)["cpu"] == 7.0


def test_predict_monotone_in_quantile():
    profile = profile_from_values(list(range(1, 101)))
    values = [
        predict(
            profile, ["cpu"], PredictionPolicy(kind="fixed_quantile", quantile=q)
        )["cpu"]
        for q in (0.05, 0.25, 0.5, 0.75, 0.95)
    ]
    assert values == sorted(values)


def test_unknown_feature_errors():
    profile = profile_from_values([1, 2, 3])
    with pytest.raises(KeyError):
        predict(profile, ["gpu"], PredictionPolicy())


# ---------------------------------------------------------------- _errors

def rmse_perc(predicted, actual):
    """_errors for one record given as {feature: value} mappings:
    (per-feature error %, combined %), normalized by the actual value."""
    names = list(actual)
    a = np.array([[actual[f] for f in names]])
    errors, combined = _errors(np.array([[predicted[f] for f in names]]), a, a)
    return dict(zip(names, errors[0].tolist())), combined[0].item()


def test_rmse_exact_match_zero():
    errors, combined = rmse_perc({"a": 5.0, "b": 2.0}, {"a": 5.0, "b": 2.0})
    assert combined == 0.0 and all(v == 0.0 for v in errors.values())


def test_rmse_hand_values():
    _, combined = rmse_perc({"a": 50.0}, {"a": 100.0})
    assert combined == pytest.approx(50.0)
    errors, combined = rmse_perc({"a": 70.0, "b": 140.0}, {"a": 100.0, "b": 100.0})
    assert errors["a"] == pytest.approx(30.0)
    assert errors["b"] == pytest.approx(40.0)
    assert combined == pytest.approx(math.sqrt((900 + 1600) / 2))
    # many features: the squares add up in feature order, as scalar arithmetic does
    rng = np.random.default_rng(1)
    for _ in range(5):
        pred = {f"f{i}": v for i, v in enumerate(rng.uniform(0.1, 100, 11).tolist())}
        actual = {f"f{i}": v for i, v in enumerate(rng.uniform(0.1, 100, 11).tolist())}
        errors, combined = rmse_perc(pred, actual)
        want = {f: 100.0 * abs(pred[f] - actual[f]) / max(abs(actual[f]), 1e-9) for f in pred}
        assert errors == want
        assert combined == math.sqrt(sum(e * e for e in want.values()) / len(want))


def test_rmse_feature_mismatch():
    with pytest.raises(ValueError):  # predicted and actual hold different feature columns
        _errors(np.ones((1, 2)), np.ones((1, 3)), np.ones((1, 3)))


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(-1e3, 1e3),
        min_size=1,
        max_size=3,
    ),
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(1e-3, 1e3),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_rmse_combined_between_min_and_max(pred, actual):
    pred = {f: pred.get(f, 1.0) for f in actual}
    errors, combined = rmse_perc(pred, actual)
    assert min(errors.values()) - 1e-9 <= combined <= max(errors.values()) + 1e-9
    assert all(v >= 0 for v in errors.values())
    if combined == 0.0:
        assert all(pred[f] == actual[f] for f in actual)


# ------------------------------------------------------- evaluate_holdout

def build_pipeline(seed=0):
    train_ds, labels, centers = make_blob_trace(1500, 4, seed=seed)
    spec, transformed = fit_transform(runtime_matrix(train_ds), "power")
    config = ClusteringConfig("hdbscan", "power", "euclidean", 20)
    from workload_profiler.hdbscan import hdbscan

    found = hdbscan(transformed, 20)
    profiles = build_profiles(train_ds, found, config, spec, now=0)
    ts, vocab = build_training_set(train_ds, profiles)
    model = train(ts, vocab, BoostingParams(rounds=30), seed=seed)
    holdout, _, _ = make_blob_trace(300, 4, seed=seed + 1, centers=centers, id_prefix="h")
    return train_ds, profiles, model, holdout


def test_holdout_mostly_below_50():
    _, profiles, model, holdout = build_pipeline(seed=3)
    report = evaluate_holdout(holdout, model, profiles, PredictionPolicy())
    assert report.fraction_below_50 >= 0.9
    assert report.n_evaluated == len(holdout)
    assert report.n_excluded == 0
    assert set(report.per_profile) == set(profiles.labels())
    for row in report.rows:
        assert row["combined"] >= 0


def test_holdout_report_shapes():
    _, profiles, model, holdout = build_pipeline(seed=4)
    report = evaluate_holdout(
        holdout, model, profiles, PredictionPolicy(), alt_normalization=True
    )
    ecdf = report.ecdf_records()
    assert len(ecdf) == report.n_evaluated * (len(report.features) + 1)
    box = report.boxplot_records()
    assert all({"profile", "q1", "median", "q3", "count"} <= set(r) for r in box)
    assert len(report.alt_rows) == report.n_evaluated
    doc = jsonable(report)
    assert "workloads_alt_normalization" in doc


def test_unscorable_holdout_errors():
    # a stale artifact mix: every classified label is missing from the profiles
    _, profiles, model, holdout = build_pipeline(seed=5)
    shifted = [
        type(g)(
            label=g.label + 1000,
            size=g.size,
            centroid=g.centroid,
            medoid_id=g.medoid_id,
            stats=g.stats,
            metadata_bag=g.metadata_bag,
            last_update=g.last_update,
            member_ids=g.member_ids,
        )
        for g in profiles.groups
    ]
    stale = type(profiles)(
        groups=tuple(shifted),
        outlier_ids=profiles.outlier_ids,
        n_outliers=profiles.n_outliers,
        config=profiles.config,
        transform_spec=profiles.transform_spec,
        distance_threshold=profiles.distance_threshold,
        created_at=profiles.created_at,
    )
    with pytest.raises(EmptyHoldoutError):
        evaluate_holdout(holdout, model, stale, PredictionPolicy())


def test_exact_quantile_holdout_scores_zero():
    """A holdout workload sitting exactly on its profile's predicted point."""
    train_ds, profiles, model, _ = build_pipeline(seed=6)
    label = profiles.labels()[0]
    group = profiles.group(label)
    policy = PredictionPolicy(kind="fixed_quantile", quantile=0.5)
    target = predict(group, train_ds.schema_runtime, policy)
    donor = next(w for w in rows_of(train_ds) if w.id in set(group.member_ids))
    holdout = dataset_of([("exact", donor.metadata, dict(target))], train_ds.schema_runtime)
    report = evaluate_holdout(holdout, model, profiles, policy)
    assert report.rows[0]["combined"] == pytest.approx(0.0, abs=1e-9)


def test_holdout_scores_equal_scalar_arithmetic_and_meet_columns_by_name():
    _, profiles, model, holdout = build_pipeline(seed=4)
    policy = PredictionPolicy()
    report = evaluate_holdout(holdout, model, profiles, policy, alt_normalization=True)
    # the features in the same order: the same report, whatever the column order
    flipped = reordered(holdout)
    assert flipped.schema_runtime != holdout.schema_runtime
    again = evaluate_holdout(flipped, model, profiles, policy, features=holdout.schema_runtime,
                             alt_normalization=True)
    assert jsonable(again) == jsonable(report)
    assert json.dumps(jsonable(report))  # numpy scalars would not serialize
    actual_of = {w.id: w.runtime for w in rows_of(holdout)}
    for row, alt in zip(report.rows, report.alt_rows):
        group = profiles.group(row["profile"])
        pred = predict(group, holdout.schema_runtime, policy)
        actual = actual_of[row["id"]]
        errors = {f: 100.0 * abs(pred[f] - actual[f]) / max(abs(actual[f]), 1e-9) for f in pred}
        alt_errors = {f: 100.0 * abs(pred[f] - actual[f]) / max(abs(group.stats[f].mean), 1e-9)
                      for f in pred}
        assert row["errors"] == errors and alt["errors"] == alt_errors
        assert row["combined"] == math.sqrt(sum(e * e for e in errors.values()) / len(errors))
        assert type(row["combined"]) is float and type(row["profile"]) is int

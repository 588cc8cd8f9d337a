import dataclasses
import json
import math

import numpy as np
import pytest

from workload_profiler.boosting import BoostingParams
from workload_profiler.classifier import build_training_set, train
from workload_profiler.distances import point_to_rows
from workload_profiler.errors import EmptyWindowError
from workload_profiler.feedback import (
    DeltaSpec,
    FeedbackConfig,
    FeedbackState,
    ReclusterSpec,
    detect_violation,
    freshness,
    run_feedback,
    update_trigger,
    violation_rate,
)
from workload_profiler.gridsearch import GridSpec, grid_search
from workload_profiler.predictor import BehaviorPrediction, PredictionPolicy
from workload_profiler.preprocess import apply_transform
from workload_profiler.synth import make_blob_trace, make_drift_pair
from rows import reordered, rows_of
from workload_profiler.artifacts import write_csv
from workload_profiler.trace_model import FeatureMatrix

FAST_BOOST = BoostingParams(rounds=25)


def prediction(values):
    return BehaviorPrediction(
        workload_id="w", profile_label=0, values=values, policy=PredictionPolicy()
    )


# ------------------------------------------------------- detect_violation

def test_no_violation_when_exact():
    delta = DeltaSpec(mode="absolute", default=1.0)
    violated, flags = detect_violation(
        prediction({"cpu": 100.0}), {"cpu": 100.0}, delta
    )
    assert not violated and flags == {"cpu": False}


def test_absolute_violation_on_single_feature():
    delta = DeltaSpec(mode="absolute", thresholds={"cpu": 50.0}, default=math.inf)
    violated, flags = detect_violation(
        prediction({"cpu": 100.0, "mem": 10.0}),
        {"cpu": 160.0, "mem": 500.0},
        delta,
    )
    assert violated
    assert flags == {"cpu": True, "mem": False}  # mem threshold is +inf


def test_infinite_thresholds_never_violate():
    delta = DeltaSpec(mode="relative", default=math.inf)
    violated, _ = detect_violation(
        prediction({"cpu": 1.0}), {"cpu": 1e12}, delta
    )
    assert not violated


def test_relative_mode():
    delta = DeltaSpec(mode="relative", default=0.5)
    assert detect_violation(prediction({"cpu": 100.0}), {"cpu": 149.0}, delta)[0] is False
    assert detect_violation(prediction({"cpu": 100.0}), {"cpu": 151.0}, delta)[0] is True


def test_feature_mismatch_errors():
    with pytest.raises(ValueError):
        detect_violation(prediction({"cpu": 1.0}), {"mem": 1.0}, DeltaSpec())


# -------------------------------------------------------- violation_rate

def make_state(flags, mode="events", window=10):
    cfg = FeedbackConfig(window=window, window_mode=mode)
    state = FeedbackState(cfg=cfg)
    for i, v in enumerate(flags):
        state.push(f"w{i}", v, t=i)
    return state


def test_violation_rate_fraction():
    state = make_state([True] * 3 + [False] * 7)
    assert violation_rate(state, t=9) == pytest.approx(0.3)


def test_violation_rate_all_violated():
    state = make_state([True] * 5)
    assert violation_rate(state, t=4) == 1.0


def test_violation_rate_paper_shape():
    # 1013 violations among 10000 windowed events -> 0.1013
    state = make_state([True] * 1013 + [False] * 8987, window=10_000)
    assert violation_rate(state, t=9999) == pytest.approx(0.1013)


def test_violation_rate_empty_window():
    cfg = FeedbackConfig(window=5)
    with pytest.raises(EmptyWindowError):
        violation_rate(FeedbackState(cfg=cfg), t=0)


def test_event_window_eviction_matches_recount():
    rng = np.random.default_rng(0)
    cfg = FeedbackConfig(window=16, window_mode="events")
    state = FeedbackState(cfg=cfg)
    flags = []
    for i in range(200):
        v = bool(rng.random() < 0.3)
        flags.append(v)
        state.push(f"w{i}", v, t=i)
        expected = sum(flags[-16:]) / min(len(flags), 16)
        assert violation_rate(state, t=i) == pytest.approx(expected)


def test_time_window_eviction():
    cfg = FeedbackConfig(window=10, window_mode="seconds")
    state = FeedbackState(cfg=cfg)
    state.push("a", True, t=0)
    state.push("b", False, t=5)
    state.push("c", False, t=11)  # t=0 event now outside (11-10, 11]
    assert violation_rate(state, t=11) == 0.0


# ------------------------------------------------------------- freshness

def test_freshness_at_update_is_one(tiny_dataset):
    from workload_profiler.preprocess import fit_transform
    from workload_profiler.profiles import ClusteringConfig, build_profiles
    from workload_profiler.trace_model import runtime_matrix

    spec, _ = fit_transform(runtime_matrix(tiny_dataset), "standard")
    ps = build_profiles(
        tiny_dataset, [0, 0, 0, 0, 0],
        ClusteringConfig("hdbscan", "standard", "euclidean", 2), spec, now=100,
    )
    g = ps.groups[0]
    assert freshness(g, 100, 0.5) == 1.0
    assert freshness(g, 101, math.log(2)) == pytest.approx(0.5)
    assert freshness(g, 103, math.log(2)) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        freshness(g, 99, 0.5)
    # strictly decreasing, always in (0, 1]
    values = [freshness(g, 100 + k, 0.3) for k in range(6)]
    assert all(0 < v <= 1 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------- update_trigger

def profiles_with_update_time(now):
    ds, labels, _ = make_blob_trace(100, 2, seed=1)
    from workload_profiler.preprocess import fit_transform
    from workload_profiler.profiles import ClusteringConfig, build_profiles
    from workload_profiler.trace_model import runtime_matrix

    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    return build_profiles(
        ds, labels, ClusteringConfig("hdbscan", "standard", "euclidean", 2), spec, now=now
    )


def test_no_clause_no_fire():
    profiles = profiles_with_update_time(0)
    cfg = FeedbackConfig(tau_v=0.5, tau_o=0.5, tau_f=0.5, decay=1e-9, window=10)
    state = FeedbackState(cfg=cfg)
    state.push("a", False, t=1)
    fire, causes = update_trigger(state, profiles, cfg, t=1)
    assert not fire and causes == set()


def test_violation_clause_fires():
    profiles = profiles_with_update_time(0)
    cfg = FeedbackConfig(tau_v=0.1, tau_o=1.0, tau_f=0.01, decay=1e-9, window=10_000)
    state = FeedbackState(cfg=cfg)
    for i in range(10_000):
        state.push(f"w{i}", i < 1001, t=i)
    fire, causes = update_trigger(state, profiles, cfg, t=9999)
    assert fire and causes == {"violation"}


def test_freshness_clause_fires():
    profiles = profiles_with_update_time(0)
    cfg = FeedbackConfig(tau_v=1.0, tau_o=1.0, tau_f=0.5, decay=math.log(2), window=10)
    state = FeedbackState(cfg=cfg)
    state.push("a", False, t=2)
    fire, causes = update_trigger(state, profiles, cfg, t=2)  # freshness 0.25 < 0.5
    assert fire and causes == {"freshness"}


def test_outlier_clause_fires():
    profiles = profiles_with_update_time(0)
    cfg = FeedbackConfig(tau_v=1.0, tau_o=0.2, tau_f=0.01, decay=1e-9, window=100)
    state = FeedbackState(cfg=cfg)
    for i in range(10):
        state.push(f"w{i}", False, t=i, outlier=i < 3)
    fire, causes = update_trigger(state, profiles, cfg, t=9)
    assert fire and causes == {"outlier"}


def test_trigger_monotone_in_violations():
    profiles = profiles_with_update_time(0)
    cfg = FeedbackConfig(tau_v=0.3, tau_o=1.0, tau_f=0.01, decay=1e-9, window=1000)
    state = FeedbackState(cfg=cfg)
    for i in range(10):
        state.push(f"w{i}", i < 4, t=i)
    fired_before, _ = update_trigger(state, profiles, cfg, t=9)
    assert fired_before
    state.push("extra", True, t=10)
    fired_after, _ = update_trigger(state, profiles, cfg, t=10)
    assert fired_after  # adding a violated event never turns fire off


# ------------------------------------------------------------ run_feedback

def drift_setup(seed=0, n_train=1200, known=600, drift=600, rounds=25, mcs=25):
    train_ds, stream = make_drift_pair(n_train, known, drift, n_clusters=3, seed=seed)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("power",),
        distances=("euclidean",), min_points=(mcs,),
    )
    _, profiles, _ = grid_search(train_ds, grid, optimal_cluster_count=3, seed=seed)
    ts, vocab = build_training_set(train_ds, profiles)
    model = train(ts, vocab, BoostingParams(rounds=rounds), seed=seed)
    regen = ReclusterSpec(
        optimal_cluster_count=3, grid=grid,
        classifier_params=BoostingParams(rounds=rounds), seed=seed,
    )
    return train_ds, stream, profiles, model, grid, regen


def test_in_distribution_stream_no_triggers():
    train_ds, _, profiles, model, grid, regen = drift_setup(seed=2)
    # a stream from the training distribution with generous deltas: no drift
    _, stream = make_drift_pair(1200, 400, 0, n_clusters=3, seed=2)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=3.0),
        tau_v=0.2, tau_o=0.9, tau_f=0.5, decay=1e-12, window=200, tau_quality=0.5,
    )
    report = run_feedback(
        stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds
    )
    assert report.triggers == []
    assert report.adopted_count == 0


def test_drift_triggers_and_adoption_reduces_violations():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=3)
    # window sized so a fired trigger has accumulated enough drifted points
    # for the new blob to clear min_cluster_size
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.2, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=250, tau_quality=0.5, min_events_between_triggers=250,
    )
    report = run_feedback(
        stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds
    )
    assert len(report.triggers) >= 1
    adopted = [tr for tr in report.triggers if tr.adopted]
    assert adopted
    last = adopted[-1]
    assert last.acquires_total > cfg.tau_quality
    post_rate = last.violations_after / last.events_after
    assert post_rate < last.window_rate_before
    # the effective update discovered the drifted blob as its own profile
    assert last.n_clusters == 4
    # adopted profiles are fresh at adoption time
    assert report.final_profiles is not None
    assert all(g.last_update == last.t for g in report.final_profiles.groups)


def test_prefetched_outlier_flags_equal_the_per_event_rule_across_a_swap():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=3)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.2, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=250, tau_quality=0.5, min_events_between_triggers=250,
    )
    report = run_feedback(
        stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds
    )
    (swap,) = [tr.event_index for tr in report.triggers if tr.adopted]
    names = profiles.transform_spec.feature_names

    def one_event(ps, runtime):
        raw = FeatureMatrix(rows=np.array([[runtime[f] for f in names]]), feature_names=names)
        x = apply_transform(ps.transform_spec, raw).rows[0]
        centroids = np.stack([g.centroid for g in ps.groups])
        return bool(point_to_rows(x, centroids, ps.config.distance).min() > ps.distance_threshold)

    flags = [e["outlier"] for e in report.timeline]
    assert any(flags[: swap + 1]) and not all(flags)
    for i, w in enumerate(rows_of(stream)):
        live = profiles if i <= swap else report.final_profiles
        assert flags[i] == one_event(live, w.runtime) == live.is_outlier(w.runtime)


def test_infinite_quality_threshold_never_adopts():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=4)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.1, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=100, tau_quality=math.inf, min_events_between_triggers=300,
    )
    report = run_feedback(
        stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds
    )
    assert len(report.triggers) >= 1
    assert report.adopted_count == 0
    assert all(not tr.adopted for tr in report.triggers)
    assert report.final_profiles is profiles  # untouched


def test_degenerate_thresholds_pure_evaluation():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=5)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=math.inf),
        tau_v=1.0, tau_o=1.0, tau_f=1e-300, decay=1e-300,
        window=100, tau_quality=0.5,
    )
    report = run_feedback(
        stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds
    )
    assert report.triggers == [] and report.violations_total == 0
    assert report.events_total == len(stream)
    assert len(report.timeline) == len(stream)


def test_stream_id_colliding_with_training_id_is_a_recorded_trigger():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=3)
    # stream ids t0, t1, ... reuse the training ids, so D(t) cannot be built
    colliding = dataclasses.replace(
        stream, ids=np.array([f"t{i}" for i in range(len(stream))], dtype=object)
    )
    assert set(colliding.ids.tolist()) <= set(train_ds.ids.tolist())
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.2, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=250, tau_quality=0.5, min_events_between_triggers=250,
    )
    report = run_feedback(
        colliding, model, profiles, cfg, regen, PredictionPolicy(), train_ds
    )
    assert report.events_total == len(colliding) == len(report.timeline)
    assert report.triggers and report.adopted_count == 0
    for record in report.triggers:
        assert not record.adopted
        assert "duplicate workload id" in record.reason
    assert report.final_profiles is profiles


def test_seconds_window_mode_end_to_end():
    # stream timestamps advance one per event, so a 250-second window
    # behaves like a 250-event one; the drift still triggers and heals
    train_ds, stream = make_drift_pair(1000, 500, 500, n_clusters=3, seed=9)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("power",),
        distances=("euclidean",), min_points=(25,),
    )
    _, profiles, _ = grid_search(train_ds, grid, optimal_cluster_count=3, seed=9)
    ts, vocab = build_training_set(train_ds, profiles)
    model = train(ts, vocab, BoostingParams(rounds=20), seed=9)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.2, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=250, window_mode="seconds",
        tau_quality=0.5, min_events_between_triggers=250,
    )
    regen = ReclusterSpec(
        optimal_cluster_count=3, grid=grid,
        classifier_params=BoostingParams(rounds=20), seed=9,
    )
    report = run_feedback(stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds)
    assert len(report.triggers) >= 1
    assert report.adopted_count >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(tau_v=1.5)
    with pytest.raises(ValueError):
        FeedbackConfig(tau_f=0.0)
    with pytest.raises(ValueError):
        FeedbackConfig(decay=0.0)
    with pytest.raises(ValueError):
        FeedbackConfig(window=0)
    with pytest.raises(ValueError):
        DeltaSpec(mode="sideways")
    with pytest.raises(ValueError):
        FeedbackConfig(min_events_between_triggers=-1)
    # the grid is the one source of a re-clustering; it defaults to the full grid
    assert ReclusterSpec(optimal_cluster_count=3).grid == GridSpec()


def test_min_events_between_triggers_is_parsed_as_an_int():
    cfg = FeedbackConfig.from_json({"window": 50, "min_events_between_triggers": "100"})
    assert cfg.min_events_between_triggers == 100 and cfg.cooldown == 100
    assert FeedbackConfig.from_json({"window": 50}).cooldown == 50
    with pytest.raises(ValueError):
        FeedbackConfig.from_json({"min_events_between_triggers": "-5"})


def test_stream_columns_meet_the_model_by_name_and_leave_as_python_scalars(tmp_path):
    train_ds, _, profiles, model, grid, regen = drift_setup(seed=2)
    _, stream = make_drift_pair(1200, 400, 0, n_clusters=3, seed=2)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.3),
        tau_v=1.0, tau_o=1.0, tau_f=1e-300, decay=1e-300, window=200, tau_quality=0.5,
    )
    feats = stream.schema_runtime[1:]
    report = run_feedback(stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds,
                          features=feats)
    assert report.violations_total > 0 and report.outliers_total > 0
    flipped = reordered(stream)
    assert flipped.schema_runtime == tuple(reversed(stream.schema_runtime))
    other = run_feedback(flipped, model, profiles, cfg, regen, PredictionPolicy(), train_ds,
                         features=feats)
    assert other.timeline == report.timeline
    assert json.dumps(report.timeline)  # numpy scalars would not serialize
    assert {type(v) for e in report.timeline for v in e.values()} == {int, str, bool}
    path = tmp_path / "violations.csv"
    write_csv(path, ("id", "violated", "outlier"), report.timeline)
    assert set(path.read_text().split("\n")[1].split(",")[1:]) <= {"true", "false"}

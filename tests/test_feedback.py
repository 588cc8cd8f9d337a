import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from workload_profiler.boosting import BoostingParams
from workload_profiler.classifier import build_training_set, classify_encoded, train
from workload_profiler.distances import point_to_rows
from workload_profiler.feedback import (
    EVENT_FIELDS,
    LABEL_CHUNK,
    DeltaSpec,
    FeedbackConfig,
    ReclusterSpec,
    _Columns,
    _violated,
    next_trigger,
    run_feedback,
    window_fronts,
)
from workload_profiler.gridsearch import GridSpec, grid_search
from workload_profiler.predictor import PredictionPolicy
from workload_profiler.preprocess import apply_transform
from workload_profiler.synth import make_drift_pair
from oracles import slow_trigger_scan
from rows import reordered, rows_of
from workload_profiler.artifacts import read_record, write_csv
from workload_profiler.trace_model import Dataset, FeatureMatrix, MetadataBlock

FAST_BOOST = BoostingParams(rounds=25)


NEVER = {"tau_o": 1.0, "tau_f": 1e-300, "decay": 1e-300}  # these clauses cannot hold


def scan(violated, times, cfg, outlier=None, stalest_update=0, start=None, reset=0,
         last_fire=None):
    """next_trigger over one stream whose window starts empty at ``reset``;
    by default only the last event is asked."""
    violated = np.asarray(violated, dtype=bool)
    times = np.asarray(times, dtype=np.int64)
    outlier = np.zeros_like(violated) if outlier is None else np.asarray(outlier, dtype=bool)
    start = len(violated) - 1 if start is None else start
    return next_trigger(running(violated), running(outlier), times,
                        window_fronts(times, cfg, reset), stalest_update, cfg, reset, last_fire,
                        start)


def running(flags):
    """Running counts of flags, as next_trigger reads them."""
    return np.concatenate(([0], np.cumsum(flags)))


def rate_at(flags, times=None, mode="events", window=10):
    """The window violation rate at the last event: with tau_v = 0 the
    violation clause holds, and reports the rate, iff the window holds a
    violation."""
    cfg = FeedbackConfig(tau_v=0.0, window=window, window_mode=mode, **NEVER)
    hit = scan(flags, np.arange(len(flags)) if times is None else times, cfg)
    return 0.0 if hit is None else hit[2]


# ------------------------------------------------------------ violation flags

def test_no_violation_when_exact():
    delta = DeltaSpec(mode="absolute", default=1.0)
    flags = _violated(np.array([[100.0]]), np.array([[100.0]]), delta, ["cpu"])
    assert flags.tolist() == [[False]]


def test_absolute_violation_on_single_feature():
    delta = DeltaSpec(mode="absolute", thresholds={"cpu": 50.0}, default=math.inf)
    flags = _violated(np.array([[100.0, 10.0]]), np.array([[160.0, 500.0]]), delta, ["cpu", "mem"])
    assert flags.tolist() == [[True, False]]  # mem threshold is +inf


def test_infinite_thresholds_never_violate():
    delta = DeltaSpec(mode="relative", default=math.inf)
    assert not _violated(np.array([[1.0]]), np.array([[1e12]]), delta, ["cpu"]).any()


def test_relative_mode():
    delta = DeltaSpec(mode="relative", default=0.5)
    flags = _violated(np.array([[100.0], [100.0]]), np.array([[149.0], [151.0]]), delta, ["cpu"])
    assert flags.tolist() == [[False], [True]]


def test_feature_mismatch_errors(tiny_dataset):
    with pytest.raises(ValueError):
        _Columns(tiny_dataset, ("gpu",), PredictionPolicy(), DeltaSpec())


# --------------------------------------------------------------- window counts

def test_violation_rate_fraction():
    assert rate_at([True] * 3 + [False] * 7) == pytest.approx(0.3)


def test_violation_rate_all_violated():
    assert rate_at([True] * 5) == 1.0


def test_violation_rate_paper_shape():
    # 1013 violations among 10000 windowed events -> 0.1013
    assert rate_at([True] * 1013 + [False] * 8987, window=10_000) == pytest.approx(0.1013)


def test_window_is_never_empty_once_an_event_entered():
    times = np.array([5, 5, 0, 9, 9, 30, 2, 31], dtype=np.int64)
    for mode, window in (("events", 1), ("events", 3), ("seconds", 1), ("seconds", 4)):
        cfg = FeedbackConfig(window=window, window_mode=mode)
        for reset in range(len(times)):
            fronts = window_fronts(times, cfg, reset)[reset:]
            assert (fronts >= reset).all() and (fronts <= np.arange(reset, len(times))).all()
    assert scan([], [], FeedbackConfig(tau_v=0.0), start=0) is None


def test_event_window_eviction_matches_recount():
    rng = np.random.default_rng(0)
    flags = (rng.random(200) < 0.3).tolist()
    for i in range(200):
        expected = sum(flags[: i + 1][-16:]) / min(i + 1, 16)
        assert rate_at(flags[: i + 1], window=16) == pytest.approx(expected)


def test_time_window_eviction():
    # the t=0 event is outside (11-10, 11] once the t=11 event enters
    assert rate_at([True, False, False], times=[0, 5, 11], mode="seconds") == 0.0
    cfg = FeedbackConfig(window=10, window_mode="seconds")
    assert window_fronts(np.array([0, 5, 11]), cfg, 0).tolist() == [0, 0, 1]
    # front-only eviction: the t=1 event behind t=20 waits until it is oldest
    assert window_fronts(np.array([0, 20, 1, 21, 31]), cfg, 0).tolist() == [0, 1, 1, 1, 4]


# ------------------------------------------------------------------- freshness

def test_freshness_at_update_is_one():
    def fires(t, tau_f, decay):
        cfg = FeedbackConfig(tau_v=1.0, tau_o=1.0, tau_f=tau_f, decay=decay)
        return scan([False], [t], cfg, stalest_update=100) is not None

    assert not fires(100, 1.0, 0.5)  # freshness 1 at the update
    assert not fires(99, 1.0, 0.5) and not fires(0, 1.0, 10.0)  # and before it
    assert fires(101, 0.5 + 1e-9, math.log(2)) and not fires(101, 0.5 - 1e-9, math.log(2))
    assert fires(103, 0.125 + 1e-9, math.log(2)) and not fires(103, 0.125 - 1e-9, math.log(2))
    # strictly decreasing: once stale, a later event is stale too
    assert all(fires(100 + k, math.exp(-0.3 * (k - 1)), 0.3) for k in range(2, 8))


# ---------------------------------------------------------------- next_trigger

def test_no_clause_no_fire():
    cfg = FeedbackConfig(tau_v=0.5, tau_o=0.5, tau_f=0.5, decay=1e-9, window=10)
    assert scan([False], [1], cfg) is None


def test_violation_clause_fires():
    cfg = FeedbackConfig(tau_v=0.1, tau_o=1.0, tau_f=0.01, decay=1e-9, window=10_000)
    flags = [i < 1001 for i in range(10_000)]
    index, causes, rate = scan(flags, np.arange(10_000), cfg)
    assert (index, causes, rate) == (9999, ["violation"], 1001 / 10_000)


def test_freshness_clause_fires():
    cfg = FeedbackConfig(tau_v=1.0, tau_o=1.0, tau_f=0.5, decay=math.log(2), window=10)
    assert scan([False], [2], cfg)[:2] == (0, ["freshness"])  # freshness 0.25 < 0.5


def test_outlier_clause_fires():
    cfg = FeedbackConfig(tau_v=1.0, tau_o=0.2, tau_f=0.01, decay=1e-9, window=100)
    hit = scan([False] * 10, np.arange(10), cfg, outlier=[i < 3 for i in range(10)])
    assert hit[:2] == (9, ["outlier"])


def test_trigger_monotone_in_violations():
    cfg = FeedbackConfig(tau_v=0.3, tau_o=1.0, tau_f=0.01, decay=1e-9, window=1000)
    flags = [i < 4 for i in range(10)]
    assert scan(flags, np.arange(10), cfg) is not None
    # adding a violated event never turns fire off
    assert scan(flags + [True], np.arange(11), cfg) is not None


def test_scan_returns_the_first_firing_event_after_the_cooldown():
    cfg = FeedbackConfig(tau_v=0.5, window=4, min_events_between_triggers=3, **NEVER)
    flags = [False, True, True, True, True, True, False, False]
    assert scan(flags, np.arange(8), cfg, start=0) == (2, ["violation"], 2 / 3)
    assert scan(flags, np.arange(8), cfg, start=3, last_fire=2) == (5, ["violation"], 1.0)
    # after an adoption at 5 the window restarts empty at 6
    assert scan(flags, np.arange(8), cfg, start=6, reset=6, last_fire=5) is None


def _array_trigger_scan(violated, outlier, times, last_updates, cfg, adopt, chunk):
    """next_trigger driven as run_feedback drives it: columns known a chunk
    at a time, the window and outlier count restarting after an adoption."""
    violated, outlier = np.array(violated, dtype=bool), np.array(outlier, dtype=bool)
    times = np.array(times, dtype=np.int64)
    fires, counts = [], []
    reset, last_fire, index, filled = 0, None, 0, 0
    fronts, stalest = window_fronts(times, cfg, 0), min(last_updates)
    cumulative, outliers = running(violated), running(outlier)

    def close_epoch(stop):
        for i in range(reset, stop):
            counts.append((i + 1 - int(fronts[i]), int(cumulative[i + 1] - cumulative[fronts[i]])))

    while index < len(times):
        if index == filled:
            filled = min(index + chunk, len(times))
        hit = next_trigger(cumulative[:filled + 1], outliers[:filled + 1], times, fronts,
                           stalest, cfg, reset, last_fire, index)
        if hit is None:
            index = filled
            continue
        fires.append(hit)
        last_fire = hit[0]
        index = last_fire + 1
        if adopt(len(fires) - 1):
            close_epoch(index)
            reset, filled = index, index
            fronts, stalest = window_fronts(times, cfg, reset), int(times[last_fire])
    close_epoch(len(times))
    return fires, counts


def _random_stream(rng, n):
    t = np.cumsum(rng.integers(0, 4, size=n)) + int(rng.integers(0, 60))
    t = t + rng.integers(-6, 7, size=n)  # non-monotone
    t[rng.random(n) < 0.05] -= int(rng.integers(20, 80))  # late arrivals
    repeat = np.flatnonzero(rng.random(n - 1) < 0.1) + 1
    t[repeat] = t[repeat - 1]
    return t


@pytest.mark.parametrize("mode", ["events", "seconds"])
def test_array_scan_equals_the_event_loop_on_random_streams(mode):
    rng = np.random.default_rng({"events": 7, "seconds": 8}[mode])
    alone: set[str] = set()  # causes seen where they were the one clause that can hold
    cooled = restarted = 0
    for case in range(80):
        n = int(rng.integers(1, 400))
        times = _random_stream(rng, n)
        tau_f = float(rng.uniform(0.05, 0.9))
        decay = -math.log(tau_f) / float(rng.uniform(20, 300))
        tau_v, tau_o = float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.02, 0.4))
        only = case % 4  # 0: every clause, else the one clause that can hold
        if only not in (0, 1):
            tau_v = 1.0
        if only not in (0, 2):
            tau_o = 1.0
        if only not in (0, 3):
            tau_f, decay = 1e-300, 1e-300
        cfg = FeedbackConfig(
            tau_v=tau_v, tau_o=tau_o, tau_f=tau_f, decay=decay,
            window=int(rng.integers(1, 40)), window_mode=mode,
            min_events_between_triggers=[0, None, int(rng.integers(1, 30))][case % 3],
        )
        violated = (rng.random(n) < rng.uniform(0, 0.5)).tolist()
        outlier = (rng.random(n) < rng.uniform(0, 0.3)).tolist()
        last_updates = rng.integers(0, 80, size=int(rng.integers(1, 4))).tolist()
        adoptions = (rng.random(n) < 0.6).tolist()

        def adopt(k):
            return adoptions[k]

        want = slow_trigger_scan(violated, outlier, times.tolist(), last_updates, cfg, adopt)
        for chunk in (1, 7, 512):
            got = _array_trigger_scan(violated, outlier, times, last_updates, cfg, adopt, chunk)
            assert got == want, (case, chunk)
        fires = want[0]
        if only:
            alone.update(cause for _, causes, _ in fires for cause in causes)
        cooled += cfg.cooldown > 0 and len(fires) > 1
        restarted += any(adopt(k) for k, (i, _, _) in enumerate(fires) if i < n - 1)
    assert alone == {"freshness", "outlier", "violation"} and cooled and restarted


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
    assert last.acquires_after > cfg.tau_quality
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

    flags = report.outliers.tolist()
    assert any(flags[: swap + 1]) and not all(flags)
    for i, w in enumerate(rows_of(stream)):
        live = profiles if i <= swap else report.final_profiles
        assert flags[i] == one_event(live, w.runtime)


@pytest.mark.parametrize("case", ["events", "seconds", "stale"])
def test_run_feedback_fires_where_the_event_loop_does_over_its_own_columns(case):
    # The stream spans three 512-event fill chunks. In events mode triggers
    # are adopted and the columns after each refill under the new model; in
    # stale mode freshness holds throughout and the cooldown puts a fire on
    # the last event of the first chunk.
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=3)
    if case == "seconds":
        rng = np.random.default_rng(3)
        t = stream.submitted_at + rng.integers(-30, 31, size=len(stream))
        stream = dataclasses.replace(stream, submitted_at=t)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.2, tau_o=0.05, tau_f=0.5, decay=1e-12, window=250,
        window_mode="seconds" if case == "seconds" else "events",
        tau_quality=0.5 if case == "events" else math.inf, min_events_between_triggers=250,
    )
    if case == "stale":
        cfg = dataclasses.replace(cfg, tau_v=1.0, tau_o=1.0, decay=1.0,
                                  min_events_between_triggers=511)
    report = run_feedback(stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds)
    fires, _ = slow_trigger_scan(
        report.violated.tolist(), report.outliers.tolist(), stream.submitted_at.tolist(),
        [g.last_update for g in profiles.groups], cfg, lambda k: report.triggers[k].adopted,
    )
    assert fires == [(tr.event_index, tr.causes, tr.window_rate_before) for tr in report.triggers]
    assert len(fires) >= 2 and fires[-1][0] >= 512
    assert (report.adopted_count > 0) == (case == "events")
    if case == "stale":
        assert [i for i, _, _ in fires] == [0, 511, 1022]


def test_labels_after_the_last_adoption_are_the_final_models_labels():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=3)
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.2, tau_o=0.05, tau_f=0.5, decay=1e-12, window=250,
        tau_quality=0.5, min_events_between_triggers=250,
    )
    report = run_feedback(stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds)
    assert report.adopted_count >= 2
    first = next(tr.event_index for tr in report.triggers if tr.adopted) + 1
    last = [tr.event_index for tr in report.triggers if tr.adopted][-1] + 1
    rows = report.final_model.vocabulary.encode(stream.metadata)
    assert np.array_equal(report.labels[last:], classify_encoded(report.final_model, rows[last:])[0])
    assert np.array_equal(report.labels[:first], classify_encoded(model, model.vocabulary.encode(
        stream.metadata)[:first])[0])


def test_relabelling_a_long_stream_holds_distinct_rows_and_a_chunk_not_events():
    train_ds, stream, profiles, model, grid, regen = drift_setup(seed=0)
    n = 200_000
    pick = np.arange(n) % len(stream)
    meta = stream.metadata
    assert len(np.unique(meta.codes, axis=0)) <= 50
    long = Dataset(stream.schema_runtime, np.array([f"e{i}" for i in range(n)], dtype=object),
                   np.arange(n), stream.runtime[pick],
                   MetadataBlock(meta.names, meta.codes[pick], meta.tables))
    columns = _Columns(long, long.schema_runtime, PredictionPolicy(), DeltaSpec())
    assert np.shares_memory(columns.actual, long.runtime)  # consecutive features: a view
    tracemalloc.start()
    try:
        columns.swap(model, profiles, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    want = classify_encoded(model, model.vocabulary.encode(meta))[0]
    assert np.array_equal(columns.labels, want[pick])
    start = 3 * LABEL_CHUNK + 5  # a later swap leaves the labels before it alone
    columns.labels[:] = -1
    columns.swap(model, profiles, start)
    assert (columns.labels[:start] == -1).all()
    assert np.array_equal(columns.labels[start:], want[pick][start:])


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
    assert len(report.labels) == len(report.violated) == len(report.outliers) == len(stream)


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
    assert report.events_total == len(colliding) == len(report.labels)
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


def test_delta_thresholds_must_be_numbers_at_least_zero():
    # NaN would switch a feature's check off; a negative threshold flags every event
    for delta in ({"default": "nan"}, {"default": -0.5}, {"thresholds": {"cpu_usage": math.nan}},
                  {"thresholds": {"cpu_usage": 1.0, "mem_usage": -1e-9}}):
        with pytest.raises(ValueError):
            read_record(FeedbackConfig, {"delta": delta})
    for delta in ({"default": 0}, {"default": "inf"}, {"default": None},
                  {"thresholds": {"cpu_usage": 0.0, "mem_usage": math.inf}}):
        read_record(FeedbackConfig, {"delta": delta})
    with pytest.raises(ValueError):
        DeltaSpec(thresholds={"cpu_usage": math.nan})


def test_min_events_between_triggers_is_parsed_as_an_int():
    cfg = read_record(FeedbackConfig, {"window": 50, "min_events_between_triggers": "100"})
    assert cfg.min_events_between_triggers == 100 and cfg.cooldown == 100
    assert read_record(FeedbackConfig, {"window": 50}).cooldown == 50
    with pytest.raises(ValueError):
        read_record(FeedbackConfig, {"min_events_between_triggers": "-5"})


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
    columns = [column.tolist() for column in report.event_columns(stream)]
    assert len(columns) == len(EVENT_FIELDS)
    assert [column.tolist() for column in other.event_columns(flipped)] == columns
    assert json.dumps(columns)  # numpy scalars would not serialize
    assert [{type(v) for v in column} for column in columns] == [{int}, {int}, {str}, {int},
                                                                  {bool}, {bool}]
    path = tmp_path / "violations.csv"
    write_csv(path, EVENT_FIELDS, report.event_columns(stream))
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(EVENT_FIELDS) and lines[-1] == ""
    flag = {False: "false", True: "true"}
    want = [f"{i},{t},{wid},{label},{flag[v]},{flag[o]}" for i, t, wid, label, v, o in zip(*columns)]
    assert lines[1:-1] == want

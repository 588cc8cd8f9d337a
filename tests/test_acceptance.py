"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import math
import time

import numpy as np
import pytest

from oracles import (
    same_partition,
    slow_acquires,
    slow_class_report,
    slow_davies_bouldin,
    slow_dbscan,
    slow_hdbscan,
    slow_silhouette,
)
from rows import encoded
from workload_profiler import artifacts
from workload_profiler.boosting import BoostingParams
from workload_profiler.classifier import TrainingSet, classify_batch, train
from workload_profiler.dbscan import dbscan
from workload_profiler.feedback import (
    DeltaSpec,
    FeedbackConfig,
    ReclusterSpec,
    next_trigger,
    run_feedback,
    window_fronts,
)
from workload_profiler.gridsearch import GridSpec, grid_search
from workload_profiler.hdbscan import hdbscan
from workload_profiler.metrics import acquires, class_report, davies_bouldin, silhouette_mean
from workload_profiler.pipeline import RunConfig, run_build, run_evaluate
from workload_profiler.predictor import PredictionPolicy
from workload_profiler.preprocess import hopkins
from workload_profiler.synth import make_blob_trace, make_drift_pair
from workload_profiler.trace_model import FeatureMatrix, schema_for, write_trace
from workload_profiler.classifier import build_training_set


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_dbscan_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(20, 201))
        dims = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        centers = rng.uniform(0, 10, size=(k, dims))
        sigma = float(rng.uniform(0.2, 1.5))
        X = np.vstack(
            [rng.normal(c, sigma, size=(n // k + 1, dims)) for c in centers]
        )[:n]
        eps = float(rng.uniform(0.3, 2.5))
        min_points = int(rng.integers(2, 9))
        fast = dbscan(X, eps, min_points)
        slow = slow_dbscan(X, eps, min_points)
        if not same_partition(fast, slow):
            mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "dbscan-oracle",
        mismatches == 0 and elapsed < 10.0,
        f"100 instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_hdbscan_sanity_and_oracle():
    rng = np.random.default_rng(7)
    two = np.vstack(
        [rng.normal((0, 0), 0.05, (180, 2)), rng.normal((10, 10), 0.05, (180, 2))]
    )
    lab2 = hdbscan(two, 30)
    ok_two = (
        len(set(lab2[lab2 >= 0].tolist())) == 2
        and (lab2 == -1).sum() <= 0.05 * len(two)
    )
    four = np.vstack(
        [rng.normal(c, 0.3, (100, 2)) for c in [(0, 0), (10, 0), (0, 10), (10, 10)]]
    )
    lab4 = hdbscan(four, 25)
    ok_four = (
        len(set(lab4[lab4 >= 0].tolist())) == 4
        and (lab4 == -1).sum() <= 0.05 * len(four)
    )
    oracle_ok = True
    for seed in range(15):
        r = np.random.default_rng(seed + 3000)
        k = int(r.integers(1, 4))
        centers = r.uniform(0, 12, size=(k, int(r.integers(2, 4))))
        n = int(r.integers(20, 61))
        X = np.vstack(
            [r.normal(c, r.uniform(0.15, 1.0), size=(n // k + 1, centers.shape[1])) for c in centers]
        )[:n]
        mcs = int(r.integers(2, 9))
        if not same_partition(hdbscan(X, mcs), slow_hdbscan(X, mcs)):
            oracle_ok = False
    report(
        2,
        "hdbscan-sanity",
        ok_two and ok_four and oracle_ok,
        f"2-blob={sorted(set(lab2.tolist()))}, 4-blob clusters="
        f"{len(set(lab4[lab4 >= 0].tolist()))}, oracle15={'ok' if oracle_ok else 'MISMATCH'}",
    )


def test_criterion_3_metric_exactness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 40))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, int(rng.integers(1, 4)))) * rng.uniform(0.5, 3)
        labels = rng.integers(-1, k, size=n)
        while np.unique(labels[labels >= 0]).size < 2:
            labels = rng.integers(-1, k, size=n)
        kind = ["euclidean", "manhattan", "cosine"][int(rng.integers(0, 3))]
        worst = max(worst, abs(silhouette_mean(X, labels, kind) - slow_silhouette(X, labels, kind)))
        db_fast = davies_bouldin(X, labels, kind)
        db_slow = slow_davies_bouldin(X, labels, kind)
        if math.isinf(db_fast) or math.isinf(db_slow):
            worst = max(worst, 0.0 if db_fast == db_slow else 1.0)
        else:
            worst = max(worst, abs(db_fast - db_slow))
        sil = float(rng.uniform(-1, 1))
        opt = int(rng.integers(1, 8))
        worst = max(
            worst,
            abs(
                acquires(labels, n, opt, sil).total
                - slow_acquires(labels.tolist(), n, opt, sil, (1 / 3, 1 / 3, 1 / 3))
            ),
        )
        pred = rng.integers(0, k, size=n).tolist()
        act = rng.integers(0, k, size=n).tolist()
        rep = class_report(pred, act)
        oracle, accuracy = slow_class_report(pred, act)
        worst = max(worst, abs(rep.accuracy - accuracy))
        for c in oracle:
            for m in ("precision", "recall", "f1"):
                worst = max(worst, abs(rep.per_class[c][m] - oracle[c][m]))
    worked = acquires([-1] * 20 + [i % 8 for i in range(80)], 100, 10, 0.5).total
    exact = worked == pytest.approx((0.8 + 0.8 + 0.5) / 3, abs=1e-15)
    report(
        3,
        "metric-exactness",
        worst < 1e-9 and exact,
        f"max |fast - oracle| = {worst:.2e}, worked example = {worked:.6f}",
    )


def test_criterion_4_classifier_recoverability():
    # bijective family: metadata determines the cluster; 100% held-out accuracy
    bijective_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 9))
        vocab_extra = int(rng.integers(2, 20))
        y = rng.integers(0, n_classes, 900)
        records = [
            {"g": f"g{y[i]}", "noise": f"n{rng.integers(0, vocab_extra)}"}
            for i in range(900)
        ]
        vocab, rows = encoded(("g", "noise"), records)
        ts = TrainingSet(rows=rows[:700], labels=y[:700], dimension=vocab.dimension)
        model = train(ts, vocab, BoostingParams(rounds=40), seed=seed)
        labels, _ = classify_batch(model, records[700:])
        if (labels == y[700:]).mean() < 1.0:
            bijective_ok = False
    # label-shuffled data: accuracy tracks the majority-class rate
    accs, majors = [], []
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        n = 800
        y = rng.integers(0, 2, n)
        records = [
            {"g": f"g{rng.integers(0, 40)}", "noise": f"n{rng.integers(0, 40)}"}
            for _ in range(n)
        ]
        vocab, rows = encoded(("g", "noise"), records)
        ts = TrainingSet(rows=rows[:640], labels=y[:640], dimension=vocab.dimension)
        model = train(ts, vocab, BoostingParams(rounds=40), seed=seed)
        labels, _ = classify_batch(model, records[640:])
        accs.append(float((labels == y[640:]).mean()))
        counts = np.bincount(y[640:])
        majors.append(float(counts.max() / counts.sum()))
    gap = abs(float(np.mean(accs)) - float(np.mean(majors)))
    report(
        4,
        "classifier-recoverability",
        bijective_ok and gap <= 0.05,
        f"bijective 10/10 exact = {bijective_ok}, shuffled |acc - majority| = {gap:.3f}",
    )


def test_criterion_5_end_to_end_prediction(tmp_path):
    start = time.time()
    train_ds, _, centers = make_blob_trace(10_000, 5, seed=41, metadata_noise=0.02)
    holdout_ds, _, _ = make_blob_trace(2_000, 5, seed=42, centers=centers, id_prefix="h")
    trace = tmp_path / "trace.csv"
    write_trace(train_ds, trace)
    holdout = tmp_path / "holdout.csv"
    write_trace(holdout_ds, holdout)
    descriptor = tmp_path / "descriptor.json"
    artifacts.write_json(descriptor, schema_for(train_ds))
    config = RunConfig.from_json(
        {
            "trace": str(trace),
            "descriptor": str(descriptor),
            "output_dir": str(tmp_path / "out"),
            "seed": 41,
            "grid": {
                "algorithms": ["hdbscan"],
                "transforms": ["power"],
                "distances": ["euclidean"],
                "min_points": [50],
            },
            "acquires": {"optimal_cluster_count": 5},
            "prediction": {"kind": "skew_conditional", "quantile": 0.05, "skew_threshold": 1.0},
        }
    )
    build = run_build(config)
    rmse = run_evaluate(config, holdout)
    elapsed = time.time() - start
    fraction = rmse.fraction_below_50
    report(
        5,
        "end-to-end-prediction",
        fraction >= 0.90 and elapsed < 60.0,
        f"{len(build.profiles.groups)} profiles, fraction_below_50 = {fraction:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_feedback_loop():
    train_ds, stream = make_drift_pair(6_000, 5_000, 5_000, n_clusters=5, seed=17)
    grid = GridSpec(
        algorithms=("hdbscan",), transforms=("power",),
        distances=("euclidean",), min_points=(50,),
    )
    _, profiles, _ = grid_search(train_ds, grid, optimal_cluster_count=5, seed=17)
    ts, vocab = build_training_set(train_ds, profiles)
    model = train(ts, vocab, BoostingParams(rounds=60), seed=17)
    regen = ReclusterSpec(
        optimal_cluster_count=5, grid=grid,
        classifier_params=BoostingParams(rounds=60), seed=17,
    )
    cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.1, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=1_000, tau_quality=0.5, min_events_between_triggers=1_000,
    )
    result = run_feedback(stream, model, profiles, cfg, regen, PredictionPolicy(), train_ds)
    adopted = [tr for tr in result.triggers if tr.adopted]
    main_ok = bool(adopted)
    detail = "no adoption"
    if adopted:
        last = adopted[-1]
        post_rate = last.violations_after / last.events_after
        main_ok = (
            last.acquires_after > cfg.tau_quality
            and post_rate < last.window_rate_before
        )
        detail = (
            f"{len(result.triggers)} trigger(s), acquires={last.acquires_after:.3f}, "
            f"rate {last.window_rate_before:.3f} -> {post_rate:.4f}"
        )

    # degenerate threshold: tau_quality = inf means zero adoptions, exactly
    small_train, small_stream = make_drift_pair(1_200, 600, 600, n_clusters=3, seed=18)
    small_grid = GridSpec(
        algorithms=("hdbscan",), transforms=("power",),
        distances=("euclidean",), min_points=(25,),
    )
    _, small_profiles, _ = grid_search(small_train, small_grid, optimal_cluster_count=3, seed=18)
    sts, svocab = build_training_set(small_train, small_profiles)
    small_model = train(sts, svocab, BoostingParams(rounds=25), seed=18)
    inf_cfg = FeedbackConfig(
        delta=DeltaSpec(mode="relative", default=0.5),
        tau_v=0.1, tau_o=0.9, tau_f=0.5, decay=1e-12,
        window=250, tau_quality=math.inf, min_events_between_triggers=300,
    )
    small_regen = ReclusterSpec(
        optimal_cluster_count=3, grid=small_grid,
        classifier_params=BoostingParams(rounds=25), seed=18,
    )
    inf_result = run_feedback(
        small_stream, small_model, small_profiles, inf_cfg, small_regen,
        PredictionPolicy(), small_train,
    )
    degenerate_ok = (
        len(inf_result.triggers) >= 1
        and inf_result.adopted_count == 0
        and inf_result.final_profiles is small_profiles
    )

    # trigger monotonicity: a new violated event never turns fire off
    # (each random event is followed by a violated one at the same time)
    mono_cfg = FeedbackConfig(tau_v=0.3, tau_o=1.0, tau_f=1e-9, decay=1e-12, window=100)
    rng = np.random.default_rng(0)
    violated = np.ones(600, dtype=bool)
    violated[::2] = rng.random(300) < 0.5
    times = np.repeat(np.arange(300), 2)
    fronts = window_fronts(times, mono_cfg, 0)
    stalest = min(g.last_update for g in small_profiles.groups)

    violations = np.concatenate(([0], np.cumsum(violated)))

    def fires(i):
        return next_trigger(violations[: i + 2], np.zeros(i + 2, dtype=np.int64), times, fronts,
                            stalest, mono_cfg, 0, None, i) is not None

    monotone_ok = all(fires(i + 1) for i in range(0, 600, 2) if fires(i))
    report(
        6,
        "feedback-loop",
        main_ok and degenerate_ok and monotone_ok,
        f"{detail}; inf-quality adoptions = {inf_result.adopted_count}; "
        f"monotone = {monotone_ok}",
    )


def test_criterion_7_hopkins_convention():
    clustered_scores = []
    uniform_scores = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        blobs = np.vstack(
            [rng.normal(c, 0.05, size=(167, 2)) for c in [(0, 0), (5, 5), (10, 0)]]
        )
        m = FeatureMatrix(rows=blobs, feature_names=("a", "b"))
        clustered_scores.append(hopkins(m, 0.1, seed=seed).score)
        uni = rng.uniform(0, 1, size=(500, 2))
        m2 = FeatureMatrix(rows=uni, feature_names=("a", "b"))
        uniform_scores.append(hopkins(m2, 0.1, seed=seed).score)
    ok = max(clustered_scores) < 0.15 and min(uniform_scores) >= 0.3
    report(
        7,
        "hopkins-convention",
        ok,
        f"clustered max = {max(clustered_scores):.4f}, "
        f"uniform min = {min(uniform_scores):.4f} over 50 seeds",
    )


def test_criterion_8_reproducibility(tmp_path):
    ds, _, _ = make_blob_trace(800, 3, seed=23, metadata_noise=0.05)
    trace = tmp_path / "trace.csv"
    write_trace(ds, trace)
    descriptor = tmp_path / "descriptor.json"
    artifacts.write_json(descriptor, schema_for(ds))
    doc = {
        "trace": str(trace),
        "descriptor": str(descriptor),
        "seed": 23,
        "grid": {
            "algorithms": ["hdbscan"],
            "transforms": ["power", "standard"],
            "distances": ["euclidean"],
            "min_points": [20],
        },
        "acquires": {"optimal_cluster_count": 3},
        "classifier": {
            "rounds": 30, "learning_rate": 0.3, "max_depth": 6,
            "min_child_weight": 1.0, "l2": 1.0,
        },
    }
    outputs = []
    for run in ("a", "b"):
        cfg = dict(doc, output_dir=str(tmp_path / run))
        run_build(RunConfig.from_json(cfg))
        outputs.append(tmp_path / run)
    identical = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("profiles.json", "model.json", "gridsearch.csv", "build-report.json")
    )
    report(8, "reproducibility", identical, "two builds, four artifacts compared byte-wise")

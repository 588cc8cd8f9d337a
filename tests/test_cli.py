import io
import json
import math

import pytest
from oracles import slow_forest_probabilities
from rows import rows_of

from workload_profiler import artifacts, pipeline
from workload_profiler.boosting import BoostingParams
from workload_profiler.classifier import ClassifierModel, classify_batch, encode_records
from workload_profiler.cli import CLASSIFY_CHUNK, main
from workload_profiler.errors import SchemaError
from workload_profiler.feedback import FeedbackConfig
from workload_profiler.predictor import PredictionPolicy, predict
from workload_profiler.profiles import ProfileSet
from workload_profiler.synth import make_blob_trace, make_drift_pair
from workload_profiler.trace_model import schema_for, write_trace

BOOST = {"rounds": 25, "learning_rate": 0.3, "max_depth": 6, "min_child_weight": 1.0, "l2": 1.0}


def write_inputs(tmp_path, n=600, k=3, seed=0):
    ds, _, centers = make_blob_trace(n, k, seed=seed, metadata_noise=0.02)
    trace = tmp_path / "trace.csv"
    write_trace(ds, trace)
    descriptor = tmp_path / "descriptor.json"
    artifacts.write_json(descriptor, schema_for(ds))
    return ds, centers, trace, descriptor


def write_config(tmp_path, trace, descriptor, out, k=3, seed=11, extra=None):
    doc = {
        "trace": str(trace),
        "descriptor": str(descriptor),
        "output_dir": str(out),
        "seed": seed,
        "grid": {
            "algorithms": ["hdbscan"],
            "transforms": ["power"],
            "distances": ["euclidean"],
            "min_points": [20],
        },
        "acquires": {"optimal_cluster_count": k},
        "classifier": BOOST,
        "prediction": {"kind": "skew_conditional", "quantile": 0.05, "skew_threshold": 1.0},
        "feedback": {
            "delta": {"mode": "relative", "default": 0.5},
            "tau_v": 0.2, "tau_o": 0.9, "tau_f": 0.5, "decay": 1e-12,
            "window": 250, "window_mode": "events", "tau_quality": 0.5,
            "min_events_between_triggers": 250,
        },
        "build_timestamp": 0,
    }
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    artifacts.write_json(path, doc)
    return path


def test_build_writes_artifacts(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    for name in ("profiles.json", "model.json", "gridsearch.csv", "build-report.json"):
        assert (out / name).exists(), name
    report = artifacts.read_json(out / "build-report.json")
    assert report["n_workloads"] == len(ds)
    assert report["winner_metrics"]["n_clusters"] == 3
    assert report["hopkins"]["score"] < 0.15
    assert report["validation_report"]["accuracy"] > 0.9
    profiles_doc = artifacts.read_json(out / "profiles.json")
    assert len(profiles_doc["groups"]) == 3
    # the keys of records written as their dataclass fields
    assert set(report["hopkins"]) == {"score", "sample_size", "seed"}
    assert set(report["validation_report"]) == {"per_class", "accuracy", "macro_avg",
                                                "weighted_avg"}
    assert set(report["winner"]) == set(profiles_doc["config"]) == {
        "algorithm", "transform", "distance", "min_points", "eps", "seed"}
    assert set(profiles_doc["transform_spec"]) == {"kind", "feature_names", "params"}
    assert {key for group in profiles_doc["groups"] for stats in group["stats"].values()
            for key in stats} == {"percentiles", "mean", "median", "std", "skewness"}
    model_doc = artifacts.read_json(out / "model.json")
    assert set(model_doc["hyperparams"]) == {"rounds", "learning_rate", "max_depth",
                                             "min_child_weight", "l2"}
    assert set(model_doc["vocabulary"]) == {"feature_names", "categories"}


def test_build_reproducible_byte_identical(tmp_path):
    _, _, trace, descriptor = write_inputs(tmp_path, seed=1)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    c1 = write_config(tmp_path, trace, descriptor, out1)
    assert main(["build", "--config", str(c1)]) == 0
    assert main(["build", "--config", str(c1), "--out", str(out2)]) == 0
    for name in ("profiles.json", "model.json", "gridsearch.csv", "build-report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_trace_with_no_valid_rows_exit_code(tmp_path):
    trace = tmp_path / "bad.csv"
    trace.write_text("id,app,cpu_usage\nw1,a,\nw2,b,\n", encoding="utf-8")
    descriptor = tmp_path / "d.json"
    artifacts.write_json(
        descriptor, {"columns": {"id": "id", "app": "metadata", "cpu_usage": "runtime"}}
    )
    config = write_config(tmp_path, trace, descriptor, tmp_path / "out")
    assert main(["build", "--config", str(config)]) == 5  # zero-valid-rows family


def test_no_viable_config_exit_code(tmp_path):
    _, _, trace, descriptor = write_inputs(tmp_path, n=80)
    config = write_config(
        tmp_path, trace, descriptor, tmp_path / "out",
        extra={"grid": {
            "algorithms": ["hdbscan"], "transforms": ["standard"],
            "distances": ["euclidean"], "min_points": [5000],
        }},
    )
    assert main(["build", "--config", str(config)]) == 7


def test_classify_jsonl(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    capsys.readouterr()

    # Three chunks of non-blank lines. With the blank line 11 the first chunk
    # ends at line CLASSIFY_CHUNK + 1, so malformed lines sit on both sides
    # of that boundary; every fifth line has an unseen zone.
    n_lines = 2 * CLASSIFY_CHUNK + 7
    bad = {
        1: '{"id": "broken", "metadata": {"app": "a0"}}',  # missing features
        CLASSIFY_CHUNK: "not json at all",
        CLASSIFY_CHUNK + 1: '{"id": "no-metadata"}',
        CLASSIFY_CHUNK + 2: "{",
        n_lines + 1: "[still not",
    }
    blank = 11  # skipped, but later lines keep their file line numbers
    lines, good = [], {}
    records = rows_of(ds)
    for line_no in range(1, n_lines + 2):
        if line_no == blank:
            lines.append("")
        elif line_no in bad:
            lines.append(bad[line_no])
        else:
            w = records[line_no % len(ds)]
            metadata = dict(w.metadata, zone="never-seen") if line_no % 5 == 0 else w.metadata
            good[line_no] = (f"line{line_no}", metadata)
            lines.append(json.dumps({"id": f"line{line_no}", "metadata": metadata}))
    inp = tmp_path / "batch.jsonl"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")

    code = main([
        "classify", "--model", str(out / "model.json"),
        "--profiles", str(out / "profiles.json"), "--input", str(inp),
    ])
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == n_lines  # order preserved, errors inline
    model_doc = artifacts.read_json(out / "model.json")
    for line_no, row in zip([n for n in range(1, n_lines + 2) if n != blank], rows):
        if line_no in bad:
            assert set(row) == {"line", "error"} and row["line"] == line_no
            continue
        wid, metadata = good[line_no]
        assert set(row) == {"id", "label", "probs", "predicted"}
        assert row["id"] == wid
        want = slow_forest_probabilities(model_doc, metadata)
        assert row["probs"] == {str(c): p for c, p in want.items()}
        assert row["label"] == max(want, key=want.get)


def test_build_validation_predictions_equal_slow_oracle(tmp_path, monkeypatch):
    routed, reported = [], []
    real_route, real_report = pipeline.classify_encoded, pipeline.class_report

    def route(model, rows):
        routed.extend(rows.tolist())
        return real_route(model, rows)

    def report(predicted, actual):
        reported.extend(predicted)
        return real_report(predicted, actual)

    monkeypatch.setattr(pipeline, "classify_encoded", route)
    monkeypatch.setattr(pipeline, "class_report", report)
    _, _, trace, descriptor = write_inputs(tmp_path)
    config = write_config(tmp_path, trace, descriptor, tmp_path / "out")
    result = pipeline.run_build(pipeline.RunConfig.load(config))

    assert routed and len(reported) == len(routed)
    doc = json.loads(json.dumps(artifacts.jsonable(result.model)))
    metadata = [w.metadata for w in rows_of(result.dataset)]
    metadata_of = dict(zip(map(tuple, encode_records(result.model, metadata).tolist()), metadata))
    for row, label in zip(routed, reported):
        want = slow_forest_probabilities(doc, metadata_of[tuple(row)])
        assert label == max(want, key=want.get)


def test_evaluate_headline(tmp_path, capsys):
    ds, centers, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    holdout_ds, _, _ = make_blob_trace(200, 3, seed=5, centers=centers, id_prefix="h")
    holdout = tmp_path / "holdout.csv"
    write_trace(holdout_ds, holdout)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config), "--holdout", str(holdout)]) == 0
    printed = capsys.readouterr().out
    assert "fraction_below_50=" in printed
    assert float(printed.split("=")[1]) >= 0.9
    for name in ("rmse-report.json", "rmse-ecdf.csv", "rmse-boxplot.csv"):
        assert (out / name).exists()


def test_evaluate_empty_holdout_exit_code(tmp_path):
    _, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "id,app,owner,zone,cpu_usage,gpu_usage,mem_usage,duration,submitted_at\n",
        encoding="utf-8",
    )
    assert main(["evaluate", "--config", str(config), "--holdout", str(empty)]) == 11


def test_evaluate_missing_artifacts_exit_code(tmp_path):
    _, _, trace, descriptor = write_inputs(tmp_path)
    config = write_config(tmp_path, trace, descriptor, tmp_path / "never-built")
    assert main(["evaluate", "--config", str(config), "--holdout", str(trace)]) == 10


def test_feedback_command(tmp_path, capsys):
    train_ds, stream_ds = make_drift_pair(1200, 600, 600, n_clusters=3, seed=6)
    trace = tmp_path / "trace.csv"
    write_trace(train_ds, trace)
    descriptor = tmp_path / "descriptor.json"
    artifacts.write_json(descriptor, schema_for(train_ds))
    stream = tmp_path / "stream.csv"
    write_trace(stream_ds, stream)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["feedback", "--config", str(config), "--stream", str(stream)]) == 0
    printed = capsys.readouterr().out
    assert "adopted" in printed
    report = artifacts.read_json(out / "feedback-report.json")
    assert report["adopted_count"] >= 1
    assert {key for trigger in report["triggers"] for key in trigger} == {
        "event_index", "t", "causes", "acquires_before", "acquires_after", "adopted",
        "n_clusters", "window_rate_before", "violations_after", "events_after", "reason"}
    assert (out / "violations.csv").exists()
    assert (out / "profiles-post.json").exists()
    assert (out / "model-post.json").exists()


def test_pinned_recluster_config_is_the_adopted_combination(tmp_path, capsys):
    train_ds, stream_ds = make_drift_pair(1200, 600, 600, n_clusters=3, seed=6)
    trace, stream = tmp_path / "trace.csv", tmp_path / "stream.csv"
    write_trace(train_ds, trace)
    write_trace(stream_ds, stream)
    descriptor = tmp_path / "descriptor.json"
    artifacts.write_json(descriptor, schema_for(train_ds))
    out = tmp_path / "out"
    pinned = {"algorithm": "hdbscan", "transform": "standard", "distance": "manhattan",
              "min_points": 30}
    config = write_config(tmp_path, trace, descriptor, out, extra={"recluster_config": pinned})
    assert main(["build", "--config", str(config)]) == 0
    assert main(["feedback", "--config", str(config), "--stream", str(stream)]) == 0
    capsys.readouterr()
    assert artifacts.read_json(out / "feedback-report.json")["adopted_count"] >= 1
    built = artifacts.read_json(out / "profiles.json")["config"]
    assert built["transform"] == "power" and built["distance"] == "euclidean"
    # the adopted profiles come from the pinned combination, with the run seed
    post = artifacts.read_json(out / "profiles-post.json")["config"]
    assert post == {**pinned, "eps": None, "seed": 11}


def test_hopkins_command(tmp_path, capsys):
    _, _, trace, descriptor = write_inputs(tmp_path)
    assert main(["hopkins", "--trace", str(trace), "--descriptor", str(descriptor)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["score"] <= 1.0
    assert doc["score"] < 0.15  # blob data clusters


@pytest.mark.parametrize("bucketize", [5, [["app"]], "app"], ids=["number", "nested-list", "text"])
def test_descriptor_bucketize_that_is_not_a_list_of_names_exits_3(tmp_path, capsys, bucketize):
    _, _, trace, descriptor = write_inputs(tmp_path, n=200)
    artifacts.write_json(descriptor, {**artifacts.read_json(descriptor), "bucketize": bucketize})
    config = write_config(tmp_path, trace, descriptor, tmp_path / "out")
    for argv in (["hopkins", "--trace", str(trace), "--descriptor", str(descriptor)],
                 ["build", "--config", str(config)]):
        capsys.readouterr()
        assert main(argv) == 3, argv
        assert f"invalid descriptor {descriptor}: bucketize" in capsys.readouterr().err


def test_sample_command(tmp_path, capsys):
    _, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "sampled.csv"
    code = main([
        "sample", "--trace", str(trace), "--descriptor", str(descriptor),
        "--stratify-on", "app", "--target", "100", "--out", str(out),
    ])
    assert code == 0
    assert out.exists() and out.with_suffix(".descriptor.json").exists()
    assert len(out.read_text().strip().splitlines()) == 101  # header + 100 rows


def test_out_env_override(tmp_path, monkeypatch):
    _, _, trace, descriptor = write_inputs(tmp_path, n=300)
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("WORKLOAD_PROFILER_OUT", str(env_out))
    config = write_config(tmp_path, trace, descriptor, tmp_path / "ignored")
    assert main(["build", "--config", str(config)]) == 0
    assert (env_out / "profiles.json").exists()


def test_config_requires_seed(tmp_path):
    _, _, trace, descriptor = write_inputs(tmp_path, n=300)
    doc = {"trace": str(trace), "descriptor": str(descriptor)}
    config = tmp_path / "c.json"
    artifacts.write_json(config, doc)
    assert main(["build", "--config", str(config)]) == 12


def test_single_profile_build_exit_code(tmp_path):
    # one blob clusters into one profile: no classifier can be trained
    _, _, trace, descriptor = write_inputs(tmp_path, n=200, k=1)
    config = write_config(tmp_path, trace, descriptor, tmp_path / "out", k=1)
    assert main(["build", "--config", str(config)]) == 9


def test_config_rejects_unstored_prediction_quantile(tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid_search ran on a bad config")

    monkeypatch.setattr(pipeline, "grid_search", no_grid)
    _, _, trace, descriptor = write_inputs(tmp_path, n=300)
    # each is rejected with the config exit code before any clustering work
    for extra in (
        {"prediction": {"kind": "fixed_quantile", "quantile": 0.17}},
        {"acquires": {"optimal_cluster_count": 3, "weights": [0.5, 0.5, 0.5]}},
        {"acquires": {"optimal_cluster_count": 3, "weights": [1.0, 0.0]}},
        {"acquires": {"optimal_cluster_count": 0}},
        {"validation_fraction": 1.0},
        {"feedback": {"min_events_between_triggers": -1}},
        {"feedback": {"min_events_between_triggers": "often"}},
    ):
        config = write_config(tmp_path, trace, descriptor, tmp_path / "out", extra=extra)
        assert main(["build", "--config", str(config)]) == 12, extra


def test_config_rejects_fractional_counts_and_bad_classifier_params(tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid_search ran on a bad config")

    monkeypatch.setattr(pipeline, "grid_search", no_grid)
    _, _, trace, descriptor = write_inputs(tmp_path, n=300)
    base = artifacts.read_json(write_config(tmp_path, trace, descriptor, tmp_path / "out"))
    grid = {**base["grid"], "min_points": [20.5]}
    pinned = {"algorithm": "hdbscan", "transform": "power", "distance": "euclidean"}
    bad = [
        {"seed": 1.7}, {"seed": True}, {"build_timestamp": 0.5},
        {"acquires": {"optimal_cluster_count": 3.5}},
        {"feedback": {"window": 250.9}}, {"feedback": {"min_events_between_triggers": 2.5}},
        {"feedback": {"decay": math.nan}}, {"feedback": {"tau_quality": math.nan}},
        {"grid": grid}, {"grid": {**grid, "min_points": [1]}},
        {"recluster_config": {**pinned, "min_points": 20.5}},
    ]
    # each rejected value allocates nothing: a forest is sized only after parsing
    for key, value in (("rounds", -2), ("rounds", 2.5), ("max_depth", -1), ("max_depth", 11),
                       ("max_depth", 6.5), ("learning_rate", math.nan), ("learning_rate", 0.0),
                       ("learning_rate", math.inf), ("l2", -1.0), ("l2", math.nan),
                       ("min_child_weight", -1.0), ("min_child_weight", math.inf)):
        bad.append({"classifier": {**base["classifier"], key: value}})
    config = tmp_path / "bad.json"
    for extra in bad:
        config.write_text(json.dumps({**base, **extra}), encoding="utf-8")  # NaN stays NaN
        assert main(["build", "--config", str(config)]) == 12, extra


def test_config_rejects_a_forest_past_the_node_bound_before_reading_the_trace(tmp_path):
    # rounds x (2^(max_depth+1) - 1) x 2 classes >= 2^30 could never be grown;
    # the trace path does not exist, so exit 12 (not 4) shows nothing was read
    base = write_config(tmp_path, tmp_path / "absent.csv", tmp_path / "absent.json",
                        tmp_path / "out")
    doc = artifacts.read_json(base)
    config = tmp_path / "big.json"
    for depth in (0, 6, 9, 10):
        least = -(-(2 ** 30) // (2 * (2 ** (depth + 1) - 1)))  # the fewest rounds refused
        for rounds, code in ((least, 12), (least - 1, 4), (2 ** 40, 12)):
            classifier = {**BOOST, "rounds": rounds, "max_depth": depth}
            artifacts.write_json(config, {**doc, "classifier": classifier})
            assert main(["build", "--config", str(config)]) == code, (rounds, depth)


PINNED_DBSCAN = {"algorithm": "dbscan", "transform": "power", "distance": "euclidean",
                 "min_points": 10}


@pytest.mark.parametrize("extra", [
    {"hopkins_fraction": 0}, {"hopkins_fraction": 2},
    {"stats_percentiles": [5, 150]}, {"stats_percentiles": [5, math.nan]},
    {"grid": {"algorithms": ["dbscan"], "eps": [-1]}},
    {"grid": {"algorithms": ["dbscan"], "eps": ["x"]}},
    {"classifier": {**BOOST, "min_child_weight": 0, "l2": 0.0}},
    {"prediction": "x"}, {"acquires": []}, {"feedback": "x"}, {"feedback": {"delta": "x"}},
    {"grid": []}, {"grid": "x"}, {"grid": {"min_points": "25"}}, {"stats_percentiles": "50"},
    {"predict_features": "cpu_usage"}, {"include_member_ids": "no"}, {"alt_normalization": 1},
    {"grid": {"algorithms": ["dbscan"], "eps": [True]}},
    {"recluster_config": {**PINNED_DBSCAN, "eps": True}},
    {"recluster_config": {**PINNED_DBSCAN, "eps": "x"}},
    {"recluster_config": {**PINNED_DBSCAN, "eps": "nan"}},
    {"recluster_config": {**PINNED_DBSCAN, "eps": [0.3]}},
    {"hopkins_fraction": True}, {"validation_fraction": False}, {"feedback": {"tau_v": True}},
    {"prediction": {"skew_threshold": True}},
    {"acquires": {"optimal_cluster_count": 3, "weights": [True, 0, 0]}},
    {"stats_percentiles": [5, True]}, {"feedback": {"delta": {"thresholds": {"cpu_usage": True}}}},
    {"classifier": {**BOOST, "learning_rate": True}},
], ids=["hopkins-0", "hopkins-2", "percentile-150", "percentile-nan", "eps-negative", "eps-text",
        "unregularised-gain", "prediction-text", "acquires-list", "feedback-text", "delta-text",
        "grid-list", "grid-text", "min-points-text", "percentiles-text", "features-text",
        "member-ids-text", "alt-normalization-number", "eps-boolean", "recluster-eps-boolean",
        "recluster-eps-text", "recluster-eps-nan", "recluster-eps-list", "hopkins-boolean",
        "validation-fraction-boolean", "tau-v-boolean", "skew-threshold-boolean",
        "weights-boolean", "percentile-boolean", "delta-threshold-boolean",
        "learning-rate-boolean"])
def test_config_rejects_out_of_range_values_before_reading_the_trace(tmp_path, extra):
    # the trace path does not exist, so exit 12 (not 4) shows nothing was read
    doc = artifacts.read_json(write_config(tmp_path, tmp_path / "absent.csv",
                                           tmp_path / "absent.json", tmp_path / "out"))
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["build", "--config", str(config)]) == 4
    bad = {**doc, **extra}
    if isinstance(extra.get("grid"), dict):
        bad["grid"] = {**doc["grid"], **extra["grid"]}
    config.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["build", "--config", str(config)]) == 12


@pytest.mark.parametrize("command", ["evaluate", "feedback"])
def test_predict_features_must_name_runtime_columns_before_any_trace_is_read(tmp_path, command):
    _, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    absent = str(tmp_path / "absent.csv")
    flag = "--holdout" if command == "evaluate" else "--stream"
    for features, code in ((["cpu_usage"], 4), (["cpu_usage", "nope"], 12)):
        config = write_config(tmp_path, absent, descriptor, out,
                              extra={"predict_features": features})
        assert main([command, "--config", str(config), flag, absent]) == code, features


def test_config_rejects_nan_and_negative_delta_thresholds(tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid_search ran on a bad config")

    monkeypatch.setattr(pipeline, "grid_search", no_grid)
    _, _, trace, descriptor = write_inputs(tmp_path, n=300)
    base = artifacts.read_json(write_config(tmp_path, trace, descriptor, tmp_path / "out"))
    config = tmp_path / "bad.json"
    for delta in ({"default": "nan"}, {"default": -0.5}, {"thresholds": {"cpu_usage": math.nan}}):
        config.write_text(json.dumps({**base, "feedback": {"delta": delta}}), encoding="utf-8")
        assert main(["build", "--config", str(config)]) == 12, delta


def test_config_integral_values_parse_as_ints(tmp_path):
    doc = {"trace": "t.csv", "descriptor": "d.json", "seed": "7", "build_timestamp": 3.0,
           "grid": {"min_points": [20.0, "30"]}, "acquires": {"optimal_cluster_count": 4.0},
           "classifier": {**BOOST, "rounds": "5", "max_depth": 10.0},
           "feedback": {"window": "250", "min_events_between_triggers": 0.0}}
    config = pipeline.RunConfig.from_json(doc)
    values = (config.seed, config.build_timestamp, *config.grid.min_points,
              config.optimal_cluster_count, config.classifier_params.rounds,
              config.classifier_params.max_depth, config.feedback.window,
              config.feedback.min_events_between_triggers)
    assert values == (7, 3, 20, 30, 4, 5, 10, 250, 0)
    assert all(type(v) is int for v in values)


def test_config_sections_keep_the_defaults_of_the_keys_they_omit():
    doc = {"trace": "t.csv", "descriptor": "d.json", "seed": 1, "classifier": {"rounds": 10},
           "acquires": {"weights": [0.5, 0.25, 0.25]}, "feedback": {"delta": {"default": None}}}
    config = pipeline.RunConfig.from_json(doc)
    assert config.classifier_params == BoostingParams(rounds=10)
    assert (config.optimal_cluster_count, config.acquires_weights) == (10, (0.5, 0.25, 0.25))
    assert config.feedback == FeedbackConfig()  # a null delta default is no default threshold


def test_recluster_eps_parses_like_the_grid_eps():
    doc = {"trace": "t.csv", "descriptor": "d.json", "seed": 1,
           "grid": {"algorithms": ["dbscan"], "eps": ["0.3"]},
           "recluster_config": {**PINNED_DBSCAN, "eps": "0.3"}}
    config = pipeline.RunConfig.from_json(doc)
    assert config.grid.eps == config.recluster_config.eps == (0.3,)


def test_custom_stats_percentiles(tmp_path):
    _, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(
        tmp_path, trace, descriptor, out,
        extra={
            "stats_percentiles": [10, 50, 90],
            "prediction": {"kind": "fixed_quantile", "quantile": 0.1},
        },
    )
    assert main(["build", "--config", str(config)]) == 0
    profiles_doc = artifacts.read_json(out / "profiles.json")
    stored = set(profiles_doc["groups"][0]["stats"]["cpu_usage"]["percentiles"])
    assert stored == {"10.0", "50.0", "90.0"}


def test_classify_policy_flag(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    capsys.readouterr()
    inp = tmp_path / "one.jsonl"
    w = rows_of(ds)[0]
    inp.write_text(json.dumps({"id": w.id, "metadata": w.metadata}) + "\n", encoding="utf-8")

    def run(policy):
        args = [
            "classify", "--model", str(out / "model.json"),
            "--profiles", str(out / "profiles.json"), "--input", str(inp),
        ]
        if policy:
            args += ["--policy", json.dumps(policy)]
        assert main(args) == 0
        return json.loads(capsys.readouterr().out.strip())

    low = run({"kind": "fixed_quantile", "quantile": 0.05})
    high = run({"kind": "fixed_quantile", "quantile": 0.95})
    assert low["label"] == high["label"]
    for f in low["predicted"]:
        assert low["predicted"][f] <= high["predicted"][f]


def test_classify_output_is_strict_json_and_reports_labels_without_a_profile(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    capsys.readouterr()
    meta = [w.metadata for w in rows_of(ds)[::7]]
    ids = ["NaN", '[1, Infinity, {"a": -Infinity}]', '"plain"']
    inp = tmp_path / "ids.jsonl"
    inp.write_text(
        "".join(f'{{"id": {ids[i % 3]}, "metadata": {json.dumps(m)}}}\n' for i, m in enumerate(meta)),
        encoding="utf-8",
    )

    def classify(profiles_path):
        args = ["classify", "--model", str(out / "model.json"),
                "--profiles", str(profiles_path), "--input", str(inp)]
        assert main(args) == 0
        return [
            json.loads(line, parse_constant=lambda c: f"non-strict {c}")
            for line in capsys.readouterr().out.splitlines()
        ]

    expected_ids = [None, [1, None, {"a": None}], "plain"]
    rows = classify(out / "profiles.json")
    profiles = artifacts.read_record(ProfileSet, artifacts.read_json(out / "profiles.json"))
    for i, row in enumerate(rows):
        assert row["id"] == expected_ids[i % 3]
        group = profiles.group(row["label"])
        assert row["predicted"] == predict(group, tuple(group.stats), PredictionPolicy())

    # Drop the most common label's profile: its lines become inline errors.
    dropped = max({r["label"] for r in rows}, key=[r["label"] for r in rows].count)
    doc = artifacts.read_json(out / "profiles.json")
    doc["groups"] = [g for g in doc["groups"] if g["label"] != dropped]
    partial = tmp_path / "partial.json"
    artifacts.write_json(partial, doc)
    for line_no, (full, row) in enumerate(zip(rows, classify(partial)), start=1):
        if full["label"] == dropped:
            assert row == {"line": line_no, "error": f"'no profile group with label {dropped}'"}
        else:
            assert row == full


def test_classify_artifact_and_policy_errors_exit_with_their_codes(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    inp = tmp_path / "one.jsonl"
    w = rows_of(ds)[0]
    inp.write_text(json.dumps({"id": w.id, "metadata": w.metadata}) + "\n", encoding="utf-8")
    model, profiles = str(out / "model.json"), str(out / "profiles.json")
    missing = str(tmp_path / "nowhere.json")
    for args, code in (
        (["--model", missing], 10),
        (["--model", model, "--profiles", missing], 10),
        (["--model", model, "--policy", "{not json"], 12),
        (["--model", model, "--profiles", profiles, "--policy", '{"kind": "wat"}'], 12),
        (["--model", model, "--profiles", profiles, "--policy", "[]"], 12),
        (["--model", model, "--profiles", profiles, "--policy", '"kind"'], 12),
    ):
        capsys.readouterr()
        assert main(["classify", *args, "--input", str(inp)]) == code, args
        assert capsys.readouterr().out == ""


def test_classify_input_that_cannot_be_read_exits_4_naming_it(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    for path in (tmp_path / "nowhere.jsonl", tmp_path):  # missing, and a directory
        capsys.readouterr()
        assert main(["classify", "--model", str(out / "model.json"), "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read input {path}: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_classify_line_that_is_not_utf8_fails_alone(tmp_path, capsys, monkeypatch, via):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    good = [{"id": w.id, "metadata": w.metadata} for w in rows_of(ds)[:2]]
    bad = json.dumps({"id": "b", "metadata": good[0]["metadata"]}).encode().replace(b'"b"', b'"\xff"')
    first, last = (json.dumps(g).encode() for g in good)
    if via == "file":  # universal newlines: CR LF and a lone CR end lines
        data = first + b"\r\n" + bad + b"\r" + last + b"\n"
    else:  # split at LF only, as sys.stdin is: a lone CR stays in its line, as JSON whitespace
        data = first + b"\r\n" + bad + b"\n" + last.replace(b", ", b",\r ") + b"\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), newline="\n"))
    inp = tmp_path / "mixed.jsonl"
    inp.write_bytes(data)
    capsys.readouterr()
    assert main(["classify", "--model", str(out / "model.json"),
                 "--input", str(inp) if via == "file" else "-"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3
    assert set(rows[1]) == {"error", "line"} and rows[1]["line"] == 2
    assert rows[1]["error"].startswith("'utf-8' codec can't decode byte 0xff in position 8")
    model = ClassifierModel.from_json(artifacts.read_json(out / "model.json"))
    labels, probs = classify_batch(model, [g["metadata"] for g in good])
    keys = [str(c) for c in model.class_labels]
    assert [rows[0], rows[2]] == [
        {"id": g["id"], "label": label, "probs": dict(zip(keys, p))}
        for g, label, p in zip(good, labels.tolist(), probs.tolist())
    ]


def test_unreadable_build_artifact_exits_10_naming_the_file(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    inp = tmp_path / "one.jsonl"
    w = rows_of(ds)[0]
    inp.write_text(json.dumps({"id": w.id, "metadata": w.metadata}) + "\n", encoding="utf-8")
    broken = tmp_path / "broken-model.json"
    broken.write_text('{"broken', encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--model", str(broken), "--input", str(inp)]) == 10
    captured = capsys.readouterr()
    assert captured.out == "" and str(broken) in captured.err
    (out / "profiles.json").write_text('{"broken', encoding="utf-8")
    assert main(["feedback", "--config", str(config), "--stream", str(trace)]) == 10
    assert str(out / "profiles.json") in capsys.readouterr().err

@pytest.mark.parametrize("damage", ["format_version_2", "no_trees", "not_an_object",
                                    "too_many_nodes", "unregularised_gain",
                                    "profiles_without_groups", "profiles_eps_boolean",
                                    "profiles_unknown_distance", "profiles_unknown_transform",
                                    "profiles_mean_boolean", "learning_rate_boolean",
                                    "hyperparams_without_l2", "profiles_label_fraction",
                                    "profiles_size_boolean", "profiles_last_update_fraction",
                                    "profiles_bag_count_fraction",
                                    "profiles_distance_threshold_boolean",
                                    "profiles_created_at_fraction",
                                    "profiles_outlier_count_boolean", "class_label_fraction",
                                    "seed_boolean", "bucket_bound_boolean",
                                    "profiles_quality_string", "profiles_quality_boolean",
                                    "profiles_outlier_ids_string", "profiles_member_ids_string",
                                    "profiles_medoid_id_number", "profiles_centroid_boolean",
                                    "profiles_centroid_null", "profiles_transform_param_null",
                                    "class_labels_string", "bucket_bound_four_numbers",
                                    "bucket_bound_string", "model_without_format_version",
                                    "profiles_without_outlier_count",
                                    "profiles_without_outlier_ids"])
def test_build_artifact_that_from_json_rejects_exits_10_naming_the_file(tmp_path, capsys, damage):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    config = write_config(tmp_path, trace, descriptor, out)
    assert main(["build", "--config", str(config)]) == 0
    inp = tmp_path / "one.jsonl"
    w = rows_of(ds)[0]
    inp.write_text(json.dumps({"id": w.id, "metadata": w.metadata}) + "\n", encoding="utf-8")
    name = "profiles.json" if damage.startswith("profiles_") else "model.json"
    doc = artifacts.read_json(out / name)
    if damage == "format_version_2":
        doc["format_version"] = 2
    elif damage == "no_trees":
        del doc["trees"]
    elif damage == "not_an_object":
        doc = [doc]
    elif damage == "too_many_nodes":
        doc["hyperparams"]["rounds"] = 2 ** 30
    elif damage == "unregularised_gain":
        doc["hyperparams"].update(min_child_weight=0.0, l2=0.0)
    elif damage == "profiles_eps_boolean":
        doc["config"]["eps"] = True
    elif damage == "profiles_unknown_distance":
        doc["config"]["distance"] = "chebyshev"
    elif damage == "profiles_unknown_transform":
        doc["transform_spec"]["kind"] = "log"
    elif damage == "profiles_mean_boolean":
        doc["groups"][0]["stats"]["cpu_usage"]["mean"] = True
    elif damage == "learning_rate_boolean":
        doc["hyperparams"]["learning_rate"] = True
    elif damage == "hyperparams_without_l2":  # unlike a config, a model states every value
        del doc["hyperparams"]["l2"]
    elif damage == "profiles_label_fraction":  # int() would truncate these to a valid value
        doc["groups"][0]["label"] += 0.5
    elif damage == "profiles_size_boolean":
        doc["groups"][0]["size"] = True
    elif damage == "profiles_last_update_fraction":
        doc["groups"][0]["last_update"] += 0.5
    elif damage == "profiles_bag_count_fraction":
        bag = doc["groups"][0]["metadata_bag"]["app"]
        bag[min(bag)] += 0.9
    elif damage == "profiles_distance_threshold_boolean":
        doc["distance_threshold"] = True
    elif damage == "profiles_created_at_fraction":
        doc["created_at"] += 0.5
    elif damage == "profiles_outlier_count_boolean":
        doc["outlier_count"] = True
    elif damage == "class_label_fraction":
        doc["class_labels"][-1] += 0.5
    elif damage == "seed_boolean":
        doc["seed"] = True
    elif damage == "bucket_bound_boolean":
        doc["bucket_bounds"] = {"owner": [1.0, 2.0, True]}
    elif damage == "profiles_quality_string":  # would reach feedback-report.json
        doc["quality"] = "x"
    elif damage == "profiles_quality_boolean":
        doc["quality"] = True
    elif damage == "profiles_outlier_ids_string":  # tuple() would read ('a', 'b', 'c')
        doc["outlier_ids"] = "abc"
    elif damage == "profiles_member_ids_string":
        doc["groups"][0]["member_ids"] = "abc"
    elif damage == "profiles_medoid_id_number":
        doc["groups"][0]["medoid_id"] = 5
    elif damage == "profiles_centroid_boolean":
        doc["groups"][0]["centroid"][0] = True
    elif damage == "profiles_centroid_null":  # numpy reads null as NaN: no row is ever an outlier
        for group in doc["groups"]:
            group["centroid"][0] = None
    elif damage == "profiles_transform_param_null":
        doc["transform_spec"]["params"]["mean"][0] = None
    elif damage == "class_labels_string":  # tuple() would read (0, 1, 2)
        doc["class_labels"] = "".join(map(str, doc["class_labels"]))
    elif damage == "bucket_bound_four_numbers":  # the first three would be read
        doc["bucket_bounds"] = {"owner": [1.0, 2.0, 3.0, 4.0]}
    elif damage == "bucket_bound_string":
        doc["bucket_bounds"] = {"owner": "123"}
    elif damage == "model_without_format_version":
        del doc["format_version"]
    elif damage == "profiles_without_outlier_count":  # a default count would read silently
        del doc["outlier_count"]
    elif damage == "profiles_without_outlier_ids":
        del doc["outlier_ids"]
    else:
        del doc["groups"]
    artifacts.write_json(out / name, doc)
    commands = (
        ["classify", "--model", str(out / "model.json"), "--profiles", str(out / "profiles.json"),
         "--input", str(inp)],
        ["evaluate", "--config", str(config), "--holdout", str(trace)],
        ["feedback", "--config", str(config), "--stream", str(trace)],
    )
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 10, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"invalid build artifact {out / name}" in captured.err


def test_classify_record_missing_a_feature_fails_alone(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    records = [w.metadata for w in rows_of(ds)[:6]]
    broken = {k: v for k, v in records[2].items() if k != "owner"}
    lines = [json.dumps({"id": i, "metadata": m}) for i, m in enumerate(records)]
    lines[2] = json.dumps({"id": 2, "metadata": broken})
    inp = tmp_path / "batch.jsonl"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--model", str(out / "model.json"), "--input", str(inp)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[2] == {"line": 3, "error": "metadata record is missing feature 'owner'"}
    good = records[:2] + records[3:]
    model = ClassifierModel.from_json(artifacts.read_json(out / "model.json"))
    labels, probs = classify_batch(model, good)
    keys = [str(c) for c in model.class_labels]
    assert [r for i, r in enumerate(rows) if i != 2] == [
        {"id": i, "label": label, "probs": dict(zip(keys, p))}
        for i, label, p in zip([0, 1, 3, 4, 5], labels.tolist(), probs.tolist())
    ]


def test_classify_lines_are_canonical_json_with_probs_keys_in_string_order(tmp_path, capsys):
    # 13 profiles, so the probs keys "10".."12" sort before "2"
    ds, _, _ = make_blob_trace(1300, 13, seed=301, metadata_noise=0.02)
    trace, descriptor, out = tmp_path / "trace.csv", tmp_path / "descriptor.json", tmp_path / "out"
    write_trace(ds, trace)
    artifacts.write_json(descriptor, schema_for(ds))
    config = write_config(tmp_path, trace, descriptor, out, k=13, extra={
        "classifier": dict(BOOST, rounds=8, max_depth=4)})
    assert main(["build", "--config", str(config)]) == 0
    labels = artifacts.read_json(out / "model.json")["class_labels"]
    assert labels == list(range(13))
    keys = sorted(map(str, labels))
    assert keys[:4] == ["0", "1", "10", "11"]

    nested = '{"z": [1, NaN, "\u00fc"], "a": {"y": -Infinity, "b": "\u540d"}}'
    ids = [nested, "NaN", '"pl\u00e4in"', "7", "-0.0", "null", "true", "[2, {\"b\": 1, \"a\": 0}]"]
    # str ids of every class that JSON escapes, as raw text where JSON allows it
    ids += [json.dumps(w, ensure_ascii=False) for w in (
        '"', "\\", "".join(map(chr, range(0x20))), "\x7f", "\u2028\u2029", "\U0001f600",
        'q"b\\s\x00\x1f\x7f\u2028\U0001f600')]
    ids += ['"\\ud800"', '"\\ud83d\\ude00 \\u0000"']
    lines = []
    for n, w in enumerate(rows_of(ds)[:200]):
        metadata = dict(w.metadata, zone="never-seen") if n % 6 == 1 else w.metadata
        head = "" if n % 9 == 8 else f'"id": {ids[n % len(ids)]}, '  # every ninth has no id
        lines.append("{" + head + f'"metadata": {json.dumps(metadata, ensure_ascii=n % 2 == 0)}}}')
    lines[50] = '{"id": "short", "metadata": {"app": "app1"}}'  # an inline error
    inp = tmp_path / "ids.jsonl"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = artifacts.read_json(out / "profiles.json")
    doc["groups"] = [g for g in doc["groups"] if g["label"] != 10]
    artifacts.write_json(tmp_path / "partial.json", doc)

    for profiles, dropped in ((["--profiles", str(out / "profiles.json")], False), ([], False),
                              (["--profiles", str(tmp_path / "partial.json")], True)):
        capsys.readouterr()
        assert main(["classify", "--model", str(out / "model.json"), *profiles,
                     "--input", str(inp)]) == 0
        text = capsys.readouterr().out.splitlines()
        assert len(text) == len(lines)
        rows = [json.loads(line) for line in text]
        assert text == [json.dumps(row, sort_keys=True) for row in rows]
        assert rows[50] == {"line": 51, "error": "metadata record is missing feature 'owner'"}
        errors = [n for n, row in enumerate(rows) if n != 50 and "error" in row]
        assert len(errors) > 0 if dropped else errors == []
        assert all(rows[n]["error"] == "'no profile group with label 10'" for n in errors)
        for n, (line, row) in enumerate(zip(text, rows)):
            if "error" in row:
                continue
            assert list(row["probs"]) == keys
            assert ("predicted" in row) == bool(profiles)
            if n % 9 != 8 and n % len(ids) == 0:
                assert row["id"] == {"a": {"b": "\u540d", "y": None}, "z": [1, None, "\u00fc"]}
                assert line.startswith('{"id": {"a": {"b": "\\u540d", "y": null}, "z": [1, null, ')
            if n % 9 != 8 and ids[n % len(ids)] == '"\\ud800"':
                assert line.startswith('{"id": "\\ud800", "label": ')


def test_classify_lines_that_are_not_objects_fail_alone(tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    model = ClassifierModel.from_json(artifacts.read_json(out / "model.json"))
    good = [w.metadata for w in rows_of(ds)[:2]]
    bad = {
        2: ("[1, 2]", "record is not a JSON object"),
        3: ("7", "record is not a JSON object"),
        4: ('"owner"', "record is not a JSON object"),
        5: ("null", "record is not a JSON object"),
        6: ('{"id": "a", "metadata": null}', "metadata record is not an object"),
        7: ('{"id": "b", "metadata": "app owner zone"}', "metadata record is not an object"),
        8: ('{"id": "c", "metadata": ["app", "owner", "zone"]}', "metadata record is not an object"),
        9: ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        # json.loads takes this id, but its coercion to strict JSON recurses too deep
        10: ('{"id": ' + "[" * 600 + "]" * 600 + f', "metadata": {json.dumps(good[0])}}}',
             "maximum recursion depth exceeded"),
    }
    json.loads(bad[10][0])
    lines = [json.dumps({"id": 0, "metadata": good[0]})]
    lines += [line for line, _ in bad.values()]
    lines += [json.dumps({"id": 1, "metadata": good[1]})]
    inp = tmp_path / "batch.jsonl"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--model", str(out / "model.json"), "--input", str(inp)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == len(lines)
    for row, (n, (_, error)) in zip(rows[1:-1], bad.items()):
        assert set(row) == {"line", "error"} and row["line"] == n
        assert row["error"].startswith(error)
    labels, probs = classify_batch(model, good)
    keys = [str(c) for c in model.class_labels]
    assert [rows[0], rows[-1]] == [
        {"id": i, "label": label, "probs": dict(zip(keys, p))}
        for i, label, p in zip([0, 1], labels.tolist(), probs.tolist())
    ]
    with pytest.raises(SchemaError, match="not an object"):
        classify_batch(model, [good[0], None])


def test_classify_probs_of_a_model_with_a_null_leaf_are_written_as_json_dumps_writes_nan(
        tmp_path, capsys):
    ds, _, trace, descriptor = write_inputs(tmp_path, n=300)
    out = tmp_path / "out"
    assert main(["build", "--config", str(write_config(tmp_path, trace, descriptor, out))]) == 0
    model = ClassifierModel.from_json(artifacts.read_json(out / "model.json"))
    model.forest.value[0, 0] = math.nan  # model.json stores it as null
    artifacts.write_json(tmp_path / "nan-model.json", model)
    inp = tmp_path / "batch.jsonl"
    inp.write_text("".join(json.dumps({"id": w.id, "metadata": w.metadata}) + "\n"
                           for w in rows_of(ds)[:5]), encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--model", str(tmp_path / "nan-model.json"),
                 "--profiles", str(out / "profiles.json"), "--input", str(inp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert '"probs": {"0": NaN, ' in line
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_main_parses_every_call_with_one_parser_and_the_same_help_and_exit_codes(tmp_path, capsys):
    from workload_profiler.cli import build_parser

    def help_text(parse, words):
        with pytest.raises(SystemExit) as exc:
            parse([*words, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    _, _, trace, descriptor = write_inputs(tmp_path, n=200)
    fresh = build_parser.__wrapped__()  # a parser of its own, never used by main
    commands = [(), ("build",), ("classify",), ("evaluate",), ("feedback",), ("hopkins",),
                ("sample",)]
    helps = {words: help_text(fresh.parse_args, words) for words in commands}
    hopkins = ["hopkins", "--trace", str(trace), "--descriptor", str(descriptor)]
    for _ in range(3):
        for words, text in helps.items():
            assert help_text(main, words) == text
        for argv in (["bogus"], ["classify"], [*hopkins, "--fraction", "x"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "usage: workload-profiler" in capsys.readouterr().err
        assert main(hopkins) == 0 and 0.0 <= json.loads(capsys.readouterr().out)["score"] <= 1.0
        assert main(["hopkins", "--trace", str(tmp_path / "absent.csv"),
                     "--descriptor", str(descriptor)]) == 4
        assert main(["evaluate", "--config", str(tmp_path / "absent.json"),
                     "--holdout", str(trace)]) == 12
    assert build_parser() is build_parser()

import json

import numpy as np
import pytest
from oracles import slow_forest_probabilities
from rows import block_of, encoded, rows_of

from workload_profiler import boosting
from workload_profiler.artifacts import jsonable
from workload_profiler.boosting import BoostingParams
from workload_profiler.classifier import (
    ClassifierModel,
    TrainingSet,
    build_training_set,
    classify,
    classify_batch,
    classify_encoded,
    encode_records,
    feature_importance,
    train,
)
from workload_profiler.errors import DegenerateDataError, SchemaError
from workload_profiler.preprocess import fit_transform
from workload_profiler.profiles import ClusteringConfig, build_profiles
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import runtime_matrix

FAST = BoostingParams(rounds=25)


# -------------------------------------------------------------- encoding

def test_encoded_dimension():
    vocab, _ = encoded(
        ("a", "b"),
        [{"a": "x", "b": "p"}, {"a": "y", "b": "q"}, {"a": "z", "b": "p"}],
    )
    assert vocab.dimension == 5  # 3 + 2
    assert vocab.categories["a"] == ("x", "y", "z")


def test_unknown_value_encodes_to_zero_block():
    vocab, _ = encoded(("a", "b"), [{"a": "x", "b": "p"}])
    queries = [{"a": "x", "b": "p"}, {"a": "??", "b": "p"}, {"a": "??", "b": "??"}]
    assert vocab.encode(block_of(("a", "b"), queries)).tolist() == [[0, 1], [-1, 1], [-1, -1]]
    # block columns meet the vocabulary's features by name, in any order
    assert vocab.encode(block_of(("b", "a"), queries)).tolist() == [[0, 1], [-1, 1], [-1, -1]]


def test_missing_feature_errors():
    vocab, _ = encoded(("a", "b"), [{"a": "x", "b": "p"}])
    with pytest.raises(SchemaError, match="missing feature 'b'"):
        vocab.encode(block_of(("a",), [{"a": "x"}]))


def test_column_names_are_feature_value_pairs():
    vocab, _ = encoded(("task name",), [{"task name": "ps"}, {"task name": "worker"}])
    assert vocab.column_name(0) == "task name=ps"
    assert vocab.column_name(1) == "task name=worker"


# ----------------------------------------------------------- training set

def bijective_training(n, n_classes, seed, extra_vocab=4):
    """Metadata feature 'g' determines the class; 'noise' is uninformative."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, n)
    records = [
        {"g": f"g{y[i]}", "noise": f"n{rng.integers(0, extra_vocab)}"} for i in range(n)
    ]
    vocab, rows = encoded(("g", "noise"), records)
    return TrainingSet(rows=rows, labels=y, dimension=vocab.dimension), vocab, records, y


def test_build_training_set_excludes_outliers():
    ds, labels, _ = make_blob_trace(150, 3, seed=0, outlier_fraction=0.1)
    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    config = ClusteringConfig("hdbscan", "standard", "euclidean", 2)
    profiles = build_profiles(ds, labels, config, spec, now=0)
    ts, vocab = build_training_set(ds, profiles)
    n_outliers = int(np.sum(np.asarray(labels) == -1))
    assert len(ts) == len(ds) - n_outliers
    assert vocab.dimension == ts.dimension


# ----------------------------------------------------------------- train

def test_bijective_mapping_is_learned_exactly():
    ts, vocab, records, y = bijective_training(1000, 5, seed=1)
    model = train(ts, vocab, FAST, seed=0)
    rng = np.random.default_rng(2)
    hold_y = rng.integers(0, 5, 200)
    hold = [{"g": f"g{c}", "noise": f"n{rng.integers(0, 4)}"} for c in hold_y]
    labels, probs = classify_batch(model, hold)
    assert (labels == hold_y).mean() == 1.0
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    # strong confidence on the determining value
    label, dist = classify(model, {"g": "g3", "noise": "n0"})
    assert label == 3 and dist[3] > 0.99


@pytest.mark.parametrize(
    "n_classes,vocab_extra",
    [(2, 2), (2, 50), (12, 25), (26, 2), (26, 50)],
)
def test_bijective_family_extremes(n_classes, vocab_extra):
    # corners of the supported family: 2..26 classes, noise vocab up to 50
    rng = np.random.default_rng(n_classes * 100 + vocab_extra)
    n = 60 * n_classes
    y = np.concatenate([np.full(60, c) for c in range(n_classes)])
    rng.shuffle(y)
    records = [
        {"g": f"g{y[i]}", "noise": f"n{rng.integers(0, vocab_extra)}"}
        for i in range(n)
    ]
    vocab, rows = encoded(("g", "noise"), records)
    split = int(n * 0.8)
    ts = TrainingSet(rows=rows[:split], labels=y[:split], dimension=vocab.dimension)
    model = train(ts, vocab, BoostingParams(rounds=20), seed=0)
    labels, _ = classify_batch(model, records[split:])
    assert (labels == y[split:]).mean() == 1.0


def test_single_class_rejected():
    ts, vocab, _, _ = bijective_training(50, 1, seed=3)
    with pytest.raises(DegenerateDataError):
        train(ts, vocab, FAST, seed=0)


def test_random_labels_score_near_majority():
    accs, majors = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 800
        y = rng.integers(0, 2, n)
        records = [
            {"g": f"g{rng.integers(0, 40)}", "noise": f"n{rng.integers(0, 40)}"}
            for _ in range(n)
        ]
        vocab, rows = encoded(("g", "noise"), records)
        split = int(n * 0.8)
        ts = TrainingSet(rows=rows[:split], labels=y[:split], dimension=vocab.dimension)
        model = train(ts, vocab, FAST, seed=seed)
        labels, _ = classify_batch(model, records[split:])
        accs.append((labels == y[split:]).mean())
        counts = np.bincount(y[split:])
        majors.append(counts.max() / counts.sum())
    assert abs(np.mean(accs) - np.mean(majors)) < 0.05


def test_training_row_order_invariance():
    ts, vocab, records, y = bijective_training(300, 4, seed=5)
    model_a = train(ts, vocab, FAST, seed=0)
    rng = np.random.default_rng(6)
    perm = rng.permutation(len(ts))
    ts_shuffled = TrainingSet(rows=ts.rows[perm], labels=ts.labels[perm], dimension=ts.dimension)
    model_b = train(ts_shuffled, vocab, FAST, seed=0)
    _, probs_a = classify_batch(model_a, records[:50])
    _, probs_b = classify_batch(model_b, records[:50])
    np.testing.assert_array_equal(probs_a, probs_b)


def test_classify_is_pure():
    ts, vocab, records, _ = bijective_training(200, 3, seed=7)
    model = train(ts, vocab, FAST, seed=0)
    first = classify(model, records[0])
    for _ in range(5):
        assert classify(model, records[0]) == first


def test_all_unknown_metadata_gives_model_prior():
    ts, vocab, _, _ = bijective_training(400, 3, seed=8)
    model = train(ts, vocab, FAST, seed=0)
    label, probs = classify(model, {"g": "never-seen", "noise": "also-new"})
    assert label in model.class_labels
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_training_replay_consistency():
    ts, vocab, records, y = bijective_training(300, 3, seed=9)
    model = train(ts, vocab, FAST, seed=0)
    labels, _ = classify_batch(model, records)
    replay, _ = classify_batch(model, records)
    assert np.array_equal(labels, replay)


# ------------------------------------------------------------ importance

def test_feature_importance_bijective():
    ts, vocab, _, _ = bijective_training(800, 4, seed=10)
    model = train(ts, vocab, FAST, seed=0)
    ranked = feature_importance(model, top_n=vocab.dimension)
    assert ranked
    share_g = sum(s for name, s in ranked if name.startswith("g="))
    assert share_g >= 0.99
    assert sum(s for _, s in ranked) == pytest.approx(1.0, abs=1e-9)


def test_feature_importance_zero_trees():
    ts, vocab, _, _ = bijective_training(100, 2, seed=11)
    model = train(ts, vocab, BoostingParams(rounds=0), seed=0)
    assert feature_importance(model, top_n=5) == []


# ------------------------------------------------- exact routing oracle

def _bucketized_model():
    # class 0 <-> small requests (q1/q2), class 1 <-> large requests (q3/q4)
    records = [{"req": q, "noise": "n"} for q in ("q1", "q2", "q3", "q4") for _ in range(50)]
    y = np.array([0] * 100 + [1] * 100)
    vocab, rows = encoded(("req", "noise"), records)
    ts = TrainingSet(rows=rows, labels=y, dimension=vocab.dimension)
    model = train(ts, vocab, FAST, seed=0, bucket_bounds={"req": (10.0, 20.0, 30.0)})
    queries = [{"req": v, "noise": n} for v in (5.0, 15.0, 25.0, 999.0, "q2", "q9")
               for n in ("n", "unseen")]
    return model, queries


def _bijective_model(n_classes, extra_vocab, depth):
    ts, vocab, records, _ = bijective_training(40 * n_classes, n_classes, seed=n_classes,
                                               extra_vocab=extra_vocab)
    model = train(ts, vocab, BoostingParams(rounds=15, max_depth=depth), seed=0)
    unseen = [{"g": "never", "noise": r["noise"]} for r in records[:5]]
    unseen += [{"g": r["g"], "noise": "never"} for r in records[:5]]
    return model, records[:60] + unseen + [{"g": "never", "noise": "never"}]


def _blob_model():
    ds, labels, _ = make_blob_trace(300, 4, seed=3, metadata_noise=0.1)
    spec, _ = fit_transform(runtime_matrix(ds), "standard")
    profiles = build_profiles(ds, labels, ClusteringConfig("hdbscan", "standard", "euclidean", 5),
                              spec, now=0)
    ts, vocab = build_training_set(ds, profiles)
    model = train(ts, vocab, BoostingParams(rounds=20), seed=0)
    rows = rows_of(ds)
    queries = [w.metadata for w in rows[:80]]
    queries += [{**w.metadata, "owner": "new-owner"} for w in rows[:20]]
    queries += [{**w.metadata, "app": "new-app"} for w in rows[:20]]
    return model, queries


ORACLE_MODELS = {
    "bijective-2": lambda: _bijective_model(2, 2, 6),
    "bijective-7-deep": lambda: _bijective_model(7, 30, 8),
    "bijective-3-stump": lambda: _bijective_model(3, 4, 1),
    "bucketized": _bucketized_model,
    "blobs": _blob_model,
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_routing_equals_slow_oracle_exactly(name):
    model, queries = ORACLE_MODELS[name]()
    doc = json.loads(json.dumps(jsonable(model)))
    want = [slow_forest_probabilities(doc, q) for q in queries]
    for m in (model, ClassifierModel.from_json(doc)):
        labels, probs = classify_batch(m, queries)
        for q, w, label, row in zip(queries, want, labels, probs):
            assert dict(zip(m.class_labels, row)) == w
            assert classify(m, q) == (max(w, key=w.get), w)
            assert label == max(w, key=w.get)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_labels_are_the_argmax_of_each_rows_softmax_over_distinct_rows_only(name):
    model, queries = ORACLE_MODELS[name]()
    rows = encode_records(model, queries)
    batch = rows[np.random.default_rng(0).integers(0, len(rows), size=2000)]  # many copies
    want_probs = np.array([boosting._softmax(model.forest.raw_scores(row[None, :]))[0]
                           for row in batch])
    want = np.asarray(model.class_labels)[want_probs.argmax(axis=1)]
    labels, probs, inverse = classify_encoded(model, batch)
    assert labels.tolist() == want.tolist()
    assert probs.shape == (len(np.unique(batch, axis=0)), len(model.class_labels))
    assert np.array_equal(probs[inverse].view(np.int64), want_probs.view(np.int64))


# ---------------------------------------------------------- persistence

def test_model_round_trip(tmp_path):
    ts, vocab, records, _ = bijective_training(300, 3, seed=13)
    model = train(ts, vocab, FAST, seed=4)
    doc = jsonable(model)
    back = ClassifierModel.from_json(doc)
    assert back.class_labels == model.class_labels
    assert back.seed == 4
    _, probs_a = classify_batch(model, records[:40])
    _, probs_b = classify_batch(back, records[:40])
    np.testing.assert_allclose(probs_a, probs_b, atol=1e-12)


def test_a_model_that_still_holds_unknown_policy_loads():
    # models written before the vocabulary lost its one-valued policy field
    ts, vocab, records, _ = bijective_training(100, 2, seed=14)
    model = train(ts, vocab, FAST, seed=0)
    doc = jsonable(model)
    assert "unknown_policy" not in doc["vocabulary"]
    doc["vocabulary"]["unknown_policy"] = "zero"
    back = ClassifierModel.from_json(doc)
    assert back.vocabulary == model.vocabulary
    assert np.array_equal(classify_batch(back, records[:20])[0],
                          classify_batch(model, records[:20])[0])


def test_model_version_check():
    ts, vocab, _, _ = bijective_training(100, 2, seed=14)
    doc = jsonable(train(ts, vocab, FAST, seed=0))
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        ClassifierModel.from_json(doc)


def test_bucketized_metadata_at_classify_time():
    model, _ = _bucketized_model()
    # raw numeric metadata is quartile-bucketized with the stored boundaries
    assert classify(model, {"req": 5.0, "noise": "n"})[0] == 0
    assert classify(model, {"req": 15.0, "noise": "n"})[0] == 0
    assert classify(model, {"req": 25.0, "noise": "n"})[0] == 1
    assert classify(model, {"req": 999.0, "noise": "n"})[0] == 1
    # an explicit quartile label passes through untouched
    assert classify(model, {"req": "q4", "noise": "n"})[0] == 1
    # round trip preserves the bounds
    back = ClassifierModel.from_json(jsonable(model))
    assert back.bucket_bounds == {"req": (10.0, 20.0, 30.0)}
    assert classify(back, {"req": 5.0, "noise": "n"})[0] == 0

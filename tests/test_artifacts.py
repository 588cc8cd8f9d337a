import csv
import io
import json
import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from workload_profiler import artifacts
from workload_profiler.artifacts import CSV_CHUNK, jsonable, read_record, write_csv, write_json
from workload_profiler.boosting import BoostingParams
from workload_profiler.encoding import EncoderVocabulary
from workload_profiler.feedback import DeltaSpec, FeedbackConfig
from workload_profiler.gridsearch import GridSpec
from workload_profiler.predictor import PredictionPolicy
from workload_profiler.preprocess import TransformSpec
from workload_profiler.profiles import ClusteringConfig, FeatureStats
from workload_profiler.trace_model import TraceSchema

FIELDS = ("event_index", "t", "id", "label", "violated", "outlier")


def event_columns(n):
    """Columns shaped like violations.csv's: numpy ints and flags, object ids."""
    rng = np.random.default_rng(n)
    ids = np.array([f"e{i}" for i in range(n)], dtype=object)
    return (np.arange(n), rng.integers(0, 10 ** 9, n), ids, rng.integers(0, 12, n),
            rng.random(n) < 0.3, rng.random(n) < 0.1)


def traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 3 * CSV_CHUNK + 7])
def test_write_csv_equals_one_writerows_call(tmp_path, n):
    rng = np.random.default_rng(n)
    awkward = ['a,b', 'say "hi"', "two\nlines", "pläin 名", "", " padded "]
    columns = [
        *event_columns(n),
        [awkward[i % len(awkward)] for i in range(n)],   # quoted cells
        [None if i % 5 == 0 else float(v) for i, v in enumerate(rng.normal(size=n))],
        np.where(np.arange(n) % 7 == 0, np.nan, rng.normal(size=n)) if n else np.zeros(0),
        [(i % 3 == 0) if i % 2 else math.inf for i in range(n)],  # Python bools and floats
    ]
    fields = FIELDS + ("text", "maybe", "floats", "mixed")
    write_csv(tmp_path / "out.csv", fields, columns)

    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(fields)
    writer.writerows(zip(*[artifacts._cells(column) for column in columns]))
    assert (tmp_path / "out.csv").read_bytes() == want.getvalue().encode("utf-8")


def test_write_csv_memory_does_not_grow_with_the_row_count(tmp_path):
    peaks = {}
    for n in (50_000, 200_000):
        columns = event_columns(n)  # held before tracing starts
        peaks[n] = traced_peak(lambda: write_csv(tmp_path / "out.csv", FIELDS, columns))
    assert peaks[200_000] <= 1.2 * peaks[50_000], peaks


DOCUMENTS = [
    {"name": "pläin 名 😀", "nested": {"z": [], "a": {}, "m": [[], [{}]]}},
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "list": [math.nan, 1.5, -0.0]},
    {"i64": np.int64(-7), "f64": np.float64(0.1), "f32": np.float32(1.5), "flag": np.bool_(True),
     "scalars": [np.float64(np.inf), np.float64(np.nan), np.int32(3)], "big": 10 ** 20,
     "none": None},
    [],
    {},
    [{"b": 1, "a": [2, {"d": "ü", "c": None}]}, "x", 3, 1e300, 5e-324],
]


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_write_json_equals_dumps_of_the_coerced_document(tmp_path, doc):
    write_json(tmp_path / "doc.json", doc)
    want = json.dumps(jsonable(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert (tmp_path / "doc.json").read_bytes() == want.encode("utf-8")


def test_write_json_streams_into_the_file(tmp_path):
    doc = {"rows": [f"{i:08d}" * 16 for i in range(20_000)]}  # 2.9 MB of text
    path = tmp_path / "doc.json"
    peak = traced_peak(lambda: write_json(path, doc))
    assert peak < path.stat().st_size / 4, (peak, path.stat().st_size)


@dataclass(frozen=True)
class Pair:
    values: tuple
    by_key: dict


@dataclass
class Record:
    name: str
    pair: Pair
    pairs: list
    worst: float


def test_jsonable_writes_a_dataclass_as_its_fields_by_name():
    record = Record("r", Pair((1, math.inf, np.int64(2)), {5: "five", 0.25: (np.float32(0.5),)}),
                    [Pair((), {})], math.nan)
    doc = jsonable(record)
    assert doc == {"name": "r",
                   "pair": {"values": [1, None, 2], "by_key": {"5": "five", "0.25": [0.5]}},
                   "pairs": [{"values": [], "by_key": {}}],
                   "worst": None}
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc  # plain JSON values only


def test_jsonable_writes_a_numpy_array_as_its_nested_lists():
    doc = jsonable({"floats": np.array([[1.5, np.nan], [-np.inf, -0.0]]), "ints": np.arange(3),
                    "flags": np.array([True, False]), "empty": np.zeros((0, 2))})
    assert doc == {"floats": [[1.5, None], [None, -0.0]], "ints": [0, 1, 2],
                   "flags": [True, False], "empty": []}
    assert [type(v) for v in doc["ints"] + doc["flags"]] == [int] * 3 + [bool] * 2


@dataclass
class Keyed:
    count: int = field(metadata={"key": "total"})
    note: str | None = field(default=None, metadata={"omit": True})
    tags: tuple[str, ...] = field(default_factory=tuple, metadata={"omit": True})


@pytest.mark.parametrize("record", [Keyed(3), Keyed(0, note="n"), Keyed(2, tags=("a", "b"))],
                         ids=["defaults", "note", "tags"])
def test_a_field_is_written_under_its_key_and_left_out_at_its_omitted_default(record):
    doc = jsonable(record)
    want = {"total": record.count}
    want.update({"note": record.note} if record.note is not None else {})
    want.update({"tags": list(record.tags)} if record.tags else {})
    assert doc == want
    assert read_record(Keyed, json.loads(json.dumps(doc))) == record
    with pytest.raises(ValueError, match="total: a value is required"):
        read_record(Keyed, {"count": record.count})  # the field's name is not its key
    assert read_record(Keyed, {**doc, "count": 99}) == record


RECORDS = [
    BoostingParams(rounds=7, learning_rate=0.25, max_depth=3, min_child_weight=0.5, l2=2.0),
    ClusteringConfig("dbscan", "power", "cosine", 12, eps=0.3, seed=4),
    ClusteringConfig("hdbscan", "minmax", "manhattan", 5),
    FeatureStats({5.0: 1.5, 50.0: 2.0, 97.5: 9.25}, mean=2.5, median=2.0, std=0.75,
                 skewness=None),
    TransformSpec("power", ("cpu", "mem"), {"lambda": np.array([0.5, -1.25]),
                                            "mean": np.array([1e-300, 3.0])}),
    EncoderVocabulary(("app", "zone"), {"app": ("a", "b", "ü"), "zone": ("z",)}),
    DeltaSpec("absolute", {"cpu": 0.5, "mem": 0.0}, default=2.0),
    FeedbackConfig(DeltaSpec(thresholds={"cpu": 0.25}), tau_v=0.3, window=300,
                   window_mode="seconds", min_events_between_triggers=0),
    PredictionPolicy("fixed_quantile", 0.25, 2.0),
    GridSpec(("hdbscan", "dbscan"), ("power",), ("euclidean", "cosine"), (3, 8), (0.2, 0.6)),
    TraceSchema({"id": "id", "app": "metadata", "n": "metadata", "cpu": "runtime",
                 "t": "timestamp"}, bucketize=("n",)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_read_record_is_the_inverse_of_jsonable(record):
    back = read_record(type(record), json.loads(json.dumps(jsonable(record))))
    if isinstance(record, TransformSpec):  # its arrays compare element by element
        assert (back.kind, back.feature_names) == (record.kind, record.feature_names)
        assert back.params.keys() == record.params.keys()
        for key, values in record.params.items():
            assert back.params[key].dtype == np.float64
            np.testing.assert_array_equal(back.params[key], values)
    else:
        assert back == record


@pytest.mark.parametrize("text", ["[0.5, null]", "[NaN, 1.0]", "[1.0, Infinity]",
                                  "[-Infinity]", "[1.0, true]"])
def test_a_stored_array_is_a_list_of_finite_numbers(text):
    doc = {"kind": "standard", "feature_names": ["cpu", "mem"],
           "params": {"mean": json.loads(text), "scale": [1.0, 2.0]}}
    with pytest.raises(ValueError, match="params: a list of finite numbers"):
        read_record(TransformSpec, doc)

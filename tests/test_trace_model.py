import sys
import tracemalloc

import numpy as np
import pytest
from oracles import slow_load_trace

from workload_profiler.errors import (
    DuplicateIdError,
    NoValidRowsError,
    SchemaError,
    TraceReadError,
)
from rows import dataset_of, rows_of
from workload_profiler.artifacts import read_record
from workload_profiler.encoding import build_vocabulary
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import (
    LOAD_CHUNK,
    Dataset,
    MetadataBlock,
    TraceSchema,
    load_trace,
    runtime_matrix,
    schema_for,
    write_trace,
)

DESCRIPTOR = {
    "columns": {
        "job": "id",
        "user": "metadata",
        "cpu": "runtime",
        "mem": "runtime",
    }
}


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_all_valid(tmp_path):
    trace = write_csv(
        tmp_path / "t.csv",
        "job,user,cpu,mem\nj1,a,1.0,2.0\nj2,b,3.5,4.5\nj3,a,5.0,6.0\n",
    )
    ds, dropped = load_trace(trace, read_record(TraceSchema, DESCRIPTOR))
    assert len(ds) == 3 and dropped == 0
    assert rows_of(ds)[1].runtime == {"cpu": 3.5, "mem": 4.5}
    # no timestamp column: submission order is row order
    assert ds.submitted_at.tolist() == [0, 1, 2]


def test_load_drops_empty_cell(tmp_path):
    trace = write_csv(
        tmp_path / "t.csv",
        "job,user,cpu,mem\nj1,a,1.0,2.0\nj2,b,,4.5\nj3,a,5.0,6.0\n",
    )
    ds, dropped = load_trace(trace, read_record(TraceSchema, DESCRIPTOR))
    assert len(ds) == 2 and dropped == 1
    assert ds.ids.tolist() == ["j1", "j3"]


def test_load_drops_non_finite(tmp_path):
    trace = write_csv(
        tmp_path / "t.csv",
        "job,user,cpu,mem\nj1,a,inf,2.0\nj2,b,1.0,nan\nj3,a,5.0,6.0\n",
    )
    ds, dropped = load_trace(trace, read_record(TraceSchema, DESCRIPTOR))
    assert len(ds) == 1 and dropped == 2


def test_duplicate_id_rejected(tmp_path):
    trace = write_csv(
        tmp_path / "t.csv", "job,user,cpu,mem\nj1,a,1.0,2.0\nj1,b,3.0,4.0\n"
    )
    with pytest.raises(DuplicateIdError):
        load_trace(trace, read_record(TraceSchema, DESCRIPTOR))


def test_zero_valid_rows(tmp_path):
    trace = write_csv(tmp_path / "t.csv", "job,user,cpu,mem\nj1,a,,2.0\n")
    with pytest.raises(NoValidRowsError):
        load_trace(trace, read_record(TraceSchema, DESCRIPTOR))


def test_unreadable_file():
    with pytest.raises(TraceReadError):
        load_trace("/nonexistent/trace.csv", read_record(TraceSchema, DESCRIPTOR))


def test_descriptor_validation():
    with pytest.raises(SchemaError):
        TraceSchema(columns={"a": "metadata", "b": "runtime"})  # no id
    with pytest.raises(SchemaError):
        TraceSchema(columns={"a": "id", "b": "runtime"})  # no metadata
    with pytest.raises(SchemaError):
        TraceSchema(columns={"a": "id", "b": "metadata"})  # no runtime
    with pytest.raises(SchemaError):
        TraceSchema(columns={"a": "id", "b": "metadata", "c": "wat"})
    with pytest.raises(SchemaError):
        TraceSchema(
            columns={"a": "id", "b": "metadata", "c": "runtime"}, bucketize=("c",)
        )


def test_runtime_matrix_order(tiny_dataset):
    m = runtime_matrix(tiny_dataset)
    assert m.rows.shape == (5, 2)
    for i, w in enumerate(rows_of(tiny_dataset)):
        assert m.rows[i, 0] == w.runtime["cpu"]
        assert m.rows[i, 1] == w.runtime["mem"]


def test_single_workload_matrix():
    ds = dataset_of([("w", {"u": "x"}, {"cpu": 1.0, "mem": 2.0})])
    assert runtime_matrix(ds).rows.tolist() == [[1.0, 2.0]]
    assert runtime_matrix(ds).rows is ds.runtime  # wrapped, not copied


def test_empty_runtime_schema_rejected():
    with pytest.raises(SchemaError):
        Dataset.from_columns(ids=["w"], runtime={}, metadata={"u": ["x"]})


def test_round_trip(tmp_path, tiny_dataset):
    out = tmp_path / "o.csv"
    write_trace(tiny_dataset, out)
    reloaded, dropped = load_trace(out, schema_for(tiny_dataset))
    assert dropped == 0
    assert reloaded.ids.tolist() == tiny_dataset.ids.tolist()
    for a, b in zip(rows_of(reloaded), rows_of(tiny_dataset)):
        assert a.runtime == b.runtime  # numeric fields reproduce bit-exactly
        assert a.metadata == b.metadata
        assert a.submitted_at == b.submitted_at


def test_round_trip_awkward_floats(tmp_path):
    values = [0.1, 1e-17, 123456789.123456, 2.0**-40, 7.0]
    ds = dataset_of((f"w{i}", {"m": "x"}, {"v": v}) for i, v in enumerate(values))
    out = tmp_path / "o.csv"
    write_trace(ds, out)
    reloaded, _ = load_trace(out, schema_for(ds))
    assert reloaded.runtime.tolist() == ds.runtime.tolist()


def test_bucketize_quartiles(tmp_path):
    lines = ["job,user,gpu_req,cpu"]
    for i in range(8):
        lines.append(f"j{i},a,{i + 1}.0,1.0")
    trace = write_csv(tmp_path / "t.csv", "\n".join(lines) + "\n")
    schema = TraceSchema(
        columns={"job": "id", "user": "metadata", "gpu_req": "metadata", "cpu": "runtime"},
        bucketize=("gpu_req",),
    )
    ds, _ = load_trace(trace, schema)
    buckets = [w.metadata["gpu_req"] for w in rows_of(ds)]
    assert buckets == ["q1", "q1", "q2", "q2", "q3", "q3", "q4", "q4"]
    assert set(ds.bucket_bounds) == {"gpu_req"}
    # reusing bounds reproduces the same labels
    ds2, _ = load_trace(trace, schema, bucket_bounds=ds.bucket_bounds)
    assert [w.metadata["gpu_req"] for w in rows_of(ds2)] == buckets


def test_timestamp_column(tmp_path):
    trace = write_csv(
        tmp_path / "t.csv",
        "job,user,cpu,ts\nj1,a,1.0,100\nj2,b,2.0,200\n",
    )
    schema = TraceSchema(
        columns={"job": "id", "user": "metadata", "cpu": "runtime", "ts": "timestamp"}
    )
    ds, _ = load_trace(trace, schema)
    assert ds.submitted_at.tolist() == [100, 200]


# ------------------------------------------------- columnar loader oracle

MESSY = (
    "job,user,cpu,mem,ts,gpu_req,junk,user\n"
    "j1,ignored, 1.5 ,2.0,10,4,x,alice\n"      # padded runtime cell; the last 'user' is read
    "j2,b,1_000,2.0,11,8,x,bob \n"             # underscored float, padded metadata
    "j3,b,inf,2.0,12,8,x,bob\n"                # non-finite runtime: dropped
    "j4,b,1.0,nan,13,8,x,bob\n"                # nan: dropped
    "j5,b,1.0,abc,14,8,x,bob\n"                # unparsable: dropped
    "\n"                                       # blank line: skipped, not dropped
    "j6,b,1.0,2.0,,8,x,bob\n"                  # empty timestamp: dropped
    "j7,b,1.0,2.0,1.9e2,big,x,bob\n"           # unparsable bucketized cell: dropped
    "j8,b,1.0,2.0,-3.7,1e1,,carol\n"           # empty ignored cell is fine; ts truncates
    "j9,b,1.0\n"                               # short row: dropped
    " ,b,1.0,2.0,15,8,x,bob\n"                 # blank id: dropped
    "j10,b,-0.0,2.0,16, 16 ,x,a\x00\n"         # a trailing NUL is its own value
    "j11,b,3.0,4.0,17,2,x,a,extra,cells\n"     # long row: extra cells ignored
    "j12,b,2.5,1e-300,18,32,x,a\n"
)

MESSY_COLUMNS = {"job": "id", "user": "metadata", "gpu_req": "metadata", "cpu": "runtime",
                 "mem": "runtime", "junk": "ignore"}


def loaded(ds, dropped):
    rows = rows_of(ds)
    return {
        "ids": [w.id for w in rows],
        "metadata": [w.metadata for w in rows],
        "runtime_bits": [[np.float64(v).tobytes() for v in w.runtime.values()] for w in rows],
        "ts": ds.submitted_at.tolist(),
        "dropped": dropped,
        "bounds": ds.bucket_bounds,
    }


@pytest.mark.parametrize("timestamp", [True, False])
@pytest.mark.parametrize("bounds", [None, {"gpu_req": (3.0, 8.0, 9.5)}])
def test_loader_equals_row_at_a_time_oracle(tmp_path, timestamp, bounds):
    trace = write_csv(tmp_path / "t.csv", MESSY)
    columns = dict(MESSY_COLUMNS, ts="timestamp" if timestamp else "ignore")
    schema = TraceSchema(columns=columns, bucketize=("gpu_req",))
    want = slow_load_trace(trace, schema, bounds)
    assert loaded(*load_trace(trace, schema, bucket_bounds=bounds)) == want
    if timestamp:
        assert want["dropped"] == 7 and want["ts"] == [10, 11, -3, 16, 17, 18]
    else:  # j6's empty timestamp cell is not read
        assert want["dropped"] == 6 and want["ts"] == [0, 1, 2, 3, 4, 5, 6]


def test_value_tables_follow_python_string_order(tmp_path):
    # numpy's fixed-width 'U' strings drop trailing NULs, merging "a" and "a\0"
    ds, _ = load_trace(write_csv(tmp_path / "t.csv", MESSY), TraceSchema(columns=MESSY_COLUMNS))
    j = ds.schema_metadata.index("user")
    assert ds.metadata.tables[j] == ("a", "a\x00", "alice", "bob", "carol")
    assert ds.metadata.values(j) == [w.metadata["user"] for w in rows_of(ds)]
    assert ds.metadata.values(j)[-3:] == ["a\x00", "a", "a"]
    block = MetadataBlock.from_rows(("u",), [["b"], ["a\x00"], ["a"], ["a\x00"]])
    assert block.tables == (("a", "a\x00", "b"),)
    assert block.codes[:, 0].tolist() == [2, 1, 0, 1]


def test_select_and_concat_are_index_operations(tiny_dataset):
    picked = tiny_dataset.select([4, 0, 2])
    assert picked.ids.tolist() == ["j5", "j1", "j3"]
    assert picked.runtime.tolist() == [[11.0, 105.0], [10.0, 100.0], [50.0, 20.0]]
    assert picked.submitted_at.tolist() == [4, 0, 2]
    # the tables are shared; a vocabulary holds only the values the rows hold
    assert picked.metadata.tables is tiny_dataset.metadata.tables
    assert build_vocabulary(tiny_dataset.select([1, 0]).metadata).categories == {
        "user": ("alice",), "task": ("train",)
    }
    one = dataset_of([("x", {"user": "zed", "task": "train"}, {"cpu": 1.0, "mem": 1.0})])
    both = tiny_dataset.select([0, 1]).concat(tiny_dataset.select([3])).concat(one)
    assert both.metadata.tables == (("alice", "bob", "carol", "zed"), ("infer", "train"))
    assert [w.metadata for w in rows_of(both)] == [
        {"user": "alice", "task": "train"},
        {"user": "alice", "task": "train"},
        {"user": "bob", "task": "infer"},
        {"user": "zed", "task": "train"},
    ]
    with pytest.raises(ValueError, match="different schemas"):
        tiny_dataset.concat(dataset_of([("x", {"user": "a"}, {"cpu": 1.0, "mem": 1.0})]))


def test_first_offending_row_is_named(tiny_dataset):
    with pytest.raises(DuplicateIdError, match="'j3'"):
        tiny_dataset.select([0, 2, 1, 2, 0])
    with pytest.raises(DuplicateIdError, match="'j2'"):
        tiny_dataset.select([1, 2]).concat(tiny_dataset.select([0, 1]))
    rows = [(f"w{i}", {"m": "x"}, {"a": 1.0, "b": 1.0}) for i in range(4)]
    rows[2] = ("w2", {"m": "x"}, {"a": 1.0, "b": np.inf})
    rows[3] = ("w1", {"m": "x"}, {"a": np.nan, "b": 1.0})
    with pytest.raises(SchemaError, match="workload 'w2' has non-finite 'b'"):
        dataset_of(rows)
    rows[2] = ("w0", {"m": "x"}, {"a": 1.0, "b": np.inf})  # in one row, the repeat comes first
    with pytest.raises(DuplicateIdError, match="'w0'"):
        dataset_of(rows)
    rows[1] = ("w2", {"m": "x"}, {"a": 1.0, "b": 1.0})  # a row with a bad value, then a repeat
    rows[2] = ("w2", {"m": "x"}, {"a": 1.0, "b": 1.0})
    rows[0] = ("w9", {"m": "x"}, {"a": -np.inf, "b": 1.0})
    with pytest.raises(SchemaError, match="workload 'w9' has non-finite 'a'"):
        dataset_of(rows)


# ------------------------------------------------- chunked loading

def chunked_trace(path, blank_run=0, rows=None):
    """MESSY's layout over more than three LOAD_CHUNK records. The records
    just around each chunk boundary are the awkward ones: an empty cell, a
    blank line, quoted cells holding commas and newlines, a non-finite
    runtime, a short row, padded cells (U+001C and U+001F too, which str.strip
    removes and float() does not), an unparsable bucketized cell and an
    empty timestamp. ``rows`` replaces records by index; ``blank_run`` blank
    lines go in after record LOAD_CHUNK + 20."""
    rng = np.random.default_rng(5)
    users = ["alice", "bob", "a\x00", "carol", "dave"]
    records = []
    for r in range(3 * LOAD_CHUNK + 40):
        gpu = rng.choice(["1", "2.5", "4", "8", "16", "1e1", "3_2"])
        records.append(f"j{r},ignored,{rng.uniform(0.1, 9):.6g},{rng.uniform(1, 99):.6g},"
                       f"{r + 100},{gpu},x,{users[r % 5]}")
    for b in (LOAD_CHUNK, 2 * LOAD_CHUNK, 3 * LOAD_CHUNK):
        records[b - 2] = f"j{b - 2},ignored,,2.0,{b},4,x,alice"
        records[b - 1] = ""
        records[b] = f'j{b},ignored,1.5,2.0,{b},8,"x,y","team, a\nline two"'
        records[b + 1] = f"j{b + 1},ignored,inf,2.0,{b},8,x,bob"
        records[b + 2] = f"j{b + 2},ignored,1.0"
        records[b + 3] = f" j{b + 3} , ignored , 2.5 ,\x1c1.0\x1f,{b}, 16 ,x,  carol  "
        records[b + 4] = f"j{b + 4},ignored,2.5,1.0,{b},nan,x,carol"
        records[b + 5] = f"j{b + 5},ignored,2.5,1.0,,4,x,carol"
        records[b + 6] = f'j{b + 6},ignored,2.5,1.0,{b},"64\n",x,"multi\n\nline"'
        records[b + 7] = f'"j{b + 7}",ignored,3.5,2.0,{b},2,x,"bob, ""quoted"""'
    for r, record in (rows or {}).items():
        records[r] = record
    records[LOAD_CHUNK + 20:LOAD_CHUNK + 20] = [""] * blank_run
    header = "job,user,cpu,mem,ts,gpu_req,junk,user\n"
    return write_csv(path, header + "\n".join(records) + "\n")


@pytest.mark.parametrize("timestamp", [True, False])
@pytest.mark.parametrize("bounds", [None, {"gpu_req": (2.0, 8.0, 12.5)}])
def test_chunked_loader_equals_the_oracle_across_chunk_boundaries(tmp_path, timestamp, bounds):
    # a run of blank lines longer than a chunk sits inside the second chunk
    trace = chunked_trace(tmp_path / "t.csv", blank_run=LOAD_CHUNK + 5)
    columns = dict(MESSY_COLUMNS, ts="timestamp" if timestamp else "ignore")
    schema = TraceSchema(columns=columns, bucketize=("gpu_req",))
    want = slow_load_trace(trace, schema, bounds)
    got = loaded(*load_trace(trace, schema, bucket_bounds=bounds))
    assert got == want
    # per boundary: empty cell, non-finite, short row, nan bucket (+ empty timestamp)
    assert want["dropped"] == 3 * (5 if timestamp else 4)
    assert {"team, a\nline two", 'bob, "quoted"', "multi\n\nline"} <= {
        m["user"] for m in want["metadata"]}
    assert {m["gpu_req"] for m in want["metadata"]} == {"q1", "q2", "q3", "q4"}
    assert f"j{LOAD_CHUNK + 3}" in want["ids"]  # padded cells are stripped


def test_a_duplicate_id_in_a_later_chunk_is_found_after_dropped_rows(tmp_path):
    schema = TraceSchema(columns=dict(MESSY_COLUMNS, ts="timestamp"), bucketize=("gpu_req",))
    copy = "j7,ignored,1.0,2.0,5,4,x,bob"
    # the repeat sits two chunks on; a non-finite row before it is dropped, not reported
    trace = chunked_trace(tmp_path / "a.csv", rows={3: "j3,ignored,nan,2.0,5,4,x,bob",
                                                    2 * LOAD_CHUNK + 9: copy})
    with pytest.raises(DuplicateIdError, match="'j7'"):
        load_trace(trace, schema)
    # a copy in a dropped row is no repeat, before or after the accepted one
    for r, bad in ((7, "j7,ignored,1.0,inf,5,4,x,bob"), (2 * LOAD_CHUNK + 9, "j7,ignored,,2.0,5,4,x,bob")):
        rows = {7: copy, 2 * LOAD_CHUNK + 9: copy, r: bad}
        trace = chunked_trace(tmp_path / f"b{r}.csv", rows=rows)
        ds, dropped = load_trace(trace, schema)
        assert loaded(ds, dropped) == slow_load_trace(trace, schema)
        assert ds.ids.tolist().count("j7") == 1


def held_bytes(ds: Dataset) -> int:
    """What a dataset holds: its arrays, its id strings and its value tables."""
    strings = sum(map(sys.getsizeof, ds.ids.tolist()))
    strings += sum(sys.getsizeof(v) for table in ds.metadata.tables for v in table)
    arrays = (ds.ids, ds.submitted_at, ds.runtime, ds.metadata.codes)
    return strings + sum(a.nbytes for a in arrays)


def test_loading_peaks_below_three_times_what_the_dataset_holds(tmp_path):
    ds, _, _ = make_blob_trace(13_000, 5, seed=1, metadata_noise=0.02, id_prefix="s")
    trace = tmp_path / "stream.csv"
    write_trace(ds, trace)
    schema = schema_for(ds)
    tracemalloc.start()
    try:
        loaded_ds, dropped = load_trace(trace, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dropped == 0 and loaded_ds.ids.tolist() == ds.ids.tolist()
    assert peak < 3 * held_bytes(loaded_ds), (peak, held_bytes(loaded_ds))

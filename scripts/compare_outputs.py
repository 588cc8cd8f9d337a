#!/usr/bin/env python3
"""Byte-compare the artifacts two source trees write for the same inputs.

    python scripts/compare_outputs.py --base ../parent --head .

Each tree (a checkout, or its ``src`` directory) runs the CLI in its own
subprocess on one set of seeded ``synth`` inputs, generated once by the head
tree:

  default-grid   build on a 1200-row trace with the default 56-combination
                 grid and a numeric metadata column that the descriptor
                 bucketizes; ``classify`` of 300 JSONL records written from
                 the CSV rows (raw numbers, unseen values and a record
                 missing a feature included), then every record again
                 and a run of six identical records of unseen values;
                 ``evaluate`` on a seeded
                 holdout, once with ``alt_normalization``; ``sample`` and
                 ``hopkins`` on the same trace;
  criterion-8    build with the config of acceptance criterion 8;
  drift          build and ``feedback`` over a ``make_drift_pair`` stream;
  drift-seconds  ``feedback`` on the drift build over the same stream with
                 jittered, non-monotone and repeated timestamps, a window in
                 seconds, no cooldown, and thresholds at which the outlier
                 and freshness clauses fire as well as the violation clause;
  drift-long     build and ``feedback`` over a ``make_drift_pair`` stream of
                 5453 events, more than five 1024-row chunks of
                 ``violations.csv`` and not a multiple of one, with a
                 freshness decay at which three triggers are adopted (before,
                 in and after the drift), so the stream is relabelled from
                 three starts;
  wide           build on a 1500-row trace with a metadata column of several
                 hundred rare values (a vocabulary of about 600 columns) and
                 ``classify`` of 400 JSONL records written from its rows;
  wide-deep      the same on that trace with ``min_child_weight`` 0 and
                 ``max_depth`` 9, so rare columns split and trees grow deep;
  classify-edge  build on a 1300-row trace of 13 blobs, so the probs keys
                 "10".."12" sort before "2"; ``classify`` of 300 JSONL
                 records whose ids take every JSON type (NaN, +-Infinity,
                 objects with unsorted keys, non-ASCII text, numbers, null,
                 no id at all), then 80 records whose string ids hold every
                 class that JSON escapes (quote, backslash, controls, DEL,
                 U+2028/U+2029, a non-BMP character, lone surrogates), as
                 escapes and as raw text, between lines that are not
                 objects or not JSON; with the profile set, without it,
                 and with label 10's profile dropped, so its lines are
                 inline errors; and the same lines on stdin, with CR LF
                 endings and a lone CR inside records (JSON whitespace
                 there, as stdin is split at LF only);
  ingest-edge    build, then ``evaluate`` with the trace as its own holdout
                 (so the fitted bucket bounds are read back as given ones),
                 on a trace of more than three ``load_trace`` chunks whose
                 records around each chunk boundary are blank lines, rows
                 dropped for an empty, non-finite or unparsable cell, a short
                 row, quoted metadata cells holding commas and newlines,
                 padded cells, and extreme values of a bucketized column;
  cluster-edge   build on a 600-row trace whose runtime values are small
                 integers, so most rows repeat exactly (zero distances,
                 mutual reachability ties, infinite lambdas) and one row in
                 ten is a zero vector after minmax, over a grid of both
                 minmax and power, all three distances and min_points 3, 8
                 and 30, small enough for nested splits;
  dbscan-edge    build on the cluster-edge trace over a grid of both
                 algorithms, both transforms, all three distances,
                 min_points 3, 8, 30 and one above the row count (an error
                 row per algorithm), and eps 0.01, 0.05, 0.2 and 0.6;
  dbscan-blobs   build on a 900-row ``make_blob_trace`` with a DBSCAN-only
                 grid over all three distances, two sizes and three eps.

Every file of every run directory and each command's classify output is
compared byte for byte. Exits 1 on any difference or failed command, 0 when
everything is identical.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GENERATE = r"""
import csv, dataclasses, json, sys
from pathlib import Path
import numpy as np
from workload_profiler import artifacts
from workload_profiler.synth import make_blob_trace, make_drift_pair
from workload_profiler.trace_model import LOAD_CHUNK, schema_for, write_trace

root, seed = Path(sys.argv[1]), int(sys.argv[2])

def save(name, ds, config, descriptor=None):
    write_trace(ds, root / f"{name}.csv")
    descriptor = descriptor or schema_for(ds).to_json()
    artifacts.write_json(root / f"{name}-descriptor.json", descriptor)
    doc = {"trace": str(root / f"{name}.csv"),
           "descriptor": str(root / f"{name}-descriptor.json"), **config}
    artifacts.write_json(root / f"{name}.json", doc)

def add_numeric_column(path, rng):
    # A numeric metadata column the descriptor bucketizes; the cells mix
    # integers, decimals, padded and underscored spellings, and a few cells
    # that drop their row (nan, empty).
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        value = float(rng.choice([1, 2, 4, 8, 16])) * rng.uniform(0.5, 1.5)
        spelling = rng.choice(6, p=[0.4, 0.3, 0.2, 0.05, 0.03, 0.02])
        row.insert(4, [repr(value), str(int(value)), f" {value:.3f} ", "1_0", "nan", ""][spelling])
    rows[0].insert(4, "gpu_req")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return rows

config = {"seed": seed, "acquires": {"optimal_cluster_count": 4}}
ds, _, centers = make_blob_trace(1200, 4, seed=seed, metadata_noise=0.03, outlier_fraction=0.02)
descriptor = schema_for(ds).to_json()
descriptor["columns"]["gpu_req"] = "metadata"
descriptor["bucketize"] = ["gpu_req"]
rng = np.random.default_rng(seed)
save("default-grid", ds, config, descriptor)
rows = add_numeric_column(root / "default-grid.csv", rng)
header = rows[0]
lines = []
for n, row in enumerate(rows[1:301]):
    cells = dict(zip(header, row))
    metadata = {c: cells[c] for c in ("app", "owner", "zone")}
    try:
        metadata["gpu_req"] = float(cells["gpu_req"])  # the raw number
    except ValueError:
        metadata["gpu_req"] = cells["gpu_req"]
    if n % 7 == 3:
        metadata["zone"] = "never-seen"
    if n % 50 == 11:
        del metadata["owner"]
    lines.append(json.dumps({"id": cells["id"], "metadata": metadata}, sort_keys=True) + "\n")
# Repeated records: each line again, 300 lines after its first copy, then a
# run of identical lines whose every value is unseen.
unseen = {"app": "never-seen", "owner": "never-seen", "zone": "never-seen", "gpu_req": "never-seen"}
lines += lines + [json.dumps({"id": "u", "metadata": unseen}, sort_keys=True) + "\n"] * 6
with open(root / "classify.jsonl", "w", encoding="utf-8") as fh:
    fh.writelines(lines)

holdout, _, _ = make_blob_trace(400, 4, seed=seed + 100, centers=centers, id_prefix="h",
                                metadata_noise=0.03)
write_trace(holdout, root / "holdout.csv")
add_numeric_column(root / "holdout.csv", rng)
artifacts.write_json(root / "default-grid-alt.json",
                     {**artifacts.read_json(root / "default-grid.json"), "alt_normalization": True})

ds, _, _ = make_blob_trace(800, 3, seed=23, metadata_noise=0.05)
save("criterion-8", ds, {
    "seed": 23,
    "grid": {"algorithms": ["hdbscan"], "transforms": ["power", "standard"],
             "distances": ["euclidean"], "min_points": [20]},
    "acquires": {"optimal_cluster_count": 3},
    "classifier": {"rounds": 30, "learning_rate": 0.3, "max_depth": 6,
                   "min_child_weight": 1.0, "l2": 1.0},
})

train, stream = make_drift_pair(1500, 1000, 1500, n_clusters=4, seed=seed)
write_trace(stream, root / "drift-stream.csv")
save("drift", train, {
    "seed": seed,
    "grid": {"algorithms": ["hdbscan"], "transforms": ["power"],
             "distances": ["euclidean"], "min_points": [25, 50]},
    "acquires": {"optimal_cluster_count": 4},
    "prediction": {"kind": "skew_conditional", "quantile": 0.05, "skew_threshold": 1.0},
    "feedback": {"delta": {"mode": "relative", "default": 0.5}, "tau_v": 0.1,
                 "tau_o": 0.9, "tau_f": 0.5, "decay": 1e-12, "window": 500,
                 "window_mode": "events", "tau_quality": 0.5,
                 "min_events_between_triggers": 500},
})

long_train, long_stream = make_drift_pair(1500, 2000, 3453, n_clusters=4, seed=seed)
write_trace(long_stream, root / "drift-long-stream.csv")
save("drift-long", long_train, {
    **{k: v for k, v in artifacts.read_json(root / "drift.json").items()
       if k not in ("trace", "descriptor")},
    "feedback": {"delta": {"mode": "relative", "default": 0.5}, "tau_v": 0.1,
                 "tau_o": 0.9, "tau_f": 0.5, "decay": 3e-4, "window": 500,
                 "window_mode": "events", "tau_quality": 0.5,
                 "min_events_between_triggers": 500},
})

rng = np.random.default_rng(seed)
t = stream.submitted_at + rng.integers(-40, 41, size=len(stream))
t[::97] -= 300
write_trace(dataclasses.replace(stream, submitted_at=t), root / "drift-seconds-stream.csv")
artifacts.write_json(root / "drift-seconds.json", {
    **artifacts.read_json(root / "drift.json"),
    "feedback": {"delta": {"mode": "relative", "default": 0.5}, "tau_v": 0.3,
                 "tau_o": 0.08, "tau_f": 0.1, "decay": 1e-3, "window": 300,
                 "window_mode": "seconds", "tau_quality": 0.5,
                 "min_events_between_triggers": 0},
})

# A metadata column of several hundred rare values: each row's tag names its
# blob and a Zipf draw, so a few tags cover many rows of one blob and most
# cover one or two.
ds, truth, _ = make_blob_trace(1500, 4, seed=seed + 200, metadata_noise=0.05)
wide = {"seed": seed,
        "grid": {"algorithms": ["hdbscan"], "transforms": ["power"],
                 "distances": ["euclidean"], "min_points": [25, 50]},
        "acquires": {"optimal_cluster_count": 4}}
descriptor = schema_for(ds).to_json()
descriptor["columns"]["tag"] = "metadata"
save("wide", ds, wide, descriptor)
save("wide-deep", ds, {**wide, "classifier": {"rounds": 40, "learning_rate": 0.3, "max_depth": 9,
                                                  "min_child_weight": 0, "l2": 1.0}}, descriptor)
rng = np.random.default_rng(seed + 200)
with open(root / "wide.csv", encoding="utf-8", newline="") as fh:
    rows = list(csv.reader(fh))
rows[0].insert(4, "tag")
for row, blob in zip(rows[1:], truth.tolist()):
    row.insert(4, f"b{blob}-{int(rng.zipf(1.2)) % 300}")
for name in ("wide", "wide-deep"):
    with open(root / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
with open(root / "wide.jsonl", "w", encoding="utf-8") as fh:
    for n, row in enumerate(rows[1:401]):
        cells = dict(zip(rows[0], row))
        metadata = {c: cells[c] for c in ("app", "owner", "zone", "tag")}
        if n % 9 == 4:
            metadata["tag"] = "never-seen"
        fh.write(json.dumps({"id": cells["id"], "metadata": metadata}, sort_keys=True) + "\n")

# 13 profiles: the classify output's probs keys sort as strings, "10" < "2".
ds, _, _ = make_blob_trace(1300, 13, seed=seed + 300, metadata_noise=0.02)
save("edge", ds, {"seed": seed,
                  "grid": {"algorithms": ["hdbscan"], "transforms": ["power"],
                           "distances": ["euclidean"], "min_points": [20]},
                  "acquires": {"optimal_cluster_count": 13},
                  "classifier": {"rounds": 10, "learning_rate": 0.3, "max_depth": 4,
                                 "min_child_weight": 1.0, "l2": 1.0}})
ids = [float("nan"), float("inf"), float("-inf"), 7, -0.0, 1.5e300, 10**20, True, None,
       "pl\u00e4in \u540d", "\ud83d", [3, {"b": float("nan"), "a": 1}],
       {"z": [1, "\u00fc"], "a": {"y": None, "b": float("-inf")}, "m": "x"}]
with open(root / "edge.jsonl", "w", encoding="utf-8") as fh:
    columns = [ds.metadata.values(j) for j in range(len(ds.metadata.names))]
    for n in range(300):
        metadata = {f: column[n] for f, column in zip(ds.metadata.names, columns)}
        if n % 11 == 5:
            metadata["zone"] = "never-seen"
        record = {"metadata": metadata} if n % 14 == 13 else {"id": ids[n % 14], "metadata": metadata}
        fh.write(json.dumps(record, ensure_ascii=n % 2 == 0) + "\n")
    # Ids of every escape class, each written as an escape and as raw text
    # (a lone surrogate only as an escape), between lines that are not
    # objects or not JSON.
    escapes = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\U0001f600",
               "\ud800", 'a"b\\c\x00\u2028\U0001f600\udfff']
    malformed = ["[1, 2]", "7", '"text"', "null", "NaN", "{", "not json", '{"id": "x"}',
                 '{"id": "x", "metadata": null}', '{"id": "\\ud800"']
    for n, wid in enumerate(escapes * 2):
        metadata = {f: column[n] for f, column in zip(ds.metadata.names, columns)}
        raw = n >= len(escapes) and not any("\ud800" <= c <= "\udfff" for c in wid)
        fh.write(json.dumps({"id": wid, "metadata": metadata}, ensure_ascii=not raw) + "\n")
        if n % 7 == 3:
            fh.write(malformed[n // 7 % len(malformed)] + "\n")
# The same lines for stdin: every other one ends in CR LF, and every third
# object holds a lone CR after its opening brace.
lines = (root / "edge.jsonl").read_bytes().splitlines()
(root / "edge-stdin.jsonl").write_bytes(b"".join(
    (b"{\r" + line[1:] if n % 3 == 0 and line.startswith(b"{") else line)
    + (b"\r\n" if n % 2 else b"\n") for n, line in enumerate(lines)))

# More than three load chunks; the records around each chunk boundary are
# the awkward ones, and the bucketized column's extremes sit there too.
ds, _, _ = make_blob_trace(3 * LOAD_CHUNK + 300, 4, seed=seed + 400, metadata_noise=0.03)
save("ingest-edge", ds, {"seed": seed,
                         "grid": {"algorithms": ["hdbscan"], "transforms": ["power"],
                                  "distances": ["euclidean"], "min_points": [25]},
                         "acquires": {"optimal_cluster_count": 4},
                         "classifier": {"rounds": 10, "learning_rate": 0.3, "max_depth": 4,
                                        "min_child_weight": 1.0, "l2": 1.0}})
rows = add_numeric_column(root / "ingest-edge.csv", np.random.default_rng(seed + 400))
header, records = rows[0], rows[1:]
at = {name: i for i, name in enumerate(header)}

def edit(r, **cells):
    for name, value in cells.items():
        records[r][at[name]] = value

for k, b in enumerate((LOAD_CHUNK, 2 * LOAD_CHUNK, 3 * LOAD_CHUNK)):
    records[b - 3] = []  # a blank line
    edit(b - 2, owner=f"team {k},\nsecond line")
    edit(b - 1, gpu_req=["1e6", "-1e6", "0.0"][k], zone=" padded ")
    edit(b, cpu_usage=["inf", "nan", "-inf"][k])
    edit(b + 1, app="")
    records[b + 2] = records[b + 2][:3]  # a short row
    edit(b + 3, owner='say "hi", then\n\nleave', gpu_req=["1e-9", "9e9", "0"][k])
    records[b + 4] = []
    edit(b + 5, mem_usage="12x")
    edit(b + 7, gpu_req=[" 2e3 ", "-0.5", "7e7"][k], owner=f"q{k}, \"quoted\"")  # after the blanks
with open(root / "ingest-edge.csv", "w", encoding="utf-8", newline="") as fh:
    csv.writer(fh).writerows([header, *records])
descriptor = artifacts.read_json(root / "ingest-edge-descriptor.json")
descriptor["columns"]["gpu_req"] = "metadata"
descriptor["bucketize"] = ["gpu_req"]
artifacts.write_json(root / "ingest-edge-descriptor.json", descriptor)

# Small-integer runtime values: most rows repeat another row exactly, so
# distances are 0, mutual reachabilities tie and lambdas are infinite; one
# row in ten sits at every column's minimum, a zero vector after minmax.
ds, truth, _ = make_blob_trace(600, 3, seed=seed + 500, metadata_noise=0.03)
save("cluster-edge", ds, {"seed": seed,
                          "grid": {"algorithms": ["hdbscan"], "transforms": ["minmax", "power"],
                                   "distances": ["euclidean", "manhattan", "cosine"],
                                   "min_points": [3, 8, 30]},
                          "acquires": {"optimal_cluster_count": 3},
                          "classifier": {"rounds": 10, "learning_rate": 0.3, "max_depth": 4,
                                         "min_child_weight": 1.0, "l2": 1.0}})
rng = np.random.default_rng(seed + 500)
with open(root / "cluster-edge.csv", encoding="utf-8", newline="") as fh:
    rows = list(csv.reader(fh))
columns = [rows[0].index(f) for f in ds.schema_runtime]
for row, blob in zip(rows[1:], truth.tolist()):
    values = 1 + 3 * blob + rng.integers(0, 3, len(columns))
    for j, value in zip(columns, [1] * len(columns) if rng.random() < 0.1 else values):
        row[j] = str(int(value))
with open(root / "cluster-edge.csv", "w", encoding="utf-8", newline="") as fh:
    csv.writer(fh).writerows(rows)
artifacts.write_json(root / "dbscan-edge.json", {
    **artifacts.read_json(root / "cluster-edge.json"),
    "grid": {"algorithms": ["hdbscan", "dbscan"], "transforms": ["minmax", "power"],
             "distances": ["euclidean", "manhattan", "cosine"],
             "min_points": [3, 8, 30, 700], "eps": [0.01, 0.05, 0.2, 0.6]},
})

ds, _, _ = make_blob_trace(900, 4, seed=seed + 600, metadata_noise=0.03, outlier_fraction=0.03)
save("dbscan-blobs", ds, {"seed": seed,
                          "grid": {"algorithms": ["dbscan"], "transforms": ["power"],
                                   "distances": ["euclidean", "manhattan", "cosine"],
                                   "min_points": [10, 25], "eps": [0.05, 0.3, 0.8]},
                          "acquires": {"optimal_cluster_count": 4},
                          "classifier": {"rounds": 10, "learning_rate": 0.3, "max_depth": 4,
                                         "min_child_weight": 1.0, "l2": 1.0}})
"""

CLI = "import sys; from workload_profiler.cli import main; sys.exit(main(sys.argv[1:]))"


def src_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "workload_profiler").is_dir() else path


def run(src: Path, code: str, args: list, stdout=None, stdin=None) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, stdin=stdin,
                          stdout=stdout or subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {args[:1]} exited {proc.returncode}\n{proc.stderr}")


def produce(src: Path, inputs: Path, out: Path) -> None:
    """Every run of one tree, each into its own directory under ``out``."""
    for name in ("default-grid", "criterion-8", "drift", "drift-long"):
        run(src, CLI, ["build", "--config", inputs / f"{name}.json", "--out", out / name])
    for name in ("drift", "drift-long"):
        run(src, CLI, ["feedback", "--config", inputs / f"{name}.json",
                       "--stream", inputs / f"{name}-stream.csv", "--out", out / name])
    seconds = out / "drift-seconds"
    seconds.mkdir(parents=True, exist_ok=True)
    for artifact in ("model.json", "profiles.json"):
        shutil.copyfile(out / "drift" / artifact, seconds / artifact)
    run(src, CLI, ["feedback", "--config", inputs / "drift-seconds.json",
                   "--stream", inputs / "drift-seconds-stream.csv", "--out", seconds])
    for name in ("wide", "wide-deep"):
        run(src, CLI, ["build", "--config", inputs / f"{name}.json", "--out", out / name])
        with open(out / f"classify-{name}.jsonl", "w", encoding="utf-8") as fh:
            run(src, CLI, ["classify", "--model", out / name / "model.json",
                           "--profiles", out / name / "profiles.json",
                           "--input", inputs / "wide.jsonl"], stdout=fh)
    edge = out / "classify-edge"
    run(src, CLI, ["build", "--config", inputs / "edge.json", "--out", edge])
    doc = json.loads((edge / "profiles.json").read_text(encoding="utf-8"))
    doc["groups"] = [g for g in doc["groups"] if g["label"] != 10]
    (edge / "profiles-partial.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    for name, profiles in (("profiles", ["--profiles", edge / "profiles.json"]), ("none", []),
                           ("partial", ["--profiles", edge / "profiles-partial.json"])):
        with open(out / f"classify-edge-{name}.jsonl", "w", encoding="utf-8") as fh:
            run(src, CLI, ["classify", "--model", edge / "model.json", *profiles,
                           "--input", inputs / "edge.jsonl"], stdout=fh)
    with open(inputs / "edge-stdin.jsonl", "rb") as stdin, \
            open(out / "classify-edge-stdin.jsonl", "w", encoding="utf-8") as fh:
        run(src, CLI, ["classify", "--model", edge / "model.json", "--profiles",
                       edge / "profiles.json", "--input", "-"], stdout=fh, stdin=stdin)
    grid = out / "default-grid"
    with open(out / "classify.jsonl", "w", encoding="utf-8") as fh:
        run(src, CLI, ["classify", "--model", grid / "model.json",
                       "--profiles", grid / "profiles.json",
                       "--input", inputs / "classify.jsonl"], stdout=fh)
    # evaluate writes next to the build artifacts, so each run gets a copy
    for name in ("default-grid", "default-grid-alt"):
        target = out / f"evaluate-{name}"
        target.mkdir(parents=True, exist_ok=True)
        for artifact in ("model.json", "profiles.json"):
            shutil.copyfile(grid / artifact, target / artifact)
        run(src, CLI, ["evaluate", "--config", inputs / f"{name}.json",
                       "--holdout", inputs / "holdout.csv", "--out", target])
    for name in ("cluster-edge", "dbscan-edge", "dbscan-blobs"):
        run(src, CLI, ["build", "--config", inputs / f"{name}.json", "--out", out / name])
    edge = out / "ingest-edge"
    run(src, CLI, ["build", "--config", inputs / "ingest-edge.json", "--out", edge])
    run(src, CLI, ["evaluate", "--config", inputs / "ingest-edge.json",
                   "--holdout", inputs / "ingest-edge.csv", "--out", edge])
    trace = ["--trace", inputs / "default-grid.csv",
             "--descriptor", inputs / "default-grid-descriptor.json"]
    run(src, CLI, ["sample", *trace, "--stratify-on", "app", "--target", 300,
                   "--seed", 5, "--out", out / "sample.csv"])
    with open(out / "hopkins.json", "w", encoding="utf-8") as fh:
        run(src, CLI, ["hopkins", *trace, "--fraction", 0.1, "--seed", 3], stdout=fh)


def differences(a: Path, b: Path) -> list[str]:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    out = []
    for name in names:
        if not ((a / name).is_file() and (b / name).is_file()):
            out.append(f"{name}: only in {'base' if (a / name).is_file() else 'head'}")
        elif not filecmp.cmp(a / name, b / name, shallow=False):
            out.append(f"{name}: differs")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="source tree of the reference")
    parser.add_argument("--head", required=True, help="source tree under test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", help="keep inputs and outputs here (default: a temp dir)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.workdir) if args.workdir else Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        try:
            run(src_dir(args.head), GENERATE, [inputs, args.seed])
            for side, tree in (("base", args.base), ("head", args.head)):
                produce(src_dir(tree), inputs, work / side)
        except RuntimeError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        diff = differences(work / "base", work / "head")
        count = sum(1 for p in (work / "head").rglob("*") if p.is_file())
    for line in diff:
        print(line)
    print(json.dumps({"seed": args.seed, "files": count, "different": len(diff)}))
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())

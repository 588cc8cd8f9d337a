"""Output checks, computed apart from the program.

Nothing here imports workload_profiler: every expected value is recomputed
from the benchmark's own inputs (trace files, truth.json) with numpy and the
standard library, or is a property the method must have. No check compares
against a stored copy of earlier output.

Each `check_*` function returns a list of failure messages (empty means the
outputs are correct) and a dict of the figures it measured on the way.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import RUNTIME

# Floors. The planted blobs are 1.4 log10-units apart with a log-normal shape
# of 0.12, so the grid's winner recovers them almost exactly; what remains is
# the planted outliers (2%) that fall into a blob or split off as noise.
ARI_FLOOR = 0.90
# Agreement of classify-wide labels with the planted family. Each metadata
# field comes from a random family with probability `noise`; task_type alone
# then names the right family with probability 1 - noise * (k-1)/k. The floor
# allows 3 x noise of disagreement for unseen users and job names and for
# training rows the clustering put in another profile.
AGREEMENT_NOISE_FACTOR = 3.0
PROB_TOL = 1e-9
STATS_RTOL = 1e-12


# --------------------------------------------------------------------------
# Helpers (each has hand-built tests in test_bench.py)


def adjusted_rand_index(a, b) -> float:
    """Hubert-Arabie adjusted Rand index of two labellings of the same items.

    Every distinct value is a class of its own, -1 included."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labellings must be 1-d and of equal length")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def pairs(x):
        x = np.asarray(x, dtype=np.float64)
        return float(np.sum(x * (x - 1) / 2.0))

    index = pairs(table)
    rows = pairs(table.sum(axis=1))
    cols = pairs(table.sum(axis=0))
    total = a.size * (a.size - 1) / 2.0
    expected = rows * cols / total if total else 0.0
    maximum = (rows + cols) / 2.0
    if maximum == expected:
        return 1.0  # both labellings trivial (one class, or all singletons)
    return (index - expected) / (maximum - expected)


def skew_conditional_pick(stats: dict, quantile: float, skew_threshold: float) -> float:
    """The value a skew-conditional policy predicts from one feature's stored
    statistics: the quantile when skewness exceeds the threshold, else the
    median. `stats` is one feature entry of profiles.json."""
    skew = stats["skewness"]
    if skew is not None and skew > skew_threshold:
        want = quantile * 100.0
        for key, value in stats["percentiles"].items():
            if abs(float(key) - want) < 1e-9:
                return value
        raise KeyError(f"quantile {quantile} is not stored")
    return stats["median"]


class ForestRouter:
    """Routes metadata through model.json's serialized trees and vocabulary.

    Encoding: each feature's categories are a sorted list; a value's column is
    the feature's offset plus its index; an unknown value activates nothing.
    Routing: a node's `present` child is taken when its column is active.
    Probabilities: softmax of learning_rate x the summed leaf values per class.
    """

    def __init__(self, model: dict):
        if model.get("bucket_bounds"):
            raise ValueError("bucketized metadata is not used by these workloads")
        self.features = list(model["vocabulary"]["feature_names"])
        self.column = {}
        at = 0
        for f in self.features:
            for j, value in enumerate(model["vocabulary"]["categories"][f]):
                self.column[(f, value)] = at + j
            at += len(model["vocabulary"]["categories"][f])
        self.labels = [int(c) for c in model["class_labels"]]
        self.lr = float(model["hyperparams"]["learning_rate"])
        self.trees = model["trees"]

    def encode(self, metadata: dict) -> set[int]:
        cols = set()
        for f in self.features:
            col = self.column.get((f, str(metadata[f])))
            if col is not None:
                cols.add(col)
        return cols

    @staticmethod
    def leaf(node: dict, active: set[int]) -> float:
        while "feature" in node:
            node = node["present"] if node["feature"] in active else node["absent"]
        return float(node["value"])

    def probabilities(self, metadata: dict) -> dict[int, float]:
        active = self.encode(metadata)
        raw = [0.0] * len(self.labels)
        for per_class in self.trees:
            for c, tree in enumerate(per_class):
                raw[c] += self.lr * self.leaf(tree, active)
        top = max(raw)
        e = [math.exp(r - top) for r in raw]
        s = sum(e)
        return {label: v / s for label, v in zip(self.labels, e)}


def windowed_violation_rates(violated, window: int) -> np.ndarray:
    """Rate of violated events among the last `window` events, at each event
    (the window is shorter than `window` over the first events)."""
    v = np.asarray(violated, dtype=np.int64)
    csum = np.concatenate([[0], np.cumsum(v)])
    i = np.arange(v.size)
    lo = np.maximum(0, i + 1 - window)
    return (csum[i + 1] - csum[lo]) / (i + 1 - lo)


def argmax_lowest(probs: dict[int, float]) -> int:
    """Label of the largest probability; the lowest label wins ties."""
    top = max(probs.values())
    return min(label for label, p in probs.items() if p == top)


# --------------------------------------------------------------------------
# Readers


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_trace(path: Path) -> dict[str, list[float]]:
    """id -> runtime values in the order of workloads.RUNTIME."""
    out = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["id"]] = [float(row[f]) for f in RUNTIME]
    return out


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def identical_files(dirs: list[Path], names: list[str]) -> list[str]:
    failures = []
    for name in names:
        first = (dirs[0] / name).read_bytes()
        for d in dirs[1:]:
            if (d / name).read_bytes() != first:
                failures.append(f"{name} differs between {dirs[0].name} and {d.name}")
    return failures


# --------------------------------------------------------------------------
# Workload checks


def _grid_order(grid: dict) -> list[tuple[str, str, int]]:
    return [(t, d, int(m)) for t in grid["transforms"] for d in grid["distances"]
            for m in grid["min_points"]]


def check_build_grid(root: Path, passes: list[Path]) -> tuple[list[str], dict]:
    inputs = root / "inputs"
    truth = read_json(inputs / "truth.json")
    out = passes[0]
    fails: list[str] = []

    rows = read_csv_rows(out / "gridsearch.csv")
    declared = _grid_order(truth["grid"])
    got = [(r["transform"], r["distance"], int(r["min_points"])) for r in rows]
    if got != declared:
        fails.append(f"gridsearch.csv rows {got} != combinations {declared}")
    selected = [i for i, r in enumerate(rows) if r["selected"] == "true"]
    if len(selected) != 1:
        fails.append(f"{len(selected)} rows selected, expected exactly one")
    viable = [i for i, r in enumerate(rows) if r["acquires_total"] != ""]
    if viable and len(selected) == 1:
        # Documented tie-break: highest score, then fewer outliers, then
        # smaller min_points, then declaration order.
        best = min(viable, key=lambda i: (-float(rows[i]["acquires_total"]),
                                          int(rows[i]["n_outliers"]),
                                          int(rows[i]["min_points"]), i))
        if best != selected[0]:
            fails.append(f"selected row {selected[0]} but row {best} scores highest")

    profiles = read_json(out / "profiles.json")
    raw = read_trace(inputs / "train.csv")
    predicted = {wid: -1 for wid in raw}
    for g in profiles["groups"]:
        members = g["member_ids"]
        if len(members) != g["size"]:
            fails.append(f"group {g['label']}: size {g['size']} != {len(members)} members")
        values = np.array([raw[m] for m in members])
        for j, f in enumerate(RUNTIME):
            st = g["stats"][f]
            col = values[:, j]
            keys = sorted(st["percentiles"], key=float)
            want = np.percentile(col, [float(k) for k in keys])
            got_p = np.array([st["percentiles"][k] for k in keys])
            if not np.allclose(got_p, want, rtol=STATS_RTOL, atol=0.0):
                fails.append(f"group {g['label']} {f}: percentiles {got_p} != {want}")
            if not math.isclose(st["median"], float(np.median(col)), rel_tol=STATS_RTOL):
                fails.append(f"group {g['label']} {f}: median differs")
            if not math.isclose(st["mean"], float(col.mean()), rel_tol=STATS_RTOL):
                fails.append(f"group {g['label']} {f}: mean differs")
        for m in members:
            predicted[m] = g["label"]
    clustered = sum(g["size"] for g in profiles["groups"])
    if clustered + profiles["outlier_count"] != len(raw):
        fails.append("profile sizes plus outliers do not cover the trace")
    ids = list(raw)
    ari = adjusted_rand_index([predicted[i] for i in ids], [truth["family"][i] for i in ids])
    if ari < ARI_FLOOR:
        fails.append(f"adjusted Rand index {ari:.4f} < floor {ARI_FLOOR}")

    fails += identical_files(
        passes, ["profiles.json", "model.json", "gridsearch.csv", "build-report.json"]
    )
    return fails, {"ari": ari, "profiles": len(profiles["groups"])}


def check_classify_wide(root: Path, passes: list[Path], sample_seed: int,
                        sample_size: int = 64) -> tuple[list[str], dict]:
    inputs = root / "inputs"
    truth = read_json(inputs / "truth.json")
    config = read_json(inputs / "config.json")
    model = read_json(root / "model" / "model.json")
    profiles = read_json(root / "model" / "profiles.json")
    policy = config["prediction"]
    fails: list[str] = []

    lines = [json.loads(s) for s in (inputs / "stream.jsonl").read_text().splitlines() if s]
    outs = [json.loads(s) for s in (passes[0] / "classify.jsonl").read_text().splitlines() if s]
    if len(outs) != len(lines):
        return [f"{len(outs)} output lines for {len(lines)} input lines"], {}

    group = {g["label"]: g for g in profiles["groups"]}
    for rec, out in zip(lines, outs):
        if "error" in out or out.get("id") != rec["id"]:
            fails.append(f"line {rec['id']}: unexpected output {out}")
            continue
        probs = {int(k): v for k, v in out["probs"].items()}
        if abs(sum(probs.values()) - 1.0) > PROB_TOL:
            fails.append(f"line {rec['id']}: probs sum to {sum(probs.values())}")
        if out["label"] != argmax_lowest(probs):
            fails.append(f"line {rec['id']}: label {out['label']} is not the argmax")
        stats = group[out["label"]]["stats"]
        want = {f: skew_conditional_pick(stats[f], policy["quantile"], policy["skew_threshold"])
                for f in stats}
        if out.get("predicted") != want:
            fails.append(f"line {rec['id']}: predicted {out.get('predicted')} != {want}")
        if len(fails) > 20:
            return fails, {}

    router = ForestRouter(model)
    rng = np.random.default_rng(sample_seed)
    for i in rng.choice(len(lines), size=min(sample_size, len(lines)), replace=False):
        want = router.probabilities(lines[i]["metadata"])
        got = {int(k): v for k, v in outs[i]["probs"].items()}
        if set(got) != set(want) or any(abs(got[c] - want[c]) > PROB_TOL for c in want):
            fails.append(f"line {lines[i]['id']}: probs {got} != routed {want}")

    # Map each profile to the planted family most of its members come from.
    family_of = {}
    for g in profiles["groups"]:
        counts = Counter(truth["family"][m] for m in g["member_ids"])
        family_of[g["label"]] = counts.most_common(1)[0][0]
    hits = sum(family_of[o["label"]] == f for o, f in zip(outs, truth["line_family"]))
    agreement = hits / len(outs)
    floor = 1.0 - AGREEMENT_NOISE_FACTOR * truth["noise"]
    if agreement < floor:
        fails.append(f"agreement with planted family {agreement:.4f} < floor {floor:.4f}")

    fails += identical_files(passes, ["classify.jsonl"])
    return fails, {"agreement": agreement, "columns": len(router.column)}


def check_feedback_drift(root: Path, passes: list[Path]) -> tuple[list[str], dict]:
    truth = read_json(root / "inputs" / "truth.json")
    out = passes[0]
    report = read_json(out / "feedback-report.json")
    timeline = read_csv_rows(out / "violations.csv")
    n = truth["records"]
    fails: list[str] = []

    if report["events_total"] != n:
        fails.append(f"events_total {report['events_total']} != stream length {n}")
    if [int(r["event_index"]) for r in timeline] != list(range(n)):
        fails.append("violations.csv does not hold one row per event, in order")
        return fails, {}

    violated = [r["violated"] == "true" for r in timeline]
    rates = windowed_violation_rates(violated, truth["window"])
    above = np.flatnonzero(rates > truth["tau_v"])
    triggers = report["triggers"]
    if len(triggers) != 1:
        fails.append(f"{len(triggers)} triggers fired, expected exactly one")
    if triggers:
        tr = triggers[0]
        if tr["causes"] != ["violation"]:
            fails.append(f"trigger causes {tr['causes']} != ['violation']")
        first = int(above[0]) if above.size else None
        if tr["event_index"] != first:
            fails.append(f"trigger at event {tr['event_index']}, windowed rate first "
                         f"exceeds tau_v at {first}")
        if tr["event_index"] < truth["drift_start"]:
            fails.append(f"trigger at {tr['event_index']} precedes the drift "
                         f"({truth['drift_start']})")
        if not tr["adopted"]:
            fails.append(f"trigger not adopted: {tr['reason']}")
        else:
            after = violated[tr["event_index"] + 1:]
            if (tr["events_after"], tr["violations_after"]) != (len(after), sum(after)):
                fails.append("violations_after / events_after disagree with violations.csv")
            elif tr["violations_after"] / tr["events_after"] >= truth["tau_v"]:
                fails.append(f"post-adoption violation rate "
                             f"{tr['violations_after'] / tr['events_after']:.4f} >= tau_v")

    fails += identical_files(passes, ["feedback-report.json", "violations.csv",
                                      "profiles-post.json", "model-post.json"])
    return fails, {"trigger_at": [tr["event_index"] for tr in triggers],
                   "violations": report["violations_total"]}


def check(workload: str, root: Path, passes: list[Path], seed: int) -> tuple[list[str], dict]:
    if workload == "build-grid":
        return check_build_grid(root, passes)
    if workload == "classify-wide":
        return check_classify_wide(root, passes, sample_seed=seed)
    return check_feedback_drift(root, passes)

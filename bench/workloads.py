"""Seeded inputs, run configurations and CLI arguments of the three workloads.

The generator is the benchmark's own (numpy only, no import of the program),
so a change to the program never changes its inputs. One seed gives the same
files, byte for byte, on every machine with the same numpy.

Every workload writes into one directory:

    inputs/   trace CSVs, descriptor, config, JSONL stream, truth.json
    model/    build artifacts the timed passes read (classify, feedback)
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("build-grid", "classify-wide", "feedback-drift")

RUNTIME = ("cpu_usage", "gpu_usage", "mem_usage", "duration")
SIGMA = 0.12  # log-normal shape, natural-log units

# Sizes per profile. "full" is what the benchmark measures; "tiny" is the
# smoke run of the benchmark's own tests and only has to pass every check.
SIZES = {
    "full": {
        "build-grid": {"n": 2000, "blobs": 5, "outliers": 0.02, "noise": 0.03,
                       "min_points": [25, 50], "rounds": 20},
        "classify-wide": {"n_train": 4000, "families": 6, "lines": 3000, "unseen": 0.25,
                          "noise": 0.05, "users": 200, "jobs": 350, "images": 30,
                          "min_points": 50, "rounds": 40},
        "feedback-drift": {"n_train": 2500, "blobs": 5, "known": 1000, "drift": 12000,
                           "noise": 0.02, "window": 500, "min_points": 25, "rounds": 30},
    },
    "tiny": {
        "build-grid": {"n": 400, "blobs": 3, "outliers": 0.02, "noise": 0.03,
                       "min_points": [15, 30], "rounds": 5},
        "classify-wide": {"n_train": 500, "families": 3, "lines": 200, "unseen": 0.25,
                          "noise": 0.05, "users": 30, "jobs": 40, "images": 5,
                          "min_points": 30, "rounds": 10},
        "feedback-drift": {"n_train": 600, "blobs": 3, "known": 300, "drift": 600,
                           "noise": 0.02, "window": 400, "min_points": 10, "rounds": 10},
    },
}

# Workload tags keep the three generators' random streams apart for one seed.
_TAG = {"build-grid": 101, "classify-wide": 202, "feedback-drift": 303}

TAU_V = 0.1
PREDICTION = {"kind": "skew_conditional", "quantile": 0.05, "skew_threshold": 1.0}
STATS_PERCENTILES = [5, 25, 50, 75, 95]


def _centers(rng, k: int, min_sep: float = 1.4) -> np.ndarray:
    """Blob centers in log10 space, pairwise at least min_sep apart."""
    centers = np.empty((k, len(RUNTIME)))
    placed = 0
    while placed < k:
        cand = rng.uniform(0.5, 3.5, size=len(RUNTIME))
        if all(np.linalg.norm(cand - centers[i]) >= min_sep for i in range(placed)):
            centers[placed] = cand
            placed += 1
    return centers


def _usage(rng, centers: np.ndarray, family: np.ndarray, clip: float | None = None) -> np.ndarray:
    """Log-normal usage around each row's center; family -1 is an outlier,
    placed uniformly in log space. `clip` bounds the log-space noise at that
    many standard deviations."""
    n = family.size
    logs = np.empty((n, len(RUNTIME)))
    planted = family >= 0
    noise = rng.normal(0.0, SIGMA, size=(int(planted.sum()), len(RUNTIME)))
    if clip is not None:
        noise = np.clip(noise, -clip * SIGMA, clip * SIGMA)
    logs[planted] = centers[family[planted]] * np.log(10) + noise
    logs[~planted] = rng.uniform(-1.0, 5.0, size=(int((~planted).sum()), len(RUNTIME))) * np.log(10)
    return np.exp(logs)


def _write_csv(path: Path, ids, meta_cols, meta, values: np.ndarray, ts) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *meta_cols, *RUNTIME, "submit_ts"])
        for i, wid in enumerate(ids):
            w.writerow([wid, *(meta[i][c] for c in meta_cols),
                        *(repr(float(v)) for v in values[i]), int(ts[i])])


def _descriptor(meta_cols) -> dict:
    cols = {"id": "id"}
    cols.update({c: "metadata" for c in meta_cols})
    cols.update({c: "runtime" for c in RUNTIME})
    cols["submit_ts"] = "timestamp"
    return {"columns": cols}


def _config(seed: int, grid: dict, optimal: int, rounds: int, **extra) -> dict:
    doc = {
        "trace": "train.csv",
        "descriptor": "descriptor.json",
        "output_dir": "out",
        "seed": seed,
        "grid": {"algorithms": ["hdbscan"], **grid},
        "acquires": {"optimal_cluster_count": optimal},
        "classifier": {"rounds": rounds, "learning_rate": 0.3, "max_depth": 6,
                       "min_child_weight": 1.0, "l2": 1.0},
        "prediction": PREDICTION,
        "stats_percentiles": STATS_PERCENTILES,
        "include_member_ids": True,
        "build_timestamp": 0,
    }
    doc.update(extra)
    return doc


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _narrow_meta(rng, family: np.ndarray, k: int, noise: float, tag: str = "") -> list[dict]:
    """app / owner / zone: a handful of values per family, `noise` of the
    app values drawn from a random family instead."""
    out = []
    for f in family.tolist():
        if f < 0:
            out.append({"app": "adhoc", "owner": f"user{int(rng.integers(0, 3 * k))}",
                        "zone": f"z{int(rng.integers(0, 4))}"})
            continue
        app = f if rng.random() >= noise else int(rng.integers(0, k))
        out.append({"app": f"app{tag}{app}", "owner": f"user{tag}{3 * f + int(rng.integers(0, 3))}",
                    "zone": f"z{int(rng.integers(0, 4))}"})
    return out


def make_build_grid(inputs: Path, seed: int, sz: dict) -> None:
    rng = np.random.default_rng([seed, _TAG["build-grid"]])
    k, n = sz["blobs"], sz["n"]
    centers = _centers(rng, k)
    family = rng.integers(0, k, size=n)
    family[rng.choice(n, size=int(round(n * sz["outliers"])), replace=False)] = -1
    values = _usage(rng, centers, family)
    meta_cols = ("app", "owner", "zone")
    ids = [f"w{i}" for i in range(n)]
    _write_csv(inputs / "train.csv", ids, meta_cols, _narrow_meta(rng, family, k, sz["noise"]),
               values, range(n))
    _dump(inputs / "descriptor.json", _descriptor(meta_cols))
    grid = {"transforms": ["power", "standard"], "distances": ["euclidean", "manhattan"],
            "min_points": sz["min_points"]}
    _dump(inputs / "config.json", _config(seed, grid, k, sz["rounds"]))
    truth = {"family": dict(zip(ids, family.tolist())), "grid": grid, "records": n}
    _dump(inputs / "truth.json", truth)


def _wide_meta(rng, f: int, sz: dict, unseen: bool, serial: int) -> dict:
    """user / job_name / task_type / queue / image for one workload of family f.

    Each field is drawn from family f's pool; with probability `noise` a field
    comes from a random family's pool instead. Unseen workloads get a user and
    a job name that no training row carries."""
    k = sz["families"]

    def fam() -> int:
        return f if rng.random() >= sz["noise"] else int(rng.integers(0, k))

    meta = {
        "user": f"u{fam()}_{int(rng.integers(0, sz['users']))}",
        "job_name": f"job{fam()}_{int(rng.integers(0, sz['jobs']))}",
        "task_type": f"task{fam()}",
        "queue": f"q{(fam() + int(rng.integers(0, 2))) % 4}",
        "image": f"img{fam()}_{int(rng.integers(0, sz['images']))}",
    }
    if unseen:
        meta["user"] = f"newuser{serial}"
        meta["job_name"] = f"newjob{serial}"
    return meta


def make_classify_wide(inputs: Path, seed: int, sz: dict) -> None:
    rng = np.random.default_rng([seed, _TAG["classify-wide"]])
    k, n = sz["families"], sz["n_train"]
    centers = _centers(rng, k)
    family = rng.integers(0, k, size=n)
    values = _usage(rng, centers, family)
    meta_cols = ("user", "job_name", "task_type", "queue", "image")
    ids = [f"t{i}" for i in range(n)]
    meta = [_wide_meta(rng, int(f), sz, False, i) for i, f in enumerate(family)]
    _write_csv(inputs / "train.csv", ids, meta_cols, meta, values, range(n))
    _dump(inputs / "descriptor.json", _descriptor(meta_cols))
    grid = {"transforms": ["power"], "distances": ["euclidean"], "min_points": [sz["min_points"]]}
    _dump(inputs / "config.json", _config(seed, grid, k, sz["rounds"]))

    lines = sz["lines"]
    line_family = rng.integers(0, k, size=lines)
    unseen = rng.random(lines) < sz["unseen"]
    with open(inputs / "stream.jsonl", "w", encoding="utf-8") as fh:
        for i in range(lines):
            doc = {"id": f"c{i}", "metadata": _wide_meta(rng, int(line_family[i]), sz,
                                                         bool(unseen[i]), i)}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    truth = {"family": dict(zip(ids, family.tolist())), "line_family": line_family.tolist(),
             "noise": sz["noise"], "records": lines}
    _dump(inputs / "truth.json", truth)


def make_feedback_drift(inputs: Path, seed: int, sz: dict) -> None:
    rng = np.random.default_rng([seed, _TAG["feedback-drift"]])
    k, n = sz["blobs"], sz["n_train"]
    centers = _centers(rng, k + 1)  # the last blob is the drifted family
    meta_cols = ("app", "owner", "zone")

    family = rng.integers(0, k, size=n)
    ids = [f"t{i}" for i in range(n)]
    _write_csv(inputs / "train.csv", ids, meta_cols, _narrow_meta(rng, family, k, sz["noise"]),
               _usage(rng, centers, family), range(n))

    # The in-distribution prefix is clean: no metadata noise, and usage within
    # 2.5 sigma of its blob (at most 35% from the median, below delta = 50%).
    # The violation rate is taken over a window that is still filling at the
    # start of the stream, so one early violation would fire a trigger there.
    known, drift = sz["known"], sz["drift"]
    known_family = rng.integers(0, k, size=known)
    meta = _narrow_meta(rng, known_family, k, 0.0)
    meta += _narrow_meta(rng, np.zeros(drift, dtype=np.int64), 1, 0.0, tag="D")
    values = np.concatenate([_usage(rng, centers, known_family, clip=2.5),
                             _usage(rng, centers, np.full(drift, k))])
    _write_csv(inputs / "stream.csv", [f"s{i}" for i in range(known + drift)], meta_cols, meta,
               values, range(n, n + known + drift))
    _dump(inputs / "descriptor.json", _descriptor(meta_cols))

    grid = {"transforms": ["power"], "distances": ["euclidean"], "min_points": [sz["min_points"]]}
    feedback = {
        "delta": {"mode": "relative", "default": 0.5},
        "tau_v": TAU_V,
        "tau_o": 1.0,     # an outlier ratio never exceeds 1: this trigger cannot fire
        "tau_f": 0.5,
        "decay": 1e-12,   # freshness stays above tau_f for the whole stream
        "window": sz["window"],
        "window_mode": "events",
        "tau_quality": 0.5,
        "min_events_between_triggers": sz["window"],
    }
    _dump(inputs / "config.json", _config(seed, grid, k, sz["rounds"], feedback=feedback))
    truth = {"drift_start": known, "records": known + drift, "window": sz["window"],
             "tau_v": TAU_V}
    _dump(inputs / "truth.json", truth)


GENERATORS = {
    "build-grid": make_build_grid,
    "classify-wide": make_classify_wide,
    "feedback-drift": make_feedback_drift,
}


def generate(workload: str, root: Path, seed: int, size: str = "full") -> None:
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](inputs, seed, SIZES[size][workload])


def build_argv(root: Path) -> list[str]:
    """The `build` whose artifacts classify-wide and feedback-drift read."""
    inputs = root / "inputs"
    return ["build", "--config", str(inputs / "config.json"), "--out", str(root / "model")]


def pass_argv(workload: str, root: Path, out: Path) -> list[str]:
    """CLI arguments of one timed pass writing into `out`."""
    inputs = root / "inputs"
    if workload == "build-grid":
        return ["build", "--config", str(inputs / "config.json"), "--out", str(out)]
    if workload == "classify-wide":
        return ["classify", "--model", str(root / "model" / "model.json"),
                "--profiles", str(root / "model" / "profiles.json"),
                "--input", str(inputs / "stream.jsonl")]
    return ["feedback", "--config", str(inputs / "config.json"),
            "--stream", str(inputs / "stream.csv"), "--out", str(out)]

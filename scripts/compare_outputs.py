#!/usr/bin/env python3
"""Byte-compare the artifacts two source trees write for the same inputs.

    python scripts/compare_outputs.py --base ../parent --head .

Each tree (a checkout, or its ``src`` directory) runs the CLI in its own
subprocess on one set of seeded ``synth`` inputs, generated once by the head
tree:

  default-grid   build on a 1200-row trace with the default 56-combination
                 grid, then ``classify`` of 300 JSONL records against it;
  criterion-8    build with the config of acceptance criterion 8;
  drift          build and ``feedback`` over a ``make_drift_pair`` stream.

Every file of every run directory and each command's classify output is
compared byte for byte. Exits 1 on any difference or failed command, 0 when
everything is identical.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GENERATE = r"""
import json, sys
from pathlib import Path
from workload_profiler import artifacts
from workload_profiler.synth import make_blob_trace, make_drift_pair
from workload_profiler.trace_model import schema_for, write_trace

root, seed = Path(sys.argv[1]), int(sys.argv[2])

def save(name, ds, config):
    write_trace(ds, root / f"{name}.csv")
    artifacts.write_json(root / f"{name}-descriptor.json", schema_for(ds).to_json())
    doc = {"trace": str(root / f"{name}.csv"),
           "descriptor": str(root / f"{name}-descriptor.json"), **config}
    artifacts.write_json(root / f"{name}.json", doc)

ds, _, _ = make_blob_trace(1200, 4, seed=seed, metadata_noise=0.03, outlier_fraction=0.02)
save("default-grid", ds, {"seed": seed, "acquires": {"optimal_cluster_count": 4}})
with open(root / "classify.jsonl", "w", encoding="utf-8") as fh:
    for w in ds.workloads[:300]:
        fh.write(json.dumps({"id": w.id, "metadata": w.metadata}, sort_keys=True) + "\n")

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
"""

CLI = "import sys; from workload_profiler.cli import main; sys.exit(main(sys.argv[1:]))"


def src_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "workload_profiler").is_dir() else path


def run(src: Path, code: str, args: list, stdout=None) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          stdout=stdout or subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {args[:1]} exited {proc.returncode}\n{proc.stderr}")


def produce(src: Path, inputs: Path, out: Path) -> None:
    """Every run of one tree, each into its own directory under ``out``."""
    for name in ("default-grid", "criterion-8", "drift"):
        run(src, CLI, ["build", "--config", inputs / f"{name}.json", "--out", out / name])
    run(src, CLI, ["feedback", "--config", inputs / "drift.json",
                   "--stream", inputs / "drift-stream.csv", "--out", out / "drift"])
    with open(out / "classify.jsonl", "w", encoding="utf-8") as fh:
        run(src, CLI, ["classify", "--model", out / "default-grid" / "model.json",
                       "--profiles", out / "default-grid" / "profiles.json",
                       "--input", inputs / "classify.jsonl"], stdout=fh)


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

#!/usr/bin/env python3
"""Benchmark of workload-profiler's build, classify and feedback paths.

Run from the repository root:

    python3 bench/run.py --workload build-grid --seed 1 --seconds 30 --trace 0

Each run makes two fresh child processes (see child.py): one sets up the
seeded inputs several times and reports the median set-up time; the other
drives `workload_profiler.cli.main` over those inputs for `--seconds` and
reports the median pass. Every pass's outputs are then checked (checks.py).
The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` passes, and the metrics - the end-to-end ones with `--trace 0`,
the per-layer ones of one extra traced pass with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent

RUNS_DIR = Path(".bench_runs")
SETUP_REPS = {"build-grid": 50, "classify-wide": 3, "feedback-drift": 3}
RUN_DEADLINE_S = 170  # the whole run, both children included

# Child processes get one BLAS / OpenMP thread, so a run does not depend on
# how many threads numpy's libraries would start on the host.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(mode: str, args, root: Path, env: dict, deadline: float, extra: list[str]) -> dict:
    """Run one child to its end; it is killed if the run's deadline passes."""
    result = root / f"{mode}-result.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(root), "--size", args.size,
           "--result", str(result), *extra]
    proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{mode} child exited {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES),
                        help="input sizes; 'tiny' is for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    src = Path("src").resolve()
    if not (src / "workload_profiler" / "cli.py").is_file():
        print("error: run from the repository root; src/workload_profiler is missing",
              file=sys.stderr)
        return 2

    root = (RUNS_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}").resolve()
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    env = child_env(src)
    try:
        setup = run_child("setup", args, root, env, deadline,
                          ["--reps", str(SETUP_REPS[args.workload])])
        timed = run_child("passes", args, root, env, deadline,
                          ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    codes = timed["codes"] + ([timed["traced"]["code"]] if args.trace else [])
    pass_dirs = [root / "out" / f"pass{i}" for i, c in enumerate(codes) if c == 0]
    attempted, failed = len(codes), sum(1 for c in codes if c != 0)
    ok_walls = [w for w, c in zip(timed["walls"], timed["codes"]) if c == 0]
    if len(pass_dirs) < 2 or not ok_walls:
        print(f"error: {failed} of {attempted} passes failed", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    failures, facts = checks.check(args.workload, root, pass_dirs, args.seed)
    check_s = time.perf_counter() - t0
    for msg in failures:
        print(f"CHECK FAILED [{args.workload}]: {msg}", file=sys.stderr)

    records = checks.read_json(root / "inputs" / "truth.json")["records"]
    median_pass = statistics.median(ok_walls)
    print(f"workload {args.workload}  seed {args.seed}  records/pass {records}  "
          f"passes {attempted} (failed {failed})  checks {'ok' if not failures else 'FAILED'} "
          f"({check_s:.1f}s)")
    print(f"  checked: {json.dumps(facts)}")
    print(f"  pass walls (s): {' '.join(f'{w:.3f}' for w in timed['walls'])}")
    print(f"  set-up walls (s): {' '.join(f'{w:.3f}' for w in setup['setup_s'])}")

    if args.trace:
        traced = timed["traced"]
        metrics = traced["metrics"]
        if traced["absent"]:
            print(f"  absent layers: {' '.join(traced['absent'])}", file=sys.stderr)
        for layer, err in traced["hook_errors"].items():
            print(f"  counter of {layer} failed: {err}", file=sys.stderr)
        wall = traced["wall"]
        print(f"  traced pass {wall:.3f}s; self time by layer, share of the pass "
              f"(* entry layer: not attributed, left out of trace.coverage)")
        for layer, s in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
            mark = "*" if layer in traced["entry"] else " "
            print(f"    {mark} {layer:<34} {s:9.4f} s {s / wall:7.4f}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
            "records_per_s": {"value": records / median_pass, "unit": "records/s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")

    if args.trace:
        spans = RUNS_DIR.resolve() / f"spans-{args.workload}-s{args.seed}.json"
        shutil.copyfile(root / "spans.json", spans)
        print(f"  spans written to {spans}")
    shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

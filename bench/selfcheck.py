#!/usr/bin/env python3
"""Self-check: are two sets of runs of the same code the same, within bounds?

Run from the repository root:

    python3 bench/selfcheck.py

Makes two sets of RUNS runs of every workload (set A on seeds 1..10, set B on
seeds 101..110). The workload order alternates from one run to the next. For
each workload and end-to-end metric it prints both medians, their quartile
spreads ((q3 - q1) / median) and whether they agree: the two medians differ,
in either direction, by no more than the metric's bound in BENCHMARK.json
(as a share of set A's median), and each spread stays within the bound. All
runs are written to .bench_runs/selfcheck.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SET_SEEDS = {"A": 1, "B": 101}
RUNS = 10
OUT = Path(".bench_runs/selfcheck.json")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative when better)."""
    return (first - second) / first if better == "higher" else (second - first) / first


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs: dict[str, dict[str, list[dict]]] = {s: {w: [] for w in WORKLOADS} for s in SET_SEEDS}
    for set_index, (name, first_seed) in enumerate(SET_SEEDS.items()):
        for i in range(RUNS):
            order = WORKLOADS if (i + set_index) % 2 == 0 else WORKLOADS[::-1]
            for w in order:
                res = one_run(w, first_seed + i, seconds)
                runs[name][w].append(res)
                vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
                print(f"set {name} run {i + 1}/{RUNS} {w:<15} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    ok = True
    print(f"\n{'workload':<15} {'metric':<14} {'median A':>11} {'median B':>11} "
          f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}  agree")
    for w in WORKLOADS:
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs["A"][w]]
            b = [r["metrics"][m["name"]]["value"] for r in runs["B"][w]]
            sa, sb = spread(a), spread(b)
            drift = worse_by(statistics.median(a), statistics.median(b), m["better"])
            agree = abs(drift) <= m["bound"] and sa <= m["bound"] and sb <= m["bound"]
            ok &= agree
            print(f"{w:<15} {m['name']:<14} {statistics.median(a):11.5g} "
                  f"{statistics.median(b):11.5g} {sa:9.4f} {sb:9.4f} {drift:8.4f} "
                  f"{m['bound']:6.2f}  {'yes' if agree else 'NO'}")
        shares = {s: sum(r["failed"] for r in runs[s][w]) / sum(r["attempted"] for r in runs[s][w])
                  for s in SET_SEEDS}
        correct = all(r["correct"] for s in SET_SEEDS for r in runs[s][w])
        ok &= correct and shares["A"] == shares["B"]
        print(f"{w:<15} failed share A {shares['A']:.4f} B {shares['B']:.4f}; "
              f"all outputs correct: {correct}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\nself-check {'passed' if ok else 'FAILED'}; runs in {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Feedback-loop experiment: stream in-distribution events followed by a
drifted blob the profiles have never seen, watch the violation-rate trigger
fire, and check that the adopted re-clustering stops the violations.

    python scripts/run_drift_experiment.py --train 6000 --known 5000 \
        --drift 5000 --seed 17 --workdir runs/drift
"""

import argparse
import time
from pathlib import Path

from workload_profiler import artifacts
from workload_profiler.pipeline import RunConfig, run_build, run_feedback_command
from workload_profiler.synth import make_drift_pair
from workload_profiler.trace_model import schema_for, write_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=int, default=6_000)
    parser.add_argument("--known", type=int, default=5_000)
    parser.add_argument("--drift", type=int, default=5_000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--window", type=int, default=1_000)
    parser.add_argument("--tau-v", type=float, default=0.1)
    parser.add_argument("--workdir", default="runs/drift")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    train_ds, stream_ds = make_drift_pair(
        args.train, args.known, args.drift, n_clusters=args.clusters, seed=args.seed
    )
    trace = workdir / "train.csv"
    stream = workdir / "stream.csv"
    write_trace(train_ds, trace)
    write_trace(stream_ds, stream)
    descriptor = workdir / "descriptor.json"
    artifacts.write_json(descriptor, schema_for(train_ds))

    config = RunConfig.from_json(
        {
            "trace": str(trace),
            "descriptor": str(descriptor),
            "output_dir": str(workdir / "out"),
            "seed": args.seed,
            "grid": {
                "algorithms": ["hdbscan"],
                "transforms": ["power"],
                "distances": ["euclidean"],
                "min_points": [50],
            },
            "acquires": {"optimal_cluster_count": args.clusters},
            "prediction": {"kind": "skew_conditional", "quantile": 0.05, "skew_threshold": 1.0},
            "feedback": {
                "delta": {"mode": "relative", "default": 0.5},
                "tau_v": args.tau_v,
                "tau_o": 0.9,
                "tau_f": 0.5,
                "decay": 1e-12,
                "window": args.window,
                "window_mode": "events",
                "tau_quality": 0.5,
                "min_events_between_triggers": args.window,
            },
        }
    )

    t0 = time.time()
    run_build(config)
    print(f"build done ({time.time() - t0:.1f}s)")

    t0 = time.time()
    report = run_feedback_command(config, stream)
    print(f"feedback done ({time.time() - t0:.1f}s):")
    print(f"  events                 {report.events_total}")
    print(f"  violations             {report.violations_total}")
    print(f"  outliers               {report.outliers_total}")
    print(f"  triggers / adopted     {len(report.triggers)} / {report.adopted_count}")
    for tr in report.triggers:
        post = (f", post-update violations {tr.violations_after}/{tr.events_after}"
                if tr.adopted else "")
        print(
            f"    @event {tr.event_index} causes={tr.causes} "
            f"quality {tr.acquires_before} -> {tr.acquires_after} "
            f"adopted={tr.adopted}{post}"
        )
    print(f"artifacts in {workdir / 'out'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

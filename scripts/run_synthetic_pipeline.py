#!/usr/bin/env python3
"""End-to-end experiment on synthetic data: cluster a training trace,
train the metadata classifier, then score behavior predictions on an
unseen holdout drawn from the same generators.

    python scripts/run_synthetic_pipeline.py --train 10000 --holdout 2000 \
        --clusters 5 --seed 41 --workdir runs/pipeline
"""

import argparse
import time
from pathlib import Path

from workload_profiler import artifacts
from workload_profiler.pipeline import RunConfig, run_build, run_evaluate
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import schema_for, write_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=int, default=10_000)
    parser.add_argument("--holdout", type=int, default=2_000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--min-points", type=int, default=50)
    parser.add_argument("--workdir", default="runs/pipeline")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    train_ds, _, centers = make_blob_trace(
        args.train, args.clusters, seed=args.seed, metadata_noise=0.02
    )
    holdout_ds, _, _ = make_blob_trace(
        args.holdout, args.clusters, seed=args.seed + 1, centers=centers, id_prefix="h"
    )
    trace = workdir / "train.csv"
    holdout = workdir / "holdout.csv"
    write_trace(train_ds, trace)
    write_trace(holdout_ds, holdout)
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
                "transforms": ["power", "standard"],
                "distances": ["euclidean"],
                "min_points": [args.min_points],
            },
            "acquires": {"optimal_cluster_count": args.clusters},
            "prediction": {"kind": "skew_conditional", "quantile": 0.05, "skew_threshold": 1.0},
        }
    )

    t0 = time.time()
    build = run_build(config)
    report = build.report
    print(f"build ({time.time() - t0:.1f}s):")
    print(f"  hopkins score          {report['hopkins']['score']:.4f}")
    print(f"  winner                 {report['winner']}")
    print(f"  clusters / outliers    {report['winner_metrics']['n_clusters']} / "
          f"{report['winner_metrics']['n_outliers']}")
    print(f"  composite quality      {report['winner_metrics']['acquires_total']:.4f}")
    print(f"  validation accuracy    {report['validation_report']['accuracy']:.4f}")

    t0 = time.time()
    rmse = run_evaluate(config, holdout)
    print(f"evaluate ({time.time() - t0:.1f}s):")
    print(f"  workloads scored       {rmse.n_evaluated}")
    print(f"  fraction_below_50      {rmse.fraction_below_50:.4f}")
    print(f"artifacts in {workdir / 'out'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Generate a synthetic workload trace (CSV + descriptor) for the CLI.

Examples:
    python scripts/make_synthetic_trace.py --n 10000 --clusters 5 --out data/train
    python scripts/make_synthetic_trace.py --n 2000 --clusters 5 --seed 8 \
        --reuse-centers data/train.centers.npy --out data/holdout
"""

import argparse
from pathlib import Path

import numpy as np

from workload_profiler import artifacts
from workload_profiler.synth import make_blob_trace
from workload_profiler.trace_model import schema_for, write_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sigma", type=float, default=0.12)
    parser.add_argument("--metadata-noise", type=float, default=0.02)
    parser.add_argument("--outlier-fraction", type=float, default=0.0)
    parser.add_argument("--reuse-centers", help="npy file with log-space centers")
    parser.add_argument("--out", required=True, help="output prefix (no extension)")
    args = parser.parse_args()

    centers = np.load(args.reuse_centers) if args.reuse_centers else None
    dataset, labels, centers = make_blob_trace(
        args.n,
        args.clusters,
        seed=args.seed,
        sigma=args.sigma,
        metadata_noise=args.metadata_noise,
        outlier_fraction=args.outlier_fraction,
        centers=centers,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace(dataset, out.with_suffix(".csv"))
    artifacts.write_json(out.with_suffix(".descriptor.json"), schema_for(dataset))
    np.save(out.with_suffix(".centers.npy"), centers)
    counts = {int(c): int((labels == c).sum()) for c in sorted(set(labels.tolist()))}
    print(f"wrote {len(dataset)} workloads to {out.with_suffix('.csv')}")
    print(f"true cluster sizes: {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

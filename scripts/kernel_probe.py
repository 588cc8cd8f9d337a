#!/usr/bin/env python3
"""Time the distance kernel at the block shapes of the clustering passes,
inside its small-buffer scope and through ``__wrapped__`` (numpy's default
ufunc buffer), and check that both give the same bits.

    python scripts/kernel_probe.py --kind euclidean --features 4 --repeats 5

Shapes (points x columns): 128x128 (silhouette's first blocks), 64x256
(core-distance blocks), 8x2000 (silhouette's last blocks at n = 2000) and
4x3551 (Prim batches at the feedback re-cluster's size). Each time is the
best of ``--repeats`` rounds of calls filling about 0.05 s, in ns per
distance.
"""

import argparse
import platform
import time

import numpy as np

from workload_profiler.distances import DISTANCE_KINDS, point_to_rows

SHAPES = ((128, 128), (64, 256), (8, 2000), (4, 3551))


def ns_per_distance(fn, points, rows, kind: str, repeats: int) -> float:
    """Best time of ``repeats`` rounds of calls, per distance, in ns."""
    distances = points.shape[0] * rows.shape[0]
    calls = max(1, int(0.05 / (5e-9 * distances)))  # about 0.05 s at 5 ns each
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn(points, rows, kind)
        best = min(best, (time.perf_counter() - start) / calls)
    return best / distances * 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=DISTANCE_KINDS, default="euclidean")
    parser.add_argument("--features", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"default buffer {np.getbufsize()} elements; kind {args.kind}, "
          f"{args.features} features")
    print(f"{'block':>8} {'scoped ns':>10} {'default ns':>11} {'speed-up':>9}")
    for k, n in SHAPES:
        points = rng.standard_normal((k, args.features))
        rows = np.asfortranarray(rng.standard_normal((n, args.features)))
        scoped = point_to_rows(points, rows, args.kind)
        default = point_to_rows.__wrapped__(points, rows, args.kind)
        if not np.array_equal(scoped, default):
            raise SystemExit(f"{k}x{n}: the scoped and the default-buffer bits differ")
        fast = ns_per_distance(point_to_rows, points, rows, args.kind, args.repeats)
        slow = ns_per_distance(point_to_rows.__wrapped__, points, rows, args.kind, args.repeats)
        print(f"{k:>4}x{n:<4} {fast:>10.2f} {slow:>11.2f} {slow / fast:>8.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

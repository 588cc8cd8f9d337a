"""Child processes of one benchmark run.

    child.py setup  --workload W --seed N --root DIR --size full --reps R --result FILE
    child.py passes --workload W --seed N --root DIR --seconds S --trace 0|1 --result FILE

`setup` generates the inputs and, for classify-wide and feedback-drift, runs
the `build` whose artifacts the passes read; it does so `reps` times and
reports each wall time. `passes` is a fresh process that does no set-up: it
drives `workload_profiler.cli.main` over the same inputs until `seconds` have
passed (and at least MIN_PASSES times), then reports each pass's wall time,
exit code and the process's peak resident memory. With `--trace 1` it then
installs the tracer and makes one more pass, traced.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads

MIN_PASSES = 3


def _cli_main(argv: list[str], stdout_path: Path) -> int:
    """One CLI invocation with its standard output sent to a file."""
    from workload_profiler import cli

    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


def run_setup(args) -> dict:
    root = Path(args.root)
    times = []
    for _ in range(args.reps):
        for sub in ("inputs", "model"):
            shutil.rmtree(root / sub, ignore_errors=True)
        t0 = time.perf_counter()
        workloads.generate(args.workload, root, args.seed, args.size)
        if args.workload != "build-grid":
            rc = _cli_main(workloads.build_argv(root), root / "build.log")
            if rc != 0:
                raise SystemExit(f"set-up build exited {rc}; see {root / 'build.log'}")
        times.append(time.perf_counter() - t0)
    return {"setup_s": times}


def _one_pass(workload: str, root: Path, out: Path) -> tuple[float, int]:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if workload == "feedback-drift":  # feedback reads the build artifacts from its --out
        for name in ("profiles.json", "model.json"):
            shutil.copyfile(root / "model" / name, out / name)
    stdout = out / ("classify.jsonl" if workload == "classify-wide" else "stdout.txt")
    argv = workloads.pass_argv(workload, root, out)
    gc.collect()
    t0 = time.perf_counter()
    rc = _cli_main(argv, stdout)
    return time.perf_counter() - t0, rc


def run_passes(args) -> dict:
    import workload_profiler.cli  # noqa: F401  (import cost stays out of the first pass)

    root = Path(args.root)
    walls, codes = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, rc = _one_pass(args.workload, root, root / "out" / f"pass{len(walls)}")
        walls.append(wall)
        codes.append(rc)
    result = {"walls": walls, "codes": codes}

    if args.trace:
        import statistics

        import tracer as tr

        t = tr.Tracer()
        t.install()
        try:
            t.pass_id = len(walls)
            wall, rc = _one_pass(args.workload, root, root / "out" / f"pass{len(walls)}")
        finally:
            t.uninstall()
        ok = [w for w, c in zip(walls, codes) if c == 0]
        base = statistics.median(ok) if ok else wall
        result["traced"] = {"wall": wall, "code": rc, "absent": t.absent,
                            "hook_errors": t.hook_errors,
                            "metrics": tr.per_layer_metrics(t, wall, base),
                            "self_s": {k: v["self_s"] for k, v in t.layer_times().items()},
                            "entry": sorted({w.layer for w in t.wraps if w.entry})}
        t.write(root / "spans.json", {"workload": args.workload, "seed": args.seed,
                                      "traced_wall": wall})

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES))
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = run_setup(args) if args.mode == "setup" else run_passes(args)
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tests of the benchmark's own helpers, plus a tiny-size smoke run.

Run from this directory:

    python3 test_bench.py

The helper tests use hand-built cases. The tracer tests stub names away to
show that a refactor which removes a wrapped function is reported as an
absent layer, not as a crash. One case pins down a known fault of the
program that the workloads keep out of their inputs. The smoke test runs every workload at the
"tiny" sizes through run.py, untraced and traced, and checks its output line.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class AdjustedRandIndex(unittest.TestCase):
    def test_identical_and_relabelled(self):
        self.assertEqual(checks.adjusted_rand_index([0, 0, 1, 1, -1], [0, 0, 1, 1, -1]), 1.0)
        self.assertEqual(checks.adjusted_rand_index([0, 0, 1, 1, -1], [5, 5, 2, 2, 9]), 1.0)

    def test_partial_agreement(self):
        # index 1, row pairs 2, column pairs 1, 6 pairs: (1 - 1/3) / (3/2 - 1/3) = 4/7
        self.assertAlmostEqual(checks.adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]), 4 / 7)

    def test_worse_than_chance(self):
        self.assertAlmostEqual(checks.adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]), -0.5)

    def test_shapes_must_match(self):
        with self.assertRaises(ValueError):
            checks.adjusted_rand_index([0, 1], [0, 1, 2])


class SkewConditionalPick(unittest.TestCase):
    STATS = {"percentiles": {"5.0": 1.5, "25.0": 2.0, "50.0": 3.0, "75.0": 4.0, "95.0": 9.0},
             "median": 3.0, "mean": 3.9, "std": 2.0, "skewness": None}

    def pick(self, skew):
        return checks.skew_conditional_pick(dict(self.STATS, skewness=skew), 0.05, 1.0)

    def test_skewed_feature_takes_the_quantile(self):
        self.assertEqual(self.pick(2.5), 1.5)

    def test_threshold_is_strict(self):
        self.assertEqual(self.pick(1.0), 3.0)

    def test_symmetric_or_undefined_takes_the_median(self):
        self.assertEqual(self.pick(0.2), 3.0)
        self.assertEqual(self.pick(None), 3.0)

    def test_missing_quantile(self):
        with self.assertRaises(KeyError):
            checks.skew_conditional_pick(dict(self.STATS, skewness=2.0), 0.10, 1.0)


class ForestRouterTwoTrees(unittest.TestCase):
    # Columns: a=x -> 0, a=y -> 1, b=p -> 2. One round, classes 3 and 7.
    MODEL = {
        "vocabulary": {"feature_names": ["a", "b"],
                       "categories": {"a": ["x", "y"], "b": ["p"]}},
        "class_labels": [3, 7],
        "hyperparams": {"learning_rate": 0.5},
        "bucket_bounds": None,
        "trees": [[
            {"feature": 1, "value": 0.0, "gain": 1.0,
             "absent": {"value": -1.0}, "present": {"value": 2.0}},
            {"value": 0.5},
        ]],
    }

    def softmax(self, raw):
        e = [math.exp(r - max(raw)) for r in raw]
        return [v / sum(e) for v in e]

    def test_encoding(self):
        router = checks.ForestRouter(self.MODEL)
        self.assertEqual(router.encode({"a": "y", "b": "p"}), {1, 2})
        self.assertEqual(router.encode({"a": "unseen", "b": "p"}), {2})

    def test_present_branch(self):
        probs = checks.ForestRouter(self.MODEL).probabilities({"a": "y", "b": "p"})
        want = self.softmax([0.5 * 2.0, 0.5 * 0.5])
        self.assertAlmostEqual(probs[3], want[0], places=15)
        self.assertAlmostEqual(probs[7], want[1], places=15)

    def test_unknown_value_takes_absent_branch(self):
        probs = checks.ForestRouter(self.MODEL).probabilities({"a": "unseen", "b": "p"})
        want = self.softmax([0.5 * -1.0, 0.5 * 0.5])
        self.assertAlmostEqual(probs[3], want[0], places=15)
        self.assertAlmostEqual(sum(probs.values()), 1.0, places=15)

    def test_argmax_ties_pick_the_lowest_label(self):
        self.assertEqual(checks.argmax_lowest({7: 0.5, 3: 0.5}), 3)
        self.assertEqual(checks.argmax_lowest({7: 0.6, 3: 0.4}), 7)


class WindowedViolationRate(unittest.TestCase):
    def test_filling_then_sliding_window(self):
        rates = checks.windowed_violation_rates([1, 0, 0, 1, 1], window=2)
        self.assertEqual(rates.tolist(), [1.0, 0.5, 0.0, 0.5, 1.0])

    def test_from_violations_csv(self):
        rows = [{"event_index": str(i), "violated": v}
                for i, v in enumerate(["false"] * 8 + ["true"] * 3)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "violations.csv"
            path.write_text("event_index,violated\n"
                            + "".join(f"{r['event_index']},{r['violated']}\n" for r in rows))
            violated = [r["violated"] == "true" for r in checks.read_csv_rows(path)]
        rates = checks.windowed_violation_rates(violated, window=10)
        # first crossing of 0.2: event 10, where 3 of the last 10 events violated
        self.assertEqual(int((rates > 0.2).argmax()), 10)
        self.assertAlmostEqual(rates[9], 0.2)


class TracerSurvivesRefactors(unittest.TestCase):
    def test_stubbed_names_are_absent_not_fatal(self):
        from workload_profiler import boosting, classifier

        saved = [(boosting, "dense_presence", boosting.dense_presence),
                 (classifier, "dense_presence", classifier.dense_presence),
                 (boosting.Forest, "raw_scores_sparse_one", boosting.Forest.raw_scores_sparse_one)]
        for owner, attr, _ in saved:
            delattr(owner, attr)
        try:
            t = tracer.Tracer()
            t.install()
            t.uninstall()
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)
        self.assertEqual(set(t.absent), {"boosting:dense_presence", "classifier:dense_presence",
                                         "boosting:Forest.raw_scores_sparse_one"})
        metrics = tracer.per_layer_metrics(t, traced_wall=1.0, untraced_median=1.0)
        self.assertEqual(metrics["boosting.sparse_route_s"]["value"], 0.0)
        self.assertEqual(metrics["boosting.dense_presence_mb"]["value"], 0.0)

    def test_uninstall_restores_every_name(self):
        from workload_profiler import classifier, gridsearch

        before = (gridsearch.hdbscan, classifier.ClassifierModel.__dict__["from_json"])
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(gridsearch.hdbscan, before[0])
        t.uninstall()
        self.assertIs(gridsearch.hdbscan, before[0])
        self.assertIs(classifier.ClassifierModel.__dict__["from_json"], before[1])
        self.assertEqual(t.absent, [])

    def test_missing_module_self_time_and_failing_hook(self):
        with tempfile.TemporaryDirectory() as tmp:
            pkg = Path(tmp) / "fakepkg"
            pkg.mkdir()
            (pkg / "__init__.py").write_text("")
            (pkg / "m.py").write_text(textwrap.dedent("""
                import time
                def inner():
                    time.sleep(0.02)
                def outer():
                    inner()
                    time.sleep(0.01)
                    return 1
            """))
            sys.path.insert(0, tmp)
            try:
                def bad_hook(t, args, kwargs, result):
                    raise IndexError("signature changed")

                wraps = (tracer.Wrap("outer", ("m:outer",), hook=bad_hook),
                         tracer.Wrap("inner", ("m:inner",)),
                         tracer.Wrap("gone", ("no_such_module:f", "m:no_such_function")))
                t = tracer.Tracer(wraps=wraps, package="fakepkg")
                t.install()
                import fakepkg.m

                self.assertEqual(fakepkg.m.outer(), 1)
                t.uninstall()
            finally:
                sys.path.remove(tmp)
                for name in ("fakepkg.m", "fakepkg"):
                    sys.modules.pop(name, None)
        self.assertEqual(t.absent, ["no_such_module:f", "m:no_such_function"])
        self.assertIn("outer", t.hook_errors)
        lt = t.layer_times()
        self.assertGreaterEqual(lt["inner"]["self_s"], 0.02)
        self.assertLess(lt["outer"]["self_s"], lt["outer"]["incl_s"] - 0.019)
        self.assertAlmostEqual(lt["outer"]["incl_s"],
                               lt["outer"]["self_s"] + lt["inner"]["incl_s"], places=9)

    def test_entry_self_time_recursion_and_outside_module(self):
        import json as json_module

        with tempfile.TemporaryDirectory() as tmp:
            pkg = Path(tmp) / "fakepkg2"
            pkg.mkdir()
            (pkg / "__init__.py").write_text("")
            (pkg / "m.py").write_text(textwrap.dedent("""
                import json
                import time
                def rec(n):
                    time.sleep(0.005)
                    return 0 if n == 0 else rec(n - 1)
                def main():
                    time.sleep(0.03)  # work that no wrapper catches
                    rec(2)
                    return json.dumps([1])
            """))
            sys.path.insert(0, tmp)
            try:
                wraps = (tracer.Wrap("main", ("m:main",), entry=True),
                         tracer.Wrap("rec", ("m:rec",)),
                         tracer.Wrap("json.dumps", ("m:json.dumps",)))
                dumps = json_module.dumps
                t = tracer.Tracer(wraps=wraps, package="fakepkg2")
                t.install()
                import fakepkg2.m

                self.assertIsNot(fakepkg2.m.json, json_module)
                self.assertIs(json_module.dumps, dumps)  # wrapped for m alone
                self.assertEqual(fakepkg2.m.main(), "[1]")
                t.uninstall()
                self.assertIs(fakepkg2.m.json, json_module)
            finally:
                sys.path.remove(tmp)
                for name in ("fakepkg2.m", "fakepkg2"):
                    sys.modules.pop(name, None)
        lt = t.layer_times()
        self.assertEqual(lt["rec"]["calls"], 1)  # recursion stays in one span
        self.assertEqual(lt["json.dumps"]["calls"], 1)
        wall = lt["main"]["incl_s"]
        metrics = tracer.per_layer_metrics(t, traced_wall=wall, untraced_median=wall)
        covered = (lt["rec"]["self_s"] + lt["json.dumps"]["self_s"]) / wall
        self.assertAlmostEqual(metrics["trace.coverage"]["value"], covered, places=12)
        self.assertLess(covered, 0.5)  # main's own 30 ms is not covered


class KnownFaultFillingWindow(unittest.TestCase):
    """The program takes the violation rate over a window that is still
    filling, so a single violated event at the start of a stream reads 1/1
    and fires a trigger before any drift (feedback.violation_rate). The
    feedback-drift stream keeps its prefix clean so that its one trigger is
    the drift's; this case makes the first event violate on purpose and pins
    down the faulty behaviour. When the program stops triggering on a
    window that has not filled, this test fails: then drop it."""

    def test_one_violated_first_event_fires_a_trigger(self):
        from workload_profiler import cli

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            workloads.generate("feedback-drift", root, 3, "tiny")
            stream = root / "inputs" / "stream.csv"
            lines = stream.read_text().splitlines(keepends=True)
            header = lines[0].strip().split(",")
            first = lines[1].strip().split(",")
            for col in workloads.RUNTIME:  # ten times its blob: far beyond delta
                i = header.index(col)
                first[i] = repr(float(first[i]) * 10)
            stream.write_text(lines[0] + ",".join(first) + "\n" + "".join(lines[2:]))
            out = root / "out"
            with open(root / "cli.log", "w") as log, contextlib.redirect_stdout(log):
                self.assertEqual(cli.main(workloads.build_argv(root)), 0)
                out.mkdir()
                for name in ("profiles.json", "model.json"):
                    shutil.copyfile(root / "model" / name, out / name)
                self.assertEqual(cli.main(workloads.pass_argv("feedback-drift", root, out)), 0)
            report = checks.read_json(out / "feedback-report.json")
            violated = [r["violated"] for r in checks.read_csv_rows(out / "violations.csv")]
        self.assertEqual(violated[0], "true")
        early = report["triggers"][0]
        self.assertEqual((early["event_index"], early["causes"]), (0, ["violation"]))
        self.assertEqual(early["window_rate_before"], 1.0)


class BenchmarkContract(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        bench = json.loads((REPO / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         [name for name, _, _, _ in tracer.PER_LAYER])
        self.assertEqual([(m["unit"], m["better"]) for m in bench["per_layer"]],
                         [(unit, better) for _, unit, better, _ in tracer.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for w in workloads.WORKLOADS:
                a, b = Path(tmp) / f"{w}-a", Path(tmp) / f"{w}-b"
                workloads.generate(w, a, 7, "tiny")
                workloads.generate(w, b, 7, "tiny")
                for f in sorted((a / "inputs").iterdir()):
                    self.assertEqual(f.read_bytes(), (b / "inputs" / f.name).read_bytes(), f.name)


class SmokeRun(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
            cwd=REPO, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_all_workloads(self):
        bench = json.loads((REPO / "BENCHMARK.json").read_text())
        for w in workloads.WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    t0 = time.perf_counter()
                    res = self.run_bench(w, trace)
                    self.assertLess(time.perf_counter() - t0, 170)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 3)
                    self.assertEqual(list(res["metrics"]), [m["name"] for m in bench[table]])
                    if trace:
                        # A tiny pass lasts tens of milliseconds, most of it the
                        # CLI's fixed cost, which no layer but the entry takes;
                        # the 0.95 floor is for the full sizes (README.md).
                        self.assertGreater(res["metrics"]["trace.coverage"]["value"], 0.5)
                        self.assertLessEqual(res["metrics"]["trace.coverage"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()

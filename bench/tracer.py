"""Timing wrappers installed on the program's module attributes, from outside.

Every wrapped name is listed once in WRAPS. A target "module:attr" names the
attribute that the program's callers look up at call time: a name imported
into the caller's namespace (`gridsearch:hdbscan`), a module global
(`hdbscan:core_distances`) or a class attribute (`boosting:Forest.raw_scores`).
A function of a module outside the program, as one caller looks it up
(`cli:json.loads`), is wrapped on a private copy of that module given to that
caller alone, so the module stays unchanged for everyone else.
A module or attribute that no longer exists is reported as absent and its
metrics read 0; it never stops the run.

Spans (name, start, end, parent, pass id) are kept in memory and written out
at the end. A layer's self time is its spans' durations minus the part their
child spans cover, so the self times of all layers partition the time spent
inside the program. A call made inside a span of its own layer (recursion)
adds no span. Entry layers enclose a whole command, so their self time is
whatever no other wrapper catches; trace.coverage leaves it out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PACKAGE = "workload_profiler"


def _grid_viable(tracer, args, kwargs, result):
    rows = result[2]
    tracer.counts["grid.viable"] += sum(1 for r in rows if r.error is None)
    tracer.counts["grid.tried"] += len(rows)


def _batch_records(tracer, args, kwargs, result):
    tracer.counts["classify_batch.records"] += len(args[1])


def _presence_mb(tracer, args, kwargs, result):
    mb = len(args[0]) * int(args[1]) / 1e6  # one byte per bool cell
    tracer.maxima["dense_presence.mb"] = max(tracer.maxima.get("dense_presence.mb", 0.0), mb)


def _stream_events(tracer, args, kwargs, result):
    tracer.counts["feedback.events"] += len(args[0])


@dataclass(frozen=True)
class Wrap:
    layer: str
    targets: tuple[str, ...]
    kind: str = "span"  # "span" records a span per call; "count" only counts calls
    hook: Callable | None = None  # (tracer, args, kwargs, result) -> None
    entry: bool = False  # encloses a whole command or its main loop


# The one table of wrapped names. Layers are named after the module that
# defines the function; targets after the namespace its callers look it up in.
WRAPS = (
    Wrap("cli", ("cli:main",), entry=True),
    Wrap("pipeline.run_build", ("cli:run_build",), entry=True),
    Wrap("pipeline.run_feedback_command", ("cli:run_feedback_command",), entry=True),
    Wrap("pipeline.load_artifacts", ("pipeline:load_artifacts",)),
    Wrap("trace_model.load_trace", ("pipeline:load_trace",)),
    Wrap("trace_model.runtime_matrix", ("pipeline:runtime_matrix", "gridsearch:runtime_matrix",
                                        "feedback:runtime_matrix", "profiles:runtime_matrix")),
    Wrap("trace_model.select", ("trace_model:Dataset.select",)),
    Wrap("preprocess.hopkins", ("pipeline:hopkins",)),
    Wrap("preprocess.fit_transform", ("gridsearch:fit_transform", "feedback:fit_transform")),
    Wrap("distances.point_to_rows", ("hdbscan:point_to_rows", "metrics:point_to_rows",
                                     "profiles:point_to_rows", "preprocess:point_to_rows",
                                     "dbscan:point_to_rows"), kind="count"),
    Wrap("dbscan.dbscan", ("gridsearch:dbscan",)),
    Wrap("hdbscan.hdbscan", ("gridsearch:hdbscan",)),
    Wrap("hdbscan.core_distances", ("hdbscan:core_distances",)),
    Wrap("hdbscan.mst", ("hdbscan:mutual_reachability_mst",)),
    Wrap("hdbscan.tree", ("hdbscan:build_merge_tree", "hdbscan:condense",
                          "hdbscan:cluster_stability", "hdbscan:select_clusters",
                          "hdbscan:labels_from_selection")),
    Wrap("metrics.silhouette", ("gridsearch:silhouette_mean", "feedback:silhouette_mean")),
    Wrap("metrics.davies_bouldin", ("gridsearch:davies_bouldin",)),
    Wrap("metrics.acquires", ("gridsearch:acquires", "feedback:acquires")),
    Wrap("metrics.class_report", ("pipeline:class_report",)),
    Wrap("gridsearch.grid_search", ("pipeline:grid_search", "feedback:grid_search"),
         hook=_grid_viable),
    Wrap("profiles.build_profiles", ("gridsearch:build_profiles", "feedback:build_profiles")),
    Wrap("profiles.is_outlier", ("profiles:ProfileSet.is_outlier",)),
    Wrap("profiles.from_json", ("profiles:ProfileSet.from_json",)),
    Wrap("profiles.to_json", ("profiles:ProfileSet.to_json",)),
    Wrap("encoding.build_vocabulary", ("classifier:build_vocabulary",)),
    Wrap("encoding.encode_record", ("classifier:encode_record",)),
    Wrap("classifier.build_training_set", ("pipeline:build_training_set",
                                           "feedback:build_training_set")),
    Wrap("classifier.train", ("pipeline:train", "feedback:train")),
    Wrap("classifier.feature_importance", ("pipeline:feature_importance",)),
    Wrap("classifier.classify", ("cli:classify",)),
    Wrap("classifier.classify_batch", ("feedback:classify_batch", "predictor:classify_batch"),
         hook=_batch_records),
    Wrap("classifier.from_json", ("classifier:ClassifierModel.from_json",)),
    Wrap("classifier.to_json", ("classifier:ClassifierModel.to_json",)),
    Wrap("boosting.fit_forest", ("classifier:fit_forest",)),
    Wrap("boosting.dense_presence", ("classifier:dense_presence", "boosting:dense_presence"),
         hook=_presence_mb),
    Wrap("boosting.dense_route", ("boosting:Forest.raw_scores",)),
    Wrap("boosting.sparse_route", ("boosting:Forest.raw_scores_sparse_one",)),
    Wrap("predictor.predict", ("cli:predict", "feedback:predict", "predictor:predict")),
    Wrap("feedback.run_feedback", ("pipeline:run_feedback",), hook=_stream_events, entry=True),
    Wrap("feedback.recluster", ("feedback:_recluster",)),
    Wrap("feedback.detect_violation", ("feedback:detect_violation",)),
    Wrap("feedback.update_trigger", ("feedback:update_trigger",)),
    Wrap("json.loads", ("cli:json.loads",)),
    Wrap("json.dumps", ("cli:json.dumps",)),
    Wrap("artifacts.jsonable", ("artifacts:jsonable",)),
    Wrap("artifacts.read", ("artifacts:read_json",)),
    Wrap("artifacts.write", ("artifacts:write_json", "artifacts:write_csv")),
)


class Tracer:
    """Records spans and counts from the wrappers it installs."""

    def __init__(self, wraps=WRAPS, package: str = PACKAGE):
        self.wraps = wraps
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self.hook_errors: dict[str, str] = {}
        self.absent: list[str] = []
        self.pass_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _resolve(self, target: str):
        """(owner, attribute, raw value) or None when the name is gone.

        A module outside the program met on the way is replaced, in the
        caller's namespace only, by a private copy; uninstall puts it back."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            parent, owner = owner, getattr(owner, name, None)
            if owner is None:
                return None
            if isinstance(owner, types.ModuleType) and not (
                    owner.__name__.startswith(self.package) or hasattr(owner, "_traced_copy_of")):
                view = types.ModuleType(owner.__name__)
                view.__dict__.update(vars(owner))
                view._traced_copy_of = owner
                setattr(parent, name, view)
                self._installed.append((parent, name, owner))
                owner = view
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None or not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
            return None
        return owner, attr, raw

    def install(self) -> None:
        for wrap in self.wraps:
            for target in wrap.targets:
                found = self._resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, raw = found
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrapper(wrap, raw.__func__))
                else:
                    wrapped = self._wrapper(wrap, raw)
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def _wrapper(self, wrap: Wrap, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        layer, hook = wrap.layer, wrap.hook

        if wrap.kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors[layer] = f"{type(exc).__name__}: {exc}"
            return result

        return timed

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict[str, dict]:
        """Per layer: calls, inclusive and self seconds, per-call durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            d = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
            d["calls"] += 1
            d["incl_s"] += end - start
            d["self_s"] += end - start - child[i]
            d["durations"].append(end - start)
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
            **extra,
        }
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


# Per-layer metrics: (name, unit, better, how it is computed from a traced pass).
# Most are self times; the exceptions say so in README.md.
def _self(layer):
    return lambda lt, t, wall, base: lt.get(layer, {}).get("self_s", 0.0)


def _mean_us(layer):
    def f(lt, t, wall, base):
        d = lt.get(layer)
        return 1e6 * d["incl_s"] / d["calls"] if d else 0.0
    return f


def _pct_us(layer, q):
    def f(lt, t, wall, base):
        d = lt.get(layer)
        return float(1e6 * np.percentile(d["durations"], q)) if d else 0.0
    return f


def _ratio(num, den):
    return lambda lt, t, wall, base: t.counts[num] / t.counts[den] if t.counts.get(den) else 0.0


def _events_per_s(lt, t, wall, base):
    busy = lt.get("feedback.run_feedback", {}).get("incl_s", 0.0)
    busy -= lt.get("feedback.recluster", {}).get("incl_s", 0.0)
    return t.counts.get("feedback.events", 0) / busy if busy > 0 else 0.0


def _coverage(lt, t, wall, base):
    entry = {w.layer for w in t.wraps if w.entry}
    return sum(d["self_s"] for name, d in lt.items() if name not in entry) / wall


PER_LAYER = (
    ("trace_model.load_trace_s", "s", "lower", _self("trace_model.load_trace")),
    ("preprocess.hopkins_s", "s", "lower", _self("preprocess.hopkins")),
    ("preprocess.fit_transform_s", "s", "lower", _self("preprocess.fit_transform")),
    ("distances.point_to_rows_calls", "count", "lower",
     lambda lt, t, wall, base: float(t.counts.get("distances.point_to_rows", 0))),
    ("hdbscan.core_distances_s", "s", "lower", _self("hdbscan.core_distances")),
    ("hdbscan.mst_s", "s", "lower", _self("hdbscan.mst")),
    ("hdbscan.tree_s", "s", "lower", _self("hdbscan.tree")),
    ("metrics.silhouette_s", "s", "lower", _self("metrics.silhouette")),
    ("metrics.davies_bouldin_s", "s", "lower", _self("metrics.davies_bouldin")),
    ("gridsearch.grid_search_s", "s", "lower", _self("gridsearch.grid_search")),
    ("gridsearch.viable_ratio", "ratio", "higher", _ratio("grid.viable", "grid.tried")),
    ("profiles.build_profiles_s", "s", "lower", _self("profiles.build_profiles")),
    ("profiles.is_outlier_s", "s", "lower", _self("profiles.is_outlier")),
    ("encoding.encode_record_us", "us", "lower", _mean_us("encoding.encode_record")),
    ("boosting.fit_forest_s", "s", "lower", _self("boosting.fit_forest")),
    ("boosting.dense_presence_mb", "MB", "lower",
     lambda lt, t, wall, base: t.maxima.get("dense_presence.mb", 0.0)),
    ("boosting.sparse_route_s", "s", "lower", _self("boosting.sparse_route")),
    ("boosting.dense_route_s", "s", "lower", _self("boosting.dense_route")),
    ("classifier.classify_p50_us", "us", "lower", _pct_us("classifier.classify", 50)),
    ("classifier.classify_p99_us", "us", "lower", _pct_us("classifier.classify", 99)),
    ("classifier.classify_batch_s", "s", "lower", _self("classifier.classify_batch")),
    ("predictor.predict_s", "s", "lower", _self("predictor.predict")),
    ("feedback.recluster_s", "s", "lower",
     lambda lt, t, wall, base: lt.get("feedback.recluster", {}).get("incl_s", 0.0)),
    ("feedback.events_per_s_excl_recluster", "events/s", "higher", _events_per_s),
    ("feedback.detect_violation_s", "s", "lower", _self("feedback.detect_violation")),
    ("feedback.update_trigger_s", "s", "lower", _self("feedback.update_trigger")),
    ("feedback.prefetch_ratio", "ratio", "higher",
     _ratio("feedback.events", "classify_batch.records")),
    ("artifacts.read_s", "s", "lower", _self("artifacts.read")),
    ("artifacts.write_s", "s", "lower", _self("artifacts.write")),
    ("trace.coverage", "ratio", "higher", _coverage),
    ("trace.overhead", "ratio", "lower", lambda lt, t, wall, base: wall / base),
)


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_median: float) -> dict:
    lt = tracer.layer_times()
    return {
        name: {"value": float(fn(lt, tracer, traced_wall, untraced_median)), "unit": unit}
        for name, unit, _, fn in PER_LAYER
    }

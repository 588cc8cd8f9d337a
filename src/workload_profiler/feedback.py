"""Feedback loop: violation monitoring, staleness, and triggered re-clustering.

Between two model swaps the stream is evaluated as columns: each event's
label, violation flag and outlier flag are filled a chunk at a time, along
with running counts of the flags, and the trigger scan (``next_trigger``)
reads window counts, the outlier ratio and freshness off those columns.
Events still take effect in stream order (single writer): the first event
at which a clause holds outside the cooldown fires. A fired trigger
re-clusters over all data seen so far and the result is adopted only when
its composite quality score clears tau_quality; an adoption restarts the
window and the outlier count, and the columns after it are evaluated with
the new model. Otherwise the old profiles stay and a rejected update is
logged.

A minimum number of events between fired triggers (default: the window size)
keeps the update frequency balanced; without it a tripped threshold would
re-cluster on every subsequent event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .artifacts import json_float
from .boosting import BoostingParams, DEFAULT_PARAMS
from .classifier import ClassifierModel, build_training_set, classify_encoded, train
from .errors import (
    DegenerateDataError,
    DuplicateIdError,
    EmptyProfileSetError,
    NoViableConfigError,
)
from .gridsearch import GridSpec, grid_search
from .metrics import EQUAL_WEIGHTS
from .predictor import PredictionPolicy, predict
from .profiles import DEFAULT_PERCENTILES, ProfileSet
from .trace_model import Dataset, FeatureMatrix


def _inf_if_null(value) -> float:
    """A delta ``default`` of JSON null is no default threshold."""
    return math.inf if value is None else json_float(value)


@dataclass(frozen=True)
class DeltaSpec:
    """Per-feature deviation thresholds; 'relative' compares against the
    expected value, 'absolute' against native units."""

    mode: str = "relative"
    thresholds: dict[str, float] = field(default_factory=dict)
    default: float = field(default=math.inf, metadata={"read": _inf_if_null})

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"unknown delta mode {self.mode!r}")
        if not all(t >= 0.0 for t in (self.default, *self.thresholds.values())):  # NaN fails
            raise ValueError("delta thresholds must be numbers >= 0 (inf is allowed)")

    def threshold(self, feature: str) -> float:
        return self.thresholds.get(feature, self.default)


@dataclass(frozen=True)
class FeedbackConfig:
    delta: DeltaSpec = field(default_factory=DeltaSpec)
    tau_v: float = 0.1
    tau_o: float = 0.2
    tau_f: float = 0.5
    decay: float = 1e-4          # freshness decay rate per time unit
    window: int = 10_000
    window_mode: str = "events"  # "events" | "seconds"
    tau_quality: float = 0.5
    min_events_between_triggers: int | None = None  # defaults to window

    def __post_init__(self):
        if not 0.0 <= self.tau_v <= 1.0:
            raise ValueError("tau_v must be in [0, 1]")
        if not 0.0 <= self.tau_o <= 1.0:
            raise ValueError("tau_o must be in [0, 1]")
        if not 0.0 < self.tau_f <= 1.0:
            raise ValueError("tau_f must be in (0, 1]")
        if not self.decay > 0.0:
            raise ValueError("decay rate must be positive")
        if math.isnan(self.tau_quality):
            raise ValueError("tau_quality must be a number")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.window_mode not in ("events", "seconds"):
            raise ValueError("window_mode must be 'events' or 'seconds'")
        if self.min_events_between_triggers is not None and self.min_events_between_triggers < 0:
            raise ValueError("min_events_between_triggers must be >= 0")

    @property
    def cooldown(self) -> int:
        return self.window if self.min_events_between_triggers is None else self.min_events_between_triggers


def _violated(
    expected: np.ndarray, actual: np.ndarray, delta: DeltaSpec, features: Sequence[str]
) -> np.ndarray:
    """(rows, features) flags: actual strays beyond delta from expected."""
    deviation = np.abs(actual - expected)
    if delta.mode == "relative":
        deviation /= np.maximum(np.abs(expected), 1e-9)
    return deviation > np.array([delta.threshold(f) for f in features])


def window_fronts(times: np.ndarray, cfg: FeedbackConfig, reset: int) -> np.ndarray:
    """For each event i >= reset, the index of the oldest event still in the
    monitoring window once i has entered it; the window starts empty at
    ``reset``. Entries before ``reset`` are unused.

    'events' keeps the last cfg.window events. 'seconds' drops events from
    the front while the oldest one was submitted at or before t_i - window.
    Timestamps are not sorted, so an early stamp behind a later one stays
    until it reaches the front: the scan follows stream order.
    """
    fronts = np.arange(len(times))
    if cfg.window_mode == "events":
        return np.maximum(fronts - (cfg.window - 1), reset)
    stamps = times.tolist()
    front = reset
    for i in range(reset, len(stamps)):
        horizon = stamps[i] - cfg.window
        while stamps[front] <= horizon:
            front += 1
        fronts[i] = front
    return fronts


def next_trigger(
    violations: np.ndarray,
    outliers: np.ndarray,
    times: np.ndarray,
    fronts: np.ndarray,
    stalest_update: int,
    cfg: FeedbackConfig,
    reset: int,
    last_fire: int | None,
    start: int,
) -> tuple[int, list[str], float] | None:
    """The first event i in [start, len(violations) - 1) at which a trigger
    fires, with its sorted causes and its window violation rate; None if none
    does.

    ``violations`` and ``outliers`` are running counts over the events
    evaluated so far: entry i counts the flagged events before event i, and
    one more entry ends them. ``times`` and ``fronts`` (from
    ``window_fronts``) are indexed by event and may run further. The clauses
    at event i: the violation rate over the window
    ``fronts[i]..i`` exceeds tau_v; the outliers since ``reset`` (the last
    adoption) over all i + 1 events seen exceed tau_o; the freshness
    exp(-decay * age) of the profile updated at ``stalest_update`` is below
    tau_f. A clause fires once ``cooldown`` events have passed since
    ``last_fire``.
    """
    stop = len(violations) - 1
    index = np.arange(start, stop)
    front = fronts[start:stop]
    rate = (violations[index + 1] - violations[front]) / (index + 1 - front)
    ratio = (outliers[index + 1] - outliers[reset]) / (index + 1)
    ages = np.maximum(times[start:stop] - stalest_update, 0).tolist()
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    fresh = np.array([math.exp(-cfg.decay * age) for age in ages])
    clauses = np.stack([fresh < cfg.tau_f, ratio > cfg.tau_o, rate > cfg.tau_v])
    ready = clauses.any(axis=0)
    if last_fire is not None:
        ready &= index - last_fire >= cfg.cooldown
    hits = np.flatnonzero(ready)
    if not hits.size:
        return None
    k = hits[0]
    causes = [name for name, held in zip(("freshness", "outlier", "violation"), clauses[:, k])
              if held]
    return int(index[k]), causes, float(rate[k])


@dataclass(frozen=True)
class ReclusterSpec:
    """How to rebuild profiles when a trigger fires: a grid search, which may
    hold a single pinned combination."""

    optimal_cluster_count: int
    grid: GridSpec = field(default_factory=GridSpec)
    weights: tuple[float, float, float] = EQUAL_WEIGHTS
    classifier_params: BoostingParams = DEFAULT_PARAMS
    seed: int = 0
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES


@dataclass
class TriggerRecord:
    event_index: int
    t: int
    causes: list[str]
    acquires_before: float | None
    window_rate_before: float
    acquires_after: float | None = None
    adopted: bool = False
    n_clusters: int | None = None
    violations_after: int | None = None
    events_after: int | None = None
    reason: str | None = None


EVENT_FIELDS = ("event_index", "t", "id", "label", "violated", "outlier")


@dataclass
class FeedbackRunReport:
    """Fired triggers plus one column per stream event: the label it was
    classified into and its violation and outlier flags, each under the
    model and profiles live when it arrived."""

    triggers: list[TriggerRecord]
    labels: np.ndarray
    violated: np.ndarray
    outliers: np.ndarray
    final_profiles: ProfileSet | None = None
    final_model: ClassifierModel | None = None

    @property
    def events_total(self) -> int:
        return len(self.labels)

    @property
    def violations_total(self) -> int:
        return int(np.count_nonzero(self.violated))

    @property
    def outliers_total(self) -> int:
        return int(np.count_nonzero(self.outliers))

    @property
    def adopted_count(self) -> int:
        return sum(tr.adopted for tr in self.triggers)

    def event_columns(self, stream: Dataset) -> tuple[np.ndarray, ...]:
        """The ``EVENT_FIELDS`` columns, one entry per stream event."""
        return (np.arange(len(stream)), stream.submitted_at, stream.ids,
                self.labels, self.violated, self.outliers)

    def to_json(self) -> dict:
        """feedback-report.json: the run's totals and its triggers, not the
        event columns, which violations.csv holds."""
        return {
            "events_total": self.events_total,
            "violations_total": self.violations_total,
            "outliers_total": self.outliers_total,
            "adopted_count": self.adopted_count,
            "triggers": self.triggers,
        }


def _recluster(
    data: Dataset, regen: ReclusterSpec, t: int
) -> tuple[ProfileSet, ClassifierModel, float, int]:
    """Full rebuild over D(t): cluster, profile, retrain the classifier."""
    _, profile_set, rows = grid_search(
        data, regen.grid, regen.optimal_cluster_count,
        seed=regen.seed, weights=regen.weights, now=t,
        percentiles=regen.percentiles,
    )
    selected = next(r for r in rows if r.selected)
    ts, vocab = build_training_set(data, profile_set)
    model = train(
        ts, vocab, regen.classifier_params, seed=regen.seed,
        bucket_bounds=data.bucket_bounds,
    )
    return profile_set, model, float(selected.acquires_total), selected.n_clusters


LABEL_CHUNK = 4096  # stream events encoded and labelled together
FLAG_CHUNK = 512  # stream events whose violation and outlier flags are filled together


class _Columns:
    """Stream-length label, violation and outlier columns. A swap labels the
    stream from its event on, LABEL_CHUNK events at a time, and scores each
    distinct encoded row of a chunk once; only its label reaches the events.
    The flags follow FLAG_CHUNK events at a time. The running flag counts
    grow with each chunk, so those before a swap stay valid."""

    def __init__(self, stream: Dataset, features: Sequence[str], policy: PredictionPolicy,
                 delta: DeltaSpec):
        self.stream, self.policy, self.delta = stream, policy, delta
        self.features = tuple(dict.fromkeys(features))  # a repeated feature is checked once
        index = [stream.schema_runtime.index(f) for f in self.features]
        if index == list(range(index[0], index[0] + len(index))):  # a view, not a copy
            index = slice(index[0], index[0] + len(index))
        self.actual = stream.runtime[:, index]
        self.labels = np.zeros(len(stream), dtype=np.int64)
        self.violated = np.zeros(len(stream), dtype=bool)
        self.outliers = np.zeros(len(stream), dtype=bool)
        self.violation_counts = np.zeros(len(stream) + 1, dtype=np.int64)  # flags before event i
        self.outlier_counts = np.zeros(len(stream) + 1, dtype=np.int64)

    def swap(self, model: ClassifierModel, profiles: ProfileSet, start: int) -> None:
        self.profiles, self.filled = profiles, start
        self.expected: dict[int, list[float]] = {}
        metadata = self.stream.metadata
        for at in range(start, len(self.labels), LABEL_CHUNK):
            span = slice(at, at + LABEL_CHUNK)
            rows = model.vocabulary.encode(replace(metadata, codes=metadata.codes[span]))
            self.labels[span] = classify_encoded(model, rows)[0]

    def fill(self) -> None:
        span = slice(self.filled, min(self.filled + FLAG_CHUNK, len(self.labels)))
        present, inverse = np.unique(self.labels[span], return_inverse=True)
        for label in set(present.tolist()) - self.expected.keys():
            values = predict(self.profiles.group(label), self.features, self.policy)
            self.expected[label] = [values[f] for f in self.features]
        expected = np.array([self.expected[label] for label in present.tolist()])[inverse]
        self.violated[span] = _violated(
            expected, self.actual[span], self.delta, self.features
        ).any(axis=1)
        self.outliers[span] = self.profiles.outlier_flags(
            FeatureMatrix(self.stream.runtime[span], self.stream.schema_runtime)
        )
        for flags, counts in ((self.violated, self.violation_counts),
                              (self.outliers, self.outlier_counts)):
            counts[span.start + 1:span.stop + 1] = counts[span.start] + np.cumsum(flags[span])
        self.filled = span.stop


def run_feedback(
    stream: Dataset,
    model: ClassifierModel,
    profiles: ProfileSet,
    cfg: FeedbackConfig,
    regen: ReclusterSpec,
    policy: PredictionPolicy,
    training_data: Dataset,
    features: Sequence[str] | None = None,
) -> FeedbackRunReport:
    """Process a stream of completed workloads against the live profiles.

    Each event is classified from metadata, its behavior predicted and
    compared with the actual usage, and checked against the outlier rule;
    the trigger scan then finds the first event that fires. On a fired
    trigger the profiles are rebuilt over the original training data plus
    everything streamed up to it.
    """
    columns = _Columns(stream, features or stream.schema_runtime, policy, cfg.delta)
    columns.swap(model, profiles, 0)
    times = stream.submitted_at
    fronts = window_fronts(times, cfg, 0)
    stalest = min(g.last_update for g in profiles.groups)

    triggers: list[TriggerRecord] = []
    reset, last_fire, index = 0, None, 0
    while index < len(stream):
        if index == columns.filled:
            columns.fill()
        counted = slice(columns.filled + 1)
        hit = next_trigger(columns.violation_counts[counted], columns.outlier_counts[counted],
                           times, fronts, stalest, cfg, reset, last_fire, index)
        if hit is None:
            index = columns.filled
            continue
        last_fire, causes, rate = hit
        index = last_fire + 1
        t = int(times[last_fire])
        record = TriggerRecord(last_fire, t, causes, profiles.quality, rate)
        triggers.append(record)

        try:
            data_t = training_data.concat(stream.select(np.arange(index)))
            new_profiles, new_model, score_total, n_clusters = _recluster(
                data_t, regen, t
            )
        except (DegenerateDataError, DuplicateIdError, EmptyProfileSetError,
                NoViableConfigError, ValueError) as exc:
            record.reason = f"re-clustering failed: {exc}"
            continue
        record.acquires_after = score_total
        record.n_clusters = n_clusters
        if score_total > cfg.tau_quality:
            record.adopted = True
            profiles, model = new_profiles, new_model
            columns.swap(model, profiles, index)
            reset = index
            fronts = window_fronts(times, cfg, reset)
            stalest = min(g.last_update for g in profiles.groups)
        else:
            record.reason = "quality below tau_quality"

    for record in triggers:
        if record.adopted:
            record.events_after = len(stream) - record.event_index - 1
            record.violations_after = int(np.count_nonzero(columns.violated[record.event_index + 1:]))

    return FeedbackRunReport(
        triggers=triggers,
        labels=columns.labels,
        violated=columns.violated,
        outliers=columns.outliers,
        final_profiles=profiles,
        final_model=model,
    )

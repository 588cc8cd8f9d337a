"""Feedback loop: violation monitoring, staleness, and triggered re-clustering.

Events are applied strictly in stream order (single writer); labels,
violation checks and the outlier rule are prefetched in batches purely as an
optimization and are discarded whenever the model and profiles are replaced.
A fired trigger re-clusters over all data seen so far and the result is
adopted only when its composite quality score clears tau_quality; otherwise
the old profiles stay and a rejected update is logged.

A minimum number of events between fired triggers (default: the window size)
keeps the update frequency balanced; without it a tripped threshold would
re-cluster on every subsequent event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .boosting import BoostingParams, DEFAULT_PARAMS
from .classifier import ClassifierModel, build_training_set, classify_encoded, encode_block, train
from .errors import (
    DegenerateDataError,
    DuplicateIdError,
    EmptyProfileSetError,
    EmptyWindowError,
    NoViableConfigError,
)
from .gridsearch import GridSpec, grid_search
from .metrics import EQUAL_WEIGHTS
from .predictor import BehaviorPrediction, PredictionPolicy, predict
from .profiles import ProfileGroup, ProfileSet
from .trace_model import Dataset, FeatureMatrix


@dataclass(frozen=True)
class DeltaSpec:
    """Per-feature deviation thresholds; 'relative' compares against the
    expected value, 'absolute' against native units."""

    mode: str = "relative"
    thresholds: dict[str, float] = field(default_factory=dict)
    default: float = math.inf

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"unknown delta mode {self.mode!r}")

    def threshold(self, feature: str) -> float:
        return self.thresholds.get(feature, self.default)

    def to_json(self) -> dict:
        return {"mode": self.mode, "thresholds": dict(self.thresholds), "default": self.default}

    @classmethod
    def from_json(cls, doc: Mapping) -> "DeltaSpec":
        default = doc.get("default", math.inf)
        return cls(
            mode=doc.get("mode", "relative"),
            thresholds={k: float(v) for k, v in doc.get("thresholds", {}).items()},
            default=math.inf if default is None else float(default),
        )


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
        if self.decay <= 0.0:
            raise ValueError("decay rate must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.window_mode not in ("events", "seconds"):
            raise ValueError("window_mode must be 'events' or 'seconds'")
        if self.min_events_between_triggers is not None and self.min_events_between_triggers < 0:
            raise ValueError("min_events_between_triggers must be >= 0")

    @property
    def cooldown(self) -> int:
        return self.window if self.min_events_between_triggers is None else self.min_events_between_triggers

    def to_json(self) -> dict:
        return {
            "delta": self.delta.to_json(),
            "tau_v": self.tau_v,
            "tau_o": self.tau_o,
            "tau_f": self.tau_f,
            "decay": self.decay,
            "window": self.window,
            "window_mode": self.window_mode,
            "tau_quality": self.tau_quality,
            "min_events_between_triggers": self.min_events_between_triggers,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "FeedbackConfig":
        return cls(
            delta=DeltaSpec.from_json(doc.get("delta", {})),
            tau_v=float(doc.get("tau_v", 0.1)),
            tau_o=float(doc.get("tau_o", 0.2)),
            tau_f=float(doc.get("tau_f", 0.5)),
            decay=float(doc.get("decay", doc.get("lambda", 1e-4))),
            window=int(doc.get("window", 10_000)),
            window_mode=doc.get("window_mode", "events"),
            tau_quality=float(doc.get("tau_quality", 0.5)),
            min_events_between_triggers=(
                None if doc.get("min_events_between_triggers") is None
                else int(doc["min_events_between_triggers"])
            ),
        )


@dataclass
class WindowEvent:
    workload_id: str
    violated: bool
    t: int


@dataclass
class FeedbackState:
    """Single-writer monitoring state; events enter in stream order."""

    cfg: FeedbackConfig
    window: deque = field(default_factory=deque)
    window_violations: int = 0
    outliers_seen: int = 0
    total_seen: int = 0

    def push(self, workload_id: str, violated: bool, t: int, outlier: bool = False) -> None:
        self.window.append(WindowEvent(workload_id, violated, t))
        if violated:
            self.window_violations += 1
        if outlier:
            self.outliers_seen += 1
        self.total_seen += 1
        self._evict(t)

    def _evict(self, t: int) -> None:
        if self.cfg.window_mode == "events":
            while len(self.window) > self.cfg.window:
                gone = self.window.popleft()
                if gone.violated:
                    self.window_violations -= 1
        else:
            horizon = t - self.cfg.window
            while self.window and self.window[0].t <= horizon:
                gone = self.window.popleft()
                if gone.violated:
                    self.window_violations -= 1

    def reset_window(self) -> None:
        self.window.clear()
        self.window_violations = 0

    def outlier_ratio(self) -> float:
        return self.outliers_seen / self.total_seen if self.total_seen else 0.0


def _violated(
    expected: np.ndarray, actual: np.ndarray, delta: DeltaSpec, features: Sequence[str]
) -> np.ndarray:
    """(rows, features) flags: actual strays beyond delta from expected."""
    deviation = np.abs(actual - expected)
    if delta.mode == "relative":
        deviation /= np.maximum(np.abs(expected), 1e-9)
    return deviation > np.array([delta.threshold(f) for f in features])


def detect_violation(
    prediction: BehaviorPrediction,
    actual: Mapping[str, float],
    delta: DeltaSpec,
) -> tuple[bool, dict[str, bool]]:
    """Flag features whose actual value strays beyond delta from expectation."""
    if set(prediction.values) != set(actual):
        raise ValueError("prediction and actual feature sets differ")
    names = list(prediction.values)
    expected = np.array([prediction.values[f] for f in names])
    flags = _violated(expected, np.array([actual[f] for f in names]), delta, names).tolist()
    return any(flags), dict(zip(names, flags))


def violation_rate(state: FeedbackState, t: int) -> float:
    """Fraction of violated events in the window at time t."""
    state._evict(t)
    if not state.window:
        raise EmptyWindowError("no events in the monitoring window")
    return state.window_violations / len(state.window)


def freshness(profile: ProfileGroup, t: int, decay: float) -> float:
    """exp(-decay * (t - last_update)); 1 at the moment of the update."""
    if t < profile.last_update:
        raise ValueError("t precedes the profile's last update")
    return math.exp(-decay * (t - profile.last_update))


def update_trigger(
    state: FeedbackState, profiles: ProfileSet, cfg: FeedbackConfig, t: int
) -> tuple[bool, set[str]]:
    """Evaluate the three trigger clauses; all satisfied causes are reported."""
    causes: set[str] = set()
    try:
        if violation_rate(state, t) > cfg.tau_v:
            causes.add("violation")
    except EmptyWindowError:
        pass
    stalest = min(
        freshness(g, max(t, g.last_update), cfg.decay) for g in profiles.groups
    )
    if stalest < cfg.tau_f:
        causes.add("freshness")
    if state.total_seen and state.outlier_ratio() > cfg.tau_o:
        causes.add("outlier")
    return bool(causes), causes


@dataclass(frozen=True)
class ReclusterSpec:
    """How to rebuild profiles when a trigger fires: a grid search, which may
    hold a single pinned combination."""

    optimal_cluster_count: int
    grid: GridSpec = field(default_factory=GridSpec)
    weights: tuple[float, float, float] = EQUAL_WEIGHTS
    classifier_params: BoostingParams = DEFAULT_PARAMS
    seed: int = 0
    percentiles: tuple[float, ...] | None = None


@dataclass
class TriggerRecord:
    event_index: int
    t: int
    causes: list[str]
    acquires_before: float | None
    window_rate_before: float | None
    acquires_total: float | None = None
    adopted: bool = False
    n_clusters: int | None = None
    violations_after: int | None = None
    events_after: int | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "event_index": self.event_index,
            "t": self.t,
            "causes": self.causes,
            "acquires_before": self.acquires_before,
            "acquires_after": self.acquires_total,
            "adopted": self.adopted,
            "n_clusters": self.n_clusters,
            "window_rate_before": self.window_rate_before,
            "violations_after": self.violations_after,
            "events_after": self.events_after,
            "reason": self.reason,
        }


@dataclass
class FeedbackRunReport:
    events_total: int
    violations_total: int
    outliers_total: int
    triggers: list[TriggerRecord]
    adopted_count: int
    timeline: list[dict]
    final_profiles: ProfileSet | None = None
    final_model: ClassifierModel | None = None

    def to_json(self) -> dict:
        return {
            "events_total": self.events_total,
            "violations_total": self.violations_total,
            "outliers_total": self.outliers_total,
            "adopted_count": self.adopted_count,
            "triggers": [tr.to_json() for tr in self.triggers],
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


class _Prefetch:
    """(label, outlier, violated) of stream events, computed a chunk ahead of
    the single writer; flushed whenever the model and profiles are swapped."""

    def __init__(self, stream: Dataset, features: Sequence[str], policy: PredictionPolicy,
                 delta: DeltaSpec, chunk: int = 512):
        self.stream, self.policy, self.delta, self.chunk = stream, policy, delta, chunk
        self.features = tuple(dict.fromkeys(features))  # a repeated feature is checked once
        self.actual = stream.runtime[:, [stream.schema_runtime.index(f) for f in self.features]]

    def swap(self, model: ClassifierModel, profiles: ProfileSet) -> None:
        self.model, self.profiles = model, profiles
        self.rows = encode_block(model, self.stream.metadata)
        self.expected: dict[int, list[float]] = {}
        self.start, self.events = 0, []

    def __getitem__(self, index: int) -> tuple[int, bool, bool]:
        if not 0 <= index - self.start < len(self.events):
            self.start, span = index, slice(index, index + self.chunk)
            labels = classify_encoded(self.model, self.rows[span])[0].tolist()
            for label in set(labels) - self.expected.keys():
                values = predict(self.profiles.group(label), self.features, self.policy).values
                self.expected[label] = [values[f] for f in self.features]
            expected = np.array([self.expected[label] for label in labels])
            violated = _violated(expected, self.actual[span], self.delta, self.features)
            outliers = self.profiles.outlier_flags(
                FeatureMatrix(self.stream.runtime[span], self.stream.schema_runtime)
            )
            self.events = list(zip(labels, outliers.tolist(), violated.any(axis=1).tolist()))
        return self.events[index - self.start]


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

    Per event: classify from metadata, predict behavior, compare with the
    actual usage, update the monitoring window and outlier ledger, and
    evaluate the trigger. On a fired trigger the profiles are rebuilt over
    original training data plus everything streamed so far.
    """
    feats = tuple(features) if features else stream.schema_runtime

    state = FeedbackState(cfg=cfg)
    prefetch = _Prefetch(stream, feats, policy, cfg.delta)
    prefetch.swap(model, profiles)
    ids = stream.ids.tolist()
    times = stream.submitted_at.tolist()

    triggers: list[TriggerRecord] = []
    timeline: list[dict] = []
    violations_total = 0
    adopted_count = 0
    last_fire_index: int | None = None

    for index, (wid, t) in enumerate(zip(ids, times)):
        label, outlier, violated = prefetch[index]
        state.push(wid, violated, t, outlier=outlier)
        violations_total += int(violated)
        timeline.append({"event_index": index, "t": t, "id": wid, "label": label,
                         "violated": violated, "outlier": outlier})

        fire, causes = update_trigger(state, profiles, cfg, t)
        in_cooldown = last_fire_index is not None and index - last_fire_index < cfg.cooldown
        if not fire or in_cooldown:
            continue

        last_fire_index = index
        try:
            rate_before = violation_rate(state, t)
        except EmptyWindowError:
            rate_before = None
        record = TriggerRecord(index, t, sorted(causes), profiles.quality, rate_before)
        triggers.append(record)

        try:
            data_t = training_data.concat(stream.select(np.arange(index + 1)))
            new_profiles, new_model, score_total, n_clusters = _recluster(
                data_t, regen, t
            )
        except (DegenerateDataError, DuplicateIdError, EmptyProfileSetError,
                NoViableConfigError, ValueError) as exc:
            record.reason = f"re-clustering failed: {exc}"
            continue
        record.acquires_total = score_total
        record.n_clusters = n_clusters
        if score_total > cfg.tau_quality:
            record.adopted = True
            adopted_count += 1
            profiles = new_profiles
            model = new_model
            prefetch.swap(new_model, profiles)
            state.reset_window()
            state.outliers_seen = 0
        else:
            record.reason = "quality below tau_quality"

    # Fill the after-the-fact violation counts for each adopted update.
    for record in triggers:
        if record.adopted:
            tail = timeline[record.event_index + 1 :]
            record.events_after = len(tail)
            record.violations_after = sum(1 for e in tail if e["violated"])

    return FeedbackRunReport(
        events_total=len(stream),
        violations_total=violations_total,
        outliers_total=sum(1 for e in timeline if e["outlier"]),
        triggers=triggers,
        adopted_count=adopted_count,
        timeline=timeline,
        final_profiles=profiles,
        final_model=model,
    )

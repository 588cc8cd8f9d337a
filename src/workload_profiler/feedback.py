"""Feedback loop: violation monitoring, staleness, and triggered re-clustering.

Events are applied strictly in stream order (single writer); classification
and the outlier rule are prefetched in batches purely as an optimization and
are discarded whenever the model and profiles are replaced. A fired trigger
re-clusters over all data seen so far and the result is adopted only when its
composite quality score clears tau_quality; otherwise the old profiles stay
and a rejected update is logged.

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
from .classifier import ClassifierModel, build_training_set, classify_batch, train
from .errors import (
    DegenerateDataError,
    DuplicateIdError,
    EmptyProfileSetError,
    EmptyWindowError,
    NoViableConfigError,
)
from .gridsearch import GridSpec, grid_search, run_clustering
from .metrics import EQUAL_WEIGHTS, acquires, silhouette_mean
from .predictor import BehaviorPrediction, PredictionPolicy, predict
from .preprocess import fit_transform
from .profiles import ClusteringConfig, ProfileGroup, ProfileSet, build_profiles
from .trace_model import Dataset, runtime_matrix


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
            min_events_between_triggers=doc.get("min_events_between_triggers"),
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


def detect_violation(
    prediction: BehaviorPrediction,
    actual: Mapping[str, float],
    delta: DeltaSpec,
) -> tuple[bool, dict[str, bool]]:
    """Flag features whose actual value strays beyond delta from expectation."""
    if set(prediction.values) != set(actual):
        raise ValueError("prediction and actual feature sets differ")
    flags: dict[str, bool] = {}
    for f, expected in prediction.values.items():
        deviation = abs(actual[f] - expected)
        if delta.mode == "relative":
            deviation /= max(abs(expected), 1e-9)
        flags[f] = deviation > delta.threshold(f)
    return any(flags.values()), flags


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
    """How to rebuild profiles when a trigger fires: a full grid or a single
    pinned configuration."""

    optimal_cluster_count: int
    grid: GridSpec | None = None
    config: ClusteringConfig | None = None
    weights: tuple[float, float, float] = EQUAL_WEIGHTS
    classifier_params: BoostingParams = DEFAULT_PARAMS
    seed: int = 0
    percentiles: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.grid is None) == (self.config is None):
            raise ValueError("provide exactly one of grid or config")


@dataclass
class TriggerRecord:
    event_index: int
    t: int
    causes: list[str]
    acquires_before: float | None
    acquires_total: float | None
    adopted: bool
    n_clusters: int | None
    window_rate_before: float | None
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
    if regen.grid is not None:
        _, profile_set, rows = grid_search(
            data, regen.grid, regen.optimal_cluster_count,
            seed=regen.seed, weights=regen.weights, now=t,
            percentiles=regen.percentiles,
        )
        selected = next(r for r in rows if r.selected)
        score_total = float(selected.acquires_total)
        n_clusters = selected.n_clusters
    else:
        config = regen.config
        spec, transformed = fit_transform(runtime_matrix(data), config.transform)
        labels = run_clustering(config, transformed)
        if not np.any(labels >= 0):
            raise EmptyProfileSetError("re-clustering produced no clusters")
        try:
            sil = silhouette_mean(transformed, labels, config.distance, seed=regen.seed)
        except DegenerateDataError:
            sil = 0.0
        score = acquires(
            labels, len(data), regen.optimal_cluster_count, sil, regen.weights
        )
        score_total = score.total
        n_clusters = int(np.unique(labels[labels >= 0]).size)
        kwargs = {} if regen.percentiles is None else {"percentiles": regen.percentiles}
        profile_set = build_profiles(
            data, labels, config, spec, now=t, transformed=transformed, **kwargs
        )
    profile_set.quality = score_total
    ts, vocab = build_training_set(data, profile_set)
    model = train(
        ts, vocab, regen.classifier_params, seed=regen.seed,
        bucket_bounds=data.bucket_bounds,
    )
    return profile_set, model, score_total, n_clusters


class _Prefetch:
    """Labels and outlier flags computed a chunk ahead of the single writer;
    flushed whenever the model and profiles are swapped."""

    def __init__(self, model: ClassifierModel, profiles: ProfileSet, stream: Dataset,
                 chunk: int = 512):
        self.stream = stream
        self.chunk = chunk
        self.swap(model, profiles)

    def swap(self, model: ClassifierModel, profiles: ProfileSet) -> None:
        self.model = model
        self.profiles = profiles
        self._start = self._stop = 0
        self._labels: list[int] = []
        self._outliers: list[bool] = []

    def __getitem__(self, index: int) -> tuple[int, bool]:
        if not self._start <= index < self._stop:
            self._start = index
            self._stop = min(index + self.chunk, len(self.stream))
            workloads = self.stream.workloads[self._start:self._stop]
            labels, _ = classify_batch(self.model, [w.metadata for w in workloads])
            self._labels = labels.tolist()
            self._outliers = self.profiles.outlier_flags([w.runtime for w in workloads]).tolist()
        k = index - self._start
        return self._labels[k], self._outliers[k]


def _concat(a: Dataset, b: Dataset) -> Dataset:
    if a.schema_runtime != b.schema_runtime or a.schema_metadata != b.schema_metadata:
        raise ValueError("datasets have different schemas")
    return Dataset(
        a.schema_runtime, a.schema_metadata, a.workloads + b.workloads, a.bucket_bounds
    )


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
    if len(stream) == 0:
        raise ValueError("stream is empty")
    feats = tuple(features) if features else stream.schema_runtime

    state = FeedbackState(cfg=cfg)
    prefetch = _Prefetch(model, profiles, stream)
    group_of = {g.label: g for g in profiles.groups}
    prediction_cache: dict[int, BehaviorPrediction] = {}

    triggers: list[TriggerRecord] = []
    timeline: list[dict] = []
    violations_total = 0
    adopted_count = 0
    last_fire_index: int | None = None

    for index, w in enumerate(stream.workloads):
        t = w.submitted_at
        label, outlier = prefetch[index]
        if label not in prediction_cache:
            prediction_cache[label] = predict(group_of[label], feats, policy)
        actual = {f: w.runtime[f] for f in feats}
        violated, _ = detect_violation(prediction_cache[label], actual, cfg.delta)
        state.push(w.id, violated, t, outlier=outlier)
        violations_total += int(violated)
        timeline.append(
            {
                "event_index": index,
                "t": t,
                "id": w.id,
                "label": label,
                "violated": violated,
                "outlier": outlier,
            }
        )

        fire, causes = update_trigger(state, profiles, cfg, t)
        in_cooldown = (
            last_fire_index is not None and index - last_fire_index < cfg.cooldown
        )
        if not fire or in_cooldown:
            continue

        last_fire_index = index
        try:
            rate_before = violation_rate(state, t)
        except EmptyWindowError:
            rate_before = None
        record = TriggerRecord(
            event_index=index,
            t=t,
            causes=sorted(causes),
            acquires_before=profiles.quality,
            acquires_total=None,
            adopted=False,
            n_clusters=None,
            window_rate_before=rate_before,
        )
        triggers.append(record)

        seen = stream.select(range(index + 1))
        try:
            data_t = _concat(training_data, seen)
            new_profiles, new_model, score_total, n_clusters = _recluster(
                data_t, regen, t
            )
        except (
            DegenerateDataError,
            DuplicateIdError,
            EmptyProfileSetError,
            NoViableConfigError,
            ValueError,
        ) as exc:
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
            group_of = {g.label: g for g in profiles.groups}
            prediction_cache.clear()
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

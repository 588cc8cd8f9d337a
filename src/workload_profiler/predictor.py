"""Runtime-behavior prediction from profile statistics and its evaluation.

Prediction error is the per-feature relative error in percent,

    e_f = 100 * |pred_f - actual_f| / max(|actual_f|, 1e-9),

aggregated per workload as the root mean square across features. The
normalization choice matters for headline numbers; an alternative
normalization by the profile's feature mean is available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classifier import ClassifierModel, classify_encoded
from .errors import EmptyHoldoutError
from .profiles import ProfileGroup, ProfileSet
from .trace_model import Dataset

REL_EPS = 1e-9


@dataclass(frozen=True)
class PredictionPolicy:
    """How a profile's distribution is condensed into one predicted value.

    fixed_quantile: always the configured quantile.
    skew_conditional: the quantile when the profile's stored skewness for the
    feature exceeds skew_threshold, otherwise the median.
    """

    kind: str = "skew_conditional"
    quantile: float = 0.05
    skew_threshold: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed_quantile", "skew_conditional"):
            raise ValueError(f"unknown prediction policy {self.kind!r}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be strictly inside (0, 1)")


def predict(
    profile: ProfileGroup,
    features: Sequence[str],
    policy: PredictionPolicy,
) -> dict[str, float]:
    """Predict the requested runtime features, in native units, from one
    profile's statistics."""
    values: dict[str, float] = {}
    for f in features:
        if f not in profile.stats:
            raise KeyError(f"profile {profile.label} has no stats for feature {f!r}")
        stats = profile.stats[f]
        if policy.kind == "fixed_quantile":
            values[f] = stats.quantile(policy.quantile)
        else:
            skew = stats.skewness
            if skew is not None and skew > policy.skew_threshold:
                values[f] = stats.quantile(policy.quantile)
            else:
                values[f] = stats.median
    return values


def _errors(predicted: np.ndarray, actual: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(per-feature error % rows, combined % per row): 100 |p - a| / max(|scale|, eps),
    combined as the root mean square over features, summed in feature order."""
    errors = 100.0 * np.abs(predicted - actual) / np.maximum(np.abs(scale), REL_EPS)
    squares = errors[:, 0] * errors[:, 0]
    for j in range(1, errors.shape[1]):
        squares = squares + errors[:, j] * errors[:, j]
    return errors, np.sqrt(squares / errors.shape[1])


@dataclass
class RmseReport:
    features: tuple[str, ...]
    rows: list[dict] = field(metadata={"key": "workloads"})  # id, profile, errors, combined
    per_profile: dict[int, dict[str, float]]  # q1/median/q3 of combined
    fraction_below_50: float
    n_evaluated: int
    n_excluded: int
    policy: PredictionPolicy
    alt_rows: list[dict] = field(default_factory=list,
                                 metadata={"key": "workloads_alt_normalization", "omit": True})

    def ecdf_records(self) -> list[dict]:
        out = []
        for row in self.rows:
            for f in self.features:
                out.append({"feature": f, "error": row["errors"][f]})
            out.append({"feature": "combined", "error": row["combined"]})
        return out

    def boxplot_records(self) -> list[dict]:
        return [
            {"profile": label, **stats} for label, stats in sorted(self.per_profile.items())
        ]


def evaluate_holdout(
    dataset: Dataset,
    model: ClassifierModel,
    profiles: ProfileSet,
    policy: PredictionPolicy,
    features: Sequence[str] | None = None,
    alt_normalization: bool = False,
) -> RmseReport:
    """Classify each holdout workload, predict via its profile, score it.

    Workloads classified into a label absent from the profile set are
    excluded and counted (this cannot happen for a model and profiles from
    the same build, but guards stale artifact mixes).
    """
    feats = tuple(features) if features else dataset.schema_runtime
    labels = classify_encoded(model, model.vocabulary.encode(dataset.metadata))[0]
    scored = np.isin(labels, profiles.labels())
    if not scored.any():
        raise EmptyHoldoutError("no workload could be scored against the profiles")
    labels = labels[scored]
    order, which = np.unique(labels, return_inverse=True)
    order = order.tolist()
    group_of = {g.label: g for g in profiles.groups}
    names = tuple(dict.fromkeys(feats))  # a repeated feature is scored once
    predictions = [predict(group_of[label], names, policy) for label in order]
    predicted = np.array([[p[f] for f in names] for p in predictions])[which]
    actual = dataset.runtime[scored][:, [dataset.schema_runtime.index(f) for f in names]]
    errors, combined = _errors(predicted, actual, actual)

    ids = dataset.ids[scored].tolist()

    def report_rows(errors: np.ndarray, combined: np.ndarray) -> list[dict]:
        return [
            {"id": wid, "profile": label, "errors": dict(zip(names, e)), "combined": c}
            for wid, label, e, c in zip(ids, labels.tolist(), errors.tolist(), combined.tolist())
        ]

    rows = report_rows(errors, combined)
    alt_rows: list[dict] = []
    if alt_normalization:
        means = np.array([[group_of[label].stats[f].mean for f in names] for label in order])
        alt_rows = report_rows(*_errors(predicted, actual, means[which]))

    per_profile = {}
    for label in order:
        values = combined[labels == label]
        q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
        per_profile[label] = {"q1": q1, "median": med, "q3": q3, "count": values.size}
    return RmseReport(
        features=feats,
        rows=rows,
        per_profile=per_profile,
        fraction_below_50=int(np.count_nonzero(combined < 50.0)) / len(rows),
        n_evaluated=len(rows),
        n_excluded=len(dataset) - len(rows),
        policy=policy,
        alt_rows=alt_rows,
    )

"""End-to-end pipeline orchestration behind the CLI commands.

All randomness is derived from the config seed and timestamps come from the
config, so a build with identical config and seed writes byte-identical
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import artifacts
from .boosting import MAX_NODES, BoostingParams, DEFAULT_PARAMS
from .classifier import (
    ClassifierModel,
    TrainingSet,
    build_training_set,
    classify_encoded,
    feature_importance,
    train,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    EmptyHoldoutError,
    MissingArtifactError,
    NoValidRowsError,
)
from .feedback import EVENT_FIELDS, FeedbackConfig, FeedbackRunReport, ReclusterSpec, run_feedback
from .gridsearch import GRID_REPORT_FIELDS, GridSpec, grid_search
from .metrics import EQUAL_WEIGHTS, check_acquires_params, class_report
from .predictor import PredictionPolicy, RmseReport, evaluate_holdout
from .preprocess import hopkins
from .profiles import DEFAULT_PERCENTILES, ClusteringConfig, ProfileSet, stored_percentile
from .trace_model import Dataset, TraceSchema, load_trace, runtime_matrix

PROFILES_FILE = "profiles.json"
MODEL_FILE = "model.json"
GRID_FILE = "gridsearch.csv"
BUILD_REPORT_FILE = "build-report.json"
RMSE_REPORT_FILE = "rmse-report.json"
RMSE_ECDF_FILE = "rmse-ecdf.csv"
RMSE_BOXPLOT_FILE = "rmse-boxplot.csv"
FEEDBACK_REPORT_FILE = "feedback-report.json"
VIOLATIONS_FILE = "violations.csv"
PROFILES_POST_FILE = "profiles-post.json"
MODEL_POST_FILE = "model-post.json"


def _pinned(doc) -> GridSpec | None:
    """The grid of the one combination a ``recluster_config`` object names
    (null: none pinned)."""
    return None if doc is None else GridSpec.pinned(artifacts.read_record(ClusteringConfig, doc))


@dataclass
class RunConfig:
    trace: Path
    descriptor: Path
    output_dir: Path
    seed: int
    grid: GridSpec = field(default_factory=GridSpec)
    optimal_cluster_count: int = 10
    acquires_weights: tuple[float, float, float] = EQUAL_WEIGHTS
    classifier_params: BoostingParams = field(default=DEFAULT_PARAMS,
                                              metadata={"key": "classifier"})
    validation_fraction: float = 0.2
    prediction: PredictionPolicy = field(default_factory=PredictionPolicy)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    recluster_config: GridSpec | None = field(default=None, metadata={"read": _pinned})
    predict_features: tuple[str, ...] | None = None
    build_timestamp: int = 0
    hopkins_fraction: float = 0.1
    include_member_ids: bool = False
    alt_normalization: bool = False
    stats_percentiles: tuple[float, ...] = DEFAULT_PERCENTILES

    @classmethod
    def from_json(cls, doc: dict, base_dir: Path | None = None) -> "RunConfig":
        """The config of a JSON document, read by ``artifacts.read_record``
        with two keys moved: ``acquires`` holds ``optimal_cluster_count``
        and ``weights`` (``acquires_weights``). Relative paths are resolved
        against ``base_dir``."""
        try:
            if "seed" not in doc:
                raise ConfigError("config must pin a seed (reproducibility contract)")
            acquires = doc.get("acquires", {})
            if not isinstance(acquires, dict):
                raise TypeError(f"acquires: a JSON object is required, got {acquires!r}")
            flat = {"output_dir": "out", **doc}
            for key, name in (("optimal_cluster_count", "optimal_cluster_count"),
                              ("weights", "acquires_weights")):
                flat.pop(name, None)  # read from its section only
                if key in acquires:
                    flat[name] = acquires[key]
            config = artifacts.read_record(cls, flat)
            if base_dir is not None:  # an absolute path stays as it is
                for name in ("trace", "descriptor", "output_dir"):
                    setattr(config, name, base_dir / getattr(config, name))
            return config._validated()
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid run configuration: {exc}") from exc

    def _validated(self) -> "RunConfig":
        check_acquires_params(self.optimal_cluster_count, self.acquires_weights)
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in [0, 1)")
        nodes = math.prod(self.classifier_params.forest_shape(2))  # the smallest forest
        if nodes >= MAX_NODES:
            raise ConfigError(
                f"classifier rounds x (2^(max_depth+1) - 1) x 2 classes = {nodes} nodes, "
                f"over the {MAX_NODES - 1} that a forest may hold"
            )
        if not 0.0 < self.hopkins_fraction <= 1.0:
            raise ConfigError(f"hopkins_fraction must be in (0, 1], got {self.hopkins_fraction}")
        if not all(0.0 <= p <= 100.0 for p in self.stats_percentiles):
            raise ConfigError(
                f"stats_percentiles must be in [0, 100], got {list(self.stats_percentiles)}"
            )
        if stored_percentile(self.stats_percentiles, self.prediction.quantile) is None:
            raise ConfigError(
                f"prediction quantile {self.prediction.quantile} is not among "
                f"stats_percentiles {sorted(self.stats_percentiles)}"
            )
        return self

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            doc = artifacts.read_json(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_json(doc, base_dir=path.parent)


def stratified_split(
    ts: TrainingSet, validation_fraction: float, seed: int
) -> tuple[TrainingSet, TrainingSet | None]:
    """Per-class 80/20-style split; every class keeps >= 1 training row. The
    fraction is in [0, 1), as RunConfig validates."""
    if validation_fraction == 0.0:
        return ts, None
    rng = np.random.default_rng(seed)
    labels = np.asarray(ts.labels)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for c in sorted(set(int(v) for v in labels)):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        n_val = min(int(round(idx.size * validation_fraction)), idx.size - 1)
        val_idx.extend(idx[:n_val].tolist())
        train_idx.extend(idx[n_val:].tolist())
    train_idx.sort()
    val_idx.sort()
    train_part = TrainingSet(rows=ts.rows[train_idx], labels=labels[train_idx], dimension=ts.dimension)
    if not val_idx:
        return train_part, None
    val_part = TrainingSet(rows=ts.rows[val_idx], labels=labels[val_idx], dimension=ts.dimension)
    return train_part, val_part


@dataclass
class BuildResult:
    dataset: Dataset
    profiles: ProfileSet
    model: ClassifierModel
    report: dict


def run_build(config: RunConfig) -> BuildResult:
    """Transform -> grid search -> profiles -> classifier; writes artifacts."""
    schema = TraceSchema.load(config.descriptor)
    dataset, dropped = load_trace(config.trace, schema)

    hopkins_doc: dict | None
    try:
        hk = hopkins(runtime_matrix(dataset), config.hopkins_fraction, seed=config.seed)
        hopkins_doc = artifacts.jsonable(hk)
    except DegenerateDataError as exc:
        hopkins_doc = {"score": None, "error": str(exc)}

    winner, profiles, rows = grid_search(
        dataset,
        config.grid,
        config.optimal_cluster_count,
        seed=config.seed,
        weights=config.acquires_weights,
        now=config.build_timestamp,
        percentiles=config.stats_percentiles,
    )
    ts, vocab = build_training_set(dataset, profiles)
    train_part, val_part = stratified_split(ts, config.validation_fraction, config.seed)
    model = train(
        train_part,
        vocab,
        config.classifier_params,
        seed=config.seed,
        bucket_bounds=dataset.bucket_bounds,
    )

    validation_doc = None
    if val_part is not None and len(val_part):
        predicted = classify_encoded(model, val_part.rows)[0]
        report = class_report(predicted.tolist(), val_part.labels.tolist())
        validation_doc = artifacts.jsonable(report)

    selected_row = next(r for r in rows if r.selected)
    build_report = {
        "n_workloads": len(dataset),
        "dropped_rows": dropped,
        "hopkins": hopkins_doc,
        "winner": artifacts.jsonable(winner),
        "winner_metrics": {
            "n_clusters": selected_row.n_clusters,
            "n_outliers": selected_row.n_outliers,
            "silhouette": selected_row.silhouette,
            "davies_bouldin": selected_row.davies_bouldin,
            "acquires_total": selected_row.acquires_total,
        },
        "grid_combinations": len(rows),
        "encoded_dimension": vocab.dimension,
        "n_train": len(train_part),
        "n_validation": len(val_part) if val_part is not None else 0,
        "validation_report": validation_doc,
        "feature_importance": feature_importance(model, top_n=20),
        "seed": config.seed,
    }

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_json(out / PROFILES_FILE, _stored(profiles, config))
    artifacts.write_json(out / MODEL_FILE, model)
    artifacts.write_csv(out / GRID_FILE, GRID_REPORT_FIELDS, artifacts.record_columns(
        GRID_REPORT_FIELDS, [r.to_record() for r in rows]))
    artifacts.write_json(out / BUILD_REPORT_FILE, build_report)
    return BuildResult(dataset=dataset, profiles=profiles, model=model, report=build_report)


def _stored(profiles: ProfileSet, config: RunConfig) -> ProfileSet:
    """The profile set as written: without members unless the config
    includes them."""
    return profiles if config.include_member_ids else profiles.without_members()


def load_artifact(path: Path, from_json):
    """from_json of one build artifact's JSON document. A file that is
    missing, is not valid JSON, or holds a document that from_json rejects
    (an unsupported format version, a missing key, a forest too large to
    route) is a MissingArtifactError that names it."""
    try:
        doc = artifacts.read_json(path)
    except FileNotFoundError as exc:
        raise MissingArtifactError(f"missing build artifact: {path}") from exc
    except (OSError, ValueError) as exc:
        raise MissingArtifactError(f"unreadable build artifact {path}: {exc}") from exc
    try:
        return from_json(doc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise MissingArtifactError(f"invalid build artifact {path}: {exc!r}") from exc


def load_artifacts(output_dir: Path) -> tuple[ProfileSet, ClassifierModel]:
    return (load_artifact(output_dir / PROFILES_FILE, partial(artifacts.read_record, ProfileSet)),
            load_artifact(output_dir / MODEL_FILE, ClassifierModel.from_json))


def _prediction_schema(config: RunConfig) -> TraceSchema:
    """The descriptor's schema, once every predict_features name is one of
    its runtime columns."""
    schema = TraceSchema.load(config.descriptor)
    for name in config.predict_features or ():
        if name not in schema.runtime_columns:
            raise ConfigError(f"predict_features names {name!r}, which is not a runtime "
                              f"column of {config.descriptor}")
    return schema


def run_evaluate(config: RunConfig, holdout_path: Path) -> RmseReport:
    """Score a holdout trace against the build artifacts; writes reports."""
    profiles, model = load_artifacts(config.output_dir)
    schema = _prediction_schema(config)
    try:
        holdout, _ = load_trace(holdout_path, schema, bucket_bounds=model.bucket_bounds)
    except NoValidRowsError as exc:
        raise EmptyHoldoutError(f"holdout {holdout_path} has no valid rows") from exc
    report = evaluate_holdout(
        holdout,
        model,
        profiles,
        config.prediction,
        features=config.predict_features,
        alt_normalization=config.alt_normalization,
    )
    out = config.output_dir
    artifacts.write_json(out / RMSE_REPORT_FILE, report)
    ecdf, box = ("feature", "error"), ("profile", "q1", "median", "q3", "count")
    for path, fields, records in ((RMSE_ECDF_FILE, ecdf, report.ecdf_records()),
                                  (RMSE_BOXPLOT_FILE, box, report.boxplot_records())):
        artifacts.write_csv(out / path, fields, artifacts.record_columns(fields, records))
    return report


def run_feedback_command(config: RunConfig, stream_path: Path) -> FeedbackRunReport:
    """Replay a stream through the feedback loop; writes the run report."""
    profiles, model = load_artifacts(config.output_dir)
    schema = _prediction_schema(config)
    training_data, _ = load_trace(config.trace, schema, bucket_bounds=model.bucket_bounds)
    stream, _ = load_trace(stream_path, schema, bucket_bounds=model.bucket_bounds)
    regen = ReclusterSpec(
        optimal_cluster_count=config.optimal_cluster_count,
        grid=config.recluster_config or config.grid,
        weights=config.acquires_weights,
        classifier_params=config.classifier_params,
        seed=config.seed,
        percentiles=config.stats_percentiles,
    )
    report = run_feedback(
        stream,
        model,
        profiles,
        config.feedback,
        regen,
        config.prediction,
        training_data,
        features=config.predict_features,
    )
    out = config.output_dir
    artifacts.write_json(out / FEEDBACK_REPORT_FILE, report)
    artifacts.write_csv(out / VIOLATIONS_FILE, EVENT_FIELDS, report.event_columns(stream))
    if report.adopted_count and report.final_profiles and report.final_model:
        artifacts.write_json(out / PROFILES_POST_FILE, _stored(report.final_profiles, config))
        artifacts.write_json(out / MODEL_POST_FILE, report.final_model)
    return report

"""Metadata-based profile classifier.

Trains gradient-boosted trees on the one-hot-encoded metadata of clustered
workloads (outliers excluded) and assigns profile labels to new workloads
from metadata alone. Trained models are immutable; classify calls are pure
and safe to run concurrently.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .artifacts import read_record
from .boosting import (
    BoostingParams,
    DEFAULT_PARAMS,
    Forest,
    fit_forest,
    total_gain_by_column,
)
from .encoding import EncoderVocabulary, build_vocabulary
from .errors import DegenerateDataError, EmptyProfileSetError, SchemaError
from .profiles import ProfileSet
from .trace_model import Dataset, MetadataBlock, bucketize_value

MODEL_FORMAT_VERSION = 1


@dataclass
class TrainingSet:
    """Encoded metadata rows with aligned profile labels."""

    rows: np.ndarray  # (n, features) one-hot columns, as EncoderVocabulary.encode gives
    labels: np.ndarray  # profile labels, not yet densified
    dimension: int

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ClassifierModel:
    vocabulary: EncoderVocabulary
    # read as given: from_json lays the trees out once the sibling fields are read
    forest: Forest = field(metadata={"key": "trees", "read": lambda trees: trees})
    class_labels: tuple[int, ...]  # sorted ascending; argmax ties pick the lowest
    hyperparams: BoostingParams
    seed: int = 0
    bucket_bounds: dict[str, tuple[float, float, float]] | None = None
    format_version: int = MODEL_FORMAT_VERSION

    @classmethod
    def from_json(cls, doc: Mapping) -> "ClassifierModel":
        """The model of a ``jsonable`` document, of this format version and
        stating every hyperparameter. ``read_record`` reads each field but
        the forest, whose trees ``Forest.from_json`` lays out in the shape
        that the class labels, vocabulary and hyperparameters give."""
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format: {doc.get('format_version')}")
        # a config may leave hyperparameters at their defaults; a model states them all
        missing = [f.name for f in fields(BoostingParams) if f.name not in doc["hyperparams"]]
        if missing:
            raise KeyError(f"hyperparams lacks {missing}")
        model = read_record(cls, doc)
        model.forest = Forest.from_json(model.forest, len(model.class_labels),
                                        model.vocabulary.dimension, model.hyperparams)
        return model


def build_training_set(
    dataset: Dataset, profiles: ProfileSet
) -> tuple[TrainingSet, EncoderVocabulary]:
    """Encode the metadata of clustered workloads; outliers are left out."""
    label_of: dict[str, int] = {}
    for g in profiles.groups:
        if g.member_ids is None:
            raise ValueError("profile set lacks member ids; rebuild profiles in memory")
        for wid in g.member_ids:
            label_of[wid] = g.label
    labels = [label_of.get(wid) for wid in dataset.ids.tolist()]
    kept = [i for i, label in enumerate(labels) if label is not None]
    if not kept:
        raise EmptyProfileSetError("no clustered workloads to train on")
    metadata = dataset.select(kept).metadata
    vocab = build_vocabulary(metadata)
    labels = np.array([labels[i] for i in kept], dtype=np.int64)
    return TrainingSet(rows=vocab.encode(metadata), labels=labels, dimension=vocab.dimension), vocab


def train(
    ts: TrainingSet,
    vocabulary: EncoderVocabulary,
    hyperparams: BoostingParams = DEFAULT_PARAMS,
    seed: int = 0,
    bucket_bounds: Mapping[str, Sequence[float]] | None = None,
) -> ClassifierModel:
    """Fit the boosted classifier; deterministic for a fixed seed.

    The exact greedy algorithm uses no randomness; the seed is recorded so a
    model is traceable to its build. An 80/20 train/validation split, when
    wanted, is the caller's job.
    """
    classes = sorted(set(int(v) for v in ts.labels))
    if len(classes) < 2:
        raise DegenerateDataError("training needs at least 2 distinct profile labels")
    dense = {c: i for i, c in enumerate(classes)}
    y = np.array([dense[int(v)] for v in ts.labels], dtype=np.int64)
    forest = fit_forest(ts.rows, y, len(classes), ts.dimension, hyperparams)
    return ClassifierModel(
        vocabulary=vocabulary,
        forest=forest,
        class_labels=tuple(classes),
        hyperparams=hyperparams,
        seed=seed,
        bucket_bounds=(
            {k: (float(v[0]), float(v[1]), float(v[2])) for k, v in bucket_bounds.items()}
            if bucket_bounds
            else None
        ),
    )


def record_values(model: ClassifierModel, metadata: Mapping) -> list[str]:
    """One record's metadata values in vocabulary order, bucketized as at
    training; a missing feature, or metadata that is not a mapping, is an error."""
    if not isinstance(metadata, Mapping):
        raise SchemaError("metadata record is not an object")
    bounds = model.bucket_bounds or {}
    values = []
    for f in model.vocabulary.feature_names:
        if f not in metadata:
            raise SchemaError(f"metadata record is missing feature {f!r}")
        value = metadata[f]
        if f in bounds:
            try:
                value = bucketize_value(float(value), bounds[f])
            except (TypeError, ValueError):
                pass  # already a quartile label
        values.append(str(value))
    return values


def encode_records(model: ClassifierModel, records: Sequence[Mapping]) -> np.ndarray:
    """Encoded rows of metadata records."""
    values = [record_values(model, rec) for rec in records]
    return model.vocabulary.encode(MetadataBlock.from_rows(model.vocabulary.feature_names, values))


def classify_encoded(
    model: ClassifierModel, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, probabilities of each distinct row in class order, each row's
    index into them) of encoded rows. A label is the argmax of its distinct
    row, ties to the lowest label; row i's probabilities are
    ``probs[inverse[i]]``, so only a caller that wants the rows x classes
    matrix builds it."""
    probs, inverse = model.forest.distinct_probabilities(rows)
    return np.asarray(model.class_labels)[probs.argmax(axis=1)][inverse], probs, inverse


def classify_batch(
    model: ClassifierModel, records: Sequence[Mapping[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Label workloads from metadata alone: (labels, probability matrix)."""
    labels, probs, inverse = classify_encoded(model, encode_records(model, records))
    return labels, probs[inverse]


def classify(model: ClassifierModel, metadata: Mapping[str, str]) -> tuple[int, dict[int, float]]:
    """Label one workload: a batch of one."""
    labels, probs = classify_batch(model, [metadata])
    return int(labels[0]), dict(zip(model.class_labels, probs[0].tolist()))


def feature_importance(model: ClassifierModel, top_n: int = 20) -> list[tuple[str, float]]:
    """Encoded features ranked by split-gain share (sums to 1 over all)."""
    gains = total_gain_by_column(model.forest)
    total = float(gains.sum())
    if total <= 0.0:
        return []
    share = gains / total
    order = np.argsort(-share, kind="stable")[:top_n]
    return [
        (model.vocabulary.column_name(int(i)), float(share[i]))
        for i in order
        if share[i] > 0.0
    ]


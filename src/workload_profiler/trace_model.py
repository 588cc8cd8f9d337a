"""Core domain types and CSV trace ingestion.

A trace is a CSV file with a header row; a sidecar JSON descriptor assigns
each column a role (id | metadata | runtime | timestamp | ignore). Datasets
and feature matrices are immutable after construction, so they are safe to
share across threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateIdError,
    NoValidRowsError,
    SchemaError,
    TraceReadError,
)

ROLES = ("id", "metadata", "runtime", "timestamp", "ignore")

QUARTILE_LABELS = ("q1", "q2", "q3", "q4")


@dataclass(frozen=True)
class TraceSchema:
    """Column-role assignment for one trace layout.

    ``bucketize`` lists metadata columns holding numeric values that are
    replaced by quartile labels (q1..q4) at ingestion time.
    """

    columns: Mapping[str, str]
    bucketize: tuple[str, ...] = ()

    def __post_init__(self):
        roles = {}
        for col, role in self.columns.items():
            if role not in ROLES:
                raise SchemaError(f"unknown role {role!r} for column {col!r}")
            roles.setdefault(role, []).append(col)
        if len(roles.get("id", [])) != 1:
            raise SchemaError("descriptor must name exactly one id column")
        if len(roles.get("timestamp", [])) > 1:
            raise SchemaError("descriptor names more than one timestamp column")
        if not roles.get("metadata"):
            raise SchemaError("descriptor must name at least one metadata column")
        if not roles.get("runtime"):
            raise SchemaError("descriptor must name at least one runtime column")
        for col in self.bucketize:
            if self.columns.get(col) != "metadata":
                raise SchemaError(f"bucketize column {col!r} must have role 'metadata'")

    @property
    def id_column(self) -> str:
        return next(c for c, r in self.columns.items() if r == "id")

    @property
    def timestamp_column(self) -> str | None:
        return next((c for c, r in self.columns.items() if r == "timestamp"), None)

    @property
    def metadata_columns(self) -> tuple[str, ...]:
        return tuple(c for c, r in self.columns.items() if r == "metadata")

    @property
    def runtime_columns(self) -> tuple[str, ...]:
        return tuple(c for c, r in self.columns.items() if r == "runtime")

    @classmethod
    def from_json(cls, doc: Mapping) -> "TraceSchema":
        if "columns" not in doc or not isinstance(doc["columns"], Mapping):
            raise SchemaError("descriptor must contain a 'columns' mapping")
        return cls(columns=dict(doc["columns"]), bucketize=tuple(doc.get("bucketize", ())))

    @classmethod
    def load(cls, path: str | Path) -> "TraceSchema":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise TraceReadError(f"cannot read descriptor {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"descriptor {path} is not valid JSON: {exc}") from exc
        return cls.from_json(doc)

    def to_json(self) -> dict:
        doc: dict = {"columns": dict(self.columns)}
        if self.bucketize:
            doc["bucketize"] = list(self.bucketize)
        return doc


@dataclass(frozen=True)
class Workload:
    """One trace record: static metadata plus measured runtime features."""

    id: str
    metadata: dict[str, str]
    runtime: dict[str, float]
    submitted_at: int = 0


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of workloads sharing one schema."""

    schema_runtime: tuple[str, ...]
    schema_metadata: tuple[str, ...]
    workloads: tuple[Workload, ...]
    bucket_bounds: dict[str, tuple[float, float, float]] | None = None

    def __post_init__(self):
        if not self.schema_runtime:
            raise SchemaError("dataset needs at least one runtime feature")
        if not self.workloads:
            raise NoValidRowsError("dataset needs at least one workload")
        seen: set[str] = set()
        rt_keys = set(self.schema_runtime)
        md_keys = set(self.schema_metadata)
        for w in self.workloads:
            if w.id in seen:
                raise DuplicateIdError(f"duplicate workload id {w.id!r}")
            seen.add(w.id)
            if set(w.runtime) != rt_keys or set(w.metadata) != md_keys:
                raise SchemaError(f"workload {w.id!r} does not match the declared schemas")
            for name, value in w.runtime.items():
                if not math.isfinite(value):
                    raise SchemaError(f"workload {w.id!r} has non-finite {name!r}")

    def __len__(self) -> int:
        return len(self.workloads)

    def select(self, indices: Iterable[int]) -> "Dataset":
        """Subset by row indices, preserving the given order."""
        picked = tuple(self.workloads[i] for i in indices)
        return Dataset(self.schema_runtime, self.schema_metadata, picked, self.bucket_bounds)

    def ids(self) -> tuple[str, ...]:
        return tuple(w.id for w in self.workloads)


@dataclass(frozen=True)
class FeatureMatrix:
    """Runtime features as an n x l float matrix aligned to dataset order."""

    rows: np.ndarray
    feature_names: tuple[str, ...]
    transform_applied: str = "none"

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.feature_names):
            raise ValueError("matrix shape does not match feature names")

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def matrix_rows(matrix) -> np.ndarray:
    """The float rows of a FeatureMatrix or of any 2-D array-like."""
    return matrix.rows if isinstance(matrix, FeatureMatrix) else np.asarray(matrix, dtype=np.float64)


def runtime_matrix(dataset: Dataset) -> FeatureMatrix:
    """Stack the raw runtime vectors; row i corresponds to workloads[i]."""
    names = dataset.schema_runtime
    rows = np.array(
        [[w.runtime[f] for f in names] for w in dataset.workloads], dtype=np.float64
    )
    return FeatureMatrix(rows=rows, feature_names=names, transform_applied="none")


def _parse_finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _quartile_bounds(values: Sequence[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def bucketize_value(value: float, bounds: tuple[float, float, float]) -> str:
    """Map a numeric metadata value onto its quartile label."""
    b1, b2, b3 = bounds
    if value <= b1:
        return QUARTILE_LABELS[0]
    if value <= b2:
        return QUARTILE_LABELS[1]
    if value <= b3:
        return QUARTILE_LABELS[2]
    return QUARTILE_LABELS[3]


def load_trace(
    path: str | Path,
    schema: TraceSchema,
    bucket_bounds: Mapping[str, Sequence[float]] | None = None,
) -> tuple[Dataset, int]:
    """Read a CSV trace, dropping rows that fail validation.

    A row is dropped when any declared cell is missing/empty, when a runtime
    cell does not parse to a finite float, or when a bucketized metadata cell
    does not parse. Returns the dataset plus the number of dropped rows.
    Pass ``bucket_bounds`` to reuse quartile boundaries from an earlier load
    (otherwise they are fitted on this file's accepted rows).
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise TraceReadError(f"cannot read trace {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TraceReadError(f"trace {path} has no header row")
        declared = [c for c, r in schema.columns.items() if r != "ignore"]
        missing = [c for c in declared if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"trace {path} lacks declared columns: {missing}")

        id_col = schema.id_column
        ts_col = schema.timestamp_column
        md_cols = schema.metadata_columns
        rt_cols = schema.runtime_columns

        accepted: list[dict] = []
        dropped = 0
        for row in reader:
            cells = {c: (row.get(c) or "").strip() for c in declared}
            if any(cells[c] == "" for c in declared):
                dropped += 1
                continue
            runtime = {}
            bad = False
            for c in rt_cols:
                value = _parse_finite(cells[c])
                if value is None:
                    bad = True
                    break
                runtime[c] = value
            if not bad and ts_col is not None:
                ts = _parse_finite(cells[ts_col])
                bad = ts is None
            if not bad:
                for c in schema.bucketize:
                    if _parse_finite(cells[c]) is None:
                        bad = True
                        break
            if bad:
                dropped += 1
                continue
            accepted.append(
                {
                    "id": cells[id_col],
                    "metadata": {c: cells[c] for c in md_cols},
                    "runtime": runtime,
                    "ts": int(float(cells[ts_col])) if ts_col else len(accepted),
                }
            )

    if not accepted:
        raise NoValidRowsError(f"trace {path} contains no valid rows")

    bounds: dict[str, tuple[float, float, float]] = {}
    if schema.bucketize:
        for col in schema.bucketize:
            if bucket_bounds and col in bucket_bounds:
                b = bucket_bounds[col]
                bounds[col] = (float(b[0]), float(b[1]), float(b[2]))
            else:
                bounds[col] = _quartile_bounds([float(r["metadata"][col]) for r in accepted])
        for r in accepted:
            for col in schema.bucketize:
                r["metadata"][col] = bucketize_value(float(r["metadata"][col]), bounds[col])

    workloads = tuple(
        Workload(id=r["id"], metadata=r["metadata"], runtime=r["runtime"], submitted_at=r["ts"])
        for r in accepted
    )
    dataset = Dataset(
        schema_runtime=rt_cols,
        schema_metadata=md_cols,
        workloads=workloads,
        bucket_bounds=bounds or None,
    )
    return dataset, dropped


def render_number(value: float) -> str:
    """Canonical decimal rendering: shortest string that round-trips."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def write_trace(dataset: Dataset, path: str | Path) -> None:
    """Persist a dataset as CSV in the canonical column layout."""
    header = ["id", *dataset.schema_metadata, *dataset.schema_runtime, "submitted_at"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for w in dataset.workloads:
            row = [w.id]
            row += [w.metadata[c] for c in dataset.schema_metadata]
            row += [render_number(w.runtime[c]) for c in dataset.schema_runtime]
            row.append(str(w.submitted_at))
            writer.writerow(row)


def schema_for(dataset: Dataset) -> TraceSchema:
    """Descriptor matching write_trace's canonical layout."""
    columns = {"id": "id"}
    columns.update({c: "metadata" for c in dataset.schema_metadata})
    columns.update({c: "runtime" for c in dataset.schema_runtime})
    columns["submitted_at"] = "timestamp"
    return TraceSchema(columns=columns)

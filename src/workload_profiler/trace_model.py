"""Core domain types and CSV trace ingestion.

A trace is a CSV file with a header row; a sidecar JSON descriptor assigns
each column a role (id | metadata | runtime | timestamp | ignore). A dataset
holds the accepted rows as columns: ids, timestamps, a runtime matrix and
int-coded metadata. Datasets and feature matrices are immutable after
construction, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import read_record
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
    bucketize: tuple[str, ...] = field(default=(), metadata={"omit": True})

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
    def load(cls, path: str | Path) -> "TraceSchema":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise TraceReadError(f"cannot read descriptor {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"descriptor {path} is not valid JSON: {exc}") from exc
        try:
            return read_record(cls, doc)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"invalid descriptor {path}: {exc}") from exc


def _code_column(cells: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """(codes, table) of one column of strings: the table holds the distinct
    values in Python string order (a numpy ``U`` array would drop trailing
    NULs) and codes[i] indexes cells[i] in it."""
    table = tuple(sorted(set(cells)))
    index = {value: code for code, value in enumerate(table)}
    return np.fromiter(map(index.__getitem__, cells), np.int64, len(cells)), table


@dataclass(frozen=True, eq=False)
class MetadataBlock:
    """Categorical columns as int codes: codes[i, j] indexes tables[j], the
    sorted values of column names[j]. Rows taken from a larger block keep its
    tables, so a table may hold values that none of the rows hold."""

    names: tuple[str, ...]
    codes: np.ndarray  # (n, len(names)) int64
    tables: tuple[tuple[str, ...], ...]

    @classmethod
    def from_columns(cls, names: Sequence[str], columns: Iterable[Sequence[str]]) -> "MetadataBlock":
        codes, tables = zip(*map(_code_column, columns))
        return cls(tuple(names), np.stack(codes, axis=1), tables)

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[Sequence[str]]) -> "MetadataBlock":
        return cls.from_columns(names, list(zip(*rows)) or [()] * len(names))

    def values(self, j: int) -> list[str]:
        """Column j decoded, in row order."""
        return np.asarray(self.tables[j], dtype=object)[self.codes[:, j]].tolist()

    def counts(self, j: int, rows=slice(None)) -> dict[str, int]:
        """How many of the rows hold each value of column j, for the values
        they hold, in table order."""
        held = np.bincount(self.codes[rows, j], minlength=len(self.tables[j])).tolist()
        return {value: count for value, count in zip(self.tables[j], held) if count}

    def concat(self, other: "MetadataBlock") -> "MetadataBlock":
        """These rows, then other's, over the merged value tables."""
        codes, tables = [], []
        for j, (mine, theirs) in enumerate(zip(self.tables, other.tables)):
            table = tuple(sorted(set(mine) | set(theirs)))
            index = {value: code for code, value in enumerate(table)}
            codes.append(np.concatenate([
                np.array([index[v] for v in own], dtype=np.int64)[block.codes[:, j]]
                for block, own in ((self, mine), (other, theirs))
            ]))
            tables.append(table)
        return MetadataBlock(self.names, np.stack(codes, axis=1), tuple(tables))


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of workloads sharing one schema, held as
    columns: row i is ids[i], submitted_at[i], runtime[i] and metadata row i.
    The arrays are read-only."""

    schema_runtime: tuple[str, ...]
    ids: np.ndarray           # (n,) object array of str
    submitted_at: np.ndarray  # (n,) int64
    runtime: np.ndarray       # (n, len(schema_runtime)) float64
    metadata: MetadataBlock
    bucket_bounds: dict[str, tuple[float, float, float]] | None = None

    def __post_init__(self):
        n = len(self.ids)
        if not self.schema_runtime:
            raise SchemaError("dataset needs at least one runtime feature")
        if n == 0:
            raise NoValidRowsError("dataset needs at least one workload")
        shapes = (self.submitted_at.shape, self.runtime.shape, self.metadata.codes.shape)
        if shapes != ((n,), (n, len(self.schema_runtime)), (n, len(self.metadata.names))):
            raise SchemaError("dataset columns do not match the declared schemas")
        for array in (self.ids, self.submitted_at, self.runtime, self.metadata.codes):
            array.flags.writeable = False
        # The first offending row decides; within a row a repeated id comes first.
        ids = self.ids.tolist()
        repeat = n
        if len(set(ids)) < n:
            first = {wid: i for i, wid in reversed(list(enumerate(ids)))}  # each id's first row
            repeat = next(i for i, wid in enumerate(ids) if first[wid] != i)
        bad = ~np.isfinite(self.runtime)
        row = int(bad.any(axis=1).argmax()) if bad.any() else n
        if repeat < n and repeat <= row:
            raise DuplicateIdError(f"duplicate workload id {self.ids[repeat]!r}")
        if row < n:
            name = self.schema_runtime[int(bad[row].argmax())]
            raise SchemaError(f"workload {self.ids[row]!r} has non-finite {name!r}")

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        runtime: Mapping[str, Sequence[float]],
        metadata: Mapping[str, Sequence[str]],
        submitted_at: Sequence[int] | None = None,
        bucket_bounds: dict[str, tuple[float, float, float]] | None = None,
    ) -> "Dataset":
        """A dataset from named columns; submission order defaults to row order."""
        n = len(ids)
        rows = np.empty((n, len(runtime)), dtype=np.float64)
        for j, column in enumerate(runtime.values()):
            rows[:, j] = column
        return cls(
            schema_runtime=tuple(runtime),
            ids=np.array(list(ids), dtype=object),
            submitted_at=np.asarray(range(n) if submitted_at is None else submitted_at, np.int64),
            runtime=rows,
            metadata=MetadataBlock.from_columns(tuple(metadata), metadata.values()),
            bucket_bounds=bucket_bounds,
        )

    @property
    def schema_metadata(self) -> tuple[str, ...]:
        return self.metadata.names

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        """Subset by row indices, preserving the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        metadata = MetadataBlock(self.metadata.names, self.metadata.codes[idx], self.metadata.tables)
        return Dataset(self.schema_runtime, self.ids[idx], self.submitted_at[idx],
                       self.runtime[idx], metadata, self.bucket_bounds)

    def concat(self, other: "Dataset") -> "Dataset":
        """These rows, then other's; the bucket bounds stay these."""
        if self.schema_runtime != other.schema_runtime or self.schema_metadata != other.schema_metadata:
            raise ValueError("datasets have different schemas")
        return Dataset(
            self.schema_runtime,
            np.concatenate([self.ids, other.ids]),
            np.concatenate([self.submitted_at, other.submitted_at]),
            np.concatenate([self.runtime, other.runtime]),
            self.metadata.concat(other.metadata),
            self.bucket_bounds,
        )


@dataclass(frozen=True)
class FeatureMatrix:
    """Runtime features as an n x l float matrix aligned to dataset order."""

    rows: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.feature_names):
            raise ValueError("matrix shape does not match feature names")


def matrix_rows(matrix) -> np.ndarray:
    """The float rows of a FeatureMatrix or of any 2-D array-like."""
    return matrix.rows if isinstance(matrix, FeatureMatrix) else np.asarray(matrix, dtype=np.float64)


def runtime_matrix(dataset: Dataset) -> FeatureMatrix:
    """The raw runtime vectors, not copied; row i corresponds to dataset row i."""
    return FeatureMatrix(rows=dataset.runtime, feature_names=dataset.schema_runtime)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _parse(cells: Sequence[str]) -> np.ndarray:
    """float() of each stripped cell of a column, nan where it does not parse.
    A cell that float() reads unstripped reads the same stripped, so only a
    column holding a cell that fails is stripped (float() keeps the separators
    U+001C..U+001F that str.strip() removes)."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return np.array([_float_or_nan(c.strip()) for c in cells], dtype=np.float64)


def bucketize_value(value, bounds: tuple[float, float, float]):
    """Map a numeric metadata value, or an array of them, onto quartile labels."""
    b1, b2, b3 = bounds
    index = np.where(value <= b1, 0, np.where(value <= b2, 1, np.where(value <= b3, 2, 3)))
    return np.asarray(QUARTILE_LABELS, dtype=object)[index]


LOAD_CHUNK = 1024  # non-blank csv records read and parsed together by load_trace


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
    (otherwise they are fitted on this file's accepted rows). Blank lines are
    skipped; a repeated header name reads its last column.

    The file is read LOAD_CHUNK non-blank records at a time, and each
    chunk's accepted rows are kept as compact columns: ids, floats, and
    metadata codes that index the values in order of arrival until the
    sorted tables are made at the end. Memory is bounded by the kept columns
    plus one chunk's declared cells.
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise TraceReadError(f"cannot read trace {path}: {exc}") from exc
    numeric = [*schema.runtime_columns, *filter(None, [schema.timestamp_column]), *schema.bucketize]
    coded = [c for c in schema.metadata_columns if c not in schema.bucketize]
    ids: list[str] = []
    floats: dict[str, list[np.ndarray]] = {c: [] for c in numeric}
    codes: dict[str, list[np.ndarray]] = {c: [] for c in coded}
    interned: dict[str, dict[str, int]] = {c: {} for c in coded}
    n_read = 0
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceReadError(f"trace {path} has no header row")
        declared = [c for c, r in schema.columns.items() if r != "ignore"]
        missing = [c for c in declared if c not in header]
        if missing:
            raise SchemaError(f"trace {path} lacks declared columns: {missing}")
        at = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(*(at[c] for c in declared))  # >= 3 columns: a tuple
        width = max(at[c] for c in declared) + 1
        pad = [""] * width  # a short row reads "" past its end
        records = filter(None, reader)  # blank lines are skipped
        while rows := [pick(r) if len(r) >= width else pick(r + pad)
                       for r in itertools.islice(records, LOAD_CHUNK)]:
            n_read += len(rows)
            cells = dict(zip(declared, zip(*rows)))
            text = {c: list(map(str.strip, cells[c])) for c in (schema.id_column, *coded)}
            ok = np.ones(len(rows), dtype=bool)
            for column in text.values():
                if "" in column:
                    ok &= np.fromiter(map(bool, column), bool, len(column))
            parsed = {c: _parse(cells[c]) for c in numeric}
            for values in parsed.values():
                ok &= np.isfinite(values)
            if not ok.all():
                mask = ok.tolist()
                text = {c: list(itertools.compress(column, mask)) for c, column in text.items()}
                parsed = {c: values[ok] for c, values in parsed.items()}
            ids += text[schema.id_column]
            for c in numeric:
                floats[c].append(parsed[c])
            for c in coded:
                index = interned[c]
                for value in set(text[c]).difference(index):
                    index[value] = len(index)
                codes[c].append(np.fromiter(map(index.__getitem__, text[c]), np.int32, len(text[c])))
            del rows, cells, text, parsed  # the last chunk's cells go before the assembly
    if not ids:
        raise NoValidRowsError(f"trace {path} contains no valid rows")
    n_kept = len(ids)
    ids = np.array(ids, dtype=object)

    buckets = {c: np.concatenate(floats.pop(c)) for c in schema.bucketize}
    bounds = {}
    for c, values in buckets.items():
        given = (bucket_bounds or {}).get(c)
        bounds[c] = tuple(map(float, given[:3] if given else np.percentile(values, [25, 50, 75])))
    # Each column is written into its place in the block as it is finished.
    metadata = np.empty((n_kept, len(schema.metadata_columns)), dtype=np.int64)
    tables = []
    for j, c in enumerate(schema.metadata_columns):
        if c in bounds:
            metadata[:, j], table = _code_column(bucketize_value(buckets.pop(c), bounds[c]).tolist())
        else:  # arrival codes onto ranks in the sorted table
            table = tuple(sorted(interned[c]))
            rank = {value: code for code, value in enumerate(table)}
            remap = np.fromiter(map(rank.__getitem__, interned.pop(c)), np.int64, len(table))
            metadata[:, j] = remap[np.concatenate(codes.pop(c))]
        tables.append(table)

    submitted_at = np.arange(n_kept, dtype=np.int64)
    if schema.timestamp_column is not None:
        stamps = np.concatenate(floats.pop(schema.timestamp_column))
        if not (np.abs(stamps) < 2.0**63).all():
            raise SchemaError(f"trace {path} has a timestamp outside the int64 range")
        submitted_at = stamps.astype(np.int64)  # truncates toward zero, as int() does
    runtime = np.empty((n_kept, len(schema.runtime_columns)), dtype=np.float64)
    for j, c in enumerate(schema.runtime_columns):
        runtime[:, j] = np.concatenate(floats.pop(c))
    dataset = Dataset(
        schema_runtime=schema.runtime_columns,
        ids=ids,
        submitted_at=submitted_at,
        runtime=runtime,
        metadata=MetadataBlock(schema.metadata_columns, metadata, tuple(tables)),
        bucket_bounds=bounds or None,
    )
    return dataset, n_read - n_kept


def render_number(value: float) -> str:
    """Canonical decimal rendering: shortest string that round-trips."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def write_trace(dataset: Dataset, path: str | Path) -> None:
    """Persist a dataset as CSV in the canonical column layout."""
    header = ["id", *dataset.schema_metadata, *dataset.schema_runtime, "submitted_at"]
    columns = [dataset.ids.tolist()]
    columns += [dataset.metadata.values(j) for j in range(len(dataset.schema_metadata))]
    columns += [list(map(render_number, dataset.runtime[:, j].tolist()))
                for j in range(len(dataset.schema_runtime))]
    columns.append(list(map(str, dataset.submitted_at.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def schema_for(dataset: Dataset) -> TraceSchema:
    """Descriptor matching write_trace's canonical layout."""
    columns = {"id": "id"}
    columns.update({c: "metadata" for c in dataset.schema_metadata})
    columns.update({c: "runtime" for c in dataset.schema_runtime})
    columns["submitted_at"] = "timestamp"
    return TraceSchema(columns=columns)

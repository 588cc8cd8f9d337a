"""Canonical artifact writing: byte-identical JSON and CSV for fixed inputs.

Floats render as their shortest round-trip decimal; keys are sorted;
non-finite values become null in JSON and literal inf/nan text in CSV.
JSON is encoded straight into the open file, so the writer holds no more
than the document's nesting depth beyond the document itself; CSV rows are
formatted and written CSV_CHUNK at a time, so the cells held never grow with
the row count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


def jsonable(obj):
    """Recursively coerce to strict-JSON-safe values (no NaN/inf). This is
    the one place that decides a record's JSON: a dataclass instance becomes
    an object of its fields by name, a numpy scalar or array its
    ``tolist()``, a tuple a list and a mapping key its ``str``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: str | Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(obj), fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def json_int(value) -> int:
    """An integer field of a JSON document: an int, an integral float or a
    string that ``int`` parses. A fraction, a bool or a non-finite number is
    a ValueError, never truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def json_float(value) -> float:
    """A number field of a JSON document: a number or a string that
    ``float`` parses. A bool is a ValueError, never read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


_JSON_TYPES = {dict: "object", list: "list", bool: "boolean"}


def json_field(doc: Mapping, key: str, kind: type, default=None):
    """``doc[key]``, which must be a JSON ``kind`` (an object, a list or a
    boolean as ``json`` parses them; anything else is a TypeError), or
    ``default`` when the key is absent."""
    if key not in doc:
        return default
    value = doc[key]
    if not isinstance(value, kind):
        raise TypeError(f"{key} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


_FLAGS = ("false", "true")
CSV_CHUNK = 1024  # rows formatted and written together


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return _FLAGS[value]
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cells(column: Sequence) -> list[str]:
    """A column's CSV cells; a numpy flag or integer column is formatted whole."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biu":
        return list(map(_FLAGS.__getitem__ if column.dtype == bool else str, column.tolist()))
    return [_cell(v) for v in (column.tolist() if isinstance(column, np.ndarray) else column)]


def record_columns(fieldnames: Sequence[str], records: Sequence[Mapping]) -> list[list]:
    """The columns of mapping records, a missing field as None."""
    return [[record.get(f) for record in records] for f in fieldnames]


def write_csv(path: str | Path, fieldnames: Sequence[str], columns: Sequence[Sequence]) -> None:
    """A header row, then row i of the equal-length ``columns``, one per field."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(fieldnames))
        for start in range(0, n, CSV_CHUNK):
            chunk = slice(start, start + CSV_CHUNK)
            writer.writerows(zip(*[_cells(column[chunk]) for column in columns]))

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
from collections.abc import Callable, Mapping, Sequence
from functools import cache, cached_property, partial
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np


def jsonable(obj):
    """Recursively coerce to strict-JSON-safe values (no NaN/inf). This is
    the one place that decides a record's JSON: a dataclass instance becomes
    an object of its fields, a numpy scalar or array its ``tolist()``, a
    tuple a list and a mapping key its ``str``. A field is written under its
    ``"key"`` metadata, else its name, and a field whose metadata sets
    ``"omit"`` is left out while it equals its default. A dataclass with a
    ``to_json`` method (a layout, or derived values) is written as what that
    returns."""
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
        if hasattr(obj, "to_json"):
            return jsonable(obj.to_json())
        doc = {}
        for f in _fields(type(obj)):
            value = getattr(obj, f.name)
            if not (f.omit and value == f.default):
                doc[f.key] = jsonable(value)
        return doc
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


_JSON_KINDS = {str: "string", bool: "boolean", list: "list", dict: "object"}


def _json(kind: type, value):
    """``value``, which must be a JSON ``kind`` as ``json`` parses it (a
    string, a boolean, a list or an object); anything else is a TypeError."""
    if not isinstance(value, kind):
        raise TypeError(f"a JSON {_JSON_KINDS[kind]} is required, got {value!r}")
    return value


def _homogeneous(kind: type, value) -> tuple:
    """The tuple of a JSON list whose items are all ``kind``; a list of
    exactly ``kind`` items is checked by one pass over their types."""
    if not set(map(type, _json(list, value))) <= {kind}:
        for item in value:
            _json(kind, item)
    return tuple(value)


def _counts(value) -> dict:
    """The dict of a JSON object of integers; one whose values are all ints,
    as a metadata bag is written, is checked by one pass over their types."""
    if set(map(type, _json(dict, value).values())) <= {int}:
        return dict(value)
    return {key: json_int(count) for key, count in value.items()}


def _array(value) -> np.ndarray:
    """The float64 array of a JSON list of finite numbers. No stored array
    (a centroid, a transform's parameters) may hold NaN or infinity, so a
    null, which numpy reads as NaN, is a ValueError like NaN, Infinity and
    a boolean."""
    array = np.asarray(_json(list, value), dtype=np.float64)
    if any(isinstance(item, bool) for item in value) or not np.isfinite(array).all():
        raise ValueError(f"a list of finite numbers is required, got {value!r}")
    return array


def _fixed(readers: tuple, value) -> tuple:
    """The tuple of a JSON list of exactly one item per reader."""
    if len(_json(list, value)) != len(readers):
        raise ValueError(f"a list of {len(readers)} items is required, got {value!r}")
    return tuple(read(item) for read, item in zip(readers, value))


def _reader(hint) -> Callable:
    """The parser of one JSON value for a field declared as ``hint``."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is int:
        return json_int
    if hint is float:
        return json_float
    if hint in (str, bool):
        return partial(_json, hint)
    if hint is Path:
        return lambda value: Path(_json(str, value))
    if hint is np.ndarray:
        return _array
    if dataclasses.is_dataclass(hint):
        return partial(read_record, hint)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        read = _reader(args[args[0] is type(None)])
        return lambda value: None if value is None else read(value)
    if origin is tuple and args[1:] == (Ellipsis,):
        if args[0] in (str, bool):
            return partial(_homogeneous, args[0])
        read = _reader(args[0])
        return lambda value: tuple(map(read, _json(list, value)))
    if origin is tuple:
        return partial(_fixed, tuple(map(_reader, args)))
    if origin in (dict, Mapping):
        if args == (str, int):
            return _counts
        key, item = map(_reader, args)
        return lambda value: {key(k): item(v) for k, v in _json(dict, value).items()}
    raise TypeError(f"no JSON reader for {hint!r}")


class _Field:
    """One dataclass field as JSON holds it: under ``key``, left out when
    ``omit`` is set and the value equals ``default``, and parsed by ``read``."""

    def __init__(self, cls, f: dataclasses.Field):
        self.cls, self.name = cls, f.name
        self.key = f.metadata.get("key", f.name)
        self.omit = f.metadata.get("omit", False)
        factory = f.default_factory
        self.required = f.default is dataclasses.MISSING and factory is dataclasses.MISSING
        self.default = f.default if factory is dataclasses.MISSING else factory()
        self._read = f.metadata.get("read")

    @cached_property
    def read(self) -> Callable:
        """The field's ``"read"`` metadata, else the parser of its declared
        type; built on the first read, so a record that is only written
        needs none."""
        return self._read or _reader(get_type_hints(self.cls)[self.name])


@cache
def _fields(cls) -> tuple[_Field, ...]:
    """The field table of dataclass ``cls``, which ``jsonable`` and
    ``read_record`` both follow."""
    return tuple(_Field(cls, f) for f in dataclasses.fields(cls))


def read_record(cls, doc):
    """The ``cls`` dataclass of a JSON object, the inverse of ``jsonable``.

    Each field is read from the key ``jsonable`` writes it under: its
    ``"key"`` metadata, else its name; the name of a keyed field is not
    read. The value is parsed by the field's declared type: ``int`` by
    ``json_int`` and ``float`` by ``json_float``; a ``str`` or ``bool`` must
    be that JSON type; ``X | None`` also takes null; a tuple comes from a
    JSON list (of its length, unless it is ``tuple[X, ...]``), a
    ``dict[K, V]`` from a JSON object with its keys parsed as ``K``, an
    ndarray from a list of finite numbers, a ``Path`` from a string, and a
    nested dataclass is read by this function. A field whose metadata holds
    a ``"read"`` parser is parsed by that instead. An absent key keeps the
    field's default, so an ``"omit"`` field left out reads back equal, and a
    field without one is required; other keys are ignored. A value of the
    wrong JSON type is a TypeError and any other bad value a ValueError, its
    message led by the key."""
    _json(dict, doc)
    kwargs = {}
    for f in _fields(cls):
        if f.key in doc:
            try:
                kwargs[f.name] = f.read(doc[f.key])
            except (TypeError, ValueError) as exc:
                kind = TypeError if isinstance(exc, TypeError) else ValueError
                raise kind(f"{f.key}: {exc}") from exc
        elif f.required:
            raise ValueError(f"{f.key}: a value is required")
    return cls(**kwargs)


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

"""Sparse one-hot encoding of categorical metadata.

The vocabulary stores per-feature category lists in sorted order, so the
encoded layout is independent of row order. Values unseen at training time
encode to an all-zero block for their feature, which lets new users or job
names pass through without erroring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import SchemaError


@dataclass(frozen=True)
class EncoderVocabulary:
    feature_names: tuple[str, ...]
    categories: dict[str, tuple[str, ...]]
    unknown_policy: str = "zero"

    @property
    def dimension(self) -> int:
        return sum(len(self.categories[f]) for f in self.feature_names)

    @cached_property
    def column_of(self) -> dict[str, dict[str, int]]:
        """Per feature, each category's one-hot column."""
        out = {}
        at = 0
        for f in self.feature_names:
            out[f] = {value: at + j for j, value in enumerate(self.categories[f])}
            at += len(self.categories[f])
        return out

    def column_name(self, index: int) -> str:
        at = 0
        for f in self.feature_names:
            size = len(self.categories[f])
            if index < at + size:
                return f"{f}={self.categories[f][index - at]}"
            at += size
        raise IndexError(index)

    def to_json(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "categories": {f: list(v) for f, v in self.categories.items()},
            "unknown_policy": self.unknown_policy,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "EncoderVocabulary":
        return cls(
            feature_names=tuple(doc["feature_names"]),
            categories={f: tuple(v) for f, v in doc["categories"].items()},
            unknown_policy=doc.get("unknown_policy", "zero"),
        )


def build_vocabulary(
    feature_names: Iterable[str], records: Iterable[Mapping[str, str]]
) -> EncoderVocabulary:
    names = tuple(feature_names)
    seen: dict[str, set[str]] = {f: set() for f in names}
    for rec in records:
        for f in names:
            seen[f].add(str(rec[f]))
    return EncoderVocabulary(
        feature_names=names,
        categories={f: tuple(sorted(seen[f])) for f in names},
    )


def encode_record(vocab: EncoderVocabulary, record: Mapping[str, str]) -> tuple[int, ...]:
    """Active one-hot indices for one metadata record (sparse form).

    Unknown categories contribute no index; a missing feature is an error.
    """
    columns = vocab.column_of
    active: list[int] = []
    for f in vocab.feature_names:
        if f not in record:
            raise SchemaError(f"metadata record is missing feature {f!r}")
        col = columns[f].get(str(record[f]))
        if col is not None:  # an unknown value leaves its block all-zero
            active.append(col)
    return tuple(active)

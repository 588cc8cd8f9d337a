"""Sparse one-hot encoding of categorical metadata.

The vocabulary stores per-feature category lists in sorted order, so the
encoded layout is independent of row order. A metadata block encodes to an
(n, features) array holding each row's active one-hot column per feature.
Values unseen at training time encode to -1, an all-zero block for their
feature, which lets new users or job names pass through without erroring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError
from .trace_model import MetadataBlock


@dataclass(frozen=True)
class EncoderVocabulary:
    feature_names: tuple[str, ...]
    categories: dict[str, tuple[str, ...]]

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

    def encode(self, block: MetadataBlock) -> np.ndarray:
        """One-hot column of each row's value of each feature, (n, features);
        -1 where the value is unseen, which leaves the feature's block
        all-zero. Features meet block columns by name; a missing one is an
        error."""
        out = np.empty((len(block.codes), len(self.feature_names)), dtype=np.int64)
        for j, f in enumerate(self.feature_names):
            if f not in block.names:
                raise SchemaError(f"metadata record is missing feature {f!r}")
            k = block.names.index(f)
            columns = self.column_of[f]
            lookup = np.array([columns.get(v, -1) for v in block.tables[k]], dtype=np.int64)
            out[:, j] = lookup[block.codes[:, k]]
        return out

    def column_name(self, index: int) -> str:
        at = 0
        for f in self.feature_names:
            size = len(self.categories[f])
            if index < at + size:
                return f"{f}={self.categories[f][index - at]}"
            at += size
        raise IndexError(index)


def build_vocabulary(block: MetadataBlock) -> EncoderVocabulary:
    """One category list per column: the sorted values its rows hold."""
    categories = {f: tuple(block.counts(j)) for j, f in enumerate(block.names)}
    return EncoderVocabulary(feature_names=block.names, categories=categories)

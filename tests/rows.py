"""Row views of columnar datasets, for building and checking them in tests."""

from types import SimpleNamespace

from workload_profiler.encoding import build_vocabulary
from workload_profiler.trace_model import Dataset, MetadataBlock


def dataset_of(rows, runtime_names=None, metadata_names=None) -> Dataset:
    """A dataset from (id, metadata dict, runtime dict[, submitted_at]) rows;
    submission order defaults to row order."""
    rows = list(rows)
    runtime_names = runtime_names or list(rows[0][2])
    metadata_names = metadata_names or list(rows[0][1])
    return Dataset.from_columns(
        ids=[r[0] for r in rows],
        runtime={f: [r[2][f] for r in rows] for f in runtime_names},
        metadata={f: [r[1][f] for r in rows] for f in metadata_names},
        submitted_at=[r[3] if len(r) > 3 else i for i, r in enumerate(rows)],
    )


def rows_of(ds: Dataset) -> list[SimpleNamespace]:
    """Each row as (id, metadata, runtime, submitted_at)."""
    metadata = [ds.metadata.values(j) for j in range(len(ds.schema_metadata))]
    runtime = ds.runtime.tolist()
    return [
        SimpleNamespace(
            id=wid,
            metadata=dict(zip(ds.schema_metadata, (column[i] for column in metadata))),
            runtime=dict(zip(ds.schema_runtime, runtime[i])),
            submitted_at=t,
        )
        for i, (wid, t) in enumerate(zip(ds.ids.tolist(), ds.submitted_at.tolist()))
    ]


def reordered(ds: Dataset) -> Dataset:
    """The same rows with the runtime and metadata columns in reverse order."""
    runtime = list(enumerate(ds.schema_runtime))[::-1]
    metadata = list(enumerate(ds.schema_metadata))[::-1]
    return Dataset.from_columns(
        ids=ds.ids.tolist(),
        runtime={f: ds.runtime[:, j] for j, f in runtime},
        metadata={f: ds.metadata.values(j) for j, f in metadata},
        submitted_at=ds.submitted_at,
    )


def block_of(names, records) -> MetadataBlock:
    """The metadata block of record dicts, columns in ``names`` order."""
    return MetadataBlock.from_rows(names, [[r[f] for f in names] for r in records])


def encoded(names, records):
    """(vocabulary, encoded rows) of record dicts, the vocabulary built on them."""
    block = block_of(names, records)
    vocab = build_vocabulary(block)
    return vocab, vocab.encode(block)

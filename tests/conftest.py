import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rows import dataset_of
from workload_profiler.trace_model import Dataset


@pytest.fixture
def tiny_dataset() -> Dataset:
    rows = [
        ("j1", "alice", "train", 10.0, 100.0),
        ("j2", "alice", "train", 12.0, 110.0),
        ("j3", "bob", "infer", 50.0, 20.0),
        ("j4", "bob", "infer", 55.0, 25.0),
        ("j5", "carol", "train", 11.0, 105.0),
    ]
    return dataset_of(
        (r[0], {"user": r[1], "task": r[2]}, {"cpu": r[3], "mem": r[4]}) for r in rows
    )

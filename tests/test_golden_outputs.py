"""Byte identity of the CLI's outputs against committed digests.

A subset of ``scripts/compare_outputs.py``'s runs at seed 1, checked against
``tests/golden/outputs-s1.json``: every artifact kind, classify's escape
and stdin paths, the feedback outputs with adopted updates and all three
distances. ``compare_outputs.py --base <parent> --head .`` on seeds 1-3
stays the full check.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "outputs-s1.json"
RUNS = ("classify-edge", "drift-long", "ingest-edge", "cluster-edge", "dbscan-blobs",
        "sample-hopkins")
KINDS = {"profiles.json", "model.json", "gridsearch.csv", "build-report.json",
         "rmse-report.json", "rmse-ecdf.csv", "rmse-boxplot.csv", "feedback-report.json",
         "violations.csv", "profiles-post.json", "model-post.json", "sample.csv",
         "hopkins.json", "classify-edge-profiles.jsonl", "classify-edge-stdin.jsonl"}


def compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_equal_the_committed_seed_1_digests(tmp_path):
    co = compare_outputs()
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    co.run(ROOT / "src", co.GENERATE, [inputs, 1])
    co.produce(ROOT / "src", inputs, out, RUNS)
    found = co.digests(out)
    assert KINDS <= {name.rsplit("/", 1)[-1] for name in found}
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))["sha256"]
    differing = sorted(name for name, digest in found.items() if want.get(name) != digest)
    assert not differing, (
        f"{len(differing)} outputs differ from {MANIFEST.name}: {differing}. The digests pin "
        "Python 3.11.7 and numpy 2.4.6 as well as the code; on other builds compare against "
        "the parent with scripts/compare_outputs.py --base <parent> --head . A declared "
        f"re-baseline regenerates the manifest: delete {MANIFEST.relative_to(ROOT)} and run "
        f"python scripts/compare_outputs.py --head . --digests {MANIFEST.relative_to(ROOT)}")

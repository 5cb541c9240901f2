"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload's code path, untraced and traced, on a 60-snapshot
21x11 dataset with 3-mode models (3 is the fewest modes the noise power-law
fit behind the MAP and prior methods accepts), and checks that each metric
named in BENCHMARK.json comes out with its unit and a finite value. The file
is not named test_*.py, so the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY_GENERATE = ["--n", "60", "--grid", "21x11"]
TINY = {
    "map-ref": {
        "generate": TINY_GENERATE,
        "setup_train": None,
        "train": ["--method", "map", "--L", "3"],
        "sweep": ["--sizes", "20", "--method", "prior"],
    },
    "serve": {
        "generate": TINY_GENERATE,
        "setup_train": ["--method", "prior", "--L", "3"],
        "train": None,
        "sweep": ["--sizes", "20", "--method", "map"],
    },
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of what the benchmark sees: BENCHMARK.json, src/ and perfbench/."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_workload_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == set(run.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted(checkout, workload, trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        expected = json.load(fh)["per_layer" if trace else "end_to_end"]
    result, record = run.run_workload(checkout, workload, seed=3, seconds=0.1,
                                      trace=trace, workloads=TINY)
    assert result["correct"], record["steps"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    json.dumps(result, allow_nan=False)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    with pytest.raises(run.HarnessError):
        run.run_workload(tmp_path, "serve", seed=0, seconds=0.1, trace=False,
                         workloads=TINY)

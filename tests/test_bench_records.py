"""The checked-in benchmark record: each `BENCH_<workload>.json` is well formed.

Every entry records one change measured against its parent, as sets of
alternating runs of `perfbench/run.py`. The files are only read.
"""

import json
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
ENTRY_KEYS = {"change", "parent_commit", "change_commit", "command", "run_seconds", "host",
              "order", "claim", "sets"}


def test_each_workload_has_a_record():
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == sorted(
        f"BENCH_{w}.json" for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_entries_pair_correct_parent_and_change_runs(workload):
    entries = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert isinstance(entries, list) and entries
    for i, entry in enumerate(entries):
        assert isinstance(entry, dict) and set(entry) == ENTRY_KEYS, f"entry {i}"
        assert entry["sets"], f"entry {i}"
        for j, s in enumerate(entry["sets"]):
            sides = defaultdict(list)  # seed -> the sides run at it
            for run in s["runs"]:
                sides[run["seed"]].append(run["side"])
                assert run["json"]["correct"] is True, f"entry {i} set {j} seed {run['seed']}"
            assert sides, f"entry {i} set {j}"
            for seed, got in sides.items():
                assert sorted(got) == ["change", "parent"], f"entry {i} set {j} seed {seed}"

"""The benchmark's traced mode runs against the current sources.

`perfbench/run.py --trace 1` wraps library functions it looks up by name and
reads `MotifIndex.windows`, `.per_node` and the tape's length, so a change to
those surfaces shows up here rather than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_metrics(workload: str) -> dict:
    """Per-layer metrics of one traced, untimed run of `workload`, which must be correct."""
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", "0", "--seconds", "0",
                          "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_traced_train_full_run_is_correct():
    metrics = traced_metrics("train_full")
    assert metrics["motif.build_index_calls"] > 0
    # the set-up functions the trace wraps by name are still found and called
    for name in ("parse_s", "cache_roundtrip_s", "adjacency_s", "incidence_s"):
        assert metrics[f"txgraph.{name}"] > 0, name


def test_traced_motif_scan_compares_per_node_between_builds():
    # several build_index calls, so `spans.Tracer.close_run` diffs `per_node` between them
    metrics = traced_metrics("motif_scan")
    assert metrics["motif.build_index_calls"] > 1
    assert metrics["motif.refresh_changed_share"] > 0

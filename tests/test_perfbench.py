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


def test_traced_train_full_run_is_correct():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", "train_full", "--seed", "0", "--seconds", "0",
                          "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["metrics"]["motif.build_index_calls"]["value"] > 0

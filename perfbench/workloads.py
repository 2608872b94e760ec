"""Workload definitions and the input generator for the tmgad benchmark.

Each workload is drawn from ``tmgad.train.synth_burst_graph`` and written to
three CSV files (edges, features, labels) in the layout the library's loaders
read. Generation is untimed and runs in its own process, so the measured
process sees only files and its peak memory excludes the generator.

Run as a script to write one workload's inputs:

    python3 perfbench/workloads.py --workload motif_scan --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    kind: str                 # "train" or "scan"
    nodes: int
    fraud_fraction: float
    burst_len: int
    graph_seed: int | None    # None: the graph is drawn from --seed
    relabel: bool             # permute node ids by --seed (isomorphic input)
    ablation: str | None = None
    split_seed: int | None = None   # None: --seed
    train_seed: int | None = None   # None: --seed
    min_auc: float | None = None    # test AUC a train task must reach


# Why these three (see perfbench/README.md for the measurements behind them):
#  - train_full is criterion 6 at seed 0 (graph 42, split 7, init 0). The
#    learned windows, and with them the motif work, swing from 7 to 29k
#    instances across graph seeds, so the graph, split and init are pinned;
#    --seed only shuffles the CSV row order, which the loader canonicalises.
#  - train_gcn_only bypasses the motif module; its cost follows the edge
#    count, which is steady across graph seeds, so --seed draws the graph.
#  - motif_scan is criterion 9's 2000-node graph (seed 1); --seed relabels
#    node ids and shuffles rows, so every seed does isomorphic work.
WORKLOADS = {
    "train_full": Workload(kind="train", nodes=300, fraud_fraction=0.1, burst_len=10,
                           graph_seed=42, relabel=False, ablation="full",
                           split_seed=7, train_seed=0,
                           min_auc=0.9),   # criterion 6 gates the 3-seed mean at 0.95
    "train_gcn_only": Workload(kind="train", nodes=10_000, fraud_fraction=0.1,
                               burst_len=10, graph_seed=None, relabel=False,
                               ablation="gcn_only"),
    "motif_scan": Workload(kind="scan", nodes=2000, fraud_fraction=0.05, burst_len=10,
                           graph_seed=1, relabel=True),
}

EDGES_CSV, FEATURES_CSV, LABELS_CSV = "edges.csv", "features.csv", "labels.csv"


def seed_for(pinned: int | None, seed: int) -> int:
    return seed if pinned is None else pinned


def write_inputs(name: str, seed: int, out: Path) -> None:
    """Write the workload's edges/features/labels CSVs for this seed."""
    import numpy as np
    from tmgad.train import synth_burst_graph

    w = WORKLOADS[name]
    g = synth_burst_graph(w.nodes, w.fraud_fraction, burst_len=w.burst_len,
                          seed=seed_for(w.graph_seed, seed))
    rng = np.random.default_rng(seed)
    ids = rng.permutation(g.n) if w.relabel else np.arange(g.n)  # old id -> new id
    src, dst = ids[g.src].tolist(), ids[g.dst].tolist()
    ts, amount = g.timestamp.tolist(), g.amount.tolist()
    with open(out / EDGES_CSV, "w", encoding="utf-8") as f:
        f.write("src,dst,timestamp,amount\n")
        for i in rng.permutation(g.num_edges).tolist():
            f.write(f"{src[i]},{dst[i]},{ts[i]},{amount[i]!r}\n")
    features = np.empty_like(g.features)
    features[ids] = g.features
    labels = np.empty_like(g.labels)
    labels[ids] = g.labels
    np.savetxt(out / FEATURES_CSV, features, delimiter=",", fmt="%.17g")
    with open(out / LABELS_CSV, "w", encoding="utf-8") as f:
        f.write("node_id,label\n")
        f.writelines(f"{v},{y}\n" for v, y in enumerate(labels.tolist()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

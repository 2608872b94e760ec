"""Temporal-motif graph anomaly detection on timestamped transaction graphs."""

from .backbone import GCNConfig
from .motif import build_catalog, build_index
from .train import MetricsReport, TrainConfig, auc, auprc, synth_burst_graph
from .txgraph import TransactionGraph, load_edge_list, make_splits

__version__ = "0.1.0"

__all__ = [
    "GCNConfig", "MetricsReport", "TrainConfig", "TransactionGraph",
    "auc", "auprc", "build_catalog", "build_index", "load_edge_list",
    "make_splits", "synth_burst_graph",
]

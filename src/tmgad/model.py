"""Model head: adaptive windows, dual motif attention, classifier.

The head runs once per forward over all requested nodes, on top of the
backbone embeddings. The motif instances of those nodes are laid out as
columnar arrays (`HeadLayout`, built once per index and node list), so every
stage is a single segment op. Each motif instance is augmented with a learned
per-type supernode row and pooled by softmax attention over its four members;
instances of a type are averaged under recency weights
sigmoid(delta_v - (t_max^u - t_v)), which is the only path by which the
window learner receives gradient; the types present at a node are then
combined by sparsemax attention. Nodes without motif instances contribute a
zero motif embedding, so absence itself is visible to the classifier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import diffcore as dc
from .backbone import GCNConfig, gcn_forward, glorot, init_gcn_weights
from .motif import MotifIndex

WEIGHT_FLOOR = 1e-300  # keeps the recency-weight denominator positive when
                       # every sigmoid underflows; gradients are unaffected

ABLATIONS = ("gcn_only", "tm_fixed", "tm_ada", "tm_ada_intra", "tm_ada_inter", "full")


@dataclass
class HeadOptions:
    use_motifs: bool = True
    adaptive: bool = True
    use_intra: bool = True
    use_inter: bool = True
    delta_fixed: float | None = None

    @staticmethod
    def from_ablation(name: str, delta_fixed: float | None = None) -> "HeadOptions":
        if name not in ABLATIONS:
            raise ValueError(f"unknown ablation {name!r}; expected one of {ABLATIONS}")
        if name == "gcn_only":
            return HeadOptions(use_motifs=False, adaptive=False,
                               use_intra=False, use_inter=False)
        if name == "tm_fixed":
            if delta_fixed is None:
                raise ValueError("tm_fixed needs delta_fixed")
            return HeadOptions(adaptive=False, use_intra=False, use_inter=False,
                               delta_fixed=delta_fixed)
        if name == "tm_ada":
            return HeadOptions(use_intra=False, use_inter=False)
        if name == "tm_ada_intra":
            return HeadOptions(use_inter=False)
        if name == "tm_ada_inter":
            return HeadOptions(use_intra=False)
        return HeadOptions()


@dataclass
class ModelState:
    """Every learnable tensor, grouped by component."""

    gcn: list
    win_w1: dc.Tensor
    win_b1: dc.Tensor
    win_w2: dc.Tensor
    win_b2: dc.Tensor
    supernodes: dc.Tensor     # catalog_size x d
    w_intra: dc.Tensor        # d x 1
    w_inter: dc.Tensor        # catalog_size x d
    clf_w1: dc.Tensor
    clf_b1: dc.Tensor
    clf_w2: dc.Tensor
    clf_b2: dc.Tensor

    def parameters(self) -> list:
        return list(self.gcn) + [
            self.win_w1, self.win_b1, self.win_w2, self.win_b2,
            self.supernodes, self.w_intra, self.w_inter,
            self.clf_w1, self.clf_b1, self.clf_w2, self.clf_b2,
        ]

    def named(self) -> dict:
        out = {f"gcn.{i}": w for i, w in enumerate(self.gcn)}
        out.update({
            "win.w1": self.win_w1, "win.b1": self.win_b1,
            "win.w2": self.win_w2, "win.b2": self.win_b2,
            "supernodes": self.supernodes,
            "w_intra": self.w_intra, "w_inter": self.w_inter,
            "clf.w1": self.clf_w1, "clf.b1": self.clf_b1,
            "clf.w2": self.clf_w2, "clf.b2": self.clf_b2,
        })
        return out

    @property
    def embed_dim(self) -> int:
        return self.gcn[-1].shape[1]


WINDOW_BIAS_INIT = -2.0  # start windows near 0.12 * tau: short windows are the
                         # motif-relevant regime and gradients can widen them
WINDOW_HIDDEN = 8        # hidden width of the window learner
CLF_HIDDEN = 16          # hidden width of the classifier


def init_model(rng: np.random.Generator, in_dim: int, gcn_cfg: GCNConfig,
               catalog_size: int) -> ModelState:
    d = gcn_cfg.out_dim
    return ModelState(
        gcn=init_gcn_weights(rng, in_dim, gcn_cfg),
        win_w1=dc.parameter(glorot(rng, d, WINDOW_HIDDEN)),
        win_b1=dc.parameter(np.zeros((1, WINDOW_HIDDEN))),
        win_w2=dc.parameter(glorot(rng, WINDOW_HIDDEN, 1)),
        win_b2=dc.parameter(np.full((1, 1), WINDOW_BIAS_INIT)),
        supernodes=dc.parameter(rng.normal(0.0, 0.1, size=(catalog_size, d))),
        w_intra=dc.parameter(glorot(rng, d, 1)),
        w_inter=dc.parameter(rng.normal(0.0, 0.1, size=(catalog_size, d))),
        clf_w1=dc.parameter(glorot(rng, 2 * d, CLF_HIDDEN)),
        clf_b1=dc.parameter(np.zeros((1, CLF_HIDDEN))),
        clf_w2=dc.parameter(glorot(rng, CLF_HIDDEN, 1)),
        clf_b2=dc.parameter(np.zeros((1, 1))),
    )


# ---------------------------------------------------------------------------
# component operations


def window_logits(h: dc.Tensor, state: ModelState) -> dc.Tensor:
    hidden = dc.tanh(dc.add_bias(dc.matmul(h, state.win_w1), state.win_b1))
    return dc.add_bias(dc.matmul(hidden, state.win_w2), state.win_b2)


def adaptive_windows(h: dc.Tensor, state: ModelState, tau_max: float) -> dc.Tensor:
    """Per-row window length tau_max * sigmoid(f(h)), clamped into (0, tau_max).

    The sigmoid rounds to exactly 0 or 1 once its logit saturates; the clamp
    to the nearest floats inside the open interval keeps the bound.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    return dc.clip(dc.scale(dc.sigmoid(window_logits(h, state)), tau_max),
                   np.nextafter(0.0, 1.0), np.nextafter(tau_max, 0.0))


def instance_weight(delta_v: float, tau_instance_max: float, t_v: float) -> float:
    """Recency weight sigmoid(delta_v - (tau_instance_max - t_v))."""
    return float(expit(delta_v - (tau_instance_max - t_v)))


def classifier_logits(z: dc.Tensor, state: ModelState) -> dc.Tensor:
    hidden = dc.relu(dc.add_bias(dc.matmul(z, state.clf_w1), state.clf_b1))
    return dc.add_bias(dc.matmul(hidden, state.clf_w2), state.clf_b2)


# ---------------------------------------------------------------------------
# batched head


@dataclass(frozen=True)
class HeadLayout:
    """Columnar motif instances of a node list: everything the head reads from the index.

    Instances run node-major in request order, then by type id, then in index
    order, so each (node, type) pair and each node is a contiguous segment.
    """

    members: np.ndarray      # m x 4 rows of [h; supernodes]: supernode, then the 3 nodes
    gaps: np.ndarray         # m x 1, t_max minus the owner's window start
    owner: np.ndarray        # m, owning node id
    type_sizes: np.ndarray   # instances per (node, type) segment
    type_ids: np.ndarray     # type id per (node, type) segment
    node_sizes: np.ndarray   # (node, type) segments per node that has instances
    slot: np.ndarray         # per requested node: its segment among those nodes, or -1


def head_layout(index: MotifIndex, nodes, n_nodes: int) -> HeadLayout:
    """Layout of `nodes` over `index`, built once and kept on the index."""
    nodes = np.asarray(nodes, dtype=np.intp)
    key = ("head_layout", n_nodes, nodes.tobytes())
    layout = index.derived.get(key)
    if layout is None:
        layout = _build_layout(index, nodes, n_nodes)
        index.derived[key] = layout
    return layout


def _build_layout(index: MotifIndex, nodes: np.ndarray, n_nodes: int) -> HeadLayout:
    rows, counts = index.rows_of(nodes)      # index rows are (owner, type, edges) sorted
    has = counts > 0
    request = np.repeat(np.arange(nodes.size), counts)
    tids = index.type_id[rows]
    first = np.ones(rows.size, dtype=bool)   # first row of each (request, type) segment
    first[1:] = (tids[1:] != tids[:-1]) | (request[1:] != request[:-1])
    bounds = np.flatnonzero(first)
    starts = index.node_starts[index.locate(nodes)]
    return HeadLayout(
        members=np.column_stack([n_nodes + tids, index.nodes[rows]]).astype(np.intp),
        gaps=(index.t_max[rows] - np.repeat(starts, counts)).astype(np.float64).reshape(-1, 1),
        owner=index.owner[rows].astype(np.intp),
        type_sizes=np.diff(np.append(bounds, rows.size)).astype(np.intp),
        type_ids=tids[bounds].astype(np.intp),
        node_sizes=np.bincount(request[bounds], minlength=nodes.size)[has].astype(np.intp),
        slot=np.where(has, np.cumsum(has) - 1, -1).astype(np.intp))


def motif_embeddings(h: dc.Tensor, deltas, state: ModelState, layout: HeadLayout,
                     opts: HeadOptions) -> dc.Tensor:
    """Motif half of the node embeddings, one row per requested node.

    Intra attention pools each instance's four members with a softmax,
    recency weights sigmoid(delta_v - gap) average the instances of a type,
    and inter attention takes a sparsemax over the types present at a node;
    every step is one segment op over all requested nodes at once.
    """
    d = h.shape[1]
    if layout.node_sizes.size == 0:
        return dc.tensor(np.zeros((layout.slot.size, d)))
    if opts.use_intra:
        members = dc.select_rows(dc.concat_rows([h, state.supernodes]),
                                 layout.members.reshape(-1))                # 4m x d
        alpha = dc.softmax_blocks(dc.tanh(dc.matmul(members, state.w_intra)), 4)
        inst_embs = dc.sum_blocks(dc.mul_col(members, alpha), 4)            # m x d
    else:
        members = dc.select_rows(h, layout.members[:, 1:].reshape(-1))      # 3m x d
        inst_embs = dc.scale(dc.sum_blocks(members, 3), 1.0 / 3.0)
    if opts.adaptive:
        stretched = dc.select_rows(deltas, layout.owner)                    # m x 1
        weights = dc.clip(dc.sigmoid(dc.add_const(stretched, -layout.gaps)),
                          WEIGHT_FLOOR, math.inf)
    else:
        weights = dc.tensor(np.maximum(expit(opts.delta_fixed - layout.gaps), WEIGHT_FLOOR))
    type_embs = dc.div_col(
        dc.segment_sum_rows(dc.mul_col(inst_embs, weights), layout.type_sizes),
        dc.segment_sum_rows(weights, layout.type_sizes))                     # k x d
    if opts.use_inter:
        w_sel = dc.select_rows(state.w_inter, layout.type_ids)
        beta = dc.segment_sparsemax(dc.tanh(dc.rowwise_dot(type_embs, w_sel)),
                                    layout.node_sizes)
        node_embs = dc.segment_sum_rows(dc.mul_col(type_embs, beta), layout.node_sizes)
    else:
        counts = dc.tensor(layout.node_sizes.astype(np.float64).reshape(-1, 1))
        node_embs = dc.div_col(dc.segment_sum_rows(type_embs, layout.node_sizes), counts)
    # nodes without instances read the appended zero row: absence is a signal
    padded = dc.concat_rows([node_embs, dc.tensor(np.zeros((1, d)))])
    return dc.select_rows(padded, np.where(layout.slot < 0, layout.node_sizes.size,
                                           layout.slot))


def forward_nodes(x, a_hat, state: ModelState, index: MotifIndex | None,
                  nodes, opts: HeadOptions, tau_max: float, *,
                  training: bool = False, dropout: float = 0.0,
                  rng: np.random.Generator | None = None):
    """Batched forward pass for the listed nodes.

    Returns (logits len(nodes) x 1, deltas n x 1 tensor or None, h).
    """
    if opts.use_motifs and index is None:
        raise ValueError("motif-using head options need a built MotifIndex")
    h = gcn_forward(x, a_hat, state.gcn, training=training, dropout=dropout, rng=rng)
    n = h.shape[0]
    deltas = adaptive_windows(h, state, tau_max) if opts.adaptive else None
    if opts.use_motifs:
        ztilde = motif_embeddings(h, deltas, state, head_layout(index, nodes, n), opts)
    else:
        ztilde = dc.tensor(np.zeros((len(nodes), state.embed_dim)))
    z = dc.concat_cols([dc.select_rows(h, list(nodes)), ztilde])
    logits = classifier_logits(z, state)
    return logits, deltas, h


def delta_snapshot(x, a_hat, state: ModelState, tau_max: float) -> np.ndarray:
    """Per-node window lengths under current parameters (no tape kept)."""
    h = gcn_forward(x, a_hat, state.gcn, training=False)
    return adaptive_windows(h, state, tau_max).data[:, 0].copy()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, state: ModelState, meta: dict) -> None:
    dc.save_tensors(path, state.named())
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")


def load_checkpoint(path, state: ModelState) -> dict:
    dc.restore_tensors(state.named(), dc.load_tensors(path))
    with open(str(path) + ".json", "r", encoding="utf-8") as f:
        return json.load(f)

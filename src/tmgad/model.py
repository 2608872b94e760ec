"""Model head: adaptive windows, dual motif attention, classifier.

The head runs once per forward over all requested nodes, on top of the
backbone embeddings, as two weighted row gathers (`diffcore.gather_sum`) over
columnar motif instances (`HeadLayout`, built once per index and node list).
The first pools instance members, a learned per-type supernode and three
nodes, into type embeddings; each member row of [h; supernodes] weighs its
intra softmax attention times its instance's recency weight sigmoid(delta_v -
(t_max^u - t_v)), the only path by which the window learner receives gradient.
The second combines the types present at a node by sparsemax attention; nodes
without motif instances get a zero row, so absence is visible to the classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import diffcore as dc
from .backbone import GCNConfig, gcn_forward, glorot, init_gcn_weights
from .motif import MotifIndex
from .txgraph import load_arrays, save_arrays

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
        return list(self.named().values())

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
    return dc.clip(dc.mul_const(dc.sigmoid(window_logits(h, state)), tau_max),
                   np.nextafter(0.0, 1.0), np.nextafter(tau_max, 0.0))


def instance_weight(delta_v: float, tau_instance_max: float, t_v: float) -> float:
    """Recency weight sigmoid(delta_v - (tau_instance_max - t_v))."""
    return float(expit(delta_v - (tau_instance_max - t_v)))


def classifier_logits(z: dc.Tensor, state: ModelState) -> dc.Tensor:
    """Two-layer classifier over z, the backbone columns and then any motif columns.

    z meets the rows of clf_w1 it has columns for: all 2d with the motif half,
    the first d without it (gcn_only). Then the motif rows get an exactly-zero
    gradient, and Adam leaves them as initialised.
    """
    w1 = state.clf_w1
    if z.shape[1] < w1.shape[0]:
        w1 = dc.select_rows(w1, np.arange(z.shape[1]))
    hidden = dc.relu(dc.add_bias(dc.matmul(z, w1), state.clf_b1))
    return dc.add_bias(dc.matmul(hidden, state.clf_w2), state.clf_b2)


# ---------------------------------------------------------------------------
# batched head


@dataclass(frozen=True)
class HeadLayout:
    """Columnar motif instances of a node list: everything the head reads from the index.

    Instances run node-major in request order, then by type id, then in index
    order, so each (node, type) pair and each node is a contiguous segment.
    """

    members: np.ndarray      # m x 4 rows of [h; supernodes] the first gather reads:
                             # the supernode, then the 3 nodes
    gaps: np.ndarray         # m x 1, t_max minus the owner's window start
    owner: np.ndarray        # m, owning node id
    type_sizes: np.ndarray   # instances per (node, type) segment, the first gather's rows
    type_ids: np.ndarray     # type id per (node, type) segment
    type_counts: np.ndarray  # (node, type) segments per requested node, the second
                             # gather's rows; 0 for a node without instances


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
        type_counts=np.bincount(request[bounds], minlength=nodes.size).astype(np.intp))


def motif_embeddings(h: dc.Tensor, deltas, state: ModelState, layout: HeadLayout,
                     opts: HeadOptions) -> dc.Tensor:
    """Motif half of the node embeddings, one row per requested node.

    Members pool into type embeddings, normalised by each type's total recency
    weight; types pool into node rows under inter sparsemax (a mean without it).
    Without adaptive windows, every node's delta is the fixed window.
    """
    m = layout.owner.size
    if m == 0:
        return dc.tensor(np.zeros((layout.type_counts.size, h.shape[1])))
    if not opts.adaptive:
        deltas = dc.tensor(np.full((h.shape[0], 1), float(opts.delta_fixed)))
    stretched = dc.select_rows(deltas, layout.owner)                        # m x 1
    weights = dc.clip(dc.sigmoid(dc.add_const(stretched, -layout.gaps)), WEIGHT_FLOOR, math.inf)
    rows = dc.concat_rows([h, state.supernodes])
    members = layout.members if opts.use_intra else layout.members[:, 1:]
    width = members.shape[1]
    member_weights = dc.select_rows(weights, np.repeat(np.arange(m), width))
    if opts.use_intra:
        scores = dc.tanh(dc.matmul(rows, state.w_intra))                    # (n + K) x 1
        alpha = dc.softmax_blocks(dc.select_rows(scores, members.reshape(-1)), width)
        values = dc.mul_col(member_weights, alpha)
    else:
        values = dc.mul_const(member_weights, 1.0 / width)
    type_embs = dc.div_col(
        dc.gather_sum(rows, members.reshape(-1), values, width * layout.type_sizes),
        dc.segment_sum_rows(weights, layout.type_sizes))                    # k x d
    present = layout.type_counts[layout.type_counts > 0]
    if opts.use_inter:
        w_sel = dc.select_rows(state.w_inter, layout.type_ids)
        beta = dc.segment_sparsemax(dc.tanh(dc.rowwise_dot(type_embs, w_sel)), present)
    else:
        beta = 1.0 / np.repeat(present, present).astype(np.float64)
    return dc.gather_sum(type_embs, np.arange(layout.type_ids.size), beta, layout.type_counts)


def forward_nodes(x, a_hat, state: ModelState, index: MotifIndex | None,
                  nodes, opts: HeadOptions, tau_max: float, *,
                  training: bool = False, dropout: float = 0.0,
                  rng: np.random.Generator | None = None):
    """Batched forward pass for the listed nodes.

    The classifier reads the nodes' backbone rows, joined by their motif rows
    when the head uses motifs. Returns (logits len(nodes) x 1, deltas n x 1
    tensor or None, h).
    """
    if opts.use_motifs and index is None:
        raise ValueError("motif-using head options need a built MotifIndex")
    h = gcn_forward(x, a_hat, state.gcn, training=training, dropout=dropout, rng=rng)
    n = h.shape[0]
    deltas = adaptive_windows(h, state, tau_max) if opts.adaptive else None
    z = dc.select_rows(h, nodes)
    if opts.use_motifs:
        z = dc.concat_cols(
            [z, motif_embeddings(h, deltas, state, head_layout(index, nodes, n), opts)])
    logits = classifier_logits(z, state)
    return logits, deltas, h


def delta_snapshot(x, a_hat, state: ModelState, tau_max: float) -> np.ndarray:
    """Per-node window lengths under current parameters (no tape kept)."""
    h = gcn_forward(x, a_hat, state.gcn, training=False)
    return adaptive_windows(h, state, tau_max).data[:, 0].copy()


# ---------------------------------------------------------------------------
# checkpoints


_TENSORS = "tensors/"  # member name prefix of the model's tensors


def save_checkpoint(path, state: ModelState, arrays: dict, meta: dict) -> None:
    """The model's tensors, `arrays` and the JSON object `meta`, in one file."""
    named = {_TENSORS + k: t.data for k, t in state.named().items()}
    save_arrays(path, {**named, **arrays}, meta)


def load_checkpoint(path) -> tuple[dict, dict, dict]:
    """(tensors by name, other arrays, meta); `diffcore.restore_tensors` checks the tensors."""
    arrays, meta = load_arrays(path, "checkpoint")
    tensors = {k[len(_TENSORS):]: arrays.pop(k) for k in list(arrays) if k.startswith(_TENSORS)}
    return tensors, arrays, meta

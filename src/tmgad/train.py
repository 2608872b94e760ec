"""Training loop, loss and ranking metrics, synthetic fixture generator."""

from __future__ import annotations

import ctypes
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from . import diffcore as dc
from .backbone import GCNConfig
from .model import HeadOptions, ModelState, delta_snapshot, forward_nodes, init_model
from .motif import build_catalog, build_index
from .txgraph import (SplitSpec, TransactionGraph, build_graph, make_splits,
                      normalized_adjacency, set_features_labels)


class TrainError(Exception):
    pass


class MetricsError(Exception):
    pass


# ---------------------------------------------------------------------------
# metrics


def bce_loss(logits, labels) -> float:
    """Mean cross-entropy of logits: the training loss `diffcore.bce_with_logits`, unweighted."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1, 1)
    if z.size == 0:
        raise MetricsError("bce_loss: no logits")
    return dc.bce_with_logits(dc.tensor(z), labels).item()


def _check_two_classes(labels) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels)
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricsError("both classes must be present")
    return pos, neg


def _run_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Index of the last entry of each run of equal values in a sorted array."""
    return np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]),
                     sorted_scores.size - 1)


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with half credit for score ties."""
    pos, neg = _check_two_classes(labels)
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(s, kind="mergesort")
    ends = _run_ends(s[order])
    starts = np.append(0, ends[:-1] + 1)
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)  # average, 1-based
    p, n = len(pos), len(neg)
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * n))


def auprc(scores, labels) -> float:
    """Precision-recall step integration over descending unique thresholds."""
    pos, _ = _check_two_classes(labels)
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    order = np.argsort(-s, kind="mergesort")
    ends = _run_ends(s[order])   # one threshold per run of tied scores
    tp = np.cumsum(y[order])[ends]
    recall = tp / float(len(pos))
    precision = tp / (ends + 1.0)
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def accuracy(scores, labels) -> float:
    y = np.asarray(labels)
    pred = (np.asarray(scores) >= 0.5).astype(y.dtype)
    return float((pred == y).mean())


# ---------------------------------------------------------------------------
# optimizer


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params, lr: float = 1e-3):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        dc.zero_grads(self.params)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_B1 ** self.t
        b2t = 1.0 - ADAM_B2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= ADAM_B1
            m += (1.0 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1.0 - ADAM_B2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


# ---------------------------------------------------------------------------
# synthetic burst-fraud fixture


FEATURE_NOISE = 1.5     # std of the Gaussian noise on the degree/volume features
CHAIN_RANGE = (2, 5)    # triads per normal node, drawn from [low, high); fraud: (low, high]
BACKGROUND_RATE = 2.0   # mean background edges per normal node


def synth_burst_graph(n_nodes: int, fraud_fraction: float, burst_len: int,
                      seed: int, horizon: int = 200) -> TransactionGraph:
    """Planted-signal transaction graph for desk-scale validation.

    Both classes take part in payer-mule-beneficiary triads of identical
    shape, drawn from the same degree and amount distributions; what differs
    is timing. A normal node's triads are spread over a large fraction of the
    horizon while a fraud node's whole early life is a burst of triads (plus
    some inbound funding) compressed into `burst_len`, followed by a quiet
    tail. Features are noisy degree/volume summaries, so the discriminative
    signal lives in topology plus timing, not in the feature table.
    """
    if n_nodes < 20:
        raise ValueError("need at least 20 nodes")
    if not (0.0 < fraud_fraction <= 0.5):
        raise ValueError("fraud_fraction must be in (0, 0.5]")
    if burst_len <= 0 or horizon <= 4 * burst_len:
        raise ValueError("burst_len must be positive and well below the horizon")
    rng = np.random.default_rng(seed)
    n_fraud = int(round(n_nodes * fraud_fraction))
    fraud_ids = rng.choice(n_nodes, size=n_fraud, replace=False)
    is_fraud = np.zeros(n_nodes, dtype=bool)
    is_fraud[fraud_ids] = True
    normal_ids = np.nonzero(~is_fraud)[0]

    src, dst, ts, amt = [], [], [], []

    def emit(u, v, t, a):
        if u != v:
            src.append(int(u))
            dst.append(int(v))
            ts.append(int(t))
            amt.append(float(a))

    def amount():
        return rng.lognormal(0.0, 1.0)

    def pick_normal(exclude, count):
        out = []
        while len(out) < count:
            c = int(rng.choice(normal_ids))
            if c not in exclude and c not in out:
                out.append(c)
        return out

    for v in normal_ids:
        # background traffic, uniform over the horizon
        for _ in range(rng.poisson(BACKGROUND_RATE)):
            (u,) = pick_normal({int(v)}, 1)
            emit(v, u, rng.integers(0, horizon + 1), amount())
        # spread-out triads: same shape as fraud chains, wide temporal span
        for _ in range(rng.integers(*CHAIN_RANGE)):
            m, b = pick_normal({int(v)}, 2)
            t1 = int(rng.integers(0, max(1, horizon // 3)))
            t2 = t1 + int(rng.integers(horizon // 4, horizon // 2))
            t3 = t2 + int(rng.integers(horizon // 5, horizon // 3))
            if t3 > horizon:
                continue
            emit(v, m, t1, amount())
            emit(m, b, t2, amount())
            emit(v, b, t3, amount())

    for v in fraud_ids:
        t0 = int(rng.integers(0, horizon - 3 * burst_len))
        for _ in range(rng.integers(CHAIN_RANGE[0] + 1, CHAIN_RANGE[1] + 1)):
            m, b = pick_normal({int(v)}, 2)
            offs = np.sort(rng.integers(0, burst_len + 1, size=3))
            emit(v, m, t0 + offs[0], amount())
            emit(m, b, t0 + offs[1], amount())
            emit(v, b, t0 + offs[2], amount())
        # inbound funding during the burst keeps in/out degree mixes alike
        # (normal nodes receive roughly this much from others' chains)
        for _ in range(rng.integers(8, 16)):
            (u,) = pick_normal({int(v)}, 1)
            emit(u, v, t0 + rng.integers(0, burst_len + 1), amount())
        # quiet tail after the burst
        for _ in range(rng.integers(1, 4)):
            (u,) = pick_normal({int(v)}, 1)
            t = rng.integers(t0 + burst_len + 1, horizon + 1)
            emit(v, u, t, amount())

    src = np.array(src)
    dst = np.array(dst)
    ts = np.array(ts)
    amt = np.array(amt)
    out_deg = np.bincount(src, minlength=n_nodes).astype(np.float64)
    in_deg = np.bincount(dst, minlength=n_nodes).astype(np.float64)
    out_vol = np.bincount(src, weights=amt, minlength=n_nodes)
    in_vol = np.bincount(dst, weights=amt, minlength=n_nodes)
    feats = np.stack([np.log1p(out_deg), np.log1p(in_deg),
                      np.log1p(out_vol), np.log1p(in_vol)], axis=1)
    feats += rng.normal(0.0, FEATURE_NOISE, size=feats.shape)
    labels = is_fraud.astype(np.int8)
    g = build_graph(n_nodes, src, dst, ts, amt)
    return set_features_labels(g, feats, labels)


# ---------------------------------------------------------------------------
# training


WINDOW_SLACK = 1.5  # motifs are extracted at this multiple of the learned windows


@dataclass
class TrainConfig:
    epochs: int = 150
    learning_rate: float = 1e-3
    refresh_interval: int | None = 5
    seed: int = 0
    ablation: str = "full"
    delta_fixed: float | None = None
    instance_cap: int | None = 512
    pos_weight: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be a positive finite number, "
                             f"got {self.learning_rate}")
        if self.delta_fixed is not None and not 0.0 < self.delta_fixed < np.inf:
            raise ValueError(f"delta_fixed must be a positive finite number, or None, "
                             f"got {self.delta_fixed}")
        if self.refresh_interval is not None and self.refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1, or None to extract once")
        if self.instance_cap is not None and self.instance_cap < 1:
            raise ValueError("instance_cap must be >= 1, or None for no cap")
        if self.pos_weight is not None and not 0.0 < self.pos_weight < np.inf:
            raise ValueError(f"pos_weight must be a positive finite number, or None for "
                             f"unweighted, got {self.pos_weight}")


@dataclass
class MetricsReport:
    auc: float
    auprc: float
    accuracy: float
    train_auc: float
    train_loss: float
    loss_curve: list = field(default_factory=list)
    delta_stats: list = field(default_factory=list)   # per epoch (min, mean, max)
    delta_final: np.ndarray | None = None
    extraction_windows: np.ndarray | None = None
    total_instances: int = 0
    config: dict = field(default_factory=dict)       # the TrainConfig and GCNConfig fields

    def to_dict(self) -> dict:
        return {
            "auc": self.auc, "auprc": self.auprc, "accuracy": self.accuracy,
            "train_auc": self.train_auc, "train_loss": self.train_loss,
            "epochs_run": len(self.loss_curve),
            "total_instances": self.total_instances,
            "delta_stats_final": self.delta_stats[-1] if self.delta_stats else None,
            "config": self.config,
        }


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3    # glibc mallopt parameters
_MMAP_THRESHOLD = 32 << 20                        # glibc's ceiling for its dynamic value


def _reuse_freed_memory() -> None:
    """Pin glibc's malloc thresholds so that memory freed after an epoch is reused.

    Each epoch allocates and frees its tape's arrays (about 15 MB on a
    10 000-node graph). Under glibc's dynamic thresholds, that memory goes
    back to the OS after every epoch and is faulted in again at the next one,
    unless an earlier large free happened to raise the thresholds: on that
    graph, about 2 400 page faults and a quarter of the epoch's time.
    Pinning them at the values the dynamic rule reaches at most keeps the
    heap between epochs. No-op where the C library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _extraction_windows(g, state, a_hat, opts: HeadOptions) -> np.ndarray:
    """Per-node windows to extract motifs at: the slack-widened learned windows,
    capped at tau, or the fixed window for every node."""
    tau = float(g.tau_max)
    if opts.adaptive:
        deltas = delta_snapshot(g.features, a_hat, state, tau)
        return np.minimum(tau, WINDOW_SLACK * deltas)
    fixed = min(float(opts.delta_fixed), tau)
    return np.full(g.n, fixed)


def train(g: TransactionGraph, cfg: TrainConfig, gcn_cfg: GCNConfig | None = None,
          split: SplitSpec | None = None):
    """Full-batch training on one split; returns (ModelState, MetricsReport).

    Motifs are enumerated once, with the instance cap, at the largest window
    the run can request, and restricted to the current windows by mask, which
    gives the capped index at those windows: once for fixed windows, and
    every `refresh_interval` epochs (None = once) for learned ones. Between
    refreshes the window learner moves the model only through the recency
    weights. Deterministic for a fixed config seed.
    """
    if g.features is None or g.labels is None:
        raise TrainError("graph needs features and labels before training")
    if g.tau_max is None or g.tau_max <= 0:
        raise TrainError("graph has no positive time horizon")
    _reuse_freed_memory()
    gcn_cfg = gcn_cfg or GCNConfig()
    if split is None:
        split = make_splits(g, 1, 0.8, cfg.seed)[0]
    opts = HeadOptions.from_ablation(cfg.ablation, cfg.delta_fixed)
    rng = np.random.default_rng(cfg.seed)
    catalog = build_catalog()
    state = init_model(rng, g.num_features, gcn_cfg, catalog.size)
    a_hat = normalized_adjacency(g)
    x = g.features
    tau = float(g.tau_max)
    labeled = g.labeled_nodes()
    train_ids = split.train_ids
    test_ids = split.test_ids
    y = g.labels.astype(np.float64)
    optim = Adam(state.parameters(), lr=cfg.learning_rate)

    enumerated = index = None
    windows = None
    loss_curve: list[float] = []
    delta_stats: list[tuple] = []
    for epoch in range(cfg.epochs):
        if opts.use_motifs and (index is None or (opts.adaptive and (
                cfg.refresh_interval is not None and epoch % cfg.refresh_interval == 0))):
            windows = _extraction_windows(g, state, a_hat, opts)
            if enumerated is None:  # fixed windows never change; learned ones stay <= tau
                enumerated = build_index(g, np.full(g.n, tau) if opts.adaptive else windows,
                                         catalog, nodes=labeled, cap=cfg.instance_cap)
            index = enumerated.restrict(windows)
        optim.zero_grad()
        try:
            with dc.Tape() as tape:
                logits, deltas, _ = forward_nodes(
                    x, a_hat, state, index, train_ids, opts, tau,
                    training=True, dropout=gcn_cfg.dropout, rng=rng)
                loss = dc.bce_with_logits(logits, y[train_ids].reshape(-1, 1),
                                          pos_weight=cfg.pos_weight)
                tape.backward(loss)
        except dc.NumericGuardError as e:
            raise TrainError(f"training diverged at epoch {epoch}: {e}") from e
        optim.step()
        loss_curve.append(loss.item())
        if deltas is not None:
            dvals = deltas.data[:, 0]
            lo, hi = float(dvals.min()), float(dvals.max())
            if not (0.0 < lo and hi < tau):
                raise TrainError(
                    f"window bound violated at epoch {epoch}: [{lo}, {hi}] vs tau {tau}")
            delta_stats.append((lo, float(dvals.mean()), hi))

    logits, deltas, _ = forward_nodes(x, a_hat, state, index,
                                      np.concatenate([test_ids, train_ids]), opts, tau)
    test_logits, train_logits = np.split(logits.data[:, 0], [len(test_ids)])
    test_scores = expit(test_logits)
    report = MetricsReport(
        auc=auc(test_scores, y[test_ids]),
        auprc=auprc(test_scores, y[test_ids]),
        accuracy=accuracy(test_scores, y[test_ids]),
        train_auc=auc(expit(train_logits), y[train_ids]),
        train_loss=bce_loss(train_logits, y[train_ids]),
        loss_curve=loss_curve,
        delta_stats=delta_stats,
        delta_final=deltas.data[:, 0].copy() if deltas is not None else None,
        extraction_windows=windows,
        total_instances=index.total_instances() if index is not None else 0,
        config={**asdict(cfg), **asdict(gcn_cfg)},
    )
    return state, report

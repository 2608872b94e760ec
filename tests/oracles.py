"""Brute-force reference implementations and fixture helpers used only by the test suite."""

import json
import math
import zipfile
from itertools import combinations, permutations

import numpy as np
from scipy.special import expit

from tmgad import diffcore as dc
from tmgad.backbone import gcn_forward
from tmgad.diffcore import Tape, _accum, _make, zero_grads
from tmgad.model import WEIGHT_FLOOR, adaptive_windows, classifier_logits
from tmgad.motif import (FOCAL_ROOTED, MotifCatalog, MotifError, MotifIndex,
                         _first_appearance_relabel, build_catalog, spanning_sequences)
from tmgad.txgraph import NO_TIMESTAMP


def permute_sequence(seq, perm):
    return tuple((perm[s], perm[d]) for s, d in seq)


def orbit_count_unrooted() -> int:
    """Count node-relabeling orbits of the 192 spanning sequences directly."""
    reps = set()
    for seq in spanning_sequences():
        orbit = {permute_sequence(seq, p) for p in permutations(range(3))}
        reps.add(min(orbit))
    return len(reps)


def orbit_count_focal_rooted() -> int:
    """Orbits of (sequence, focal) pairs under simultaneous relabeling."""
    reps = set()
    for seq in spanning_sequences():
        for focal in range(3):
            orbit = {(permute_sequence(seq, p), p[focal]) for p in permutations(range(3))}
            reps.add(min(orbit))
    return len(reps)


def canonical_type(edge_triple, focal, mode: str, catalog: MotifCatalog | None = None) -> int:
    """Catalog index of a time-ordered directed triple on arbitrary node ids."""
    nodes = set()
    for s, d in edge_triple:
        nodes.add(s)
        nodes.add(d)
    if len(nodes) != 3:
        raise MotifError(f"edge triple must span exactly 3 nodes, got {len(nodes)}")
    if focal is not None and focal not in nodes:
        raise MotifError(f"focal node {focal} not in the triple")
    if catalog is None:
        catalog = build_catalog(mode)
    elif catalog.mode != mode:
        raise MotifError(f"catalog mode {catalog.mode!r} does not match {mode!r}")
    if mode == FOCAL_ROOTED:
        if focal is None:
            raise MotifError("focal_rooted typing requires a focal node")
        enc = _first_appearance_relabel(edge_triple, focal=focal)
    else:
        enc = _first_appearance_relabel(edge_triple)
    return catalog.index_of(enc)


def brute_force_instances(g, catalog, windows):
    """O(|E|^3) oracle: scan all edge triples once, assign to member focals.

    Returns {node: set((edge_triple, type_id))} restricted to nodes present in
    `windows`, a node -> delta mapping. Window bounds are checked per focal
    node, in Python ints: each window starts at the node's earliest timestamp
    w0 and ends at w0 + floor(delta).
    """
    nodes = set(int(v) for v in windows)
    out = {v: set() for v in nodes}
    src, dst, ts = g.src.tolist(), g.dst.tolist(), g.timestamp.tolist()
    for i, j, k in combinations(range(g.num_edges), 3):
        members = {src[i], dst[i], src[j], dst[j], src[k], dst[k]}
        if len(members) != 3:
            continue
        seq = ((src[i], dst[i]), (src[j], dst[j]), (src[k], dst[k]))
        times = (ts[i], ts[j], ts[k])
        for v in members:
            if v not in nodes:
                continue
            if g.t_earliest[v] == NO_TIMESTAMP:
                continue
            w0 = int(g.t_earliest[v])
            w1 = w0 + math.floor(windows[v])
            if all(w0 <= t <= w1 for t in times):
                tid = canonical_type(seq, v, catalog.mode, catalog)
                out[v].add(((i, j, k), tid))
    return out


def index_as_sets(index):
    return {v: {(m.edges, m.type_id) for lst in types.values() for m in lst}
            for v, types in index.per_node.items()}


def random_graph(rng, max_nodes=12, max_edges=40, max_ts=60):
    from tmgad.txgraph import build_graph

    n = int(rng.integers(4, max_nodes + 1))
    m = int(rng.integers(6, max_edges + 1))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return build_graph(n, src[keep], dst[keep],
                       rng.integers(0, max_ts, int(keep.sum())))


def pearson_two_pass(counts):
    """Textbook two-pass Pearson correlation matrix with 0 sentinel."""
    counts = np.asarray(counts, dtype=np.float64)
    n, k = counts.shape
    mean = counts.mean(axis=0)
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            da = counts[:, a] - mean[a]
            db = counts[:, b] - mean[b]
            va = (da * da).sum()
            vb = (db * db).sum()
            if a == b:
                out[a, b] = 1.0
            elif va > 0 and vb > 0:
                out[a, b] = (da * db).sum() / np.sqrt(va * vb)
    return out


# ---------------------------------------------------------------------------
# fixture helpers


def write_edge_csv(g, path) -> None:
    """Write g's edges as a src,dst,timestamp,amount CSV (no amount where it is NaN)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("src,dst,timestamp,amount\n")
        for i in range(g.num_edges):
            a = g.amount[i]
            row = f"{g.src[i]},{g.dst[i]},{g.timestamp[i]}"
            f.write(row + (f",{float(a)!r}\n" if not np.isnan(a) else "\n"))


def earliest_rows(index, cap):
    """Row mask of an uncapped index: per (owner, type), the `cap` earliest rows by
    (E3, E2, E1)."""
    groups = {}
    for r, key in enumerate(zip(index.owner.tolist(), index.type_id.tolist())):
        groups.setdefault(key, []).append(r)
    keep = np.zeros(index.owner.size, dtype=bool)
    for rows in groups.values():
        rows.sort(key=lambda r: index.edges[r].tolist()[::-1])
        keep[rows[:cap]] = True
    return keep


def index_from_instances(catalog_size, per_node, *, windows=None, starts=None):
    """Uncapped MotifIndex holding given instances: node -> {type_id -> [MotifInstance]}.

    The mapping keys give each instance's owner and type; instances are stored
    in (owner, type, edges) order. `starts` is an array indexed by node id,
    like `TransactionGraph.t_earliest`. Without windows or starts, nodes get
    NaN and NO_TIMESTAMP. The index records no horizon (tau_max 0), so
    `restrict` rejects every window.
    """
    node_ids = np.array(sorted(int(v) for v in per_node), dtype=np.int64)
    rows = sorted((v, tid, *m.edges, m.nodes[1], m.nodes[2], m.t_max)
                  for v in node_ids.tolist() for tid, lst in per_node[v].items() for m in lst)
    cols = np.array(rows, dtype=np.int64).reshape(-1, 8)
    owner = np.ascontiguousarray(cols[:, 0])
    return MotifIndex(
        catalog_size=catalog_size, tau_max=0, cap=None,
        node_ids=node_ids,
        node_windows=np.array([np.nan if windows is None else float(windows[v])
                               for v in node_ids.tolist()]),
        node_starts=(np.full(node_ids.size, NO_TIMESTAMP, dtype=np.int64) if starts is None
                     else np.asarray(starts, dtype=np.int64)[node_ids]),
        offsets=np.append(np.searchsorted(owner, node_ids), owner.size).astype(np.int64),
        owner=owner, type_id=np.ascontiguousarray(cols[:, 1]),
        nodes=np.column_stack([owner, cols[:, 5:7]]),
        edges=np.ascontiguousarray(cols[:, 2:5]), t_max=np.ascontiguousarray(cols[:, 7]))


def simplex_projection_bisect(z, iters=200):
    """Independent oracle: solve sum(max(z - tau, 0)) = 1 by bisection."""
    z = np.asarray(z, dtype=np.float64)
    lo, hi = z.min() - 1.0, z.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(z - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - 0.5 * (lo + hi), 0.0)


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_check(build_loss, params, *, step: float = 1e-5,
                            max_per_tensor: int | None = None, rng=None) -> float:
    """Compare analytic gradients of a scalar loss against central differences.

    `build_loss` must rebuild the loss from the current contents of `params`
    (a list of Tensors) on whatever tape is active, deterministically. Returns
    the max over sampled coordinates of |analytic - numeric| scaled by
    max(1, |analytic|, |numeric|).
    """
    params = list(params)
    zero_grads(params)
    with Tape() as t:
        loss = build_loss()
        t.backward(loss)
    analytic = [p.grad.copy() for p in params]

    def eval_loss() -> float:
        return build_loss().item()

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, ga in zip(params, analytic):
        coords = np.arange(p.data.size)
        if max_per_tensor is not None and coords.size > max_per_tensor:
            coords = rng.choice(coords, size=max_per_tensor, replace=False)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            hi = eval_loss()
            flat[c] = orig - step
            lo = eval_loss()
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = ga.reshape(-1)[c]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# tape primitives only tests and the single-node head below use


def mean_all(x):
    n = x.data.size
    data = np.array([[x.data.sum() / n]])

    def bwd(g):
        _accum(x, np.full_like(x.data, g[0, 0] / n))

    return _make("mean_all", data, (x,), bwd)



def transpose(x):
    def bwd(g):
        dc._accum(x, g.T.copy())

    return dc._make("transpose", x.data.T.copy(), (x,), bwd)


def softmax_vec(x):
    dc._check_col("softmax_vec", x)
    return dc.softmax_blocks(x, x.shape[0])


def weighted_sum(values, weights):
    """Normalized weighted average of rows: sum_i w_i v_i / sum_i w_i -> 1 x d."""
    dc._shape_check("weighted_sum", weights.shape == (values.shape[0], 1),
                    f"values {values.shape} vs weights {weights.shape}")
    s = weights.data.sum()
    if s == 0.0:
        raise dc.NumericGuardError("weighted_sum: weights sum to zero")
    out_data = (weights.data.T @ values.data) / s

    def bwd(g):
        dc._accum(values, (weights.data / s) @ g)
        dc._accum(weights, (values.data @ g.T - out_data @ g.T) / s)

    return dc._make("weighted_sum", out_data, (values, weights), bwd)


def mean_rows(x):
    """Column-wise mean over rows: m x d -> 1 x d."""
    m = x.shape[0]
    data = x.data.mean(axis=0, keepdims=True)

    def bwd(g):
        dc._accum(x, np.repeat(g / m, m, axis=0))

    return dc._make("mean_rows", data, (x,), bwd)


def sum_blocks(x, block: int):
    """Sum consecutive groups of `block` rows: (b*m) x d -> m x d."""
    n, d = x.shape
    dc._shape_check("sum_blocks", block > 0 and n % block == 0,
                    f"{n} rows not divisible by {block}")
    data = x.data.reshape(n // block, block, d).sum(axis=1)

    def bwd(g):
        dc._accum(x, np.repeat(g, block, axis=0))

    return dc._make("sum_blocks", data, (x,), bwd)


# ---------------------------------------------------------------------------
# single-node model head: the per-node reference for the batched head


def adaptive_window(h_v, state, tau_max: float) -> float:
    """Scalar window for one embedding row."""
    h = h_v if isinstance(h_v, dc.Tensor) else dc.tensor(np.asarray(h_v).reshape(1, -1))
    return adaptive_windows(h, state, tau_max).item()


def intra_instance_embedding(instance, h, supernodes, w_intra):
    """Attention pool over [supernode, focal, other, other] for one instance."""
    members = dc.concat_rows([
        dc.select_rows(supernodes, [instance.type_id]),
        dc.select_rows(h, list(instance.nodes)),
    ])
    scores = dc.tanh(dc.matmul(members, w_intra))
    alpha = softmax_vec(scores)
    return dc.matmul(transpose(alpha), members)


def type_embedding(instance_embs, weights):
    """Recency-weighted average of instance embeddings (normalized)."""
    return weighted_sum(instance_embs, dc.clip(weights, WEIGHT_FLOOR, math.inf))


def inter_embedding(type_embs, type_ids, w_inter):
    """Sparsemax attention over the types present at a node."""
    w_sel = dc.select_rows(w_inter, list(type_ids))
    scores = dc.tanh(dc.rowwise_dot(type_embs, w_sel))
    beta = dc.segment_sparsemax(scores, [scores.shape[0]])
    return dc.matmul(transpose(beta), type_embs)


def _recency_weights(m, gaps, delta_v, opts):
    if opts.adaptive:
        stretched = dc.matmul(dc.tensor(np.ones((m, 1))), delta_v)  # m x 1
        return dc.clip(dc.sigmoid(dc.add_const(stretched, -gaps)), WEIGHT_FLOOR, math.inf)
    return dc.tensor(np.maximum(expit(opts.delta_fixed - gaps), WEIGHT_FLOOR))


def motif_embedding_for_node(v, combined, n_nodes, index, state, opts, delta_v=None):
    """Motif half of one node's embedding, or None when v has no instances.

    `combined` stacks the backbone embeddings (rows 0..n-1) on top of the
    supernode table (rows n..n+catalog_size-1), as in the batched head.
    """
    by_type = index.instances_at(v)
    if not by_type:
        return None
    start = int(index.node_starts[index.locate([v])[0]])
    tids = sorted(by_type)
    sizes = [len(by_type[t]) for t in tids]
    insts = [inst for t in tids for inst in by_type[t]]
    if opts.use_intra:
        flat = []
        for inst in insts:
            flat.append(n_nodes + inst.type_id)
            flat.extend(inst.nodes)
        members = dc.select_rows(combined, flat)                   # 4m x d
        scores = dc.tanh(dc.matmul(members, state.w_intra))
        alpha = dc.softmax_blocks(scores, 4)
        inst_embs = sum_blocks(dc.mul_col(members, alpha), 4)   # m x d
    else:
        flat = [x for inst in insts for x in inst.nodes]
        inst_embs = dc.mul_const(sum_blocks(dc.select_rows(combined, flat), 3), 1.0 / 3.0)
    gaps = np.array([[float(inst.t_max - start)] for inst in insts])
    weights = _recency_weights(len(insts), gaps, delta_v, opts)
    type_embs = dc.div_col(dc.segment_sum_rows(dc.mul_col(inst_embs, weights), sizes),
                           dc.segment_sum_rows(weights, sizes))    # k x d
    if opts.use_inter:
        return inter_embedding(type_embs, tids, state.w_inter)
    return mean_rows(type_embs)


def node_forward(v, h, index, state, opts, tau_max: float):
    """Single-node head on precomputed embeddings: returns (z_v, y_hat).

    Nodes with no motif instances use a zero motif embedding.
    """
    n = h.shape[0]
    d = state.gcn[-1].shape[1]
    emb = None
    if opts.use_motifs:
        delta_v = None
        if opts.adaptive:
            delta_v = adaptive_windows(dc.select_rows(h, [v]), state, tau_max)
        combined = dc.concat_rows([h, state.supernodes])
        emb = motif_embedding_for_node(v, combined, n, index, state, opts, delta_v)
    ztilde = emb if emb is not None else dc.tensor(np.zeros((1, d)))
    z = dc.concat_cols([dc.select_rows(h, [v]), ztilde])
    y_hat = float(expit(classifier_logits(z, state).item()))
    return z, y_hat


def one_hot_rows(x, indices):
    """Rows x[indices] as the one-hot matrix of the indices times x."""
    ones = np.ones(len(indices), dtype=np.intp)
    return dc.gather_sum(x, indices, ones, ones)


def forward_nodes_zero_half(x, a_hat, state, index, nodes, opts, tau_max, *,
                            training=False, dropout=0.0, rng=None):
    """`model.forward_nodes` for gcn_only in its zero-half form.

    z is [h[nodes], 0]: the rows picked by a one-hot product, then an all-zero
    motif half, so all 2d rows of clf_w1 take part.
    """
    assert not opts.use_motifs
    h = gcn_forward(x, a_hat, state.gcn, training=training, dropout=dropout, rng=rng)
    z = dc.concat_cols([one_hot_rows(h, nodes),
                        dc.tensor(np.zeros((len(nodes), state.gcn[-1].shape[1])))])
    return classifier_logits(z, state), None, h


# ---------------------------------------------------------------------------
# loop forms of vectorized library code


def earliest_loop(n, src, dst, ts):
    """Per-node earliest timestamp, NO_TIMESTAMP for isolated nodes."""
    out = np.full(n, NO_TIMESTAMP, dtype=np.int64)
    for arr in (src, dst):
        for v, t in zip(arr, ts):
            if out[v] == NO_TIMESTAMP or t < out[v]:
                out[v] = t
    return out


def normalized_adjacency_from_pairs(g):
    """Symmetric-normalized (A+I), A built from the set of distinct edge pairs."""
    import scipy.sparse as sp

    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    rows, cols = [], []
    for u, v in pairs:
        rows.extend((u, v))
        cols.extend((v, u))
    a = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    a = (a > 0).astype(np.float64)  # collapse parallel edges
    a_tilde = a + sp.identity(g.n, format="coo")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    dmat = sp.diags(1.0 / np.sqrt(deg))
    return (dmat @ a_tilde @ dmat).tocsr()


def auc_tie_loop(scores, labels):
    """Mann-Whitney AUC from average ranks assigned run by run over tied scores."""
    y = np.asarray(labels)
    pos, neg = np.nonzero(y == 1)[0], np.nonzero(y == 0)[0]
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    p, n = len(pos), len(neg)
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * n))


def auprc_tie_loop(scores, labels):
    """Precision-recall step integral, one step per run of tied scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    order = np.argsort(-s, kind="mergesort")
    s_sorted, y_sorted = s[order], y[order]
    total_pos = float((y == 1).sum())
    area = 0.0
    tp = fp = 0.0
    prev_recall = 0.0
    i = 0
    while i < len(s_sorted):
        j = i
        while j + 1 < len(s_sorted) and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        tp += float(y_sorted[i:j + 1].sum())
        fp += float(j - i + 1 - y_sorted[i:j + 1].sum())
        recall = tp / total_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(area)


def write_zip(path, members, manifest=None) -> None:
    """A stored zip of `members` (name -> bytes), after a `manifest.json` member
    holding `manifest` (JSON text as is, other values JSON-encoded), if given;
    for forging `txgraph.save_arrays` files."""
    if manifest is not None:
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        members = {"manifest.json": text.encode("utf-8"), **members}
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


def zip_members(path) -> tuple[dict, dict]:
    """(manifest, other members as name -> bytes) of a `txgraph.save_arrays` file."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    return json.loads(members.pop("manifest.json")), members


def byte_flips(raw: bytes):
    """`raw` with each byte in turn XOR-ed with 0x01, 0x80 and 0xFF."""
    for i in range(len(raw)):
        for mask in (0x01, 0x80, 0xFF):
            b = bytearray(raw)
            b[i] ^= mask
            yield bytes(b)

"""Temporal 3-node/3-edge motif machinery.

A motif instance is an ascending triple of directed edges (under the total
edge order) spanning exactly three distinct nodes, one of which is the focal
node, with all timestamps inside the focal node's window. Types are
equivalence classes of the time-ordered directed-pair sequence under node
relabeling; the catalog is generated exhaustively, never hand-listed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .txgraph import NO_TIMESTAMP, TransactionGraph

UNROOTED = "unrooted"
FOCAL_ROOTED = "focal_rooted"

_DIRECTED_PAIRS = tuple((a, b) for a in range(3) for b in range(3) if a != b)


class MotifError(Exception):
    pass


class MotifInstance(NamedTuple):
    focal: int
    nodes: tuple          # 3 distinct node ids, focal first then ascending
    edges: tuple          # 3 edge indices, ascending in the edge total order
    type_id: int
    t_max: int            # latest edge timestamp in the instance


def spanning_sequences():
    """All 192 time-ordered triples of directed pairs on {0,1,2} that span 3 nodes."""
    out = []
    for seq in product(_DIRECTED_PAIRS, repeat=3):
        seen = set()
        for s, d in seq:
            seen.add(s)
            seen.add(d)
        if len(seen) == 3:
            out.append(seq)
    return out


def _first_appearance_relabel(seq, focal=None):
    mapping = {}
    for s, d in seq:
        if s not in mapping:
            mapping[s] = len(mapping)
        if d not in mapping:
            mapping[d] = len(mapping)
    pairs = tuple((mapping[s], mapping[d]) for s, d in seq)
    if focal is None:
        return pairs
    return pairs, mapping[focal]


def encoding_str(enc) -> str:
    if len(enc) == 2 and isinstance(enc[1], int):
        pairs, focal = enc
        return " ".join(f"{s}>{d}" for s, d in pairs) + f" f{focal}"
    return " ".join(f"{s}>{d}" for s, d in enc)


@dataclass
class MotifCatalog:
    mode: str
    types: tuple                      # ordered canonical encodings
    _lookup: dict = field(repr=False, default=None)
    _role_cache: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self._lookup is None:
            self._lookup = {enc: i for i, enc in enumerate(self.types)}

    @property
    def size(self) -> int:
        return len(self.types)

    def index_of(self, enc) -> int:
        try:
            return self._lookup[enc]
        except KeyError:
            raise MotifError(f"encoding not in catalog: {enc!r}") from None

    def type_of_roles(self, role_seq) -> int:
        """Type id for a triple expressed in member roles, focal role = 0.

        Memoized: there are at most 216 role patterns per catalog.
        """
        tid = self._role_cache.get(role_seq)
        if tid is None:
            if self.mode == FOCAL_ROOTED:
                enc = _first_appearance_relabel(role_seq, focal=0)
            else:
                enc = _first_appearance_relabel(role_seq)
            tid = self.index_of(enc)
            self._role_cache[role_seq] = tid
        return tid


def build_catalog(mode: str = FOCAL_ROOTED) -> MotifCatalog:
    """Exhaustively generate all canonical motif encodings for the mode."""
    if mode not in (UNROOTED, FOCAL_ROOTED):
        raise MotifError(f"unknown catalog mode {mode!r}")
    encodings = set()
    for seq in spanning_sequences():
        if mode == UNROOTED:
            encodings.add(_first_appearance_relabel(seq))
        else:
            for focal in range(3):
                encodings.add(_first_appearance_relabel(seq, focal=focal))
    return MotifCatalog(mode=mode, types=tuple(sorted(encodings)))


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


# ---------------------------------------------------------------------------
# enumeration


def enumerate_instances(g: TransactionGraph, v: int, delta: float,
                        catalog: MotifCatalog, window_start=None) -> list[MotifInstance]:
    """All typed motif instances at focal node v within [start, start + delta].

    The window anchors at v's earliest timestamp unless overridden. Candidate
    third nodes are grown from v's window neighborhood and its 1-hop frontier;
    edge triples are only ever materialized inside a 3-node candidate set.
    """
    if delta <= 0:
        raise MotifError(f"delta must be positive, got {delta}")
    if window_start is None:
        if g.t_earliest[v] == NO_TIMESTAMP:
            return []  # isolated node
        window_start = int(g.t_earliest[v])
    w0, w1 = window_start, window_start + delta
    v = int(v)

    src, dst, ts = g.edge_lists()

    def in_window(idx_ts):
        idx, t = idx_ts
        return idx[bisect_left(t, w0):bisect_right(t, w1)]

    ev = in_window(g.incident_with_ts(v))
    if not ev:
        return []
    nbrs_v = sorted({dst[i] if src[i] == v else src[i] for i in ev})

    cand = set()
    for ai, a in enumerate(nbrs_v):
        for b in nbrs_v[ai + 1:]:
            cand.add((a, b))
        for i in in_window(g.incident_with_ts(a)):
            b = dst[i] if src[i] == a else src[i]
            if b != v and b != a:
                cand.add((a, b) if a < b else (b, a))

    pair_cache: dict = {}

    def window_pair(x, y):
        key = (x, y) if x < y else (y, x)
        got = pair_cache.get(key)
        if got is None:
            got = in_window(g.pair_with_ts(x, y))
            pair_cache[key] = got
        return got

    out = []
    type_of_roles = catalog.type_of_roles
    for a, b in sorted(cand):
        idxs = sorted(window_pair(v, a) + window_pair(v, b) + window_pair(a, b))
        if len(idxs) < 3:
            continue
        role = {v: 0, a: 1, b: 2}
        ends = []
        for i in idxs:
            rs, rd = role[src[i]], role[dst[i]]
            ends.append((i, rs, rd, (1 << rs) | (1 << rd)))
        for (i, s1, d1, m1), (j, s2, d2, m2), (k, s3, d3, m3) in combinations(ends, 3):
            if (m1 | m2 | m3) != 0b111:
                continue  # does not span all three nodes
            out.append(MotifInstance(
                focal=v, nodes=(v, a, b), edges=(i, j, k),
                type_id=type_of_roles(((s1, d1), (s2, d2), (s3, d3))),
                t_max=ts[k]))
    out.sort(key=lambda m: m.edges)
    return out


@dataclass
class MotifIndex:
    catalog_mode: str
    catalog_size: int
    per_node: dict            # node -> {type_id -> [MotifInstance]}
    windows: dict             # node -> delta used at extraction
    window_starts: dict       # node -> window anchor
    cap: int | None
    # arrays that consumers derive from per_node, cached for the index's
    # lifetime (the model head keeps its layouts here); per_node is not
    # edited once a consumer has read it
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def total_instances(self) -> int:
        return sum(len(lst) for types in self.per_node.values() for lst in types.values())

    def instances_at(self, v: int) -> dict:
        return self.per_node.get(v, {})

    def count_vector(self, v: int) -> np.ndarray:
        out = np.zeros(self.catalog_size, dtype=np.int64)
        for tid, lst in self.per_node.get(v, {}).items():
            out[tid] = len(lst)
        return out


def _cap_most_recent(instances: list[MotifInstance], cap: int) -> list[MotifInstance]:
    if len(instances) <= cap:
        return instances
    kept = sorted(instances, key=lambda m: (m.t_max, m.edges))[-cap:]
    kept.sort(key=lambda m: m.edges)
    return kept


def _index_one(g, catalog, v, delta, start, cap):
    by_type: dict = {}
    for inst in enumerate_instances(g, v, delta, catalog, window_start=start):
        by_type.setdefault(inst.type_id, []).append(inst)
    if cap is not None:
        by_type = {t: _cap_most_recent(lst, cap) for t, lst in by_type.items()}
    return by_type


def build_index(g: TransactionGraph, windows, catalog: MotifCatalog,
                nodes=None, window_starts=None, cap: int | None = 512,
                jobs: int = 1) -> MotifIndex:
    """Per-node motif index under per-node windows.

    `windows` maps node -> delta (dict or array); every delta must lie in
    (0, tau_max]. Nodes default to the labeled set. Enumeration is independent
    per focal node; with jobs > 1 node chunks run in worker processes and are
    reassembled in node order, so results do not depend on the worker count.
    """
    if nodes is None:
        nodes = g.labeled_nodes()
    nodes = [int(v) for v in nodes]
    tau = g.tau_max if g.tau_max is not None else 0

    deltas = {}
    for v in nodes:
        d = float(windows[v])
        if not (0.0 < d <= tau):
            raise MotifError(f"window for node {v} out of bounds: {d} not in (0, {tau}]")
        deltas[v] = d
    starts = {}
    for v in nodes:
        if window_starts is not None:
            starts[v] = int(window_starts[v])
        elif g.t_earliest[v] != NO_TIMESTAMP:
            starts[v] = int(g.t_earliest[v])
        else:
            starts[v] = None  # isolated; enumeration yields nothing

    if jobs > 1 and len(nodes) > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunks = np.array_split(np.array(nodes), min(jobs, len(nodes)))
        args = [(g, catalog.mode, chunk.tolist(), deltas, starts, cap) for chunk in chunks]
        per_node = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_index_chunk, args):
                per_node.update(part)
    else:
        per_node = _index_chunk((g, catalog.mode, nodes, deltas, starts, cap))

    return MotifIndex(catalog_mode=catalog.mode, catalog_size=catalog.size,
                      per_node=per_node, windows=deltas, window_starts=starts, cap=cap)


def _index_chunk(args):
    g, mode, nodes, deltas, starts, cap = args
    catalog = build_catalog(mode)
    out = {}
    for v in nodes:
        if starts[v] is None:
            out[v] = {}
            continue
        out[v] = _index_one(g, catalog, v, deltas[v], starts[v], cap)
    return out


# ---------------------------------------------------------------------------
# analysis

FRAUD, NORMAL = 1, 0


def motif_histogram(indexes: dict, labels) -> dict:
    """Instance counts per (delta, type, class) over the indexed nodes.

    `indexes` maps delta -> MotifIndex built at that delta.
    """
    table: dict = {}
    for delta, index in indexes.items():
        for v, types in index.per_node.items():
            cls = int(labels[v])
            if cls not in (0, 1):
                continue
            for tid, lst in types.items():
                key = (delta, tid, cls)
                table[key] = table.get(key, 0) + len(lst)
    return table


def write_histogram_csv(table: dict, deltas, catalog_size: int, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("delta,type_id,label,count\n")
        for delta in deltas:
            for tid in range(catalog_size):
                for cls in (NORMAL, FRAUD):
                    f.write(f"{delta},{tid},{cls},{table.get((delta, tid, cls), 0)}\n")


def motif_cross_correlation(index: MotifIndex, node_subset) -> np.ndarray:
    """Pearson correlation of per-node motif-type count vectors.

    Zero-variance types get 0 off-diagonal; every diagonal entry is 1.
    """
    nodes = [int(v) for v in node_subset]
    if len(nodes) < 2:
        raise MotifError("cross-correlation needs at least 2 nodes")
    counts = np.stack([index.count_vector(v) for v in nodes]).astype(np.float64)
    centered = counts - counts.mean(axis=0)
    std = centered.std(axis=0)
    ok = std > 0.0
    corr = np.zeros((index.catalog_size, index.catalog_size))
    if ok.any():
        z = centered[:, ok] / std[ok]
        corr_ok = (z.T @ z) / len(nodes)
        corr[np.ix_(ok, ok)] = corr_ok
    np.fill_diagonal(corr, 1.0)
    return corr


def write_correlation_csv(corr: np.ndarray, path) -> None:
    size = corr.shape[0]
    with open(path, "w", encoding="utf-8") as f:
        f.write("type_id," + ",".join(str(j) for j in range(size)) + "\n")
        for i in range(size):
            f.write(str(i) + "," + ",".join(repr(float(x)) for x in corr[i]) + "\n")


def write_index_csv(index: MotifIndex, path) -> None:
    """One record per instance, deterministic order."""
    rows = []
    for v in sorted(index.per_node):
        for tid in sorted(index.per_node[v]):
            for m in index.per_node[v][tid]:
                rows.append((m.focal, m.type_id, *m.nodes, *m.edges, m.t_max))
    with open(path, "w", encoding="utf-8") as f:
        f.write("focal,type_id,node1,node2,node3,edge1,edge2,edge3,t_max\n")
        for r in rows:
            f.write(",".join(str(x) for x in r) + "\n")

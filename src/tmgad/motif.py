"""Temporal 3-node/3-edge motif machinery.

A motif instance is an ascending triple of directed edges (under the total
edge order) spanning exactly three distinct nodes, one of which is the focal
node, with all timestamps inside the focal node's window. Types are
equivalence classes of the time-ordered directed-pair sequence under node
relabeling; the catalog is generated exhaustively, never hand-listed.

Enumeration at focal node v visits only the third-node pairs {a, b} that can
hold an instance: an instance needs 3 window edges among the pairs v-a, v-b
and a-b. So a pair is a candidate when it has an a-b edge and the three pairs
hold at least 3 window edges together (b need not be a neighbour of v), or
when it has no a-b edge and a or b has at least 2 window edges to v.

The motif index stores the instances of many focal nodes as read-only
columns (owner, type, member nodes, edges, latest timestamp), sorted by
(owner, type, edges). Because a node's window always starts at the same
anchor, an index enumerated at windows delta' holds every instance at any
delta <= delta': `MotifIndex.restrict` recovers those, and the per-type cap,
with a mask instead of a new enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations, product
from types import MappingProxyType
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

# one enumerated instance as a row: the two non-focal nodes, the three edges,
# the type id and the latest timestamp
_A, _B, _E1, _E2, _E3, _TYPE, _TMAX = range(7)
_ROW = 7


def _enumerate_rows(g: TransactionGraph, v: int, delta: float, catalog: MotifCatalog,
                    window_start: int) -> np.ndarray:
    """Instances at v within [start, start + delta] as an m x _ROW array.

    Only window edges count: those of the pairs v-a, v-b and a-b with a
    timestamp in [start, start + delta]. `vedges[a]` holds the v-a edges and
    `abedges[a, b]` (a < b) the a-b edges of every neighbour a of v, found by
    scanning a's incident edges once. A pair {a, b} is a candidate when its
    three lists hold at least 3 edges; a pair with no a-b edge can only get
    there when a or b has at least 2 v-edges, so only those neighbour pairs
    are added. Each candidate's edges are then typed triple by triple; rows
    come per candidate, in ascending (a, b) order.
    """
    w0, w1 = window_start, window_start + delta
    src, dst, ts = g.edge_lists()

    def in_window(idx_ts):
        idx, t = idx_ts
        return idx[bisect_left(t, w0):bisect_right(t, w1)]

    vedges: dict = {}
    for i in in_window(g.incident_with_ts(v)):
        s = src[i]
        vedges.setdefault(dst[i] if s == v else s, []).append(i)
    if not vedges:
        return np.empty((0, _ROW), dtype=np.int64)

    abedges: dict = {}
    for a in vedges:
        for i in in_window(g.incident_with_ts(a)):
            s = src[i]
            b = dst[i] if s == a else s
            if b == v or (b < a and b in vedges):
                continue  # a v-edge, or an a-b edge already seen from b
            abedges.setdefault((a, b) if a < b else (b, a), []).append(i)

    no_edges: list = []
    cand = {(a, b) for (a, b), e in abedges.items()
            if len(vedges.get(a, no_edges)) + len(vedges.get(b, no_edges)) + len(e) >= 3}
    for a, ea in vedges.items():
        if len(ea) >= 2:  # two v-a edges and one v-b edge make 3 without an a-b edge
            cand.update((a, b) if a < b else (b, a) for b in vedges if b != a)

    flat = []
    type_of_roles = catalog.type_of_roles
    for a, b in sorted(cand):
        idxs = sorted(vedges.get(a, no_edges) + vedges.get(b, no_edges)
                      + abedges.get((a, b), no_edges))
        role = {v: 0, a: 1, b: 2}
        ends = []
        for i in idxs:
            rs, rd = role[src[i]], role[dst[i]]
            ends.append((i, rs, rd, (1 << rs) | (1 << rd)))
        for (i, s1, d1, m1), (j, s2, d2, m2), (k, s3, d3, m3) in combinations(ends, 3):
            if (m1 | m2 | m3) != 0b111:
                continue  # does not span all three nodes
            flat += (a, b, i, j, k, type_of_roles(((s1, d1), (s2, d2), (s3, d3))), ts[k])
    return np.array(flat, dtype=np.int64).reshape(-1, _ROW)


def enumerate_instances(g: TransactionGraph, v: int, delta: float,
                        catalog: MotifCatalog, window_start=None) -> list[MotifInstance]:
    """All typed motif instances at focal node v within [start, start + delta].

    The window anchors at v's earliest timestamp unless overridden. Instances
    come in ascending edge order.
    """
    if delta <= 0:
        raise MotifError(f"delta must be positive, got {delta}")
    if window_start is None:
        if g.t_earliest[v] == NO_TIMESTAMP:
            return []  # isolated node
        window_start = int(g.t_earliest[v])
    v = int(v)
    rows = _enumerate_rows(g, v, delta, catalog, window_start)
    rows = rows[np.lexsort((rows[:, _E3], rows[:, _E2], rows[:, _E1]))]
    return [MotifInstance(focal=v, nodes=(v, a, b), edges=(i, j, k), type_id=t, t_max=tm)
            for a, b, i, j, k, t, tm in rows.tolist()]


# ---------------------------------------------------------------------------
# index

NO_ANCHOR = np.iinfo(np.int64).min  # node_starts entry of a node without a window anchor

_COLUMNS = ("node_ids", "node_windows", "node_starts", "offsets",
            "owner", "type_id", "nodes", "edges", "t_max")


def _latest(seg: np.ndarray, order: np.ndarray, kept: np.ndarray, cap: int) -> np.ndarray:
    """Row mask holding, per segment, the `cap` latest of the segment's first `kept` rows.

    `seg` is a dense segment id per row, `order` sorts the rows by (segment,
    t_max, edges) and `kept` counts, per segment, the rows that survive before
    the cap; they must be the segment's earliest rows in that order.
    """
    sizes = np.bincount(seg, minlength=kept.size)
    s = seg[order]
    pos = np.arange(s.size) - (np.cumsum(sizes) - sizes)[s]
    out = np.zeros(s.size, dtype=bool)
    out[order[(pos < kept[s]) & (pos >= kept[s] - cap)]] = True
    return out


def _offsets(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def _recency_order(seg, t_max, edges) -> np.ndarray:
    return np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0], t_max, seg))


def _segment_ids(*keys) -> np.ndarray:
    """Dense id of each run of equal consecutive key tuples."""
    m = keys[0].size
    starts = np.zeros(m, dtype=bool)
    starts[:1] = True
    for k in keys:
        starts[1:] |= k[1:] != k[:-1]
    return np.cumsum(starts) - 1


def _node_rows(g, catalog, v, delta, start, cap) -> np.ndarray:
    """Instance rows of one node, capped per type, in (type, edges) order."""
    rows = _enumerate_rows(g, v, delta, catalog, start)
    rows = rows[np.lexsort((rows[:, _E3], rows[:, _E2], rows[:, _E1], rows[:, _TYPE]))]
    if cap is None or rows.shape[0] <= cap:
        return rows
    seg = _segment_ids(rows[:, _TYPE])
    order = _recency_order(seg, rows[:, _TMAX], rows[:, _E1:_E3 + 1])
    return rows[_latest(seg, order, np.bincount(seg), cap)]


def _index_chunk(args):
    g, mode, nodes, deltas, starts, cap = args
    catalog = build_catalog(mode)
    counts = np.zeros(len(nodes), dtype=np.int64)
    parts = []
    for i, (v, d, s) in enumerate(zip(nodes.tolist(), deltas.tolist(), starts.tolist())):
        if s == NO_ANCHOR:
            continue  # isolated; enumeration yields nothing
        rows = _node_rows(g, catalog, v, d, s, cap)
        counts[i] = rows.shape[0]
        parts.append(rows)
    return counts, (np.concatenate(parts) if parts else np.empty((0, _ROW), dtype=np.int64))


def _checked_windows(windows, node_ids: np.ndarray, tau) -> np.ndarray:
    out = np.empty(node_ids.size)
    for i, v in enumerate(node_ids.tolist()):
        d = float(windows[v])
        if not (0.0 < d <= tau):
            raise MotifError(f"window for node {v} out of bounds: {d} not in (0, {tau}]")
        out[i] = d
    return out


@dataclass(frozen=True, eq=False)
class MotifIndex:
    """Motif instances of a node set under per-node windows, as read-only columns.

    Instance rows are sorted by (owner, type, edges); the rows of
    `node_ids[i]` are `offsets[i]:offsets[i + 1]`. Every array is read-only,
    so anything derived from the index stays valid for its lifetime; consumers
    cache such arrays in `derived`. Construct through `build_index`,
    `restrict` or `from_instances`.
    """

    catalog_mode: str
    catalog_size: int
    tau_max: int | float       # windows were checked against (0, tau_max]
    cap: int | None            # most recent instances kept per (node, type)
    node_ids: np.ndarray       # indexed nodes, ascending
    node_windows: np.ndarray   # delta per indexed node
    node_starts: np.ndarray    # window anchor per indexed node, NO_ANCHOR if none
    offsets: np.ndarray        # len(node_ids) + 1 row offsets
    owner: np.ndarray          # m: focal node
    type_id: np.ndarray        # m
    nodes: np.ndarray          # m x 3: focal, then the other two ascending
    edges: np.ndarray          # m x 3 edge indices, ascending
    t_max: np.ndarray          # m: latest edge timestamp
    derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name in _COLUMNS:
            getattr(self, name).setflags(write=False)

    @classmethod
    def _from_rows(cls, mode, size, tau, cap, node_ids, node_windows, node_starts,
                   counts, rows) -> "MotifIndex":
        owner = np.repeat(node_ids, counts)
        return cls(catalog_mode=mode, catalog_size=size, tau_max=tau, cap=cap,
                   node_ids=node_ids, node_windows=node_windows, node_starts=node_starts,
                   offsets=_offsets(counts),
                   owner=owner, type_id=np.ascontiguousarray(rows[:, _TYPE]),
                   nodes=np.column_stack([owner, rows[:, _A], rows[:, _B]]),
                   edges=np.ascontiguousarray(rows[:, _E1:_E3 + 1]),
                   t_max=np.ascontiguousarray(rows[:, _TMAX]))

    @classmethod
    def from_instances(cls, catalog_mode: str, catalog_size: int, per_node: dict, *,
                       windows=None, window_starts=None) -> "MotifIndex":
        """Uncapped index holding given instances: node -> {type_id -> [MotifInstance]}.

        The mapping keys give each instance's owner and type; instances are
        stored in (type, edges) order. Nodes without windows or anchors get NaN
        and NO_ANCHOR. The index records no horizon (tau_max 0), so `restrict`
        rejects every window.
        """
        node_ids = np.array(sorted(int(v) for v in per_node), dtype=np.int64)
        node_windows = np.array([np.nan if windows is None else float(windows[v])
                                 for v in node_ids.tolist()])
        node_starts = np.array(
            [NO_ANCHOR if window_starts is None or window_starts[v] is None
             else int(window_starts[v]) for v in node_ids.tolist()], dtype=np.int64)
        counts = np.zeros(node_ids.size, dtype=np.int64)
        flat = []
        for i, v in enumerate(node_ids.tolist()):
            for tid, lst in per_node[v].items():
                counts[i] += len(lst)
                for m in lst:
                    flat += (m.nodes[1], m.nodes[2], *m.edges, tid, m.t_max)
        rows = np.array(flat, dtype=np.int64).reshape(-1, _ROW)
        owner = np.repeat(node_ids, counts)
        rows = rows[np.lexsort((rows[:, _E3], rows[:, _E2], rows[:, _E1], rows[:, _TYPE],
                                owner))]
        return cls._from_rows(catalog_mode, catalog_size, 0, None, node_ids,
                              node_windows, node_starts, counts, rows)

    # -- reads ---------------------------------------------------------------

    def _cached(self, key, build):
        got = self.derived.get(key)
        if got is None:
            got = self.derived[key] = build()
        return got

    def total_instances(self) -> int:
        return int(self.owner.size)

    @property
    def windows(self):
        """Read-only node -> delta used at extraction."""
        return self._cached("windows", lambda: MappingProxyType(
            dict(zip(self.node_ids.tolist(), self.node_windows.tolist()))))

    @property
    def window_starts(self):
        """Read-only node -> window anchor (None for nodes without one)."""
        return self._cached("window_starts", lambda: MappingProxyType(
            {v: None if s == NO_ANCHOR else s
             for v, s in zip(self.node_ids.tolist(), self.node_starts.tolist())}))

    def locate(self, nodes) -> np.ndarray:
        """Position of each node in `node_ids`, or -1 for nodes not indexed."""
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if self.node_ids.size == 0:
            return np.full(nodes.size, -1, dtype=np.intp)
        pos = np.minimum(np.searchsorted(self.node_ids, nodes), self.node_ids.size - 1)
        return np.where(self.node_ids[pos] == nodes, pos, -1)

    def rows_of(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """(rows, counts): the rows of each node in turn, and how many each has."""
        pos = self.locate(nodes)
        lo = np.where(pos >= 0, self.offsets[pos], 0)
        counts = np.where(pos >= 0, self.offsets[pos + 1], 0) - lo
        starts = np.cumsum(counts) - counts
        return np.arange(int(counts.sum())) + np.repeat(lo - starts, counts), counts

    def count_matrix(self, nodes) -> np.ndarray:
        """len(nodes) x catalog_size instance counts; zero rows for unindexed nodes."""
        rows, counts = self.rows_of(nodes)
        k, size = counts.size, self.catalog_size
        key = np.repeat(np.arange(k), counts) * size + self.type_id[rows]
        return np.bincount(key, minlength=k * size).reshape(k, size)

    def instances_at(self, v: int):
        """Read-only type_id -> (MotifInstance, ...) of node v, built on demand."""
        rows, _ = self.rows_of([v])
        by_type: dict = {}
        for f, t, ns, es, tm in zip(self.owner[rows].tolist(), self.type_id[rows].tolist(),
                                    self.nodes[rows].tolist(), self.edges[rows].tolist(),
                                    self.t_max[rows].tolist()):
            by_type.setdefault(t, []).append(MotifInstance(f, tuple(ns), tuple(es), t, tm))
        return MappingProxyType({t: tuple(lst) for t, lst in by_type.items()})

    @property
    def per_node(self):
        """Read-only node -> {type_id -> instances} view of every indexed node.

        Built on first use, for tests, the CLI and inspection; library code
        reads the columns.
        """
        return self._cached("per_node", lambda: MappingProxyType(
            {v: self.instances_at(v) for v in self.node_ids.tolist()}))

    # -- windows -------------------------------------------------------------

    def restrict(self, windows, cap: int | None) -> "MotifIndex":
        """The index `build_index` would return at smaller windows, by mask.

        Needs an uncapped index. Windows are checked as in `build_index` and
        may not exceed a node's window here: each node keeps the rows with
        t_max <= start + delta, then the `cap` latest of those per type.
        """
        if self.cap is not None:
            raise MotifError(f"restrict needs an uncapped index, this one has cap {self.cap}")
        deltas = _checked_windows(windows, self.node_ids, self.tau_max)
        over = np.flatnonzero(deltas > self.node_windows)
        if over.size:
            i = over[0]
            raise MotifError(f"window for node {self.node_ids[i]} exceeds the enumerated "
                             f"window: {deltas[i]} > {self.node_windows[i]}")
        counts = np.diff(self.offsets)
        keep = self.t_max <= np.repeat(self.node_starts + deltas, counts)
        if cap is not None:
            seg, order, n_seg = self._cached("recency", self._recency)
            keep = _latest(seg, order, np.bincount(seg[keep], minlength=n_seg), cap)
        node_of_row = np.repeat(np.arange(self.node_ids.size), counts)
        return MotifIndex(
            catalog_mode=self.catalog_mode, catalog_size=self.catalog_size,
            tau_max=self.tau_max, cap=cap, node_ids=self.node_ids, node_windows=deltas,
            node_starts=self.node_starts,
            offsets=_offsets(np.bincount(node_of_row[keep], minlength=self.node_ids.size)),
            owner=self.owner[keep], type_id=self.type_id[keep], nodes=self.nodes[keep],
            edges=self.edges[keep], t_max=self.t_max[keep])

    def _recency(self):
        """(owner, type) segment per row, the (segment, t_max, edges) order, segment count."""
        seg = _segment_ids(self.owner, self.type_id)
        n_seg = int(seg[-1]) + 1 if seg.size else 0
        return seg, _recency_order(seg, self.t_max, self.edges), n_seg


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
    node_ids = np.unique(np.asarray(nodes, dtype=np.int64))
    tau = g.tau_max if g.tau_max is not None else 0
    deltas = _checked_windows(windows, node_ids, tau)
    if window_starts is not None:
        starts = np.array([int(window_starts[v]) for v in node_ids.tolist()], dtype=np.int64)
    else:
        starts = g.t_earliest[node_ids].astype(np.int64)
        starts[starts == NO_TIMESTAMP] = NO_ANCHOR

    if jobs > 1 and node_ids.size > 1:
        from concurrent.futures import ProcessPoolExecutor
        parts = np.array_split(np.arange(node_ids.size), min(jobs, node_ids.size))
        args = [(g, catalog.mode, node_ids[p], deltas[p], starts[p], cap) for p in parts]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_index_chunk, args))
        counts = np.concatenate([c for c, _ in chunks])
        rows = np.concatenate([r for _, r in chunks])
    else:
        counts, rows = _index_chunk((g, catalog.mode, node_ids, deltas, starts, cap))
    return MotifIndex._from_rows(catalog.mode, catalog.size, tau, cap, node_ids, deltas,
                                 starts, counts, rows)


# ---------------------------------------------------------------------------
# analysis

FRAUD, NORMAL = 1, 0


def motif_histogram(indexes: dict, labels) -> dict:
    """Instance counts per (delta, type, class) over the indexed nodes.

    `indexes` maps delta -> MotifIndex built at that delta; only non-zero
    counts get a key.
    """
    labels = np.asarray(labels)
    table: dict = {}
    for delta, index in indexes.items():
        cls = labels[index.owner].astype(np.int64)
        ok = (cls == NORMAL) | (cls == FRAUD)
        counts = np.bincount(index.type_id[ok] * 2 + cls[ok], minlength=2 * index.catalog_size)
        for key in np.flatnonzero(counts).tolist():
            table[(delta, key // 2, key % 2)] = int(counts[key])
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
    counts = index.count_matrix(nodes).astype(np.float64)
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
    """One record per instance, in the index's (owner, type, edges) order."""
    table = np.column_stack([index.owner, index.type_id, index.nodes, index.edges,
                             index.t_max])
    with open(path, "w", encoding="utf-8") as f:
        f.write("focal,type_id,node1,node2,node3,edge1,edge2,edge3,t_max\n")
        np.savetxt(f, table, fmt="%d", delimiter=",")

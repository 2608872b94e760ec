"""Temporal 3-node/3-edge motif machinery.

A motif instance is an ascending triple of directed edges (under the total
edge order) spanning exactly three distinct nodes, one of which is the focal
node, with all timestamps inside the focal node's window: the edges at t with
t - t_v <= floor(delta_v), where t_v is v's first activity, decided exactly
in integers for any int64 timestamps. Types are equivalence classes of the
time-ordered directed-pair sequence under node relabeling; the catalog is
generated exhaustively, never hand-listed.

Enumeration at focal node v visits only the third-node pairs {a, b} that can
hold an instance: an instance needs 3 window edges among the pairs v-a, v-b
and a-b. So a pair is a candidate when it has an a-b edge and the three pairs
hold at least 3 window edges together (b need not be a neighbour of v), or
when it has no a-b edge and a or b has at least 2 window edges to v. An a-b
edge between two neighbours of v is counted once, from the smaller node.

`build_index` applies this rule to all focal nodes at once, with array
operations on the graph's incidence arrays (`TransactionGraph.incidence`):
it groups each focal window's edges by neighbour a, then filters each
neighbour's window edges a-b before grouping them by pair {a, b}. When b
is a window neighbour of v (a triangle), the edge stays only if b > a, as
the pair is counted from its smaller end. Otherwise it stays only if b != v
and v-a has at least 2 window edges or {a, b} has at least 2 edges anywhere
in the graph (`Incidence.repeated`). Any other pair holds one v-a and one
a-b window edge, too few for an instance, so most a-b edges of a wide
window never reach the sort. Whether b is a neighbour of v is read from a
boolean table over (focal node, node id) of at most `TABLE_BYTES`, filled
and cleared a chunk of focal nodes at a time. The enumerator then keeps the
candidates, forms every triple of a candidate's edges from a combination
index, types it through a 9**3-entry table of role-coded triples
(`MotifCatalog.role_table`), and sorts and caps the rows. Focal nodes go in
batches whose neighbour-pair rows, and triples in chunks, stay within
`BATCH_ROWS`, so a hub cannot blow up memory; neither the batching nor the
table's chunks change the result. It all runs in one process.

The motif index stores the instances of many focal nodes as read-only
columns (owner, type, member nodes, edges, latest timestamp), sorted by
(owner, type, edges). The cap keeps, per (node, type), the `cap` earliest
instances in (E3, E2, E1) order: edges are sorted by time, so that order
refines t_max order, and these are the instances the head weighs most.
Because a node's window always starts at its first activity, an index
enumerated at windows delta' holds every instance at any delta <= delta',
and a smaller window keeps a prefix of each (node, type) in that order; so
`MotifIndex.restrict` recovers the capped index at smaller windows with a
mask instead of a new enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
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
    _role_table: np.ndarray | None = field(repr=False, default=None)

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

    def role_table(self) -> np.ndarray:
        """Type id of each triple of role-coded edges; -1 where it does not span 3 nodes.

        Roles are 0 for the focal node and 1, 2 for the others in ascending
        order; an edge s -> d has code 3s + d, and codes (c1, c2, c3) sit at
        81 c1 + 9 c2 + c3. Built once, read-only.
        """
        if self._role_table is None:
            table = np.full(9 ** 3, -1, dtype=np.int64)
            for i, seq in enumerate(product(product(range(3), repeat=2), repeat=3)):
                if all(s != d for s, d in seq) and len({r for e in seq for r in e}) == 3:
                    table[i] = self.index_of(_first_appearance_relabel(
                        seq, focal=0 if self.mode == FOCAL_ROOTED else None))
            table.setflags(write=False)
            self._role_table = table
        return self._role_table


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


# ---------------------------------------------------------------------------
# enumeration

# one enumerated instance as a row: the two non-focal nodes, the three edges,
# the type id and the latest timestamp
_A, _B, _E1, _E2, _E3, _TYPE, _TMAX = range(7)
_ROW = 7

BATCH_ROWS = 1 << 16  # rows a batch of focal nodes, or of candidate triples, expands to
TABLE_BYTES = 1 << 24  # bytes of the table that marks a batch's window neighbours


def _reach(deltas: np.ndarray) -> np.ndarray:
    """floor(delta) in uint64, at most 2**63: more than any gap between int64 timestamps."""
    return np.floor(np.minimum(deltas, 2.0 ** 63)).astype(np.uint64)


def _window_edges(g: TransactionGraph, starts: np.ndarray, deltas: np.ndarray):
    """(e0, e1): each window's edges are e0:e1, those at ticks start .. start + floor(delta)."""
    room = (g.timestamp.max(initial=0) - starts).astype(np.uint64)  # clamp to the last tick
    ends = starts + np.minimum(_reach(deltas), room).astype(np.int64)
    return np.searchsorted(g.timestamp, starts, "left"), np.searchsorted(g.timestamp, ends, "right")


def _expand(starts: np.ndarray, counts: np.ndarray):
    """(owner, position): positions starts[i] .. starts[i] + counts[i] - 1, owner i, in order."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys."""
    return np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[:1] - 1))


def _find(sorted_keys: np.ndarray, keys) -> np.ndarray:
    """Position of each key in `sorted_keys` (no duplicates), or -1 where absent."""
    keys = np.asarray(keys, dtype=np.int64)
    if sorted_keys.size == 0:
        return np.full(keys.shape, -1, dtype=np.intp)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _batches(weight: np.ndarray, budget: int):
    """Consecutive ranges [i, j) whose weights sum to at most `budget`, or single items."""
    cum, i = np.cumsum(weight), 0
    while i < weight.size:
        j = max(int(np.searchsorted(cum, cum[i] - weight[i] + budget, "right")), i + 1)
        yield i, j
        i = j


def _unrank_triples(rank: np.ndarray, kmax: int):
    """(i, j, k), i < j < k: the triples of 0..kmax at these ranks in colexicographic order."""
    k = np.arange(kmax + 1)
    c3, c2 = k * (k - 1) * (k - 2) // 6, k * (k - 1) // 2
    hi = np.searchsorted(c3, rank, "right") - 1
    rank = rank - c3[hi]
    mid = np.searchsorted(c2, rank, "right") - 1
    return rank - c2[mid], mid, hi


class _Neighbours(NamedTuple):
    """(focal position f, neighbour a) entries with a v-a edge in the window, by (f, a).

    Entry j's v-a window edges are `vedge[start[j]:start[j] + count[j]]`,
    a's incidence entries in the window are `lo[j]:hi[j]`, and focal f's
    entries are `ptr[f]:ptr[f + 1]`.
    """

    key: np.ndarray  # f * n + a
    f: np.ndarray
    a: np.ndarray
    start: np.ndarray
    count: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    vedge: np.ndarray
    ptr: np.ndarray


def _neighbours(inc, n, focal, e0, e1) -> _Neighbours:
    s, t = inc.window(focal, e0, e1)
    f, p = _expand(s, t - s)
    key = f * n + inc.other[p]
    order = np.argsort(key)
    key, f, p = key[order], f[order], p[order]
    first = _run_starts(key)
    nf, na = f[first], inc.other[p[first]]
    lo, hi = inc.window(na, e0[nf], e1[nf])
    return _Neighbours(key=key[first], f=nf, a=na, start=first,
                       count=np.diff(np.append(first, key.size)), lo=lo, hi=hi,
                       vedge=inc.edge[p],
                       ptr=_offsets(np.bincount(nf, minlength=focal.size)))


def _is_neighbour(nb: _Neighbours, n, f, b, f0, f1) -> np.ndarray:
    """Whether node b[i] is a window neighbour of focal position f[i]; f ascends in f0:f1.

    A boolean table over (focal position, node id) marks the neighbours of at
    most TABLE_BYTES // n focal nodes at a time: each chunk is marked, read
    and cleared in turn, so one table of at most TABLE_BYTES (or n) bytes
    serves the batch.
    """
    rows = max(1, min(f1 - f0, TABLE_BYTES // n))
    table = np.zeros((rows, n), dtype=bool)
    bounds = np.append(np.arange(f0, f1, rows), f1)
    entries, queries = nb.ptr[bounds].tolist(), np.searchsorted(f, bounds).tolist()
    out = np.empty(f.size, dtype=bool)
    for i, c in enumerate(bounds[:-1].tolist()):
        mark = nb.f[entries[i]:entries[i + 1]] - c, nb.a[entries[i]:entries[i + 1]]
        q = slice(queries[i], queries[i + 1])
        table[mark] = True
        out[q] = table[f[q] - c, b[q]]
        table[mark] = False
    return out


def _candidates(g, inc, nb: _Neighbours, focal, f0, f1):
    """Candidate pairs of the focal positions f0:f1, and each one's member edges.

    Each a-b incidence entry (focal v, neighbour a, a's window edge to b) is
    kept or dropped before the entries are grouped by pair {a, b}. If b is a
    window neighbour of v, it is kept only if b > a (a triangle is counted
    from its smaller end); otherwise only if b != v and v-a has at least 2
    window edges or {a, b} has at least 2 edges in the graph
    (`Incidence.repeated`). These tests depend only on (v, a, b), so a pair's
    entries go together; a dropped pair holds one v-a and one a-b window
    edge, too few for an instance, or is counted from b.

    Returns (f, lo, hi, members, member_ptr): the focal position and the two
    other nodes (ascending) of each candidate, and its member edges,
    ascending, at `members[member_ptr[c]:member_ptr[c + 1]]`.
    """
    n, num = g.n, nb.a.size
    j0, j1 = nb.ptr[f0], nb.ptr[f1]
    # a-b edges: a's window edges that can take part, grouped by the pair {a, b}
    j, p = _expand(nb.lo[j0:j1], nb.hi[j0:j1] - nb.lo[j0:j1])
    j += j0
    f, b = nb.f[j], inc.other[p]
    tri = _is_neighbour(nb, n, f, b, f0, f1)
    keep = (b != focal[f]) & np.where(tri, b > nb.a[j], (nb.count[j] >= 2) | inc.repeated[p])
    j, p, tri = j[keep], p[keep], tri[keep]
    key = j * n + b[keep]
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)  # group g's a-b edges are p[order[first[g]:first[g] + glen[g]]]
    glen = np.diff(np.append(first, order.size))
    gj = j[order[first]]
    gb = key[first] - gj * n
    linked = tri[order[first]]  # both are neighbours of v, and there is an a-b edge
    gjb = np.full(gj.size, -1)  # b's neighbour entry, or -1
    gjb[linked] = j0 + _find(nb.key[j0:j1], nb.f[gj[linked]] * n + gb[linked])
    # a linked pair holds a v-a, a v-b and an a-b edge; any other, its v-a and a-b edges
    ok = linked | (nb.count[gj] + glen >= 3)
    # neighbour pairs without an a-b edge: two v-a edges and one v-b edge make 3
    heavy = j0 + np.flatnonzero(nb.count[j0:j1] >= 2)
    hf = nb.f[heavy]
    i, x = _expand(nb.ptr[hf], nb.ptr[hf + 1] - nb.ptr[hf])
    h = heavy[i]
    pair = (x != h) & ((nb.count[x] < 2) | (h < x))
    hp, hq = np.minimum(h, x)[pair], np.maximum(h, x)[pair]
    pair = _find(gj[linked] * num + gjb[linked], hp * num + hq) < 0
    hp, hq = hp[pair], hq[pair]

    cp = np.concatenate([gj[ok], hp])    # neighbour entry of one node
    cq = np.concatenate([gjb[ok], hq])   # neighbour entry of the other, or -1
    other = np.concatenate([gb[ok], nb.a[hq]])
    f = nb.f[cp]
    lo, hi = np.minimum(nb.a[cp], other), np.maximum(nb.a[cp], other)
    # members: the v-edges of both nodes and the pair's a-b edges
    c1, m1 = _expand(nb.start[cp], nb.count[cp])
    c2, m2 = _expand(nb.start[np.maximum(cq, 0)], np.where(cq >= 0, nb.count[cq], 0))
    c3, m3 = _expand(first[ok], glen[ok])  # the a-b candidates come first
    owner = np.concatenate([c1, c2, c3])
    members = np.concatenate([nb.vedge[m1], nb.vedge[m2], inc.edge[p[order[m3]]]])
    return (f, lo, hi, members[np.lexsort((members, owner))],
            _offsets(np.bincount(owner, minlength=f.size)))


def _instance_rows(g, table, focal, f, lo, hi, members, member_ptr) -> tuple:
    """Every spanning triple of each candidate's members, as rows led by the focal position."""
    owner = np.repeat(np.arange(f.size), np.diff(member_ptr))
    v, a = focal[f][owner], lo[owner]
    src, dst = (np.where(end == v, 0, np.where(end == a, 1, 2))
                for end in (g.src[members], g.dst[members]))
    code = 3 * src + dst
    size = np.diff(member_ptr)
    if size.size and size.max() >= 2 ** 21:  # C(size, 3) would overflow int64
        raise MotifError(f"a node pair holds {size.max()} window edges, too many to enumerate")
    combos = size * (size - 1) * (size - 2) // 6
    first = np.cumsum(combos) - combos
    out = [np.empty((0, _ROW + 1), dtype=np.int64)]
    for r0 in range(0, int(combos.sum()), BATCH_ROWS):
        rank = np.arange(r0, min(r0 + BATCH_ROWS, int(combos.sum())))
        c = np.searchsorted(first, rank, "right") - 1
        i, j, k = (member_ptr[c] + t for t in _unrank_triples(rank - first[c], int(size.max())))
        tid = table[(code[i] * 9 + code[j]) * 9 + code[k]]
        span = tid >= 0
        c, i, j, k = c[span], members[i[span]], members[j[span]], members[k[span]]
        out.append(np.column_stack([f[c], lo[c], hi[c], i, j, k, tid[span], g.timestamp[k]]))
    return np.concatenate(out)


def _enumerate(g: TransactionGraph, catalog: MotifCatalog, focal: np.ndarray,
               e0: np.ndarray, e1: np.ndarray, cap: int | None):
    """(counts, rows): instances of each focal node on the edges e0:e1, capped per type.

    Rows are in (focal, type, edges) order. Focal nodes are processed in
    batches of at most BATCH_ROWS a-b and neighbour-pair rows, so a hub cannot
    blow up memory.
    """
    inc = g.incidence()  # also checks that every composite key below fits in int64
    table = catalog.role_table()
    nb = _neighbours(inc, g.n, focal, e0, e1)
    heavy_pairs = (nb.count >= 2) * np.diff(nb.ptr)[nb.f]
    weight = 1 + np.bincount(nb.f, weights=nb.hi - nb.lo + heavy_pairs, minlength=focal.size)
    counts = np.zeros(focal.size, dtype=np.int64)
    parts = [np.empty((0, _ROW), dtype=np.int64)]
    for f0, f1 in _batches(weight, BATCH_ROWS):
        rows = _instance_rows(g, table, focal, *_candidates(g, inc, nb, focal, f0, f1))
        f, rows = rows[:, 0], rows[:, 1:]
        order = np.lexsort((rows[:, _E3], rows[:, _E2], rows[:, _E1], rows[:, _TYPE], f))
        f, rows = f[order], rows[order]
        if cap is not None and rows.shape[0] > cap:
            seg = _segment_ids(f, rows[:, _TYPE])
            if np.bincount(seg).max() > cap:  # else the cap keeps every row
                keep = _earliest(seg, rows[:, _E1:_E3 + 1], cap)
                f, rows = f[keep], rows[keep]
        counts += np.bincount(f, minlength=focal.size)
        parts.append(rows)
    return counts, np.concatenate(parts)


# ---------------------------------------------------------------------------
# index

_COLUMNS = ("node_ids", "node_windows", "node_starts", "offsets",
            "owner", "type_id", "nodes", "edges", "t_max")


def _earliest(seg: np.ndarray, edges: np.ndarray, cap: int) -> np.ndarray:
    """Row mask holding, per segment, the `cap` earliest rows in (E3, E2, E1) order.

    `seg` is a dense segment id per row, ascending.
    """
    order = np.lexsort((edges[:, 0], edges[:, 1], edges[:, 2], seg))
    sizes = np.bincount(seg)
    pos = np.arange(seg.size) - (np.cumsum(sizes) - sizes)[seg]
    out = np.zeros(seg.size, dtype=bool)
    out[order[pos < cap]] = True
    return out


def _offsets(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def _segment_ids(*keys) -> np.ndarray:
    """Dense id of each run of equal consecutive key tuples."""
    m = keys[0].size
    starts = np.zeros(m, dtype=bool)
    starts[:1] = True
    for k in keys:
        starts[1:] |= k[1:] != k[:-1]
    return np.cumsum(starts) - 1


def _checked_windows(windows, node_ids: np.ndarray, tau) -> np.ndarray:
    """The windows of `node_ids` from an array indexed by node id; each in (0, tau]."""
    deltas = np.asarray(windows, dtype=np.float64)[node_ids]
    bad = np.flatnonzero(~((0.0 < deltas) & (deltas <= tau)))
    if bad.size:
        v, d = int(node_ids[bad[0]]), float(deltas[bad[0]])
        raise MotifError(f"window for node {v} out of bounds: {d} not in (0, {tau}]")
    return deltas


@dataclass(frozen=True, eq=False)
class MotifIndex:
    """Motif instances of a node set under per-node windows, as read-only columns.

    Instance rows are sorted by (owner, type, edges); the rows of
    `node_ids[i]` are `offsets[i]:offsets[i + 1]`. Every array is read-only,
    so anything derived from the index stays valid for its lifetime; consumers
    cache such arrays in `derived`. Construct through `build_index` or
    `restrict`.
    """

    catalog_size: int
    tau_max: int | float       # windows were checked against (0, tau_max]
    cap: int | None            # earliest instances kept per (node, type)
    node_ids: np.ndarray       # indexed nodes, ascending
    node_windows: np.ndarray   # delta per indexed node
    node_starts: np.ndarray    # window start per indexed node, its t_earliest
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

    def locate(self, nodes) -> np.ndarray:
        """Position of each node in `node_ids`, or -1 for nodes not indexed."""
        return _find(self.node_ids, np.asarray(nodes, dtype=np.int64).reshape(-1))

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

        Built on first use, for tests and for perfbench's traced mode, which
        compares it between index builds; library code reads the columns.
        """
        return self._cached("per_node", lambda: MappingProxyType(
            {v: self.instances_at(v) for v in self.node_ids.tolist()}))

    # -- windows -------------------------------------------------------------

    def restrict(self, windows) -> "MotifIndex":
        """The index `build_index` would return at smaller windows, by mask.

        Windows are checked as in `build_index` and may not exceed a node's
        window here: each node keeps the rows with t_max - start <=
        floor(delta). A smaller window keeps a prefix of each (node, type)'s
        instances in the cap's order, so the result is the index at those
        windows with this index's cap.
        """
        deltas = _checked_windows(windows, self.node_ids, self.tau_max)
        over = np.flatnonzero(deltas > self.node_windows)
        if over.size:
            i = over[0]
            raise MotifError(f"window for node {self.node_ids[i]} exceeds the enumerated "
                             f"window: {deltas[i]} > {self.node_windows[i]}")
        node_of_row = np.repeat(np.arange(self.node_ids.size), np.diff(self.offsets))
        gaps = self.t_max - self.node_starts[node_of_row]  # in [0, 2**63)
        keep = gaps.astype(np.uint64) <= _reach(deltas)[node_of_row]
        return MotifIndex(
            catalog_size=self.catalog_size, tau_max=self.tau_max, cap=self.cap,
            node_ids=self.node_ids, node_windows=deltas, node_starts=self.node_starts,
            offsets=_offsets(np.bincount(node_of_row[keep], minlength=self.node_ids.size)),
            owner=self.owner[keep], type_id=self.type_id[keep], nodes=self.nodes[keep],
            edges=self.edges[keep], t_max=self.t_max[keep])


def build_index(g: TransactionGraph, windows, catalog: MotifCatalog,
                nodes=None, cap: int | None = 512) -> MotifIndex:
    """Per-node motif index under per-node windows.

    `windows` is an array indexed by node id; the delta of every indexed node
    must lie in (0, tau_max]. Each window starts at its node's first activity.
    Nodes default to the labeled set. All nodes are enumerated together, in
    batches, in one process.
    """
    if nodes is None:
        nodes = g.labeled_nodes()
    node_ids = np.unique(np.asarray(nodes, dtype=np.int64))
    tau = g.tau_max if g.tau_max is not None else 0
    deltas = _checked_windows(windows, node_ids, tau)
    starts = g.t_earliest[node_ids]
    active = np.flatnonzero(starts != NO_TIMESTAMP)  # isolated nodes have no instances
    counts = np.zeros(node_ids.size, dtype=np.int64)
    counts[active], rows = _enumerate(
        g, catalog, node_ids[active], *_window_edges(g, starts[active], deltas[active]), cap)
    owner = np.repeat(node_ids, counts)
    return MotifIndex(catalog_size=catalog.size, tau_max=tau, cap=cap, node_ids=node_ids,
                      node_windows=deltas, node_starts=starts, offsets=_offsets(counts),
                      owner=owner, type_id=np.ascontiguousarray(rows[:, _TYPE]),
                      nodes=np.column_stack([owner, rows[:, _A], rows[:, _B]]),
                      edges=np.ascontiguousarray(rows[:, _E1:_E3 + 1]),
                      t_max=np.ascontiguousarray(rows[:, _TMAX]))


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
    z = centered[:, ok] / std[ok]
    corr[np.ix_(ok, ok)] = (z.T @ z) / len(nodes)
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

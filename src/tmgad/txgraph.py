"""Timestamped transaction graphs: ingest, validation, indexing, splits, and
the on-disk container that graph caches and model checkpoints share.

Edges are stored columnar (src/dst/timestamp/amount arrays) sorted by the
total order (timestamp, src, dst, input position) and frozen after
construction. Direction is preserved here because motif typing needs it; the
GCN adjacency collapses it.
"""

from __future__ import annotations

import json
import math
import os
import warnings
import zipfile
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class GraphError(Exception):
    pass


class ParseError(GraphError):
    pass


class ValidationError(GraphError):
    pass


NO_TIMESTAMP = -1  # t_earliest sentinel for isolated nodes
UNLABELED = -1
_INT64 = range(-2**63, 2**63)  # the values an int64 column holds


@dataclass
class SplitSpec:
    seed: int
    train_ids: np.ndarray
    test_ids: np.ndarray


@dataclass
class TransactionGraph:
    n: int
    src: np.ndarray        # int64, sorted with dst/timestamp by (t, src, dst, input pos)
    dst: np.ndarray
    timestamp: np.ndarray  # int64, non-negative
    amount: np.ndarray     # float64, NaN when absent
    features: np.ndarray | None = None          # n x d float64
    labels: np.ndarray | None = None            # int8 in {0,1}, UNLABELED when missing
    t_earliest: np.ndarray = field(default=None)  # int64, NO_TIMESTAMP for isolated nodes
    tau_max: int | None = None  # time span, latest minus earliest timestamp; None without edges
    _incidence: "Incidence | None" = field(default=None, repr=False)
    _adjacency: "sp.csr_matrix | None" = field(default=None, repr=False)

    def __post_init__(self):
        for arr in (self.src, self.dst, self.timestamp, self.amount):
            arr.setflags(write=False)
        if self.t_earliest is None:
            self.t_earliest = _earliest(self.n, self.src, self.dst, self.timestamp)
        self.t_earliest.setflags(write=False)
        if self.tau_max is None and len(self.timestamp):
            self.tau_max = int(self.timestamp.max() - self.timestamp.min())

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def num_features(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    def labeled_nodes(self) -> np.ndarray:
        if self.labels is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.labels != UNLABELED)[0].astype(np.int64)

    def incidence(self) -> "Incidence":
        """The edges touching each node, as arrays (built on first use, then cached)."""
        if self._incidence is None:
            self._incidence = Incidence.of(self)
        return self._incidence

    def incident_with_ts(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(edge indices, timestamps) touching v, ascending in the edge order."""
        inc = self.incidence()
        edges = inc.edge[inc.ptr[v]:inc.ptr[v + 1]]
        return edges, self.timestamp[edges]


@dataclass(frozen=True)
class Incidence:
    """Edge endpoints grouped by node, in edge order within a node.

    Node v's entries are `ptr[v]:ptr[v + 1]`, and `key` (node, then edge
    position) ascends over all entries. Edges are sorted by time, so a time
    window is a range of edge positions, and `window` finds a node's edges in
    such a range with binary searches. `repeated` marks the entries whose node
    pair has more edges; it is built on first use, so building the incidence
    does not pay for it.
    """

    ptr: np.ndarray     # n + 1 entry offsets
    edge: np.ndarray    # 2m: edge index of each entry
    other: np.ndarray   # 2m: the edge's other endpoint
    key: np.ndarray     # 2m: node * m + edge

    @classmethod
    def of(cls, g: "TransactionGraph") -> "Incidence":
        n, m = g.n, g.num_edges
        if max(n, 2 * m) ** 2 >= 2**63:  # keys of the form x * n + y, x and y below this
            raise ValidationError(f"graph too large to index: {n} nodes, {m} edges")
        # endpoints interleaved per edge, so a stable sort keeps each node's
        # edges in ascending edge order
        ends = np.column_stack([g.src, g.dst]).ravel()
        order = np.argsort(ends, kind="stable")
        node, edge = ends[order], order // 2
        out = cls(ptr=np.searchsorted(node, np.arange(n + 1)), edge=edge,
                  other=ends[order ^ 1], key=node * m + edge)
        for arr in (out.ptr, out.edge, out.other, out.key):
            arr.setflags(write=False)
        return out

    @cached_property
    def repeated(self) -> np.ndarray:
        """2m: whether the entry's node pair has at least 2 edges, in either direction."""
        n = self.ptr.size - 1
        key = np.repeat(np.arange(n), np.diff(self.ptr)) * n + self.other
        _, pair, edges = np.unique(key, return_inverse=True, return_counts=True)
        out = edges[pair] >= 2
        out.setflags(write=False)
        return out

    def window(self, nodes: np.ndarray, e0: np.ndarray, e1: np.ndarray):
        """(start, stop): the entries of each node whose edge position is in [e0, e1)."""
        base = nodes * (self.key.size // 2)  # node * m: each of the m edges has two entries
        return np.searchsorted(self.key, base + e0), np.searchsorted(self.key, base + e1)


def _earliest(n: int, src, dst, ts) -> np.ndarray:
    unset = np.iinfo(np.uint64).max  # in uint64, above every int64 timestamp
    out = np.full(n, unset, dtype=np.uint64)
    np.minimum.at(out, src, ts.view(np.uint64))
    np.minimum.at(out, dst, ts.view(np.uint64))
    return np.where(out == unset, NO_TIMESTAMP, out.view(np.int64))


def _sort_edges(n: int, src, dst, ts):
    """Edges in (timestamp, src, dst, input position) order; timestamps are non-negative."""
    if len(ts) and (int(ts.max()) + 1) * n * n <= 2**63:
        key = ts * n  # one stable sort of a combined key that cannot overflow,
        key += src    # built in place so that it costs one edge-sized array
        key *= n
        key += dst
        order = np.argsort(key, kind="stable")
        del key
    else:
        order = np.lexsort((dst, src, ts))  # stable: preserves input position within ties
    return src[order], dst[order], ts[order], order


def build_graph(n: int, src, dst, ts, amount=None) -> TransactionGraph:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    amount = np.full(src.shape, np.nan) if amount is None else np.asarray(amount, np.float64)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValidationError(f"node count must be a non-negative integer, got {n!r}")
    if not (src.ndim == dst.ndim == ts.ndim == amount.ndim == 1
            and len(src) == len(dst) == len(ts) == len(amount)):
        raise ValidationError("src, dst, timestamp and amount must be vectors of one length")
    if len(src) and (src.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValidationError("edge endpoint out of range")
    if np.any(src == dst):
        raise ValidationError("self-loops are not allowed")
    if len(ts) and ts.min() < 0:
        raise ValidationError("negative timestamp")
    if (amount < 0).any():  # NaN, an absent amount, passes
        raise ValidationError(f"negative amount {amount[amount < 0][0]}")
    s, d, t, order = _sort_edges(n, src, dst, ts)
    return TransactionGraph(n=n, src=s, dst=d, timestamp=t, amount=amount[order])


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    token = token.strip()
    try:
        f = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse {what} from {token!r}") from None
    if not math.isfinite(f):
        raise ParseError(f"line {lineno}: {what} must be a finite integer, got {token!r}")
    if f != int(f):
        raise ParseError(f"line {lineno}: {what} must be an integer, got {token!r}")
    return int(f)


def _out_of_range(lineno: int, **values) -> ParseError:
    """The error for the first of `values` that an int64 column cannot hold."""
    what, x = next((k, x) for k, x in values.items() if x not in _INT64)
    return ParseError(f"line {lineno}: {what} {x} does not fit in a 64-bit integer")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_records(path, ncols: tuple, where: str = "line"):
    """Yield (line number, fields) for each data line of a comma-separated file.

    Blank lines and lines starting with '#' are skipped. The first remaining
    line is a header, and is skipped, when none of its fields parses as a
    number. Every data line must have one of the field counts in `ncols`.
    Line numbers count every line of the file; `where` prefixes them in errors.
    """
    header_possible = True
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if header_possible:
                header_possible = False
                if not any(map(_is_number, fields)):
                    continue
            if len(fields) not in ncols:
                expected = " or ".join(map(str, ncols))
                raise ParseError(f"{where} {lineno}: expected {expected} columns, "
                                 f"got {len(fields)}")
            yield lineno, fields


def _load_plain(path, dtypes: dict) -> np.ndarray | None:
    """A plain file's rows in one `np.loadtxt` pass, as `dtypes[field count]`.

    The first line is data or a header, by `read_records`' rule, and the first
    data line follows at once. None when either is blank or a comment, when
    `dtypes` has no entry for its field count, or when numpy cannot read every
    row (a warning, such as "no data", counts too).
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            for skip in (0, 1):
                line = f.readline().strip()
                if not line or line.startswith("#"):
                    return None
                fields = line.split(",")
                if skip or any(map(_is_number, fields)):
                    break
    except UnicodeDecodeError:
        return None  # the line reader raises it where it occurs
    if len(fields) not in dtypes:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(path, dtype=dtypes[len(fields)], delimiter=",", comments=None,
                              skiprows=skip, encoding="utf-8", ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None


def _edge_graph(src, dst, ts, amount) -> TransactionGraph:
    n = int(max(src.max(), dst.max())) + 1 if len(src) else 0
    return build_graph(n, src, dst, ts, amount)


_EDGE_FIELDS = [("src", "<i8"), ("dst", "<i8"), ("ts", "<i8"), ("amount", "<f8")]


def _read_plain_edges(path) -> TransactionGraph | None:
    """The graph of a plain edge file, or None when the file needs the line reader."""
    rows = _load_plain(path, {3: _EDGE_FIELDS[:3], 4: _EDGE_FIELDS})
    if rows is None:
        return None
    src, dst, ts = rows["src"], rows["dst"], rows["ts"]
    amount = rows["amount"] if "amount" in rows.dtype.names else np.full(len(rows), np.nan)
    if ((src < 0) | (dst < 0) | (src == dst) | (ts < 0) | (amount < 0)).any():
        return None  # the line reader names the line
    return _edge_graph(src, dst, ts, amount)


def read_edge_list(path, compact: bool = False) -> tuple[TransactionGraph, dict | None]:
    """`load_edge_list`, and with `compact` also files whose ids are tokens.

    With `compact`, when some id of the file does not parse as an integer,
    every id is a token as spelled ("007" and "7" differ), node ids become the
    positions of the sorted distinct tokens, and the token -> node id map is
    returned with the graph. Otherwise the map is None.

    A plain file is read in one `np.loadtxt` pass: its first line is data or a
    header, and every row has the first data row's 3 or 4 fields, with integer
    ids and timestamps and a valid edge. Any other file, and any file numpy
    cannot read, goes through the line reader, which gives the same graph and
    every error with its line number.
    """
    g = _read_plain_edges(path)
    return (g, None) if g is not None else _read_edge_lines(path, compact)


def _has_token_id(path) -> bool:
    """Whether an id before the file's first malformed line is not an integer."""
    try:
        for lineno, fields in read_records(path, (3, 4)):
            for token in fields[:2]:
                try:
                    _parse_int(token, "id", lineno)
                except ParseError:
                    return True
    except (ParseError, UnicodeDecodeError):
        pass
    return False


def _read_edge_lines(path, compact: bool, as_tokens: bool = False):
    """`read_edge_list` one `read_records` line at a time (again `as_tokens` for token ids)."""
    src, dst, ts, lines = array("q"), array("q"), array("q"), array("q")
    amount = array("d")
    tokens = ([], []) if as_tokens else None  # (src, dst) id strings
    for lineno, fields in read_records(path, (3, 4)):
        if tokens is not None:
            tokens[0].append(fields[0].strip())
            tokens[1].append(fields[1].strip())
        else:
            try:
                s, d = _parse_int(fields[0], "src", lineno), _parse_int(fields[1], "dst", lineno)
                src.append(s)
                dst.append(d)
            except (ParseError, OverflowError) as e:
                if compact and _has_token_id(path):
                    return _read_edge_lines(path, compact, as_tokens=True)
                if isinstance(e, ParseError):
                    raise
                raise _out_of_range(lineno, src=s, dst=d) from None
        t = _parse_int(fields[2], "timestamp", lineno)
        try:
            ts.append(t)
        except OverflowError:
            raise _out_of_range(lineno, timestamp=t) from None
        if len(fields) == 4:
            try:
                amount.append(float(fields[3]))
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse amount {fields[3]!r}") from None
        else:
            amount.append(np.nan)
        lines.append(lineno)
    id_map = None
    if tokens is None:
        src, dst = np.frombuffer(src, np.int64), np.frombuffer(dst, np.int64)
    else:
        id_map = {tok: i for i, tok in enumerate(sorted(set(tokens[0]).union(tokens[1])))}
        src, dst = (np.fromiter(map(id_map.__getitem__, col), np.int64, len(col))
                    for col in tokens)
    ts, amount = np.frombuffer(ts, np.int64), np.frombuffer(amount, np.float64)
    bad = (src < 0) | (dst < 0) | (src == dst) | (ts < 0) | (amount < 0)
    if bad.any():  # report the first bad row's first fault
        i = int(bad.argmax())
        s, d, t, a = src[i], dst[i], ts[i], amount[i]
        fault = ("negative node id" if min(s, d) < 0 else f"self-loop {s}->{d}" if s == d
                 else f"negative timestamp {t}" if t < 0 else f"negative amount {a}")
        raise ValidationError(f"line {lines[i]}: {fault}")
    return _edge_graph(src, dst, ts, amount), id_map


def load_edge_list(path) -> TransactionGraph:
    """Read a src,dst,timestamp[,amount] CSV into a graph skeleton.

    The file layout is the one `read_records` reads. Ids must be integers and
    the node count is max id + 1; self-loops and negative ids, timestamps and
    amounts are rejected.
    """
    return read_edge_list(path)[0]


def _first_feature_fault(path) -> str | None:
    """Where a features file first departs from loadtxt's format, in file line numbers."""
    width = None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            data = line.split("#", 1)[0].strip()
            if not data:
                continue
            fields = data.split(",")
            width = width or len(fields)
            if len(fields) != width:
                return (f"features file {path} line {lineno}: expected {width} columns, "
                        f"got {len(fields)}")
            for col, token in enumerate(fields, start=1):
                if not _is_number(token):
                    return (f"features file {path} line {lineno}: field {col} "
                            f"{token.strip()!r} is not a number")
    return None


def attach_features_labels(g: TransactionGraph, features_path, labels_path) -> TransactionGraph:
    """Attach node features (headerless numeric rows, one per node in id order)
    and node_id,label rows with labels in {0,1} (empty or -1: unlabeled), at
    most one row per node.

    A plain labels file is read in one `np.loadtxt` pass: its first line is
    data or a header, every row has two integer fields, and every node is in
    range, given once, with a label in {-1, 0, 1}. Any other file goes through
    the line reader, which gives the same labels and every error with its line
    number.
    """
    with warnings.catch_warnings():
        # an empty file warns and gives no rows; the row count check reports it
        warnings.simplefilter("ignore", UserWarning)
        try:
            feats = np.loadtxt(features_path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as e:
            raise ParseError(_first_feature_fault(features_path)
                             or f"features file {features_path}: {e}") from None
    if feats.shape[0] != g.n:
        raise ValidationError(f"feature row count mismatch in {features_path}: "
                              f"expected {g.n}, got {feats.shape[0]}")
    labels = _read_plain_labels(labels_path, g.n)
    if labels is None:
        labels = _read_label_lines(labels_path, g.n)
    return set_features_labels(g, feats, labels)


def _read_plain_labels(path, n: int) -> np.ndarray | None:
    """The labels of a plain labels file, or None when it needs the line reader."""
    rows = _load_plain(path, {2: [("node", "<i8"), ("label", "<i8")]})
    if rows is None:
        return None
    v, y = rows["node"], rows["label"]
    if (v.min() < 0 or v.max() >= n or np.bincount(v).max() > 1
            or y.min() < UNLABELED or y.max() > 1):
        return None  # the line reader names the line
    missing = y == UNLABELED
    if missing.any() and b"-0" in Path(path).read_bytes():
        return None  # "-01" reads as -1, but only the text "-1" marks a missing label
    labels = np.full(n, UNLABELED, dtype=np.int8)
    labels[v[~missing]] = y[~missing]
    return labels


def _read_label_lines(path, n: int) -> np.ndarray:
    """The labels of `attach_features_labels`, one `read_records` line at a time."""
    labels = np.full(n, UNLABELED, dtype=np.int8)
    given = {}  # node -> the line that gave it
    for lineno, (node, raw) in read_records(path, (2,), "labels line"):
        v = _parse_int(node, "node_id", lineno)
        if not (0 <= v < n):
            raise ValidationError(f"labels line {lineno}: node {v} out of range")
        if v in given:
            raise ValidationError(f"labels line {lineno}: node {v} already given "
                                  f"on line {given[v]}")
        given[v] = lineno
        if raw.strip() in ("", "-1"):
            continue  # missing marker
        y = _parse_int(raw, "label", lineno)
        if y not in (0, 1):
            raise ValidationError(f"labels line {lineno}: label must be 0 or 1, got {y}")
        labels[v] = y
    return labels


def set_features_labels(g: TransactionGraph, features: np.ndarray,
                        labels: np.ndarray) -> TransactionGraph:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != g.n or len(labels) != g.n:
        raise ValidationError("features/labels row count must equal node count")
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise ValidationError(f"feature at node row {row}, column {col} is "
                              f"{features[row, col]}; features must be finite")
    bad = (labels != UNLABELED) & (labels != 0) & (labels != 1)
    if bad.any():
        raise ValidationError("labels must be 0, 1 or the missing marker")
    return TransactionGraph(n=g.n, src=g.src, dst=g.dst, timestamp=g.timestamp,
                            amount=g.amount, features=features, labels=labels,
                            t_earliest=g.t_earliest)  # edge columns are read-only


def normalized_adjacency(g: TransactionGraph) -> sp.csr_matrix:
    """Symmetric-normalized (A+I) over the direction-collapsed simple graph.

    Built on first use, then cached on `g` with read-only arrays. The matrix
    equals its transpose exactly, as `diffcore.spmm` needs, and its indices
    are sorted.
    """
    if g._adjacency is None:
        loops = np.arange(g.n)
        rows = np.concatenate([g.src, g.dst, loops])
        cols = np.concatenate([g.dst, g.src, loops])
        # one entry per distinct pair: the construction sums parallel edges and sorts indices
        a_hat = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(g.n, g.n))
        deg = np.diff(a_hat.indptr)  # entries per row: neighbours and the self loop
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        a_hat.data = np.repeat(d_inv_sqrt, deg) * d_inv_sqrt[a_hat.indices]
        for arr in (a_hat.data, a_hat.indices, a_hat.indptr):
            arr.setflags(write=False)
        g._adjacency = a_hat
    return g._adjacency


def make_splits(g: TransactionGraph, k: int, train_fraction: float,
                seed: int) -> list[SplitSpec]:
    """k class-stratified train/test splits over labeled nodes, seeded."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError("train_fraction must be in (0, 1)")
    labeled = g.labeled_nodes()
    classes = [labeled[g.labels[labeled] == c] for c in (0, 1)]
    if any(len(c) < 2 for c in classes):
        raise ValidationError("need at least two labeled nodes of each class")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(k):
        train_parts, test_parts = [], []
        for ids in classes:
            perm = rng.permutation(ids)
            n_train = int(round(train_fraction * len(ids)))
            n_train = min(max(n_train, 1), len(ids) - 1)
            train_parts.append(perm[:n_train])
            test_parts.append(perm[n_train:])
        splits.append(SplitSpec(
            seed=seed,
            train_ids=np.sort(np.concatenate(train_parts)),
            test_ids=np.sort(np.concatenate(test_parts))))
    return splits


# ---------------------------------------------------------------------------
# on-disk container of graph caches and checkpoints: a stored zip of a
# manifest.json member, {"arrays": {name: [dtype, shape]}, "meta": {...}}, and
# one member of raw bytes per array

_DTYPES = ("<i8", "<f8", "|i1")
_EARLIER = {b"TXGC": "ingest", b"TMGC": "train"}  # magics of the struct formats before it


def save_arrays(path, arrays: dict, meta: dict) -> None:
    """Write int64, float64 or int8 `arrays` and the JSON object `meta`; equal
    input gives equal bytes."""
    arrays = {k: np.ascontiguousarray(a) for k, a in arrays.items()}
    listed = {k: [a.dtype.str, a.shape] for k, a in arrays.items()}
    assert "manifest.json" not in listed and all(d in _DTYPES for d, _ in listed.values())
    members = {"manifest.json": json.dumps({"arrays": listed, "meta": meta}, sort_keys=True)}
    members.update((k, a.reshape(-1).view(np.uint8)) for k, a in arrays.items())  # no copies
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():  # writestr alone would stamp the current time
            zf.writestr(zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0)), data)


def _unique_keys(pairs: list) -> dict:
    """json's object hook: a key given twice is an error, not a silent overwrite."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"manifest lists {next(k for k in keys if keys.count(k) > 1)!r} twice")
    return dict(pairs)


def _array(raw: bytes, name: str, spec) -> np.ndarray:
    dtype, shape = spec if isinstance(spec, list) and len(spec) == 2 else (None, None)
    if not (dtype in _DTYPES and isinstance(shape, list)
            and all(type(k) is int and k >= 0 for k in shape)
            and math.prod(shape) * np.dtype(dtype).itemsize == len(raw)):
        raise ValueError(f"array {name!r} is listed as {json.dumps(spec)}, which does not "
                         f"describe its {len(raw)} bytes as int64, float64 or int8")
    return np.frombuffer(raw, dtype).reshape(shape)


def load_arrays(path, what: str) -> tuple[dict, dict]:
    """The arrays and metadata of a `save_arrays` file. Beyond zipfile's checks,
    CRC-32s among them, it must start with a member, end with an end record with
    no comment, and hold the manifest and exactly the arrays it lists, each with a
    dtype and shape that fit it. Faults raise ValidationError naming `what` and `path`."""
    try:
        with open(path, "rb") as f:
            head = f.read(4)
            if head in _EARLIER:
                raise ValidationError(f"{what} {path} was written by an earlier tmgad in a "
                                      f"format this one does not read; re-run "
                                      f"`tmgad {_EARLIER[head]}`")
            f.seek(max(f.seek(0, os.SEEK_END) - 22, 0))
            tail = f.read()
            if head != b"PK\x03\x04" or tail[:4] != b"PK\x05\x06" or tail[-2:] != b"\0\0":
                raise ValueError("not a complete zip file: truncated, extended or of "
                                 "another format")
            with zipfile.ZipFile(f) as zf:
                names = sorted(zf.namelist())
                try:
                    manifest = json.loads(zf.read("manifest.json"), object_pairs_hook=_unique_keys)
                except json.JSONDecodeError as e:
                    raise ValueError(f"manifest is not valid JSON: {e}") from None
                if not (isinstance(manifest, dict) and set(manifest) == {"arrays", "meta"}
                        and all(isinstance(v, dict) for v in manifest.values())):
                    raise ValueError("manifest must be an object with the objects "
                                     "'arrays' and 'meta'")
                listed = manifest["arrays"]
                if names != sorted(["manifest.json", *listed]):
                    raise ValueError(f"members {names} are not the manifest and the arrays "
                                     f"it lists, {sorted(listed)}")
                arrays = {k: _array(zf.read(k), k, spec) for k, spec in listed.items()}
    except (OSError, EOFError, ValueError, KeyError, NotImplementedError, RuntimeError,
            zipfile.BadZipFile) as e:
        raise ValidationError(f"cannot read {what} {path}: {str(e) or type(e).__name__}") from None
    return arrays, manifest["meta"]


_CACHE_DTYPES = {"src": "<i8", "dst": "<i8", "timestamp": "<i8", "amount": "<f8",
                 "t_earliest": "<i8", "features": "<f8", "labels": "|i1"}


def save_cache(g: TransactionGraph, path, provenance: dict | None = None) -> None:
    """Write `g`, and `provenance`: what the caller records of its sources."""
    arrays = {k: np.asarray(getattr(g, k), dtype=dt) for k, dt in _CACHE_DTYPES.items()
              if getattr(g, k) is not None}
    save_arrays(path, arrays, {"n": g.n, "provenance": provenance})


def read_cache(path) -> tuple[TransactionGraph, dict | None]:
    """The graph of a `save_cache` file, through the checks of ingest
    (`build_graph`, then `set_features_labels`), and its provenance. The node
    count must be the length of the stored `t_earliest`, which the file's size
    bounds, and that column the one the edges give."""
    arrays, meta = load_arrays(path, "graph cache")
    try:
        wrong = [k for k, a in arrays.items() if _CACHE_DTYPES.get(k) != a.dtype.str]
        if wrong:
            raise ValidationError(f"unexpected array {wrong[0]!r}")
        n, earliest = meta.get("n"), arrays["t_earliest"]
        if type(n) is int and n >= 0 and earliest.shape != (n,):  # before allocating n
            raise ValidationError(f"node count {n} does not fit t_earliest {earliest.shape}")
        g = build_graph(n, arrays["src"], arrays["dst"], arrays["timestamp"], arrays["amount"])
        if not np.array_equal(g.t_earliest, earliest):
            raise ValidationError("t_earliest is not the earliest timestamp of each node's edges")
        if "features" in arrays or "labels" in arrays:
            g = set_features_labels(g, arrays["features"], arrays["labels"])
    except (GraphError, KeyError) as e:
        what = f"lacks array {e}" if isinstance(e, KeyError) else e
        raise ValidationError(f"graph cache {path}: {what}") from None
    return g, meta.get("provenance")


def load_cache(path) -> TransactionGraph:
    return read_cache(path)[0]


def save_id_map(id_map: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({str(k): int(v) for k, v in id_map.items()}, f, sort_keys=True, indent=0)
        f.write("\n")


def graph_summary(g: TransactionGraph) -> dict:
    labeled = g.labeled_nodes()
    n_fraud = int((g.labels[labeled] == 1).sum()) if len(labeled) else 0
    mean_deg = (2.0 * g.num_edges / g.n) if g.n else 0.0
    return {
        "nodes": int(g.n),
        "edges": int(g.num_edges),
        "tau_max": None if g.tau_max is None else int(g.tau_max),
        "mean_degree": round(mean_deg, 4),
        "num_features": g.num_features,
        "labeled": int(len(labeled)),
        "fraud": n_fraud,
        "normal": int(len(labeled) - n_fraud),
    }

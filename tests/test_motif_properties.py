"""Property tests: the motif index equals the brute-force oracle on random multigraphs."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tmgad import motif  # noqa: E402
from tmgad.txgraph import NO_TIMESTAMP, build_graph  # noqa: E402

from oracles import brute_force_instances, index_as_sets  # noqa: E402

# fixed and offline: the same examples on every run, no example database
PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow])

CATALOG = motif.build_catalog(motif.FOCAL_ROOTED)


@st.composite
def windowed_multigraphs(draw):
    """A graph on a few nodes, so many edges are parallel, and per-node windows."""
    n = draw(st.integers(3, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                    st.integers(0, 30)), min_size=3, max_size=30))
    src = [s for s, _, _ in edges]
    dst = [(s + step) % n for s, step, _ in edges]
    ts = [t for _, _, t in edges]
    if max(ts) == min(ts):
        ts[0] += 1  # windows lie in (0, tau], so the time span tau must be positive
    g = build_graph(n, src, dst, ts)
    tau = float(g.tau_max)
    # whole windows put edges on the window's end, where it is closed
    window = st.one_of(st.integers(1, int(tau)).map(float),
                       st.floats(1e-3, 1.0).map(lambda share: share * tau))
    return g, [draw(window) for _ in range(n)], draw(st.sampled_from(ORIGINS))


# time origins: small, exact in float, Unix nanoseconds, and where floats are 1024 apart
ORIGINS = (0, 2 ** 40, 17 * 10 ** 17, 2 ** 62)


@PROFILE
@given(windowed_multigraphs())
def test_index_equals_oracle(case):
    g, windows, origin = case
    idx = motif.build_index(g, np.array(windows), CATALOG, nodes=np.arange(g.n), cap=None)
    want = brute_force_instances(g, CATALOG, dict(enumerate(windows)))
    assert index_as_sets(idx) == want
    assert idx.total_instances() == sum(map(len, want.values()))  # no duplicate rows
    # the same graph later in time: the same instances, each t_max shifted
    moved = build_graph(g.n, g.src, g.dst, g.timestamp + origin)
    got = motif.build_index(moved, np.array(windows), CATALOG, nodes=np.arange(g.n), cap=None)
    for name in ("node_ids", "node_windows", "offsets", "owner", "type_id", "nodes", "edges"):
        np.testing.assert_array_equal(getattr(got, name), getattr(idx, name), err_msg=name)
    active = idx.node_starts != NO_TIMESTAMP
    np.testing.assert_array_equal(got.node_starts, np.where(active, idx.node_starts + origin,
                                                            NO_TIMESTAMP))
    np.testing.assert_array_equal(got.t_max, idx.t_max + origin)
    assert index_as_sets(got) == brute_force_instances(moved, CATALOG, dict(enumerate(windows)))


@st.composite
def chunked_graphs(draw):
    """A graph on 20-40 nodes whose edges join nearby ids, so triangles and parallel
    edges are common, per-node windows, and a neighbour-table budget of 1-3 rows."""
    n = draw(st.integers(20, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3),
                                    st.integers(0, 30)), min_size=30, max_size=60))
    src = [s for s, _, _ in edges]
    dst = [(s + step) % n for s, step, _ in edges]
    ts = [t for _, _, t in edges]
    if max(ts) == min(ts):
        ts[0] += 1
    g = build_graph(n, src, dst, ts)
    tau = float(g.tau_max)
    windows = [draw(st.integers(1, int(tau)).map(float)) for _ in range(n)]
    return g, windows, draw(st.integers(1, 3)) * n


@settings(PROFILE, max_examples=60)
@given(chunked_graphs())
def test_chunked_neighbour_table_equals_oracle(case):
    g, windows, budget = case
    want = motif.build_index(g, np.array(windows), CATALOG, nodes=np.arange(g.n), cap=None)
    with mock.patch.object(motif, "TABLE_BYTES", budget):
        got = motif.build_index(g, np.array(windows), CATALOG, nodes=np.arange(g.n), cap=None)
    for name in ("offsets", "owner", "type_id", "nodes", "edges", "t_max"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert index_as_sets(got) == brute_force_instances(g, CATALOG, dict(enumerate(windows)))


@pytest.mark.parametrize("small", [False, True], ids=["default_budgets", "split_budgets"])
@PROFILE
@given(case=windowed_multigraphs(), cap=st.integers(1, 3))
def test_capped_tau_index_restricted_equals_capped_build(small, case, cap):
    # a smaller window keeps a prefix of each (node, type) in the cap's order, so
    # restricting the capped tau index gives the capped index at those windows
    g, windows, _ = case
    nodes, windows = np.arange(g.n), np.array(windows)
    with mock.patch.object(motif, "BATCH_ROWS", 8 if small else motif.BATCH_ROWS), \
            mock.patch.object(motif, "TABLE_BYTES", g.n if small else motif.TABLE_BYTES):
        wide = motif.build_index(g, np.full(g.n, float(g.tau_max)), CATALOG, nodes=nodes,
                                 cap=cap)
        got = wide.restrict(windows)
        want = motif.build_index(g, windows, CATALOG, nodes=nodes, cap=cap)
    for name in motif._COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.cap == want.cap == cap

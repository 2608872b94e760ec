"""Property test: the motif index equals the brute-force oracle on random multigraphs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tmgad import motif  # noqa: E402
from tmgad.txgraph import build_graph  # noqa: E402

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
    return g, [draw(window) for _ in range(n)]


@PROFILE
@given(windowed_multigraphs())
def test_index_equals_oracle(case):
    g, windows = case
    idx = motif.build_index(g, np.array(windows), CATALOG, nodes=np.arange(g.n), cap=None)
    want = brute_force_instances(g, CATALOG, dict(enumerate(windows)))
    assert index_as_sets(idx) == want
    assert idx.total_instances() == sum(map(len, want.values()))  # no duplicate rows

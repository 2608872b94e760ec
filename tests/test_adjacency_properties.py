"""Property test: the normalized adjacency is what `diffcore.spmm` assumes.

`spmm` multiplies by its constant in both directions, for the input and for
its gradient, so Â must equal its transpose exactly and keep sorted indices;
then Â's CSC product sums each entry in the order its CSR transpose does.
Graphs have few nodes, so many edges are parallel or reversed, and may end in
isolated nodes.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tmgad.txgraph import build_graph, normalized_adjacency  # noqa: E402

# fixed and offline: the same examples on every run, no example database
PROFILE = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow])


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          max_size=40))
    isolated = draw(st.integers(0, 3))
    src = [s for s, _ in edges]
    dst = [(s + step) % n for s, step in edges]
    return build_graph(n + isolated, src, dst, np.zeros(len(edges), dtype=np.int64))


@PROFILE
@given(multigraphs(), st.integers(1, 4))
def test_symmetric_with_sorted_indices(g, cols):
    a = normalized_adjacency(g)
    at = a.T.tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, name), getattr(at, name), err_msg=name)
    rows = np.split(a.indices, a.indptr[1:-1])
    assert all(np.all(r[1:] > r[:-1]) for r in rows)
    x = np.random.default_rng(g.num_edges).normal(size=(g.n, cols))
    assert (a.T @ x).tobytes() == (a @ x).tobytes()

"""Property test: a graph read from CSV files comes back from its cache bit for bit.

Edge lists have timestamps anywhere in [0, 2**63 - 1], missing (NaN) amounts,
nodes without edges and unlabeled nodes. The CSVs go through ingest
(`read_edge_list`, then `attach_features_labels`), the graph through
`save_cache`, and `read_cache` must return the same arrays.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tmgad import txgraph as tg  # noqa: E402

from oracles import earliest_loop, write_edge_csv  # noqa: E402

# fixed and offline: the same examples on every run, no example database
PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.function_scoped_fixture])

LAST = 2 ** 63 - 1
TIMESTAMP = st.one_of(st.integers(0, LAST), st.sampled_from([0, 1, 2 ** 53 + 1, LAST - 1, LAST]))
AMOUNT = st.one_of(st.just(float("nan")), st.floats(0, 1e12, allow_nan=False))
FEATURE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ingested(draw):
    """The graph the drawn edge list describes, and its features and labels."""
    n = draw(st.integers(2, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                    TIMESTAMP, AMOUNT), min_size=1, max_size=20))
    src = [s for s, _, _, _ in edges]
    dst = [(s + step) % n for s, step, _, _ in edges]
    g = tg.build_graph(max(src + dst) + 1, src, dst, [t for _, _, t, _ in edges],
                       [a for _, _, _, a in edges])
    k = draw(st.integers(1, 3))
    features = np.array(draw(st.lists(FEATURE, min_size=g.n * k, max_size=g.n * k)))
    labels = draw(st.lists(st.sampled_from([0, 1, tg.UNLABELED]), min_size=g.n,
                           max_size=g.n))
    return tg.set_features_labels(g, features.reshape(g.n, k), labels)


def columns(g):
    arrays = (g.src, g.dst, g.timestamp, g.amount, g.t_earliest, g.features, g.labels)
    return g.n, g.tau_max, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@PROFILE
@given(want=ingested())
def test_csv_to_cache_round_trip(tmp_path, want):
    write_edge_csv(want, tmp_path / "edges.csv")
    with open(tmp_path / "features.csv", "w") as f:
        for row in want.features:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(tmp_path / "labels.csv", "w") as f:
        for v, y in enumerate(want.labels.tolist()):
            if y != tg.UNLABELED or v % 2:  # an unlabeled node is marked or left out
                f.write(f"{v},{y}\n")
    g, id_map = tg.read_edge_list(tmp_path / "edges.csv")
    g = tg.attach_features_labels(g, tmp_path / "features.csv", tmp_path / "labels.csv")
    assert id_map is None
    assert columns(g) == columns(want)
    np.testing.assert_array_equal(g.t_earliest, earliest_loop(g.n, g.src, g.dst, g.timestamp))
    tg.save_cache(g, tmp_path / "graph.cache", {"source": "edges.csv"})
    back, provenance = tg.read_cache(tmp_path / "graph.cache")
    assert provenance == {"source": "edges.csv"}
    assert columns(back) == columns(g)

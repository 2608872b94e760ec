"""Catalog generation, canonical typing, windowed enumeration, analysis stats."""

import dataclasses
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest

from tmgad import motif
from tmgad.txgraph import build_graph

from oracles import (brute_force_instances, canonical_type, index_as_sets, index_from_instances,
                     earliest_rows, orbit_count_focal_rooted, orbit_count_unrooted, pearson_two_pass,
                     permute_sequence, random_graph)


@pytest.fixture(scope="module")
def rooted():
    return motif.build_catalog(motif.FOCAL_ROOTED)


@pytest.fixture(scope="module")
def unrooted():
    return motif.build_catalog(motif.UNROOTED)


class TestCatalog:
    def test_sizes_match_orbit_oracle(self, rooted, unrooted):
        assert unrooted.size == orbit_count_unrooted() == 32
        assert rooted.size == orbit_count_focal_rooted() == 96

    def test_every_spanning_sequence_maps(self, rooted, unrooted):
        seqs = motif.spanning_sequences()
        assert len(seqs) == 192
        for seq in seqs:
            canonical_type(seq, None, motif.UNROOTED, unrooted)
            for focal in range(3):
                canonical_type(seq, focal, motif.FOCAL_ROOTED, rooted)

    def test_two_node_encoding_absent(self, unrooted):
        assert ((0, 1), (0, 1), (0, 1)) not in unrooted.types

    def test_no_duplicates_and_sorted(self, rooted, unrooted):
        for cat in (rooted, unrooted):
            assert len(set(cat.types)) == len(cat.types)
            assert list(cat.types) == sorted(cat.types)

    def test_unknown_mode_rejected(self):
        with pytest.raises(motif.MotifError):
            motif.build_catalog("sideways")


class TestCanonicalType:
    def test_isomorphism_invariance(self, unrooted):
        a = canonical_type(((7, 8), (8, 9), (9, 7)), None, motif.UNROOTED, unrooted)
        b = canonical_type(((1, 5), (5, 3), (3, 1)), None, motif.UNROOTED, unrooted)
        assert a == b

    def test_direction_asymmetry(self, unrooted):
        cycle = canonical_type(((0, 1), (1, 2), (2, 0)), None, motif.UNROOTED, unrooted)
        other = canonical_type(((0, 1), (2, 1), (2, 0)), None, motif.UNROOTED, unrooted)
        assert cycle != other

    def test_relabeling_soundness(self, rooted, unrooted):
        rng = np.random.default_rng(0)
        for _ in range(40):
            seq = motif.spanning_sequences()[rng.integers(0, 192)]
            base_u = canonical_type(seq, None, motif.UNROOTED, unrooted)
            for perm in permutations(range(3)):
                assert canonical_type(permute_sequence(seq, perm), None,
                                      motif.UNROOTED, unrooted) == base_u
            focal = int(rng.integers(0, 3))
            base_r = canonical_type(seq, focal, motif.FOCAL_ROOTED, rooted)
            for perm in permutations(range(3)):
                assert canonical_type(permute_sequence(seq, perm), perm[focal],
                                      motif.FOCAL_ROOTED, rooted) == base_r

    def test_rooted_distinguishes_focal_role(self, rooted):
        seq = ((0, 1), (1, 2), (0, 2))
        ids = {canonical_type(seq, f, motif.FOCAL_ROOTED, rooted) for f in range(3)}
        assert len(ids) == 3

    def test_errors(self, rooted):
        with pytest.raises(motif.MotifError, match="3 nodes"):
            canonical_type(((0, 1), (1, 0), (0, 1)), 0, motif.FOCAL_ROOTED, rooted)
        with pytest.raises(motif.MotifError, match="focal"):
            canonical_type(((0, 1), (1, 2), (2, 0)), 9, motif.FOCAL_ROOTED, rooted)


def instances(g, v, delta, catalog):
    """Focal node v's instances at window delta, from a one-node uncapped `build_index`,
    in its (type, edges) order. Each window's end is clamped to the graph's last
    timestamp, so a delta past tau_max holds what tau_max holds."""
    windows = np.full(g.n, min(delta, float(g.tau_max)))
    by_type = motif.build_index(g, windows, catalog, nodes=[v], cap=None).instances_at(v)
    return [m for t in sorted(by_type) for m in by_type[t]]


class TestEnumerate:
    def test_star_example(self, rooted):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], [1, 2, 3])
        insts = instances(g, 0, 10.0, rooted)
        assert len(insts) == 1
        inst = insts[0]
        assert rooted.types[inst.type_id] == (((0, 1), (0, 2), (1, 2)), 0)
        assert inst.t_max == 3

    def test_window_excludes_late_edge(self, rooted):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], [1, 2, 3])
        assert instances(g, 0, 1.5, rooted) == []

    def test_window_holds_edges_up_to_start_plus_floor_delta(self, rooted):
        # node 0 starts at 8; 8 + nextafter(3, 0) rounds to 11.0 in float, but the
        # window holds t - 8 <= floor(delta) = 2, so the triangle closing at 11 is out
        g = build_graph(3, [0, 1, 0, 1], [1, 2, 2, 0], [8, 9, 11, 30])
        _, t_max = check_window_rule(rooted, g, [float(np.nextafter(3.0, 0.0)), 3.0])
        assert t_max == [[], [11]]

    def test_isolated_node_empty(self, rooted):
        g = build_graph(4, [0, 1], [1, 2], [1, 2])
        assert instances(g, 3, 5.0, rooted) == []

    def test_matches_bruteforce_oracle(self, rooted):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = random_graph(rng, max_nodes=9, max_edges=26, max_ts=40)
            delta = float(rng.uniform(1.0, 45.0))
            windows = {v: delta for v in range(g.n)}
            want = brute_force_instances(g, rooted, windows)
            for v in range(g.n):
                insts = instances(g, v, delta, rooted)
                assert {(m.edges, m.type_id) for m in insts} == want[v], f"node {v} delta {delta}"
                assert insts == sorted(insts, key=lambda m: (m.type_id, m.edges))

    def test_repeated_pair_instances_allowed(self, rooted):
        # two parallel 0->1 plus 1->2 spans three nodes
        g = build_graph(3, [0, 0, 1], [1, 1, 2], [1, 2, 3])
        insts = instances(g, 0, 10.0, rooted)
        assert len(insts) == 1
        assert insts[0].edges == (0, 1, 2)


class TestCandidatePruning:
    """Each rule that admits or drops a third-node pair, at focal 0 (a = 1, b = 2)."""

    @staticmethod
    def check(rooted, edges, delta, at_focal):
        src, dst, ts = zip(*edges)
        g = build_graph(max(max(src), max(dst)) + 1, src, dst, ts)
        idx = motif.build_index(g, np.full(g.n, delta), rooted, nodes=np.arange(g.n),
                                cap=None)
        want = brute_force_instances(g, rooted, {v: delta for v in range(g.n)})
        assert index_as_sets(idx) == want
        assert len(want[0]) == at_focal

    def test_single_edge_triangle(self, rooted):
        self.check(rooted, [(0, 1, 1), (0, 2, 2), (1, 2, 3)], 2.0, 1)

    def test_two_v_a_edges_and_one_v_b_edge_without_a_b(self, rooted):
        self.check(rooted, [(0, 1, 1), (1, 0, 2), (0, 2, 3)], 2.0, 1)

    def test_b_reached_only_through_two_a_b_edges(self, rooted):
        self.check(rooted, [(0, 1, 1), (1, 2, 2), (2, 1, 3)], 2.0, 1)

    def test_three_v_a_edges_only(self, rooted):
        self.check(rooted, [(0, 1, 1), (1, 0, 2), (0, 1, 3)], 2.0, 0)

    def test_one_v_a_and_one_v_b_edge_without_a_b(self, rooted):
        self.check(rooted, [(0, 1, 1), (2, 0, 2), (1, 3, 3)], 2.0, 0)

    def test_a_b_pair_repeated_in_the_graph_but_not_in_the_window(self, rooted):
        # {1, 2} has two edges, so its entry survives the filter; the window holds one
        self.check(rooted, [(0, 1, 1), (1, 2, 2), (2, 1, 9)], 2.0, 0)

    def test_two_v_a_edges_and_an_a_b_edge_to_a_non_neighbour(self, rooted):
        self.check(rooted, [(0, 1, 1), (1, 0, 2), (1, 2, 3)], 2.0, 1)

    @pytest.mark.parametrize("delta, at_focal", [(4.0, 0), (5.0, 1)])
    def test_a_b_edge_at_the_window_end(self, rooted, delta, at_focal):
        self.check(rooted, [(0, 1, 0), (0, 2, 1), (1, 2, 5)], delta, at_focal)


class TestBatchedEnumeration:
    """Cases the batched enumerator must get right beyond small random graphs."""

    def test_hub_above_the_batch_budget(self, rooted, monkeypatch):
        rng = np.random.default_rng(23)
        leaves = 20  # 30 hub edges, and 15 edges among the leaves
        src = np.r_[np.zeros(30, dtype=np.int64), rng.integers(1, leaves + 1, 15)]
        dst, ts = rng.integers(1, leaves + 1, 45), rng.integers(0, 30, 45)
        keep = src != dst
        g = build_graph(leaves + 1, src[keep], dst[keep], ts[keep])
        tau = float(g.tau_max)
        want = motif.build_index(g, np.full(g.n, tau), rooted, nodes=np.arange(g.n), cap=None)
        monkeypatch.setattr(motif, "BATCH_ROWS", 8)
        assert g.incident_with_ts(0)[0].size > motif.BATCH_ROWS
        got = motif.build_index(g, np.full(g.n, tau), rooted, nodes=np.arange(g.n), cap=None)
        assert index_as_sets(got) == brute_force_instances(g, rooted, {v: tau for v in range(g.n)})
        assert len(index_as_sets(got)[0]) > motif.BATCH_ROWS
        assert_same_columns(got, want)

    @pytest.mark.parametrize("focal_per_chunk", [1, 2])
    def test_neighbour_table_chunks_do_not_change_columns(self, rooted, monkeypatch,
                                                          focal_per_chunk):
        rng = np.random.default_rng(24)
        g = with_isolated(random_graph(rng, max_nodes=30, max_edges=120, max_ts=40), 3)
        tau = float(g.tau_max)
        cases = [dict(windows=np.full(g.n, tau), cap=None),
                 dict(windows=rng.uniform(0.2, 1.0, g.n) * tau, cap=2)]
        whole = [motif.build_index(g, catalog=rooted, nodes=np.arange(g.n), **c) for c in cases]
        monkeypatch.setattr(motif, "TABLE_BYTES", focal_per_chunk * g.n)
        for c, want in zip(cases, whole):
            got = motif.build_index(g, catalog=rooted, nodes=np.arange(g.n), **c)
            assert_same_columns(got, want)
        assert index_as_sets(whole[0]) == brute_force_instances(
            g, rooted, {v: tau for v in range(g.n)})
        assert whole[0].total_instances() > 100

    def test_sparse_graph_with_every_node_focal_stays_small(self, rooted):
        # the neighbour table is bounded by TABLE_BYTES; one row per focal node of a
        # batch would take gigabytes here
        n, rng = 100_000, np.random.default_rng(25)
        src, dst = rng.integers(0, n, n // 10), rng.integers(0, n, n // 10)
        keep = src != dst
        pair = np.arange(0, n, 2)  # disjoint pairs, with an edge each way
        src = np.r_[pair, pair + 1, src[keep]]
        dst = np.r_[pair + 1, pair, dst[keep]]
        g = build_graph(n, src, dst, rng.integers(0, 1000, src.size))
        g.incidence()
        tracemalloc.start()
        try:
            idx = motif.build_index(g, np.full(n, float(g.tau_max)), rooted,
                                    nodes=np.arange(n), cap=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20, f"build_index peaked at {peak / 2 ** 20:.1f} MiB"
        assert idx.total_instances() > 1000

    def test_window_end_is_exact_above_2_pow_53(self, rooted):
        # floats are 256 apart at 2**60, yet node 0's window, first active at base,
        # ends at base + floor(delta) = base + 200 exactly: the a-b edge at base + 200
        # is in, the two edges at base + 201 are out
        base = 2 ** 60
        edges = [(0, 1, 0), (0, 3, 5), (0, 2, 10), (1, 2, 200), (2, 0, 201), (3, 1, 201),
                 (1, 0, 300)]
        src, dst, off = zip(*edges)
        g = build_graph(4, src, dst, [base + t for t in off])
        _, t_max = check_window_rule(rooted, g, [200.0, float(np.nextafter(201.0, 0.0)), 201.0])
        assert [max(t) - base for t in t_max] == [200, 200, 201]

    def test_timestamps_0_and_int64_max(self, rooted):
        # tau = 2**63 - 1 rounds up to the window 2**63; node 3, first active at the
        # last tick, has a window that would end past it
        last = 2 ** 63 - 1
        edges = [(0, 1, 0), (1, 2, 0), (2, 0, 0), (3, 4, last), (4, 5, last), (5, 3, last),
                 (0, 3, last), (1, 3, last)]
        src, dst, ts = zip(*edges)
        g = build_graph(7, src, dst, ts)  # node 6 is isolated
        assert g.tau_max == last and g.t_earliest.tolist() == [0, 0, 0, last, last, last, -1]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            full, t_max = check_window_rule(rooted, g, [float(g.tau_max), 1.0])
        assert len(t_max[0]) > len(t_max[1]) > 0
        assert len(index_as_sets(full)[3]) > 0

    def test_node_ids_beyond_2_1_million(self, rooted):
        # (v * n + a) * n + b overflows int64 for these node ids; no key may take that form
        first = 2_100_000
        edges = [(0, 1, 1), (0, 2, 2), (1, 2, 3), (2, 0, 4), (3, 0, 5), (1, 3, 6), (3, 2, 7)]
        src, dst, ts = zip(*edges)
        n = first + 4
        assert n ** 3 >= 2 ** 63
        g = build_graph(n, [first + s for s in src], [first + d for d in dst], ts)
        nodes = [5, *range(first, n)]  # node 5 is isolated
        idx = motif.build_index(g, np.full(n, float(g.tau_max)), rooted, nodes=nodes, cap=None)
        want = brute_force_instances(g, rooted, {v: float(g.tau_max) for v in nodes})
        assert index_as_sets(idx) == want
        assert want[5] == set() and sum(map(len, want.values())) > 0


class TestIndex:
    def make_graph(self):
        rng = np.random.default_rng(21)
        return random_graph(rng, max_nodes=10, max_edges=30, max_ts=40)

    def test_full_window_matches_oracle(self, rooted):
        g = self.make_graph()
        tau = float(g.tau_max)
        windows = np.full(g.n, tau)
        idx = motif.build_index(g, windows, rooted, nodes=np.arange(g.n), cap=None)
        want = brute_force_instances(g, rooted, {v: tau for v in range(g.n)})
        assert index_as_sets(idx) == want

    def test_epsilon_window_empty(self, rooted):
        g = self.make_graph()
        idx = motif.build_index(g, np.full(g.n, 1e-9), rooted, nodes=np.arange(g.n))
        assert idx.total_instances() == 0

    def test_window_monotonicity(self, rooted):
        g = self.make_graph()
        small = motif.build_index(g, np.full(g.n, 10.0), rooted,
                                  nodes=np.arange(g.n), cap=None)
        large = motif.build_index(g, np.full(g.n, 20.0), rooted,
                                  nodes=np.arange(g.n), cap=None)
        s, l = index_as_sets(small), index_as_sets(large)
        for v in s:
            assert s[v] <= l[v]

    def test_out_of_bounds_window_names_node(self, rooted):
        g = self.make_graph()
        windows = np.full(g.n, float(g.tau_max))
        windows[3] = g.tau_max * 2.0
        with pytest.raises(motif.MotifError, match="node 3"):
            motif.build_index(g, windows, rooted, nodes=np.arange(g.n))

    def test_no_duplicate_triples(self, rooted):
        g = self.make_graph()
        idx = motif.build_index(g, np.full(g.n, float(g.tau_max)), rooted,
                                nodes=np.arange(g.n), cap=None)
        for v, types in idx.per_node.items():
            triples = [m.edges for lst in types.values() for m in lst]
            assert len(triples) == len(set(triples))

    def test_serialized_index_deterministic(self, rooted, tmp_path):
        g = self.make_graph()
        windows = np.full(g.n, float(g.tau_max) / 2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        motif.write_index_csv(motif.build_index(g, windows, rooted,
                                                nodes=np.arange(g.n)), p1)
        motif.write_index_csv(motif.build_index(g, windows, rooted,
                                                nodes=np.arange(g.n)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_batching_does_not_change_columns(self, rooted, monkeypatch):
        rng = np.random.default_rng(22)
        g = with_isolated(random_graph(rng, max_nodes=12, max_edges=50, max_ts=40), 2)
        tau = float(g.tau_max)
        cases = [dict(windows=np.full(g.n, tau), cap=None),
                 dict(windows=rng.uniform(0.2, 1.0, g.n) * tau, cap=2)]
        whole = [motif.build_index(g, catalog=rooted, nodes=np.arange(g.n), **c) for c in cases]
        monkeypatch.setattr(motif, "BATCH_ROWS", 1)  # one focal node, one triple per batch
        for c, want in zip(cases, whole):
            got = motif.build_index(g, catalog=rooted, nodes=np.arange(g.n), **c)
            assert_same_columns(got, want)
        assert sum(w.total_instances() for w in whole) > 0

    def test_cap_keeps_earliest(self, rooted):
        # parallel 0->1 edges with 1->2 edges between them: several types, and
        # within each, instances that close at different times
        src = [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1]
        dst = [1, 2, 1, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2]
        g = build_graph(3, src, dst, list(range(1, len(src) + 1)))
        windows, cap = np.full(3, float(g.tau_max)), 3
        full = motif.build_index(g, windows, rooted, nodes=[0], cap=None)
        capped = motif.build_index(g, windows, rooted, nodes=[0], cap=cap)
        assert capped.per_node[0].keys() == full.per_node[0].keys()
        binds = 0
        for tid, insts in full.per_node[0].items():
            by_recency = sorted(insts, key=lambda m: m.edges[::-1])
            kept = sorted(capped.per_node[0][tid], key=lambda m: m.edges[::-1])
            assert kept == by_recency[:cap]
            dropped = by_recency[cap:]
            if dropped:
                binds += 1
                # no dropped instance closes before a kept one, and some close later
                last_kept = max(m.t_max for m in kept)
                assert last_kept <= min(m.t_max for m in dropped)
                assert last_kept < max(m.t_max for m in dropped)
        assert binds >= 2


def with_isolated(g, extra):
    """The same edges on `extra` more nodes, which have none."""
    return build_graph(g.n + extra, g.src, g.dst, g.timestamp)


COLUMNS = ("node_ids", "node_windows", "node_starts", "offsets",
           "owner", "type_id", "nodes", "edges", "t_max")


def assert_same_columns(got, want):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def check_window_rule(rooted, g, deltas):
    """(tau index, node 0's sorted instance t_max at each delta), after checking that
    `build_index` for all nodes and for node 0, `restrict` of the tau index and the oracle
    agree."""
    nodes = np.arange(g.n)
    full = motif.build_index(g, np.full(g.n, float(g.tau_max)), rooted, nodes=nodes, cap=None)
    t_max = []
    for delta in deltas:
        windows = np.full(g.n, delta)
        idx = motif.build_index(g, windows, rooted, nodes=nodes, cap=None)
        assert_same_columns(full.restrict(windows), idx)
        want = brute_force_instances(g, rooted, dict(enumerate(windows)))
        assert index_as_sets(idx) == want
        insts = instances(g, 0, delta, rooted)
        assert {(m.edges, m.type_id) for m in insts} == want[0]
        t_max.append(sorted(m.t_max for m in insts))
    return full, t_max


class TestRestrict:
    def test_equals_fresh_build(self, rooted, tmp_path):
        # a capped tau index, restricted, is the capped index at the smaller windows
        rng = np.random.default_rng(31)
        for trial in range(30):
            g = with_isolated(random_graph(rng, max_nodes=12, max_edges=50, max_ts=40), 2)
            tau = float(g.tau_max)
            nodes = np.arange(g.n) if trial % 2 else rng.choice(g.n, g.n // 2, replace=False)
            for cap in (None, 1, 2):
                full = motif.build_index(g, np.full(g.n, tau), rooted, nodes=nodes, cap=cap)
                windows = rng.uniform(0.02, 1.0, g.n) * tau
                got = full.restrict(windows)
                want = motif.build_index(g, windows, rooted, nodes=nodes, cap=cap)
                assert_same_columns(got, want)
                assert (got.cap, got.tau_max) == (want.cap, want.tau_max)
                motif.write_index_csv(got, tmp_path / "got.csv")
                motif.write_index_csv(want, tmp_path / "want.csv")
                assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_cap_binds_in_the_checked_graphs(self, rooted):
        # the equality above is only worth something if the cap drops instances
        rng = np.random.default_rng(31)
        g = with_isolated(random_graph(rng, max_nodes=12, max_edges=50, max_ts=40), 2)
        windows = np.full(g.n, float(g.tau_max))
        full = motif.build_index(g, windows, rooted, nodes=np.arange(g.n), cap=None)
        capped = motif.build_index(g, windows, rooted, nodes=np.arange(g.n), cap=1)
        assert capped.total_instances() < full.total_instances()

    def test_anchor_offsets_and_smaller_enumerated_windows(self, rooted):
        rng = np.random.default_rng(32)
        g = random_graph(rng, max_nodes=12, max_edges=50, max_ts=40)
        tau = float(g.tau_max)
        top = rng.uniform(0.5, 1.0, g.n) * tau
        full = motif.build_index(g, top, rooted, nodes=np.arange(g.n), cap=3)
        assert np.unique(full.node_starts).size > 1  # each window starts at its node's anchor
        windows = top * rng.uniform(0.1, 1.0, g.n)
        got = full.restrict(windows)
        want = motif.build_index(g, windows, rooted, nodes=np.arange(g.n), cap=3)
        assert_same_columns(got, want)

    def test_rejects_window_above_enumerated(self, rooted):
        g = with_isolated(random_graph(np.random.default_rng(33)), 1)
        tau = float(g.tau_max)
        full = motif.build_index(g, np.full(g.n, tau / 2), rooted, nodes=np.arange(g.n),
                                 cap=None)
        windows = np.full(g.n, tau / 4)
        windows[2] = tau / 2 + 1.0
        with pytest.raises(motif.MotifError, match="node 2 exceeds the enumerated"):
            full.restrict(windows)
        windows[2] = tau / 2
        full.restrict(windows)  # equal to the enumerated window is fine

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, "over_tau"])
    def test_rejects_window_outside_bounds(self, rooted, bad):
        g = random_graph(np.random.default_rng(34))
        tau = float(g.tau_max)
        full = motif.build_index(g, np.full(g.n, tau), rooted, nodes=np.arange(g.n), cap=4)
        windows = np.full(g.n, tau / 2)
        windows[3] = tau * 2.0 if bad == "over_tau" else bad
        with pytest.raises(motif.MotifError, match="window for node 3 out of bounds"):
            full.restrict(windows)
        with pytest.raises(motif.MotifError, match="window for node 3 out of bounds"):
            motif.build_index(g, windows, rooted, nodes=np.arange(g.n))


class TestCapWhereItBinds:
    """The cap's pass runs only when a (node, type) segment exceeds the cap."""

    @pytest.mark.parametrize("batch_rows", [motif.BATCH_ROWS, 1])
    def test_columns_when_the_cap_binds_for_some_segments_and_for_none(
            self, rooted, monkeypatch, batch_rows):
        rng = np.random.default_rng(38)
        g = with_isolated(random_graph(rng, max_nodes=12, max_edges=50, max_ts=40), 2)
        nodes, tau = np.arange(g.n), float(g.tau_max)
        windows = rng.uniform(0.5, 1.0, g.n) * tau
        full = motif.build_index(g, windows, rooted, nodes=nodes, cap=None)
        sizes = np.unique(np.column_stack([full.owner, full.type_id]), axis=0,
                          return_counts=True)[1]
        some = int(np.median(sizes))
        assert (sizes > some).any() and (sizes <= some).any()
        monkeypatch.setattr(motif, "BATCH_ROWS", batch_rows)
        node_of_row = np.repeat(np.arange(full.node_ids.size), np.diff(full.offsets))
        for cap in (some, int(sizes.max())):
            keep = earliest_rows(full, cap)
            wide = motif.build_index(g, np.full(g.n, tau), rooted, nodes=nodes, cap=cap)
            for got in (motif.build_index(g, windows, rooted, nodes=nodes, cap=cap),
                        wide.restrict(windows)):
                for name in ("node_ids", "node_windows", "node_starts"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(full, name))
                for name in ("owner", "type_id", "nodes", "edges", "t_max"):
                    np.testing.assert_array_equal(getattr(got, name),
                                                  getattr(full, name)[keep], err_msg=name)
                np.testing.assert_array_equal(
                    np.diff(got.offsets), np.bincount(node_of_row[keep],
                                                      minlength=full.node_ids.size))
        assert earliest_rows(full, int(sizes.max())).all()


class TestIndexColumns:
    def make_index(self, rooted):
        g = random_graph(np.random.default_rng(36))
        return motif.build_index(g, np.full(g.n, float(g.tau_max)), rooted,
                                 nodes=np.arange(g.n), cap=None)

    def test_columns_are_read_only(self, rooted):
        idx = self.make_index(rooted)
        assert idx.total_instances() > 0
        for name in COLUMNS:
            col = getattr(idx, name)
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[-1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(idx, name, col.copy())

    def test_views_are_read_only(self, rooted):
        idx = self.make_index(rooted)
        v = int(idx.node_ids[0])
        for view in (idx.per_node, idx.windows, idx.instances_at(v)):
            with pytest.raises(TypeError):
                view[v] = None

    def test_rows_follow_owner_type_edges_order(self, rooted):
        idx = self.make_index(rooted)
        keys = np.column_stack([idx.owner, idx.type_id, idx.edges])
        assert all(tuple(a) < tuple(b) for a, b in zip(keys[:-1].tolist(), keys[1:].tolist()))
        np.testing.assert_array_equal(idx.owner, idx.nodes[:, 0])
        np.testing.assert_array_equal(np.diff(idx.offsets),
                                      [(idx.owner == v).sum() for v in idx.node_ids])


class TestAnalysis:
    def test_histogram_empty_and_single(self, rooted, tmp_path):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], [1, 2, 3])
        labels = np.array([1, 0, 0], dtype=np.int8)
        idx = motif.build_index(g, np.full(3, 2.0), rooted, nodes=[0, 1, 2])
        table = motif.motif_histogram({2.0: idx}, labels)
        # node 0 is fraud and owns one instance; others own one each as members
        tid = next(iter(idx.per_node[0]))
        assert table[(2.0, tid, 1)] == 1
        empty = motif.motif_histogram({}, labels)
        assert empty == {}
        motif.write_histogram_csv(table, [2.0], rooted.size, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "delta,type_id,label,count"
        assert len(lines) == 1 + rooted.size * 2

    def test_correlation_identical_vectors(self, rooted):
        insts = [motif.MotifInstance(0, (0, 1, 2), (0, 1, 2), 3, 5),
                 motif.MotifInstance(0, (0, 1, 2), (0, 1, 3), 7, 6)]
        idx = index_from_instances(
            rooted.size,
            {0: {3: [insts[0]], 7: [insts[1]]},
             1: {3: [insts[0]], 7: [insts[1]]},
             2: {3: [insts[0], insts[0]], 7: [insts[1], insts[1]]}})
        corr = motif.motif_cross_correlation(idx, [0, 1, 2])
        assert corr[3, 7] == pytest.approx(1.0)
        assert corr[3, 3] == 1.0

    def test_zero_variance_sentinel(self, rooted):
        i0 = motif.MotifInstance(0, (0, 1, 2), (0, 1, 2), 0, 5)
        idx = index_from_instances(rooted.size,
                                   {0: {0: [i0]}, 1: {0: [i0, i0]}})
        corr = motif.motif_cross_correlation(idx, [0, 1])
        dead = 5  # type with zero counts everywhere
        assert corr[dead, dead] == 1.0
        assert np.all(corr[dead, np.arange(rooted.size) != dead] == 0.0)
        assert np.all(corr[np.arange(rooted.size) != dead, dead] == 0.0)

    def test_correlation_matches_pearson_oracle(self, rooted):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 6, size=(8, rooted.size))
        inst = motif.MotifInstance(0, (0, 1, 2), (0, 1, 2), 0, 5)
        idx = index_from_instances(rooted.size, {
            v: {t: [inst] * int(counts[v, t]) for t in range(rooted.size) if counts[v, t]}
            for v in range(8)})
        got = motif.motif_cross_correlation(idx, list(range(8)))
        want = pearson_two_pass(counts)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_subset_too_small(self, rooted):
        idx = index_from_instances(rooted.size, {0: {}})
        with pytest.raises(motif.MotifError):
            motif.motif_cross_correlation(idx, [0])

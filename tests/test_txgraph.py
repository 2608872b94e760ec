"""Graph ingest, adjacency normalization, splits, cache."""

import json
import zipfile

import numpy as np
import pytest

from tmgad import txgraph as tg
from tmgad.train import synth_burst_graph

from oracles import (earliest_loop, normalized_adjacency_from_pairs, random_graph,
                     byte_flips, write_edge_csv, write_zip, zip_members)


def write_edges(tmp_path, text, name="edges.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadEdgeList:
    def test_three_rows(self, tmp_path):
        p = write_edges(tmp_path, "0,1,10\n1,2,20\n0,2,15\n")
        g = tg.load_edge_list(p)
        assert g.n == 3
        assert g.tau_max == 10  # the time span, 20 - 10
        np.testing.assert_array_equal(g.t_earliest, [10, 10, 15])
        # sorted by timestamp
        np.testing.assert_array_equal(g.timestamp, [10, 15, 20])

    def test_empty_file(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, ""))
        assert g.n == 0 and g.num_edges == 0
        assert g.tau_max is None

    def test_header_is_skipped(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "src,dst,timestamp\n0,1,5\n"))
        assert g.num_edges == 1

    def test_header_after_comment_is_skipped(self, tmp_path):
        p = write_edges(tmp_path, "# exported 2024-01-01\n\nsrc,dst,timestamp\n0,1,5\n")
        assert tg.load_edge_list(p).num_edges == 1

    def test_hex_ids_rejected_but_read_as_data(self, tmp_path):
        p = write_edges(tmp_path, "0xa,0xb,1\n")
        with pytest.raises(tg.ParseError, match="line 1: cannot parse src from '0xa'"):
            tg.load_edge_list(p)

    @pytest.mark.parametrize("row, field, token", [
        ("1,2,inf", "timestamp", "inf"), ("1,2,nan", "timestamp", "nan"),
        ("1,-inf,3", "dst", "-inf"), ("NaN,2,3", "src", "NaN")])
    def test_non_finite_field_rejected_naming_line_and_field(self, tmp_path, row, field, token):
        with pytest.raises(tg.ParseError) as e:
            tg.load_edge_list(write_edges(tmp_path, f"src,dst,timestamp\n0,1,2\n{row}\n"))
        assert str(e.value) == f"line 3: {field} must be a finite integer, got {token!r}"

    def test_five_columns_rejected(self, tmp_path):
        with pytest.raises(tg.ParseError, match="line 2: expected 3 or 4 columns, got 5"):
            tg.load_edge_list(write_edges(tmp_path, "0,1,3\n1,2,4,0.5,9\n"))

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(tg.ValidationError, match="self-loop"):
            tg.load_edge_list(write_edges(tmp_path, "0,0,5\n"))

    def test_negative_amount_rejected_as_in_csv(self, tmp_path):
        with pytest.raises(tg.ValidationError, match="^line 2: negative amount -3.0$"):
            tg.load_edge_list(write_edges(tmp_path, "0,1,1,5.0\n1,2,2,-3.0\n"))
        with pytest.raises(tg.ValidationError, match="^negative amount -3.0$"):
            tg.build_graph(3, [0, 1], [1, 2], [1, 2], [5.0, -3.0])
        g = tg.build_graph(3, [0, 1], [1, 2], [1, 2], [np.nan, 0.0])  # NaN: no amount
        assert np.isnan(g.amount[0]) and g.amount[1] == 0.0

    def test_time_span_is_counted_from_the_first_timestamp(self):
        assert tg.build_graph(3, [0, 1], [1, 2], [7, 7]).tau_max == 0
        assert tg.build_graph(3, [0, 1], [1, 2], [10**6 + 3, 10**6 + 9]).tau_max == 6

    def test_negative_timestamp_rejected(self, tmp_path):
        with pytest.raises(tg.ValidationError, match="negative timestamp"):
            tg.load_edge_list(write_edges(tmp_path, "0,1,-3\n"))

    def test_id_beyond_int64_names_line_and_field(self, tmp_path):
        p = write_edges(tmp_path, "src,dst,ts\n1,2,3\n2,99999999999999999999,4\n")
        with pytest.raises(tg.ParseError) as e:
            tg.load_edge_list(p)
        assert str(e.value) == "line 3: dst 99999999999999999999 does not fit in a 64-bit integer"

    def test_timestamp_beyond_int64_names_line_and_field(self, tmp_path):
        p = write_edges(tmp_path, "1,2,3\n2,3,-9223372036854775809\n")
        with pytest.raises(tg.ParseError) as e:
            tg.load_edge_list(p)
        assert str(e.value) == ("line 2: timestamp -9223372036854775809 does not fit "
                                "in a 64-bit integer")

    def test_malformed_row_reports_line(self, tmp_path):
        with pytest.raises(tg.ParseError, match="line 2"):
            tg.load_edge_list(write_edges(tmp_path, "0,1,3\n0,x,4\n"))

    def test_amount_column(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,3,2.5\n1,2,4,0.5\n"))
        np.testing.assert_allclose(g.amount, [2.5, 0.5])

    def test_round_trip_preserves_edge_multiset(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(50):
            s, d = rng.integers(0, 8, 2)
            if s == d:
                continue
            rows.append(f"{s},{d},{rng.integers(0, 100)}")
        p = write_edges(tmp_path, "\n".join(rows) + "\n")
        g = tg.load_edge_list(p)
        out = tmp_path / "roundtrip.csv"
        write_edge_csv(g, out)
        g2 = tg.load_edge_list(out)
        original = sorted(tuple(map(int, r.split(","))) for r in rows)
        reloaded = sorted(zip(g2.src.tolist(), g2.dst.tolist(), g2.timestamp.tolist()))
        assert original == reloaded


class TestReadEdgeListCompact:
    def test_integer_ids_match_load_edge_list(self, tmp_path):
        p = write_edges(tmp_path, "src,dst,timestamp,amount\n3,1,10,2.5\n1,2,20,1.0\n")
        g, id_map = tg.read_edge_list(p, compact=True)
        want = tg.load_edge_list(p)
        assert id_map is None and g.n == want.n == 4
        for name in ("src", "dst", "timestamp", "amount"):
            np.testing.assert_array_equal(getattr(g, name), getattr(want, name))

    def test_tokens_compacted_in_sorted_order(self, tmp_path):
        # the first non-integer id is on line 3; line 2's integer ids become tokens too
        p = write_edges(tmp_path, "from,to,ts,amount\n7,12,1\n7,0xb,5,1.5\n"
                                  "0xb,0xa,3\n0xa,7,9,2\n")
        g, id_map = tg.read_edge_list(p, compact=True)
        assert id_map == {"0xa": 0, "0xb": 1, "12": 2, "7": 3}
        assert g.n == 4
        assert sorted(zip(g.src.tolist(), g.dst.tolist(), g.timestamp.tolist())) == \
            [(0, 3, 9), (1, 0, 3), (3, 1, 5), (3, 2, 1)]
        np.testing.assert_array_equal(np.isnan(g.amount), [True, True, False, False])

    def test_tokens_keep_their_spelling(self, tmp_path):
        # "007" is one account on lines 1 and 3, and not the account "7"
        p = write_edges(tmp_path, "007,1,1\nx,y,2\n007,z,3\n")
        g, id_map = tg.read_edge_list(p, compact=True)
        assert id_map == {"007": 0, "1": 1, "x": 2, "y": 3, "z": 4}
        assert list(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (2, 3), (0, 4)]

    @pytest.mark.parametrize("text, message", [
        ("1,2,1\n3,4,zz\n5,x,3\n", "line 2: cannot parse timestamp from 'zz'"),
        ("1,2,1\n3,4\n5,x,3\n", "line 2: expected 3 or 4 columns, got 2"),
        ("1,2,zz\n3,4\n5,x,3\n", "line 1: cannot parse timestamp from 'zz'"),
        ("99999999999999999999,2,1\n3,4\nx,y,3\n",
         "line 1: src 99999999999999999999 does not fit in a 64-bit integer"),
        ("1,2,1\n3,99999999999999999999,2\n5,6,zz\n",
         "line 2: dst 99999999999999999999 does not fit in a 64-bit integer"),
    ])
    def test_first_fault_of_the_first_bad_line_in_either_id_mode(self, tmp_path, text,
                                                                 message):
        with pytest.raises(tg.ParseError) as e:
            tg.read_edge_list(write_edges(tmp_path, text), compact=True)
        assert str(e.value) == message

    def test_big_integer_is_a_token_in_a_file_of_tokens(self, tmp_path):
        p = write_edges(tmp_path, "99999999999999999999,2,1\nx,2,2\n")
        _, id_map = tg.read_edge_list(p, compact=True)
        assert id_map == {"2": 0, "99999999999999999999": 1, "x": 2}

    def test_errors_name_the_users_line(self, tmp_path):
        p = write_edges(tmp_path, "src,dst,timestamp\n# note\n\n0xa,0xb,1\n0xb,0xc,zz\n")
        with pytest.raises(tg.ParseError, match="line 5: cannot parse timestamp"):
            tg.read_edge_list(p, compact=True)
        p = write_edges(tmp_path, "0xa,0xb,1\n\n0xc,0xc,2\n")
        with pytest.raises(tg.ValidationError, match="line 3: self-loop"):
            tg.read_edge_list(p, compact=True)


class TestFeaturesLabels:
    def test_attach(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n1,2,20\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        lp = tmp_path / "l.csv"
        lp.write_text("0,0\n1,1\n2,0\n")
        g2 = tg.attach_features_labels(g, fp, lp)
        assert g2.num_features == 2
        np.testing.assert_array_equal(g2.labels, [0, 1, 0])

    def test_dimension_mismatch_names_counts(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n1,2,20\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0,2.0\n3.0,4.0\n")
        lp = tmp_path / "l.csv"
        lp.write_text("0,0\n")
        with pytest.raises(tg.ValidationError, match="expected 3, got 2"):
            tg.attach_features_labels(g, fp, lp)

    @pytest.mark.parametrize("text, fault", [
        ("1.0,2.0\n\n3.0,x\n5.0,6.0\n", "line 3: field 2 'x' is not a number"),
        ("# export\n1.0,2.0\n3.0\n5.0,6.0\n", "line 3: expected 2 columns, got 1"),
    ])
    def test_malformed_features_name_file_and_line(self, tmp_path, text, fault):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n1,2,20\n"))
        fp = tmp_path / "f.csv"
        fp.write_text(text)
        lp = tmp_path / "l.csv"
        lp.write_text("0,0\n")
        with pytest.raises(tg.ParseError) as err:
            tg.attach_features_labels(g, fp, lp)
        assert str(err.value) == f"features file {fp} {fault}"

    def test_bad_label_value(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0\n2.0\n")
        lp = tmp_path / "l.csv"
        lp.write_text("0,2\n")
        with pytest.raises(tg.ValidationError, match="label"):
            tg.attach_features_labels(g, fp, lp)

    def test_header_after_comment_is_skipped(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0\n2.0\n")
        lp = tmp_path / "l.csv"
        lp.write_text("# labels export\nnode_id,label\n0,1\n\n1,0\n")
        np.testing.assert_array_equal(tg.attach_features_labels(g, fp, lp).labels, [1, 0])

    def test_missing_marker_leaves_unlabeled(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0\n2.0\n")
        lp = tmp_path / "l.csv"
        lp.write_text("0,1\n1,-1\n")
        g2 = tg.attach_features_labels(g, fp, lp)
        np.testing.assert_array_equal(g2.labeled_nodes(), [0])

    def test_repeated_node_rejected_naming_both_lines(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n1,2,20\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0\n2.0\n3.0\n")
        lp = tmp_path / "l.csv"
        for text, fault in [("0,1\n0,0\n1,1\n1,-1\n", "line 2: node 0 already given on line 1"),
                            ("node_id,label\n1,-1\n# c\n1,1\n",
                             "line 4: node 1 already given on line 2")]:
            lp.write_text(text)
            with pytest.raises(tg.ValidationError) as err:
                tg.attach_features_labels(g, fp, lp)
            assert str(err.value) == f"labels {fault}"

    def test_only_the_text_minus_one_marks_a_missing_label(self, tmp_path):
        g = tg.load_edge_list(write_edges(tmp_path, "0,1,10\n"))
        fp = tmp_path / "f.csv"
        fp.write_text("1.0\n2.0\n")
        lp = tmp_path / "l.csv"
        lp.write_text("0,-01\n1,1\n")
        with pytest.raises(tg.ValidationError) as err:
            tg.attach_features_labels(g, fp, lp)
        assert str(err.value) == "labels line 1: label must be 0 or 1, got -1"


def plain_files(tmp_path, n=50, m=400, seed=0):
    """Edge and labels files in the layout perfbench writes: a header, then one row per line."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = (src + rng.integers(1, n, m)) % n
    ts, amount = rng.integers(0, 1000, m), rng.exponential(5.0, m)
    edges, labels, feats = tmp_path / "edges.csv", tmp_path / "labels.csv", tmp_path / "f.csv"
    edges.write_text("src,dst,timestamp,amount\n" + "".join(
        f"{s},{d},{t},{a!r}\n" for s, d, t, a in zip(src.tolist(), dst.tolist(),
                                                    ts.tolist(), amount.tolist())))
    y = rng.integers(-1, 2, n)
    labels.write_text("node_id,label\n" + "".join(f"{v},{c}\n" for v, c in enumerate(y)))
    np.savetxt(feats, rng.normal(size=(n, 2)), delimiter=",")
    return edges, feats, labels


def assert_same_graph(g, want):
    assert g.n == want.n
    for name in ("src", "dst", "timestamp", "amount", "labels"):
        a, b = getattr(g, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestPlainFiles:
    def test_plain_files_skip_the_line_reader(self, tmp_path, monkeypatch):
        edges, feats, labels = plain_files(tmp_path)
        want, _ = tg._read_edge_lines(edges, compact=False)
        want_labels = tg._read_label_lines(labels, want.n)

        def no_line_reader(*args, **kwargs):
            raise AssertionError("the line reader ran on a plain file")
        monkeypatch.setattr(tg, "read_records", no_line_reader)
        g = tg.load_edge_list(edges)
        assert_same_graph(g, want)
        g = tg.attach_features_labels(g, feats, labels)
        assert g.labels.tobytes() == want_labels.tobytes()

    @pytest.mark.parametrize("text", [
        "# export\n0,1,5\n1,2,6\n",              # comment first
        "\n0,1,5\n1,2,6\n",                       # blank first line
        "0,1,5\n# note\n1,2,6\n",                 # comment mid-file
        "0,1,5\n  \n1,2,6\n",                     # whitespace-only line
        "src,dst,ts\n\n0,1,5\n1,2,6\n",           # blank line after the header
        "0,1.0,5\n1,2,6\n",                        # integral float id
        "0,1,5\n1_0,2,6\n",                        # underscore digit group
        "0,\u0661,5\n1,2,6\n",                     # Unicode digit
        "0,1,5.0\n1,2,6\n",                        # integral float timestamp
        "0,1,5\n1,2,6,2.5\n",                      # 3 and 4 columns mixed
        "0,1,5,2.5\n1,2,6\n",
        "0,1,5,1_5\n1,2,6,2.5\n",                  # underscore in an amount
    ])
    def test_other_files_go_through_the_line_reader(self, tmp_path, monkeypatch, text):
        p = write_edges(tmp_path, text)
        want = tg._read_edge_lines(p, compact=False)
        calls = []
        line_reader = tg._read_edge_lines
        monkeypatch.setattr(tg, "_read_edge_lines",
                            lambda *a: calls.append(a) or line_reader(*a))
        g, id_map = tg.read_edge_list(p)
        assert calls and id_map is None and g.num_edges == 2
        assert_same_graph(g, want[0])

    def test_fault_in_a_plain_file_names_its_file_line(self, tmp_path):
        rows = [f"{i % 97},{i % 97 + 1},{i}" for i in range(5000)]
        rows[4319] = "7,7,4319"  # file line 4321, after the header
        p = write_edges(tmp_path, "src,dst,timestamp\n" + "\n".join(rows) + "\n")
        with pytest.raises(tg.ValidationError) as err:
            tg.load_edge_list(p)
        assert str(err.value) == "line 4321: self-loop 7->7"


def dense_normalized(g):
    """Dense oracle: D^-1/2 (A+I) D^-1/2 on the collapsed simple graph."""
    a = np.zeros((g.n, g.n))
    for s, d in zip(g.src, g.dst):
        a[s, d] = a[d, s] = 1.0
    a += np.eye(g.n)
    dinv = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    return dinv @ a @ dinv


class TestNormalizedAdjacency:
    def test_single_edge_pair(self):
        g = tg.build_graph(2, [0], [1], [5])
        np.testing.assert_allclose(tg.normalized_adjacency(g).toarray(),
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_node(self):
        g = tg.build_graph(1, [], [], [])
        np.testing.assert_allclose(tg.normalized_adjacency(g).toarray(), [[1.0]])

    def test_path_graph_matches_dense_oracle(self):
        g = tg.build_graph(4, [0, 1, 2], [1, 2, 3], [1, 2, 3])
        np.testing.assert_allclose(tg.normalized_adjacency(g).toarray(),
                                   dense_normalized(g), atol=1e-15)

    def test_symmetric_no_zero_rows(self):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 10, 30)
        dst = rng.integers(0, 10, 30)
        keep = src != dst
        g = tg.build_graph(12, src[keep], dst[keep], rng.integers(0, 50, keep.sum()))
        a = tg.normalized_adjacency(g).toarray()
        np.testing.assert_allclose(a, a.T, atol=1e-15)
        assert (np.abs(a).sum(axis=1) > 0).all()

    def test_built_once_per_graph_with_read_only_arrays(self):
        g = tg.build_graph(3, [0, 1], [1, 2], [1, 2])
        a = tg.normalized_adjacency(g)
        assert tg.normalized_adjacency(g) is a
        assert not any(arr.flags.writeable for arr in (a.data, a.indices, a.indptr))
        with pytest.raises(ValueError, match="read-only"):
            a.data[0] = 1.0

    def test_matches_set_of_pairs_oracle_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            base = random_graph(rng, max_nodes=15, max_edges=60)
            # parallel and reversed edges, plus a few isolated nodes at the end
            g = tg.build_graph(base.n + int(rng.integers(0, 4)),
                               np.concatenate([base.src, base.dst[:5]]),
                               np.concatenate([base.dst, base.src[:5]]),
                               np.concatenate([base.timestamp, base.timestamp[:5]]))
            got, want = tg.normalized_adjacency(g), normalized_adjacency_from_pairs(g)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestEdgeOrder:
    """Both sort branches give the (timestamp, src, dst, input position) order."""

    @staticmethod
    def order(n, src, dst, ts):
        src, dst, ts = (np.asarray(x, dtype=np.int64) for x in (src, dst, ts))
        return tg._sort_edges(n, src, dst, ts)[3]

    def test_combined_key_and_lexsort_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 60))
            src, dst, ts = (rng.integers(0, n, m), rng.integers(0, n, m),
                            rng.integers(0, 5, m))  # many full ties
            want = np.lexsort((dst, src, ts))
            np.testing.assert_array_equal(self.order(n, src, dst, ts), want)  # combined key
            shifted = ts + 2 ** 62  # same order, key would overflow: lexsort
            assert (int(shifted.max()) + 1) * n * n > 2 ** 63
            np.testing.assert_array_equal(self.order(n, src, dst, shifted), want)

    def test_largest_key_that_fits(self):
        n = 2 ** 20
        ts = [2 ** 23 - 1, 2 ** 23 - 1, 0, 2 ** 23 - 1]
        src, dst = [n - 1, n - 1, n - 1, n - 2], [n - 2, n - 1, 0, n - 1]
        np.testing.assert_array_equal(self.order(n, src, dst, ts), [2, 3, 0, 1])


class TestIncidence:
    def test_matches_edge_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_graph(rng, max_nodes=10, max_edges=40, max_ts=20)
            inc = g.incidence()
            lo, hi = rng.integers(-2, 22, g.n), rng.integers(-2, 22, g.n)
            start, stop = inc.window(np.arange(g.n), lo, hi)
            for v in range(g.n):
                touching = [i for i in range(g.num_edges) if v in (g.src[i], g.dst[i])]
                edges, ts = g.incident_with_ts(v)
                assert edges.tolist() == touching
                assert ts.tolist() == g.timestamp[touching].tolist()
                inside = [i for i in touching if lo[v] <= g.timestamp[i] <= hi[v]]
                assert inc.edge[start[v]:stop[v]].tolist() == inside
                other = g.src[inside] + g.dst[inside] - v
                assert inc.other[start[v]:stop[v]].tolist() == other.tolist()
                pair_edges = [sum(v in (g.src[i], g.dst[i]) and w in (g.src[i], g.dst[i])
                                  for i in range(g.num_edges))
                              for w in inc.other[inc.ptr[v]:inc.ptr[v + 1]].tolist()]
                assert inc.repeated[inc.ptr[v]:inc.ptr[v + 1]].tolist() == [
                    c >= 2 for c in pair_edges]

    def test_refuses_graphs_whose_keys_could_overflow(self):
        class Huge:
            n, num_edges = 2 ** 32, 1
        with pytest.raises(tg.ValidationError, match="too large to index"):
            tg.Incidence.of(Huge)


class TestEarliest:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            base = random_graph(rng, max_nodes=15, max_edges=60)
            n = base.n + int(rng.integers(0, 4))  # trailing isolated nodes
            g = tg.build_graph(n, base.src, base.dst, base.timestamp)
            want = earliest_loop(n, base.src, base.dst, base.timestamp)
            np.testing.assert_array_equal(g.t_earliest, want)
            assert g.t_earliest.dtype == want.dtype

    def test_isolated_nodes_keep_sentinel(self):
        g = tg.build_graph(5, [1, 3], [3, 1], [7, 2])
        np.testing.assert_array_equal(g.t_earliest,
                                      [tg.NO_TIMESTAMP, 2, tg.NO_TIMESTAMP, 2, tg.NO_TIMESTAMP])


def labeled_graph(n=10, fraud=5):
    g = tg.build_graph(n, [0], [1], [1])
    labels = np.zeros(n, dtype=np.int8)
    labels[:fraud] = 1
    return tg.set_features_labels(g, np.zeros((n, 2)), labels)


class TestSplits:
    def test_stratified_counts(self):
        g = labeled_graph(10, 5)
        for split in tg.make_splits(g, 3, 0.8, seed=1):
            train_labels = g.labels[split.train_ids]
            assert (train_labels == 1).sum() == 4
            assert (train_labels == 0).sum() == 4
            assert len(np.intersect1d(split.train_ids, split.test_ids)) == 0

    def test_same_seed_identical(self):
        g = labeled_graph(30, 9)
        a = tg.make_splits(g, 3, 0.7, seed=5)
        b = tg.make_splits(g, 3, 0.7, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.train_ids, y.train_ids)
            np.testing.assert_array_equal(x.test_ids, y.test_ids)

    def test_distinct_seeds_differ(self):
        g = labeled_graph(40, 12)
        a = tg.make_splits(g, 1, 0.7, seed=5)[0]
        b = tg.make_splits(g, 1, 0.7, seed=6)[0]
        assert not np.array_equal(a.train_ids, b.train_ids)

    def test_single_class_rejected(self):
        g = labeled_graph(10, 0)
        with pytest.raises(tg.ValidationError):
            tg.make_splits(g, 1, 0.8, seed=0)

    def test_both_partitions_keep_both_classes(self):
        g = labeled_graph(12, 2)
        for split in tg.make_splits(g, 5, 0.9, seed=3):
            for ids in (split.train_ids, split.test_ids):
                assert set(np.unique(g.labels[ids])) == {0, 1}


def small_cached_graph():
    g = tg.build_graph(3, [0, 1], [1, 2], [4, 6], [1.5, np.nan])
    return tg.set_features_labels(g, np.arange(6.0).reshape(3, 2),
                                  np.array([0, 1, -1], dtype=np.int8))


def assert_same_graph(a, b):
    assert a.n == b.n and a.tau_max == b.tau_max
    for name in ("src", "dst", "timestamp", "amount", "features", "labels", "t_earliest"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestCache:
    def test_round_trip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(4)
        src = rng.integers(0, 6, 20)
        dst = (src + 1) % 6
        g = tg.build_graph(6, src, dst, rng.integers(0, 30, 20))
        g = tg.set_features_labels(g, rng.normal(size=(6, 3)),
                                   np.array([0, 1, 0, 1, -1, 0], dtype=np.int8))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        tg.save_cache(g, p1)
        tg.save_cache(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with zipfile.ZipFile(p1) as zf:  # a stamped time would differ once saves straddle 2 s
            assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        assert_same_graph(tg.load_cache(p1), g)

    def test_graph_without_features_labels_or_edges(self, tmp_path):
        p = tmp_path / "c.bin"
        for g in (tg.build_graph(3, [0, 1], [1, 2], [5, 5]), tg.build_graph(4, [], [], [])):
            tg.save_cache(g, p)
            g2 = tg.load_cache(p)
            assert g2.features is None and g2.labels is None
            assert g2.n == g.n and g2.tau_max == g.tau_max
            np.testing.assert_array_equal(g2.src, g.src)

    def test_provenance_round_trips(self, tmp_path):
        p = tmp_path / "c.bin"
        prov = {"edges": "ab12", "time_unit": 10}
        tg.save_cache(small_cached_graph(), p, prov)
        assert tg.read_cache(p)[1] == prov
        tg.save_cache(small_cached_graph(), p)
        assert tg.read_cache(p)[1] is None

    def test_synthetic_graph_round_trips_every_column(self, tmp_path):
        g = synth_burst_graph(300, 0.1, burst_len=10, seed=42)
        tg.save_cache(g, tmp_path / "g.bin")
        assert_same_graph(tg.load_cache(tmp_path / "g.bin"), g)

    def test_unknown_version_rejected(self, tmp_path):
        """Files of the earlier struct formats name the command that rewrites them."""
        p = tmp_path / "c.bin"
        for magic, command in ((b"TXGC", "ingest"), (b"TMGC", "train")):
            p.write_bytes(magic + bytes(30))
            with pytest.raises(tg.ValidationError) as e:
                tg.load_cache(p)
            assert str(e.value) == (f"graph cache {p} was written by an earlier tmgad in a "
                                    f"format this one does not read; re-run `tmgad {command}`")

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        full = tmp_path / "full.bin"
        tg.save_cache(small_cached_graph(), full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for data in [raw[:k] for k in range(len(raw))] + [raw + b"\0"]:
            cut.write_bytes(data)
            with pytest.raises(tg.ValidationError, match=f"^cannot read graph cache {cut}: "):
                tg.load_cache(cut)
        assert_same_graph(tg.load_cache(full), small_cached_graph())

    def test_every_byte_flip_loads_the_same_graph_or_is_rejected(self, tmp_path):
        full = tmp_path / "full.bin"
        g = small_cached_graph()
        tg.save_cache(g, full)
        bad = tmp_path / "bad.bin"
        outcomes = {"same": 0, "rejected": 0}
        for data in byte_flips(full.read_bytes()):
            bad.write_bytes(data)
            try:
                g2 = tg.load_cache(bad)
            except tg.ValidationError as e:
                assert str(bad) in str(e)
                outcomes["rejected"] += 1
            else:
                assert_same_graph(g2, g)
                outcomes["same"] += 1
        assert outcomes["same"] and outcomes["rejected"]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"WHAT" + bytes(20))
        with pytest.raises(tg.ValidationError, match="not a complete zip file"):
            tg.load_cache(p)


def cache_parts(g):
    """The manifest and members `save_cache` writes for `g`."""
    arrays = {"src": g.src, "dst": g.dst, "timestamp": g.timestamp, "amount": g.amount,
              "t_earliest": g.t_earliest, "features": g.features, "labels": g.labels}
    manifest = {"meta": {"n": g.n, "provenance": None},
                "arrays": {k: [a.dtype.str, list(a.shape)] for k, a in arrays.items()}}
    return manifest, {k: a.tobytes() for k, a in arrays.items()}


class TestForgedCache:
    """Container faults, and graphs that only the ingest checks can refuse."""

    def test_parts_match_save_cache(self, tmp_path):
        g = small_cached_graph()
        tg.save_cache(g, tmp_path / "real.bin")
        manifest, members = cache_parts(g)
        assert zip_members(tmp_path / "real.bin") == (manifest, members)
        write_zip(tmp_path / "forged.bin", members, manifest)
        assert_same_graph(tg.load_cache(tmp_path / "forged.bin"), g)

    @pytest.mark.parametrize("fault, message", [
        ("unknown dtype", "array 'src' is listed as [\"<i4\", [4]], which does not describe "
                          "its 16 bytes as int64, float64 or int8"),
        ("negative shape", "array 'features' is listed as [\"<f8\", [-1, 2]]"),
        ("float shape", "array 'features' is listed as [\"<f8\", [3.0, 2]]"),
        ("shape too large", "array 'labels' is listed as [\"|i1\", [4]]"),
        ("listed twice", "manifest lists 'src' twice"),
        ("missing member", "members ['amount', 'dst', 'features', 'labels', 'manifest.json', "
                           "'timestamp'] are not the manifest and the arrays it lists"),
        ("unlisted member", "are not the manifest and the arrays it lists, ['amount', 'dst', "
                            "'features', 'labels', 'src', 'timestamp']"),
        ("no manifest", "There is no item named 'manifest.json' in the archive"),
        ("manifest not JSON", "manifest is not valid JSON: "),
        ("manifest a list", "manifest must be an object with the objects 'arrays' and 'meta'"),
    ])
    def test_container_fault(self, tmp_path, fault, message):
        manifest, members = cache_parts(small_cached_graph())
        # the container is checked before any array is read; leaving t_earliest
        # out keeps the member lists in the messages short
        del manifest["arrays"]["t_earliest"], members["t_earliest"]
        listed = manifest["arrays"]
        if fault == "unknown dtype":
            listed["src"] = ["<i4", [4]]  # the same 16 bytes as four int32
        elif fault == "negative shape":
            listed["features"][1] = [-1, 2]
        elif fault == "float shape":
            listed["features"][1] = [3.0, 2]
        elif fault == "shape too large":
            listed["labels"][1] = [4]
        elif fault == "listed twice":
            manifest = json.dumps(manifest).replace('"arrays": {', '"arrays": {"src": 0, ', 1)
        elif fault == "missing member":
            del members["src"]
        elif fault == "unlisted member":
            members["extra"] = b""
        elif fault == "no manifest":
            manifest = None
        elif fault == "manifest not JSON":
            manifest = "{'meta': 1}"
        else:
            manifest = [manifest]
        p = tmp_path / "forged.bin"
        write_zip(p, members, manifest)
        with pytest.raises(tg.ValidationError) as e:
            tg.load_cache(p)
        assert str(e.value).startswith(f"cannot read graph cache {p}: ")
        assert message in str(e.value)

    @pytest.mark.parametrize("fault, message", [
        ("endpoint beyond n", "edge endpoint out of range"),
        ("self-loop", "self-loops are not allowed"),
        ("negative timestamp", "negative timestamp"),
        ("negative amount", "negative amount -3.0"),
        ("columns of two lengths", "src, dst, timestamp and amount must be vectors of one length"),
        ("n negative", "node count must be a non-negative integer, got -1"),
        ("n a float", "node count must be a non-negative integer, got 3.0"),
        ("n missing", "node count must be a non-negative integer, got None"),
        ("n beyond t_earliest", "node count 1000000000000000 does not fit t_earliest (3,)"),
        ("t_earliest 2-d", "node count 3 does not fit t_earliest (3, 1)"),
        ("t_earliest missing", "lacks array 't_earliest'"),
        ("t_earliest wrong", "t_earliest is not the earliest timestamp of each node's edges"),
        ("non-finite feature", "feature at node row 1, column 0 is inf; features must be finite"),
        ("label 2", "labels must be 0, 1 or the missing marker"),
        ("features without labels", "lacks array 'labels'"),
        ("float ids", "unexpected array 'src'"),
        ("unknown array", "unexpected array 'extra'"),
    ])
    def test_ingest_check(self, tmp_path, fault, message):
        g = small_cached_graph()
        arrays = {"src": g.src, "dst": g.dst, "timestamp": g.timestamp, "amount": g.amount,
                  "t_earliest": g.t_earliest, "features": g.features, "labels": g.labels}
        meta = {"n": g.n, "provenance": None}
        if fault == "endpoint beyond n":
            arrays["dst"] = np.array([1, 3])
        elif fault == "self-loop":
            arrays["dst"] = np.array([0, 2])
        elif fault == "negative timestamp":
            arrays["timestamp"] = np.array([-4, 6])
        elif fault == "negative amount":
            arrays["amount"] = np.array([1.5, -3.0])
        elif fault == "columns of two lengths":
            arrays["amount"] = np.ones(3)
        elif fault == "n negative":
            meta["n"] = -1
        elif fault == "n a float":
            meta["n"] = 3.0
        elif fault == "n missing":
            del meta["n"]
        elif fault == "n beyond t_earliest":
            meta["n"] = 10**15
        elif fault == "t_earliest 2-d":
            arrays["t_earliest"] = g.t_earliest.reshape(3, 1)
        elif fault == "t_earliest missing":
            del arrays["t_earliest"]
        elif fault == "t_earliest wrong":
            arrays["t_earliest"] = np.array([4, 4, -1])
        elif fault == "non-finite feature":
            arrays["features"] = np.where(np.arange(6).reshape(3, 2) == 2, np.inf, 0.0)
        elif fault == "label 2":
            arrays["labels"] = np.array([0, 2, 1], dtype=np.int8)
        elif fault == "features without labels":
            del arrays["labels"]
        elif fault == "float ids":
            arrays["src"] = arrays["src"].astype(np.float64)
        else:
            arrays["extra"] = np.zeros(1)
        p = tmp_path / "forged.bin"
        tg.save_arrays(p, arrays, meta)
        with pytest.raises(tg.ValidationError) as e:
            tg.load_cache(p)
        assert str(e.value) == f"graph cache {p}: {message}"

    def test_unsorted_edges_load_in_edge_order(self, tmp_path):
        g = small_cached_graph()
        p = tmp_path / "forged.bin"
        tg.save_arrays(p, {"src": g.src[::-1], "dst": g.dst[::-1],
                           "timestamp": g.timestamp[::-1], "amount": g.amount[::-1],
                           "t_earliest": g.t_earliest, "features": g.features,
                           "labels": g.labels},
                       {"n": g.n, "provenance": None})
        assert_same_graph(tg.load_cache(p), g)

"""Model head: window learner, dual attention, classifier, end-to-end gradients."""

import math

import numpy as np
import pytest
from scipy.special import expit

from tmgad import diffcore as dc
from tmgad import model as md
from tmgad.backbone import GCNConfig, gcn_forward
from tmgad.motif import FOCAL_ROOTED, MotifInstance, build_catalog, build_index
from tmgad.train import synth_burst_graph
from tmgad.txgraph import ValidationError, normalized_adjacency

import oracles as orc


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(FOCAL_ROOTED)


def fresh_state(catalog, in_dim=3, out_dim=4, seed=5):
    rng = np.random.default_rng(seed)
    cfg = GCNConfig(layers=2, hidden_dim=16, out_dim=out_dim, dropout=0.0)
    return md.init_model(rng, in_dim, cfg, catalog.size)


class TestAdaptiveWindow:
    def test_zero_logit_gives_half_tau(self, catalog):
        state = fresh_state(catalog)
        for t in (state.win_w1, state.win_b1, state.win_w2, state.win_b2):
            t.data[...] = 0.0
        assert orc.adaptive_window(np.ones(4), state, 100.0) == pytest.approx(50.0)

    def test_saturated_low_still_positive(self, catalog):
        state = fresh_state(catalog)
        for t in (state.win_w1, state.win_b1, state.win_w2):
            t.data[...] = 0.0
        state.win_b2.data[...] = -20.0
        delta = orc.adaptive_window(np.ones(4), state, 100.0)
        assert 0.0 < delta < 1e-6
        assert delta == pytest.approx(100.0 * expit(-20.0), rel=1e-9)

    def test_matches_scalar_oracle(self, catalog):
        state = fresh_state(catalog, seed=11)
        h = np.random.default_rng(1).normal(size=4)
        got = orc.adaptive_window(h, state, 37.0)
        hidden = np.tanh(h @ state.win_w1.data + state.win_b1.data[0])
        logit = float(hidden @ state.win_w2.data[:, 0] + state.win_b2.data[0, 0])
        assert got == pytest.approx(37.0 * expit(logit), abs=1e-12)

    def test_bounds_hold_for_wild_inputs(self, catalog):
        state = fresh_state(catalog, seed=13)
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = orc.adaptive_window(rng.normal(0, 10, size=4), state, 55.0)
            assert 0.0 < d < 55.0


    @pytest.mark.parametrize("bias", [1e3, -1e3])
    def test_saturated_logits_stay_inside_open_interval(self, catalog, bias):
        state = fresh_state(catalog)
        state.win_b2.data[...] = bias
        h = dc.tensor(np.random.default_rng(3).normal(size=(6, 4)))
        deltas = md.adaptive_windows(h, state, 55.0).data
        assert (deltas > 0.0).all() and (deltas < 55.0).all()


class TestInstanceWeight:
    def test_gap_equals_delta(self):
        assert md.instance_weight(5.0, 12.0, 7.0) == pytest.approx(0.5)

    def test_distant_instance_weight_vanishes(self):
        assert md.instance_weight(2.0, 500.0, 0.0) < 1e-100

    def test_scalar_example(self):
        assert md.instance_weight(5.0, 3.0, 0.0) == pytest.approx(expit(2.0), abs=1e-12)
        assert md.instance_weight(5.0, 3.0, 0.0) == pytest.approx(0.8808, abs=5e-5)

    def test_monotone_in_delta_and_gap(self):
        # strictness is only observable where float64 can resolve the sigmoid
        rng = np.random.default_rng(3)
        for _ in range(300):
            delta = rng.uniform(0.1, 50)
            gap = rng.uniform(0, 80)
            eps = rng.uniform(0.01, 5)
            w = md.instance_weight(delta, gap, 0.0)
            up = md.instance_weight(delta + eps, gap, 0.0)
            down = md.instance_weight(delta, gap + eps, 0.0)
            assert up >= w >= down
            if 1e-12 < w < 1 - 1e-12 and 1e-12 < up < 1 - 1e-12:
                assert up > w
            if 1e-12 < w < 1 - 1e-12 and 1e-12 < down < 1 - 1e-12:
                assert down < w


class TestIntraAttention:
    def make_instance(self):
        return MotifInstance(focal=0, nodes=(0, 1, 2), edges=(0, 1, 2),
                             type_id=3, t_max=5)

    def test_identical_members_pass_through(self, catalog):
        state = fresh_state(catalog)
        e = np.array([0.3, -1.2, 0.7, 2.0])
        h = dc.tensor(np.tile(e, (3, 1)))
        state.supernodes.data[3] = e
        out = orc.intra_instance_embedding(self.make_instance(), h, state.supernodes,
                                          state.w_intra)
        np.testing.assert_allclose(out.data[0], e, atol=1e-12)

    def test_zero_score_vector_gives_mean(self, catalog):
        state = fresh_state(catalog)
        state.w_intra.data[...] = 0.0
        rng = np.random.default_rng(4)
        h = dc.tensor(rng.normal(size=(3, 4)))
        out = orc.intra_instance_embedding(self.make_instance(), h, state.supernodes,
                                          state.w_intra)
        members = np.vstack([state.supernodes.data[3], h.data])
        np.testing.assert_allclose(out.data[0], members.mean(axis=0), atol=1e-12)

    def test_matches_stepwise_oracle(self, catalog):
        state = fresh_state(catalog, seed=21)
        rng = np.random.default_rng(5)
        h = dc.tensor(rng.normal(size=(3, 4)))
        out = orc.intra_instance_embedding(self.make_instance(), h, state.supernodes,
                                          state.w_intra)
        members = np.vstack([state.supernodes.data[3], h.data])
        s = np.tanh(members @ state.w_intra.data[:, 0])
        alpha = np.exp(s - s.max())
        alpha /= alpha.sum()
        np.testing.assert_allclose(out.data[0], alpha @ members, atol=1e-12)

    def test_output_in_member_convex_hull(self, catalog):
        state = fresh_state(catalog, seed=22)
        rng = np.random.default_rng(6)
        for _ in range(25):
            h = dc.tensor(rng.normal(size=(3, 4)))
            out = orc.intra_instance_embedding(self.make_instance(), h,
                                              state.supernodes, state.w_intra).data[0]
            members = np.vstack([state.supernodes.data[3], h.data])
            assert (out >= members.min(axis=0) - 1e-12).all()
            assert (out <= members.max(axis=0) + 1e-12).all()


class TestTypeEmbedding:
    def test_single_instance_unchanged(self):
        v = dc.tensor(np.array([[1.0, 2.0, 3.0]]))
        w = dc.tensor(np.array([[0.37]]))
        np.testing.assert_allclose(orc.type_embedding(v, w).data, v.data, atol=1e-12)

    def test_equal_weights_mean(self):
        rng = np.random.default_rng(7)
        v = dc.tensor(rng.normal(size=(4, 3)))
        w = dc.tensor(np.full((4, 1), 0.2))
        np.testing.assert_allclose(orc.type_embedding(v, w).data[0],
                                   v.data.mean(axis=0), atol=1e-12)

    def test_mixed_weights_match_oracle(self):
        rng = np.random.default_rng(8)
        v = dc.tensor(rng.normal(size=(5, 3)))
        wv = rng.uniform(0.01, 1.0, size=(5, 1))
        got = orc.type_embedding(v, dc.tensor(wv)).data[0]
        want = (wv[:, 0] @ v.data) / wv.sum()
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestInterAttention:
    def test_single_type_passes_through(self, catalog):
        state = fresh_state(catalog)
        t = dc.tensor(np.array([[0.5, -0.25, 1.0, 0.0]]))
        out = orc.inter_embedding(t, [7], state.w_inter)
        np.testing.assert_allclose(out.data, t.data, atol=1e-12)

    def test_equal_scores_uniform(self, catalog):
        state = fresh_state(catalog)
        state.w_inter.data[...] = 0.0
        rng = np.random.default_rng(9)
        t = dc.tensor(rng.normal(size=(4, 4)))
        out = orc.inter_embedding(t, [0, 1, 2, 3], state.w_inter)
        np.testing.assert_allclose(out.data[0], t.data.mean(axis=0), atol=1e-12)

    def test_matches_projection_oracle(self, catalog):
        state = fresh_state(catalog, seed=31)
        rng = np.random.default_rng(10)
        tids = [2, 9, 40]
        t = dc.tensor(rng.normal(size=(3, 4)))
        out = orc.inter_embedding(t, tids, state.w_inter).data[0]
        scores = np.tanh((t.data * state.w_inter.data[tids]).sum(axis=1))
        beta = dc.segment_sparsemax(dc.tensor(scores.reshape(-1, 1)), [3]).data[:, 0]
        np.testing.assert_allclose(out, beta @ t.data, atol=1e-12)

    def test_sparsity_on_wide_score_vectors(self):
        rng = np.random.default_rng(11)
        supports = []
        for _ in range(100):
            z = rng.normal(0, 1, size=12)
            beta = dc.segment_sparsemax(dc.tensor(z.reshape(-1, 1)), [12]).data
            supports.append((beta > 0).sum())
        assert np.mean(supports) < 12


def build_everything(fixture_graph, catalog, seed=5):
    g = fixture_graph
    state = fresh_state(catalog, in_dim=g.num_features, seed=seed)
    a_hat = normalized_adjacency(g)
    tau = float(g.tau_max)
    windows = np.full(g.n, tau)
    index = build_index(g, windows, catalog, nodes=np.arange(g.n), cap=None)
    return g, state, a_hat, tau, index


def scalar_head_oracle(g, state, a_hat, tau, index, v):
    """Plain-numpy re-derivation of the full per-node pipeline."""
    dense = a_hat.toarray()
    h = g.features
    for w in state.gcn:
        h = np.maximum(dense @ h @ w.data, 0.0)
    hidden = np.tanh(h[v] @ state.win_w1.data + state.win_b1.data[0])
    delta = tau * expit(float(hidden @ state.win_w2.data[:, 0] + state.win_b2.data[0, 0]))
    by_type = index.instances_at(v)
    start = int(index.node_starts[index.locate([v])[0]])
    if by_type:
        type_rows = []
        for tid in sorted(by_type):
            embs, ws = [], []
            for inst in by_type[tid]:
                members = np.vstack([state.supernodes.data[tid], h[list(inst.nodes)]])
                s = np.tanh(members @ state.w_intra.data[:, 0])
                a = np.exp(s - s.max())
                a /= a.sum()
                embs.append(a @ members)
                ws.append(expit(delta - (inst.t_max - start)))
            embs = np.array(embs)
            ws = np.array(ws)
            type_rows.append((ws @ embs) / ws.sum())
        t_mat = np.array(type_rows)
        scores = np.tanh((t_mat * state.w_inter.data[sorted(by_type)]).sum(axis=1))
        beta = dc.segment_sparsemax(dc.tensor(scores.reshape(-1, 1)), [scores.size]).data[:, 0]
        h_tilde = beta @ t_mat
    else:
        h_tilde = np.zeros(h.shape[1])
    z = np.concatenate([h[v], h_tilde])
    hid = np.maximum(z @ state.clf_w1.data + state.clf_b1.data[0], 0.0)
    logit = float(hid @ state.clf_w2.data[:, 0] + state.clf_b2.data[0, 0])
    return expit(logit)


class TestNodeForward:
    def test_node_without_motifs_defined(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        index = orc.index_from_instances(
            index.catalog_size,
            {v: {} if v == 1 else types for v, types in index.per_node.items()},
            windows=index.windows, starts=g.t_earliest)
        h = gcn_forward(g.features, a_hat, state.gcn)
        opts = md.HeadOptions()
        z, y_hat = orc.node_forward(1, h, index, state, opts, tau)
        d = state.gcn[-1].shape[1]
        np.testing.assert_allclose(z.data[0, :d], h.data[1])
        np.testing.assert_array_equal(z.data[0, d:], np.zeros(d))
        assert 0.0 < y_hat < 1.0

    def test_zero_classifier_predicts_half(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        for t in (state.clf_w1, state.clf_b1, state.clf_w2, state.clf_b2):
            t.data[...] = 0.0
        h = gcn_forward(g.features, a_hat, state.gcn)
        _, y_hat = orc.node_forward(0, h, index, state, md.HeadOptions(), tau)
        assert y_hat == pytest.approx(0.5)

    def test_matches_scalar_oracle(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog, seed=17)
        h = gcn_forward(g.features, a_hat, state.gcn)
        opts = md.HeadOptions()
        for v in range(g.n):
            _, y_hat = orc.node_forward(v, h, index, state, opts, tau)
            want = scalar_head_oracle(g, state, a_hat, tau, index, v)
            assert y_hat == pytest.approx(want, abs=1e-10), f"node {v}"

    def test_batched_forward_matches_single(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog, seed=23)
        opts = md.HeadOptions()
        logits, deltas, h = md.forward_nodes(g.features, a_hat, state, index,
                                             list(range(g.n)), opts, tau)
        for v in range(g.n):
            _, y_hat = orc.node_forward(v, h, index, state, opts, tau)
            assert expit(logits.data[v, 0]) == pytest.approx(y_hat, abs=1e-12)

    def test_delta_bounds(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        _, deltas, _ = md.forward_nodes(g.features, a_hat, state, index, [0],
                                        md.HeadOptions(), tau)
        assert (deltas.data > 0).all() and (deltas.data < tau).all()


class TestHeadWeights:
    def test_batched_weights_equal_instance_weight(self, fixture_graph, catalog, monkeypatch):
        """The recency weights the batched head applies are `instance_weight` per instance.

        Checked bitwise, for learned and fixed windows, on the fixture graph and on
        an 80-node planted graph; weights below the floor are applied as the floor.
        """
        applied = []
        clip = dc.clip

        def recording_clip(x, lo, hi):
            out = clip(x, lo, hi)
            if hi == math.inf:  # the recency-weight floor; window clamps have a finite hi
                applied.append(out.data[:, 0].copy())
            return out

        monkeypatch.setattr(dc, "clip", recording_clip)
        burst = synth_burst_graph(80, 0.2, 10, seed=3)
        for g in (fixture_graph, burst):
            state = fresh_state(catalog, in_dim=g.num_features, seed=41)
            a_hat, tau, nodes = normalized_adjacency(g), float(g.tau_max), np.arange(g.n)
            index = build_index(g, np.full(g.n, tau), catalog, nodes=nodes, cap=None)
            assert index.total_instances() > 0
            for opts in (md.HeadOptions(), md.HeadOptions.from_ablation("tm_fixed", tau / 8)):
                applied.clear()
                _, deltas, _ = md.forward_nodes(g.features, a_hat, state, index, nodes, opts,
                                                tau)
                delta = deltas.data[:, 0] if opts.adaptive else np.full(g.n, tau / 8)
                # the head lays instances out node by node in request order, each node's
                # by type: for ascending nodes, the index's (owner, type, edges) order
                want = np.array([md.instance_weight(delta[v], t_max, g.t_earliest[v])
                                 for v, t_max in zip(index.owner, index.t_max.tolist())])
                (got,) = applied
                above = want > md.WEIGHT_FLOOR
                assert above.any()
                np.testing.assert_array_equal(got[above], want[above])
                np.testing.assert_array_equal(got[~above], md.WEIGHT_FLOOR)


class TestGradientFlow:
    def test_window_learner_receives_gradient(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog, seed=29)
        opts = md.HeadOptions()
        y = g.labels.astype(float).reshape(-1, 1)
        dc.zero_grads(state.parameters())
        with dc.Tape() as tape:
            logits, _, _ = md.forward_nodes(g.features, a_hat, state, index,
                                            list(range(g.n)), opts, tau)
            loss = dc.bce_with_logits(logits, y)
            tape.backward(loss)
        win_norm = sum(float(np.abs(t.grad).sum())
                       for t in (state.win_w1, state.win_w2, state.win_b2))
        assert win_norm > 0.0, "window learner got no gradient"
        for name, t in state.named().items():
            assert t.grad is not None, name

    def test_full_model_fd_check(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog, seed=37)
        opts = md.HeadOptions()
        y = g.labels.astype(float).reshape(-1, 1)
        params = state.parameters()

        def build():
            logits, _, _ = md.forward_nodes(g.features, a_hat, state, index,
                                            list(range(g.n)), opts, tau)
            return dc.bce_with_logits(logits, y)

        err = orc.finite_difference_check(build, params, rng=np.random.default_rng(0),
                                          max_per_tensor=4)
        assert err < 1e-4, f"fd error {err}"


class TestAblationOptions:
    def test_mapping(self):
        o = md.HeadOptions.from_ablation("gcn_only")
        assert not o.use_motifs
        o = md.HeadOptions.from_ablation("tm_fixed", delta_fixed=4.0)
        assert o.use_motifs and not o.adaptive and not o.use_intra and not o.use_inter
        o = md.HeadOptions.from_ablation("tm_ada_intra")
        assert o.adaptive and o.use_intra and not o.use_inter
        o = md.HeadOptions.from_ablation("full")
        assert o.adaptive and o.use_intra and o.use_inter

    def test_tm_fixed_requires_delta(self):
        with pytest.raises(ValueError):
            md.HeadOptions.from_ablation("tm_fixed")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            md.HeadOptions.from_ablation("everything")

    def test_ablation_forwards_run(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        for name in md.ABLATIONS:
            opts = md.HeadOptions.from_ablation(name, delta_fixed=10.0)
            logits, _, _ = md.forward_nodes(
                g.features, a_hat, state, index if opts.use_motifs else None,
                [0, 4, 5], opts, tau)
            assert logits.shape == (3, 1)

    @pytest.mark.parametrize("graph", ["fixture", "synthetic"])
    def test_ablations_match_per_node_oracle(self, fixture_graph, catalog, graph):
        if graph == "fixture":
            g = fixture_graph
            tau = float(g.tau_max)
            # nodes 1..4 and 6..9 are requested but not indexed
            index = build_index(g, np.full(g.n, tau), catalog, nodes=[0, 5, 7], cap=None)
            nodes = list(range(g.n))
        else:
            g = synth_burst_graph(80, 0.1, burst_len=10, seed=3)
            tau = float(g.tau_max)
            windows = np.full(g.n, tau / 2)
            index = build_index(g, windows, catalog, nodes=np.arange(0, g.n, 2), cap=2)
            uncapped = build_index(g, windows, catalog, nodes=np.arange(0, g.n, 2), cap=None)
            assert index.total_instances() < uncapped.total_instances()  # the cap binds
            nodes = list(range(g.n - 1, -1, -1))
        assert any(not index.instances_at(v) for v in nodes)
        state = fresh_state(catalog, in_dim=g.num_features, seed=41)
        a_hat = normalized_adjacency(g)
        for name in md.ABLATIONS:
            opts = md.HeadOptions.from_ablation(name, delta_fixed=tau / 5)
            logits, _, h = md.forward_nodes(
                g.features, a_hat, state, index if opts.use_motifs else None,
                nodes, opts, tau)
            want = [md.classifier_logits(orc.node_forward(v, h, index, state, opts, tau)[0],
                                         state).item() for v in nodes]
            np.testing.assert_allclose(logits.data[:, 0], want, rtol=0, atol=1e-10,
                                       err_msg=name)


class TestTapeSize:
    def test_op_count_does_not_grow_with_node_count(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        y = g.labels.astype(float)

        def ops(nodes):
            with dc.Tape() as tape:
                logits, _, _ = md.forward_nodes(g.features, a_hat, state, index, nodes,
                                                md.HeadOptions(), tau)
                dc.bce_with_logits(logits, y[nodes].reshape(-1, 1))
            return len(tape)

        few = ops([0, 5, 7])
        assert few == ops(list(range(g.n)))
        assert few < 60

    @pytest.mark.parametrize("ablation", ["full", "tm_ada"])
    def test_no_member_matrix_on_the_tape(self, fixture_graph, catalog, ablation):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        nodes = list(range(g.n))
        m = index.total_instances()
        with dc.Tape() as tape:
            logits, _, _ = md.forward_nodes(g.features, a_hat, state, index, nodes,
                                            md.HeadOptions.from_ablation(ablation), tau)
            dc.bce_with_logits(logits, g.labels[nodes].astype(float).reshape(-1, 1))
        shapes = [out.shape for out, _ in tape._nodes]
        table = (g.n + catalog.size, state.gcn[-1].shape[1])   # [h; supernodes], read by row
        assert m > 0 and table[0] != 3 * m
        assert [s for s in shapes if s[0] >= 3 * m and s[1] > 1 and s != table] == []
        assert len(shapes) < 44

    def test_layout_built_once_per_index_and_nodes(self, fixture_graph, catalog):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        first = md.head_layout(index, [0, 5, 7], g.n)
        assert md.head_layout(index, np.array([0, 5, 7]), g.n) is first
        assert md.head_layout(index, [0, 5], g.n) is not first


class TestCheckpointMeta:
    def test_round_trip(self, fixture_graph, catalog, tmp_path):
        g, state, a_hat, tau, index = build_everything(fixture_graph, catalog)
        meta = {"split_index": 0, "config": {"ablation": "full", "hidden_dim": 16}}
        arrays = {"test_ids": np.array([0, 5]), "extraction_windows": np.full(g.n, tau)}
        md.save_checkpoint(tmp_path / "m.bin", state, arrays, meta)
        tensors, loaded_arrays, loaded_meta = md.load_checkpoint(tmp_path / "m.bin")
        assert loaded_meta == meta
        assert sorted(loaded_arrays) == sorted(arrays)
        for k, a in arrays.items():
            np.testing.assert_array_equal(loaded_arrays[k], a)
        state2 = fresh_state(catalog, in_dim=g.num_features, seed=123)
        dc.restore_tensors(state2.named(), tensors)
        for name, t in state.named().items():
            np.testing.assert_array_equal(state2.named()[name].data, t.data)

    def test_every_byte_flip_loads_the_same_checkpoint_or_is_rejected(self, tmp_path):
        one = dict.fromkeys(["win_w1", "win_b1", "win_w2", "win_b2", "supernodes", "w_intra",
                             "w_inter", "clf_w1", "clf_b1", "clf_w2", "clf_b2"])
        state = md.ModelState(gcn=[dc.parameter(np.ones((1, 1)))],
                              **{k: dc.parameter(np.full((1, 1), i)) for i, k in enumerate(one)})
        full = tmp_path / "m.bin"
        md.save_checkpoint(full, state, {"test_ids": np.array([3, 4])}, {"catalog_size": 1})
        want = md.load_checkpoint(full)
        bad = tmp_path / "bad.bin"
        rejected = 0
        for data in orc.byte_flips(full.read_bytes()):
            bad.write_bytes(data)
            try:
                got = md.load_checkpoint(bad)
            except ValidationError as e:
                assert str(bad) in str(e)
                rejected += 1
                continue
            assert got[2] == want[2]
            for have, expect in zip(got[:2], want[:2]):
                assert sorted(have) == sorted(expect)
                assert all(np.array_equal(have[k], a) and have[k].dtype == a.dtype
                           for k, a in expect.items())
        assert rejected

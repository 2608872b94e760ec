"""Metrics against brute-force oracles, optimizer, generator, training loop."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import expit

from tmgad import diffcore as dc
from tmgad import model as md
from tmgad import train as tr
from tmgad.backbone import GCNConfig
from tmgad.motif import FOCAL_ROOTED, build_catalog, build_index
from tmgad.txgraph import build_graph, make_splits, normalized_adjacency, set_features_labels

from oracles import auc_tie_loop, auprc_tie_loop, forward_nodes_zero_half


def auc_pairwise_oracle(scores, labels):
    s = np.asarray(scores)
    y = np.asarray(labels)
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    total = 0.0
    for i in pos:
        for j in neg:
            if s[i] > s[j]:
                total += 1.0
            elif s[i] == s[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_threshold_oracle(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    thresholds = sorted(set(s.tolist()), reverse=True)
    area, prev_recall = 0.0, 0.0
    for t in thresholds:
        pred = s >= t
        tp = float((pred & (y == 1)).sum())
        fp = float((pred & (y == 0)).sum())
        recall = tp / (y == 1).sum()
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestBceLoss:
    def test_half_probability_is_ln2(self):
        labels = np.array([0, 1, 0, 1, 1])
        assert tr.bce_loss(np.zeros(5), labels) == pytest.approx(np.log(2.0))

    def test_saturated_correct_predictions(self):
        assert tr.bce_loss(np.array([800.0, -800.0, 800.0]), np.array([1, 0, 1])) == 0.0

    def test_two_point_oracle(self):
        logits = np.log(np.array([0.9 / 0.1, 0.2 / 0.8]))  # probabilities 0.9 and 0.2
        want = (-np.log(0.9) - np.log(0.8)) / 2.0
        assert tr.bce_loss(logits, np.array([1, 0])) == pytest.approx(want, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(tr.MetricsError, match="no logits"):
            tr.bce_loss(np.array([]), np.array([]))

    def test_confident_miss_stays_finite(self):
        """A logit whose probability rounds to 1 gives the logit, as the training loss does."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tr.bce_loss(np.array([40.0]), np.array([0]))
        assert got == 40.0
        assert got == dc.bce_with_logits(dc.tensor([[40.0]]), [[0.0]]).item()


class TestRankingMetrics:
    def test_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert tr.auc(np.array([0.1, 0.2, 0.8, 0.9]), y) == 1.0
        assert tr.auprc(np.array([0.1, 0.2, 0.8, 0.9]), y) == 1.0
        assert tr.auc(np.array([0.9, 0.8, 0.2, 0.1]), y) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(tr.MetricsError):
            tr.auc(np.array([0.5, 0.6]), np.array([1, 1]))
        with pytest.raises(tr.MetricsError):
            tr.auprc(np.array([0.5, 0.6]), np.array([0, 0]))

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = 20
            scores = rng.integers(0, 6, n) / 5.0  # coarse grid forces ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert tr.auc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores, labels), abs=1e-12)

    def test_auprc_matches_threshold_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = 20
            scores = rng.integers(0, 6, n) / 5.0
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert tr.auprc(scores, labels) == pytest.approx(
                auprc_threshold_oracle(scores, labels), abs=1e-12)

    def test_match_tie_loops(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n = int(rng.integers(2, 60))
            scores = rng.integers(0, int(rng.integers(1, 8)), n) / 7.0  # tie-heavy
            if trial % 4 == 0:
                scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            labels[:2] = (0, 1)
            assert tr.auc(scores, labels) == auc_tie_loop(scores, labels)
            assert abs(tr.auprc(scores, labels) - auprc_tie_loop(scores, labels)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        perm = rng.permutation(30)
        assert tr.auc(scores, labels) == pytest.approx(tr.auc(scores[perm], labels[perm]))
        assert tr.auprc(scores, labels) == pytest.approx(
            tr.auprc(scores[perm], labels[perm]))
        assert tr.accuracy(scores, labels) == pytest.approx(
            tr.accuracy(scores[perm], labels[perm]))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = dc.parameter(np.array([[1.5, -2.0], [0.1, 3.0]]))
        before = p.data.copy()
        opt = tr.Adam([p], lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_descends_a_quadratic(self):
        p = dc.parameter(np.array([[5.0]]))
        opt = tr.Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            with dc.Tape() as t:
                loss = dc.rowwise_dot(p, p)
                t.backward(loss)
            opt.step()
        assert abs(p.data[0, 0]) < 0.2


class TestSynthGraph:
    def test_exact_fraud_count(self):
        g = tr.synth_burst_graph(300, 0.1, burst_len=10, seed=0)
        assert int((g.labels == 1).sum()) == 30

    def test_same_seed_identical(self):
        a = tr.synth_burst_graph(120, 0.1, burst_len=8, seed=5)
        b = tr.synth_burst_graph(120, 0.1, burst_len=8, seed=5)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.timestamp, b.timestamp)
        np.testing.assert_allclose(a.features, b.features)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tr.synth_burst_graph(120, 0.0, burst_len=8, seed=0)
        with pytest.raises(ValueError):
            tr.synth_burst_graph(120, 0.6, burst_len=8, seed=0)
        with pytest.raises(ValueError):
            tr.synth_burst_graph(120, 0.1, burst_len=100, seed=0, horizon=200)

    def test_fraud_motif_counts_dominate_at_small_delta(self):
        g = tr.synth_burst_graph(200, 0.1, burst_len=10, seed=3)
        catalog = build_catalog(FOCAL_ROOTED)
        idx = build_index(g, np.full(g.n, 10.0), catalog, nodes=g.labeled_nodes())
        fraud = normal = 0
        n_fraud = int((g.labels == 1).sum())
        for v, types in idx.per_node.items():
            c = sum(len(lst) for lst in types.values())
            if g.labels[v] == 1:
                fraud += c
            else:
                normal += c
        assert fraud / n_fraud > normal / (g.n - n_fraud)


def tiny_graph(n=60, seed=0):
    return tr.synth_burst_graph(n, 0.15, burst_len=8, seed=seed, horizon=120)


class TestTrainLoop:
    def test_loss_decreases_over_first_ten_epochs(self):
        g = tiny_graph()
        cfg = tr.TrainConfig(epochs=10, learning_rate=1e-2, seed=0, ablation="full")
        gcn = GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.0)
        _, rep = tr.train(g, cfg, gcn)
        assert rep.loss_curve[-1] < rep.loss_curve[0]

    def test_bitwise_determinism(self):
        g = tiny_graph(seed=2)

        def run():
            cfg = tr.TrainConfig(epochs=6, learning_rate=1e-2, seed=4, ablation="full")
            gcn = GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.1)
            _, rep = tr.train(g, cfg, gcn)
            return rep.loss_curve[-1]

        assert run() == run()

    def test_gcn_only_on_separable_features(self):
        n = 30
        g = build_graph(n, [0, 5], [1, 6], [1, 2])
        labels = np.zeros(n, dtype=np.int8)
        labels[:10] = 1
        feats = np.zeros((n, 2))
        feats[:, 0] = 3.0 * labels + np.random.default_rng(0).normal(0, 0.05, n)
        feats[:, 1] = 1.0
        g = set_features_labels(g, feats, labels)
        split = make_splits(g, 1, 0.7, seed=1)[0]
        cfg = tr.TrainConfig(epochs=100, learning_rate=1e-2, seed=0, ablation="gcn_only")
        gcn = GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.0)
        _, rep = tr.train(g, cfg, gcn, split)
        assert rep.auc == 1.0

    def test_delta_stats_recorded_and_bounded(self):
        g = tiny_graph(seed=3)
        cfg = tr.TrainConfig(epochs=5, learning_rate=1e-2, seed=1, ablation="tm_ada")
        gcn = GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.0)
        _, rep = tr.train(g, cfg, gcn)
        assert len(rep.delta_stats) == 5
        tau = float(g.tau_max)
        for lo, mean, hi in rep.delta_stats:
            assert 0.0 < lo <= mean <= hi < tau

    def test_one_shot_extraction(self):
        g = tiny_graph(seed=4)
        cfg = tr.TrainConfig(epochs=4, learning_rate=1e-2, seed=1, ablation="full",
                             refresh_interval=None)
        gcn = GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.0)
        _, rep = tr.train(g, cfg, gcn)
        assert rep.total_instances > 0

    @pytest.mark.parametrize("bias", [1e3, -1e3])
    def test_saturated_window_logits_train_and_index(self, monkeypatch, bias):
        # the sigmoid rounds to exactly 1 (or 0) here; windows must stay in (0, tau)
        monkeypatch.setattr(md, "WINDOW_BIAS_INIT", bias)
        g = tiny_graph(seed=6)
        cfg = tr.TrainConfig(epochs=1, learning_rate=1e-2, seed=0, ablation="full")
        state, rep = tr.train(g, cfg, GCNConfig(layers=2, hidden_dim=16, out_dim=8,
                                                 dropout=0.0))
        tau = float(g.tau_max)
        assert 0.0 < rep.delta_stats[0][0] and rep.delta_stats[0][2] < tau
        assert abs(state.win_b2.item() - bias) < 1.0
        deltas = md.delta_snapshot(g.features, normalized_adjacency(g), state, tau)
        index = build_index(g, deltas, build_catalog(FOCAL_ROOTED))
        assert set(index.windows) == set(g.labeled_nodes().tolist())

    @pytest.mark.parametrize("ablation", ["full", "tm_fixed", "gcn_only"])
    def test_motifs_enumerated_once_per_run(self, monkeypatch, ablation):
        calls = []

        def counting_build_index(*args, **kwargs):
            calls.append(kwargs.get("cap"))
            return build_index(*args, **kwargs)

        monkeypatch.setattr(tr, "build_index", counting_build_index)
        g = tiny_graph(seed=7)
        cfg = tr.TrainConfig(epochs=6, learning_rate=1e-2, seed=0, ablation=ablation,
                             delta_fixed=15.0, refresh_interval=1)
        _, rep = tr.train(g, cfg, GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.0))
        assert calls == ([] if ablation == "gcn_only" else [cfg.instance_cap])
        if ablation != "gcn_only":
            # the last refresh's masked index is what a fresh build would give
            fresh = build_index(g, rep.extraction_windows, build_catalog(FOCAL_ROOTED),
                                nodes=g.labeled_nodes(), cap=cfg.instance_cap)
            assert rep.total_instances == fresh.total_instances() > 0

    @pytest.mark.parametrize("ablation, cap", [("full", 2), ("tm_fixed", 5)])
    def test_binding_cap_matches_the_eval_path(self, monkeypatch, ablation, cap):
        # every edge three times over, so (node, type)s hold more instances than the cap
        base = tiny_graph(seed=9)
        g = set_features_labels(
            build_graph(base.n, np.tile(base.src, 3), np.tile(base.dst, 3),
                        np.concatenate([base.timestamp + k for k in range(3)])),
            base.features, base.labels)
        enumerated = []

        def recording_build_index(*args, **kwargs):
            enumerated.append(build_index(*args, **kwargs))
            return enumerated[-1]

        monkeypatch.setattr(tr, "build_index", recording_build_index)
        split = make_splits(g, 1, 0.8, 3)[0]
        cfg = tr.TrainConfig(epochs=6, learning_rate=1e-2, seed=0, ablation=ablation,
                             delta_fixed=40.0, refresh_interval=2, instance_cap=cap)
        state, rep = tr.train(g, cfg, GCNConfig(layers=2, hidden_dim=16, out_dim=8,
                                                 dropout=0.0), split)
        (index,) = enumerated
        sizes = np.unique(np.column_stack([index.owner, index.type_id]), axis=0,
                          return_counts=True)[1]
        assert sizes.max() == cap
        # `tmgad eval` rebuilds the index at the extraction windows with the cap
        catalog, labeled = build_catalog(FOCAL_ROOTED), g.labeled_nodes()
        fresh = build_index(g, rep.extraction_windows, catalog, nodes=labeled, cap=cap)
        uncapped = build_index(g, rep.extraction_windows, catalog, nodes=labeled, cap=None)
        assert rep.total_instances == fresh.total_instances() < uncapped.total_instances()
        ids = np.concatenate([split.test_ids, split.train_ids])
        opts = md.HeadOptions.from_ablation(ablation, cfg.delta_fixed)
        tau = float(g.tau_max)
        got = md.forward_nodes(g.features, normalized_adjacency(g), state,
                               index.restrict(rep.extraction_windows), ids, opts, tau)[0].data
        want = md.forward_nodes(g.features, normalized_adjacency(g), state, fresh, ids, opts,
                                tau)[0].data
        np.testing.assert_array_equal(got, want)
        test_logits, train_logits = np.split(want[:, 0], [split.test_ids.size])
        y = g.labels.astype(np.float64)
        assert rep.auc == tr.auc(expit(test_logits), y[split.test_ids])
        assert rep.train_loss == tr.bce_loss(train_logits, y[split.train_ids])

    def test_divergence_names_the_epoch_and_op(self):
        g = tr.synth_burst_graph(40, 0.2, 8, seed=9, horizon=120)
        with np.errstate(all="ignore"), pytest.raises(tr.TrainError) as e:
            tr.train(g, tr.TrainConfig(learning_rate=1e200))
        assert str(e.value) == "training diverged at epoch 1: non-finite output in op 'matmul'"

    def test_final_windows_are_the_snapshot(self):
        g = tiny_graph(seed=8)
        cfg = tr.TrainConfig(epochs=3, learning_rate=1e-2, seed=2, ablation="full")
        state, rep = tr.train(g, cfg, GCNConfig(layers=2, hidden_dim=16, out_dim=8,
                                                 dropout=0.1))
        want = md.delta_snapshot(g.features, normalized_adjacency(g), state, float(g.tau_max))
        np.testing.assert_array_equal(rep.delta_final, want)

    def test_report_records_every_config_field(self):
        cfg = tr.TrainConfig(epochs=2, ablation="tm_fixed", delta_fixed=30.0, pos_weight=2.0)
        gcn = GCNConfig(layers=3, hidden_dim=32, out_dim=4, dropout=0.0)
        _, rep = tr.train(tiny_graph(seed=5), cfg, gcn)
        assert rep.config == {**dataclasses.asdict(cfg), **dataclasses.asdict(gcn)}

    def test_tm_fixed_needs_delta(self):
        g = tiny_graph(seed=5)
        cfg = tr.TrainConfig(epochs=2, ablation="tm_fixed")
        with pytest.raises(ValueError, match="delta_fixed"):
            tr.train(g, cfg, GCNConfig(dropout=0.0))

    def test_requires_features_and_labels(self):
        g = build_graph(3, [0, 1], [1, 2], [1, 2])
        with pytest.raises(tr.TrainError):
            tr.train(g, tr.TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("kw", [dict(refresh_interval=0), dict(refresh_interval=-3),
                                    dict(instance_cap=0), dict(instance_cap=-1)])
    def test_counts_below_one_rejected(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be >= 1"):
            tr.TrainConfig(**kw)

    @pytest.mark.parametrize("weight", [0.0, -3.0, float("nan"), float("inf")])
    def test_pos_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(ValueError, match="pos_weight must be a positive finite number"):
            tr.TrainConfig(pos_weight=weight)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError) as e:
            tr.TrainConfig(learning_rate=rate)
        assert str(e.value) == f"learning_rate must be a positive finite number, got {rate}"

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_delta_fixed_must_be_positive_and_finite(self, delta):
        with pytest.raises(ValueError) as e:
            tr.TrainConfig(ablation="tm_fixed", delta_fixed=delta)
        assert str(e.value) == ("delta_fixed must be a positive finite number, or None, "
                                f"got {delta}")

    def test_none_refresh_and_cap_allowed(self):
        cfg = tr.TrainConfig(refresh_interval=None, instance_cap=None)
        assert cfg.refresh_interval is None and cfg.instance_cap is None


class TestGcnOnlyClassifier:
    """gcn_only's classifier reads only the backbone rows of clf_w1, with no zero half."""

    def test_equals_zero_half_formulation(self, monkeypatch):
        g = tiny_graph(200, seed=4)
        split = make_splits(g, 1, 0.8, 0)[0]
        cfg = tr.TrainConfig(epochs=20, learning_rate=1e-2, seed=0, ablation="gcn_only")
        state, report = tr.train(g, cfg, split=split)
        with monkeypatch.context() as m:
            m.setattr(tr, "forward_nodes", forward_nodes_zero_half)
            want_state, want = tr.train(g, cfg, split=split)
        assert report.loss_curve == want.loss_curve
        assert (report.auc, report.auprc, report.train_loss) == (
            want.auc, want.auprc, want.train_loss)
        for name, t in state.named().items():
            assert t.data.tobytes() == want_state.named()[name].data.tobytes(), name
        opts = md.HeadOptions.from_ablation("gcn_only")
        args = (g.features, normalized_adjacency(g), state, None, split.test_ids, opts,
                float(g.tau_max))
        got = md.forward_nodes(*args)[0].data
        assert got.tobytes() == forward_nodes_zero_half(*args)[0].data.tobytes()

    def test_motif_rows_keep_their_initial_values(self):
        g = tiny_graph(200, seed=4)
        cfg = tr.TrainConfig(epochs=20, learning_rate=1e-2, seed=0, ablation="gcn_only")
        state, _ = tr.train(g, cfg)
        init = md.init_model(np.random.default_rng(0), g.num_features, GCNConfig(),
                             build_catalog().size)
        d = state.embed_dim
        assert state.clf_w1.data[d:].tobytes() == init.clf_w1.data[d:].tobytes()
        assert not np.array_equal(state.clf_w1.data[:d], init.clf_w1.data[:d])


def shifted(g, offset):
    """`g` with `offset` added to every timestamp."""
    out = build_graph(g.n, g.src, g.dst, g.timestamp + offset, g.amount)
    return set_features_labels(out, g.features, g.labels)


class TestTimeOrigin:
    """Time counts from the graph's first timestamp: a shifted copy is the same input."""

    @pytest.mark.parametrize("offset", [1_000, 10**6, 17 * 10**17, 2**62])
    def test_shifted_copy_gives_same_instances(self, offset):
        g = tr.synth_burst_graph(300, 0.1, 10, seed=42)
        moved = shifted(g, offset)
        assert moved.tau_max == g.tau_max == 200
        catalog = build_catalog(FOCAL_ROOTED)
        windows = np.random.default_rng(0).uniform(0.01, 1.0, g.n) * g.tau_max
        a, b = (build_index(h, windows, catalog, cap=None) for h in (g, moved))
        for name in ("node_ids", "node_windows", "offsets", "owner", "type_id", "nodes",
                     "edges"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        np.testing.assert_array_equal(a.t_max + offset, b.t_max)
        assert a.total_instances() > 0

    @pytest.mark.parametrize("ablation", ["full", "tm_ada", "tm_fixed"])
    def test_shifted_copy_gives_same_logits(self, ablation):
        g = tr.synth_burst_graph(300, 0.1, 10, seed=42)
        split = make_splits(g, 1, 0.8, 7)[0]
        cfg = tr.TrainConfig(epochs=20, learning_rate=1e-2, seed=0, ablation=ablation,
                             delta_fixed=25.0)
        gcn = GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.1)
        catalog = build_catalog(FOCAL_ROOTED)
        runs = []
        # up to Unix nanoseconds (1.7e18) and 2**62, where floats are 1024 apart
        for h in (g, *(shifted(g, offset) for offset in (10**6, 17 * 10**17, 2**62))):
            state, rep = tr.train(h, cfg, gcn, split)
            index = build_index(h, rep.extraction_windows, catalog, cap=cfg.instance_cap)
            logits, _, _ = md.forward_nodes(h.features, normalized_adjacency(h), state, index,
                                            g.labeled_nodes(),
                                            md.HeadOptions.from_ablation(ablation, 25.0),
                                            float(h.tau_max))
            runs.append((logits.data, rep))
        (want, base), *moved_runs = runs
        assert base.total_instances > 0
        for got, moved in moved_runs:
            np.testing.assert_array_equal(got, want)
            assert moved.loss_curve == base.loss_curve
            assert moved.total_instances == base.total_instances
            assert (moved.auc, moved.auprc, moved.train_loss) == (base.auc, base.auprc,
                                                                   base.train_loss)

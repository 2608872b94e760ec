"""GCN layer rule, equivariance, gradients."""

import numpy as np
import pytest
import scipy.sparse as sp

from tmgad import diffcore as dc
from tmgad.backbone import GCNConfig, gcn_forward, glorot, init_gcn_weights
from tmgad.txgraph import build_graph, normalized_adjacency

from oracles import finite_difference_check, mean_all


def _a_hat(n, m, seed):
    """Normalized adjacency of a random n-node graph with m directed edges (no self-loops)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    return normalized_adjacency(build_graph(n, src, (src + rng.integers(1, n, m)) % n,
                                            rng.integers(0, 50, m)))


class TestForward:
    def test_identity_adjacency_single_layer(self):
        x = np.array([[1.0, -2.0], [-0.5, 3.0]])
        w = [dc.parameter(np.eye(2))]
        out = gcn_forward(x, sp.identity(2, format="csr"), w)
        np.testing.assert_allclose(out.data, np.maximum(x, 0.0))

    def test_zero_features_zero_embeddings(self):
        g = build_graph(4, [0, 1, 2], [1, 2, 3], [1, 2, 3])
        a_hat = normalized_adjacency(g)
        rng = np.random.default_rng(0)
        w = init_gcn_weights(rng, 3, GCNConfig(layers=2, hidden_dim=16, out_dim=4))
        out = gcn_forward(np.zeros((4, 3)), a_hat, w)
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    def test_two_layers_match_dense_oracle(self):
        g = build_graph(4, [0, 1, 2], [1, 2, 3], [1, 2, 3])
        a_hat = normalized_adjacency(g)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        w = init_gcn_weights(rng, 3, GCNConfig(layers=2, hidden_dim=16, out_dim=4))
        out = gcn_forward(x, a_hat, w)
        dense = a_hat.toarray()
        h = np.maximum(dense @ x @ w[0].data, 0.0)
        h = np.maximum(dense @ h @ w[1].data, 0.0)
        np.testing.assert_allclose(out.data, h, atol=1e-12)

    @pytest.mark.parametrize("dims", [(16, 8), (64, 8), (4, 16), (16, 16), (4, 16, 8),
                                      (64, 64, 8), (8, 16, 16, 4)])
    def test_any_widths_match_dense_oracle(self, dims):
        a_hat = _a_hat(9, 20, sum(dims))
        rng = np.random.default_rng(len(dims))
        x = rng.normal(size=(9, dims[0]))
        w = [dc.parameter(glorot(rng, i, o)) for i, o in zip(dims[:-1], dims[1:])]
        dense, h = a_hat.toarray(), x
        for wi in w:
            h = np.maximum(dense @ h @ wi.data, 0.0)
        np.testing.assert_allclose(gcn_forward(x, a_hat, w).data, h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(4, 16), (16, 16), (4, 16, 16)])
    def test_layers_that_do_not_narrow_propagate_first(self, dims):
        # bitwise: a layer whose width does not shrink keeps (A_hat @ H) @ W
        a_hat = _a_hat(9, 20, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(9, dims[0]))
        w = [dc.parameter(glorot(rng, i, o)) for i, o in zip(dims[:-1], dims[1:])]
        h = x
        for wi in w:
            h = np.maximum((a_hat @ h) @ wi.data, 0.0)
        np.testing.assert_array_equal(gcn_forward(x, a_hat, w).data, h)

    def test_dropout_draws_one_mask_per_layer_input(self):
        # the masks cover each layer's input H, in layer order, whatever the association
        a_hat = _a_hat(9, 20, 5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 4))
        w = [dc.parameter(glorot(rng, i, o)) for i, o in ((4, 16), (16, 8))]
        out = gcn_forward(x, a_hat, w, training=True, dropout=0.3,
                          rng=np.random.default_rng(7))
        draws, h = np.random.default_rng(7), x
        for wi in w:
            h = h * ((draws.random(h.shape) >= 0.3) / 0.7)
            h = np.maximum(a_hat.toarray() @ h @ wi.data, 0.0)
        np.testing.assert_allclose(out.data, h, rtol=0, atol=1e-12)

    def test_each_layer_records_one_matmul_and_one_spmm(self):
        a_hat = _a_hat(9, 20, 8)
        rng = np.random.default_rng(9)
        x = dc.parameter(rng.normal(size=(9, 4)))
        w = [dc.parameter(glorot(rng, i, o)) for i, o in ((4, 16), (16, 8))]
        with dc.Tape() as tape:
            gcn_forward(x, a_hat, w)
        assert len(tape) == 6  # per layer: matmul, spmm, relu

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            gcn_forward(np.ones((3, 2)), sp.identity(4, format="csr"),
                        [dc.parameter(np.ones((2, 2)))])

    def test_dropout_needs_rng_and_is_train_only(self):
        x = np.ones((2, 2))
        w = [dc.parameter(np.eye(2))]
        with pytest.raises(ValueError):
            gcn_forward(x, sp.identity(2, format="csr"), w, training=True, dropout=0.5)
        out = gcn_forward(x, sp.identity(2, format="csr"), w, training=False, dropout=0.5)
        np.testing.assert_allclose(out.data, x)


class TestProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            src = rng.integers(0, 8, 16)
            dst = (src + 1 + rng.integers(0, 7, 16)) % 8
            g = build_graph(8, src, dst, rng.integers(0, 20, 16))
            x = rng.normal(size=(8, 3))
            w = init_gcn_weights(rng, 3, GCNConfig(layers=2, hidden_dim=16, out_dim=5))
            base = gcn_forward(x, normalized_adjacency(g), w).data
            perm = rng.permutation(8)
            inv = np.argsort(perm)
            g2 = build_graph(8, perm[g.src], perm[g.dst], g.timestamp)
            out = gcn_forward(x[inv], normalized_adjacency(g2), w).data
            # relabeled graph with relabeled features gives relabeled rows
            np.testing.assert_allclose(out, base[inv], atol=1e-10)

    def test_gradient_through_three_layers(self):
        rng = np.random.default_rng(8)
        g = build_graph(5, [0, 1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4])
        a_hat = normalized_adjacency(g)
        x = rng.normal(size=(5, 3))
        w = init_gcn_weights(rng, 3, GCNConfig(layers=3, hidden_dim=16, out_dim=4))

        def build():
            return mean_all(dc.tanh(gcn_forward(x, a_hat, w)))

        assert finite_difference_check(build, w, rng=rng, max_per_tensor=6) < 1e-4

    def test_gradient_through_three_narrowing_layers_with_dropout(self):
        rng = np.random.default_rng(10)
        a_hat = _a_hat(7, 14, 10)
        x = rng.normal(size=(7, 12))
        w = [dc.parameter(glorot(rng, i, o)) for i, o in ((12, 8), (8, 4), (4, 2))]

        def build():
            h = gcn_forward(x, a_hat, w, training=True, dropout=0.2,
                            rng=np.random.default_rng(11))
            return mean_all(dc.tanh(h))

        assert finite_difference_check(build, w, rng=rng) < 1e-4


class TestConfig:
    def test_valid_ranges(self):
        GCNConfig(layers=4, hidden_dim=64, out_dim=32, dropout=0.5)

    @pytest.mark.parametrize("kw", [dict(layers=1), dict(layers=5),
                                    dict(hidden_dim=20), dict(out_dim=0),
                                    dict(dropout=1.0), dict(dropout=-0.1)])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            GCNConfig(**kw)

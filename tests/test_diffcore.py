"""Tape engine: primitive gradients, sparsemax exactness, checkpoint format."""

import json
import math

import numpy as np
import pytest

from tmgad import diffcore as dc
from tmgad import txgraph as tg

import oracles as orc
from oracles import simplex_projection_bisect, write_zip, zip_members


class TestSparsemax:
    def test_contract_example(self):
        out = dc.segment_sparsemax(dc.tensor(np.array([[1.1], [1.0], [0.5]])), [3])
        np.testing.assert_allclose(out.data[:, 0], [0.55, 0.45, 0.0], atol=1e-12)

    def test_constant_input_is_uniform(self):
        out = dc.segment_sparsemax(dc.tensor(np.full((3, 1), 7.3)), [3])
        np.testing.assert_allclose(out.data[:, 0], [1 / 3] * 3, atol=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = rng.normal(0, 2, size=rng.integers(2, 12))
            got = dc.segment_sparsemax(dc.tensor(z.reshape(-1, 1)), [z.size]).data[:, 0]
            want = simplex_projection_bisect(z)
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert got.min() >= 0.0
            assert abs(got.sum() - 1.0) < 1e-12

    def test_rank_agreement_with_softmax(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.normal(0, 1, size=(6, 1))
            soft = orc.softmax_vec(dc.tensor(z)).data[:, 0]
            sparse = dc.segment_sparsemax(dc.tensor(z), [6]).data[:, 0]
            assert np.argmax(soft) == np.argmax(sparse) == np.argmax(z)

    def test_gradient_at_stable_support(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 20:
            z = rng.normal(0, 1, size=(5, 1))
            p = dc.segment_sparsemax(dc.tensor(z), [5]).data[:, 0]
            support = p > 0
            # skip draws where a +-1e-4 nudge could flip the support
            margin = np.min(np.abs(z[:, 0] - (z[:, 0] - p)[support].mean())) if support.all() else None
            x = dc.parameter(z)
            w = dc.tensor(rng.normal(0, 1, size=(5, 1)))

            def build():
                return orc.mean_all(dc.mul_col(dc.segment_sparsemax(x, [5]), w))

            perturbed_same_support = all(
                (dc.segment_sparsemax(dc.tensor(z + d.reshape(-1, 1)), [5]).data[:, 0] > 0).tolist()
                == support.tolist()
                for d in (np.eye(5)[i] * s * 2e-5 for i in range(5) for s in (1, -1)))
            if not perturbed_same_support:
                continue
            err = orc.finite_difference_check(build, [x], rng=rng)
            assert err < 1e-4
            checked += 1


def _split(z, sizes):
    return np.split(z, np.cumsum(sizes)[:-1])


class TestSegmentSparsemax:
    def test_matches_projection_per_segment(self):
        # criterion 4's tolerances, over segments of very different lengths
        rng = np.random.default_rng(12)
        for _ in range(200):
            sizes = rng.choice([1, 2, 3, 7, 24, 96], size=rng.integers(1, 8))
            z = rng.normal(0, rng.uniform(0.5, 4.0), size=int(sizes.sum()))
            got = dc.segment_sparsemax(dc.tensor(z.reshape(-1, 1)), sizes).data[:, 0]
            for zs, ys in zip(_split(z, sizes), _split(got, sizes)):
                assert np.abs(ys - dc.segment_sparsemax(dc.tensor(zs.reshape(-1, 1)), [zs.size])
                              .data[:, 0]).max() < 1e-9
                assert np.abs(ys - simplex_projection_bisect(zs)).max() < 1e-9
                assert abs(ys.sum() - 1.0) < 1e-12 and ys.min() >= 0.0

    def test_singleton_segments_are_one(self):
        z = np.array([[-3.0], [0.2], [40.0], [-1e3]])
        out = dc.segment_sparsemax(dc.tensor(z), [1, 1, 1, 1])
        np.testing.assert_array_equal(out.data, np.ones((4, 1)))

    def test_tied_scores(self):
        z = np.array([[7.3], [7.3], [7.3], [1.0], [1.0], [0.0], [2.0], [2.0]])
        out = dc.segment_sparsemax(dc.tensor(z), [3, 3, 2]).data[:, 0]
        np.testing.assert_allclose(out, [1 / 3] * 3 + [0.5, 0.5, 0.0] + [0.5, 0.5],
                                   atol=1e-12)

    def test_segment_is_independent_of_its_neighbours(self):
        # a segment projects the same alone as between segments of other lengths
        rng = np.random.default_rng(13)
        z = rng.normal(size=(9, 1))
        batch = np.vstack([rng.normal(size=(2, 1)), z, rng.normal(size=(30, 1))])
        np.testing.assert_array_equal(dc.segment_sparsemax(dc.tensor(batch), [2, 9, 30]).data[2:11],
                                      dc.segment_sparsemax(dc.tensor(z), [9]).data)

    def test_gradient_at_stable_support(self):
        rng = np.random.default_rng(14)
        sizes = [1, 4, 2, 6]
        checked = 0
        while checked < 10:
            z = rng.normal(0, 1, size=(13, 1))

            def supports(zz):
                return [(dc.segment_sparsemax(dc.tensor(s.reshape(-1, 1)), [s.size]).data[:, 0] > 0)
                        .tolist() for s in _split(zz, sizes)]

            base = supports(z[:, 0])
            if not all(supports(z[:, 0] + s * 2e-5 * np.eye(13)[i]) == base
                       for i in range(13) for s in (1, -1)):
                continue
            x = dc.parameter(z)
            probe = rng.normal(0, 1, size=(13, 1))
            _fd(lambda: orc.mean_all(dc.mul_const(dc.segment_sparsemax(x, sizes), probe)),
                [x], rng)
            checked += 1

    def test_segments_must_cover_the_column(self):
        x = dc.tensor(np.zeros((4, 1)))
        with pytest.raises(dc.ShapeMismatchError, match="segment_sparsemax"):
            dc.segment_sparsemax(x, [2, 1])
        with pytest.raises(dc.ShapeMismatchError, match="segment_sparsemax"):
            dc.segment_sparsemax(x, [4, 0])


def _total(x):
    """Sum of all entries, as a 1 x 1 tensor."""
    return dc.mul_const(orc.mean_all(x), float(x.data.size))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = dc.parameter(np.arange(4.0).reshape(2, 2))
        with dc.Tape() as t:
            loss = _total(x)
            t.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_sigmoid_gradient_at_zero(self):
        w = dc.parameter(np.zeros((1, 1)))
        with dc.Tape() as t:
            loss = _total(dc.sigmoid(w))
            t.backward(loss)
        assert w.grad[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_backward_twice_raises(self):
        x = dc.parameter(np.ones((1, 1)))
        with dc.Tape() as t:
            loss = _total(x)
            t.backward(loss)
            with pytest.raises(dc.DiffError, match="twice"):
                t.backward(loss)

    def test_fanout_accumulates(self):
        x = dc.parameter(np.array([[2.0]]))
        with dc.Tape() as t:
            a = dc.mul_const(x, 3.0)
            loss = _total(dc.concat_rows([a, a]))
            t.backward(loss)
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_quadratic_fd_error_tiny(self):
        rng = np.random.default_rng(7)
        w = dc.parameter(rng.normal(size=(1, 6)))

        def build():
            return dc.matmul(w, orc.transpose(w))

        assert orc.finite_difference_check(build, [w], rng=rng) < 1e-8

    def test_plateau_fd_error_zero(self):
        x = dc.parameter(-np.ones((2, 3)))

        def build():
            return orc.mean_all(dc.relu(x))

        assert orc.finite_difference_check(build, [x]) == 0.0


class TestTapeNesting:
    def test_ops_record_on_the_innermost_open_tape(self):
        x = dc.parameter(np.ones((2, 2)))
        with dc.Tape() as outer:
            dc.tanh(x)
            with dc.Tape() as inner:
                dc.tanh(x)
                dc.relu(x)
            dc.sigmoid(x)
        assert (len(outer), len(inner)) == (2, 2)

    def test_exit_out_of_order_raises(self):
        outer, inner = dc.Tape(), dc.Tape()
        outer.__enter__()
        try:
            inner.__enter__()
            try:
                with pytest.raises(dc.DiffError, match="tape stack corrupted"):
                    outer.__exit__(None, None, None)
            finally:
                inner.__exit__(None, None, None)
        finally:
            outer.__exit__(None, None, None)
        with pytest.raises(dc.DiffError, match="tape stack corrupted"):
            outer.__exit__(None, None, None)

    def test_op_outside_every_tape_records_nothing(self):
        x = dc.parameter(np.ones((2, 2)))
        with dc.Tape() as t:
            pass
        y = dc.tanh(x)
        assert len(t) == 0
        assert not y.requires_grad and y.grad is None


def _fd(build, params, rng, tol=1e-4):
    err = orc.finite_difference_check(build, params, rng=rng)
    assert err < tol, f"fd error {err}"


class TestPrimitiveGradients:
    """Central-difference check for every primitive in isolation."""

    rng = np.random.default_rng(11)

    def test_matmul(self):
        a = dc.parameter(self.rng.normal(size=(3, 4)))
        b = dc.parameter(self.rng.normal(size=(4, 2)))
        _fd(lambda: orc.mean_all(dc.matmul(a, b)), [a, b], self.rng)

    def test_spmm(self):
        import scipy.sparse as sp
        r = sp.random(5, 5, density=0.4, random_state=1, format="csr")
        m = (r + r.T).tocsr()  # spmm's constant is symmetric
        x = dc.parameter(self.rng.normal(size=(5, 3)))
        np.testing.assert_array_equal(dc.spmm(m, x).data, m @ x.data)
        _fd(lambda: orc.mean_all(dc.spmm(m, x)), [x], self.rng)

    def test_add_and_bias_and_const(self):
        a = dc.parameter(self.rng.normal(size=(3, 3)))
        bias = dc.parameter(self.rng.normal(size=(1, 3)))
        _fd(lambda: orc.mean_all(dc.add_bias(a, bias)), [a, bias], self.rng)
        _fd(lambda: orc.mean_all(dc.add_const(a, 2.5)), [a], self.rng)

    def test_scaling_ops(self):
        a = dc.parameter(self.rng.normal(size=(4, 3)))
        col = dc.parameter(self.rng.normal(size=(4, 1)) + 3.0)
        _fd(lambda: orc.mean_all(dc.mul_const(a, -1.7)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.mul_const(a, 0.4)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.mul_col(a, col)), [a, col], self.rng)
        _fd(lambda: orc.mean_all(dc.div_col(a, col)), [a, col], self.rng)

    def test_structure_ops(self):
        a = dc.parameter(self.rng.normal(size=(2, 3)))
        b = dc.parameter(self.rng.normal(size=(1, 3)))
        c = dc.parameter(self.rng.normal(size=(3, 2)))
        _fd(lambda: orc.mean_all(orc.transpose(a)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.concat_rows([a, b])), [a, b], self.rng)
        _fd(lambda: orc.mean_all(dc.concat_cols([a, orc.transpose(c)])), [a, c], self.rng)
        _fd(lambda: orc.mean_all(dc.select_rows(a, [1, 0, 1])), [a], self.rng)

    def test_block_and_segment_ops(self):
        a = dc.parameter(self.rng.normal(size=(6, 3)))
        col = dc.parameter(self.rng.normal(size=(6, 1)))
        _fd(lambda: orc.mean_all(orc.sum_blocks(a, 2)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.segment_sum_rows(a, [1, 2, 3])), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.softmax_blocks(col, 3)), [col], self.rng)

    def test_elementwise(self):
        a = dc.parameter(self.rng.normal(size=(3, 3)))
        _fd(lambda: orc.mean_all(dc.tanh(a)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.sigmoid(a)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.clip(a, -0.2, math.inf)), [a], self.rng)
        _fd(lambda: orc.mean_all(dc.clip(a, -0.3, 0.4)), [a], self.rng)

    def test_reductions(self):
        a = dc.parameter(self.rng.normal(size=(4, 3)))
        _fd(lambda: orc.mean_all(a), [a], self.rng)
        _fd(lambda: orc.mean_all(orc.mean_rows(a)), [a], self.rng)

    def test_weighted_sum_and_rowwise_dot(self):
        v = dc.parameter(self.rng.normal(size=(5, 3)))
        w = dc.parameter(self.rng.uniform(0.5, 2.0, size=(5, 1)))
        b = dc.parameter(self.rng.normal(size=(5, 3)))
        _fd(lambda: orc.mean_all(orc.weighted_sum(v, w)), [v, w], self.rng)
        _fd(lambda: orc.mean_all(dc.rowwise_dot(v, b)), [v, b], self.rng)

    def test_softmax_vec(self):
        col = dc.parameter(self.rng.normal(size=(5, 1)))
        probe = self.rng.normal(size=(5, 1))
        _fd(lambda: orc.mean_all(dc.mul_const(orc.softmax_vec(col), probe)), [col], self.rng)

    def test_bce_with_logits(self):
        z = dc.parameter(self.rng.normal(size=(6, 1)))
        y = (self.rng.random(6) > 0.5).astype(float).reshape(-1, 1)
        _fd(lambda: dc.bce_with_logits(z, y), [z], self.rng)
        _fd(lambda: dc.bce_with_logits(z, y, pos_weight=3.0), [z], self.rng)

    def test_composite_graph(self):
        a = dc.parameter(self.rng.normal(size=(4, 3)))
        w = dc.parameter(self.rng.normal(size=(3, 3)))
        col = dc.parameter(self.rng.normal(size=(4, 1)))

        def build():
            h = dc.tanh(dc.matmul(a, w))
            s = orc.softmax_vec(dc.rowwise_dot(h, dc.mul_col(h, dc.sigmoid(col))))
            out = dc.matmul(orc.transpose(s), h)
            return dc.bce_with_logits(orc.transpose(out), np.array([[1.0], [0.0], [1.0]]))

        _fd(build, [a, w, col], self.rng)


class TestSelectRows:
    """Forward and backward equal the one-hot product bit for bit."""

    rng = np.random.default_rng(14)

    @pytest.mark.parametrize("ids", [[4, 0, 2], [2, 2, 1, 0, 4, 2], list(range(5))[::-1],
                                     [3] * 7])
    def test_matches_one_hot_product(self, ids):
        data = self.rng.normal(size=(5, 3))
        c = self.rng.normal(size=(len(ids), 3))  # uneven upstream gradient per entry
        outs, grads = [], []
        for select in (dc.select_rows, orc.one_hot_rows):
            x = dc.parameter(data.copy())
            with dc.Tape() as t:
                out = select(x, ids)
                t.backward(orc.mean_all(dc.mul_const(out, c)))
            outs.append(out.data.tobytes())
            grads.append(x.grad.tobytes())
        assert outs[0] == outs[1]
        assert grads[0] == grads[1]

    def test_unselected_rows_get_zero_gradient(self):
        x = dc.parameter(self.rng.normal(size=(5, 2)))
        with dc.Tape() as t:
            t.backward(orc.mean_all(dc.select_rows(x, [3, 1])))
        np.testing.assert_array_equal(x.grad[[0, 2, 4]], 0.0)
        np.testing.assert_array_equal(x.grad[[1, 3]], 0.25)

    @pytest.mark.parametrize("ids", [[5], [-1]])
    def test_index_out_of_range_rejected(self, ids):
        with pytest.raises(dc.ShapeMismatchError, match="out of range for 5 rows"):
            dc.select_rows(dc.tensor(np.ones((5, 2))), ids)


class TestGatherSum:
    # segment 0 reads row 2 twice, segment 1 is empty, segment 2 reads rows 0, 4 and 2
    IDX = np.array([2, 2, 1, 0, 4, 2])
    SIZES = np.array([3, 0, 3])

    rng = np.random.default_rng(12)

    def test_matches_dense_weighted_gather(self):
        x = self.rng.normal(size=(5, 3))
        values = self.rng.normal(size=(6, 1))
        out = dc.gather_sum(dc.tensor(x), self.IDX, dc.tensor(values), self.SIZES)
        dense = np.zeros((3, 5))
        seg = np.repeat(np.arange(3), self.SIZES)
        for s, j, v in zip(seg, self.IDX, values[:, 0]):
            dense[s, j] += v
        np.testing.assert_allclose(out.data, dense @ x, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(out.data[1], 0.0)

    def test_gradients_for_x_and_values(self):
        x = dc.parameter(self.rng.normal(size=(5, 3)))
        values = dc.parameter(self.rng.normal(size=(6, 1)))
        c = self.rng.normal(size=(3, 3))  # uneven upstream gradient per output entry
        _fd(lambda: orc.mean_all(dc.mul_const(
            dc.gather_sum(x, self.IDX, values, self.SIZES), c)), [x, values], self.rng)

    def test_constant_values_get_no_gradient(self):
        x = dc.parameter(self.rng.normal(size=(5, 3)))
        values = dc.tensor(self.rng.normal(size=(6, 1)))
        with dc.Tape() as t:
            t.backward(orc.mean_all(dc.gather_sum(x, self.IDX, values, self.SIZES)))
        assert values.grad is None
        assert np.abs(x.grad).sum() > 0.0

    def test_index_out_of_range_rejected(self):
        with pytest.raises(dc.ShapeMismatchError, match="out of range for 5 rows"):
            dc.gather_sum(dc.tensor(np.ones((5, 2))), [5], np.ones(1), [1])


class TestGradientBuffers:
    """Each tensor owns its grad array, and constant inputs are handed no gradient."""

    rng = np.random.default_rng(13)

    def test_no_two_tensors_share_a_grad_buffer(self):
        x = dc.parameter(self.rng.normal(size=(3, 2)))
        b = dc.parameter(self.rng.normal(size=(1, 2)))

        def build():
            x.grad = b.grad = None  # leaves adopt their first gradient too
            s = dc.mul_const(x, 2.0)  # x is used twice; backward reaches add_bias first
            y = dc.add_bias(x, b)
            z = dc.add_const(y, 0.5)
            r = dc.concat_rows([z, s])
            t = orc.transpose(r)
            c = dc.concat_cols([r, orc.transpose(t)])
            build.tensors = [x, b, s, y, z, r, t, c]
            return orc.mean_all(dc.tanh(c))

        with dc.Tape() as tape:
            tape.backward(build())
        grads = [t.grad for t in build.tensors]
        assert all(g is not None for g in grads)
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        _fd(build, [x, b], self.rng)

    @staticmethod
    def handed_a_gradient(monkeypatch, build):
        """The tensors that backward of mean_all(build()) hands to `_accum`."""
        handed, accum = [], dc._accum

        def record(t, g):
            handed.append(t)
            accum(t, g)

        monkeypatch.setattr(dc, "_accum", record)
        with dc.Tape() as tape:
            tape.backward(orc.mean_all(build()))
        return handed

    # op -> (constant shape, parameter shape, op applied to (constant, parameter))
    CONSTANT_INPUT_CASES = {
        "matmul": ((3, 4), (4, 2), lambda c, p: dc.matmul(c, p)),
        "mul_col x": ((3, 2), (3, 1), lambda c, p: dc.mul_col(c, p)),
        "mul_col col": ((3, 1), (3, 2), lambda c, p: dc.mul_col(p, c)),
        "div_col x": ((3, 2), (3, 1), lambda c, p: dc.div_col(c, p)),
        "div_col col": ((3, 1), (3, 2), lambda c, p: dc.div_col(p, c)),
        "rowwise_dot": ((3, 2), (3, 2), lambda c, p: dc.rowwise_dot(c, p)),
        "gather_sum": ((3, 2), (4, 1), lambda c, p: dc.gather_sum(c, [2, 0, 2, 1], p, [3, 1])),
    }

    @pytest.mark.parametrize("op", sorted(CONSTANT_INPUT_CASES))
    def test_constant_input_gets_no_gradient(self, monkeypatch, op):
        const_shape, param_shape, apply = self.CONSTANT_INPUT_CASES[op]
        const = dc.tensor(self.rng.uniform(1.0, 2.0, size=const_shape))
        param = dc.parameter(self.rng.uniform(1.0, 2.0, size=param_shape))
        handed = self.handed_a_gradient(monkeypatch, lambda: apply(const, param))
        assert not any(t is const for t in handed)
        assert const.grad is None
        assert any(t is param for t in handed) and np.abs(param.grad).sum() > 0.0


class TestGuards:
    def test_shape_mismatch_names_op(self):
        with pytest.raises(dc.ShapeMismatchError, match="matmul"):
            dc.matmul(dc.tensor(np.ones((2, 3))), dc.tensor(np.ones((2, 3))))

    def test_numeric_guard_trips(self):
        big = dc.tensor(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(dc.NumericGuardError):
            dc.mul_const(big, 1e10)

    def test_weighted_sum_zero_weights(self):
        with pytest.raises(dc.NumericGuardError, match="weights"):
            orc.weighted_sum(dc.tensor(np.ones((2, 2))), dc.tensor(np.zeros((2, 1))))

    def test_loss_must_be_scalar(self):
        x = dc.parameter(np.ones((2, 2)))
        with dc.Tape() as t:
            y = dc.mul_const(x, 2.0)
            with pytest.raises(dc.ShapeMismatchError):
                t.backward(y)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            a = dc.parameter(rng.normal(size=(5, 4)))
            with dc.Tape() as t:
                loss = orc.mean_all(dc.tanh(dc.matmul(a, orc.transpose(a))))
                t.backward(loss)
            return loss.data.tobytes(), a.grad.tobytes()

        assert run() == run()


class TestCheckpoints:
    """Named tensors written by `txgraph.save_arrays` and put back by `restore_tensors`."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        named = {"w": dc.parameter(rng.normal(size=(3, 2))),
                 "b": dc.parameter(np.zeros((1, 2)))}
        path = tmp_path / "ckpt.bin"
        tg.save_arrays(path, {k: t.data for k, t in named.items()}, {})
        loaded, meta = tg.load_arrays(path, "checkpoint")
        assert meta == {}
        np.testing.assert_array_equal(loaded["w"], named["w"].data)
        fresh = {"w": dc.parameter(np.ones((3, 2))), "b": dc.parameter(np.ones((1, 2)))}
        dc.restore_tensors(fresh, loaded)
        np.testing.assert_array_equal(fresh["w"].data, named["w"].data)

    def test_rejects_bad_magic_and_version(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(tg.ValidationError, match="not a complete zip file"):
            tg.load_arrays(p, "checkpoint")
        p.write_bytes(b"TMGC\x01" + bytes(30))  # the earlier struct format
        with pytest.raises(tg.ValidationError, match=r"earlier tmgad .* re-run `tmgad train`$"):
            tg.load_arrays(p, "checkpoint")

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(3, 2), "b": np.ones((1, 2))}
        full = tmp_path / "ckpt.bin"
        tg.save_arrays(full, arrays, {"epochs": 3})
        raw = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for data in [raw[:k] for k in range(len(raw))] + [raw + b"\0"]:
            cut.write_bytes(data)
            with pytest.raises(tg.ValidationError, match=f"^cannot read checkpoint {cut}: "):
                tg.load_arrays(cut, "checkpoint")
        loaded, meta = tg.load_arrays(full, "checkpoint")
        assert sorted(loaded) == ["b", "w"] and meta == {"epochs": 3}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)

    def test_rejects_malformed_and_repeated_names(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        tg.save_arrays(p, {"a": np.ones((1, 1)), "b": np.zeros((1, 1))}, {})
        manifest, members = zip_members(p)
        bad = tmp_path / "bad.bin"
        write_zip(bad, {"a": members["a"], "\xff": members["b"]}, manifest)
        with pytest.raises(tg.ValidationError,
                           match=r"members \['a', 'manifest.json', '\xff'\] are not the "
                                 r"manifest and the arrays it lists, \['a', 'b'\]$"):
            tg.load_arrays(bad, "checkpoint")
        write_zip(bad, members, json.dumps(manifest).replace('"b": [', '"a": [', 1))
        with pytest.raises(tg.ValidationError, match=r"bad\.bin: manifest lists 'a' twice$"):
            tg.load_arrays(bad, "checkpoint")

    def test_rejects_name_and_shape_mismatch(self, tmp_path):
        loaded = {"w": np.ones((2, 2))}
        with pytest.raises(dc.DiffError, match="name mismatch"):
            dc.restore_tensors({"other": dc.parameter(np.ones((2, 2)))}, loaded)
        with pytest.raises(dc.DiffError, match="shape mismatch"):
            dc.restore_tensors({"w": dc.parameter(np.ones((3, 2)))}, loaded)

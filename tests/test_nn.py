"""Layer forward/backward behavior and the frozen numeric examples."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevreg import nn
from sevreg.errors import DimensionError, EmptyInputError, ParameterError
from sevreg.nn import (
    LayerParams,
    backward_batch,
    build_net,
    dropout_mask,
    forward_batch,
    huber_loss,
    huber_loss_batch,
    init_layer,
    linear_backward,
    linear_forward,
    linear_param_grads,
    relu,
    relu_backward,
    stats_pool,
    stats_pool_backward,
)


def triple_loop_linear(params, x):
    t, n_in = x.shape
    n_out = params.weight.shape[0]
    out = np.zeros((t, n_out))
    for i in range(t):
        for j in range(n_out):
            acc = 0.0
            for k in range(n_in):
                acc += x[i, k] * params.weight[j, k]
            out[i, j] = acc + params.bias[j]
    return out


class TestLinear:
    def test_identity_weights(self):
        params = LayerParams(np.eye(2), np.zeros(2))
        assert np.array_equal(linear_forward(params, np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_zero_weights_bias_only(self):
        params = LayerParams(np.zeros((2, 2)), np.array([3.0, 4.0]))
        assert np.array_equal(linear_forward(params, np.array([[5.0, 6.0]])), [[3.0, 4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        params = LayerParams(rng.standard_normal((3, 4)), rng.standard_normal(3))
        x = rng.standard_normal((2, 4))
        got = linear_forward(params, x)
        # BLAS may fuse multiplies, so agreement is to a couple of ulps.
        assert np.max(np.abs(got - triple_loop_linear(params, x))) <= 1e-14

    @pytest.mark.parametrize("trial", range(20))
    def test_triple_loop_oracle_small_sizes(self, trial):
        rng = np.random.default_rng(100 + trial)
        t, n_in, n_out = rng.integers(1, 9, size=3)
        params = LayerParams(
            rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out)
        )
        x = rng.standard_normal((t, n_in))
        got = linear_forward(params, x)
        assert np.max(np.abs(got - triple_loop_linear(params, x))) <= 1e-14

    def test_shape_mismatch(self):
        params = LayerParams(np.eye(3), np.zeros(3))
        with pytest.raises(DimensionError):
            linear_forward(params, np.ones((2, 4)))


class TestParamGrads:
    """linear_param_grads sums fixed row blocks, so its bits do not depend on
    the BLAS thread count."""

    B = nn.GRAD_BLOCK_ROWS

    @staticmethod
    def draw(rows, dtype, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, 24)).astype(dtype)
        grad_out = rng.standard_normal((rows, 40)).astype(dtype)
        return x, grad_out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 57, 383, nn.GRAD_BLOCK_ROWS])
    def test_one_block_is_the_plain_product(self, rows, dtype):
        x, grad_out = self.draw(rows, dtype)
        grad_w, grad_b = linear_param_grads(x, grad_out)
        assert grad_w.dtype == dtype
        assert np.array_equal(grad_w, grad_out.T @ x)
        assert np.array_equal(grad_b, grad_out.sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [nn.GRAD_BLOCK_ROWS + 1, 2 * nn.GRAD_BLOCK_ROWS, 2137])
    def test_long_reduction_sums_blocks_in_order(self, rows, dtype):
        x, grad_out = self.draw(rows, dtype, seed=rows)
        grad_w, _ = linear_param_grads(x, grad_out)
        blocks = [grad_out[s : s + self.B].T @ x[s : s + self.B] for s in range(0, rows, self.B)]
        reference = blocks[0]
        for block in blocks[1:]:
            reference = reference + block
        assert np.array_equal(grad_w, reference)
        # Two summation orders of `rows` products: each is within
        # rows * eps * sum|products| of the exact value.
        bound = 2 * rows * np.finfo(dtype).eps * (np.abs(grad_out).T @ np.abs(x))
        assert np.all(np.abs(grad_w - grad_out.T @ x) <= bound)


class TestRelu:
    def test_elementwise(self):
        assert np.array_equal(relu(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])

    def test_all_negative(self):
        assert np.array_equal(relu(np.full((3, 3), -5.0)), np.zeros((3, 3)))

    def test_gradient_convention(self):
        x = np.array([[3.0, -3.0, 0.0]])
        grad = relu_backward(x, np.ones_like(x))
        # subgradient at exactly 0 is 0
        assert np.array_equal(grad, [[1.0, 0.0, 0.0]])


class TestDropout:
    def _net(self):
        return build_net(feat_dim=4, seed_or_rng=0, hidden_dim=6, dropout_p=0.5)

    def test_eval_mode_identity(self):
        net = self._net()
        seqs = [np.random.default_rng(1).normal(size=(5, 4))]
        cache = forward_batch(net, seqs, training=False, rng=None)
        assert cache.mask1 is None and cache.mask2 is None
        assert np.array_equal(cache.h1, relu(cache.a1))
        assert np.array_equal(cache.h2, relu(cache.a2))

    def test_p_zero_identity(self):
        assert np.array_equal(dropout_mask((4, 4), 0.0, None), np.ones((4, 4)))
        assert np.array_equal(
            dropout_mask((4, 4), 0.0, np.random.default_rng(0)), np.ones((4, 4))
        )

    def test_monte_carlo_expectation(self):
        rng = np.random.default_rng(11)
        mask = dropout_mask((500, 200), 0.5, rng)
        assert set(np.unique(mask)) == {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.02

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            dropout_mask((2, 2), 1.0, np.random.default_rng(0))

    def test_training_without_rng_rejected(self):
        with pytest.raises(ParameterError):
            dropout_mask((2, 2), 0.5, None)
        seqs = [np.ones((3, 4))]
        with pytest.raises(ParameterError):
            forward_batch(self._net(), seqs, training=True, rng=None)


class TestFusedDropout:
    """The keep draw from raw 32-bit words, the ReLU gate, and the one
    multiplier that training applies forward and backward."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_keep_rate(self, p):
        n = 200_000
        mask = dropout_mask((n,), p, np.random.default_rng(21))
        kept = np.count_nonzero(mask) / n
        assert abs(kept - (1.0 - p)) < 5.0 * np.sqrt(p * (1.0 - p) / n)
        assert set(np.unique(mask)) == {0.0, 1.0 / (1.0 - p)}

    def test_gate_zeroes_exactly_its_false_positions(self):
        gate = np.random.default_rng(3).random((40, 25)) < 0.5
        plain = dropout_mask(gate.shape, 0.3, np.random.default_rng(8))
        gated = dropout_mask(gate.shape, 0.3, np.random.default_rng(8), gate=gate)
        assert np.array_equal(gated, np.where(gate, plain, 0.0))

    def test_p_near_one_neither_overflows_nor_raises(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for dtype in (np.float32, np.float64):
                mask = dropout_mask((64, 64), 1.0 - 1e-12, np.random.default_rng(0), dtype)
                assert mask.dtype == dtype and np.all(np.isfinite(mask))

    def test_odd_count_advances_the_stream_by_half_words(self):
        drawn, ref = np.random.default_rng(6), np.random.default_rng(6)
        dropout_mask((3, 5), 0.2, drawn)
        ref.bit_generator.random_raw(8)  # ceil(15 / 2)
        assert np.array_equal(
            drawn.bit_generator.random_raw(4), ref.bit_generator.random_raw(4)
        )

    def test_fused_step_equals_unfused_reference(self, monkeypatch):
        p = 0.3
        net = build_net(feat_dim=4, seed_or_rng=2, hidden_dim=12, dropout_p=p)
        rng = np.random.default_rng(13)
        seqs = [rng.standard_normal((t, 4)) for t in (6, 2, 9)]
        grad_out = rng.standard_normal((3, 1))
        # training mode applies the one multiplier and never the plain ReLU ops
        monkeypatch.setattr(nn, "relu", None)
        monkeypatch.setattr(nn, "relu_backward", None)
        cache = forward_batch(net, seqs, training=True, rng=np.random.default_rng(5))
        grads = backward_batch(net, cache, grad_out)
        monkeypatch.undo()

        layers, ref_rng = net.layers, np.random.default_rng(5)
        x = np.concatenate(seqs)
        a1 = linear_forward(layers["adaptor1"], x)
        keep1 = dropout_mask(a1.shape, p, ref_rng)
        h1 = relu(a1) * keep1
        a2 = linear_forward(layers["adaptor2"], h1)
        keep2 = dropout_mask(a2.shape, p, ref_rng)
        h2 = relu(a2) * keep2
        pooled = stats_pool(h2, cache.offsets)
        out = linear_forward(layers["head"], pooled)
        for name, ref in {"h1": h1, "h2": h2, "pooled": pooled, "out": out}.items():
            assert np.array_equal(getattr(cache, name), ref), name

        gw3, gb3, grad_pooled = linear_backward(layers["head"], pooled, grad_out)
        grad_h2 = stats_pool_backward(h2, grad_pooled, cache.offsets, pooled)
        grad_a2 = relu_backward(a2, grad_h2 * keep2)
        gw2, gb2, grad_h1 = linear_backward(layers["adaptor2"], h1, grad_a2)
        gw1, gb1 = linear_param_grads(x, relu_backward(a1, grad_h1 * keep1))
        ref_grads = {
            "head.weight": gw3, "head.bias": gb3,
            "adaptor2.weight": gw2, "adaptor2.bias": gb2,
            "adaptor1.weight": gw1, "adaptor1.bias": gb1,
        }
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name

    def test_nan_pre_activation_reaches_the_output(self):
        net = build_net(feat_dim=4, seed_or_rng=0, hidden_dim=8, dropout_p=0.5)
        rng = np.random.default_rng(1)
        seqs = [rng.standard_normal((5, 4)), rng.standard_normal((3, 4))]
        seqs[0][2, 1] = np.nan
        cache = forward_batch(net, seqs, training=True, rng=rng)
        assert np.isnan(cache.h1[2]).all()  # dropped and gated units too
        assert np.isnan(cache.out[0]).all()
        assert np.all(np.isfinite(cache.out[1]))


class TestStatsPool:
    def test_constant_sequence(self):
        h = np.full((9, 4), 2.5)
        out = stats_pool(h)
        assert np.allclose(out[:4], 2.5)
        assert np.all(out[4:] >= 0.0)
        assert np.all(out[4:] < 1e-3)  # sqrt(eps) floor, not exactly zero

    def test_two_point_formula(self):
        out = stats_pool(np.array([[1.0], [3.0]]))
        assert abs(out[0] - 2.0) < 1e-12
        assert abs(out[1] - 1.0) < 1e-8

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((5, 3))
        out = stats_pool(h)
        mean = np.array([h[:, d].sum() / 5 for d in range(3)])
        var = np.array([sum((h[t, d] - mean[d]) ** 2 for t in range(5)) / 5 for d in range(3)])
        assert np.max(np.abs(out[:3] - mean)) < 1e-12
        assert np.max(np.abs(out[3:] - np.sqrt(var + 1e-8))) < 1e-12

    def test_output_length_and_nonnegative_std(self):
        rng = np.random.default_rng(4)
        for d in (1, 3, 8):
            out = stats_pool(rng.standard_normal((6, d)))
            assert out.shape == (2 * d,)
            assert np.all(out[d:] >= 0.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            stats_pool(np.zeros((0, 3)))

    def test_backward_shape(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 3))
        grad = stats_pool_backward(h, rng.standard_normal(6))
        assert grad.shape == h.shape


def reference_pool(h):
    """Per-segment statistics pooling as one sequence at a time computes it."""
    mean = h.mean(axis=0)
    var = np.square(h - mean).mean(axis=0)
    std = np.sqrt(var + nn.STD_EPS)
    return np.concatenate([mean, std])


def reference_pool_backward(h, grad_out):
    t, d = h.shape
    grad_mean = grad_out[:d]
    grad_std = grad_out[d:]
    mean = h.mean(axis=0)
    var = np.square(h - mean).mean(axis=0)
    std = np.sqrt(var + nn.STD_EPS)
    return grad_mean / t + grad_std * (h - mean) / (t * std)


def reference_batch(h, offsets, grad):
    """The references over a stacked batch: pooled rows and grad_h."""
    segments = [h[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    pooled = np.stack([reference_pool(seg) for seg in segments])
    grad_h = np.concatenate([reference_pool_backward(seg, g) for seg, g in zip(segments, grad)])
    return pooled, grad_h


class TestSegmentedStatsPool:
    """Pooling a stacked batch equals pooling each segment alone, bit for bit."""

    @given(
        width=st.sampled_from([1, 8, 32, 320]),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=64),
        kind=st.sampled_from(["normal", "relu", "constant"]),
        group_bytes=st.sampled_from([nn.POOL_GROUP_BYTES, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_reference(self, width, lengths, kind, group_bytes, seed):
        rng = np.random.default_rng(seed)
        offsets = np.cumsum([0, *lengths])
        h = rng.standard_normal((offsets[-1], width))
        if kind == "relu":
            h = np.maximum(h, 0.0)
        elif kind == "constant":
            h = np.repeat(h[:1], offsets[-1], axis=0)
        grad = rng.standard_normal((len(lengths), 2 * width))
        want, want_grad = reference_batch(h, offsets, grad)
        default_bytes = nn.POOL_GROUP_BYTES
        nn.POOL_GROUP_BYTES = group_bytes
        try:
            pooled = stats_pool(h, offsets)
            got_grad = stats_pool_backward(h, grad, offsets, pooled)
            recomputed_grad = stats_pool_backward(h, grad, offsets)
        finally:
            nn.POOL_GROUP_BYTES = default_bytes
        assert pooled.tobytes() == want.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()
        assert recomputed_grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("width", [1, 8, 32, 320])
    def test_batch_across_group_boundaries(self, width):
        rng = np.random.default_rng(width)
        # Mean length 30: about three groups' worth of rows.
        lengths = rng.integers(1, 60, size=3 * nn.POOL_GROUP_BYTES // (8 * width * 30))
        lengths[:3] = 1
        offsets = np.cumsum([0, *lengths])
        assert offsets[-1] * width * 8 > 2 * nn.POOL_GROUP_BYTES  # several groups
        h = np.maximum(rng.standard_normal((offsets[-1], width)), 0.0)
        grad = rng.standard_normal((len(lengths), 2 * width))
        want, want_grad = reference_batch(h, offsets, grad)
        pooled = stats_pool(h, offsets)
        assert pooled.tobytes() == want.tobytes()
        assert stats_pool_backward(h, grad, offsets, pooled).tobytes() == want_grad.tobytes()

    def test_single_segment_is_the_unsegmented_call(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((7, 5))
        grad = rng.standard_normal(10)
        assert stats_pool(h).tobytes() == reference_pool(h).tobytes()
        assert stats_pool(h, [0, 7]).tobytes() == reference_pool(h)[None].tobytes()
        assert stats_pool_backward(h, grad).tobytes() == reference_pool_backward(h, grad).tobytes()

    @pytest.mark.parametrize("offsets", [[0, 3, 3, 6], [0, 4], [1, 6], [0, 2, 7]])
    def test_offsets_must_split_the_rows(self, offsets):
        with pytest.raises(EmptyInputError):
            stats_pool(np.ones((6, 2)), offsets)


class TestHuber:
    def test_zero_error(self):
        value, grad = huber_loss(4.0, 4.0, 0.5)
        assert value == 0.0 and grad == 0.0

    def test_quadratic_branch(self):
        value, grad = huber_loss(1.25, 1.0, 0.5)
        assert abs(value - 0.03125) < 1e-15
        assert abs(grad - 0.25) < 1e-15

    def test_linear_branch(self):
        value, grad = huber_loss(3.0, 1.0, 0.5)
        assert abs(value - 0.875) < 1e-15
        assert grad == 0.5

    def test_branch_continuity_at_delta(self):
        delta = 0.5
        e = delta
        quad_value, quad_grad = 0.5 * e * e, e
        lin_value, lin_grad = delta * (abs(e) - 0.5 * delta), delta
        assert abs(quad_value - lin_value) < 1e-12
        assert abs(quad_grad - lin_grad) < 1e-12
        value, grad = huber_loss(e, 0.0, delta)
        assert abs(value - quad_value) < 1e-12
        assert abs(grad - quad_grad) < 1e-12

    def test_negative_linear_gradient_clipped(self):
        _, grad = huber_loss(0.0, 5.0, 0.5)
        assert grad == -0.5

    def test_bad_delta(self):
        with pytest.raises(ParameterError):
            huber_loss(1.0, 0.0, 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        preds = rng.standard_normal(16)
        targets = rng.standard_normal(16)
        value, grads = huber_loss_batch(preds, targets, 0.5)
        singles = [huber_loss(p, t, 0.5) for p, t in zip(preds, targets)]
        assert abs(value - np.mean([s[0] for s in singles])) < 1e-12
        assert np.allclose(grads, np.array([s[1] for s in singles]) / 16)


class TestNet:
    def test_eval_forward_deterministic(self):
        rng = np.random.default_rng(8)
        net = build_net(feat_dim=5, seed_or_rng=1, hidden_dim=8, out_dim=1)
        seqs = [rng.standard_normal((7, 5)), rng.standard_normal((3, 5))]
        out1 = forward_batch(net, seqs, training=False).out
        out2 = forward_batch(net, seqs, training=False).out
        assert np.array_equal(out1, out2)

    def test_init_bounds(self):
        rng = np.random.default_rng(9)
        layer = init_layer(rng, 64, 16)
        bound = (1.0 / 64) ** 0.5
        assert np.all(np.abs(layer.weight) <= bound)
        assert np.all(np.abs(layer.bias) <= bound)

    def test_seeded_init_reproducible(self):
        a = build_net(feat_dim=4, seed_or_rng=3)
        b = build_net(feat_dim=4, seed_or_rng=3)
        for k in a.param_arrays():
            assert np.array_equal(a.param_arrays()[k], b.param_arrays()[k])

    def test_rejects_wrong_feature_dim(self):
        net = build_net(feat_dim=4, seed_or_rng=0)
        with pytest.raises(DimensionError):
            forward_batch(net, [np.ones((3, 5))])


class TestDtype:
    """A net keeps its dtype through a training step: activations, masks,
    pooled statistics, output, gradients and the optimizer moments."""

    @staticmethod
    def _step(dtype, projector):
        from dataclasses import fields

        from sevreg.augment import AugmentConfig
        from sevreg.contrastive import PairingSpec, build_batch, stage2_loss
        from sevreg.nn import backward_batch
        from sevreg.optim import init_optimizer, optimizer_step

        rng = np.random.default_rng(5)
        net = build_net(
            feat_dim=4, seed_or_rng=1, hidden_dim=8, out_dim=6 if projector else 1,
            normalize_output=projector, dtype=dtype,
        )
        seqs = [rng.standard_normal((t, 4)) for t in (5, 3, 7, 4)]
        if projector:
            labels = [1.0, 2.5, 4.0, 6.0]
            batch = build_batch(list(zip(seqs, labels)), AugmentConfig(), rng)
            cache = forward_batch(net, batch.views, training=True, rng=rng)
            result = stage2_loss(cache.out, batch, PairingSpec("coarse"), 0.5, 1.0)
            grad_out = result.grad
            assert grad_out.dtype == dtype
        else:
            cache = forward_batch(net, seqs, training=True, rng=rng)
            targets = np.array([1.0, 2.5, 4.0, 6.0])  # float64 labels
            _, dpred = huber_loss_batch(cache.out[:, 0], targets, 0.5)
            grad_out = dpred[:, None]
        opt = init_optimizer(net.param_arrays(), lr=1e-3, weight_decay=0.01)
        grads = backward_batch(net, cache, grad_out)
        optimizer_step(net.param_arrays(), grads, opt)
        arrays = {
            f"cache.{f.name}": getattr(cache, f.name)
            for f in fields(cache)
            if f.name != "offsets" and getattr(cache, f.name) is not None
        }
        arrays.update({f"grad.{k}": v for k, v in grads.items()})
        arrays.update({f"param.{k}": v for k, v in net.param_arrays().items()})
        arrays.update({f"m.{k}": v for k, v in opt.m.items()})
        arrays.update({f"v.{k}": v for k, v in opt.v.items()})
        return net, arrays

    @pytest.mark.parametrize("projector", [False, True], ids=["regression", "stage-2"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_keeps_the_net_dtype(self, dtype, projector):
        net, arrays = self._step(dtype, projector)
        assert net.dtype == dtype
        expected = {"x", "a1", "h1", "a2", "h2", "mask1", "mask2", "pooled", "out"}
        if projector:
            expected.add("norms")
        assert {k[len("cache."):] for k in arrays if k.startswith("cache.")} == expected
        assert len([k for k in arrays if k.startswith(("m.", "v."))]) == 12
        assert {k: a.dtype for k, a in arrays.items()} == {k: np.dtype(dtype) for k in arrays}

    def test_init_draws_do_not_depend_on_dtype(self):
        wide = build_net(feat_dim=4, seed_or_rng=3, hidden_dim=8)
        narrow = build_net(feat_dim=4, seed_or_rng=3, hidden_dim=8, dtype=np.float32)
        for k, v in wide.param_arrays().items():
            assert np.array_equal(narrow.param_arrays()[k], v.astype(np.float32))

    def test_dropout_keeps_pattern_and_stream(self):
        rng64, rng32 = np.random.default_rng(4), np.random.default_rng(4)
        wide = dropout_mask((50, 30), 0.3, rng64)
        narrow = dropout_mask((50, 30), 0.3, rng32, np.float32)
        assert narrow.dtype == np.float32
        assert np.array_equal(narrow == 0, wide == 0)
        assert np.array_equal(narrow, wide.astype(np.float32))
        assert rng32.random() == rng64.random()
        assert dropout_mask((2, 3), 0.0, None, np.float32).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooling_keeps_dtype(self, dtype):
        h = np.random.default_rng(2).standard_normal((9, 3)).astype(dtype)
        offsets = np.array([0, 2, 9])
        pooled = stats_pool(h, offsets)
        grad = stats_pool_backward(h, np.ones_like(pooled), offsets, pooled)
        assert pooled.dtype == dtype and grad.dtype == dtype

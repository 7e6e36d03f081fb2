"""neural: autograd ops, layers, losses, Adam, determinism, checkpoints."""

import inspect
import tracemalloc

import numpy as np
import pytest

from shoutkit import neural
from shoutkit.errors import NumericError, RangeError, ShapeError, StateError
from shoutkit.neural import (Adam, BiGRU, Conv2d, Dense, LossKind, Tensor,
                             cross_entropy_loss, gru_sequence, load_checkpoint, loss,
                             mse_loss, save_checkpoint)
from shoutkit.neural import layers, optim
from shoutkit.neural.losses import PROB_FLOOR
from shoutkit.neural import tensor as T

from oracles import (adam_descent_oracle, adam_one_pass, adam_textbook, composed_cross_entropy,
                     composed_linear, composed_mse, count_graph_nodes, finite_difference_check,
                     full_batch_conv_columns, full_batch_conv_input_grad,
                     full_batch_conv_weight_grad, naive_conv2d, naive_logistic,
                     scalar_gru_step, sliced_final_state)


def rng_of(seed):
    return np.random.default_rng(seed)


class TestAutogradBasics:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        y = T.mul(x, x)
        y.backward()
        assert float(x.grad) == pytest.approx(6.0, abs=1e-12)

    def test_backward_before_forward(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(StateError):
            x.backward()

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, 2.0)
        with pytest.raises(StateError):
            y.backward()

    def test_off_path_parameter_gets_zero(self):
        x = Tensor(2.0, requires_grad=True)
        unused = Tensor(5.0, requires_grad=True)
        unused.zero_grad()
        T.mul(x, x).backward()
        assert np.array_equal(unused.grad, np.zeros(()))

    def test_a_released_gradient_ends_as_a_zero_filled_one(self):
        # the first contribution is added to a zero, so -0.0 reads +0.0 as 0 + (-0.0) does
        grads = []
        for fill in (False, True):
            x = Tensor(np.array([2.0, 3.0], dtype=np.float32), requires_grad=True)
            if fill:
                x.zero_grad()
            T.sum_all(T.mul(x, np.array([-0.0, 1.0]))).backward()
            grads.append(x.grad)
        assert grads[0].dtype == grads[1].dtype == np.float32
        assert grads[0].tobytes() == grads[1].tobytes()
        assert not np.signbit(grads[0]).any()

    def test_grad_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        T.mul(x, x).backward()
        T.mul(x, x).backward()
        assert float(x.grad) == pytest.approx(8.0)

    def test_no_grad_blocks_recording(self):
        x = Tensor(2.0, requires_grad=True)
        with neural.no_grad():
            y = T.mul(x, x)
        with pytest.raises(StateError):
            y.backward()

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        a.zero_grad(), b.zero_grad()
        T.mean_all(T.add(a, b)).backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 4 / 12)


class TestDense:
    def test_identity_weights(self):
        layer = Dense(3, 3, rng_of(0))
        layer.weight.data = np.eye(3)
        layer.bias.data = np.zeros(3)
        x = np.array([[1.0, -2.0, 0.5]])
        out = layer(Tensor(x))
        assert np.allclose(out.data, x)

    def test_matches_naive_matvec(self):
        layer = Dense(3, 4, rng_of(1))
        x = rng_of(2).standard_normal((1, 3))
        out = layer(Tensor(x)).data[0]
        oracle = np.zeros(4)
        for m in range(4):
            for n in range(3):
                oracle[m] += x[0, n] * layer.weight.data[n, m]
            oracle[m] += layer.bias.data[m]
        assert np.allclose(out, oracle, atol=1e-12)

    def test_shape_mismatch(self):
        layer = Dense(3, 4, rng_of(1))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 5))))


class TestOneNodeLayers:
    """Each layer is one graph node whose values and gradients equal, byte for
    byte, those of the chain of ops it replaces."""

    @staticmethod
    def same(a, b):
        return a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("requires_grad", [True, False], ids=["x-grad", "x-data"])
    def test_linear_is_x_w_plus_b(self, dtype, requires_grad):
        layer = Dense(7, 5, rng_of(60), dtype)
        layer.bias.data = rng_of(61).standard_normal(5).astype(dtype)
        x = Tensor(rng_of(62).standard_normal((6, 7)).astype(dtype), requires_grad=requires_grad)
        g = rng_of(63).standard_normal((6, 5)).astype(dtype)
        out = layer(x)
        assert count_graph_nodes(out) == 1
        T.sum_all(T.mul(out, Tensor(g))).backward()
        value, d_x, d_weight, d_bias = composed_linear(x.data, layer.weight.data,
                                                       layer.bias.data, g)
        assert self.same(out.data, value)
        assert self.same(layer.weight.grad, d_weight) and self.same(layer.bias.grad, d_bias)
        assert self.same(x.grad, d_x) if requires_grad else x.grad is None

    @pytest.mark.parametrize("dtype,g_dtype", [(np.float32, np.float32),
                                               (np.float64, np.float64),
                                               (np.float32, np.float64)],
                             ids=["float32", "float64", "float32-float64-grad"])
    @pytest.mark.parametrize("requires_grad", [True, False], ids=["x-grad", "x-data"])
    @pytest.mark.parametrize("n,channels,height,kernel", [(8, 1, 512, 5), (3, 16, 11, 2)],
                             ids=["h512-k5-chunks", "h11-k2-one-chunk"])
    def test_one_stage_stack_is_the_conv_pool_relu_chain(self, dtype, g_dtype, requires_grad,
                                                         n, channels, height, kernel):
        assert (height > rows_per_chunk(channels, n)) == (height == 512)
        assert height % kernel  # pooling drops the trailing rows
        conv = Conv2d(channels, 4, kernel=5, padding=2, rng=rng_of(64), dtype=dtype)
        conv.bias.data = rng_of(65).standard_normal(4).astype(dtype)
        data = rng_of(66).standard_normal((n, channels, height, 20)).astype(dtype)
        g = Tensor(rng_of(67).standard_normal((n, 4, height // kernel, 20)).astype(g_dtype))
        results = []
        for layer in (lambda x: neural.conv_stack(x, [(conv.weight, conv.bias, 2, kernel)]),
                      lambda x: T.relu(neural.maxpool2d(conv(x), kernel))):
            x = Tensor(data, requires_grad=requires_grad)
            conv.weight.grad = conv.bias.grad = None
            out = layer(x)
            T.sum_all(T.mul(out, g)).backward()
            results.append((out.data, conv.weight.grad, conv.bias.grad, x.grad))
        stage, chain = results
        assert (stage[3] is None) == (chain[3] is None) == (not requires_grad)
        for mine, theirs in zip(stage, chain):
            assert theirs is None or self.same(mine, theirs)

    def test_one_stage_stack_is_one_node_and_none_under_no_grad(self):
        conv = Conv2d(1, 4, kernel=5, padding=2, rng=rng_of(68))
        x = Tensor(rng_of(69).standard_normal((2, 1, 30, 20)), requires_grad=True)
        recorded = neural.conv_stack(x, [(conv.weight, conv.bias, 2, 3)])
        assert count_graph_nodes(recorded) == 1
        with neural.no_grad():
            inference = neural.conv_stack(x, [(conv.weight, conv.bias, 2, 3)])
        assert not inference.requires_grad and inference._backward_fn is None
        assert inference._parents == ()
        assert np.array_equal(recorded.data, inference.data)

    @pytest.mark.parametrize("n,height,kernel", [(8, 512, 5), (3, 30, 3)],
                             ids=["h512-k5-chunks", "h30-k3-one-chunk"])
    def test_second_backward_doubles_the_stack_gradients(self, n, height, kernel):
        # the backward writes into each stage's conv output buffer, so a second
        # walk over the same graph must find everything it reads unchanged
        convs = [Conv2d(c, 4, kernel=5, padding=2, rng=rng_of(70 + c), dtype=np.float32)
                 for c in (1, 4)]
        x = Tensor(rng_of(72).standard_normal((n, 1, height, 20)).astype(np.float32))
        x = neural.conv_stack(x, [(conv.weight, conv.bias, 2, kernel) for conv in convs])
        g = rng_of(73).standard_normal(x.data.shape).astype(np.float32)
        value = T.sum_all(T.mul(x, Tensor(g)))
        value.backward()
        first = [p.grad.copy() for conv in convs for p in conv.parameters().values()]
        value.backward()
        second = [p.grad for conv in convs for p in conv.parameters().values()]
        for once, twice in zip(first, second):
            assert np.array_equal(twice, 2 * once)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_final_state_is_the_sliced_sequences(self, dtype):
        fwd = Tensor(rng_of(72).standard_normal((3, 6, 4)).astype(dtype), requires_grad=True)
        bwd = Tensor(rng_of(73).standard_normal((3, 6, 4)).astype(dtype), requires_grad=True)
        g = rng_of(74).standard_normal((3, 8)).astype(dtype)
        final = layers._final_state(fwd, bwd)
        assert count_graph_nodes(final) == 1
        T.sum_all(T.mul(final, Tensor(g))).backward()
        value, d_fwd, d_bwd = sliced_final_state(fwd.data, bwd.data, g)
        assert self.same(final.data, value)
        assert self.same(fwd.grad, d_fwd) and self.same(bwd.grad, d_bwd)
        with neural.no_grad():
            assert layers._final_state(fwd, bwd)._backward_fn is None

    def test_matmul_and_narrow_are_gone(self):
        for name in ("matmul", "narrow"):
            assert not hasattr(T, name) and name not in neural.__all__


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = Tensor(rng_of(3).standard_normal((6, 4)) * 5)
        p = T.softmax(z, axis=1).data
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert np.all((p > 0) & (p < 1))

    def test_shift_invariance(self):
        z = rng_of(4).standard_normal((2, 5))
        a = T.softmax(Tensor(z), axis=1).data
        b = T.softmax(Tensor(z + 123.4), axis=1).data
        assert np.allclose(a, b, atol=1e-12)


class TestLogistic:
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 2e-7), (np.float64, 1e-15)])
    def test_matches_float64_oracle(self, dtype, tol):
        x = np.linspace(-100, 100, 200_001).astype(dtype)
        out = T.logistic(x)
        assert out.dtype == dtype
        assert np.max(np.abs(out - naive_logistic(x))) <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturates_without_warning(self, dtype):
        with np.errstate(all="raise"):
            out = T.logistic(np.array([-1e4, 0.0, 1e4], dtype=dtype))
        assert out.tolist() == [0.0, 0.5, 1.0]


class TestConv:
    def test_identity_kernel(self):
        conv = Conv2d(1, 1, kernel=5, padding=2, rng=rng_of(0))
        conv.weight.data = np.zeros((1, 1, 5, 5))
        conv.weight.data[0, 0, 2, 2] = 1.0
        conv.bias.data = np.zeros(1)
        x = rng_of(1).standard_normal((1, 1, 9, 7))
        out = conv(Tensor(x))
        assert np.allclose(out.data, x, atol=1e-12)

    def test_preserves_spatial_dims(self):
        conv = Conv2d(1, 16, kernel=5, padding=2, rng=rng_of(0))
        out = conv(Tensor(np.zeros((2, 1, 512, 20))))
        assert out.data.shape == (2, 16, 512, 20)

    def test_matches_naive_convolution(self):
        # the documented configuration: 5x5 kernel, stride 1, padding 2
        conv = Conv2d(1, 2, kernel=5, padding=2, rng=rng_of(5))
        x = rng_of(6).standard_normal((1, 1, 7, 5))
        out = conv(Tensor(x)).data
        oracle = naive_conv2d(x, conv.weight.data, conv.bias.data, padding=2)
        assert np.max(np.abs(out - oracle)) <= 1e-10

    def test_matches_naive_convolution_multichannel(self):
        conv = Conv2d(3, 2, kernel=3, padding=1, rng=rng_of(7))
        x = rng_of(8).standard_normal((2, 3, 6, 4))
        out = conv(Tensor(x)).data
        oracle = naive_conv2d(x, conv.weight.data, conv.bias.data, padding=1)
        assert np.max(np.abs(out - oracle)) <= 1e-10

    def test_padding_wider_than_the_kernel(self):
        # the input gradient then crops the output gradient instead of padding it
        conv = Conv2d(2, 3, kernel=3, padding=3, rng=rng_of(8))
        conv.bias.data = rng_of(9).standard_normal(3)
        x = Tensor(rng_of(10).standard_normal((2, 2, 5, 4)), requires_grad=True)
        oracle = naive_conv2d(x.data, conv.weight.data, conv.bias.data, padding=3)
        assert np.max(np.abs(conv(x).data - oracle)) <= 1e-10
        w = Tensor(rng_of(11).standard_normal(oracle.shape))
        err = finite_difference_check(lambda: T.mean_all(T.mul(conv(x), w)),
                                      dict(conv.parameters(), x=x), h=1e-5)
        assert err <= 1e-4

    def test_channel_mismatch(self):
        conv = Conv2d(2, 4, kernel=3, padding=1, rng=rng_of(0))
        with pytest.raises(ShapeError):
            conv(Tensor(np.zeros((1, 3, 5, 5))))

    @pytest.mark.parametrize("node", ["conv2d", "conv_stack"])
    def test_nodes_refuse_a_channel_mismatch_and_a_kernel_beyond_the_padded_input(self, node):
        weight, bias = Tensor(np.zeros((2, 3, 5, 5))), Tensor(np.zeros(2))
        if node == "conv2d":
            call = lambda x, pad: neural.conv2d(x, weight, bias, pad)
        else:
            call = lambda x, pad: neural.conv_stack(x, [(weight, bias, pad, 1)])
        with pytest.raises(ShapeError, match="channel mismatch: input 2, kernel 3"):
            call(Tensor(np.zeros((1, 2, 8, 8))), 2)
        # 2 rows padded by 1 leave no room for 5 kernel rows
        with pytest.raises(ShapeError, match="kernel 5x5 larger than padded input 2x8"):
            call(Tensor(np.zeros((1, 3, 2, 8))), 1)

    def test_empty_batch(self):
        conv = Conv2d(2, 3, kernel=5, padding=2, rng=rng_of(0))
        x = Tensor(np.zeros((0, 2, 9, 7)), requires_grad=True)
        out = conv(x)
        assert out.data.shape == (0, 3, 9, 7)
        T.sum_all(out).backward()
        assert x.grad.shape == x.data.shape
        assert conv.weight.grad.shape == conv.weight.data.shape and not conv.weight.grad.any()
        assert conv.bias.grad.shape == (3,) and not conv.bias.grad.any()


def rows_per_chunk(channels, n, width=20, kernel=5):
    """How many output rows one chunk of GEMM operands holds for a batch of
    ``n`` at this output width: a chunk's largest operand has C*K rows (the
    width taps) for C > 1, and K*K rows (the stacked taps) for C = 1."""
    operand_rows = (kernel if channels == 1 else channels) * kernel
    return layers._CHUNK_ELEMENTS // (operand_rows * width * n)


class TestConvChunks:
    """Batches that cross the boundaries of the im2col chunks."""

    @pytest.mark.parametrize("channels,height,n", [(1, 512, 9), (16, 10, 132)],
                             ids=["high-dim", "low-dim"])
    def test_matches_naive_across_chunks(self, channels, height, n):
        assert height > 2 * rows_per_chunk(channels, n)
        conv = Conv2d(channels, 1, kernel=5, padding=2, rng=rng_of(30))
        conv.bias.data = rng_of(31).standard_normal(1)
        x = rng_of(32).standard_normal((n, channels, height, 20))
        out = conv(Tensor(x)).data
        oracle = naive_conv2d(x, conv.weight.data, conv.bias.data, padding=2)
        assert np.max(np.abs(out - oracle)) <= 1e-10

    def test_finite_differences_across_a_chunk_boundary(self):
        n = 33
        assert 20 > rows_per_chunk(16, n)
        conv = Conv2d(16, 16, kernel=5, padding=2, rng=rng_of(33))
        conv.bias.data = rng_of(34).standard_normal(16)
        x = Tensor(rng_of(35).standard_normal((n, 16, 20, 20)), requires_grad=True)
        w = Tensor(rng_of(36).standard_normal((n, 16, 20, 20)))
        err = finite_difference_check(lambda: T.mean_all(T.mul(conv(x), w)),
                                      dict(conv.parameters(), x=x), h=1e-5)
        assert err <= 1e-4

    def test_no_grad_gives_the_same_output(self):
        n = 33
        assert 20 > rows_per_chunk(16, n)
        conv = Conv2d(16, 16, kernel=5, padding=2, rng=rng_of(37))
        x = Tensor(rng_of(38).standard_normal((n, 16, 20, 20)))
        recorded = conv(x)
        with neural.no_grad():
            inference = conv(x)
        assert recorded.requires_grad and not inference.requires_grad
        assert np.array_equal(recorded.data, inference.data)

    def test_data_input_still_trains_weight_and_bias(self):
        conv = Conv2d(1, 4, kernel=5, padding=2, rng=rng_of(39))
        data = rng_of(40).standard_normal((5, 1, 30, 20))
        g = Tensor(rng_of(41).standard_normal((5, 4, 30, 20)))
        grads = {}
        for requires_grad in (True, False):
            x = Tensor(data, requires_grad=requires_grad)
            conv.weight.grad = conv.bias.grad = None
            T.sum_all(T.mul(conv(x), g)).backward()
            grads[requires_grad] = (x.grad, conv.weight.grad, conv.bias.grad)
        assert grads[True][0] is not None and grads[False][0] is None
        assert np.array_equal(grads[False][1], grads[True][1])
        assert np.array_equal(grads[False][2], grads[True][2])


class TestConvColumnRebuild:
    """A recorded conv keeps its GEMM operands only when the batch fits in one
    chunk; otherwise the backward rebuilds them chunk by chunk."""

    @staticmethod
    def weight_grad(channels, height, n, dtype):
        conv = Conv2d(channels, 16, kernel=5, padding=2, rng=rng_of(50), dtype=dtype)
        x = rng_of(51).standard_normal((n, channels, height, 20)).astype(dtype)
        g = rng_of(52).standard_normal((n, 16, height, 20)).astype(dtype)
        T.sum_all(T.mul(conv(Tensor(x, requires_grad=True)), Tensor(g))).backward()
        return conv.weight.grad, full_batch_conv_weight_grad(x, g, kernel=5, padding=2)

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-14)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("channels,height,n", [(16, 102, 7), (16, 10, 66), (1, 512, 10)],
                             ids=["high-dim-layer2", "low-dim-layer2-uneven",
                                  "high-dim-layer1-uneven"])
    def test_rebuilt_weight_grad_matches_full_batch_gemm(self, channels, height, n,
                                                         dtype, rtol):
        assert height > rows_per_chunk(channels, n)
        d_weight, reference = self.weight_grad(channels, height, n, dtype)
        assert d_weight.dtype == dtype
        assert np.max(np.abs(d_weight - reference)) <= rtol * np.max(np.abs(reference))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_one_chunk_weight_grad_is_the_full_batch_gemm(self, dtype):
        n = 65  # the largest batch whose 10 output rows fit in one chunk
        assert rows_per_chunk(16, n) >= 10 > rows_per_chunk(16, n + 1)
        d_weight, reference = self.weight_grad(16, 10, n, dtype)
        assert np.array_equal(d_weight, reference)

    def test_recorded_forward_keeps_no_full_batch_columns(self):
        conv = Conv2d(16, 16, kernel=5, padding=2, rng=rng_of(53), dtype=np.float32)
        x = Tensor(rng_of(54).standard_normal((32, 16, 102, 20)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv(x)
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # the backward rebuilds the columns from the node's (C, H, W, N) copy of
        # the input; a full-batch column buffer would be 400 x 65 280 float32
        # (104 MB)
        assert retained <= x.data.nbytes + layers._CHUNK_ELEMENTS * 4


class TestConvOperands:
    """The GEMM operands of each chunk: for C = 1 the stacked im2col columns,
    for C > 1 one row-shifted view of the width taps per height tap."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("n,height,kernel,padding", [(8, 512, 5, 2), (3, 40, 3, 1)],
                             ids=["h512-k5-chunks", "h40-k3-one-chunk"])
    def test_one_channel_forward_is_the_full_batch_gemm(self, n, height, kernel, padding,
                                                       dtype):
        # stage 1 multiplies exactly the im2col columns, chunk by chunk, so
        # its output is the full-batch GEMM's bit for bit
        assert (height > rows_per_chunk(1, n, kernel=kernel)) == (height == 512)
        conv = Conv2d(1, 16, kernel=kernel, padding=padding, rng=rng_of(104), dtype=dtype)
        conv.bias.data = rng_of(105).standard_normal(16).astype(dtype)
        x = rng_of(106).standard_normal((n, 1, height, 20)).astype(dtype)
        out = conv(Tensor(x)).data
        cols = full_batch_conv_columns(x, kernel, padding)
        reference = conv.weight.data.reshape(16, -1) @ cols + conv.bias.data[:, None]
        assert out.dtype == dtype
        assert np.array_equal(out.transpose(1, 2, 3, 0), reference.reshape(16, height, 20, n))

    # (kernel, padding, height, width): 'same', 'same' and a pad wider than
    # the kernel, whose input gradient crops the output gradient
    SHAPES = [(5, 2, 13, 6), (3, 1, 13, 6), (3, 3, 9, 4)]
    SHAPE_IDS = ["k5-p2", "k3-p1", "k3-p3"]

    @staticmethod
    def small_chunks(monkeypatch, kernel, padding, height, width, n):
        monkeypatch.setattr(layers, "_CHUNK_ELEMENTS", 900)
        out_height = height + 2 * padding - kernel + 1
        out_width = width + 2 * padding - kernel + 1
        assert out_height > 2 * rows_per_chunk(3, n, width=out_width, kernel=kernel)
        return out_height, out_width

    @pytest.mark.parametrize("kernel,padding,height,width", SHAPES, ids=SHAPE_IDS)
    def test_multichannel_forward_matches_naive_across_chunks(self, monkeypatch, kernel,
                                                              padding, height, width):
        self.small_chunks(monkeypatch, kernel, padding, height, width, n=4)
        conv = Conv2d(3, 2, kernel=kernel, padding=padding, rng=rng_of(107))
        conv.bias.data = rng_of(108).standard_normal(2)
        x = rng_of(109).standard_normal((4, 3, height, width))
        oracle = naive_conv2d(x, conv.weight.data, conv.bias.data, padding=padding)
        assert np.max(np.abs(conv(Tensor(x)).data - oracle)) <= 1e-10

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-14)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("kernel,padding,height,width", SHAPES, ids=SHAPE_IDS)
    def test_multichannel_gradients_match_full_batch_gemms(self, monkeypatch, kernel,
                                                          padding, height, width, dtype, rtol):
        out_height, out_width = self.small_chunks(monkeypatch, kernel, padding, height,
                                                  width, n=4)
        conv = Conv2d(3, 2, kernel=kernel, padding=padding, rng=rng_of(110), dtype=dtype)
        x = Tensor(rng_of(111).standard_normal((4, 3, height, width)).astype(dtype),
                   requires_grad=True)
        g = rng_of(112).standard_normal((4, 2, out_height, out_width)).astype(dtype)
        T.sum_all(T.mul(conv(x), Tensor(g))).backward()
        references = (full_batch_conv_weight_grad(x.data, g, kernel=kernel, padding=padding),
                      full_batch_conv_input_grad(g, conv.weight.data, padding, height, width))
        for grad, reference in zip((conv.weight.grad, x.grad), references):
            assert grad.dtype == dtype
            assert np.max(np.abs(grad - reference)) <= rtol * np.max(np.abs(reference))


class TestConvStack:
    """The conv stack node against the chain of ``conv2d``, ``maxpool2d`` and
    ``relu`` nodes, stage by stage, across the stack's row chunks."""

    @staticmethod
    def stages(kernel, dtype):
        convs = [Conv2d(c, 4, kernel=5, padding=2, rng=rng_of(80 + i), dtype=dtype)
                 for i, c in enumerate((1, 4, 4))]
        for i, conv in enumerate(convs):
            conv.bias.data = 0.1 * rng_of(90 + i).standard_normal(4).astype(dtype)
        return convs, [(conv.weight, conv.bias, 2, kernel) for conv in convs]

    @staticmethod
    def chain(x, convs, kernel):
        for conv in convs:
            x = T.relu(neural.maxpool2d(conv(x), kernel))
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("n,height,kernel", [(1, 30, 3), (32, 30, 3), (32, 512, 5)],
                             ids=["batch1-h30", "batch32-h30", "batch32-h512-chunks"])
    def test_matches_the_chain(self, n, height, kernel, dtype):
        # both run the same cores, so even the gradients agree bit for bit
        assert (height > rows_per_chunk(1, n)) == (height == 512)
        convs, stages = self.stages(kernel, dtype)
        data = rng_of(95).standard_normal((n, 1, height, 20)).astype(dtype)
        results = []
        for layer in (lambda x: neural.conv_stack(x, stages),
                      lambda x: self.chain(x, convs, kernel)):
            x = Tensor(data, requires_grad=True)
            for conv in convs:
                conv.weight.grad = conv.bias.grad = None
            out = layer(x)
            g = rng_of(96).standard_normal(out.data.shape).astype(dtype)
            T.sum_all(T.mul(out, Tensor(g))).backward()
            results.append((out.data, x.grad,
                            *(p.grad for conv in convs for p in conv.parameters().values())))
        (stack_out, *stack_grads), (chain_out, *chain_grads) = results
        assert stack_out.dtype == dtype and np.array_equal(stack_out, chain_out)
        for mine, theirs in zip(stack_grads, chain_grads):
            assert mine.dtype == dtype and np.array_equal(mine, theirs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("n", [32, 40, 7], ids=["batch32", "batch40", "batch7"])
    def test_data_input_matches_the_chain(self, n, dtype):
        # the path every model runs: stage 1's input needs no gradient, so the
        # stack pools each chunk in cache; at batch 40 a chunk of 52 rows is
        # cut to 50, whole windows of 5, while the chain's conv keeps 52
        assert rows_per_chunk(1, n) < 512 and (n != 40 or rows_per_chunk(1, n) == 52)
        convs, stages = self.stages(5, dtype)
        data = rng_of(110).standard_normal((n, 1, 512, 20)).astype(dtype)
        results = []
        for layer in (lambda x: neural.conv_stack(x, stages),
                      lambda x: self.chain(x, convs, 5)):
            for conv in convs:
                conv.weight.grad = conv.bias.grad = None
            out = layer(Tensor(data))
            g = rng_of(111).standard_normal(out.data.shape).astype(dtype)
            T.sum_all(T.mul(out, Tensor(g))).backward()
            results.append((out.data,
                            *(p.grad for conv in convs for p in conv.parameters().values())))
        for mine, theirs in zip(*results):
            assert mine.dtype == dtype and np.array_equal(mine, theirs)

    def test_data_input_keeps_no_conv_output(self):
        conv = Conv2d(1, 16, kernel=5, padding=2, rng=rng_of(112), dtype=np.float32)
        x = Tensor(rng_of(113).standard_normal((32, 1, 512, 20)).astype(np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = neural.conv_stack(x, [(conv.weight, conv.bias, 2, 5)])
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # kept: the (C, H, W, N) copy of the input, one argmax byte per pooled
        # value and at most the chunk buffers; the (16, 512, 20, 32) float32
        # conv output would be 21 MB
        assert retained <= x.data.nbytes + out.data.size + layers._CHUNK_ELEMENTS * 4

    def test_finite_differences_across_row_chunks(self, monkeypatch):
        # a small chunk makes every stage's forward, weight-gradient rebuild
        # and input-gradient correlation span several row chunks
        monkeypatch.setattr(layers, "_CHUNK_ELEMENTS", 600)
        first = Conv2d(2, 3, kernel=5, padding=2, rng=rng_of(97))
        second = Conv2d(3, 2, kernel=3, padding=1, rng=rng_of(98))
        for conv, seed in ((first, 99), (second, 100)):
            conv.bias.data = rng_of(seed).standard_normal(conv.bias.data.shape)
        x = Tensor(rng_of(101).standard_normal((3, 2, 17, 6)), requires_grad=True)
        assert 17 > 2 * rows_per_chunk(2, 3, width=6)
        w = Tensor(rng_of(102).standard_normal((3, 2, 4, 6)))
        stages = [(first.weight, first.bias, 2, 2), (second.weight, second.bias, 1, 2)]
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(neural.conv_stack(x, stages), w)),
            {"x": x, **{f"{i}.{k}": p for i, conv in enumerate((first, second))
                        for k, p in conv.parameters().items()}}, h=1e-5)
        assert err <= 1e-4

    def test_finite_differences_of_data_input_across_windowed_chunks(self, monkeypatch):
        # stage 1 pools 6-row forward chunks (8 rows cut to two windows of 3;
        # the last chunk holds only row 18, which pooling drops), and its
        # backward unpools the windows over each 8-row chunk of the chain
        monkeypatch.setattr(layers, "_CHUNK_ELEMENTS", 600)
        assert rows_per_chunk(1, 2, width=4, kernel=3) == 8
        first = Conv2d(1, 3, kernel=3, padding=1, rng=rng_of(114))
        second = Conv2d(3, 2, kernel=3, padding=1, rng=rng_of(115))
        for conv, seed in ((first, 116), (second, 117)):
            conv.bias.data = rng_of(seed).standard_normal(conv.bias.data.shape)
        x = Tensor(rng_of(118).standard_normal((2, 1, 19, 4)))
        w = Tensor(rng_of(119).standard_normal((2, 2, 3, 4)))
        stages = [(first.weight, first.bias, 1, 3), (second.weight, second.bias, 1, 2)]
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(neural.conv_stack(x, stages), w)),
            {f"{i}.{k}": p for i, conv in enumerate((first, second))
             for k, p in conv.parameters().items()}, h=1e-5, max_coords=60)
        assert err <= 1e-4

    @pytest.mark.parametrize("requires_grad", [True, False], ids=["x-grad", "x-data"])
    def test_a_pool_taller_than_the_first_conv_output_is_refused(self, requires_grad):
        _, stages = self.stages(5, np.float64)
        x = Tensor(np.zeros((2, 1, 4, 20)), requires_grad=requires_grad)
        with pytest.raises(ShapeError):
            neural.conv_stack(x, stages[:1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_empty_batch(self, dtype):
        convs, stages = self.stages(3, dtype)
        x = Tensor(np.zeros((0, 1, 30, 20), dtype=dtype), requires_grad=True)
        out = neural.conv_stack(x, stages)
        assert out.data.shape == (0, 4, 1, 20)
        T.sum_all(out).backward()
        assert x.grad.shape == x.data.shape
        for conv in convs:
            for p in (conv.weight, conv.bias):
                assert p.grad.shape == p.data.shape and not p.grad.any()

    def test_no_grad_gives_the_same_output_and_records_nothing(self):
        _, stages = self.stages(5, np.float32)
        x = Tensor(rng_of(103).standard_normal((32, 1, 512, 20)).astype(np.float32))
        recorded = neural.conv_stack(x, stages)
        assert count_graph_nodes(recorded) == 1
        with neural.no_grad():
            inference = neural.conv_stack(x, stages)
        assert not inference.requires_grad and inference._backward_fn is None
        assert inference._parents == ()
        assert np.array_equal(recorded.data, inference.data)


class TestMaxPool:
    def test_high_dim_heights(self):
        out = neural.maxpool2d(Tensor(np.zeros((1, 16, 512, 20))), 5)
        assert out.data.shape == (1, 16, 102, 20)

    def test_low_dim_heights(self):
        out = neural.maxpool2d(Tensor(np.zeros((1, 16, 30, 20))), 3)
        assert out.data.shape == (1, 16, 10, 20)

    def test_constant_input(self):
        out = neural.maxpool2d(Tensor(np.full((1, 1, 10, 4), 2.5)), 5)
        assert np.all(out.data == 2.5)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            neural.maxpool2d(Tensor(np.zeros((1, 1, 4, 4))), 5)

    def test_tie_routes_to_lowest_index(self):
        x = Tensor(np.zeros((1, 1, 4, 1)), requires_grad=True)
        x.zero_grad()
        out = neural.maxpool2d(x, 2)
        T.sum_all(out).backward()
        # all-equal windows: gradient goes to the first row of each window
        assert x.grad[0, 0].ravel().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_ties_at_batch_with_dropped_rows(self):
        x = Tensor(np.zeros((3, 2, 11, 4)), requires_grad=True)
        out = neural.maxpool2d(x, 5)
        assert out.data.shape == (3, 2, 2, 4)
        T.sum_all(out).backward()
        # first row of each all-zero window; row 10 is dropped, so none
        expected = np.zeros((3, 2, 11, 4))
        expected[:, :, [0, 5]] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_pool_commutes_with_relu(self):
        # small integers give negative windows, all-negative windows and ties
        data = rng_of(42).integers(-3, 3, size=(4, 3, 17, 5)).astype(np.float64)
        g = Tensor(rng_of(43).standard_normal((4, 3, 5, 5)))
        outs, grads = [], []
        for stage in (lambda t: T.relu(neural.maxpool2d(t, 3)),
                      lambda t: neural.maxpool2d(T.relu(t), 3)):
            x = Tensor(data, requires_grad=True)
            out = stage(x)
            T.sum_all(T.mul(out, g)).backward()
            outs.append(out.data)
            grads.append(x.grad)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(grads[0], grads[1])


class TestBiGru:
    def test_zero_input_zero_params(self):
        gru = BiGRU(3, 2, rng_of(0))
        for p in gru.parameters().values():
            p.data = np.zeros_like(p.data)
        seq, final = gru(Tensor(np.zeros((2, 5, 3))))
        assert np.all(seq.data == 0)
        assert np.all(final.data == 0)
        assert seq.data.shape == (2, 5, 4)

    def test_single_step_matches_scalar_oracle(self):
        wi_r, wi_z, wi_n = 0.5, -0.25, 0.8
        wh_r, wh_z, wh_n = 0.3, 0.1, -0.6
        weights = (Tensor(np.array([[wi_r, wi_z, wi_n]])), Tensor(np.array([[wh_r, wh_z, wh_n]])),
                   Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        # the step that reads x = 0.9 starts from the state the first step left
        states = gru_sequence(Tensor(np.array([[[-1.3], [0.9]]])), *weights, reverse=False)
        h_prev = float(states.data[0, 0, 0])
        assert h_prev != 0.0
        expected = scalar_gru_step(0.9, h_prev, wi_r, wi_z, wi_n, wh_r, wh_z, wh_n)
        assert float(states.data[0, 1, 0]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_sequence_matches_scalar_oracle(self, reverse):
        wi, wh = (0.5, -0.25, 0.8), (0.3, 0.1, -0.6)
        bi, bh = (0.1, -0.2, 0.05), (-0.3, 0.15, 0.2)
        xs = [0.9, -1.3, 0.2, 2.0, -0.4, 0.0]
        states = gru_sequence(Tensor(np.array(xs).reshape(1, -1, 1)),
                              Tensor(np.array([wi])), Tensor(np.array([wh])),
                              Tensor(np.array(bi)), Tensor(np.array(bh)), reverse=reverse)
        h = 0.0
        for t in (reversed(range(len(xs))) if reverse else range(len(xs))):
            h = scalar_gru_step(xs[t], h, *wi, *wh, *bi, *bh)
            assert float(states.data[0, t, 0]) == pytest.approx(h, abs=1e-12)

    def test_parameters_are_recurrent_uniform_draws_in_order(self):
        rng = rng_of(4)
        draws = [layers.recurrent_uniform(rng, shape, 2, np.float32)
                 for shape in ((3, 6), (2, 6), (3, 6), (2, 6))]
        params = BiGRU(3, 2, rng_of(4), np.float32).parameters()
        assert list(params) == [f"{tag}.{name}" for tag in ("fwd", "bwd")
                                for name in ("w_input", "w_hidden", "b_input", "b_hidden")]
        expected = [draws[0], draws[1], np.zeros(6), np.zeros(6),
                    draws[2], draws[3], np.zeros(6), np.zeros(6)]
        for p, value in zip(params.values(), expected):
            assert p.requires_grad and p.data.dtype == np.float32
            assert np.array_equal(p.data, value)

    def test_graph_size_does_not_grow_with_steps(self):
        def nodes(steps):
            seq, final = BiGRU(3, 2, rng_of(0))(Tensor(rng_of(1).standard_normal((2, steps, 3))))
            return count_graph_nodes(T.add(T.sum_all(seq), T.sum_all(final)))

        assert nodes(5) == nodes(20)

    def test_time_reversal_swaps_streams(self):
        gru = BiGRU(3, 2, rng_of(7))
        # share parameters between the two directions
        params = gru.parameters()
        for name in ("w_input", "w_hidden", "b_input", "b_hidden"):
            params[f"bwd.{name}"].data = params[f"fwd.{name}"].data.copy()
        x = rng_of(8).standard_normal((1, 6, 3))
        seq, _ = gru(Tensor(x))
        seq_rev, _ = gru(Tensor(x[:, ::-1].copy()))
        h = 2
        for t in range(6):
            assert np.allclose(seq_rev.data[0, t, :h], seq.data[0, 5 - t, h:], atol=1e-12)
            assert np.allclose(seq_rev.data[0, t, h:], seq.data[0, 5 - t, :h], atol=1e-12)

    def test_final_state_is_each_directions_last(self):
        gru = BiGRU(2, 3, rng_of(9))
        x = rng_of(10).standard_normal((2, 4, 2))
        seq, final = gru(Tensor(x))
        assert np.array_equal(final.data[:, :3], seq.data[:, -1, :3])
        assert np.array_equal(final.data[:, 3:], seq.data[:, 0, 3:])
        assert count_graph_nodes(final) == 3  # two gru_sequence nodes and the final state

    def test_input_dim_mismatch(self):
        gru = BiGRU(3, 2, rng_of(0))
        with pytest.raises(ShapeError):
            gru(Tensor(np.zeros((1, 5, 4))))


class TestLosses:
    def test_mse_example(self):
        value = mse_loss(Tensor(np.array([2.0, 5.0])), np.array([1.0, 7.0]))
        assert value.item() == pytest.approx(2.5, abs=1e-12)

    def test_perfect_one_hot_cross_entropy(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]))
        value = cross_entropy_loss(probs, np.array([0, 2]))
        assert value.item() <= 1e-10

    def test_uniform_four_class(self):
        probs = Tensor(np.full((3, 4), 0.25))
        value = cross_entropy_loss(probs, np.array([0, 1, 3]))
        assert value.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_bad_class_index(self):
        probs = Tensor(np.full((2, 4), 0.25))
        with pytest.raises(RangeError):
            cross_entropy_loss(probs, np.array([0, 4]))

    @pytest.mark.parametrize("dtype, target_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)])
    def test_mse_is_one_node_equal_to_the_composed_ops(self, dtype, target_dtype):
        x = Tensor(rng_of(4).standard_normal((6, 3)).astype(dtype), requires_grad=True)
        pred = T.mul(x, 1.0)        # recorded; passes its gradient to x unchanged
        target = rng_of(5).standard_normal((6, 3)).astype(target_dtype)
        value = mse_loss(pred, target)
        assert count_graph_nodes(value) == count_graph_nodes(pred) + 1
        value.backward()
        want_value, want_grad = composed_mse(x.data, target)
        assert value.data.dtype == want_value.dtype and np.array_equal(value.data, want_value)
        assert x.grad.dtype == want_grad.dtype and np.array_equal(x.grad, want_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_is_one_node_equal_to_the_composed_ops(self, dtype):
        probs = rng_of(6).dirichlet(np.ones(4), size=5).astype(dtype)
        probs[2] = [0.0, 1.0, 0.0, 0.0]     # the target's probability is below the floor
        targets = np.array([0, 3, 2, 1, 3])
        x = Tensor(probs, requires_grad=True)
        pred = T.mul(x, 1.0)
        value = cross_entropy_loss(pred, targets)
        assert count_graph_nodes(value) == count_graph_nodes(pred) + 1
        value.backward()
        want_value, want_grad = composed_cross_entropy(probs, targets, PROB_FLOOR)
        assert value.data.dtype == want_value.dtype and np.array_equal(value.data, want_value)
        assert x.grad.dtype == want_grad.dtype and np.array_equal(x.grad, want_grad)
        assert x.grad[2, 2] == 0.0

    def test_cross_entropy_needs_one_target_per_row(self):
        with pytest.raises(ShapeError, match="one index per row required"):
            cross_entropy_loss(Tensor(np.full((3, 4), 0.25)), np.array([0, 1]))

    def test_loss_dispatch(self):
        pred = Tensor(np.array([[0.5]]))
        assert loss(pred, np.array([[1.0]]), LossKind.MEAN_SQUARED_ERROR).item() == 0.25


class TestGradientChecks:
    """Central finite differences, h=1e-5, 64-bit, relative error <= 1e-4."""

    H = 1e-5
    TOL = 1e-4

    def test_dense(self):
        layer = Dense(4, 3, rng_of(0))
        x = Tensor(rng_of(1).standard_normal((5, 4)), requires_grad=True)
        w = rng_of(2).standard_normal((5, 3))
        params = dict(layer.parameters(), x=x)
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(T.relu(layer(x)), Tensor(w))), params, h=self.H)
        assert err <= self.TOL

    def test_conv(self):
        conv = Conv2d(2, 3, kernel=5, padding=2, rng=rng_of(3))
        x = Tensor(rng_of(4).standard_normal((2, 2, 7, 5)), requires_grad=True)
        w = rng_of(5).standard_normal((2, 3, 7, 5))
        params = dict(conv.parameters(), x=x)
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(conv(x), Tensor(w))), params, h=self.H)
        assert err <= self.TOL

    def test_one_stage_conv_stack(self):
        conv = Conv2d(2, 3, kernel=5, padding=2, rng=rng_of(16))
        conv.bias.data = rng_of(17).standard_normal(3)
        x = Tensor(rng_of(18).standard_normal((2, 2, 7, 5)), requires_grad=True)
        w = rng_of(19).standard_normal((2, 3, 3, 5))
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(neural.conv_stack(x, [(conv.weight, conv.bias, 2, 2)]),
                                     Tensor(w))),
            dict(conv.parameters(), x=x), h=self.H)
        assert err <= self.TOL

    def test_maxpool_away_from_ties(self):
        x_data = rng_of(6).standard_normal((1, 2, 10, 4))
        x = Tensor(x_data, requires_grad=True)
        w = rng_of(7).standard_normal((1, 2, 5, 4))
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(neural.maxpool2d(x, 2), Tensor(w))),
            {"x": x}, h=self.H)
        assert err <= self.TOL

    def test_bigru(self):
        gru = BiGRU(3, 2, rng_of(8))
        x = Tensor(rng_of(9).standard_normal((2, 5, 3)), requires_grad=True)
        w = rng_of(10).standard_normal((2, 5, 4))

        def forward():
            seq, final = gru(x)
            return T.add(T.mean_all(T.mul(seq, Tensor(w))), T.mean_all(final))

        err = finite_difference_check(forward, dict(gru.parameters(), x=x), h=self.H)
        assert err <= self.TOL

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_gru_sequence(self, reverse):
        weights = {name: Tensor(rng_of(seed).uniform(-0.6, 0.6, shape), requires_grad=True)
                   for seed, (name, shape) in enumerate((("w_input", (3, 6)), ("w_hidden", (2, 6)),
                                                         ("b_input", (6,)), ("b_hidden", (6,))))}
        x = Tensor(rng_of(9).standard_normal((2, 5, 3)), requires_grad=True)
        w = Tensor(rng_of(10).standard_normal((2, 5, 2)))
        err = finite_difference_check(
            lambda: T.mean_all(T.mul(gru_sequence(x, *weights.values(), reverse=reverse), w)),
            dict(weights, x=x), h=self.H)
        assert err <= self.TOL

        # a data input gets no gradient, and the weights get the same ones
        grads = {name: p.grad.copy() for name, p in weights.items()}
        data = Tensor(x.data)
        out = gru_sequence(data, *weights.values(), reverse=reverse)
        assert out._backward_fn(w.data)[0] is None
        for p in weights.values():
            p.zero_grad()
        T.mean_all(T.mul(out, w)).backward()
        for name, p in weights.items():
            assert np.array_equal(p.grad, grads[name])

    def test_mse_path(self):
        layer = Dense(3, 1, rng_of(11))
        x = Tensor(rng_of(12).standard_normal((6, 3)), requires_grad=True)
        y = rng_of(13).standard_normal((6, 1))
        err = finite_difference_check(
            lambda: mse_loss(T.sigmoid(layer(x)), y), dict(layer.parameters(), x=x),
            h=self.H)
        assert err <= self.TOL

    def test_cross_entropy_path(self):
        layer = Dense(3, 4, rng_of(14))
        x = Tensor(rng_of(15).standard_normal((6, 3)), requires_grad=True)
        targets = np.array([0, 1, 2, 3, 1, 0])
        err = finite_difference_check(
            lambda: cross_entropy_loss(T.softmax(layer(x), axis=1), targets),
            dict(layer.parameters(), x=x), h=self.H)
        assert err <= self.TOL


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        opt.zero_grad()
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])
        assert np.all(opt.state.first_moment["p"] == 0)
        assert np.all(opt.state.second_moment["p"] == 0)

    def test_first_step_magnitude(self):
        for g in (1e-3, 0.5, 40.0):
            p = Tensor(np.array([0.0]), requires_grad=True)
            opt = Adam({"p": p}, lr=0.01)
            p.grad = np.array([g])
            opt.step()
            expected = 0.01 * g / (g + 1e-8)
            assert float(-p.data[0]) == pytest.approx(expected, rel=1e-9)

    def test_descent_matches_scalar_oracle(self):
        # 50 steps on f(w) = (w - 3)^2 from w = 0 with lr = 0.1. The oracle
        # trajectory shows strict descent until momentum overshoots the
        # optimum around step 40; we assert exact agreement with the oracle,
        # strict descent on the pre-overshoot prefix, and a large overall drop.
        oracle = adam_descent_oracle(0.0, 0.1, 50, lambda w: 2 * (w - 3.0))
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        trajectory = [float(p.data[0])]
        for _ in range(50):
            opt.zero_grad()
            w = T.mul(T.add(p, -3.0), T.add(p, -3.0))
            T.mean_all(w).backward()
            opt.step()
            trajectory.append(float(p.data[0]))
        assert np.allclose(trajectory, oracle, atol=1e-12)
        f = [(w - 3.0) ** 2 for w in oracle]
        assert all(f[i + 1] < f[i] for i in range(40))
        assert f[50] < 0.05 < f[0]

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError):
            opt.step()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_textbook_update(self, dtype):
        rng = rng_of(61)
        shapes = {"w": (3, 4), "b": (5,), "s": ()}
        params = {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                  for name, shape in shapes.items()}
        start = {name: p.data.copy() for name, p in params.items()}
        grad_steps = [{name: rng.standard_normal(shape).astype(dtype)
                       for name, shape in shapes.items()} for _ in range(5)]
        opt = Adam(params, lr=0.01)
        for grads in grad_steps:
            for name, g in grads.items():
                params[name].grad = g
            opt.step()
        want = adam_textbook(start, grad_steps, lr=0.01)
        # same arithmetic in another order, and float32 moments for float32
        tol = 16 * np.finfo(dtype).eps
        for name, p in params.items():
            assert p.data.dtype == dtype and p.data.shape == shapes[name]
            np.testing.assert_allclose(p.data, want[name], rtol=tol, atol=tol)
        assert opt.state.step_count == 5

    def test_overflowing_squared_gradient_is_refused(self):
        p = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.full(8, 3e38, dtype=np.float32)   # finite, but g * g is inf in float32
        with pytest.raises(NumericError, match="'p'"):
            opt.step()
        assert opt.state.step_count == 0
        assert not p.data.any()
        assert not opt.state.first_moment["p"].any()
        assert not opt.state.second_moment["p"].any()

    def test_overflowing_sum_of_squares_is_not_refused(self):
        p = Tensor(np.zeros(4_000_000, dtype=np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.full(p.data.shape, 1e16, dtype=np.float32)  # each square is 1e32
        opt.step()
        assert opt.state.step_count == 1
        assert np.all(np.isfinite(opt.state.second_moment["p"]))
        assert np.all(p.data < 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 7, 14], ids=["first", "middle", "last"])
    def test_refused_step_changes_nothing(self, bad, at):
        rng = rng_of(62)
        params = {name: Tensor(rng.standard_normal(15), requires_grad=True)
                  for name in ("a", "b", "c")}
        opt = Adam(params, lr=0.01)
        for p in params.values():
            p.grad = rng.standard_normal(15)
        opt.step()
        for p in params.values():
            p.grad = rng.standard_normal(15)
        params["b"].grad[at] = bad        # "a" comes first and would move first
        before = {name: (p.data.copy(), opt.state.first_moment[name].copy(),
                         opt.state.second_moment[name].copy()) for name, p in params.items()}
        with pytest.raises(NumericError, match="'b'"):
            opt.step()
        assert opt.state.step_count == 1
        for name, p in params.items():
            data, m, v = before[name]
            assert np.array_equal(p.data, data)
            assert np.array_equal(opt.state.first_moment[name], m)
            assert np.array_equal(opt.state.second_moment[name], v)

    def test_warm_step_allocates_one_block_of_scratch(self):
        rng = rng_of(63)
        p = Tensor(rng.standard_normal((512, 1536)).astype(np.float32), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = rng.standard_normal((512, 1536)).astype(np.float32)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block is 21 rows of 1536 (32,256 elements), 1/24 of the parameter
        assert peak <= optim.BLOCK_ELEMENTS * 4 + 64 * 1024 < p.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_update_equals_one_pass(self, dtype):
        rng = rng_of(64)
        # several blocks with a short last one; rows longer than a block; a 0-d parameter
        shapes = {"rows": (70, 1000), "flat": (100_000,), "wide": (3, 40_000),
                  "conv": (64, 64, 5, 5), "s": ()}
        params = {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                  for name, shape in shapes.items()}
        start = {name: p.data.copy() for name, p in params.items()}
        grad_steps = []
        for _ in range(3):
            grads = {name: rng.standard_normal(shape).astype(dtype)
                     for name, shape in shapes.items()}
            # a conv's weight gradient is a transposed view, not C-contiguous
            grads["conv"] = np.ascontiguousarray(grads["conv"].transpose(1, 0, 2, 3)) \
                .transpose(1, 0, 2, 3)
            grad_steps.append(grads)
        assert not grad_steps[0]["conv"].flags.c_contiguous
        for name in ("rows", "flat", "wide", "conv"):
            blocks = optim._blocks(start[name])
            assert len(blocks) >= 3, name
            assert (blocks[-1].stop > len(start[name])) == (name != "wide"), name
        opt = Adam(params, lr=0.01)
        for grads in grad_steps:
            for name, g in grads.items():
                params[name].grad = g
            opt.step()
        want, first, second = adam_one_pass(start, grad_steps, lr=0.01)
        for name, p in params.items():
            assert p.data.dtype == dtype and p.data.shape == shapes[name]
            assert p.data.tobytes() == want[name].tobytes(), name
            assert opt.state.first_moment[name].tobytes() == first[name].tobytes(), name
            assert opt.state.second_moment[name].tobytes() == second[name].tobytes(), name

    def test_only_the_learning_rate_is_settable(self):
        # betas and epsilon are the paper's fixed constants, not arguments
        assert list(inspect.signature(Adam.__init__).parameters) == ["self", "params", "lr"]
        assert (optim.BETA1, optim.BETA2, optim.EPSILON) == (0.9, 0.999, 1e-8)


class TestDeterminism:
    def test_identical_seeds_identical_parameters(self):
        def run():
            layer = Dense(6, 2, rng_of(21))
            opt = Adam(layer.parameters(), lr=1e-3)
            data = np.random.default_rng(22).standard_normal((8, 6))
            target = np.random.default_rng(23).standard_normal((8, 2))
            for _ in range(5):
                opt.zero_grad()
                mse_loss(layer(Tensor(data)), target).backward()
                opt.step()
            return layer.weight.data.tobytes(), layer.bias.data.tobytes()

        assert run() == run()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        tensors = {
            "a.weight": np.random.default_rng(0).standard_normal((3, 4)),
            "b.bias": np.zeros(7, dtype=np.float32),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(tensors, path)
        back = load_checkpoint(path)
        assert set(back) == set(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])
            assert back[name].dtype == tensors[name].dtype

    def test_truncated_rejected(self, tmp_path):
        from shoutkit.errors import FormatError
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.ones(5)}, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(path)

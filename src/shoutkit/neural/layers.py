"""Network layers built on the autograd Tensor.

Each layer records one graph node with a hand-written backward pass (checked
against finite differences in the test suite): ``tensor.linear`` is a dense
layer, ``conv_stage`` a conv stage (convolution, max-pooling, ReLU), and
``gru_sequence`` one GRU direction over a whole sequence; the BiGRU's final
state is one more node. Each node's values and gradients are bit-identical to
the chain of single ops it replaces. ``conv2d`` and ``maxpool2d`` stay as
nodes of their own over the same forward and backward cores. Every layer
takes batched input only.

Convolution builds its im2col columns a few samples at a time into one
chunk-sized buffer, so each GEMM reads columns that are still in cache. A
recorded convolution keeps no full-batch column buffer: when the batch fits
in one chunk the weight gradient reuses the columns the forward built,
otherwise the backward rebuilds them chunk by chunk. The input gradient is
the transposed correlation (the output gradient, padded, against the
flipped kernel with in/out channels swapped) through the same chunked
helper, so there is no col2im scatter. Max-pooling finds each window's
first maximum in one pass over the window rows.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .tensor import Tensor


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def recurrent_uniform(rng: np.random.Generator, shape, hidden: int, dtype):
    bound = 1.0 / np.sqrt(hidden)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype=np.float64):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Tensor(glorot_uniform(rng, (n_in, n_out), n_in, n_out, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.n_in:
            raise ShapeError(f"dense expects (N, {self.n_in}), got {x.data.shape}")
        return T.linear(x, self.weight, self.bias)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class Conv2d:
    """2-D convolution, stride 1, symmetric zero padding, bias per channel."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 padding: int, rng: np.random.Generator, dtype=np.float64):
        self.in_channels = in_channels
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        fan_out = out_channels * kernel * kernel
        self.weight = Tensor(
            glorot_uniform(rng, (out_channels, in_channels, kernel, kernel), fan_in, fan_out, dtype),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (N, {self.in_channels}, H, W), got {x.data.shape}")
        return conv2d(x, self.weight, self.bias, self.padding)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Stride-1 convolution of (N, C, H, W) with (O, C, K, K) + per-channel bias.

    The forward is chunked im2col + GEMM (see ``_correlate``). When the whole
    batch fits in one chunk, the backward takes ``d_weight`` as one GEMM over
    the columns the forward already built; otherwise it rebuilds each chunk's
    columns into one chunk-sized buffer and accumulates that chunk's share of
    ``d_weight`` while they are in cache, so a recorded forward keeps no
    full-batch column buffer. ``d_x`` is a transposed correlation through the
    same helper: ``g`` zero-padded by ``K - 1 - padding``, the kernel flipped
    and its in/out channels swapped. ``d_x`` is skipped when ``x`` does not
    need a gradient.
    """
    out, backward = _conv(x, weight, bias, padding)
    return Tensor._make(out, (x, weight, bias), backward)


def _conv(x: Tensor, weight: Tensor, bias: Tensor, padding: int):
    """The forward of ``conv2d``: its output, and its backward as a function
    ``g -> (d_x, d_weight, d_bias)``."""
    n, c, h, w = x.data.shape
    out_ch, in_ch, kh, kw = weight.data.shape
    if in_ch != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {in_ch}")
    if h + 2 * padding - kh + 1 < 1 or w + 2 * padding - kw + 1 < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w}")

    pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.data, pad_spec)
    out, cols = _correlate(xp, weight.data.reshape(out_ch, -1), kh, kw)
    out += bias.data[None, :, None, None]
    length = out.shape[2] * out.shape[3]
    if cols is not None and cols.shape[1] < n * length:
        cols = None  # the batch spans several chunks: the backward rebuilds them

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(out_ch, -1)
        if cols is not None:
            d_weight = g2 @ cols.T
        else:
            # block @ g_chunk.T ran 1.2-2x faster than g_chunk @ block.T in
            # OpenBLAS at the paper's layer shapes
            d_weight_t = np.zeros((c * kh * kw, out_ch), dtype=np.result_type(g2, xp))
            for start, stop, block in _im2col_chunks(xp, kh, kw):
                d_weight_t += block @ g2[:, start * length : stop * length].T
            d_weight = d_weight_t.T
        d_weight = d_weight.reshape(weight.data.shape)
        d_bias = g.sum(axis=(0, 2, 3))
        if not x.requires_grad:
            return None, d_weight, d_bias
        # padding g by K - 1 and cropping ``padding`` off each side is the
        # K - 1 - padding pad, and stays valid when padding > K - 1
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        gp = gp[:, :, padding : padding + h + kh - 1, padding : padding + w + kw - 1]
        flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        d_x, _ = _correlate(gp, flipped, kh, kw)
        return d_x, d_weight, d_bias

    return out, backward


def conv_stage(x: Tensor, weight: Tensor, bias: Tensor, padding: int,
               pool_kernel: int) -> Tensor:
    """``relu(maxpool2d(conv2d(x, weight, bias, padding), pool_kernel))`` as one
    node, bit-identical to those three: it runs their cores, and its ReLU mask
    is ``out > 0`` on its own output. The backward writes the pool gradient into
    the conv output buffer, which nothing reads after pooling (into a new array
    when the gradient's dtype differs)."""
    conv_out, conv_backward = _conv(x, weight, bias, padding)
    out, pool_backward = _pool(conv_out, pool_kernel)
    np.maximum(out, 0.0, out=out)

    def backward(g):
        g = g * (out > 0.0)
        d_conv = conv_out if conv_out.dtype == g.dtype else np.empty(conv_out.shape, g.dtype)
        return conv_backward(pool_backward(g, d_conv))

    return Tensor._make(out, (x, weight, bias), backward)


# Elements of one chunk of im2col columns: small enough that the GEMM reads
# columns still in cache, large enough to keep each GEMM efficient.
_CHUNK_ELEMENTS = 1 << 20


def _im2col_chunks(xp: np.ndarray, kh: int, kw: int):
    """Yield ``(start, stop, cols)``: the (C*kh*kw, b*Ho*Wo) im2col columns of
    samples ``start:stop`` of the padded input ``xp``, ``b`` samples at a time.

    ``b`` is sized by ``_CHUNK_ELEMENTS`` (at least one sample), and every
    chunk is written into the same buffer, so a chunk's columns are valid
    only until the next one is built.
    """
    n, c, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    chunk = max(1, _CHUNK_ELEMENTS // (c * kh * kw * ho * wo))
    buffer = np.empty((c * kh * kw, min(n, chunk) * ho * wo), dtype=xp.dtype)
    for start in range(0, n, chunk):
        b = min(chunk, n - start)
        cols = buffer[:, : b * ho * wo]
        taps = cols.reshape(c, kh * kw, b, ho, wo)  # a view: only axes are split
        samples = xp[start : start + b].transpose(1, 0, 2, 3)
        for i in range(kh):
            for j in range(kw):
                taps[:, i * kw + j] = samples[:, :, i : i + ho, j : j + wo]
        yield start, start + b, cols


def _correlate(xp: np.ndarray, w2: np.ndarray, kh: int, kw: int):
    """Valid correlation ``out[n, o, y, z] = sum w2[o, (c, i, j)] * xp[n, c, y+i, z+j]``.

    Multiplies each chunk of im2col columns (see ``_im2col_chunks``) by
    ``w2`` while it is in cache. Returns the output and the last chunk's
    columns, which hold every sample's when the batch fits in one chunk
    (None for an empty batch).
    """
    n, _, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    out = np.empty((n, w2.shape[0], ho, wo), dtype=np.result_type(xp, w2))
    cols = None
    for start, stop, cols in _im2col_chunks(xp, kh, kw):
        out[start:stop] = (w2 @ cols).reshape(-1, stop - start, ho, wo).transpose(1, 0, 2, 3)
    return out, cols


class MaxPool2d:
    """Non-overlapping max pooling along the height (feature) axis; trailing
    rows beyond a full window are dropped (output H = floor(H / kernel))."""

    def __init__(self, kernel: int):
        self.kernel = kernel

    def __call__(self, x: Tensor) -> Tensor:
        return maxpool2d(x, self.kernel)


def maxpool2d(x: Tensor, kernel: int) -> Tensor:
    """Max over non-overlapping windows of ``kernel`` rows of (N, C, H, W).

    One pass over the ``kernel`` rows of the (N, C, Ho, kernel, W) view keeps
    the running max and the row it came from. A row takes the index only when
    strictly greater, so the index is the first maximum and ties route the
    gradient to the lowest row. Both updates are branch-free ufuncs: a masked
    copy under a data-dependent mask runs several times slower. The backward
    multiplies ``g`` by each row's 0/1 mask, so a non-finite ``g`` spreads
    NaN over its window; the optimiser refuses such a gradient either way.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects (N, C, H, W), got {x.data.shape}")
    out, backward = _pool(x.data, kernel)
    return Tensor._make(out, (x,), lambda g: (backward(g, np.empty(x.data.shape, g.dtype)),))


def _pool(y: np.ndarray, kernel: int):
    """The forward of ``maxpool2d`` on an array: its output, and its backward
    as a function ``(g, d_y) -> d_y`` that writes the input gradient into
    ``d_y``, a C-contiguous array of ``y``'s shape."""
    n, c, h, w = y.shape
    if h < kernel:
        raise ShapeError(f"pool kernel {kernel} exceeds input height {h}")
    ho = h // kernel
    rows = y[:, :, : ho * kernel].reshape(n, c, ho, kernel, w)
    out = rows[:, :, :, 0].copy()
    best = np.zeros(out.shape, dtype=np.min_scalar_type(kernel - 1))
    for r in range(1, kernel):
        greater = rows[:, :, :, r] > out
        np.maximum(out, rows[:, :, :, r], out=out)
        # rows come in ascending order, so r exceeds every index set so far
        np.maximum(best, np.multiply(greater, r, dtype=best.dtype), out=best)

    def backward(g, d_y):
        d_rows = d_y[:, :, : ho * kernel].reshape(n, c, ho, kernel, w)
        for r in range(kernel):
            np.multiply(g, best == r, out=d_rows[:, :, :, r])
        d_y[:, :, ho * kernel :] = 0  # the rows that pooling dropped
        return d_y

    return out, backward


def gru_sequence(x: Tensor, w_input: Tensor, w_hidden: Tensor, b_input: Tensor,
                 b_hidden: Tensor, reverse: bool) -> Tensor:
    """One GRU direction over (N, T, F) from h = 0; returns every state, (N, T, k).

    Gate order (reset, update, candidate), over t = 0..T-1 (T-1..0 with ``reverse``):

    r_t = sigmoid(x_t Wi_r + bi_r + h Wh_r + bh_r)
    z_t = sigmoid(x_t Wi_z + bi_z + h Wh_z + bh_z)
    n_t = tanh(x_t Wi_n + bi_n + r_t * (h Wh_n + bh_n))
    h_t = (1 - z_t) * n_t + z_t * h

    The input projection of all steps is one GEMM. The backward runs the
    recurrence in reverse and takes ``d_w_input`` and ``d_w_hidden`` as one
    GEMM each over all steps; ``d_x`` is skipped when ``x`` needs no gradient.
    """
    n, steps, f = x.data.shape
    k = w_hidden.data.shape[0]
    time_major = x.data.transpose(1, 0, 2).reshape(steps * n, f)
    gi = (time_major @ w_input.data + b_input.data).reshape(steps, n, 3 * k)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    # per step taken, in the order taken: states[s] is the state it starts
    # from, gates[s] its r, z, n and h Wh_n + bh_n side by side
    states = np.zeros((steps + 1, n, k), dtype=gi.dtype)
    gates = np.empty((steps, n, 4 * k), dtype=gi.dtype)

    def gate_views(s):  # gates[s] as four views, no copies
        return [gates[s, :, i * k : (i + 1) * k] for i in range(4)]

    for s, t in enumerate(order):
        gh = states[s] @ w_hidden.data + b_hidden.data
        gates[s, :, : 2 * k] = T.logistic(gi[t, :, : 2 * k] + gh[:, : 2 * k])
        gates[s, :, 3 * k :] = gh[:, 2 * k :]
        r, z, cand, hn = gate_views(s)
        cand[...] = np.tanh(gi[t, :, 2 * k :] + r * hn)
        states[s + 1] = (1 - z) * cand + z * states[s]

    def backward(g):
        d_gi = np.empty_like(gi)  # time order, like time_major
        d_gh = np.empty_like(gi)  # step order, like states
        d_h = np.zeros((n, k), dtype=gi.dtype)
        for s in reversed(range(steps)):
            t = order[s]
            d_h = d_h + g[:, t]
            r, z, cand, hn = gate_views(s)
            d_n = d_h * (1 - z) * (1 - cand * cand)
            d_gi[t, :, 2 * k :] = d_n
            d_gi[t, :, :k] = d_n * hn * r * (1 - r)
            d_gi[t, :, k : 2 * k] = d_h * (states[s] - cand) * z * (1 - z)
            d_gh[s, :, : 2 * k] = d_gi[t, :, : 2 * k]
            d_gh[s, :, 2 * k :] = d_n * r
            d_h = d_h * z + d_gh[s] @ w_hidden.data.T
        d_gi, d_gh = d_gi.reshape(-1, 3 * k), d_gh.reshape(-1, 3 * k)
        d_w_input = time_major.T @ d_gi
        d_w_hidden = states[:-1].reshape(-1, k).T @ d_gh
        d_x = None
        if x.requires_grad:
            d_x = (d_gi @ w_input.data.T).reshape(steps, n, f).transpose(1, 0, 2)
        return d_x, d_w_input, d_w_hidden, d_gi.sum(axis=0), d_gh.sum(axis=0)

    out = states[1:][::-1] if reverse else states[1:]
    return Tensor._make(out.transpose(1, 0, 2), (x, w_input, w_hidden, b_input, b_hidden),
                        backward)


def _final_state(fwd: Tensor, bwd: Tensor) -> Tensor:
    """The forward direction's state after step T-1 beside the backward
    direction's after step 0, (N, 2k) from two (N, T, k) sequences, as one node."""
    k = fwd.data.shape[2]
    out = np.concatenate([fwd.data[:, -1], bwd.data[:, 0]], axis=1)

    def backward(g):
        d_fwd, d_bwd = np.zeros_like(fwd.data), np.zeros_like(bwd.data)
        d_fwd[:, -1] = g[:, :k]
        d_bwd[:, 0] = g[:, k:]
        return d_fwd, d_bwd

    return Tensor._make(out, (fwd, bwd), backward)


class BiGRU:
    """Bidirectional GRU over (N, T, F): one ``gru_sequence`` node per direction,
    per-step outputs concatenated, and one node for the final state."""

    def __init__(self, input_dim: int, hidden_per_direction: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.input_dim = input_dim
        k = hidden_per_direction
        self.weights = {
            tag: (Tensor(recurrent_uniform(rng, (input_dim, 3 * k), k, dtype), requires_grad=True),
                  Tensor(recurrent_uniform(rng, (k, 3 * k), k, dtype), requires_grad=True),
                  Tensor(np.zeros(3 * k, dtype=dtype), requires_grad=True),
                  Tensor(np.zeros(3 * k, dtype=dtype), requires_grad=True))
            for tag in ("fwd", "bwd")}

    def __call__(self, x: Tensor):
        """Returns (sequence (N, T, 2h), final (N, 2h)).

        ``final`` concatenates each direction's last computed state, i.e. the
        forward state after step T-1 and the backward state after step 0.
        """
        if x.data.ndim != 3 or x.data.shape[2] != self.input_dim:
            raise ShapeError(f"bigru expects (N, T, {self.input_dim}), got {x.data.shape}")
        fwd = gru_sequence(x, *self.weights["fwd"], reverse=False)
        bwd = gru_sequence(x, *self.weights["bwd"], reverse=True)
        return T.concat([fwd, bwd], axis=2), _final_state(fwd, bwd)

    def parameters(self):
        return {f"{tag}.{name}": p for tag, weights in self.weights.items()
                for name, p in zip(("w_input", "w_hidden", "b_input", "b_hidden"), weights)}

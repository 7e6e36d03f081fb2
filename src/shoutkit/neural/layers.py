"""Network layers built on the autograd Tensor.

Each layer records one graph node with a hand-written backward pass (checked
against finite differences in the test suite): ``tensor.linear`` is a dense
layer, ``conv_stack`` a whole stack of conv stages (convolution,
max-pooling, ReLU), and ``gru_sequence`` one GRU direction over a whole
sequence; the BiGRU's final state is one more node. ``conv2d`` and
``maxpool2d`` stay as nodes of their own over the same cores. Every layer
takes batched input only.

The conv and pooling cores work on (C, H, W, N) arrays, batch innermost.
``conv_stack`` moves its (N, C, H, W) input into that layout once, runs every
stage there, and views its output back, so no transpose runs between
stages. Convolution builds its GEMM operands a few output rows at a time
into chunk-sized buffers, so each GEMM reads columns that are still in
cache, and it writes each chunk's product straight into its rows of the
output. A chunk copies only the C*K width taps, in runs of Wo*N elements
(640 at width 20, batch 32); each height tap is a row-shifted view of them,
with one GEMM per height tap for C > 1 (see ``_columns``). The zero padding
is never built: a tap copies only the part of the input it reads. A
model's first stage, whose input needs no gradient, max-pools each chunk's
product in cache and never builds its conv output. A recorded convolution
keeps no full-batch column buffer: when the output fits in one chunk the
weight gradient reuses the operands the forward built, otherwise the
backward rebuilds them chunk by chunk. The input gradient is the
transposed correlation (the output gradient against the flipped kernel with
in/out channels swapped, padded by K - 1 - padding) through the same
chunked helper, so there is no col2im scatter. Max-pooling finds each
window's first maximum in one pass over the window rows.
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


def _to_chwn(a: np.ndarray) -> np.ndarray:
    """(N, C, H, W) as a C-contiguous (C, H, W, N) array."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Stride-1 convolution of (N, C, H, W) with (O, C, K, K) + per-channel bias.

    A node over the (C, H, W, N) cores that ``conv_stack`` runs: it copies
    ``x`` into that layout, and its output is the (O, H, W, N) result viewed
    as (N, O, H, W). The backward copies ``g`` into the same layout.
    ``d_x`` is skipped when ``x`` does not need a gradient.
    """
    source = _to_chwn(x.data)
    out, _, cols = _correlate(source, weight.data, padding, bias.data)

    def backward(g):
        d_x, d_weight, d_bias = _conv_backward(_to_chwn(g), source, cols, weight.data,
                                               padding, x.requires_grad)
        return (None if d_x is None else d_x.transpose(3, 0, 1, 2)), d_weight, d_bias

    return Tensor._make(out.transpose(3, 0, 1, 2), (x, weight, bias), backward)


def conv_stack(x: Tensor, stages) -> Tensor:
    """A conv/pool stack as one node: for each ``(weight, bias, padding,
    pool_kernel)`` in ``stages``, in order, ``relu(maxpool2d(conv2d(x, weight,
    bias, padding), pool_kernel))``.

    It takes and returns (N, C, H, W), and runs every stage in (C, H, W, N):
    the only transposes are of its input and output. The forward equals the
    chain of ``conv2d``, ``maxpool2d`` and ``relu`` nodes bit for bit; the
    ReLU mask is ``out > 0`` on each stage's own output. A stage whose
    input needs a gradient keeps its conv output in a recorded forward, and
    the backward writes the pool gradient into it, since nothing reads it
    after pooling (into a new array when the gradient's dtype differs). The
    first stage of an ``x`` that needs no gradient pools in cache instead
    (see ``_correlate``) and keeps no conv output.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv_stack expects (N, C, H, W), got {x.data.shape}")
    parents = (x, *(p for weight, bias, _, _ in stages for p in (weight, bias)))
    keep = T.records(*parents)
    a = _to_chwn(x.data)
    saved = []
    for s, (weight, bias, padding, kernel) in enumerate(stages):
        if s > 0 or x.requires_grad:
            conv_out, _, cols = _correlate(a, weight.data, padding, bias.data)
            out, best = _pool(conv_out, kernel)
        else:  # nothing needs this stage's d_x: pool each chunk, build no conv output
            conv_out = None
            out, best, cols = _correlate(a, weight.data, padding, bias.data, kernel)
        np.maximum(out, 0.0, out=out)
        if keep:
            saved.append((a, conv_out, cols, best, out))
        a = out

    def backward(g):
        g = g.transpose(1, 2, 3, 0)
        grads = []
        for s in reversed(range(len(stages))):
            weight, _, padding, kernel = stages[s]
            source, conv_out, cols, best, out = saved[s]
            g = np.multiply(g, out > 0.0, order="C")
            if conv_out is not None:
                d_conv = conv_out if conv_out.dtype == g.dtype else np.empty_like(conv_out, g.dtype)
                _unpool(g, best, kernel, d_conv)
                g, best = d_conv, None
            g, d_weight, d_bias = _conv_backward(g, source, cols, weight.data, padding,
                                                 conv_out is not None, best, kernel)
            grads[:0] = [d_weight, d_bias]
        return (None if g is None else g.transpose(3, 0, 1, 2)), *grads

    return Tensor._make(a.transpose(3, 0, 1, 2), parents, backward)


def _conv_backward(g: np.ndarray, x, cols, weight: np.ndarray, padding: int, want_x: bool,
                   best=None, kernel: int = 1):
    """``(d_x, d_weight, d_bias)`` of a convolution for the (O, Ho, Wo, N)
    output gradient ``g``, a C-contiguous array, or, given ``best``, for
    the gradient ``g`` of that output max-pooled by ``kernel``.

    ``d_weight`` sums ``operand @ g_chunk.T``, and ``d_bias`` ``g_chunk``,
    over each chunk (see ``_columns``) with the operands the forward kept,
    or, for ``cols`` None, those rebuilt from the input ``x``. A pooled
    ``g`` is unpooled chunk by chunk. A C > 1 stage adds its height tap
    ``i`` into ``d_weight[:, :, i, :]``. ``d_x`` (None unless ``want_x``)
    is the transposed correlation: ``g`` against the flipped kernel with
    its in/out channels swapped, padded by ``K - 1 - padding``.
    """
    out_ch, in_ch, kh, kw = weight.shape
    ho = x.shape[1] + 2 * padding - kh + 1
    step = g[0, 0].size  # columns per output row
    # rows in (i, c, j) order: one block per height tap for C > 1, and for
    # C = 1 one block whose (i, j) rows are the operand's
    d_weight_t = np.zeros((kh, in_ch, kw, out_ch), dtype=np.result_type(g, x))
    d_bias = np.zeros(out_ch, dtype=g.dtype)
    chunks = [(0, ho, cols)] if cols is not None else _columns(x, kh, kw, padding)
    for y0, y1, operands in chunks:
        if best is None:
            g_chunk = g.reshape(out_ch, -1)[:, y0 * step : y1 * step]
        else:  # the whole windows w0:w1 over the chunk; rows past the last are zero
            w0, w1 = y0 // kernel, min(-(-y1 // kernel), best.shape[1])
            if y0 == 0:  # the first chunk is the largest
                d_rows = np.empty((out_ch, y1 + 2 * kernel, *g.shape[2:]), g.dtype)
            d_y = d_rows[:, : max(y1, w1 * kernel) - w0 * kernel]
            _unpool(g[:, w0:w1], best[:, w0:w1], kernel, d_y)
            g_chunk = d_y[:, y0 - w0 * kernel : y1 - w0 * kernel].reshape(out_ch, -1)
        # operand @ g_chunk.T ran 1.5-2x faster than g_chunk @ operand.T in
        # OpenBLAS at the paper's layer shapes
        for acc, operand in zip(d_weight_t.reshape(len(operands), -1, out_ch), operands):
            acc += operand @ g_chunk.T
        d_bias += g_chunk.sum(axis=1)
    d_weight = d_weight_t.transpose(3, 1, 0, 2)
    d_x = None
    if want_x:
        flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        d_x, _, _ = _correlate(g, flipped, kh - 1 - padding)
    return d_x, d_weight, d_bias


# Elements of one chunk of GEMM operands: small enough that the GEMMs read
# columns still in cache, large enough to keep each GEMM efficient.
_CHUNK_ELEMENTS = 1 << 20


def _columns(x: np.ndarray, kh: int, kw: int, pad: int, window: int = 1):
    """Yield ``(y0, y1, operands)``: the GEMM operands of output rows
    ``y0:y1`` of a (C, H, W, N) array zero-padded by ``pad`` on both sides
    of H and W, each with its columns in (y, x, n) order.

    Only the C*kw width taps are copied, for the chunk's source rows
    ``y0 - pad .. y1 + kh - 2 - pad``, into a (C*kw, (y1-y0+kh-1)*Wo*N)
    buffer with rows in (c, j) order. Height tap ``i`` is then the column
    range ``[i*Wo*N, (i + y1 - y0)*Wo*N)`` of that buffer: a view with
    contiguous rows, which BLAS takes without a copy. For C > 1 the operands
    are those kh views, one per height tap. For C = 1 a GEMM over an inner
    size of kw is slow, so the kh views are copied into one (kh*kw, ...)
    operand with rows in (i, j) order, the im2col columns themselves.

    The padding is never built: each width tap copies the part of ``x``
    that it reads, in runs of up to Wo*N elements, and the rest of the tap
    is zero. The rows per chunk are sized by ``_CHUNK_ELEMENTS`` against the
    largest operand's rows, cut to whole windows of ``window`` rows (at
    least one), and every chunk is written into the same buffers, so a
    chunk's operands are valid only until the next one is built.
    """
    c, h, w, n = x.shape
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    step = wo * n
    # max(1, step): an empty batch has step 0 and one empty chunk
    rows = max(1, _CHUNK_ELEMENTS // ((kh if c == 1 else c) * kw * max(1, step)))
    rows = max(window, rows - rows % window)
    # the output columns z whose source column z + j - pad lies in x; the
    # rest of each tap's width is written nowhere below, so it stays zero
    spans = []
    for j in range(kw):
        xa = min(max(0, pad - j), wo)
        spans.append((j, xa, max(min(wo, w + pad - j), xa)))
    buffer = np.zeros((c * kw, (min(ho, rows) + kh - 1) * step), dtype=x.dtype)
    if c == 1:
        stacked = np.empty((kh * kw, min(ho, rows) * step), dtype=x.dtype)
    for y0 in range(0, ho, rows):
        y1 = min(y0 + rows, ho)
        m = y1 - y0 + kh - 1
        taps = buffer[:, : m * step].reshape(c, kw, m, wo, n)
        # the buffer rows r whose source row y0 + r - pad lies in x
        ra = min(max(0, pad - y0), m)
        rb = max(min(m, h + pad - y0), ra)
        taps[:, :, :ra] = 0
        taps[:, :, rb:] = 0
        rows_in = x[:, ra + y0 - pad : rb + y0 - pad]
        for j, xa, xb in spans:
            taps[:, j, ra:rb, xa:xb] = rows_in[:, :, xa + j - pad : xb + j - pad]
        size = (y1 - y0) * step
        views = [buffer[:, i * step : i * step + size] for i in range(kh)]
        if c == 1:
            views = [np.concatenate(views, out=stacked[:, :size])]
        yield y0, y1, views


def _correlate(x: np.ndarray, weight: np.ndarray, pad: int, bias=None, pool: int = 1):
    """Correlation ``out[o, y, z, n] = sum weight[o, c, i, j] * xp[c, y+i, z+j, n]``
    (+ ``bias[o]``) of ``x`` zero-padded by ``pad`` into ``xp``.

    Each chunk's operands (see ``_columns``) are multiplied by the matching
    slices of ``weight`` and summed straight into the chunk's rows of the
    (O, Ho, Wo, N) output while they are in cache: one GEMM per height tap
    for C > 1, one GEMM for C = 1. With ``pool`` > 1 the chunks hold whole
    pool windows and each chunk's product is max-pooled (see ``_pool``) in
    a chunk-sized buffer, so only the pooled output is built. Returns the
    output, its windows' first-maximum rows (None for ``pool`` 1) and, when
    the output fits in one chunk, its operands (else None). A channel count
    other than the kernel's, or a kernel or pool larger than the padded
    input, is a ShapeError.
    """
    out_ch, in_ch, kh, kw = weight.shape
    c, h, w, n = x.shape
    if in_ch != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {in_ch}")
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w}")
    if ho < pool:
        raise ShapeError(f"pool kernel {pool} exceeds input height {ho}")
    if c == 1:
        taps = weight.reshape(1, out_ch, kh * kw)
    else:
        taps = np.ascontiguousarray(weight.transpose(2, 0, 1, 3)).reshape(kh, out_ch, c * kw)
    dtype = np.result_type(x, weight)
    out = np.empty((out_ch, ho // pool, wo, n), dtype=dtype)
    best = None if pool == 1 else np.empty(out.shape, np.min_scalar_type(pool - 1))
    for y0, y1, operands in _columns(x, kh, kw, pad, pool):
        if pool == 1:
            block = out.reshape(out_ch, -1)[:, y0 * wo * n : y1 * wo * n]
        else:  # the first chunk is the largest
            scratch = np.empty((out_ch, y1 * wo * n), dtype) if y0 == 0 else scratch
            block = scratch[:, : (y1 - y0) * wo * n]
        np.matmul(taps[0], operands[0], out=block)
        for tap, operand in zip(taps[1:], operands[1:]):
            block += tap @ operand
        if bias is not None:
            block += bias[:, None]
        if pool > 1:
            windows = slice(y0 // pool, y1 // pool)
            _pool(block.reshape(out_ch, y1 - y0, wo, n), pool, out[:, windows], best[:, windows])
    return out, best, (operands if y0 == 0 else None)


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
    # the cores take (C, H, W, N) views of any memory layout and keep it
    out, best = _pool(x.data.transpose(1, 2, 3, 0), kernel)

    def backward(g):
        d_x = np.empty_like(x.data, dtype=g.dtype)
        _unpool(g.transpose(1, 2, 3, 0), best, kernel, d_x.transpose(1, 2, 3, 0))
        return (d_x,)

    return Tensor._make(out.transpose(3, 0, 1, 2), (x,), backward)


def _pool(y: np.ndarray, kernel: int, out=None, best=None):
    """The max-pooling forward of a (C, H, W, N) array along H: each window's
    max and first-maximum row, into ``out`` and ``best`` (one window per
    row of ``out``), new arrays in ``y``'s memory order if not given."""
    c, h, w, n = y.shape
    if out is None:
        if h < kernel:
            raise ShapeError(f"pool kernel {kernel} exceeds input height {h}")
        out = np.empty_like(y[:, : h // kernel])
        best = np.empty_like(out, dtype=np.min_scalar_type(kernel - 1))
    rows = y[:, : out.shape[1] * kernel].reshape(c, out.shape[1], kernel, w, n)
    out[...] = rows[:, :, 0]
    best[...] = 0
    for r in range(1, kernel):
        greater = rows[:, :, r] > out
        np.maximum(out, rows[:, :, r], out=out)
        # rows come in ascending order, so r exceeds every index set so far
        np.maximum(best, np.multiply(greater, r, dtype=best.dtype), out=best)
    return out, best


def _unpool(g: np.ndarray, best: np.ndarray, kernel: int, d_y: np.ndarray):
    """The max-pooling backward: writes the input gradient for the output
    gradient ``g`` into ``d_y``, an array of the pooled input's shape."""
    c, ho, w, n = best.shape
    d_rows = d_y[:, : ho * kernel].reshape(c, ho, kernel, w, n)
    for r in range(kernel):
        np.multiply(g, best == r, out=d_rows[:, :, r])
    d_y[:, ho * kernel :] = 0  # the rows that pooling dropped


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

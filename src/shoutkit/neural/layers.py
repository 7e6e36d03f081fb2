"""Network layers built on the autograd Tensor.

Dense and the GRU cell are compositions of tensor primitives; convolution and
max-pooling are custom graph nodes with hand-written backward passes (checked
against finite differences in the test suite).

Convolution builds its im2col columns a few samples at a time, so each GEMM
reads columns that are still in cache, and keeps them for the weight
gradient only while a graph is being recorded. Its input gradient is the
transposed correlation (the output gradient, padded, against the flipped
kernel with in/out channels swapped) through the same chunked helper, so
there is no col2im scatter. Max-pooling finds each window's first maximum
in one pass over the window rows.
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


class Layer:
    """Base: a named collection of parameters plus a forward definition."""

    def parameters(self) -> dict[str, Tensor]:
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype=np.float64):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Tensor(glorot_uniform(rng, (n_in, n_out), n_in, n_out, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.n_in:
            raise ShapeError(f"dense expects (N, {self.n_in}), got {x.data.shape}")
        return T.add(T.matmul(x, self.weight), self.bias)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class Conv2d(Layer):
    """2-D convolution, stride 1, symmetric zero padding, bias per channel."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 padding: int, rng: np.random.Generator, dtype=np.float64):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        fan_out = out_channels * kernel * kernel
        self.weight = Tensor(
            glorot_uniform(rng, (out_channels, in_channels, kernel, kernel), fan_in, fan_out, dtype),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.data.ndim == 3
        if squeeze:
            x = T.reshape(x, (1,) + x.data.shape)
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (N, {self.in_channels}, H, W), got {x.data.shape}")
        out = conv2d(x, self.weight, self.bias, self.padding)
        return T.reshape(out, out.data.shape[1:]) if squeeze else out

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Stride-1 convolution of (N, C, H, W) with (O, C, K, K) + per-channel bias.

    The forward is chunked im2col + GEMM (see ``_correlate``); its columns
    are kept for ``d_weight`` only while a graph is being recorded. The
    backward computes ``d_weight`` as one GEMM over the kept columns and
    ``d_x`` as a transposed correlation through the same helper: ``g``
    zero-padded by ``K - 1 - padding``, the kernel flipped and its in/out
    channels swapped. ``d_x`` is skipped when ``x`` does not need a gradient.
    """
    n, c, h, w = x.data.shape
    out_ch, in_ch, kh, kw = weight.data.shape
    if in_ch != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {in_ch}")
    if h + 2 * padding - kh + 1 < 1 or w + 2 * padding - kw + 1 < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w}")

    pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    out, cols = _correlate(np.pad(x.data, pad_spec), weight.data.reshape(out_ch, -1),
                           kh, kw, keep=T.records(x, weight, bias))
    out += bias.data[None, :, None, None]

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(out_ch, -1)
        d_weight = (g2 @ cols.T).reshape(weight.data.shape)
        d_bias = g.sum(axis=(0, 2, 3))
        if not x.requires_grad:
            return None, d_weight, d_bias
        # padding g by K - 1 and cropping ``padding`` off each side is the
        # K - 1 - padding pad, and stays valid when padding > K - 1
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        gp = gp[:, :, padding : padding + h + kh - 1, padding : padding + w + kw - 1]
        flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        d_x, _ = _correlate(gp, flipped, kh, kw, keep=False)
        return d_x, d_weight, d_bias

    return Tensor._make(out, (x, weight, bias), backward)


# Elements of one chunk of im2col columns: small enough that the GEMM reads
# columns still in cache, large enough to keep each GEMM efficient.
_CHUNK_ELEMENTS = 1 << 20


def _correlate(xp: np.ndarray, w2: np.ndarray, kh: int, kw: int, keep: bool):
    """Valid correlation ``out[n, o, y, z] = sum w2[o, (c, i, j)] * xp[n, c, y+i, z+j]``.

    Builds the (C*kh*kw, b*Ho*Wo) im2col columns of ``b`` samples at a time,
    ``b`` sized by ``_CHUNK_ELEMENTS``, and multiplies each chunk by ``w2``
    while it is in cache. With ``keep`` the chunks are written side by side
    into one (C*kh*kw, N*Ho*Wo) buffer, which is returned with the output;
    otherwise one chunk-sized buffer is reused and None is returned.
    """
    n, c, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    length = ho * wo
    chunk = max(1, _CHUNK_ELEMENTS // (c * kh * kw * length))
    cols = np.empty((c * kh * kw, (n if keep else min(n, chunk)) * length), dtype=xp.dtype)
    out = np.empty((n, w2.shape[0], ho, wo), dtype=np.result_type(xp, w2))
    for start in range(0, n, chunk):
        b = min(chunk, n - start)
        offset = start * length if keep else 0
        block = cols[:, offset : offset + b * length]
        taps = block.reshape(c, kh * kw, b, ho, wo)  # a view: only axes are split
        samples = xp[start : start + b].transpose(1, 0, 2, 3)
        for i in range(kh):
            for j in range(kw):
                taps[:, i * kw + j] = samples[:, :, i : i + ho, j : j + wo]
        out[start : start + b] = (w2 @ block).reshape(-1, b, ho, wo).transpose(1, 0, 2, 3)
    return out, (cols if keep else None)


class MaxPool2d(Layer):
    """Non-overlapping max pooling along the height (feature) axis; trailing
    rows beyond a full window are dropped (output H = floor(H / kernel))."""

    def __init__(self, kernel: int):
        self.kernel = kernel

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.data.ndim == 3
        if squeeze:
            x = T.reshape(x, (1,) + x.data.shape)
        out = maxpool2d(x, self.kernel)
        return T.reshape(out, out.data.shape[1:]) if squeeze else out

    def parameters(self):
        return {}


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
    n, c, h, w = x.data.shape
    if h < kernel:
        raise ShapeError(f"pool kernel {kernel} exceeds input height {h}")
    ho = h // kernel
    rows = x.data[:, :, : ho * kernel].reshape(n, c, ho, kernel, w)
    out = rows[:, :, :, 0].copy()
    best = np.zeros(out.shape, dtype=np.min_scalar_type(kernel - 1))
    for r in range(1, kernel):
        greater = rows[:, :, :, r] > out
        np.maximum(out, rows[:, :, :, r], out=out)
        # rows come in ascending order, so r exceeds every index set so far
        np.maximum(best, np.multiply(greater, r, dtype=best.dtype), out=best)

    def backward(g):
        d_x = np.zeros(x.data.shape, dtype=g.dtype)
        d_rows = d_x[:, :, : ho * kernel].reshape(n, c, ho, kernel, w)
        for r in range(kernel):
            np.multiply(g, best == r, out=d_rows[:, :, :, r])
        return (d_x,)

    return Tensor._make(out, (x,), backward)


class GruCell:
    """Single-direction GRU cell; gate order (reset, update, candidate).

    r_t = sigmoid(x_t Wi_r + h Wh_r + bi_r + bh_r)
    z_t = sigmoid(x_t Wi_z + h Wh_z + bi_z + bh_z)
    n_t = tanh(x_t Wi_n + bi_n + r_t * (h Wh_n + bh_n))
    h_t = (1 - z_t) * n_t + z_t * h
    """

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator, dtype=np.float64):
        self.input_dim = input_dim
        self.hidden = hidden
        self.w_input = Tensor(recurrent_uniform(rng, (input_dim, 3 * hidden), hidden, dtype),
                              requires_grad=True)
        self.w_hidden = Tensor(recurrent_uniform(rng, (hidden, 3 * hidden), hidden, dtype),
                               requires_grad=True)
        self.b_input = Tensor(np.zeros(3 * hidden, dtype=dtype), requires_grad=True)
        self.b_hidden = Tensor(np.zeros(3 * hidden, dtype=dtype), requires_grad=True)

    def step(self, gi: Tensor, h: Tensor) -> Tensor:
        """One update given the precomputed input projection gi = x W_i + b_i."""
        k = self.hidden
        gh = T.add(T.matmul(h, self.w_hidden), self.b_hidden)
        r = T.sigmoid(T.add(T.narrow(gi, 1, 0, k), T.narrow(gh, 1, 0, k)))
        z = T.sigmoid(T.add(T.narrow(gi, 1, k, k), T.narrow(gh, 1, k, k)))
        n = T.tanh(T.add(T.narrow(gi, 1, 2 * k, k),
                         T.mul(r, T.narrow(gh, 1, 2 * k, k))))
        return T.add(T.mul(1.0 - z, n), T.mul(z, h))

    def run(self, steps: list[Tensor], batch: int, dtype) -> list[Tensor]:
        """Run over per-step input projections, returning hidden states."""
        h = Tensor(np.zeros((batch, self.hidden), dtype=dtype))
        states = []
        for gi in steps:
            h = self.step(gi, h)
            states.append(h)
        return states

    def parameters(self):
        return {"w_input": self.w_input, "w_hidden": self.w_hidden,
                "b_input": self.b_input, "b_hidden": self.b_hidden}


class BiGRU(Layer):
    """Bidirectional GRU over (N, T, F); per-step outputs concatenated."""

    def __init__(self, input_dim: int, hidden_per_direction: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.input_dim = input_dim
        self.hidden = hidden_per_direction
        self.forward_cell = GruCell(input_dim, hidden_per_direction, rng, dtype)
        self.backward_cell = GruCell(input_dim, hidden_per_direction, rng, dtype)

    def __call__(self, x: Tensor):
        """Returns (sequence (N, T, 2h), final (N, 2h)).

        ``final`` concatenates each direction's last computed state, i.e. the
        forward state after step T-1 and the backward state after step 0.
        """
        if x.data.ndim == 2:
            x = T.reshape(x, (1,) + x.data.shape)
        if x.data.ndim != 3 or x.data.shape[2] != self.input_dim:
            raise ShapeError(f"bigru expects (N, T, {self.input_dim}), got {x.data.shape}")
        n, steps, _ = x.data.shape
        dtype = x.data.dtype

        # One big input projection per direction, then per-step slices.
        time_major = T.reshape(T.transpose(x, (1, 0, 2)), (steps * n, self.input_dim))

        def projections(cell):
            gi_all = T.add(T.matmul(time_major, cell.w_input), cell.b_input)
            return [T.narrow(gi_all, 0, t * n, n) for t in range(steps)]

        fwd_states = self.forward_cell.run(projections(self.forward_cell), n, dtype)
        bwd_inputs = list(reversed(projections(self.backward_cell)))
        bwd_states = list(reversed(self.backward_cell.run(bwd_inputs, n, dtype)))

        per_step = [T.reshape(T.concat([f, b], axis=1), (n, 1, 2 * self.hidden))
                    for f, b in zip(fwd_states, bwd_states)]
        sequence = T.concat(per_step, axis=1)
        final = T.concat([fwd_states[-1], bwd_states[0]], axis=1)
        return sequence, final

    def parameters(self):
        params = {}
        for tag, cell in (("fwd", self.forward_cell), ("bwd", self.backward_cell)):
            for name, p in cell.parameters().items():
                params[f"{tag}.{name}"] = p
        return params

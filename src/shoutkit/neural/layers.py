"""Network layers built on the autograd Tensor.

Dense and the GRU cell are compositions of tensor primitives; convolution and
max-pooling are custom graph nodes with hand-written backward passes (checked
against finite differences in the test suite).
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

    Uses an im2col buffer laid out as (C*K*K, N*Ho*Wo) so the whole layer is
    one GEMM in each direction; the buffer is kept for the backward pass.
    """
    n, c, h, w = x.data.shape
    out_ch, in_ch, kh, kw = weight.data.shape
    if in_ch != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {in_ch}")
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w}")

    pad_spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.data, pad_spec)
    length = ho * wo
    cols = np.empty((c, kh * kw, n, length), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + ho, j : j + wo]
            cols[:, i * kw + j] = window.transpose(1, 0, 2, 3).reshape(c, n, length)
    cols2 = cols.reshape(c * kh * kw, n * length)
    w2 = weight.data.reshape(out_ch, c * kh * kw)
    out2 = w2 @ cols2
    out = out2.reshape(out_ch, n, ho, wo).transpose(1, 0, 2, 3)
    out = out + bias.data[None, :, None, None]

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(out_ch, n * length)
        d_bias = g.sum(axis=(0, 2, 3))
        d_weight = (g2 @ cols2.T).reshape(weight.data.shape)
        d_cols = (w2.T @ g2).reshape(c, kh * kw, n, ho, wo)
        d_xp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                d_xp[:, :, i : i + ho, j : j + wo] += d_cols[:, i * kw + j].transpose(1, 0, 2, 3)
        if padding:
            return d_xp[:, :, padding : padding + h, padding : padding + w], d_weight, d_bias
        return d_xp, d_weight, d_bias

    return Tensor._make(out, (x, weight, bias), backward)


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
    """Max over non-overlapping windows of ``kernel`` rows of (N, C, H, W)."""
    n, c, h, w = x.data.shape
    if h < kernel:
        raise ShapeError(f"pool kernel {kernel} exceeds input height {h}")
    ho = h // kernel
    # window-last view (N, C, Ho, W, kernel); no copy is made
    windows = x.data[:, :, : ho * kernel].reshape(n, c, ho, kernel, w).swapaxes(3, 4)
    # argmax returns the first maximum, so ties route to the lowest index
    best = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, best[..., None], axis=-1)[..., 0]

    def backward(g):
        d_windows = np.zeros_like(windows)
        np.put_along_axis(d_windows, best[..., None], g[..., None], axis=-1)
        d_cropped = d_windows.swapaxes(3, 4).reshape(n, c, ho * kernel, w)
        if d_cropped.shape == x.data.shape:
            return (d_cropped,)
        d_x = np.zeros_like(x.data)
        d_x[:, :, : ho * kernel] = d_cropped
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

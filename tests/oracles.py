"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct formulas) and
shares no code with the package paths it checks.
"""

import numpy as np


def naive_dft(x):
    """O(N^2) discrete Fourier transform via the explicit basis matrix."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


def naive_dct2_ortho(x):
    """Orthonormal DCT-II by the double-loop definition."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for m in range(n):
            acc += x[m] * np.cos(np.pi * (m + 0.5) * k / n)
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def naive_conv2d(x, weight, bias, padding):
    """Direct convolution: loops over channels, positions and taps, each
    sum taken in that order for the whole batch at once."""
    n, c, h, w = x.shape
    out_ch, _, kh, kw = weight.shape
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    out = np.zeros((n, out_ch, ho, wo))
    for o in range(out_ch):
        for y in range(ho):
            for z in range(wo):
                acc = np.full(n, bias[o], dtype=np.float64)
                for ci in range(c):
                    for i in range(kh):
                        for j in range(kw):
                            acc += weight[o, ci, i, j] * xp[:, ci, y + i, z + j]
                out[:, o, y, z] = acc
    return out


def full_batch_conv_columns(x, kernel, padding):
    """The whole batch's im2col columns of the (N, C, H, W) input ``x``,
    built from a sliding-window view of the padded input: rows (c, i, j),
    columns (y, z, n)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    # (N, C, Ho, Wo, K, K) -> rows (c, i, j), columns (y, z, n)
    return windows.transpose(1, 4, 5, 2, 3, 0).reshape(x.shape[1] * kernel * kernel, -1)


def full_batch_conv_weight_grad(x, g, kernel, padding):
    """Conv ``d_weight`` as one GEMM, ``g2 @ cols.T``, over the whole batch's
    im2col columns. ``x`` and ``g`` are (N, C, H, W)."""
    cols = full_batch_conv_columns(x, kernel, padding)
    g2 = g.transpose(1, 2, 3, 0).reshape(g.shape[1], -1)
    return (g2 @ cols.T).reshape(g.shape[1], x.shape[1], kernel, kernel)


def full_batch_conv_input_grad(g, weight, padding, height, width):
    """Conv ``d_x`` as one GEMM, ``w2.T @ g2``, whose columns are scattered
    back onto the padded input (col2im) and cropped. ``g`` is (N, O, Ho, Wo)."""
    n, out_ch, ho, wo = g.shape
    _, c, kh, kw = weight.shape
    g2 = g.transpose(1, 2, 3, 0).reshape(out_ch, -1)
    d_cols = (weight.reshape(out_ch, -1).T @ g2).reshape(c, kh, kw, ho, wo, n)
    d_xp = np.zeros((n, c, height + 2 * padding, width + 2 * padding), dtype=d_cols.dtype)
    for i in range(kh):
        for j in range(kw):
            d_xp[:, :, i : i + ho, j : j + wo] += d_cols[:, i, j].transpose(3, 0, 1, 2)
    return d_xp[:, :, padding : padding + height, padding : padding + width]


def scalar_gru_step(x, h_prev, wi_r, wi_z, wi_n, wh_r, wh_z, wh_n,
                    bi_r=0.0, bi_z=0.0, bi_n=0.0, bh_r=0.0, bh_z=0.0, bh_n=0.0):
    """Single-unit GRU update computed with plain scalar arithmetic."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    r = sig(x * wi_r + bi_r + h_prev * wh_r + bh_r)
    z = sig(x * wi_z + bi_z + h_prev * wh_z + bh_z)
    n = np.tanh(x * wi_n + bi_n + r * (h_prev * wh_n + bh_n))
    return (1.0 - z) * n + z * h_prev


def adam_descent_oracle(w0, lr, steps, grad_fn, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam trajectory computed independently of the package."""
    w, m, v = float(w0), 0.0, 0.0
    trajectory = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(w)
    return trajectory


def adam_textbook(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam in float64 over a list of per-step {name: gradient} dicts, one fresh
    array per intermediate, exactly as the update is written down."""
    w = {name: np.asarray(p, dtype=np.float64) for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in w.items()}
    v = {name: np.zeros_like(p) for name, p in w.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for name, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1 ** t)
            v_hat = v[name] / (1 - beta2 ** t)
            w[name] = w[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def adam_one_pass(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over whole arrays, in each parameter's own dtype and in the
    operation order of ``Adam.step``; returns (weights, first moments,
    second moments), which a blocked step must match bit for bit."""
    w = {name: np.array(p) for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in w.items()}
    v = {name: np.zeros_like(p) for name, p in w.items()}
    for t, grads in enumerate(grad_steps, start=1):
        correct1, correct2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for name, g in grads.items():
            m[name] = m[name] * beta1 + g * (1.0 - beta1)
            v[name] = v[name] * beta2 + (g * g) * (1.0 - beta2)
            w[name] = w[name] - m[name] / (np.sqrt(v[name] / correct2) + eps) * (lr / correct1)
    return w, m, v


def naive_logistic(x):
    """1 / (1 + exp(-x)) in float64; no overflow for |x| <= 700."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def tally_binary_f1(y_true, y_pred, positive=1):
    tp = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if p == positive and t == positive:
            tp += 1
        elif p == positive and t != positive:
            fp += 1
        elif p != positive and t == positive:
            fn += 1
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def tally_weighted_f1(y_true, y_pred, n_classes):
    total = len(y_true)
    score = 0.0
    for c in range(n_classes):
        support = sum(1 for t in y_true if t == c)
        if support:
            score += support * tally_binary_f1(y_true, y_pred, positive=c)
    return score / total


def tally_confusion(y_true, y_pred, n_classes):
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y_true, y_pred):
        counts[t][p] += 1
    return counts


def tally_rmse(actual, predicted):
    acc = 0.0
    for a, p in zip(actual, predicted):
        acc += (a - p) ** 2
    return (acc / len(actual)) ** 0.5


def finite_difference_check(forward, params, h=1e-5, max_coords=25, seed=0):
    """Max relative error between analytic gradients and central differences.

    ``forward`` rebuilds the scalar loss from scratch; ``params`` maps names
    to Tensors. Tensors with at most ``max_coords`` entries are checked
    exhaustively, larger ones on a seeded random coordinate sample. The error
    is normalized per tensor against the largest sampled gradient magnitude,
    so coordinates whose true gradient sits at the round-off floor of the
    central difference do not dominate the measurement.
    """
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.zero_grad()
    forward().backward()
    worst = 0.0
    for p in params.values():
        flat = p.data.ravel()
        grad = p.grad.ravel()
        if flat.size <= max_coords:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        numeric = np.zeros(len(coords))
        analytic = np.zeros(len(coords))
        for j, i in enumerate(coords):
            original = flat[i]
            flat[i] = original + h
            f_plus = forward().item()
            flat[i] = original - h
            f_minus = forward().item()
            flat[i] = original
            numeric[j] = (f_plus - f_minus) / (2 * h)
            analytic[j] = grad[i]
        scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-8)
        worst = max(worst, np.max(np.abs(numeric - analytic)) / scale)
    return worst


def composed_mse(pred, target):
    """Squared error and its input gradient, spelled out as the sum of ops it
    once was: ``mean((p + (-1 * t)) * (p + (-1 * t)))`` with the target cast
    to the prediction's dtype, and the two product-rule terms of the square
    added."""
    pred = np.asarray(pred)
    minus_one = np.asarray(-1.0, dtype=pred.dtype)
    diff = pred + np.asarray(target, dtype=pred.dtype) * minus_one
    value = (diff * diff).mean()
    seed = np.ones_like(np.asarray(value))
    each = np.broadcast_to(seed / diff.size, diff.shape).astype(diff.dtype, copy=True) * diff
    return value, each + each


def composed_cross_entropy(probs, targets, floor):
    """-mean(log(max(p[i, t_i], floor))) and its input gradient, spelled out as
    the gather, floored log, mean and negation it once was."""
    probs = np.asarray(probs)
    rows = np.arange(len(targets))
    picked = probs[rows, targets]
    clipped = np.maximum(picked, floor)
    minus_one = np.asarray(-1.0, dtype=probs.dtype)
    value = np.log(clipped).mean() * minus_one
    seed = np.ones_like(np.asarray(value)) * minus_one
    per_row = np.broadcast_to(seed / len(targets), picked.shape).astype(picked.dtype, copy=True)
    grad = np.zeros_like(probs)
    np.add.at(grad, (rows, targets), np.where(picked > floor, per_row / clipped, 0.0))
    return value, grad


def composed_linear(x, weight, bias, g):
    """A dense layer's value and its gradients for the output gradient ``g``,
    spelled out as the matmul and broadcast add it once was: ``x @ w + b``,
    then ``g @ w.T`` and ``x.T @ g`` for the matmul and ``g`` summed over the
    broadcast batch axis for the bias."""
    return x @ weight + bias, g @ weight.T, x.T @ g, g.sum(axis=(0,))


def sliced_final_state(fwd, bwd, g):
    """The BiGRU final state of (N, T, k) direction sequences by slicing: the
    forward direction's last step beside the backward direction's first, and
    the gradient ``g`` scattered back into zero sequences of each's dtype."""
    k = fwd.shape[2]
    value = np.concatenate([fwd[:, -1], bwd[:, 0]], axis=1)
    d_fwd, d_bwd = np.zeros(fwd.shape, fwd.dtype), np.zeros(bwd.shape, bwd.dtype)
    d_fwd[:, -1] = g[:, :k]
    d_bwd[:, 0] = g[:, k:]
    return value, d_fwd, d_bwd


def count_graph_nodes(root):
    """Recorded op nodes reachable from ``root``, one per backward closure."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward_fn is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def stacked_fold_blocks(train, val, kinds, matrix_fn, dtype):
    """Fold data stacked clip by clip: every kind's (D, T) matrices held at
    once, z-score statistics pooled over the train matrices, each clip's
    20-frame blocks cut on their own and joined with one ``np.concatenate``,
    and each clip's label repeated once per block.

    ``train`` and ``val`` are lists of (clip, label); ``matrix_fn(clip, kind)``
    gives a clip's (D, T) feature matrix. Returns ``(stats, x, y)``: stats maps
    kind to (mean, std), x maps split name to {kind: blocks}, y maps split
    name to labels.
    """
    matrices = {kind: {split: [matrix_fn(clip, kind) for clip, _ in clips]
                       for split, clips in (("train", train), ("val", val))}
                for kind in kinds}
    stats, x, y = {}, {"train": {}, "val": {}}, {}
    for kind in kinds:
        pooled = np.concatenate(matrices[kind]["train"], axis=1)
        mean, std = pooled.mean(axis=1), np.maximum(pooled.std(axis=1), 1e-8)
        stats[kind] = (mean, std)
        for split, clips in (("train", train), ("val", val)):
            per_clip, labels = [], []
            for m, (_, label) in zip(matrices[kind][split], clips):
                n = m.shape[1] // 20
                z = (m[:, : n * 20] - mean[:, None]) / std[:, None]
                per_clip.append(z.reshape(len(mean), n, 20).transpose(1, 0, 2))
                labels.extend([label] * n)
            x[split][kind] = np.concatenate(per_clip, dtype=dtype)
            y[split] = np.asarray(labels)
    return stats, x, y

"""Layer table and model table, measured in the traced pass only.

Every input is built from the workload's own corpus: 32 real 20-frame blocks
per feature kind, z-scored on themselves. The conv2d inputs at heights 102
and 20 are the activations of the CNN/spectrogram model's first and second
conv/pool stages, so every layer runs at the paper's shapes on real data.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH = 32
CONV_HEIGHTS = (512, 102, 20)
BIGRU_WIDTHS = (512, 30)


def block_batches(sk, examples) -> tuple[dict, np.ndarray]:
    """BATCH blocks per feature kind, taken from the first clips, and their labels."""
    kinds = list(sk.features.FeatureKind)
    matrices = {kind: [] for kind in kinds}
    labels = []
    for example in examples:
        n_blocks = None
        for kind in kinds:
            matrix = sk.features.feature_matrix(example.clip, kind)
            matrices[kind].append(matrix)
            n_blocks = matrix.shape[1] // sk.features.BLOCK_FRAMES
        labels.extend([example.label] * n_blocks)
        if len(labels) >= BATCH:
            break
    batches = {}
    for kind in kinds:
        stats = sk.features.FeatureStats.fit(matrices[kind])
        blocks = [b.data for m in matrices[kind]
                  for b in sk.features.split_blocks(m, kind, stats=stats)]
        batches[kind] = np.stack(blocks[:BATCH]).astype(np.float32)
    return batches, np.asarray(labels[:BATCH], dtype=np.float32).reshape(-1, 1)


def _median_ms(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _op_times(make_out, grad_seed: int, reps: int) -> tuple[float, float]:
    """Forward and backward-closure time of one custom graph node."""
    out = make_out()
    g = np.random.default_rng(grad_seed).standard_normal(out.data.shape).astype(out.data.dtype)
    fwd = _median_ms(make_out, reps)
    bwd = _median_ms(lambda: out._backward_fn(g), reps)
    return fwd, bwd


def layer_table(sk, batches, seed: int, reps: int = 3) -> dict:
    neural, models, T = sk.neural, sk.models, sk.neural.tensor
    kind = sk.features.FeatureKind
    metrics = {}
    cnn = models.build_single_model("cnn", kind.SPECTROGRAM, "binary", seed=seed,
                                    dtype=np.float32)
    x = T.reshape(neural.Tensor(batches[kind.SPECTROGRAM]), (BATCH, 1, 512, 20))
    with neural.no_grad():
        stage_inputs = [x]
        for conv, pool in zip(cnn.convs[:2], cnn.pools[:2]):
            stage_inputs.append(pool(T.relu(conv(stage_inputs[-1]))))
    for height, conv, inp in zip(CONV_HEIGHTS, cnn.convs, stage_inputs):
        n, c, h, w = inp.data.shape
        o, _, k, _ = conv.weight.data.shape
        fwd, bwd = _op_times(lambda: neural.conv2d(inp, conv.weight, conv.bias, conv.padding),
                             seed, reps)
        prefix = f"neural.conv2d.h{height}"
        metrics[f"{prefix}.fwd_ms"] = fwd
        metrics[f"{prefix}.bwd_ms"] = bwd
        # multiply-adds of the convolution; bytes the forward must read and
        # write at least (input, weight, bias, output), whatever its buffers
        metrics[f"{prefix}.flops"] = 2 * n * o * c * k * k * h * w
        metrics[f"{prefix}.bytes_computed"] = (
            inp.data.nbytes + conv.weight.data.nbytes + conv.bias.data.nbytes
            + n * o * h * w * inp.data.itemsize)

    pool_in = neural.Tensor(np.maximum(
        neural.conv2d(x, cnn.convs[0].weight, cnn.convs[0].bias, 2).data, 0.0),
        requires_grad=True)
    fwd, bwd = _op_times(lambda: neural.maxpool2d(pool_in, 5), seed, reps)
    metrics["neural.maxpool2d.k5.fwd_ms"] = fwd
    metrics["neural.maxpool2d.k5.bwd_ms"] = bwd

    rng = np.random.default_rng(seed)
    for width, feature in zip(BIGRU_WIDTHS, (kind.SPECTROGRAM, kind.MEL_SPECTROGRAM)):
        layer = neural.BiGRU(width, width, rng, np.float32)
        seq = neural.Tensor(np.ascontiguousarray(batches[feature].transpose(0, 2, 1)),
                            requires_grad=True)
        g = rng.standard_normal((BATCH, 2 * width)).astype(np.float32)
        metrics[f"neural.BiGRU.{width}.fwd_ms"] = _median_ms(lambda: layer(seq), reps)

        def backward():
            _, final = layer(seq)
            loss = T.sum_all(T.mul(final, g))
            start = time.perf_counter()
            loss.backward()
            return time.perf_counter() - start

        backward()
        metrics[f"neural.BiGRU.{width}.bwd_ms"] = 1e3 * statistics.median(
            backward() for _ in range(reps))
    return metrics


def _builds(sk, seed: int):
    """(metric prefix, model) for the model table at batch 32, float32."""
    models, kind = sk.models, sk.features.FeatureKind
    single = lambda arch, k, s=seed: models.build_single_model(arch, k, "binary", seed=s,
                                                               dtype=np.float32)
    for arch in ("cnn", "gru", "cnn_gru"):
        for k in (kind.SPECTROGRAM, kind.MEL_SPECTROGRAM):
            yield f"models.{arch}.{k.value}", single(arch, k)
    mlp = models.build_baseline_mlp("binary", seed=seed, dtype=np.float32)
    yield f"models.{mlp.arch.value}.{mlp.kind.value}", mlp
    for left, right in ((kind.SPECTROGRAM, kind.CEPSTROGRAM), (kind.MEL_SPECTROGRAM, kind.TMFCC)):
        fusion = models.build_fusion_model(single("cnn", left), single("cnn", right, seed + 1),
                                           seed=seed)
        yield f"models.cnn.{left.value}_plus_{right.value}", fusion


def graph_nodes(loss) -> int:
    """Recorded op nodes reachable from ``loss``: one per backward closure run."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward_fn is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def model_table(sk, batches, labels, seed: int, reps: int = 2) -> tuple[dict, dict]:
    """Forward (with loss), backward and Adam time per build, and the node
    count of each build's loss graph keyed by metric prefix."""
    neural = sk.neural
    mse = neural.LossKind.MEAN_SQUARED_ERROR
    metrics, nodes = {}, {}
    for prefix, model in _builds(sk, seed):
        x = (tuple(batches[k] for k in model.kinds) if len(model.kinds) == 2
             else batches[model.kinds[0]])
        optimizer = neural.Adam(model.parameters(), lr=1e-3)
        fwd, bwd, adam = [], [], []
        for rep in range(reps + 1):
            model.zero_grad()
            t0 = time.perf_counter()
            loss = neural.loss(model.forward(x), labels, mse)
            t1 = time.perf_counter()
            loss.backward()
            t2 = time.perf_counter()
            optimizer.step()
            t3 = time.perf_counter()
            if rep:  # the first round is a warm-up
                fwd.append(t1 - t0)
                bwd.append(t2 - t1)
                adam.append(t3 - t2)
        metrics[f"{prefix}.fwd_ms"] = 1e3 * statistics.median(fwd)
        metrics[f"{prefix}.bwd_ms"] = 1e3 * statistics.median(bwd)
        metrics[f"{prefix}.adam_ms"] = 1e3 * statistics.median(adam)
        nodes[prefix] = graph_nodes(loss)
    return metrics, nodes

"""Model assembly: single-feature networks, the two-branch fusion network,
and the three task heads.

A task head is a ``HeadKind``: the paper's shouted vs normal (binary), shout
type (four_class) and shout intensity (regression, 1-7) tasks. It owns every
rule of its task: the output count, the output mapping (``activate``), the
training targets (``targets``), the loss and the clip decision (``decide``).
A model's ``head`` is its final ``Dense`` layer and ``head_kind`` its task.

Architectures operate on 20-frame feature blocks:

  cnn      3 x (conv 5x5/16ch, max-pool along the feature axis, ReLU),
           flatten, dense, ReLU, head
  gru      BiGRU over the 20 frames, final state, dense, ReLU, head
  cnn_gru  conv/pool stack, per-frame features to a BiGRU, final state,
           dense, ReLU, head
  mlp_baseline_standin
           flatten, dense, ReLU, dense, ReLU, head; mfcc_delta_delta only

One class, ``SingleFeatureModel``, builds all four.

High-dimensional features (spectrogram, cepstrogram, 512 per frame) and
low-dimensional ones (mel spectrogram, tMFCCs, 30 per frame) use different
width tables. The fusion network concatenates the last-ReLU embeddings of two
pretrained single-feature networks, passes them through one dense layer with
ReLU, and attaches a fresh head; every parameter stays trainable.

Each conv stage pools before its ReLU. ReLU is monotone, so relu(pool(x))
equals pool(relu(x)) in value and routes gradients the same way (a window
whose max is <= 0 gets none either way), while ReLU runs on the pooled
array, a pool kernel times smaller.

Each layer records one graph node (``neural.conv_stack`` for the three conv
stages, ``neural.linear`` per dense layer, one ``gru_sequence`` per GRU
direction and one for the BiGRU's final state), so a cnn loss graph holds 7
nodes, a cnn_gru graph 11, a gru graph 8 and a cnn fusion graph 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .features import BLOCK_FRAMES, FeatureKind, parse_feature_kind
from .neural import (BiGRU, Conv2d, Dense, LossKind, Tensor, conv_stack, load_checkpoint,
                     maxpool2d, no_grad, save_checkpoint)
from .neural import tensor as T
from .textio import make_dirs, read_text, write_text


class Arch(Enum):
    CNN = "cnn"
    GRU = "gru"
    CNN_GRU = "cnn_gru"
    MLP_BASELINE = "mlp_baseline_standin"


class HeadKind(Enum):
    BINARY = "binary"
    FOUR_CLASS = "four_class"
    REGRESSION = "regression"

    @property
    def n_outputs(self) -> int:
        return 4 if self is HeadKind.FOUR_CLASS else 1

    @property
    def loss_kind(self) -> LossKind:
        if self is HeadKind.FOUR_CLASS:
            return LossKind.CROSS_ENTROPY
        return LossKind.MEAN_SQUARED_ERROR

    def activate(self, z: Tensor) -> Tensor:
        """The output mapping of the head layer's (n, outputs) output: a
        sigmoid probability (binary), a softmax over the four classes, or an
        intensity bounded smoothly into [1, 7] as 1 + 6 * sigmoid(z), so
        gradients exist everywhere (regression)."""
        if self is HeadKind.BINARY:
            return T.sigmoid(z)
        if self is HeadKind.FOUR_CLASS:
            return T.softmax(z, axis=1)
        return T.add(T.mul(T.sigmoid(z), 6.0), 1.0)

    def targets(self, y: np.ndarray, dtype) -> np.ndarray:
        """The loss targets of labels ``y``: int64 class indices (four-class)
        or an (n, 1) column in the model's ``dtype``."""
        if self is HeadKind.FOUR_CLASS:
            return y.astype(np.int64)
        return y.astype(dtype).reshape(-1, 1)

    def decide(self, rows: np.ndarray) -> np.ndarray:
        """The decision rule, one decision per (n, outputs) row: a binary
        probability above 0.5 is a shout (1), four-class takes the first
        argmax (ties go to the lowest index), regression is clamped into [1, 7]."""
        if self is HeadKind.BINARY:
            return (rows[:, 0] > 0.5).astype(np.int64)
        if self is HeadKind.FOUR_CLASS:
            return rows.argmax(axis=1)
        return np.clip(rows[:, 0], 1.0, 7.0)


def parse_arch(name: str) -> Arch:
    try:
        return Arch(name.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown architecture {name!r}")


def parse_head(name: str) -> HeadKind:
    try:
        return HeadKind(name.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown task head {name!r}")


@dataclass(frozen=True)
class ModelDimTable:
    """Layer width table: d5 the first dense width, (gru_d1, gru_d2) the
    BiGRU/dense widths of the GRU model, d6 the dense width of the CNN-GRU
    model. The input height is the feature kind's ``dim``; each of the three
    conv stages keeps it (5x5 kernel, padding 2) and pools it, which
    floor-divides it by ``pool_kernel`` (``pooled_heights``)."""

    d5: int
    gru_d1: int
    gru_d2: int
    d6: int
    pool_kernel: int
    channels: int = 16

    def scaled(self, factor: int) -> "ModelDimTable":
        """Reduced-width clone: widths divided by ``factor``, topology kept."""
        if factor == 1:
            return self
        shrink = lambda v: max(1, v // factor)
        return ModelDimTable(
            d5=shrink(self.d5), gru_d1=max(2, (self.gru_d1 // factor) // 2 * 2),
            gru_d2=shrink(self.gru_d2), d6=shrink(self.d6),
            pool_kernel=self.pool_kernel, channels=max(1, self.channels // factor))

    def pooled_heights(self, dim: int) -> tuple[int, int, int]:
        """The height after each conv stage for an input of height ``dim``."""
        k = self.pool_kernel
        return dim // k, dim // k ** 2, dim // k ** 3


HIGH_DIM_TABLE = ModelDimTable(d5=64, gru_d1=1024, gru_d2=64, d6=64, pool_kernel=5)
LOW_DIM_TABLE = ModelDimTable(d5=16, gru_d1=60, gru_d2=16, d6=16, pool_kernel=3)
# the baseline MLP's hidden width, divided by width_scale like the tables
MLP_HIDDEN = 512


def dim_table_for_kind(kind: FeatureKind) -> ModelDimTable:
    if kind in (FeatureKind.SPECTROGRAM, FeatureKind.CEPSTROGRAM):
        return HIGH_DIM_TABLE
    if kind in (FeatureKind.MEL_SPECTROGRAM, FeatureKind.TMFCC):
        return LOW_DIM_TABLE
    raise ConfigError(f"feature kind {kind.value} has no single-feature architecture; "
                      "it is served by the baseline MLP")


def parse_feature_set(spec: str) -> tuple[FeatureKind, ...]:
    kinds = tuple(parse_feature_kind(part) for part in spec.split("+"))
    if len(kinds) not in (1, 2) or len(set(kinds)) != len(kinds):
        raise ConfigError(f"a feature set holds one kind or two different kinds, got {spec!r}")
    return kinds


def check_cell(arch: Arch | str, kinds: tuple[FeatureKind, ...]) -> Arch:
    """The arch/kind rules every build keeps, checked without building
    anything: the baseline MLP consumes mfcc_delta_delta features only and
    does not fuse, cnn, gru and cnn_gru take every other kind, and a fusion
    pair joins two kinds of one width table. Returns the parsed arch."""
    arch = parse_arch(arch) if isinstance(arch, str) else arch
    if arch is Arch.MLP_BASELINE:
        for kind in kinds:
            if kind is not FeatureKind.MFCC_DELTA_DELTA:
                raise ConfigError(f"the baseline MLP consumes mfcc_delta_delta features, "
                                  f"got {kind.value}")
        if len(kinds) > 1:
            raise ConfigError(f"{arch.value} takes one feature kind; it does not fuse")
    elif len({dim_table_for_kind(kind) for kind in kinds}) > 1:
        raise ConfigError("cannot fuse a high-dimensional branch with a low-dimensional one")
    return arch


class NetworkGraph:
    """A built architecture instance: layers, dimension ledger, task head.

    Each subclass lists its trainable layers once, in ``layers`` (name ->
    ``Conv2d`` / ``BiGRU`` / ``Dense``, in parameter order), and sets
    ``head``, the final ``Dense`` with ``head_kind.n_outputs`` outputs;
    ``parameters`` derives every parameter name from them. ``forward`` maps
    the head's output through ``head_kind.activate``. A backward pass
    writes the parameters' gradients and an optimiser step their values;
    inference calls leave a trained model unchanged.
    """

    def __init__(self, arch: Arch, kinds: tuple[FeatureKind, ...], head_kind: HeadKind, dtype,
                 width_scale: int):
        self.arch = arch
        self.kinds = kinds
        self.head_kind = head_kind
        self.dtype = np.dtype(dtype)
        self.width_scale = width_scale
        self.layers: dict[str, Conv2d | BiGRU | Dense] = {}

    def embed(self, x, ledger=None) -> Tensor:
        raise NotImplementedError

    def forward(self, x) -> Tensor:
        return self.head_kind.activate(self.head(self.embed(x)))

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        """``<layer>.<tensor>`` for each entry of ``layers``, then ``head.<tensor>``."""
        named = dict(self.layers, head=self.head)
        return {f"{name}.{tensor}": p for name, layer in named.items()
                for tensor, p in layer.parameters().items()}

    def zero_grad(self):
        """Release every parameter's gradient (``grad = None``); allocates nothing.

        The next backward gives each parameter the gradient that zero-filling
        and accumulating would (see ``Tensor.backward``), so a step starts
        with no gradient memory held. ``Tensor.zero_grad`` fills one tensor's
        gradient with zeros instead.
        """
        for p in self.parameters().values():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        params = self.parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ConfigError(f"checkpoint mismatch; missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
        for name, p in params.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ShapeError(f"parameter {name}: checkpoint shape {value.shape} "
                                 f"!= model shape {p.data.shape}")
            p.data = value.copy()

    def batch(self, x_by_kind: dict, idx=slice(None)):
        """Rows ``idx`` of per-kind block arrays as this model's forward
        input: one array, or a (left, right) pair for a fusion model."""
        rows = tuple(x_by_kind[kind][idx] for kind in self.kinds)
        return rows if len(rows) == 2 else rows[0]

    def shape_ledger(self) -> dict[str, object]:
        """Realized intermediate sizes, from a probe forward pass."""
        ledger: dict[str, object] = {}
        probe = {k: np.zeros((1, k.dim, BLOCK_FRAMES), dtype=self.dtype) for k in self.kinds}
        with no_grad():
            self.embed(self.batch(probe), ledger=ledger)
        return ledger


class SingleFeatureModel(NetworkGraph):
    """One network over one feature kind, for every ``Arch``.

    The baseline MLP is a stand-in: the reference system's exact network is
    external to this project, so a plain 1200-512-512 MLP with ReLU is used
    and labeled as a stand-in in all reports.
    """

    def __init__(self, arch: Arch, kind: FeatureKind, head_kind: HeadKind, seed: int,
                 dtype=np.float64, width_scale: int = 1):
        super().__init__(arch, (kind,), head_kind, dtype, width_scale)
        self.kind = kind
        rng = np.random.default_rng(seed)
        layers = self.layers

        if arch is Arch.MLP_BASELINE:
            hidden = max(1, MLP_HIDDEN // width_scale)
            layers["dense1"] = Dense(kind.dim * BLOCK_FRAMES, hidden, rng, self.dtype)
            layers["dense2"] = Dense(hidden, hidden, rng, self.dtype)
        else:
            d = dim_table_for_kind(kind).scaled(width_scale)
        if arch in (Arch.CNN, Arch.CNN_GRU):
            in_ch = 1
            for i in range(3):
                layers[f"conv{i + 1}"] = Conv2d(in_ch, d.channels, kernel=5, padding=2,
                                                rng=rng, dtype=self.dtype)
                in_ch = d.channels
            self.convs = list(layers.values())
            self.pool_kernel = d.pool_kernel
            self.pooled_heights = d.pooled_heights(kind.dim)
            # per-stage pools as nodes; only perfbench/tables.py calls them
            self.pools = [partial(maxpool2d, kernel=d.pool_kernel) for _ in self.convs]
            # conv output per frame: channels x the height after three pools
            per_frame = d.channels * self.pooled_heights[-1]

        if arch is Arch.CNN:
            layers["dense"] = Dense(per_frame * BLOCK_FRAMES, d.d5, rng, self.dtype)
        elif arch is Arch.GRU:
            per_direction = d.gru_d1 // 2
            layers["bigru"] = BiGRU(kind.dim, per_direction, rng, self.dtype)
            layers["dense"] = Dense(2 * per_direction, d.gru_d2, rng, self.dtype)
        elif arch is Arch.CNN_GRU:
            layers["bigru"] = BiGRU(per_frame, max(1, d.d5 // 2), rng, self.dtype)
            layers["dense"] = Dense(2 * max(1, d.d5 // 2), d.d6, rng, self.dtype)
        self.bigru = layers.get("bigru")  # None for cnn and the MLP
        self.dense = [*layers.values()][-1]  # every arch ends in a dense layer
        self.embedding_dim = self.dense.n_out
        self.head = Dense(self.embedding_dim, head_kind.n_outputs, rng, self.dtype)

    def _conv_stack(self, t: Tensor, ledger: dict) -> Tensor:
        ledger["input_height"] = t.data.shape[2]
        ledger["pooled_heights"] = list(self.pooled_heights)
        t = conv_stack(t, [(conv.weight, conv.bias, conv.padding, self.pool_kernel)
                           for conv in self.convs])
        ledger["conv_output"] = list(t.data.shape[1:])
        return t

    def _bigru_tail(self, t: Tensor, ledger: dict) -> Tensor:
        """BiGRU over a (N, 20, per-frame) sequence; returns its final state."""
        sequence, final = self.bigru(t)
        ledger["bigru_sequence"] = list(sequence.data.shape[1:])
        ledger["bigru_width"] = final.data.shape[1]
        return final

    def embed(self, x, ledger=None) -> Tensor:
        ledger = {} if ledger is None else ledger
        t = Tensor(np.asarray(x, dtype=self.dtype))
        dim = self.kind.dim
        if t.data.ndim != 3 or t.data.shape[1] != dim or t.data.shape[2] != BLOCK_FRAMES:
            raise ShapeError(f"expected blocks of shape (N, {dim}, {BLOCK_FRAMES}), "
                             f"got {t.data.shape}")
        n = t.data.shape[0]

        if self.arch is Arch.MLP_BASELINE:
            ledger["flatten"] = dim * BLOCK_FRAMES
            t = T.relu(self.layers["dense1"](T.reshape(t, (n, dim * BLOCK_FRAMES))))
        elif self.arch is Arch.GRU:
            t = self._bigru_tail(T.transpose(t, (0, 2, 1)), ledger)  # (N, 20, D)
        else:
            t = self._conv_stack(T.reshape(t, (n, 1, dim, BLOCK_FRAMES)), ledger)
            c, h, w = t.data.shape[1:]
            if self.arch is Arch.CNN:
                ledger["flatten"] = c * h * w
                t = T.reshape(t, (n, c * h * w))
            else:  # CNN_GRU
                ledger["per_frame_dim"] = c * h
                t = T.transpose(t, (0, 3, 1, 2))  # (N, 20, C, H)
                t = self._bigru_tail(T.reshape(t, (n, w, c * h)), ledger)

        emb = T.relu(self.dense(t))
        ledger["dense"] = emb.data.shape[1]
        ledger["embedding"] = self.embedding_dim
        return emb


class FusionModel(NetworkGraph):
    """Two pretrained single-feature branches, embeddings concatenated."""

    def __init__(self, left: SingleFeatureModel, right: SingleFeatureModel,
                 seed: int):
        if not (isinstance(left, SingleFeatureModel) and isinstance(right, SingleFeatureModel)):
            raise ConfigError("fusion branches must be single-feature networks")
        if left.arch is not right.arch:
            raise ConfigError(f"fusion branches must share an architecture family, "
                              f"got {left.arch.value} and {right.arch.value}")
        if left.head_kind is not right.head_kind:
            raise ConfigError(f"fusion branches must share a task head, got "
                              f"{left.head_kind.value} and {right.head_kind.value}")
        check_cell(left.arch, (left.kind, right.kind))
        super().__init__(left.arch, (left.kind, right.kind), left.head_kind, left.dtype,
                         left.width_scale)
        self.left = left
        self.right = right
        self.concat_dim = left.embedding_dim + right.embedding_dim
        self.embedding_dim = self.concat_dim
        rng = np.random.default_rng(seed)
        self.fusion_dense = Dense(self.concat_dim, self.concat_dim, rng, self.dtype)
        # the branch heads are not layers: the fusion head replaces them
        self.layers = {f"{side}.{name}": layer
                       for side, branch in (("left", left), ("right", right))
                       for name, layer in branch.layers.items()}
        self.layers["fusion"] = self.fusion_dense
        self.head = Dense(self.concat_dim, self.head_kind.n_outputs, rng, self.dtype)

    def embed(self, x, ledger=None) -> Tensor:
        ledger = {} if ledger is None else ledger
        if not isinstance(x, tuple) or len(x) != 2:
            raise ShapeError("fusion model expects a (left_blocks, right_blocks) pair")
        if len(x[0]) != len(x[1]):
            raise ShapeError(f"fusion pair holds {len(x[0])} left blocks and "
                             f"{len(x[1])} right blocks; the counts must match")
        ledger["left"], ledger["right"] = {}, {}
        emb_left = self.left.embed(x[0], ledger["left"])
        emb_right = self.right.embed(x[1], ledger["right"])
        joined = T.concat([emb_left, emb_right], axis=1)
        ledger["concat"] = joined.data.shape[1]
        emb = T.relu(self.fusion_dense(joined))
        ledger["dense"] = emb.data.shape[1]
        return emb


def build_single_model(arch: Arch | str, kind: FeatureKind, head: HeadKind | str,
                       seed: int = 0, dtype=np.float64,
                       width_scale: int = 1) -> SingleFeatureModel:
    """The builder of every single-feature network: cnn, gru and cnn_gru over
    the spectral and cepstral kinds, and the stand-in mlp_baseline_standin
    over mfcc_delta_delta features only. ``check_cell`` refuses any other
    pairing."""
    head = parse_head(head) if isinstance(head, str) else head
    return SingleFeatureModel(check_cell(arch, (kind,)), kind, head, seed=seed, dtype=dtype,
                              width_scale=width_scale)


def build_baseline_mlp(head: HeadKind | str, seed: int = 0, dtype=np.float64,
                       width_scale: int = 1) -> SingleFeatureModel:
    return build_single_model(Arch.MLP_BASELINE, FeatureKind.MFCC_DELTA_DELTA, head,
                              seed=seed, dtype=dtype, width_scale=width_scale)


def build_fusion_model(left: SingleFeatureModel, right: SingleFeatureModel,
                       seed: int = 0) -> FusionModel:
    return FusionModel(left, right, seed=seed)


@dataclass(frozen=True)
class ClipPrediction:
    """A clip's mean block output row and the decision ``HeadKind.decide``
    makes on it: 0/1 (binary), a class index (four-class) or an intensity in
    [1, 7] (regression)."""

    mean: np.ndarray
    decision: int | float

    @property
    def label(self) -> int:
        return int(self.decision)


def predict_clip(model: NetworkGraph, x) -> ClipPrediction:
    """Average block outputs into one clip decision.

    ``x`` is what ``model.forward`` takes: one clip's (n_blocks, D, 20) block
    array, or a (left, right) pair of such arrays for a fusion model.
    """
    if len(x[0] if isinstance(x, tuple) else x) == 0:
        raise DegenerateInputError("predict_clip needs at least one feature block")
    with no_grad():
        mean = model.forward(x).data.mean(axis=0)
    return ClipPrediction(mean=mean, decision=model.head_kind.decide(mean[None]).item())


# -- descriptor + checkpoint persistence -----------------------------------------


def save_model(model: NetworkGraph, directory, name: str) -> Path:
    """Write <name>.ckpt and a human-readable <name>.descriptor; returns the
    descriptor path."""
    directory = make_dirs(directory)
    ckpt = directory / f"{name}.ckpt"
    save_checkpoint(model.state_dict(), ckpt)
    lines = [
        f"arch = {model.arch.value}",
        f"features = {'+'.join(k.value for k in model.kinds)}",
        f"head = {model.head_kind.value}",
        f"dtype = {np.dtype(model.dtype).name}",
        f"width_scale = {model.width_scale}",
        f"checkpoint = {ckpt.name}",
    ]
    descriptor = directory / f"{name}.descriptor"
    write_text(descriptor, "\n".join(lines) + "\n")
    return descriptor


def load_model(descriptor_path) -> NetworkGraph:
    descriptor_path = Path(descriptor_path)
    fields: dict[str, str] = {}
    for line in read_text(descriptor_path, "model descriptor").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        arch = Arch(fields["arch"])
        kinds = parse_feature_set(fields["features"])
        head = HeadKind(fields["head"])
        if fields["dtype"] not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {fields['dtype']!r}")
        dtype = np.dtype(fields["dtype"])
        width_scale = int(fields.get("width_scale", "1"))
        if width_scale < 1:
            raise ValueError(f"width_scale must be an integer >= 1, got {width_scale}")
        checkpoint = descriptor_path.parent / fields["checkpoint"]
    except (KeyError, ValueError, ConfigError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad model descriptor {descriptor_path}: {reason}") from exc
    branches = [build_single_model(arch, kind, head, dtype=dtype, width_scale=width_scale)
                for kind in kinds]
    model = branches[0] if len(branches) == 1 else build_fusion_model(*branches)
    model.load_state_dict(load_checkpoint(checkpoint))
    return model

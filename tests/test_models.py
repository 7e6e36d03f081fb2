"""models: shape ledgers, heads, fusion wiring, clip prediction, persistence."""

import tracemalloc

import numpy as np
import pytest

from shoutkit import neural
from shoutkit.errors import ConfigError, DegenerateInputError, ShapeError, ShoutKitError
from shoutkit.features import FeatureKind
from shoutkit.models import (HIGH_DIM_TABLE, LOW_DIM_TABLE, Arch, HeadKind, SingleFeatureModel,
                             build_baseline_mlp, build_fusion_model, build_single_model,
                             check_cell, load_model, predict_clip, save_model)

from oracles import count_graph_nodes

HIGH = (FeatureKind.SPECTROGRAM, FeatureKind.CEPSTROGRAM)
LOW = (FeatureKind.MEL_SPECTROGRAM, FeatureKind.TMFCC)


def blocks_for(kind, n=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, kind.dim, 20))


class TestShapeLedger:
    def test_cnn_high(self):
        m = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["input_height"] == 512
        assert ledger["pooled_heights"] == [102, 20, 4]
        assert ledger["flatten"] == 16 * 4 * 20 == 1280
        assert ledger["dense"] == 64

    def test_cnn_low(self):
        m = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["input_height"] == 30
        assert ledger["pooled_heights"] == [10, 3, 1]
        assert ledger["flatten"] == 16 * 1 * 20 == 320
        assert ledger["dense"] == 16

    def test_gru_high(self):
        m = build_single_model("gru", FeatureKind.CEPSTROGRAM, "binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["bigru_sequence"] == [20, 1024]
        assert ledger["bigru_width"] == 1024
        assert ledger["dense"] == 64

    def test_gru_low(self):
        m = build_single_model("gru", FeatureKind.TMFCC, "binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["bigru_width"] == 60
        assert ledger["dense"] == 16

    def test_cnn_gru_high(self):
        m = build_single_model("cnn_gru", FeatureKind.SPECTROGRAM, "binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["pooled_heights"] == [102, 20, 4]
        assert ledger["per_frame_dim"] == 16 * 4
        assert ledger["bigru_width"] == 64
        assert ledger["dense"] == 64

    def test_cnn_gru_low(self):
        m = build_single_model("cnn_gru", FeatureKind.TMFCC, "binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["pooled_heights"] == [10, 3, 1]
        assert ledger["per_frame_dim"] == 16
        assert ledger["bigru_width"] == 16
        assert ledger["dense"] == 16

    def test_fusion_concat_high_is_128(self):
        left = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0)
        right = build_single_model("cnn", FeatureKind.CEPSTROGRAM, "binary", seed=1)
        fusion = build_fusion_model(left, right, seed=2)
        assert fusion.concat_dim == 128
        assert fusion.shape_ledger()["concat"] == 128

    def test_fusion_concat_low_is_32(self):
        left = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary", seed=0)
        right = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=1)
        fusion = build_fusion_model(left, right, seed=2)
        assert fusion.concat_dim == 32

    def test_baseline_mlp_shapes(self):
        m = build_baseline_mlp("binary", seed=0)
        ledger = m.shape_ledger()
        assert ledger["flatten"] == 60 * 20 == 1200
        assert ledger["dense"] == 512


CNN_HIGH = {"input_height": 512, "pooled_heights": [102, 20, 4], "conv_output": [16, 4, 20],
            "flatten": 1280, "dense": 64, "embedding": 64}
CNN_LOW = {"input_height": 30, "pooled_heights": [10, 3, 1], "conv_output": [16, 1, 20],
           "flatten": 320, "dense": 16, "embedding": 16}
FULL_LEDGERS = {
    ("cnn", HIGH): CNN_HIGH,
    ("cnn", LOW): CNN_LOW,
    ("gru", HIGH): {"bigru_sequence": [20, 1024], "bigru_width": 1024, "dense": 64,
                    "embedding": 64},
    ("gru", LOW): {"bigru_sequence": [20, 60], "bigru_width": 60, "dense": 16, "embedding": 16},
    ("cnn_gru", HIGH): {"input_height": 512, "pooled_heights": [102, 20, 4],
                        "conv_output": [16, 4, 20], "per_frame_dim": 64,
                        "bigru_sequence": [20, 64], "bigru_width": 64, "dense": 64,
                        "embedding": 64},
    ("cnn_gru", LOW): {"input_height": 30, "pooled_heights": [10, 3, 1],
                       "conv_output": [16, 1, 20], "per_frame_dim": 16,
                       "bigru_sequence": [20, 16], "bigru_width": 16, "dense": 16,
                       "embedding": 16},
}


@pytest.mark.parametrize("arch, family, kind", [
    pytest.param(arch, family, kind, id=f"{arch}-{kind.value}")
    for arch in ("cnn", "gru", "cnn_gru") for family in (HIGH, LOW) for kind in family])
def test_full_shape_ledger(arch, family, kind):
    # every key, in the order the forward pass writes them
    ledger = build_single_model(arch, kind, "binary", seed=0).shape_ledger()
    expected = FULL_LEDGERS[arch, family]
    assert ledger == expected and list(ledger) == list(expected)


@pytest.mark.parametrize("family, branch, width", [(HIGH, CNN_HIGH, 128), (LOW, CNN_LOW, 32)],
                         ids=["high", "low"])
def test_full_fusion_shape_ledger(family, branch, width):
    fusion = build_fusion_model(build_single_model("cnn", family[0], "binary", seed=0),
                                build_single_model("cnn", family[1], "binary", seed=1), seed=2)
    expected = {"left": branch, "right": branch, "concat": width, "dense": width}
    ledger = fusion.shape_ledger()
    assert ledger == expected and list(ledger) == list(expected)


def test_full_baseline_mlp_shape_ledger():
    ledger = build_baseline_mlp("binary", seed=0).shape_ledger()
    assert list(ledger.items()) == [("flatten", 1200), ("dense", 512), ("embedding", 512)]


class TestModelBatch:
    def test_single_model_takes_one_array(self):
        m = build_single_model("cnn", LOW[0], "binary", seed=0, width_scale=4)
        x = {LOW[0]: blocks_for(LOW[0], 5), LOW[1]: blocks_for(LOW[1], 5, seed=1)}
        idx = np.array([3, 0, 4])
        assert np.array_equal(m.batch(x, idx), x[LOW[0]][idx])
        assert np.array_equal(m.batch(x), x[LOW[0]])

    def test_fusion_model_takes_a_left_right_pair(self):
        fusion = build_fusion_model(
            build_single_model("cnn", LOW[0], "binary", seed=0, width_scale=4),
            build_single_model("cnn", LOW[1], "binary", seed=1, width_scale=4), seed=2)
        x = {LOW[1]: blocks_for(LOW[1], 5, seed=1), LOW[0]: blocks_for(LOW[0], 5)}
        idx = slice(1, 4)
        batch = fusion.batch(x, idx)
        assert isinstance(batch, tuple) and len(batch) == 2
        assert np.array_equal(batch[0], x[LOW[0]][idx])
        assert np.array_equal(batch[1], x[LOW[1]][idx])


class TestBuildErrors:
    def test_mfcc_dd_has_no_single_architecture(self):
        with pytest.raises(ConfigError):
            build_single_model("cnn", FeatureKind.MFCC_DELTA_DELTA, "binary")

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            build_single_model("transformer", FeatureKind.SPECTROGRAM, "binary")

    def test_fusion_head_mismatch(self):
        left = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0)
        right = build_single_model("cnn", FeatureKind.CEPSTROGRAM, "four_class", seed=1)
        with pytest.raises(ConfigError):
            build_fusion_model(left, right)

    def test_fusion_variant_mixing(self):
        left = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0)
        right = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=1)
        with pytest.raises(ConfigError):
            build_fusion_model(left, right)

    def test_fusion_arch_mismatch(self):
        left = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0)
        right = build_single_model("gru", FeatureKind.CEPSTROGRAM, "binary", seed=1)
        with pytest.raises(ConfigError):
            build_fusion_model(left, right)

    @pytest.mark.parametrize("kind", HIGH + LOW, ids=lambda k: k.value)
    def test_baseline_mlp_needs_mfcc_delta_delta(self, kind):
        with pytest.raises(ConfigError, match="mfcc_delta_delta"):
            build_single_model("mlp_baseline_standin", kind, "binary")

    def test_baseline_mlps_cannot_fuse(self):
        with pytest.raises(ConfigError, match="mlp_baseline_standin"):
            build_fusion_model(build_baseline_mlp("binary", seed=0),
                               build_baseline_mlp("binary", seed=1))

    def test_check_cell_refuses_an_mlp_pair(self):
        pair = (FeatureKind.MFCC_DELTA_DELTA, FeatureKind.MFCC_DELTA_DELTA)
        with pytest.raises(ConfigError, match="mlp_baseline_standin"):
            check_cell("mlp_baseline_standin", pair)

    def test_a_fusion_pair_of_unequal_block_counts_is_refused_before_either_branch_runs(self):
        fusion = build_fusion_model(
            build_single_model("cnn", LOW[0], "binary", seed=0, width_scale=8),
            build_single_model("cnn", LOW[1], "binary", seed=1, width_scale=8))

        def branch_ran(*args):
            raise AssertionError("a branch ran")

        fusion.left.embed = fusion.right.embed = branch_ran
        pair = (blocks_for(LOW[0], 3), blocks_for(LOW[1], 2))
        for call in (fusion.embed, fusion.forward, lambda x: predict_clip(fusion, x)):
            with pytest.raises(ShapeError, match="3 left blocks and 2 right blocks"):
                call(pair)

    def test_a_fusion_model_is_no_branch(self):
        fusion = build_fusion_model(
            build_single_model("cnn", LOW[0], "binary", seed=0, width_scale=8),
            build_single_model("cnn", LOW[1], "binary", seed=1, width_scale=8))
        with pytest.raises(ConfigError, match="single-feature"):
            build_fusion_model(fusion, fusion)


@pytest.mark.parametrize("table", [HIGH_DIM_TABLE, LOW_DIM_TABLE], ids=["high", "low"])
def test_pooled_heights_follow_each_stage(table):
    # each stage's 5x5 conv with padding 2 keeps the height, and its pool
    # floor-divides it by the table's kernel
    for dim in range(1, 700):
        height, heights = dim, []
        for _ in range(3):
            height = (height + 2 * 2 - 5 + 1) // table.pool_kernel
            heights.append(height)
        assert table.pooled_heights(dim) == tuple(heights), dim


@pytest.mark.parametrize("arch", [a.value for a in Arch] + ["cnn_fusion"])
def test_an_empty_batch_forwards_to_no_rows(arch):
    # training._forward_chunks forwards an empty input once
    single = lambda a, kind, seed: build_single_model(a, kind, "four_class", seed=seed,
                                                      width_scale=8)
    if arch == "cnn_fusion":
        model = build_fusion_model(single("cnn", LOW[0], 0), single("cnn", LOW[1], 1), seed=2)
    elif arch == "mlp_baseline_standin":
        model = single(arch, FeatureKind.MFCC_DELTA_DELTA, 0)
    else:
        model = single(arch, FeatureKind.SPECTROGRAM, 0)
    x = model.batch({k: np.zeros((0, k.dim, 20)) for k in model.kinds})
    assert model.forward(x).data.shape == (0, 4)


@pytest.mark.parametrize("arch", [a.value for a in Arch])
def test_one_class_builds_every_arch(arch):
    kind = FeatureKind.MFCC_DELTA_DELTA if arch == "mlp_baseline_standin" else LOW[0]
    model = build_single_model(arch, kind, "binary", width_scale=8)
    assert type(model) is SingleFeatureModel and model.arch is Arch(arch)


class TestRegressionHead:
    def test_bounded_for_arbitrary_parameters(self):
        m = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "regression",
                               seed=0, width_scale=4)
        # blow up the head weights; the output mapping must stay inside [1, 7]
        for p in m.parameters().values():
            p.data = p.data + np.random.default_rng(0).standard_normal(p.data.shape) * 50
        x = np.random.default_rng(1).standard_normal((8, 30, 20)) * 10
        out = m.forward(x).data
        assert np.all(out >= 1.0) and np.all(out <= 7.0)


class TestHeadKind:
    """Each head kind owns its output mapping and its training targets."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_activate_maps_each_kind(self, dtype):
        z = np.array([[0.0], [2.0], [-3.0]], dtype=dtype)
        sig = 1.0 / (1.0 + np.exp(-z.astype(np.float64)))
        binary = HeadKind.BINARY.activate(neural.Tensor(z)).data
        regression = HeadKind.REGRESSION.activate(neural.Tensor(z)).data
        assert binary.dtype == regression.dtype == dtype
        np.testing.assert_allclose(binary, sig, rtol=1e-6)
        np.testing.assert_allclose(regression, 1.0 + 6.0 * sig, rtol=1e-6)
        assert regression[0, 0] == 4.0  # the middle of the 1-7 scale
        z4 = np.array([[0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0]], dtype=dtype)
        four = HeadKind.FOUR_CLASS.activate(neural.Tensor(z4)).data
        e = np.exp(z4.astype(np.float64) - z4.max(axis=1, keepdims=True))
        assert four.dtype == dtype
        np.testing.assert_allclose(four, e / e.sum(axis=1, keepdims=True), rtol=1e-6)
        assert four[1].tolist() == [0.25] * 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_targets_per_kind(self, dtype):
        classes = HeadKind.FOUR_CLASS.targets(np.array([0.0, 3.0, 1.0]), dtype)
        assert classes.dtype == np.int64 and classes.tolist() == [0, 3, 1]
        for head, y in ((HeadKind.BINARY, [1, 0, 1]), (HeadKind.REGRESSION, [2.5, 7.0, 1.0])):
            column = head.targets(np.array(y), dtype)
            assert column.dtype == dtype and column.shape == (3, 1)
            assert column[:, 0].tolist() == y

    @pytest.mark.parametrize("head", list(HeadKind), ids=[h.value for h in HeadKind])
    def test_forward_maps_the_head_layer_through_its_kind(self, head):
        m = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, head, seed=2,
                               dtype=np.float32, width_scale=4)
        assert m.head_kind is head and m.head.n_out == head.n_outputs
        x = blocks_for(FeatureKind.MEL_SPECTROGRAM, 3, seed=4)
        assert np.array_equal(m.forward(x).data, head.activate(m.head(m.embed(x))).data)


class StubModel:
    """Duck-typed stand-in returning scripted block outputs."""

    def __init__(self, head_kind, outputs):
        self.head_kind = head_kind
        self.kinds = (FeatureKind.MEL_SPECTROGRAM,)
        self.outputs = np.asarray(outputs, dtype=np.float64)

    def forward(self, batch):
        from shoutkit.neural import Tensor
        n = batch.shape[0] if not isinstance(batch, tuple) else batch[0].shape[0]
        return Tensor(self.outputs[:n])


class TestPredictClip:
    def test_single_block_binary(self):
        model = StubModel(HeadKind.BINARY, [[0.7]])
        pred = predict_clip(model, blocks_for(FeatureKind.MEL_SPECTROGRAM, 1))
        assert pred.label == 1
        assert pred.mean[0] == pytest.approx(0.7)

    def test_two_blocks_average_crosses_threshold(self):
        model = StubModel(HeadKind.BINARY, [[0.4], [0.8]])
        pred = predict_clip(model, blocks_for(FeatureKind.MEL_SPECTROGRAM, 2))
        assert pred.mean[0] == pytest.approx(0.6)
        assert pred.label == 1

    def test_exactly_half_is_not_shout(self):
        model = StubModel(HeadKind.BINARY, [[0.5]])
        pred = predict_clip(model, blocks_for(FeatureKind.MEL_SPECTROGRAM, 1))
        assert pred.label == 0

    def test_four_class_uniform_tie(self):
        model = StubModel(HeadKind.FOUR_CLASS, [[0.25, 0.25, 0.25, 0.25]])
        pred = predict_clip(model, blocks_for(FeatureKind.MEL_SPECTROGRAM, 1))
        assert pred.label == 0
        assert np.all(pred.mean == pred.mean.max())

    def test_four_class_argmax(self):
        model = StubModel(HeadKind.FOUR_CLASS, [[0.1, 0.2, 0.6, 0.1], [0.1, 0.6, 0.2, 0.1]])
        pred = predict_clip(model, blocks_for(FeatureKind.MEL_SPECTROGRAM, 2))
        assert pred.mean[1] == pred.mean[2]
        assert pred.label == 1  # equal means tie to the lowest index

    def test_regression_mean_clamped(self):
        model = StubModel(HeadKind.REGRESSION, [[2.0], [5.0]])
        pred = predict_clip(model, blocks_for(FeatureKind.MEL_SPECTROGRAM, 2))
        assert pred.decision == pytest.approx(3.5)

    def test_empty_blocks_rejected(self):
        model = StubModel(HeadKind.BINARY, [[0.5]])
        with pytest.raises(DegenerateInputError):
            predict_clip(model, np.zeros((0, 30, 20)))

    def test_real_model_batches_blocks(self):
        m = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                               seed=3, width_scale=4)
        pred = predict_clip(m, blocks_for(FeatureKind.MEL_SPECTROGRAM, 3, seed=5))
        assert pred.label in (0, 1)
        assert 0.0 < pred.mean[0] < 1.0


@pytest.mark.parametrize("head, rows, decisions", [
    (HeadKind.BINARY, [[0.5], [0.50001], [0.2], [0.9]], [0, 1, 0, 1]),
    (HeadKind.FOUR_CLASS, [[0.25, 0.25, 0.25, 0.25], [0.1, 0.4, 0.4, 0.1],
                           [0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.3, 0.2]], [0, 1, 3, 1]),
    (HeadKind.REGRESSION, [[0.2], [1.0], [3.5], [7.0], [9.3]], [1.0, 1.0, 3.5, 7.0, 7.0]),
], ids=["binary", "four_class", "regression"])
def test_head_decide_is_the_one_decision_rule(head, rows, decisions):
    # binary: exactly 0.5 is not a shout; four-class: ties go to the lowest
    # index; regression: clamped into [1, 7]
    rows = np.asarray(rows)
    assert head.decide(rows).tolist() == decisions
    pred = predict_clip(StubModel(head, rows), blocks_for(FeatureKind.MEL_SPECTROGRAM, len(rows)))
    assert np.array_equal(pred.mean, rows.mean(axis=0))
    assert pred.decision == head.decide(rows.mean(axis=0)[None])[0]


class TestFusionWiring:
    def test_zeroed_right_branch_reproduces_left_decision(self):
        left = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                  seed=0, width_scale=2)
        right = build_single_model("cnn", FeatureKind.TMFCC, "binary",
                                   seed=1, width_scale=2)
        fusion = build_fusion_model(left, right, seed=2)
        d = left.embedding_dim

        # silence the right branch entirely
        for p in right.parameters().values():
            p.data = np.zeros_like(p.data)
        # fusion dense: pass the left embedding through unchanged
        fusion.fusion_dense.weight.data = np.zeros((2 * d, 2 * d))
        fusion.fusion_dense.weight.data[:d, :d] = np.eye(d)
        fusion.fusion_dense.bias.data = np.zeros(2 * d)
        # fusion head: copy the left head on the first half, zero the rest
        fusion.head.weight.data = np.zeros((2 * d, 1))
        fusion.head.weight.data[:d, 0] = left.head.weight.data[:, 0]
        fusion.head.bias.data = left.head.bias.data.copy()

        rng = np.random.default_rng(7)
        x_left = rng.standard_normal((4, 30, 20))
        x_right = rng.standard_normal((4, 30, 20))
        fused = fusion.forward((x_left, x_right)).data
        alone = left.forward(x_left).data
        assert np.allclose(fused, alone, atol=1e-12)


CONV_NAMES = ["conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias",
              "conv3.weight", "conv3.bias"]
BIGRU_NAMES = ["bigru.fwd.w_input", "bigru.fwd.w_hidden", "bigru.fwd.b_input",
               "bigru.fwd.b_hidden", "bigru.bwd.w_input", "bigru.bwd.w_hidden",
               "bigru.bwd.b_input", "bigru.bwd.b_hidden"]
DENSE_HEAD_NAMES = ["dense.weight", "dense.bias", "head.weight", "head.bias"]
PARAMETER_NAMES = {
    "cnn": CONV_NAMES + DENSE_HEAD_NAMES,
    "gru": BIGRU_NAMES + DENSE_HEAD_NAMES,
    "cnn_gru": CONV_NAMES + BIGRU_NAMES + DENSE_HEAD_NAMES,
}
FUSION_PARAMETER_NAMES = {
    "cnn": [
        "left.conv1.weight", "left.conv1.bias", "left.conv2.weight", "left.conv2.bias",
        "left.conv3.weight", "left.conv3.bias", "left.dense.weight", "left.dense.bias",
        "right.conv1.weight", "right.conv1.bias", "right.conv2.weight", "right.conv2.bias",
        "right.conv3.weight", "right.conv3.bias", "right.dense.weight", "right.dense.bias",
        "fusion.weight", "fusion.bias", "head.weight", "head.bias"],
    "cnn_gru": [
        "left.conv1.weight", "left.conv1.bias", "left.conv2.weight", "left.conv2.bias",
        "left.conv3.weight", "left.conv3.bias",
        "left.bigru.fwd.w_input", "left.bigru.fwd.w_hidden", "left.bigru.fwd.b_input",
        "left.bigru.fwd.b_hidden", "left.bigru.bwd.w_input", "left.bigru.bwd.w_hidden",
        "left.bigru.bwd.b_input", "left.bigru.bwd.b_hidden",
        "left.dense.weight", "left.dense.bias",
        "right.conv1.weight", "right.conv1.bias", "right.conv2.weight", "right.conv2.bias",
        "right.conv3.weight", "right.conv3.bias",
        "right.bigru.fwd.w_input", "right.bigru.fwd.w_hidden", "right.bigru.fwd.b_input",
        "right.bigru.fwd.b_hidden", "right.bigru.bwd.w_input", "right.bigru.bwd.w_hidden",
        "right.bigru.bwd.b_input", "right.bigru.bwd.b_hidden",
        "right.dense.weight", "right.dense.bias",
        "fusion.weight", "fusion.bias", "head.weight", "head.bias"],
}


class TestParameterNames:
    """Checkpoints are keyed by these names, in this order: a renamed or
    reordered entry makes every saved checkpoint fail to load."""

    @staticmethod
    def assert_names(model, expected):
        assert list(model.parameters()) == expected
        assert list(model.state_dict()) == expected

    @pytest.mark.parametrize("arch", ["cnn", "gru", "cnn_gru"])
    def test_single_feature_models(self, arch):
        model = build_single_model(arch, LOW[1], "binary", seed=0, width_scale=4)
        self.assert_names(model, PARAMETER_NAMES[arch])

    @pytest.mark.parametrize("arch", ["cnn", "cnn_gru"])
    def test_fusion_pairs_keep_only_the_fusion_head(self, arch):
        left = build_single_model(arch, LOW[0], "binary", seed=0, width_scale=4)
        right = build_single_model(arch, LOW[1], "binary", seed=1, width_scale=4)
        self.assert_names(build_fusion_model(left, right, seed=2), FUSION_PARAMETER_NAMES[arch])

    def test_baseline_mlp(self):
        self.assert_names(build_baseline_mlp("binary", seed=0, width_scale=4),
                          ["dense1.weight", "dense1.bias", "dense2.weight", "dense2.bias",
                           "head.weight", "head.bias"])


class TestPersistence:
    def test_single_model_round_trip(self, tmp_path):
        m = build_single_model("cnn_gru", FeatureKind.TMFCC, "four_class",
                               seed=4, width_scale=2)
        x = np.random.default_rng(1).standard_normal((2, 30, 20))
        expected = m.forward(x).data
        descriptor = save_model(m, tmp_path, "model")
        restored = load_model(descriptor)
        assert np.allclose(restored.forward(x).data, expected, atol=0)

    def test_fusion_round_trip(self, tmp_path):
        left = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                  seed=0, width_scale=4)
        right = build_single_model("cnn", FeatureKind.TMFCC, "binary",
                                   seed=1, width_scale=4)
        fusion = build_fusion_model(left, right, seed=2)
        rng = np.random.default_rng(3)
        x = (rng.standard_normal((2, 30, 20)), rng.standard_normal((2, 30, 20)))
        expected = fusion.forward(x).data
        descriptor = save_model(fusion, tmp_path, "fusion")
        restored = load_model(descriptor)
        assert np.allclose(restored.forward(x).data, expected, atol=0)

    # width 2 cases keep their plain dtype ids, so their names stay stable;
    # widths 1 and 4 add "-w<scale>"
    @pytest.mark.parametrize("dtype, width_scale", [
        pytest.param(dtype, scale, id=np.dtype(dtype).name + ("" if scale == 2 else f"-w{scale}"))
        for scale in (1, 2, 4) for dtype in (np.float32, np.float64)])
    @pytest.mark.parametrize("head", [h.value for h in HeadKind])
    @pytest.mark.parametrize("arch, fused", [
        *((arch, fused) for arch in ("cnn", "gru", "cnn_gru") for fused in ("single", "fusion")),
        ("mlp_baseline_standin", "single")])
    def test_round_trip_every_build(self, tmp_path, arch, fused, head, dtype, width_scale):
        def build(kind, seed):
            return build_single_model(arch, kind, head, seed=seed, dtype=dtype,
                                      width_scale=width_scale)

        kind = FeatureKind.MFCC_DELTA_DELTA if arch == "mlp_baseline_standin" else LOW[0]
        model = build(kind, 5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, kind.dim, 20)).astype(dtype)
        if fused == "fusion":
            model = build_fusion_model(model, build(LOW[1], 9), seed=7)
            x = (x, rng.standard_normal((3, 30, 20)).astype(dtype))
        restored = load_model(save_model(model, tmp_path, "m"))
        state, back = model.state_dict(), restored.state_dict()
        assert set(back) == set(state)
        for name, value in state.items():
            assert back[name].dtype == value.dtype
            assert np.array_equal(back[name], value)
        assert np.array_equal(restored.forward(x).data, model.forward(x).data)

    def test_old_gru_concat_width_line(self, tmp_path):
        # older descriptors name the BiGRU width; `True` is the only width
        # built now and loads as before, while a `False` descriptor comes with
        # a wider checkpoint, which the shape check refuses
        m = build_single_model("gru", FeatureKind.TMFCC, "binary", seed=3, width_scale=2)
        descriptor = save_model(m, tmp_path, "m")
        with descriptor.open("a") as fh:
            fh.write("gru_concat_width = True\n")
        restored = load_model(descriptor)
        assert all(np.array_equal(restored.state_dict()[k], v) for k, v in m.state_dict().items())
        wide = build_single_model("gru", FeatureKind.TMFCC, "binary", seed=3, width_scale=1)
        neural.save_checkpoint(wide.state_dict(), tmp_path / "m.ckpt")
        with pytest.raises(ShapeError):
            load_model(descriptor)

    def test_descriptor_holds_exactly_the_keys_load_model_reads(self, tmp_path):
        for model in (build_single_model("cnn", HIGH[0], "binary", seed=0, width_scale=4),
                      build_baseline_mlp("binary", seed=0, width_scale=4)):
            lines = save_model(model, tmp_path, "m").read_text().splitlines()
            assert {line.partition("=")[0].strip() for line in lines} == {
                "arch", "features", "head", "dtype", "width_scale", "checkpoint"}

    def test_old_seed_line_is_ignored(self, tmp_path):
        # older descriptors record a seed; a negative one loads like any other
        m = build_single_model("cnn", FeatureKind.TMFCC, "four_class", seed=3, width_scale=4)
        descriptor = save_model(m, tmp_path, "m")
        with descriptor.open("a") as fh:
            fh.write("seed = -1\n")
        back = load_model(descriptor).state_dict()
        state = m.state_dict()
        assert set(back) == set(state)
        assert all(np.array_equal(back[k], v) for k, v in state.items())

    # another valid value for each key save_model writes
    OTHER_VALUES = {"arch": "gru", "features": "mel_spectrogram", "head": "regression",
                    "dtype": "float32", "width_scale": "2", "checkpoint": "other.ckpt"}

    def test_every_descriptor_key_changes_the_model(self, tmp_path):
        # a descriptor key whose value the loaded model does not reflect is
        # a key load_model does not need
        def identity(model):
            return (model.arch, model.kinds, model.head_kind, model.dtype, model.width_scale,
                    {k: v.tobytes() for k, v in model.state_dict().items()})

        m = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=3, width_scale=4)
        neural.save_checkpoint(
            build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=4,
                               width_scale=4).state_dict(), tmp_path / "other.ckpt")
        lines = save_model(m, tmp_path, "m").read_text().splitlines()
        for i, line in enumerate(lines):
            key = line.partition("=")[0].strip()
            assert key in self.OTHER_VALUES, f"no other value for descriptor key {key!r}"
            changed = tmp_path / f"{key}.descriptor"
            changed.write_text("\n".join([*lines[:i], f"{key} = {self.OTHER_VALUES[key]}",
                                          *lines[i + 1:]]) + "\n")
            try:
                restored = load_model(changed)
            except ShoutKitError:
                continue
            assert identity(restored) != identity(m), f"descriptor key {key!r} changes nothing"

    def test_old_variant_and_dims_lines_are_ignored(self, tmp_path):
        m = build_single_model("cnn", HIGH[1], "regression", seed=3, width_scale=4)
        descriptor = save_model(m, tmp_path, "m")
        with descriptor.open("a") as fh:
            fh.write("variant = high\n"
                     "dims = 512,102,20,4,16 gru=256,16 d6=16 pool=5 channels=4\n")
        back = load_model(descriptor).state_dict()
        state = m.state_dict()
        assert set(back) == set(state)
        assert all(np.array_equal(back[k], v) for k, v in state.items())

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        m = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=0, width_scale=4)
        other = build_single_model("gru", FeatureKind.TMFCC, "binary", seed=0, width_scale=4)
        with pytest.raises(ConfigError):
            m.load_state_dict(other.state_dict())


def test_binary_output_is_probability():
    m = build_single_model("gru", FeatureKind.TMFCC, "binary", seed=6, width_scale=2)
    x = np.random.default_rng(2).standard_normal((5, 30, 20))
    out = m.forward(x).data
    assert np.all((out > 0) & (out < 1))


def test_four_class_rows_sum_to_one():
    m = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "four_class",
                           seed=6, width_scale=2)
    x = np.random.default_rng(2).standard_normal((5, 30, 20))
    out = m.forward(x).data
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("arch,nodes", [
    ("cnn", 7), ("gru", 8), ("cnn_gru", 11), ("mlp_baseline_standin", 7), ("cnn_fusion", 14)])
def test_loss_graph_is_one_node_per_layer(arch, nodes):
    # the conv stack, a dense layer, a GRU direction and the BiGRU's final
    # state each record one node; so do the reshapes, the head and the loss
    single = lambda a, kind, seed: build_single_model(a, kind, "binary", seed=seed,
                                                      dtype=np.float32, width_scale=8)
    if arch == "cnn_fusion":
        m = build_fusion_model(single("cnn", FeatureKind.SPECTROGRAM, 0),
                               single("cnn", FeatureKind.CEPSTROGRAM, 1), seed=2)
    elif arch == "mlp_baseline_standin":
        m = single(arch, FeatureKind.MFCC_DELTA_DELTA, 0)
    else:
        m = single(arch, FeatureKind.SPECTROGRAM, 0)
    rng = np.random.default_rng(3)
    x = m.batch({k: rng.standard_normal((4, k.dim, 20)).astype(np.float32) for k in m.kinds})
    assert count_graph_nodes(neural.mse_loss(m.forward(x), np.ones((4, 1)))) <= nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", ["cnn", "gru", "cnn_gru", "mlp_baseline_standin",
                                  "cnn_fusion_high", "cnn_fusion_low"])
def test_released_gradients_equal_zero_filled_ones(arch, dtype):
    # model.zero_grad() releases the gradients; one backward must then give
    # every parameter the bytes that zero-filling each one would, so that no
    # parameter is left without a gradient for Adam to skip
    single = lambda a, kind, seed: build_single_model(a, kind, "binary", seed=seed,
                                                      dtype=dtype, width_scale=8)
    if arch.startswith("cnn_fusion"):
        left, right = HIGH if arch.endswith("high") else LOW
        m = build_fusion_model(single("cnn", left, 0), single("cnn", right, 1), seed=2)
    elif arch == "mlp_baseline_standin":
        m = single(arch, FeatureKind.MFCC_DELTA_DELTA, 0)
    else:
        m = single(arch, FeatureKind.SPECTROGRAM, 0)
    rng = np.random.default_rng(3)
    x = m.batch({k: rng.standard_normal((4, k.dim, 20)).astype(dtype) for k in m.kinds})
    y = np.array([[1.0], [0.0], [1.0], [0.0]], dtype=dtype)
    params = m.parameters()

    for p in params.values():
        p.zero_grad()
    neural.mse_loss(m.forward(x), y).backward()
    filled = {name: p.grad for name, p in params.items()}
    m.zero_grad()
    assert all(p.grad is None for p in params.values())
    neural.mse_loss(m.forward(x), y).backward()
    for name, p in params.items():
        assert p.grad is not None, name
        assert p.grad.shape == p.data.shape and p.grad.dtype == p.data.dtype, name
        want = filled[name]
        assert np.ascontiguousarray(p.grad).tobytes() == np.ascontiguousarray(want).tobytes(), name


def test_model_zero_grad_allocates_nothing():
    m = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0, dtype=np.float32)
    x = np.random.default_rng(1).standard_normal((2, 512, 20)).astype(np.float32)
    neural.mse_loss(m.forward(x), np.ones((2, 1), np.float32)).backward()
    held = sum(p.grad.nbytes for p in m.parameters().values())
    tracemalloc.start()
    try:
        m.zero_grad()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is None for p in m.parameters().values())
    # the parameter-name dict only; zero-filling would take every gradient's bytes again
    assert peak < 8 * 1024 < held


def _unbatched(shape):
    return neural.Tensor(np.zeros(shape))


@pytest.mark.parametrize("call", [
    lambda: neural.Conv2d(1, 2, 5, 2, np.random.default_rng(0))(_unbatched((1, 8, 8))),
    lambda: neural.maxpool2d(_unbatched((1, 8, 8)), 2),
    lambda: neural.BiGRU(3, 2, np.random.default_rng(0))(_unbatched((5, 3))),
    lambda: build_single_model("cnn", FeatureKind.TMFCC, "binary", width_scale=4).forward(
        np.zeros((30, 20))),
    lambda: build_single_model("gru", FeatureKind.TMFCC, "binary", width_scale=4).forward(
        np.zeros((30, 20))),
    lambda: build_baseline_mlp("binary", width_scale=4).forward(np.zeros((60, 20))),
], ids=["Conv2d", "maxpool2d", "BiGRU", "cnn", "gru", "mlp"])
def test_unbatched_input_refused(call):
    with pytest.raises(ShapeError):
        call()

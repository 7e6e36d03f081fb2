"""features: framing, spectra, cepstra, mel/MFCC, deltas, blocks, containers."""

import csv
import struct

import numpy as np
import pytest

from shoutkit import features
from shoutkit.audio_io import AudioClip
from shoutkit.errors import (DegenerateInputError, FormatError, NumericError, ShapeError,
                             UnsupportedError)
from shoutkit.features import (BLOCK_FRAMES, FRAME_LENGTH, HOP_LENGTH, LOG_FLOOR,
                               FeatureKind, FeatureStats, assemble_blocks, cepstrum,
                               cepstrum_full, dct_matrix, delta, delta_delta,
                               feature_matrix, frame_signal, load_blocks,
                               mel_filterbank, mel_spectrogram, mfcc,
                               power_spectrum, power_spectrum_full, save_blocks,
                               split_blocks, write_blocks_csv)

from oracles import naive_dct2_ortho, naive_dft


def clip_of_length(n, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return AudioClip(scale * rng.uniform(-1, 1, n), 16000, f"clip{seed}")


def clip_with_frames(t, seed=0):
    return clip_of_length(FRAME_LENGTH + (t - 1) * HOP_LENGTH, seed=seed)


class TestFraming:
    def test_one_second_gives_30_frames(self):
        assert frame_signal(clip_of_length(16000)).n_frames == 30

    def test_single_frame_boundary(self):
        assert frame_signal(clip_of_length(1024)).n_frames == 1

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            frame_signal(clip_of_length(1023))

    def test_wrong_rate_rejected(self):
        clip = AudioClip(np.zeros(48000), 48000, "x")
        with pytest.raises(UnsupportedError):
            frame_signal(clip)

    def test_constant_signal_yields_window(self):
        clip = AudioClip(np.ones(FRAME_LENGTH), 16000, "c")
        frames = frame_signal(clip).frames
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(1024) / 1023)
        assert np.allclose(frames[0], window, atol=1e-12)

    def test_frame_count_formula(self):
        for t in (1, 2, 5, 21):
            clip = clip_with_frames(t)
            assert frame_signal(clip).n_frames == t

    # one frame, one sample past it, an exact hop multiple, a 3.6 s clip
    @pytest.mark.parametrize("n", [1024, 1025, 16 * HOP_LENGTH, 57600])
    def test_strided_frames_match_the_index_gather_byte_for_byte(self, n):
        clip = clip_of_length(n, seed=n)
        n_frames = (n - FRAME_LENGTH) // HOP_LENGTH + 1
        idx = np.arange(FRAME_LENGTH)[None, :] + HOP_LENGTH * np.arange(n_frames)[:, None]
        expected = clip.samples[idx] * features._WINDOW
        frames = frame_signal(clip).frames
        assert frames.shape == expected.shape and frames.flags.c_contiguous
        assert frames.tobytes() == expected.tobytes()


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.array_equal(power_spectrum(np.zeros(1024)), np.zeros(512))

    def test_nonnegative_and_512_dims(self):
        frame = np.random.default_rng(1).standard_normal(1024)
        ps = power_spectrum(frame)
        assert ps.shape == (512,)
        assert np.all(ps >= 0)

    def test_matches_naive_dft_zero_padded(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            short = rng.standard_normal(64)
            padded = np.zeros(1024)
            padded[:64] = short
            oracle = np.abs(naive_dft(padded)) ** 2
            fast = power_spectrum_full(short)
            err = np.max(np.abs(fast - oracle[:513])) / np.max(oracle)
            assert err <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            frame = rng.standard_normal(1024)
            full = power_spectrum_full(frame)
            # symmetric halves: bins 1..511 appear twice in the 1024-bin sum
            total = full[0] + full[512] + 2 * full[1:512].sum()
            expected = 1024 * np.sum(frame * frame)
            assert abs(total - expected) / expected <= 1e-6

    def test_non_finite_rejected(self):
        frame = np.zeros(1024)
        frame[3] = np.nan
        with pytest.raises(NumericError):
            power_spectrum(frame)


class TestCepstrum:
    def test_flat_log_spectrum(self):
        c = 2.0
        power = np.full(513, np.exp(c))
        ceps = cepstrum(power)
        assert abs(ceps[0] - c) < 1e-12
        assert np.max(np.abs(ceps[1:])) < 1e-12

    def test_round_trip_recovers_log_spectrum(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            frame = rng.standard_normal(1024)
            power = power_spectrum_full(frame)
            full = cepstrum_full(power)
            recovered = np.fft.rfft(full).real
            target = np.log(np.maximum(power, LOG_FLOOR))
            assert np.max(np.abs(recovered - target)) <= 1e-8

    def test_zero_frame_floors(self):
        ceps = cepstrum(np.zeros(513))
        assert abs(ceps[0] - np.log(LOG_FLOOR)) < 1e-12
        assert np.max(np.abs(ceps[1:])) < 1e-12

    def test_512_values(self):
        assert cepstrum(np.ones(513)).shape == (512,)

    def test_cepstrogram_keeps_only_its_512_quefrencies(self):
        # fold data holds every train cepstrogram at once
        matrix = feature_matrix(clip_with_frames(25), FeatureKind.CEPSTROGRAM)
        owner = matrix if matrix.base is None else matrix.base
        assert owner.nbytes == matrix.nbytes == 512 * 25 * 8


class TestMel:
    def test_zero_spectrum_floors(self):
        out = mel_spectrogram(np.zeros(512))
        assert np.allclose(out, np.log(LOG_FLOOR))

    def test_filterbank_covers_band(self):
        fb = mel_filterbank(30)
        assert fb.shape == (30, 512)
        # interior bins (columns 0..510 map to transform bins 1..511)
        coverage = fb.sum(axis=0)
        assert np.all(coverage[:511] > 0)

    def test_tone_hits_nearest_filter(self):
        # energy at exactly 1 kHz = transform bin 64
        power = np.zeros(512)
        power[63] = 1.0  # column 63 is bin 64
        out = mel_spectrogram(power)
        # oracle: mel-spaced centers between 0 and 8000 Hz
        mel = lambda f: 2595 * np.log10(1 + f / 700)
        inv = lambda m: 700 * (10 ** (m / 2595) - 1)
        points = np.linspace(mel(0), mel(8000), 32)
        centers = inv(points[1:-1])
        assert int(np.argmax(out)) == int(np.argmin(np.abs(centers - 1000.0)))

    def test_30_dims(self):
        assert mel_spectrogram(np.ones(512)).shape == (30,)


class TestMfcc:
    def test_dct_orthonormal(self):
        g = dct_matrix(40)
        assert np.max(np.abs(g @ g.T - np.eye(40))) < 1e-12

    def test_dct_of_constant(self):
        c = 1.7
        out = dct_matrix(40) @ np.full(40, c)
        assert abs(out[0] - c * np.sqrt(40)) < 1e-12
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_dct_matches_naive(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(40)
            fast = dct_matrix(40) @ x
            assert np.max(np.abs(fast - naive_dct2_ortho(x))) <= 1e-10

    def test_mfcc_pipeline_matches_oracle(self):
        rng = np.random.default_rng(3)
        power = rng.uniform(0, 5, 512)
        log_mel = np.log(np.maximum(power @ mel_filterbank(40).T, LOG_FLOOR))
        oracle = naive_dct2_ortho(log_mel)[:30]
        assert np.max(np.abs(mfcc(power) - oracle)) <= 1e-10

    def test_30_dims(self):
        assert mfcc(np.ones(512)).shape == (30,)


class TestDeltas:
    def test_constant_sequence_zero(self):
        seq = np.ones((9, 30)) * 3.3
        assert np.max(np.abs(delta_delta(seq))) < 1e-12

    def test_linear_ramp_zero_interior(self):
        t = np.arange(12, dtype=float)
        seq = np.stack([t, 2 * t - 5], axis=1)
        dd = delta_delta(seq)
        assert np.max(np.abs(dd[4:-4])) < 1e-12

    def test_matches_direct_double_application(self):
        rng = np.random.default_rng(4)
        seq = rng.standard_normal((7, 30))

        def one_delta(s):
            out = np.zeros_like(s)
            t_max = s.shape[0] - 1
            for t in range(s.shape[0]):
                acc = np.zeros(s.shape[1])
                for n in (1, 2):
                    right = s[min(t + n, t_max)]
                    left = s[max(t - n, 0)]
                    acc += n * (right - left)
                out[t] = acc / 10.0
            return out

        oracle = one_delta(one_delta(seq))
        assert np.max(np.abs(delta_delta(seq) - oracle)) < 1e-12

    def test_one_dimensional_input_is_one_coefficient(self):
        for length in (1, 2, 7):
            x = np.random.default_rng(length).standard_normal(length)
            assert np.array_equal(delta(x), delta(x[:, None])[:, 0])
        assert np.allclose(delta([1, 2, 3]), [0.5, 0.6, 0.5], atol=1e-15)


class TestBlocks:
    def test_30_frames_one_block(self):
        blocks = assemble_blocks(clip_with_frames(30), FeatureKind.MEL_SPECTROGRAM)
        assert len(blocks) == 1

    def test_40_frames_two_spectrogram_blocks(self):
        clip = clip_with_frames(40)
        blocks = assemble_blocks(clip, FeatureKind.SPECTROGRAM)
        assert blocks.shape == (2, 512, 20)
        assert blocks.flags.c_contiguous
        matrix = feature_matrix(clip, FeatureKind.SPECTROGRAM)
        for i in range(2):  # block i holds frames 20*i .. 20*i + 19 in order
            assert np.array_equal(blocks[i], matrix[:, 20 * i : 20 * (i + 1)])

    @pytest.mark.parametrize("kind", [FeatureKind.SPECTROGRAM, FeatureKind.MEL_SPECTROGRAM],
                             ids=lambda k: k.value)
    def test_silence_reads_the_log_floor(self, kind):
        silence = AudioClip(np.zeros(FRAME_LENGTH + 2 * HOP_LENGTH), 16000, "silence")
        matrix = feature_matrix(silence, kind)
        assert matrix.shape == (kind.dim, 3)
        assert np.all(matrix == np.log(LOG_FLOOR))

    def test_19_frames_rejected(self):
        with pytest.raises(DegenerateInputError):
            assemble_blocks(clip_with_frames(19), FeatureKind.TMFCC)

    def test_block_count_is_floor(self):
        for t in (20, 25, 39, 41, 60):
            blocks = assemble_blocks(clip_with_frames(t), FeatureKind.TMFCC)
            assert len(blocks) == t // BLOCK_FRAMES

    def test_kind_dims(self):
        clip = clip_with_frames(20)
        for kind in FeatureKind:
            blocks = assemble_blocks(clip, kind)
            assert blocks.shape == (1, kind.dim, 20)
            assert np.all(np.isfinite(blocks))

    def test_zscore_applied(self):
        clip = clip_with_frames(40)
        matrix = feature_matrix(clip, FeatureKind.MEL_SPECTROGRAM)
        stats = FeatureStats.fit([matrix])
        blocks = split_blocks(matrix, FeatureKind.MEL_SPECTROGRAM, stats=stats)
        pooled = np.concatenate(list(blocks), axis=1)
        assert np.max(np.abs(pooled.mean(axis=1))) < 1e-9
        assert np.max(np.abs(pooled.std(axis=1) - 1.0)) < 1e-9

    def test_matrix_of_another_kind_rejected(self):
        matrix = feature_matrix(clip_with_frames(20), FeatureKind.MEL_SPECTROGRAM)
        with pytest.raises(ShapeError):
            split_blocks(matrix, FeatureKind.SPECTROGRAM)

    def test_stats_of_another_kind_rejected(self):
        clip = clip_with_frames(20)
        stats = FeatureStats.fit([feature_matrix(clip, FeatureKind.SPECTROGRAM)])
        with pytest.raises(ShapeError):
            assemble_blocks(clip, FeatureKind.TMFCC, stats=stats)


class TestGainInvariance:
    def test_log_features_shift_and_dc_only(self):
        # compare a clip against itself attenuated by alpha, keeping both
        # inside [-1, 1]
        clip = clip_with_frames(20, seed=8)
        alpha = 3.7
        base = AudioClip(clip.samples / alpha, 16000, "soft")
        loud = AudioClip(clip.samples.copy(), 16000, "orig")
        shift = 2 * np.log(alpha)

        spec_a = feature_matrix(base, FeatureKind.SPECTROGRAM)
        spec_b = feature_matrix(loud, FeatureKind.SPECTROGRAM)
        assert np.max(np.abs((spec_b - spec_a) - shift)) < 1e-9

        mel_a = feature_matrix(base, FeatureKind.MEL_SPECTROGRAM)
        mel_b = feature_matrix(loud, FeatureKind.MEL_SPECTROGRAM)
        assert np.max(np.abs((mel_b - mel_a) - shift)) < 1e-9

        for kind in (FeatureKind.TMFCC, FeatureKind.CEPSTROGRAM):
            a = feature_matrix(base, kind)
            b = feature_matrix(loud, kind)
            assert np.max(np.abs(b[1:] - a[1:])) < 1e-9   # coefficients 1+
            assert np.max(np.abs(b[0] - a[0])) > 1e-3     # DC absorbs the gain


class TestContainer:
    def test_round_trip(self, tmp_path):
        blocks = assemble_blocks(clip_with_frames(40), FeatureKind.MEL_SPECTROGRAM)
        path = tmp_path / "blocks.fbk"
        save_blocks(blocks, FeatureKind.MEL_SPECTROGRAM, path)
        kind, back = load_blocks(path)
        assert kind is FeatureKind.MEL_SPECTROGRAM
        assert back.shape == (2, 30, 20)
        assert np.array_equal(back, blocks.astype(np.float32))  # float32 payload

    def test_layout_is_header_then_float32_payload(self, tmp_path):
        blocks = assemble_blocks(clip_with_frames(45), FeatureKind.TMFCC)
        path = tmp_path / "blocks.fbk"
        save_blocks(blocks, FeatureKind.TMFCC, path)
        expected = (struct.pack("<4sHBIII", b"SKFB", 1, 4, 30, 20, 2)
                    + blocks.astype("<f4").tobytes())
        assert path.read_bytes() == expected

    def test_blocks_of_another_kind_rejected(self, tmp_path):
        blocks = assemble_blocks(clip_with_frames(20), FeatureKind.TMFCC)
        with pytest.raises(ShapeError):
            save_blocks(blocks, FeatureKind.SPECTROGRAM, tmp_path / "blocks.fbk")

    def test_truncated_rejected(self, tmp_path):
        blocks = assemble_blocks(clip_with_frames(20), FeatureKind.TMFCC)
        path = tmp_path / "blocks.fbk"
        save_blocks(blocks, FeatureKind.TMFCC, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_blocks(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fbk"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_blocks(path)

    @pytest.mark.parametrize("dim, frames", [(30, 7), (30, 20), (512, 7)])
    def test_header_that_does_not_fit_its_kind_rejected(self, tmp_path, dim, frames):
        # a well-sized payload whose header disagrees with the spectrogram's 512 x 20
        path = tmp_path / "blocks.fbk"
        path.write_bytes(struct.pack("<4sHBIII", b"SKFB", 1, 1, dim, frames, 2)
                         + np.zeros(2 * dim * frames, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="spectrogram"):
            load_blocks(path)

    def test_header_with_no_blocks_rejected(self, tmp_path):
        # save_blocks never writes a count of 0, so no such container reads back
        path = tmp_path / "blocks.fbk"
        path.write_bytes(struct.pack("<4sHBIII", b"SKFB", 1, 1, 512, 20, 0))
        with pytest.raises(FormatError, match="no blocks"):
            load_blocks(path)

    def test_csv_dump(self, tmp_path):
        blocks = assemble_blocks(clip_with_frames(20), FeatureKind.TMFCC)
        path = tmp_path / "blocks.csv"
        write_blocks_csv(blocks, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["block", "dim"]
        assert len(rows) == 1 + 30  # header + one block x 30 dims
        assert len(rows[1]) == 2 + 20

    def test_csv_rows_hold_block_index_dim_and_values(self, tmp_path):
        blocks = assemble_blocks(clip_with_frames(40), FeatureKind.TMFCC)
        path = tmp_path / "blocks.csv"
        write_blocks_csv(blocks, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], r[1]) for r in rows] == [(str(b), str(d)) for b in range(2)
                                                for d in range(30)]
        values = np.array([[float(v) for v in r[2:]] for r in rows]).reshape(2, 30, 20)
        assert np.array_equal(values, blocks)


def test_stats_scale_a_small_spread_to_unit_spread():
    # a spread of 1e-5 is far above the std floor, so it is scaled, not floored
    rng = np.random.default_rng(7)
    matrix = np.vstack([rng.standard_normal(60), 3.0 + 1e-5 * rng.standard_normal(60)])
    stats = FeatureStats.fit([matrix[:, :25], matrix[:, 25:]])
    assert np.max(np.abs(stats.apply(matrix).std(axis=1) - 1.0)) < 1e-9


def test_stats_round_trip(tmp_path):
    matrix = feature_matrix(clip_with_frames(25), FeatureKind.MEL_SPECTROGRAM)
    stats = FeatureStats.fit([matrix])
    path = tmp_path / "stats.json"
    stats.save(path, FeatureKind.MEL_SPECTROGRAM)
    back = FeatureStats.load(path, FeatureKind.MEL_SPECTROGRAM)
    assert np.allclose(stats.mean, back.mean)
    assert np.allclose(stats.std, back.std)

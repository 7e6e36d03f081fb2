"""audio_io: WAV round trips, resampling, normalization, noise mixing."""

import struct
import warnings
import wave

import numpy as np
import pytest

from shoutkit import audio_io
from shoutkit.audio_io import (CLEAN, SWEEP_SNRS_DB, AudioClip, NoiseSpec,
                               load_wav, mix_noise_at_snr, peak_normalize,
                               pink_noise, resample_to_16k, rms, write_wav)
from shoutkit.errors import DegenerateInputError, FormatError, NumericError, UnsupportedError

from oracles import naive_dft


def write_raw_wav(path, ints, rate=16000, sampwidth=2, channels=1):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        if sampwidth == 2:
            wf.writeframes(np.asarray(ints, dtype="<i2").tobytes())
        else:
            wf.writeframes(bytes((v + 128) % 256 for v in ints))


class TestLoadWav:
    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        write_raw_wav(path, [0, 16384, -32768])
        clip = load_wav(path)
        assert clip.samples.tolist() == [0.0, 0.5, -1.0]

    def test_sample_rate_from_header(self, tmp_path):
        path = tmp_path / "b.wav"
        write_raw_wav(path, [0, 1, 2], rate=48000)
        assert load_wav(path).sample_rate == 48000

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "c.wav"
        write_raw_wav(path, [0, 1], sampwidth=1)
        with pytest.raises(UnsupportedError):
            load_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "d.wav"
        write_raw_wav(path, [0, 1, 2, 3], channels=2)
        with pytest.raises(UnsupportedError):
            load_wav(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(b"RIFFgarbage-not-a-wave-file" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_wav(path)

    # a payload cut to 60 bytes, to the bare 44-byte header, or one byte short
    @pytest.mark.parametrize("keep", [60, 44, -1], ids=["cut-to-60", "header-only", "odd-byte"])
    def test_payload_shorter_than_the_header_says_rejected(self, tmp_path, keep):
        path = tmp_path / "t.wav"
        write_raw_wav(path, list(range(1000)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match="truncated WAV file .*header says 1000 frames"):
            load_wav(path)

    def test_round_trip_exact_at_int16(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500).astype(np.int16)
        clip = AudioClip(ints / 32768.0, 16000, "x")
        path = tmp_path / "rt.wav"
        write_wav(clip, path)
        back = load_wav(path)
        assert np.array_equal(back.samples, clip.samples)
        assert back.sample_rate == 16000


class TestResample:
    def test_three_to_one_length(self):
        clip = AudioClip(np.zeros(48000) + 0.1, 48000, "s")
        out = resample_to_16k(clip)
        assert out.sample_rate == 16000
        assert abs(out.samples.size - 16000) <= 1

    def test_tone_survives(self):
        t = np.arange(48000) / 48000.0
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t), 48000, "tone")
        out = resample_to_16k(clip)
        n = 4096
        segment = out.samples[4000 : 4000 + n] * np.hanning(n)
        spectrum = naive_dft(segment)
        peak_bin = int(np.argmax(np.abs(spectrum[: n // 2])))
        peak_hz = peak_bin * 16000 / n
        assert abs(peak_hz - 1000.0) <= 16000 / n  # within one bin

    def test_16k_passthrough(self):
        clip = AudioClip(np.linspace(-0.5, 0.5, 100), 16000, "p")
        out = resample_to_16k(clip)
        assert out is clip

    def test_other_rates_rejected(self):
        clip = AudioClip(np.zeros(10) + 0.1, 44100, "r")
        with pytest.raises(UnsupportedError):
            resample_to_16k(clip)

    def test_resample_idempotent_at_16k(self):
        clip = AudioClip(np.sin(np.linspace(0, 20, 5000)) * 0.4, 16000, "i")
        once = resample_to_16k(clip)
        twice = resample_to_16k(once)
        assert np.array_equal(once.samples, twice.samples)


class TestPeakNormalize:
    def test_corpus_gain_case(self):
        # peak 15000/32768 pushed to the 30000/32768 corpus convention: gain 2
        samples = np.array([15000 / 32768.0, -7000 / 32768.0, 0.25])
        clip = AudioClip(samples, 16000, "g")
        out = peak_normalize(clip)
        assert np.allclose(out.samples, samples * 2.0, rtol=0, atol=1e-15)

    def test_already_at_target_unchanged(self):
        samples = np.array([30000 / 32768.0, -0.45])
        out = peak_normalize(AudioClip(samples, 16000, "t"))
        assert np.allclose(out.samples, samples, rtol=0, atol=1e-12)

    def test_silent_clip_rejected(self):
        with pytest.raises(DegenerateInputError):
            peak_normalize(AudioClip(np.zeros(100), 16000, "z"))

    def test_target_reached_and_idempotent(self):
        rng = np.random.default_rng(3)
        clip = AudioClip(rng.uniform(-0.2, 0.2, 1000), 16000, "n")
        once = peak_normalize(clip)
        assert abs(np.max(np.abs(once.samples)) - 30000 / 32768.0) < 1e-9
        twice = peak_normalize(once)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-12


class TestMixNoise:
    def make_pair(self, seed=0, n=4000):
        rng = np.random.default_rng(seed)
        speech = AudioClip(0.02 * rng.standard_normal(n), 16000, "s")
        noise = AudioClip(0.05 * rng.standard_normal(n), 16000, "n")
        return speech, noise

    def test_equal_power_zero_db_gain(self):
        # same array as speech and noise: rms ratio 1, so g = 1 exactly
        samples = 0.1 * np.sin(np.linspace(0, 30, 2000))
        speech = AudioClip(samples, 16000, "s")
        noise = AudioClip(samples.copy(), 16000, "n")
        mixed = mix_noise_at_snr(speech, NoiseSpec(snr_db=0.0, noise=noise, seed=1))
        assert np.allclose(mixed.samples, 2.0 * samples, atol=1e-12)

    def test_twenty_db_gain_is_tenth(self):
        samples = 0.05 * np.sin(np.linspace(0, 30, 2000))
        speech = AudioClip(samples, 16000, "s")
        noise = AudioClip(samples.copy(), 16000, "n")
        mixed = mix_noise_at_snr(speech, NoiseSpec(snr_db=20.0, noise=noise, seed=1))
        assert np.allclose(mixed.samples, 1.1 * samples, atol=1e-12)

    def test_clean_is_bitwise_identical(self):
        speech, noise = self.make_pair()
        mixed = mix_noise_at_snr(speech, NoiseSpec(snr_db=CLEAN, noise=noise, seed=3))
        assert mixed is speech

    def test_achieved_snr_sweep(self):
        # noise equal in length to speech, so the mixed residual recovers the
        # scaled noise segment exactly
        for seed in range(5):
            speech, noise = self.make_pair(seed=seed)
            for snr in SWEEP_SNRS_DB:
                if snr == CLEAN:
                    continue
                mixed = mix_noise_at_snr(speech, NoiseSpec(snr_db=snr, noise=noise, seed=7))
                residual = mixed.samples - speech.samples
                achieved = 20 * np.log10(rms(speech.samples) / rms(residual))
                assert abs(achieved - snr) <= 0.01

    def test_zero_rms_noise_rejected(self):
        speech, _ = self.make_pair()
        silent = AudioClip(np.zeros(4000), 16000, "z")
        with pytest.raises(DegenerateInputError):
            mix_noise_at_snr(speech, NoiseSpec(snr_db=0.0, noise=silent, seed=0))

    def test_overflowing_gain_rejected(self):
        # 0.1-RMS speech over 1e-12-RMS noise at -6000 dB: the gain is
        # 1e11 * 1e300, above the float64 range
        rng = np.random.default_rng(5)
        speech = AudioClip(0.1 * rng.choice([-1.0, 1.0], 4000), 16000, "s")
        noise = AudioClip(1e-12 * rng.choice([-1.0, 1.0], 4000), 16000, "n")
        assert rms(speech.samples) == pytest.approx(0.1)
        assert rms(noise.samples) == pytest.approx(1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflows at -6000 dB"):
                mix_noise_at_snr(speech, NoiseSpec(snr_db=-6000.0, noise=noise, seed=0))
        # the same pair mixes at -300 dB
        mixed = mix_noise_at_snr(speech, NoiseSpec(snr_db=-300.0, noise=noise, seed=0))
        assert np.all(np.isfinite(mixed.samples))

    def test_rate_mismatch_rejected(self):
        speech, noise = self.make_pair()
        wrong = AudioClip(noise.samples, 48000, "w")
        with pytest.raises(UnsupportedError):
            mix_noise_at_snr(speech, NoiseSpec(snr_db=0.0, noise=wrong, seed=0))

    def test_short_noise_rejected(self):
        speech, noise = self.make_pair()
        short = AudioClip(noise.samples[:100], 16000, "short")
        with pytest.raises(DegenerateInputError):
            mix_noise_at_snr(speech, NoiseSpec(snr_db=0.0, noise=short, seed=0))

    def test_segment_choice_deterministic(self):
        speech, _ = self.make_pair()
        noise = pink_noise(20000, 16000, seed=4)
        a = mix_noise_at_snr(speech, NoiseSpec(snr_db=5.0, noise=noise, seed=42))
        b = mix_noise_at_snr(speech, NoiseSpec(snr_db=5.0, noise=noise, seed=42))
        assert np.array_equal(a.samples, b.samples)

    def test_loud_mixture_rescaled_same_snr(self):
        rng = np.random.default_rng(1)
        speech = AudioClip(0.5 * rng.standard_normal(4000).clip(-1.8, 1.8) / 1.8, 16000, "s")
        noise = AudioClip(0.5 * rng.standard_normal(4000).clip(-1.8, 1.8) / 1.8, 16000, "n")
        mixed = mix_noise_at_snr(speech, NoiseSpec(snr_db=-20.0, noise=noise, seed=2))
        assert np.max(np.abs(mixed.samples)) <= 1.0
        # common rescale keeps the speech/noise power ratio: rebuild the
        # unscaled mixture and compare shapes
        g = (rms(speech.samples) / rms(noise.samples)) * 10 ** (20.0 / 20.0)
        unscaled = speech.samples + g * noise.samples
        scale = np.max(np.abs(unscaled))
        assert np.allclose(mixed.samples, unscaled / scale, atol=1e-12)


class TestPinkNoise:
    def test_deterministic_and_bounded(self):
        a = pink_noise(8000, 16000, seed=9)
        b = pink_noise(8000, 16000, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert abs(np.max(np.abs(a.samples)) - 0.9) < 1e-12
        assert a.sample_rate == 16000

    def test_writes_valid_wav(self, tmp_path):
        clip = pink_noise(4000, 16000, seed=2)
        path = tmp_path / "pink.wav"
        write_wav(clip, path)
        back = load_wav(path)
        assert back.samples.size == 4000
        # 16-bit quantization error only
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768.0


def test_validate_rejects_out_of_range():
    clip = AudioClip(np.array([0.5, 1.5]), 16000, "bad")
    with pytest.raises(DegenerateInputError):
        clip.validate()

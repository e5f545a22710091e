import numpy as np
import pytest

from afpm import preprocessing
from afpm.data_model import TEMPLATE_RATE_HZ, DatasetWriter, load_manifest, load_trial
from afpm.errors import ConfigError, DataError
from afpm.preprocessing import (
    PreprocessConfig, bandpass, default_config, preprocess_dataset, resample,
    rescale,
)

from conftest import write_toy_dataset

RATE = 256.0


def tone(freq, rate=RATE, seconds=4.0, amp=1.0):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def fitted_amplitude(x, freq, rate):
    """Least-squares sinusoid amplitude at a known frequency."""
    t = np.arange(x.size) / rate
    basis = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(basis.T, x, rcond=None)
    return float(np.hypot(*coef))


def rows_of(data):
    return np.atleast_2d(np.asarray(data, dtype=np.float64))


MI_CFG = PreprocessConfig(band_lo_hz=4.0, band_hi_hz=30.0)


class TestBandpass:
    def test_passband_tone_amplitude_preserved(self):
        out = bandpass(rows_of(tone(10.0)), RATE, MI_CFG)
        trim = int(0.5 * RATE)
        interior = out[0, trim:-trim]
        amp = fitted_amplitude(interior, 10.0, RATE)
        assert abs(amp - 1.0) < 0.01

    def test_stopband_tone_suppressed(self):
        out = bandpass(rows_of(tone(50.0)), RATE, MI_CFG)
        trim = int(0.5 * RATE)
        residual = np.abs(out[0, trim:-trim]).max()
        assert residual < 0.05

    def test_zero_signal_stays_zero(self):
        out = bandpass(rows_of(np.zeros(512)), RATE, MI_CFG)
        assert np.allclose(out, 0.0)

    def test_linearity(self, rng):
        x = rng.standard_normal(512)
        y = rng.standard_normal(512)
        a, b = 1.7, -0.4
        lhs = bandpass(rows_of(a * x + b * y), RATE, MI_CFG)[0]
        rhs = a * bandpass(rows_of(x), RATE, MI_CFG)[0] \
            + b * bandpass(rows_of(y), RATE, MI_CFG)[0]
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() < 1e-9 * max(scale, 1.0)

    def test_zero_phase_no_lag(self):
        x = tone(12.0, seconds=4.0)
        out = bandpass(rows_of(x), RATE, MI_CFG)[0]
        trim = int(0.5 * RATE)
        corr = np.correlate(out[trim:-trim], x[trim:-trim], mode="full")
        lag = int(np.argmax(corr)) - (len(x) - 2 * trim - 1)
        assert lag == 0

    def test_nyquist_violation_rejected(self):
        with pytest.raises(DataError, match="Nyquist"):
            bandpass(rows_of(tone(10.0, rate=50.0)), 50.0, MI_CFG)

    def test_too_short_trial_rejected(self):
        with pytest.raises(DataError, match="too short"):
            bandpass(rows_of(np.zeros(10)), RATE, MI_CFG)


class TestResample:
    def test_downsample_tone_preserves_amplitude(self):
        x = tone(10.0, rate=512.0, seconds=4.0)
        out = resample(rows_of(x), 512.0, 256.0)
        assert out.shape[1] == x.size // 2
        interior = out[0, 128:-128]
        amp = fitted_amplitude(interior, 10.0, 256.0)
        assert abs(amp - 1.0) < 0.01

    def test_same_rate_is_identity(self, rng):
        x = rng.standard_normal(300)
        out = resample(rows_of(x), RATE, RATE)
        assert out.shape[1] == 300
        assert np.abs(out[0] - x).max() < 1e-6 * np.abs(x).max()

    def test_length_arithmetic(self):
        out = resample(rows_of(np.zeros(1024)), RATE, 128.0)
        assert out.shape == (1, 512)

    def test_duration_preserved_within_one_sample(self, rng):
        x = rng.standard_normal(777)
        out = resample(rows_of(x), RATE, 200.0)
        in_dur = 777 / RATE
        out_dur = out.shape[1] / 200.0
        assert abs(in_dur - out_dur) <= 1.0 / 200.0

    def test_bad_target_rate(self):
        with pytest.raises(DataError, match="positive"):
            resample(rows_of(np.zeros(64)), RATE, 0.0)


class TestRescale:
    def test_volts_to_tenth_millivolt(self):
        out = rescale(rows_of(np.array([50e-6])), 1e4)
        assert out[0, 0] == pytest.approx(0.5)

    def test_identity(self, rng):
        x = rng.standard_normal(16)
        out = rescale(rows_of(x), 1.0)
        assert np.array_equal(out[0], x)

    def test_millivolt_scale(self):
        out = rescale(rows_of(np.array([-0.02])), 10.0)
        assert out[0, 0] == pytest.approx(-0.2)

    def test_negative_scale_rejected(self):
        with pytest.raises(DataError):
            rescale(rows_of(np.zeros(4)), -1.0)


class TestPreprocessDataset:
    def test_mi_toy_set_resampled_and_filtered(self, tmp_path):
        data = [np.tile(tone(10.0, rate=512.0, seconds=2.0), (2, 1)) for _ in range(4)]
        write_toy_dataset(tmp_path / "raw", channels=("C3", "C4"), n_trials=4,
                          n_samples=1024, rate_hz=512.0, data=data)
        manifest = load_manifest(str(tmp_path / "raw"))
        out = preprocess_dataset(manifest, default_config("mi"), str(tmp_path / "out"))
        assert out.rate_hz == 256.0
        assert all(rec.n_samples == 512 for rec in out.trials)

    def test_erp_band_applied(self, tmp_path):
        cfg = default_config("erp")
        assert cfg.band_lo_hz == 1.0 and cfg.band_hi_hz == 30.0
        x = tone(0.3, seconds=2.0) + tone(10.0, seconds=2.0)
        write_toy_dataset(tmp_path / "raw", task="erp", channels=("CZ",),
                          n_trials=1, n_samples=512, data=[x[None, :]])
        manifest = load_manifest(str(tmp_path / "raw"))
        out = preprocess_dataset(manifest, cfg, str(tmp_path / "out"))
        trial = load_trial(out, 0)
        # 0.3 Hz component removed, 10 Hz survives
        amp_slow = fitted_amplitude(trial[0, 128:-128].astype(np.float64), 0.3, 256.0)
        amp_fast = fitted_amplitude(trial[0, 128:-128].astype(np.float64), 10.0, 256.0)
        assert amp_fast > 0.9
        assert amp_slow < 0.35

    @pytest.mark.parametrize("rate", [512.0, 250.0, 256.0])
    @pytest.mark.parametrize("budget", [3 * 96, None])
    def test_chunked_bytes_equal_per_trial_loop(self, tmp_path, monkeypatch, rng,
                                                rate, budget):
        # Two channel sets and two lengths, interleaved: runs of 1-4 equal
        # lengths, so chunks break on length and, at the small budget (three
        # 2-channel trials of 48 samples), on size too.
        sets = (("C3", "CZ"), ("FC1", "C1", "CP1"))
        lengths = (48, 48, 48, 48, 90, 48, 90, 90, 48, 48, 90, 48)
        writer = DatasetWriter(out_dir=str(tmp_path / "raw"), name="mixed",
                               task="mi", rate_hz=rate, class_names=("a", "b"),
                               unit_scale=1e3)
        for i, n in enumerate(lengths):
            chans = sets[(i // 2) % 2]
            writer.add_trial(1e-3 * rng.standard_normal((len(chans), n)), chans,
                             i % 2, f"toy:s{i % 3}")
        raw = writer.finish()
        if budget is not None:
            monkeypatch.setattr(preprocessing, "CHUNK_SAMPLES", budget)
        chunks = list(preprocessing._chunks(raw))
        assert max(len(c) for c in chunks) > 1
        assert all(len({raw.trials[i].n_samples for i in c}) == 1 for c in chunks)
        # 7 runs of equal length; the small budget splits some of them.
        assert len(chunks) > 7 if budget is not None else len(chunks) == 7

        out = preprocess_dataset(raw, MI_CFG, str(tmp_path / "out"))
        assert out.rate_hz == TEMPLATE_RATE_HZ and out.unit_scale == 1.0
        assert len(out.trials) == len(lengths)
        for i, (rec, got) in enumerate(zip(raw.trials, out.trials)):
            x = bandpass(load_trial(raw, i), rate, MI_CFG)
            x = resample(x, rate, TEMPLATE_RATE_HZ)
            x = rescale(x, raw.unit_scale)
            want = np.ascontiguousarray(x, dtype="<f4").tobytes()
            assert (tmp_path / "out" / got.path).read_bytes() == want, f"trial {i}"
            assert out.channels_of(got) == raw.channels_of(rec)
            assert (got.label, got.domain_id) == (rec.label, rec.domain_id)

    def test_short_trial_mid_dataset_rejected(self, tmp_path):
        data = [np.zeros((3, n)) for n in (64, 64, 10, 64)]
        writer = DatasetWriter(out_dir=str(tmp_path / "raw"), name="short", task="mi",
                               rate_hz=RATE, class_names=("a", "b"))
        for i, x in enumerate(data):
            writer.add_trial(x, ("C3", "CZ", "C4"), i % 2, "toy:s0")
        with pytest.raises(DataError, match="too short"):
            preprocess_dataset(writer.finish(), MI_CFG, str(tmp_path / "out"))

    def test_empty_dataset_ok(self, tmp_path):
        write_toy_dataset(tmp_path / "raw", n_trials=0)
        manifest = load_manifest(str(tmp_path / "raw"))
        out = preprocess_dataset(manifest, default_config("mi"), str(tmp_path / "out"))
        assert len(out.trials) == 0


def test_config_invariants():
    with pytest.raises(ConfigError):
        PreprocessConfig(band_lo_hz=30.0, band_hi_hz=4.0)
    with pytest.raises(ConfigError, match="Nyquist"):
        PreprocessConfig(band_lo_hz=4.0, band_hi_hz=TEMPLATE_RATE_HZ / 2)

"""Band-pass filtering, resampling to the template rate, and amplitude rescaling.

Stage order is fixed: bandpass -> resample -> rescale. Filtering is a
zero-phase 4th-order Butterworth band-pass (forward-backward, odd reflection
padding); resampling is polyphase with a Kaiser-windowed sinc low-pass.
All stages are pure functions of a [rows x T] matrix and its rate that act on
each row independently (``sosfiltfilt`` and ``resample_poly`` along axis 1, a
scalar multiply), so filtering the stacked rows of several trials of equal
length and rate gives, row for row, the same bytes as filtering each trial
alone. ``preprocess_dataset`` relies on that to filter a dataset in chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.signal import butter, firwin, resample_poly, sosfiltfilt

from .data_model import (
    TEMPLATE_RATE_HZ, DatasetManifest, DatasetWriter, load_trial, require_unaligned,
)
from .errors import ConfigError, DataError

FILTER_ORDER = 4
# Odd reflection padding for the forward-backward pass.
PAD_LEN = 3 * (FILTER_ORDER + 1)
KAISER_BETA = 8.6
TAPS_PER_PHASE = 64
# Sample budget (rows x T) of one chunk of trials filtered together. A chunk
# needs one filter design and one scipy call per stage instead of one per
# trial; the budget keeps its float64 working copies at a few MB, so peak
# memory stays near that of the per-trial loop whatever the dataset size.
CHUNK_SAMPLES = 1 << 18


@dataclass(frozen=True)
class PreprocessConfig:
    """Band edges in Hz; the band must stay below the template Nyquist."""

    band_lo_hz: float
    band_hi_hz: float

    def __post_init__(self):
        if not 0 < self.band_lo_hz < self.band_hi_hz:
            raise ConfigError("need 0 < band_lo_hz < band_hi_hz")
        if self.band_hi_hz >= TEMPLATE_RATE_HZ / 2:
            raise ConfigError(
                f"band_hi_hz {self.band_hi_hz} must stay below the template Nyquist "
                f"{TEMPLATE_RATE_HZ / 2}"
            )


def default_config(task: str) -> PreprocessConfig:
    """4-30 Hz for MI, 1-30 Hz for ERP."""
    lo = 4.0 if task.lower() == "mi" else 1.0
    return PreprocessConfig(band_lo_hz=lo, band_hi_hz=30.0)


def bandpass(data: np.ndarray, rate_hz: float, cfg: PreprocessConfig) -> np.ndarray:
    """Zero-phase Butterworth band-pass of every row of ``data`` [rows x T]."""
    if rate_hz <= 2 * cfg.band_hi_hz:
        raise DataError(
            f"band edge {cfg.band_hi_hz} Hz violates Nyquist at rate {rate_hz} Hz"
        )
    if data.shape[1] <= PAD_LEN:
        raise DataError(
            f"trial too short for zero-phase filtering: {data.shape[1]} samples, "
            f"need more than {PAD_LEN}"
        )
    sos = butter(FILTER_ORDER, [cfg.band_lo_hz, cfg.band_hi_hz],
                 btype="bandpass", fs=rate_hz, output="sos")
    return sosfiltfilt(sos, np.asarray(data, dtype=np.float64), axis=1,
                       padtype="odd", padlen=PAD_LEN)


def resample(data: np.ndarray, rate_hz: float, target_rate_hz: float) -> np.ndarray:
    """Polyphase band-limited resampling of every row from ``rate_hz`` to ``target_rate_hz``.

    Output length is round(T * target / rate). The anti-alias low-pass is a
    Kaiser-windowed sinc (beta 8.6, 64 taps per phase); the caller is
    responsible for the signal being band-limited below the target Nyquist.
    """
    if target_rate_hz <= 0:
        raise DataError("target_rate_hz must be positive")
    frac = (Fraction(target_rate_hz).limit_denominator(1 << 16)
            / Fraction(rate_hz).limit_denominator(1 << 16))
    up, down = frac.numerator, frac.denominator
    n_want = math.floor(data.shape[1] * frac + Fraction(1, 2))
    if n_want < 1:
        raise DataError("resampled trial would be empty")
    if up == down:
        return data
    max_rate = max(up, down)
    half_len = (TAPS_PER_PHASE // 2) * max_rate
    # Unit-gain prototype; resample_poly scales by the upsampling factor.
    h = firwin(2 * half_len + 1, 1.0 / max_rate, window=("kaiser", KAISER_BETA))
    out = resample_poly(np.asarray(data, dtype=np.float64), up, down, axis=1, window=h)
    return out[:, :n_want]


def rescale(data: np.ndarray, unit_scale: float) -> np.ndarray:
    """Multiply every sample by ``unit_scale`` (maps input units to 0.1 mV)."""
    if unit_scale <= 0:
        raise DataError("unit_scale must be positive")
    if unit_scale == 1.0:
        return data
    return data * unit_scale


def _chunks(manifest: DatasetManifest):
    """Runs of consecutive trial indices with one length and at most CHUNK_SAMPLES samples.

    A single trial larger than the budget forms a chunk of its own.
    """
    chunk: list[int] = []
    size = 0
    for i, rec in enumerate(manifest.trials):
        n = len(manifest.channels_of(rec)) * rec.n_samples
        if chunk and (rec.n_samples != manifest.trials[chunk[0]].n_samples
                      or size + n > CHUNK_SAMPLES):
            yield chunk
            chunk, size = [], 0
        chunk.append(i)
        size += n
    if chunk:
        yield chunk


def preprocess_dataset(manifest: DatasetManifest, cfg: PreprocessConfig,
                       out_dir: str) -> DatasetManifest:
    """Apply bandpass -> resample -> rescale to every trial; write a new dataset.

    Trials are resampled to ``TEMPLATE_RATE_HZ`` and multiplied by the
    manifest's ``unit_scale``. They go through the stages in chunks (see
    ``_chunks``): the rows of a chunk's trials are stacked into one matrix,
    filtered in one pass, and written back trial by trial in manifest order.
    The output manifest's unit_scale is 1.0: trials are in 0.1 mV units.
    An aligned dataset is refused before anything is written.
    """
    require_unaligned(manifest)
    writer = DatasetWriter(
        out_dir=out_dir, name=manifest.name, task=manifest.task,
        rate_hz=TEMPLATE_RATE_HZ, class_names=manifest.class_names,
    )
    for chunk in _chunks(manifest):
        x = np.concatenate([load_trial(manifest, i) for i in chunk], dtype=np.float64)
        x = bandpass(x, manifest.rate_hz, cfg)
        x = resample(x, manifest.rate_hz, TEMPLATE_RATE_HZ)
        x = rescale(x, manifest.unit_scale)
        row = 0
        for i in chunk:
            rec = manifest.trials[i]
            channels = manifest.channels_of(rec)
            writer.add_trial(x[row:row + len(channels)], channels, rec.label, rec.domain_id)
            row += len(channels)
    return writer.finish()

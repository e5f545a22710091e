"""Band-pass filtering, resampling to the template rate, and amplitude rescaling.

Stage order is fixed: bandpass -> resample -> rescale. Filtering is a
zero-phase 4th-order Butterworth band-pass (forward-backward, odd reflection
padding); resampling is polyphase with a Kaiser-windowed sinc low-pass.
All stages are pure functions of a [rows x T] matrix and its rate that act on
each row independently (``sosfiltfilt`` along axis 1, a fixed linear map of
each row, a scalar multiply), so filtering the stacked rows of several trials
of equal length and rate gives, row for row, the same bytes as filtering each
trial alone. ``preprocess_dataset`` relies on that to filter a dataset in
chunks.

``preprocess_dataset`` settles every per-dataset decision before its first
chunk: the band-pass design and, in one ``resample_plans`` call, the rate
ratio, one Kaiser filter, and one plan per trial length. A plan is the
identity (equal rates), M (the filter applied to the identity, so a chunk
takes one matrix product), or, for trials whose M or identity would pass
``OPERATOR_SAMPLES`` entries, ``resample_poly`` with the shared filter. Data
it would refuse mid-run is refused before anything is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
# needs one call per stage instead of one per trial; the budget keeps its
# float64 working copies at a few MB, so peak memory stays near that of the
# per-trial loop whatever the dataset size.
CHUNK_SAMPLES = 1 << 18
# Entries of the largest resampling operator (n_in x max(n_in, n_out)). It
# keeps M and the identity it is built from as small as one chunk, and keeps
# the dense product on the side of the crossover where it beats the
# polyphase filter.
OPERATOR_SAMPLES = 1 << 18
# Largest polyphase up or down factor. The filter has 64 taps per unit of the
# larger factor, so this caps it at 2^23 float64 taps (64 MiB).
MAX_FACTOR = 1 << 17


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


def _require_filterable(rate_hz: float, n_samples: float, cfg: PreprocessConfig) -> None:
    if rate_hz <= 2 * cfg.band_hi_hz:
        raise DataError(f"band edge {cfg.band_hi_hz} Hz violates Nyquist at rate {rate_hz} Hz")
    if n_samples <= PAD_LEN:
        raise DataError(f"trial too short for zero-phase filtering: {n_samples} samples, "
                        f"need more than {PAD_LEN}")


def _bandpass_sos(rate_hz: float, cfg: PreprocessConfig) -> np.ndarray:
    """Second-order sections of the Butterworth band-pass at ``rate_hz``."""
    return butter(FILTER_ORDER, [cfg.band_lo_hz, cfg.band_hi_hz],
                  btype="bandpass", fs=rate_hz, output="sos")


def bandpass(data: np.ndarray, rate_hz: float, cfg: PreprocessConfig, sos=None) -> np.ndarray:
    """Zero-phase Butterworth band-pass of every row of ``data`` [rows x T], by
    the sections ``sos`` (``_bandpass_sos(rate_hz, cfg)``, designed here if None)."""
    _require_filterable(rate_hz, data.shape[1], cfg)
    sos = _bandpass_sos(rate_hz, cfg) if sos is None else sos
    return sosfiltfilt(sos, np.asarray(data, dtype=np.float64), axis=1,
                       padtype="odd", padlen=PAD_LEN)


@dataclass(frozen=True)
class ResamplePlan:
    """``resample`` for one trial length: the identity at ``frac`` 1, else a
    product with ``operator`` [n_in x n_out] where one is built, else
    ``resample_poly`` by ``frac`` with the filter ``taps``."""

    n_out: int
    frac: Fraction
    taps: np.ndarray | None
    operator: np.ndarray | None = None


def resample_plans(rate_hz: float, lengths) -> dict[int, ResamplePlan]:
    """The plan from ``rate_hz`` to ``TEMPLATE_RATE_HZ`` for each trial length in ``lengths``.

    The ratio ``frac`` is the template rate over ``rate_hz``, each rate first
    rounded to a denominator of at most 2^16; its numerator and denominator
    are the polyphase up and down factors, and a factor above ``MAX_FACTOR``
    is refused before any filter is designed. All plans share one unit-gain
    Kaiser-windowed sinc (beta 8.6, 64 taps per phase), none at ratio 1. A
    plan resamples n_in to round(n_in * frac) samples. Where M and the
    identity hold at most ``OPERATOR_SAMPLES`` entries, M is the direct call
    applied to the identity, C-contiguous, so its product equals that call up
    to float64 rounding.
    """
    frac = (Fraction(TEMPLATE_RATE_HZ).limit_denominator(1 << 16)
            / Fraction(rate_hz).limit_denominator(1 << 16))
    max_rate = max(frac.numerator, frac.denominator)
    if max_rate > MAX_FACTOR:
        raise DataError(
            f"resampling {rate_hz} Hz to {TEMPLATE_RATE_HZ} Hz needs the ratio "
            f"{frac.numerator}/{frac.denominator}; a factor above {MAX_FACTOR} "
            "would need an anti-alias filter over 64 MiB"
        )
    taps = None
    if frac != 1:
        half_len = (TAPS_PER_PHASE // 2) * max_rate
        taps = firwin(2 * half_len + 1, 1.0 / max_rate, window=("kaiser", KAISER_BETA))
    plans = {}
    for n_in in lengths:
        n_out = math.floor(n_in * frac + Fraction(1, 2))
        if n_out < 1:
            raise DataError("resampled trial would be empty")
        plan = ResamplePlan(n_out, frac, taps)
        if frac != 1 and n_in * max(n_in, n_out) <= OPERATOR_SAMPLES:
            plan = replace(plan, operator=np.ascontiguousarray(resample(np.eye(n_in), plan)))
        plans[n_in] = plan
    return plans


def resample(data: np.ndarray, plan: ResamplePlan) -> np.ndarray:
    """Resample every row of ``data`` by ``plan``, the ``resample_plans`` entry for its T.

    The caller is responsible for the signal being band-limited below the
    target Nyquist.
    """
    if plan.frac == 1:
        return data
    if plan.operator is not None:
        return np.asarray(data, dtype=np.float64) @ plan.operator
    return resample_poly(np.asarray(data, dtype=np.float64), plan.frac.numerator,
                         plan.frac.denominator, axis=1, window=plan.taps)[:, :plan.n_out]


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
    One band-pass design and one ``resample_plans`` call precede the first chunk. An
    aligned dataset, a rate or trial the band-pass refuses, or a factor above
    ``MAX_FACTOR`` is refused, in that order, before ``out_dir`` is touched.
    """
    require_unaligned(manifest)
    lengths = {rec.n_samples for rec in manifest.trials}
    try:
        # An empty dataset is checked for its rate alone.
        _require_filterable(manifest.rate_hz, min(lengths, default=math.inf), cfg)
        plans = resample_plans(manifest.rate_hz, lengths)
    except DataError as e:
        raise DataError(f"dataset {manifest.name!r}: {e}") from None
    sos = _bandpass_sos(manifest.rate_hz, cfg)
    writer = DatasetWriter(
        out_dir=out_dir, name=manifest.name, task=manifest.task,
        rate_hz=TEMPLATE_RATE_HZ, class_names=manifest.class_names,
    )
    for chunk in _chunks(manifest):
        x = np.concatenate([load_trial(manifest, i) for i in chunk], dtype=np.float64)
        x = bandpass(x, manifest.rate_hz, cfg, sos)
        x = resample(x, plans[manifest.trials[chunk[0]].n_samples])
        x = rescale(x, manifest.unit_scale)
        row = 0
        for i in chunk:
            rec = manifest.trials[i]
            channels = manifest.channels_of(rec)
            writer.add_trial(x[row:row + len(channels)], channels, rec.label, rec.domain_id)
            row += len(channels)
    return writer.finish()

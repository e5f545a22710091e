"""Synthetic heterogeneous EEG generator for desk-scale pipeline verification.

MI-like datasets carry a lateralized 8-12 Hz rhythm whose amplitude is
attenuated contralaterally and enhanced ipsilaterally to the imagined hand;
ERP-like datasets add a dipolar deflection near 300 ms (centro-parietal
positive, frontal negative) on target trials only. Domains differ by channel
subset and order, per-channel gains, a shared device-like amplitude factor,
and a small random orthogonal mixing - the covariance shifts Euclidean
alignment removes. Distractor channels (outside the task montage) carry
class-independent clutter only - loud occipital-style alpha and blink-like
deflections whose per-channel levels are redrawn per domain - so channel
selection has measurable value in ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .data_model import (
    DatasetManifest, DatasetWriter, MI_TEMPLATE_CHANNELS, canonical_channels,
    task_template,
)
from .errors import ConfigError

MI_CLASS_NAMES = ("left_hand", "right_hand")
ERP_CLASS_NAMES = ("nontarget", "target")

# Spatial profile of the P300-like deflection: centro-parietal positivity
# with a fronto-central negative counterpart (dipolar topography), so the
# class signal is tied to electrode identity, not to raw deflection energy.
ERP_BUMP_WEIGHTS = {
    "CPZ": 1.0, "PZ": 1.0, "CZ": 0.8, "P3": 0.7, "P4": 0.7,
    "FP1": -0.7, "FP2": -0.7, "F3": -0.7, "FZ": -0.7, "F4": -0.7,
    "F5": -0.4, "F6": -0.4, "FCZ": -0.6,
}
# Positive-deflection sites (used by tests and documentation).
ERP_SIGNAL_CHANNELS = ("CZ", "CPZ", "PZ", "P3", "P4")

# Class-independent clutter on distractor channels: each domain draws a
# channel's alpha-like rhythm and blink-like deflection levels uniformly
# between 0 and twice these.
DISTRACTOR_ALPHA = 5.0
DISTRACTOR_BLINK = 4.0

# Ready-made heterogeneous subset catalogues. The four MI training subsets
# are pairwise disjoint within the 17-channel montage; most of each subset is
# distractor channels outside the task montage, so the no-selection union is
# several times wider than the template. Within-subset order is deliberately
# scrambled per domain so that positional (unmapped) batching carries no
# consistent channel semantics.
MI_TRAIN_SUBSETS = (
    ("FC3", "O1", "C4", "T7", "C3", "P7", "F3", "PO3", "FC4", "AF7", "P5", "FP1"),
    ("O2", "CP3", "T8", "C6", "P8", "CP4", "F4", "C5", "PO4", "AF8", "P6", "FP2"),
    ("C1", "F7", "AF3", "FC2", "FT7", "C2", "PZ", "FC1", "P1", "TP7", "OZ", "P3"),
    ("CZ", "F8", "CP1", "AF4", "FCZ", "FT8", "FZ", "CP2", "P2", "TP8", "P4", "PO7"),
)
MI_EVAL_SUBSETS = (
    ("CP4", "O1", "C3", "CPZ", "P8", "C4", "CP3", "AF3", "T7"),
    ("FC4", "C2", "F7", "CZ", "T8", "FC3", "C1", "FT7", "PO3"),
)
ERP_TRAIN_SUBSETS = (
    ("PZ", "F7", "P3", "F3", "FC3", "CZ", "FP1", "AF7", "CP3", "FC5",
     "P7", "O1", "TP7", "F5", "C1", "CP5", "F9", "P5"),
    ("P4", "FC4", "FZ", "CPZ", "C5", "F4", "AF3", "CP4", "P1", "T8",
     "PO4", "FC6", "F6", "O2", "F1", "AF8", "C2", "FT9"),
    ("CZ", "F8", "T7", "PO3", "CP2", "P8", "C6", "PO7", "C3", "TP8",
     "P6", "FP2", "CP6", "PZ", "P2", "TP9", "F10", "CP1"),
    ("OZ", "P4", "FT7", "PZ", "AF4", "FP2", "FT8", "F4", "FPZ", "CP3",
     "POZ", "FCZ", "P9", "P7", "P10", "FC1", "FC2", "TP10"),
)
# Eval subsets are weight-balanced: each one's bump weights sum to ~0, so a
# mapping-free "net deflection" shortcut carries no class information there.
ERP_EVAL_SUBSETS = (
    ("CPZ", "O2", "PZ", "F3", "CZ", "FC3", "F8", "TP8", "P7", "FZ", "PO3",
     "FP2", "F4"),
    ("P3", "FP1", "PZ", "T8", "P4", "C5", "AF4", "CP1", "O1", "C4", "PO7",
     "FZ", "F5", "F6"),
)


_CATALOGUES = {
    ("mi", "train"): MI_TRAIN_SUBSETS, ("mi", "eval"): MI_EVAL_SUBSETS,
    ("mi", "default"): MI_TRAIN_SUBSETS + MI_EVAL_SUBSETS,
    ("erp", "train"): ERP_TRAIN_SUBSETS, ("erp", "eval"): ERP_EVAL_SUBSETS,
    ("erp", "default"): ERP_TRAIN_SUBSETS + ERP_EVAL_SUBSETS,
}


def default_subsets(task: str, n_domains: int,
                    catalogue: str = "default") -> list[tuple[str, ...]]:
    """Channel subsets of ``n_domains`` domains, cycling through a catalogue.

    ``catalogue`` is "train", "eval" or "default" (the train subsets, then
    the eval ones).
    """
    subsets = _CATALOGUES[(task, catalogue)]
    return [subsets[i % len(subsets)] for i in range(n_domains)]


def hemisphere(channel: str) -> str:
    """10-20 convention: odd trailing index = left, even = right, Z = midline."""
    tail = channel.rstrip("0123456789")
    digits = channel[len(tail):]
    if not digits:
        return "mid"
    return "left" if int(digits) % 2 == 1 else "right"


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; one instance describes one multi-domain dataset."""

    task: str
    n_domains: int
    trials_per_domain: int
    channel_subsets: tuple[tuple[str, ...], ...] = ()
    rate_hz: float = 256.0
    trial_len_s: float | tuple[float, ...] | None = None   # None: 3 s MI, 1 s ERP
    snr_db: float = 6.0
    domain_gain: float = 0.3        # sigma of log-normal per-channel gains
    domain_scale: float = 0.8       # sigma of the shared per-domain amplitude factor
    domain_mixing: float = 0.15     # magnitude of the random orthogonal mixing
    class_ratio: float = 1.0 / 6.0  # ERP target fraction
    erd_attenuation: float = 0.5    # contralateral rhythm factor a < 1
    name: str = "synth"

    def __post_init__(self):
        if self.task not in ("mi", "erp"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.trial_len_s is None:
            object.__setattr__(self, "trial_len_s", 3.0 if self.task == "mi" else 1.0)
        if self.n_domains < 1 or self.trials_per_domain < 1:
            raise ConfigError("need at least one domain and one trial per domain")
        subsets = self.channel_subsets or tuple(default_subsets(self.task, self.n_domains))
        if len(subsets) != self.n_domains:
            raise ConfigError(
                f"{len(subsets)} channel subsets for {self.n_domains} domains"
            )
        subsets = tuple(canonical_channels(s) for s in subsets)
        target = set(task_template(self.task).target_channels)
        for i, s in enumerate(subsets):
            if not target.intersection(s):
                raise ConfigError(
                    f"domain {i} subset {list(s)} misses the task target set entirely"
                )
        object.__setattr__(self, "channel_subsets", subsets)
        if not 0 < self.rate_hz < math.inf:
            raise ConfigError(f"rate_hz must be finite and positive, got {self.rate_hz!r}")
        # A trial has round(len * rate) samples: at least one, and finitely many.
        if not all(0.5 < self.trial_len(d) * self.rate_hz < math.inf
                   for d in range(self.n_domains)):
            raise ConfigError(f"trial length {self.trial_len_s!r} s must be finite and "
                              f"give at least one sample at {self.rate_hz:g} Hz")
        if math.isnan(self.snr_db) or self.snr_db == math.inf:
            raise ConfigError(f"snr_db must be finite or -inf, got {self.snr_db!r}")
        if not 0 < self.class_ratio < 1:
            raise ConfigError("class_ratio must lie in (0, 1)")
        if not 0 < self.erd_attenuation < 1:
            raise ConfigError("erd_attenuation must lie in (0, 1)")
        for name in ("domain_gain", "domain_scale", "domain_mixing"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and non-negative")

    def trial_len(self, domain: int) -> float:
        if isinstance(self.trial_len_s, (tuple, list)):
            return float(self.trial_len_s[domain % len(self.trial_len_s)])
        return float(self.trial_len_s)


def pink_noise(rng: np.random.Generator, n_channels: int, n_samples: int,
               rate_hz: float) -> np.ndarray:
    """Spectrally shaped white noise with a 1/sqrt(f) amplitude profile, unit std."""
    white = rng.standard_normal((n_channels, n_samples))
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / rate_hz)
    shape = 1.0 / np.sqrt(np.maximum(freqs, 1.0))
    shape[0] = 0.0
    x = np.fft.irfft(spec * shape, n=n_samples, axis=1)
    std = x.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return x / std


# Per-domain shared amplitude offsets (in units of domain_scale): device-like
# unit differences are guaranteed to span a wide range rather than sampled.
_SCALE_OFFSETS = (-1.5, 0.5, -0.5, 1.5)


def _domain_transform(rng: np.random.Generator, domain: int, n_channels: int,
                      gain_sigma: float, scale_sigma: float,
                      mixing: float) -> np.ndarray:
    gains = np.exp(gain_sigma * rng.standard_normal(n_channels))
    offset = _SCALE_OFFSETS[domain % len(_SCALE_OFFSETS)]
    shared = float(np.exp(scale_sigma * (offset + 0.2 * rng.standard_normal())))
    if mixing > 0 and n_channels > 1:
        a = rng.standard_normal((n_channels, n_channels))
        skew = (a - a.T) / 2
        skew *= mixing / max(np.abs(skew).max(), 1e-12)
        q = expm(skew)
    else:
        q = np.eye(n_channels)
    return shared * gains[:, None] * q


def _mi_class_gain(channel: str, label: int, attenuation: float) -> float:
    hemi = hemisphere(channel)
    if hemi == "mid":
        return 1.0
    # label 0 = left hand: contralateral (right) rhythm attenuated,
    # ipsilateral (left) enhanced; label 1 mirrors.
    contralateral = "right" if label == 0 else "left"
    return attenuation if hemi == contralateral else 2.0 - attenuation


def _domain_labels(rng: np.random.Generator, n: int, task: str,
                   class_ratio: float) -> np.ndarray:
    if task == "mi":
        labels = np.zeros(n, dtype=np.int64)
        labels[n // 2:] = 1
    else:
        n_target = int(round(class_ratio * n))
        n_target = min(max(n_target, 1), n - 1)
        labels = np.zeros(n, dtype=np.int64)
        labels[:n_target] = 1
    return labels[rng.permutation(n)]


def _unit_rhythm(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """One 8-12 Hz amplitude-modulated oscillation, normalized to unit RMS."""
    f = rng.uniform(8.0, 12.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    f_env = rng.uniform(0.2, 0.8)
    phase_env = rng.uniform(0.0, 2.0 * math.pi)
    rhythm = np.sin(2 * math.pi * f * t + phase) \
        * (1.0 + 0.25 * np.sin(2 * math.pi * f_env * t + phase_env))
    return rhythm / max(float(np.sqrt(np.mean(rhythm ** 2))), 1e-12)


def _distractor_activity(rng: np.random.Generator, t: np.ndarray,
                         alpha_level: float, blink_level: float) -> np.ndarray:
    """Class-independent clutter: strong alpha plus an occasional blink-like
    deflection at a random latency."""
    out = rng.uniform(0.0, alpha_level) * _unit_rhythm(rng, t)
    # every draw below happens for both classes alike, so class information
    # cannot leak through the rng stream
    has_blink = rng.random() < 0.5
    amp = rng.uniform(0.5, 1.0) * blink_level
    latency = rng.uniform(0.1, max(float(t[-1]) - 0.1, 0.15))
    if has_blink and blink_level > 0:
        out += amp * np.exp(-0.5 * ((t - latency) / 0.06) ** 2)
    return out


def _distractor_profiles(rng: np.random.Generator, channels, montage) -> dict[str, tuple]:
    """Per-domain nuisance statistics for each distractor channel.

    The same electrode name carries different clutter in different recording
    setups (eye proximity, cap fit, protocol), so the per-channel alpha and
    blink levels are redrawn per domain.
    """
    profiles = {}
    for ch in channels:
        if ch not in montage:
            profiles[ch] = (DISTRACTOR_ALPHA * rng.uniform(0.0, 2.0),
                            DISTRACTOR_BLINK * rng.uniform(0.0, 2.0))
    return profiles


def _gen_mi_trial(rng: np.random.Generator, channels, label: int,
                  n_samples: int, rate_hz: float, amp: float,
                  attenuation: float, profiles: dict) -> np.ndarray:
    x = pink_noise(rng, len(channels), n_samples, rate_hz)
    t = np.arange(n_samples) / rate_hz
    montage = set(MI_TEMPLATE_CHANNELS)
    # Every rng draw below is label-independent, so class contrast comes only
    # from the hemisphere gains.
    for row, ch in enumerate(channels):
        if ch in montage:
            if amp == 0.0:
                continue
            x[row] += amp * _mi_class_gain(ch, label, attenuation) * _unit_rhythm(rng, t)
        else:
            alpha, blink = profiles[ch]
            x[row] += _distractor_activity(rng, t, alpha, blink)
    return x


def _gen_erp_trial(rng: np.random.Generator, channels, label: int,
                   n_samples: int, rate_hz: float, amp: float,
                   montage: frozenset, profiles: dict) -> np.ndarray:
    x = pink_noise(rng, len(channels), n_samples, rate_hz)
    t = np.arange(n_samples) / rate_hz
    # Class-independent draws first, so both classes consume one rng stream.
    latency = 0.3 + rng.normal(0.0, 0.01)
    scale = rng.uniform(0.8, 1.2)
    for row, ch in enumerate(channels):
        if ch not in montage:
            alpha, blink = profiles[ch]
            x[row] += _distractor_activity(rng, t, alpha, blink)
    if label == 1 and amp > 0.0:
        bump = np.exp(-0.5 * ((t - latency) / 0.04) ** 2)
        for row, ch in enumerate(channels):
            weight = ERP_BUMP_WEIGHTS.get(ch)
            if weight:
                x[row] += amp * scale * weight * bump
    return x


def generate_dataset(spec: SynthSpec, seed: int, out_dir: str) -> DatasetManifest:
    """Write a synthetic multi-domain dataset; bit-identical for equal (spec, seed)."""
    class_names = MI_CLASS_NAMES if spec.task == "mi" else ERP_CLASS_NAMES
    writer = DatasetWriter(out_dir=out_dir, name=spec.name, task=spec.task,
                           rate_hz=spec.rate_hz, class_names=class_names)
    amp = 10.0 ** (spec.snr_db / 20.0) if spec.snr_db != -math.inf else 0.0
    task_montage = frozenset(task_template(spec.task).target_channels)
    for d in range(spec.n_domains):
        channels = spec.channel_subsets[d]
        n_samples = int(round(spec.trial_len(d) * spec.rate_hz))
        domain_rng = np.random.default_rng([seed, d])
        transform = _domain_transform(domain_rng, d, len(channels), spec.domain_gain,
                                      spec.domain_scale, spec.domain_mixing)
        labels = _domain_labels(domain_rng, spec.trials_per_domain, spec.task,
                                spec.class_ratio)
        profiles = _distractor_profiles(domain_rng, channels, task_montage)
        domain_id = f"{spec.name}:s{d:02d}:0"
        for i in range(spec.trials_per_domain):
            trial_rng = np.random.default_rng([seed, d, i])
            if spec.task == "mi":
                x = _gen_mi_trial(trial_rng, channels, int(labels[i]), n_samples,
                                  spec.rate_hz, amp, spec.erd_attenuation, profiles)
            else:
                x = _gen_erp_trial(trial_rng, channels, int(labels[i]), n_samples,
                                   spec.rate_hz, amp, task_montage, profiles)
            writer.add_trial(transform @ x, channels, int(labels[i]), domain_id)
    return writer.finish()


"""Loading aligned datasets into model-ready arrays.

Template-mapped datasets stack directly. Unmapped (no-channel-mapping
ablation) datasets keep their own channel order and lengths; those are
zero-padded to the maximum channel count and trial length across the
collection, original row order preserved.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .data_model import DatasetManifest, load_trial
from .errors import DataError
from .model import ModelConfig


def require_task(manifests: list[DatasetManifest], task: str) -> None:
    """Reject a dataset laid out for another task than ``task``.

    An aligned dataset is laid out for the task of the template it was aligned
    to; any other dataset for the task of its manifest.
    """
    for m in manifests:
        found = m.alignment.get("task", m.task) if m.alignment else m.task
        if found != task:
            how = "aligned" if m.alignment else "recorded"
            raise DataError(
                f"dataset {m.name!r} is {how} for task {found!r}, not for task {task!r}"
            )


def stack_aligned(manifests: list[DatasetManifest]
                  ) -> tuple[np.ndarray, np.ndarray, list[str], dict]:
    """Stack aligned datasets into (x [N x M x T], labels, domain_ids, layout).

    All datasets must come out of the same alignment configuration; mapped and
    unmapped datasets cannot be mixed.
    """
    if not manifests:
        raise DataError("no datasets given")
    aligns = []
    for m in manifests:
        if not m.alignment:
            raise DataError(f"dataset {m.name!r} has no alignment metadata")
        aligns.append(m.alignment)
    mapped = {bool(a.get("mapped")) for a in aligns}
    if len(mapped) != 1:
        raise DataError("cannot mix mapped and unmapped datasets")
    mapped = mapped.pop()

    if mapped:
        layouts = {(tuple(a["template_channels"]), int(a["template_len"]))
                   for a in aligns}
        if len(layouts) != 1:
            raise DataError("datasets are aligned to different templates")
        channels, t_len = layouts.pop()
        n_rows = len(channels)
        layout = {"mapped": True, "template_channels": channels, "template_len": t_len}
    else:
        n_rows = max(len(m.channel_sets[rec.channel_set])
                     for m in manifests for rec in m.trials)
        t_len = max(rec.n_samples for m in manifests for rec in m.trials)
        layout = {"mapped": False, "template_channels": None, "template_len": t_len,
                  "max_channels": n_rows}

    xs, ys, domains = [], [], []
    for m in manifests:
        for i, rec in enumerate(m.trials):
            trial = load_trial(m, i)
            rows, n = trial.shape
            buf = np.zeros((n_rows, t_len), dtype=np.float32)
            if rows > n_rows or n > t_len:
                raise DataError(
                    f"trial {i} of {m.name!r} exceeds the stacked layout "
                    f"({rows}x{n} vs {n_rows}x{t_len})"
                )
            buf[:rows, :n] = trial
            xs.append(buf)
            ys.append(rec.label)
            domains.append(rec.domain_id)
    x = np.stack(xs) if xs else np.zeros((0, n_rows, t_len), dtype=np.float32)
    return x, np.asarray(ys, dtype=np.int64), domains, layout


def active_rms_scale(x: np.ndarray) -> float:
    """Reciprocal RMS of the nonzero (non-padding) samples of a trial stack."""
    active = x[x != 0]
    if active.size == 0:
        return 1.0
    rms = float(np.sqrt(np.mean(active.astype(np.float64) ** 2)))
    return 1.0 / rms if rms > 0 else 1.0


def stacked_model_config(cfg: RunConfig, x_train: np.ndarray, layout: dict,
                         per_channel: bool) -> ModelConfig:
    """Model configuration for training trials stacked by ``stack_aligned``.

    Mapped data keeps the template's channel names; unmapped rows are named
    ``ROW00``, ``ROW01``, ... The input scale is measured on ``x_train``.
    """
    if layout["mapped"]:
        channels = tuple(layout["template_channels"])
    else:
        channels = tuple(f"ROW{i:02d}" for i in range(x_train.shape[1]))
    return ModelConfig(
        task=cfg.task, template_channels=channels,
        template_len=int(layout["template_len"]), fpe=cfg.fpe,
        transformer=cfg.transformer, per_channel_patches=per_channel,
        input_scale=active_rms_scale(x_train),
    )

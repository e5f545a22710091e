"""Loading aligned datasets into model-ready arrays.

Datasets stack only when they name the same classes in the same order.
The task template an aligned dataset records (``template_channels`` and
``template_len``) sizes every model input. Mapped trials fill it as
alignment placed them. Unmapped (no-channel-mapping ablation) trials keep
their own rows, in their own order, in the first rows of the template and
their own length from its first sample; the rest is zero, as it is for
mapped padding.
"""

from __future__ import annotations

import numpy as np

from .data_model import DatasetManifest, load_trial, require_template_fit
from .errors import DataError
from .model import ModelConfig


def require_same_classes(expected: tuple[str, ...], found: tuple[str, ...],
                         what: str, against: str) -> None:
    """Reject class names ``found`` in ``what`` that differ from ``expected`` in ``against``."""
    if tuple(found) != tuple(expected):
        raise DataError(f"class mismatch: {against} names {list(expected)}, "
                        f"{what} names {list(found)}")


def input_channels(layout: dict) -> tuple[str, ...]:
    """Names of a model's input rows for a stacked layout.

    Mapped data keeps the template's channel names; unmapped rows are named
    ``ROW00``, ``ROW01``, ... one per template row.
    """
    channels = tuple(layout["template_channels"])
    if layout["mapped"]:
        return channels
    return tuple(f"ROW{i:02d}" for i in range(len(channels)))


def stack_aligned(manifests: list[DatasetManifest], task: str
                  ) -> tuple[np.ndarray, np.ndarray, list[str], dict]:
    """Stack aligned datasets into (x [N x M x T], labels, domain_ids, layout).

    Every dataset must fit the ``task`` template (``require_template_fit``),
    be aligned to one template with one mapping switch, and name the same
    classes; ``layout`` records that template, switch and class names.

    Each trial is read once, by one ``load_trial``, into one zero-initialized
    float32 stack: a trial that fills its row (every mapped trial does) is
    read straight into that row; a smaller unmapped one is read on its own
    and copied into the corner of its row.
    """
    if not manifests:
        raise DataError("no datasets given")
    require_template_fit(manifests, task)
    layouts = set()
    for m in manifests:
        a = m.alignment
        if not a:
            raise DataError(f"dataset {m.name!r} has no alignment metadata")
        layouts.add((tuple(a["template_channels"]), int(a["template_len"]),
                     bool(a["mapped"])))
    if len(layouts) != 1:
        if len({mapped for _, _, mapped in layouts}) != 1:
            raise DataError("cannot mix mapped and unmapped datasets")
        raise DataError("datasets are aligned to different templates")
    channels, t_len, mapped = layouts.pop()
    first = manifests[0]
    for m in manifests[1:]:
        require_same_classes(first.class_names, m.class_names,
                             f"dataset {m.name!r}", f"dataset {first.name!r}")
    n_trials = sum(len(m.trials) for m in manifests)
    if n_trials == 0:
        raise DataError("the aligned datasets hold no trials")

    x = np.zeros((n_trials, len(channels), t_len), dtype="<f4")
    ys, domains = [], []
    k = 0
    for m in manifests:
        for i, rec in enumerate(m.trials):
            if (len(m.channels_of(rec)), rec.n_samples) == x.shape[1:]:
                load_trial(m, i, out=x[k])
            else:
                trial = load_trial(m, i)
                rows, n = trial.shape
                if rows > len(channels) or n > t_len:
                    raise DataError(
                        f"trial {i} of {m.name!r} exceeds the template "
                        f"({rows}x{n} vs {len(channels)}x{t_len})"
                    )
                x[k, :rows, :n] = trial
            k += 1
            ys.append(rec.label)
            domains.append(rec.domain_id)
    layout = {"mapped": mapped, "template_channels": channels, "template_len": t_len,
              "class_names": first.class_names}
    return x, np.asarray(ys, dtype=np.int64), domains, layout


def active_rms_scale(x: np.ndarray) -> float:
    """Reciprocal RMS of the nonzero (non-padding) samples of a trial stack, filled
    trial by trial into one float64 vector in ``x[x != 0]`` order: no stack-sized mask."""
    a, i = np.empty(np.count_nonzero(x)), 0
    if a.size == 0:
        return 1.0
    for trial in x:
        active = trial[trial != 0]
        a[i:i + active.size] = active
        i += active.size
    rms = float(np.sqrt(np.mean(np.square(a, out=a))))
    return 1.0 / rms if rms > 0 else 1.0


def stacked_model_config(cfg, x_train: np.ndarray, layout: dict,
                         per_channel: bool) -> ModelConfig:
    """Model configuration for training trials stacked by ``stack_aligned``.

    ``cfg`` is the run's resolved ``config.RunConfig``. The input rows are
    named by ``input_channels``, the classes by the layout; the input scale
    is measured on ``x_train``.
    """
    return ModelConfig(
        task=cfg.task, template_channels=input_channels(layout),
        template_len=int(layout["template_len"]), fpe=cfg.fpe,
        transformer=cfg.transformer, class_names=tuple(layout["class_names"]),
        per_channel_patches=per_channel, input_scale=active_rms_scale(x_train),
    )

"""Spatial alignment: channel selection, per-domain Euclidean alignment, channel mapping.

Per domain (same subject/session/device), whitening by the inverse square
root of the domain-mean spatial covariance standardizes second-order
statistics so the mean aligned covariance is the identity. Selected channels
are then written into fixed rows of a zero-initialized float32 task template,
the payload as stored, giving every dataset a common input layout. The stage
hashes ``selected`` and ``output`` are SHA-256 over float32 bytes: the selected
rows as read, and the trial files as written.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

from .data_model import (
    DatasetManifest, DatasetWriter, TaskTemplateSpec, atomic_open, load_trial,
    require_template_fit, require_unaligned, task_template,
)
from .errors import DataError, NumericError

# Eigenvalue floor of the whitening, relative to the mean eigenvalue.
EPS_REL = 1e-10
SYMMETRY_TOL = 1e-8


def select_channels(channels: tuple[str, ...], spec: TaskTemplateSpec
                    ) -> list[tuple[int, int]]:
    """Rows of the task channels among ``channels``, paired with their template rows.

    Returns ``(row in channels, row in the template)`` pairs in template
    order; sorted, they follow the order of ``channels``. Raises when no
    channel belongs to the task target set.
    """
    present = {ch: i for i, ch in enumerate(channels)}
    pairs = [(present[ch], row) for row, ch in enumerate(spec.target_channels)
             if ch in present]
    if not pairs:
        raise DataError(
            f"no task-relevant channels: trial has {list(channels)}, "
            f"target set is {list(spec.target_channels)}"
        )
    return pairs


def union_template(manifests: list[DatasetManifest],
                   base: TaskTemplateSpec) -> TaskTemplateSpec:
    """Widened target set for NO_SELECT: every channel seen in ``manifests``."""
    names: set[str] = set()
    for m in manifests:
        names.update(m.all_channels())
    return TaskTemplateSpec(base.task, tuple(sorted(names)), base.template_len)


def mean_covariance(xs: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of per-trial spatial Gram matrices X X^T, symmetrized.

    No 1/T normalization: the downstream whitening is invariant to any
    positive constant scaling of the mean.
    """
    if not xs:
        raise DataError("empty trial group")
    m = xs[0].shape[0]
    acc = np.zeros((m, m), dtype=np.float64)
    for x in xs:
        if x.shape[0] != m:
            raise DataError(f"channel count mismatch inside one domain: {x.shape[0]} != {m}")
        x = np.asarray(x, dtype=np.float64)
        acc += x @ x.T
    r_bar = acc / len(xs)
    return (r_bar + r_bar.T) / 2


def inv_sqrt_psd(r_bar: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues are clamped from below at ``EPS_REL`` times the mean
    eigenvalue, which keeps rank-deficient covariance matrices (short trials,
    few trials per domain) invertible.
    """
    r_bar = np.asarray(r_bar, dtype=np.float64)
    if r_bar.ndim != 2 or r_bar.shape[0] != r_bar.shape[1]:
        raise NumericError(f"expected a square matrix, got shape {r_bar.shape}")
    scale = np.max(np.abs(r_bar))
    if scale == 0:
        raise NumericError("all-zero covariance matrix has no inverse square root")
    asym = np.max(np.abs(r_bar - r_bar.T))
    if asym > SYMMETRY_TOL * max(scale, 1.0):
        raise NumericError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    evals, evecs = np.linalg.eigh((r_bar + r_bar.T) / 2)
    floor = EPS_REL * float(np.mean(evals))
    if floor <= 0:
        floor = EPS_REL * scale
    evals = np.maximum(evals, floor)
    return (evecs * (evals ** -0.5)) @ evecs.T


def align_domain(xs: list[np.ndarray]
                 ) -> tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Whiten every trial of one domain by the shared inverse-sqrt covariance.

    Returns the aligned trials and ``(r_bar, r_inv_sqrt)``: the domain-mean
    covariance and its inverse square root.
    """
    r_bar = mean_covariance(xs)
    w = inv_sqrt_psd(r_bar)
    return [w @ x for x in xs], (r_bar, w)


def map_to_template(x: np.ndarray, rows: list[int], spec: TaskTemplateSpec) -> np.ndarray:
    """Write the rows of ``x`` into ``rows`` of a zero float32 template, the payload as stored."""
    t = x.shape[1]
    if t > spec.template_len:
        raise DataError(
            f"trial exceeds template length: {t} > {spec.template_len} samples"
        )
    x_tem = np.zeros((spec.n_channels, spec.template_len), dtype="<f4")
    x_tem[rows, :t] = x
    return x_tem


def align_dataset(manifest: DatasetManifest, out_dir: str,
                  spec: TaskTemplateSpec | None = None, *,
                  ea: bool = True, mapping: bool = True) -> DatasetManifest:
    """Run the selection -> alignment -> mapping pipeline over a whole dataset.

    Writes a new dataset directory plus ``alignment.json``, the list of
    per-domain statistics in ``domain_id`` order. Selection keeps the channels
    of ``spec`` (the task template by default; NO_SELECT passes a widened
    one). ``ea=False`` skips whitening; ``mapping=False`` keeps the selected
    channels in their own order and each trial its own length, which must
    still fit the template. An aligned dataset, or one the template does not
    fit, is refused first. Two SHA-256 stage hashes over float32 bytes let
    ablation runs verify that only the toggled stage changed: ``selected``
    over each trial's selected rows as read, domain by domain in id order,
    and ``output`` over the trial files as written, in manifest order.
    """
    spec = spec or task_template(manifest.task)
    require_unaligned(manifest)
    require_template_fit([manifest], spec.task)
    trials = manifest.trials
    by_domain: dict[str, list[int]] = {}
    for i, rec in enumerate(trials):
        if rec.n_samples > spec.template_len:
            raise DataError(f"trial {i} in domain {rec.domain_id!r} exceeds template "
                            f"length: {rec.n_samples} > {spec.template_len} samples")
        by_domain.setdefault(rec.domain_id, []).append(i)

    # Every domain is selected and whitened before anything is written, so a
    # domain that cannot be whitened leaves no partial output.
    xs: dict[int, np.ndarray] = {}
    layout: dict[str, tuple[list[int], list[str]]] = {}  # template rows, channel names
    docs = []
    selected = hashlib.sha256()
    for domain_id in sorted(by_domain):
        idx = by_domain[domain_id]
        channels = manifest.channels_of(trials[idx[0]])
        if any(manifest.channels_of(trials[i]) != channels for i in idx):
            raise DataError(f"domain {domain_id!r}: heterogeneous channel lists")
        # A domain has one channel set, so its rows are selected once: in
        # template order, or in the trial's own order when nothing is placed.
        pairs = select_channels(channels, spec)
        if not mapping:
            pairs.sort()
        src, rows = [s for s, _ in pairs], [row for _, row in pairs]
        layout[domain_id] = rows, [spec.target_channels[row] for row in rows]
        group = [load_trial(manifest, i)[src] for i in idx]
        for x in group:
            selected.update(x)
        doc = {"domain_id": domain_id, "d_count": len(idx)}
        if ea:
            try:
                group, (r_bar, r_inv_sqrt) = align_domain(group)
            except NumericError as e:
                raise NumericError(f"domain {domain_id!r}: {e}") from e
            doc.update(n_channels=len(src), channels=layout[domain_id][1],
                       r_bar=r_bar.tolist(), r_inv_sqrt=r_inv_sqrt.tolist())
        else:
            doc["skipped"] = True
        docs.append(doc)
        xs.update((i, x.astype("<f4", copy=False)) for i, x in zip(idx, group))

    writer = DatasetWriter(
        out_dir=out_dir, name=manifest.name, task=manifest.task,
        rate_hz=manifest.rate_hz, class_names=manifest.class_names,
        alignment={"task": spec.task, "template_channels": list(spec.target_channels),
                   "template_len": spec.template_len, "ea": ea, "mapped": mapping,
                   "stage_hashes": {"selected": selected.hexdigest()}},
    )
    # Per-domain files of the older stats layout would outlive this run.
    shutil.rmtree(os.path.join(out_dir, "alignment"), ignore_errors=True)
    with atomic_open(os.path.join(out_dir, "alignment.json")) as f:
        json.dump(docs, f, indent=1, sort_keys=True)
    # Each payload is hashed as it is written and then dropped, so only one
    # mapped template is alive at a time.
    output = hashlib.sha256()
    for i, rec in enumerate(trials):
        x, (rows, channels) = xs.pop(i), layout[rec.domain_id]
        if mapping:
            x = map_to_template(x, rows, spec)
            channels = spec.target_channels
        writer.add_trial(x, channels, rec.label, rec.domain_id)
        output.update(x)
    writer.alignment["stage_hashes"]["output"] = output.hexdigest()
    return writer.finish()

"""Spatial alignment: channel selection, per-domain Euclidean alignment, channel mapping.

Per domain (same subject/session/device), whitening by the inverse square
root of the domain-mean spatial covariance standardizes second-order
statistics so the mean aligned covariance is the identity. Selected channels
are then written into fixed rows of a zero-initialized task template, giving
every dataset a common input layout.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .data_model import (
    DatasetManifest, DatasetWriter, EEGTrial, TaskTemplateSpec, atomic_open,
    group_by_domain, load_all_trials, task_template,
)
from .errors import DataError, NumericError

# Eigenvalue floor of the whitening, relative to the mean eigenvalue.
EPS_REL = 1e-10
SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class SelectedTrial:
    """Trial restricted to task-relevant channels, with template row bookkeeping.

    ``selected`` pairs each kept channel with its row index in the template;
    row order of ``data`` follows ``selected``.
    """

    data: np.ndarray
    selected: tuple[tuple[str, int], ...]
    domain_id: str
    label: int

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def select_channels(trial: EEGTrial, spec: TaskTemplateSpec,
                    order: str = "template") -> SelectedTrial:
    """Keep the intersection of trial channels with the task target set.

    ``order`` is "template" (rows reordered to template order, the default)
    or "original" (trial's own order preserved; used by the no-mapping
    ablation). Raises when the intersection is empty.
    """
    present = {ch: i for i, ch in enumerate(trial.channels)}
    if order == "template":
        picked = [(ch, spec.row_index(ch)) for ch in spec.target_channels if ch in present]
    elif order == "original":
        targets = set(spec.target_channels)
        picked = [(ch, spec.row_index(ch)) for ch in trial.channels if ch in targets]
    else:
        raise ValueError(f"order must be 'template' or 'original', got {order!r}")
    if not picked:
        raise DataError(
            f"no task-relevant channels: trial has {list(trial.channels)}, "
            f"target set is {list(spec.target_channels)}"
        )
    rows = [present[ch] for ch, _ in picked]
    return SelectedTrial(
        data=np.asarray(trial.data, dtype=np.float64)[rows, :],
        selected=tuple(picked), domain_id=trial.domain_id, label=trial.label,
    )


def mean_covariance(group: list[SelectedTrial]) -> np.ndarray:
    """Arithmetic mean of per-trial spatial Gram matrices X X^T, symmetrized.

    No 1/T normalization: the downstream whitening is invariant to any
    positive constant scaling of the mean.
    """
    if not group:
        raise DataError("empty trial group")
    m = group[0].n_channels
    acc = np.zeros((m, m), dtype=np.float64)
    for t in group:
        if t.n_channels != m:
            raise DataError(
                f"channel count mismatch inside domain {group[0].domain_id!r}: "
                f"{t.n_channels} != {m}"
            )
        x = np.asarray(t.data, dtype=np.float64)
        acc += x @ x.T
    r_bar = acc / len(group)
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


def align_domain(group: list[SelectedTrial]
                 ) -> tuple[list[SelectedTrial], tuple[np.ndarray, np.ndarray]]:
    """Whiten every trial of one domain by the shared inverse-sqrt covariance.

    Returns the aligned trials and ``(r_bar, r_inv_sqrt)``: the domain-mean
    covariance and its inverse square root.
    """
    if not group:
        raise DataError("empty trial group")
    domain_id = group[0].domain_id
    for t in group:
        if t.domain_id != domain_id:
            raise DataError(
                f"mixed domains in one alignment group: {t.domain_id!r} vs {domain_id!r}"
            )
    r_bar = mean_covariance(group)
    w = inv_sqrt_psd(r_bar)
    aligned = [
        SelectedTrial(data=w @ t.data, selected=t.selected,
                      domain_id=t.domain_id, label=t.label)
        for t in group
    ]
    return aligned, (r_bar, w)


def map_to_template(aligned: SelectedTrial, spec: TaskTemplateSpec) -> np.ndarray:
    """Write aligned rows into their template rows; everything else stays zero."""
    t = aligned.n_samples
    if t > spec.template_len:
        raise DataError(
            f"trial exceeds template length: {t} > {spec.template_len} samples"
        )
    x_tem = np.zeros((spec.n_channels, spec.template_len), dtype=np.float64)
    for local, (_, row) in enumerate(aligned.selected):
        x_tem[row, :t] = aligned.data[local]
    return x_tem


def _array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def align_dataset(manifest: DatasetManifest, out_dir: str,
                  spec: TaskTemplateSpec | None = None, *,
                  ea: bool = True, mapping: bool = True) -> DatasetManifest:
    """Run the selection -> alignment -> mapping pipeline over a whole dataset.

    Writes a new dataset directory plus per-domain alignment statistics under
    ``alignment/``. Selection keeps the channels of ``spec`` (the task
    template by default; the no-selection ablation passes a widened target
    set). The two stage switches drive the other ablation variants:

    * ``ea=False``: whitening is skipped; trials pass through unchanged.
    * ``mapping=False``: trials keep their selected channels in original order
      and their own length; no template placement happens.

    Stage content hashes are stored in the output manifest so ablation runs
    can verify that only the toggled stage changed.
    """
    if spec is None:
        spec = task_template(manifest.task)
    order = "template" if mapping else "original"

    trials = load_all_trials(manifest)
    if trials:
        groups = group_by_domain(trials)
    else:
        groups = []

    selected_by_domain = {
        g.domain_id: [select_channels(t, spec, order=order) for t in g.trials]
        for g in groups
    }
    stage_hashes = {
        "selected": _array_digest(
            t.data for d in sorted(selected_by_domain) for t in selected_by_domain[d]
        ),
    }

    stats_dir = os.path.join(out_dir, "alignment")
    os.makedirs(stats_dir, exist_ok=True)
    aligned_by_domain: dict[str, list[SelectedTrial]] = {}
    for domain_id in sorted(selected_by_domain):
        sel = selected_by_domain[domain_id]
        if ea:
            aligned, (r_bar, r_inv_sqrt) = align_domain(sel)
            doc = {
                "domain_id": domain_id,
                "d_count": len(sel),
                "n_channels": int(r_bar.shape[0]),
                "channels": [ch for ch, _ in sel[0].selected],
                "r_bar": r_bar.tolist(),
                "r_inv_sqrt": r_inv_sqrt.tolist(),
            }
        else:
            aligned = sel
            doc = {"domain_id": domain_id, "d_count": len(sel), "skipped": True}
        fname = hashlib.sha256(domain_id.encode()).hexdigest()[:16] + ".json"
        with atomic_open(os.path.join(stats_dir, fname)) as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        aligned_by_domain[domain_id] = aligned
    stage_hashes["aligned"] = _array_digest(
        t.data for d in sorted(aligned_by_domain) for t in aligned_by_domain[d]
    )

    writer = DatasetWriter(
        out_dir=out_dir, name=manifest.name, task=manifest.task,
        rate_hz=manifest.rate_hz, class_names=manifest.class_names,
        alignment={
            "task": spec.task,
            "template_channels": list(spec.target_channels),
            "template_len": spec.template_len,
            "ea": ea, "mapped": mapping,
            "stage_hashes": stage_hashes,
        },
    )
    # Preserve the manifest's trial order on disk: within-domain order is
    # stable, so re-interleave by drawing from each domain's trials in turn.
    runs = {d: iter(ts) for d, ts in aligned_by_domain.items()}
    ordered = [next(runs[t.domain_id]) for t in trials]

    mapped_hash_parts = []
    for t in ordered:
        if mapping:
            x_tem = map_to_template(t, spec)
            writer.add_trial(x_tem, spec.target_channels, t.label, t.domain_id)
            mapped_hash_parts.append(x_tem)
        else:
            writer.add_trial(t.data, [ch for ch, _ in t.selected], t.label, t.domain_id)
            mapped_hash_parts.append(t.data)
    writer.alignment["stage_hashes"]["output"] = _array_digest(mapped_hash_parts)
    return writer.finish()

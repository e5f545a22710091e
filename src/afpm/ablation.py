"""Ablation matrix: full pipeline vs one disabled stage per variant.

Variants: FULL, NO_SELECT (target set widened to the union of all training
channels), NO_EA (no whitening), NO_MAP (selected channels keep their
original order in the first template rows instead of their own rows), NO_FPE
(per-channel temporal patches instead of all-channel frames). Every variant
consumes the same raw inputs with the same seeds and training budget; only
the flagged stage differs. Every variant's model input is its template.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import RunConfig
from .alignment import align_dataset, union_template
from .data_model import DatasetManifest, load_manifest, require_template_fit, task_template
from .errors import ConfigError
from .evaluation import EvalReport, evaluate_dataset
from .model import Model, init_model
from .pipeline import stack_aligned, stacked_model_config
from .training import train

VARIANTS = ("FULL", "NO_SELECT", "NO_EA", "NO_MAP", "NO_FPE")


def _variant_stages(variant: str) -> dict:
    return {
        "ea": variant != "NO_EA",
        "mapping": variant != "NO_MAP",
        "per_channel": variant == "NO_FPE",
    }


@dataclass
class AblationResult:
    variant: str
    reports: dict[str, EvalReport]
    model: Model
    raw_input_digest: str
    stage_hashes: dict[str, dict]


def run_variant(variant: str, cfg: RunConfig,
                train_manifests: list[DatasetManifest],
                eval_manifests: list[DatasetManifest],
                workdir: str) -> AblationResult:
    """Align, train and evaluate one variant; ``cfg.train.seed`` seeds training.

    The model trains on the stacked aligned training sets. Each aligned eval
    set is then evaluated on its own, pooled and per subject, as ``afpm eval`` does.
    """
    stages = _variant_stages(variant)
    spec = task_template(cfg.task)
    if variant == "NO_SELECT":
        spec = union_template(train_manifests, spec)

    vdir = os.path.join(workdir, variant.lower())
    aligned_train, aligned_eval = [], []
    stage_hashes: dict[str, dict] = {}
    for kind, manifests, bucket in (("train", train_manifests, aligned_train),
                                    ("eval", eval_manifests, aligned_eval)):
        for m in manifests:
            out = os.path.join(vdir, kind, m.name)
            aligned = align_dataset(m, out, spec,
                                    ea=stages["ea"], mapping=stages["mapping"])
            bucket.append(aligned)
            stage_hashes[f"{kind}:{m.name}"] = aligned.alignment["stage_hashes"]

    x, y, _, layout = stack_aligned(aligned_train, cfg.task)
    model_cfg = stacked_model_config(cfg, x, layout, stages["per_channel"])
    model = train(x, y, init_model(model_cfg, seed=cfg.train.seed), cfg.train).model
    del x, y  # the training stack is not read again; free it before the eval sets load
    reports = {m.name: evaluate_dataset(model, m) for m in aligned_eval}
    digest = raw_digest(train_manifests + eval_manifests)
    return AblationResult(variant=variant, reports=reports, model=model,
                          raw_input_digest=digest, stage_hashes=stage_hashes)


def raw_digest(manifests: list[DatasetManifest]) -> str:
    import hashlib

    h = hashlib.sha256()
    for m in manifests:
        for rec in m.trials:
            with open(os.path.join(m.root, rec.path), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_ablation(cfg: RunConfig, variants: tuple[str, ...], train_paths: list[str],
                 eval_paths: list[str], workdir: str) -> dict[str, AblationResult]:
    """Train and evaluate every variant with identical seeds and budgets."""
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ConfigError(f"unknown ablation variants {sorted(unknown)}")
    if "FULL" not in variants:
        raise ConfigError("ablation must include the FULL baseline")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"ablation variants listed more than once: {repeated}")
    train_manifests = [load_manifest(p) for p in train_paths]
    eval_manifests = [load_manifest(p) for p in eval_paths]
    require_template_fit(train_manifests + eval_manifests, cfg.task)
    return {variant: run_variant(variant, cfg, train_manifests, eval_manifests, workdir)
            for variant in variants}


def ablation_table(results: dict[str, AblationResult]) -> list[dict]:
    """Flat rows: variant, dataset, and the task's metric means."""
    rows = []
    for variant, res in results.items():
        for name, report in res.reports.items():
            row = {"variant": variant, "dataset": name}
            for metric, stats in report.metrics.items():
                row[metric] = stats["mean"]
            rows.append(row)
    return rows


def ablation_csv(results: dict[str, AblationResult]) -> str:
    rows = ablation_table(results)
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(
            f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
            for c in cols
        ))
    return "\n".join(lines) + "\n"

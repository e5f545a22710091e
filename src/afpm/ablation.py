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
from .errors import ConfigError, DataError
from .evaluation import EvalReport, evaluate_dataset
from .model import Model, init_model
from .pipeline import stack_aligned, stacked_model_config
from .training import train

VARIANTS = ("FULL", "NO_SELECT", "NO_EA", "NO_MAP", "NO_FPE")


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
            aligned = align_dataset(m, out, spec, ea=variant != "NO_EA",
                                    mapping=variant != "NO_MAP")
            bucket.append(aligned)
            stage_hashes[f"{kind}:{m.name}"] = aligned.alignment["stage_hashes"]

    x, y, _, layout = stack_aligned(aligned_train, cfg.task)
    model_cfg = stacked_model_config(cfg, x, layout, variant == "NO_FPE")
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
                 eval_paths: list[str], workdir: str) -> dict[str, dict[str, EvalReport]]:
    """Train and evaluate every variant with identical seeds and budgets.

    Returns each variant's reports by eval set name (``AblationResult.reports``).
    Aligned sets are written under their dataset names too, so two training
    sets, or two eval sets, that share a name are refused before any work.
    A variant's model is let go as soon as it is evaluated, so one model is
    alive at a time, not one per finished variant.
    """
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
    for kind, paths, manifests in (("training", train_paths, train_manifests),
                                   ("eval", eval_paths, eval_manifests)):
        seen: dict[str, str] = {}
        for path, m in zip(paths, manifests):
            if m.name in seen:
                raise DataError(f"{kind} datasets {seen[m.name]} and {path} are both named "
                                f"{m.name!r}; ablation keys its work and reports by name")
            seen[m.name] = path
    require_template_fit(train_manifests + eval_manifests, cfg.task)
    return {variant: run_variant(variant, cfg, train_manifests, eval_manifests,
                                 workdir).reports
            for variant in variants}


def ablation_csv(results: dict[str, dict[str, EvalReport]]) -> str:
    """One CSV row per variant and eval set of ``run_ablation``'s reports, with
    the task's metric means to six decimals; empty when there are no rows."""
    rows = [{"variant": variant, "dataset": name,
             **{metric: stats["mean"] for metric, stats in report.metrics.items()}}
            for variant, reports in results.items() for name, report in reports.items()]
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

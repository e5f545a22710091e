"""Ablation matrix: full pipeline vs one disabled stage per variant.

Variants: FULL, NO_SELECT (target set widened to the union of all training
channels), NO_EA (no whitening), NO_MAP (original channel order, zero-padded
batching), NO_FPE (per-channel temporal patches instead of all-channel
frames). Every variant consumes the same raw inputs with the same seeds and
training budget; only the flagged stage differs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .config import RunConfig
from .data_model import DatasetManifest, TaskTemplateSpec, load_manifest
from .alignment import align_dataset
from .errors import ConfigError
from .evaluation import EvalReport, evaluate_arrays, positive_class_index
from .model import init_model
from .pipeline import require_task, stack_aligned, stacked_model_config
from .training import TrainResult, train

VARIANTS = ("FULL", "NO_SELECT", "NO_EA", "NO_MAP", "NO_FPE")


@dataclass(frozen=True)
class AblationPlan:
    run_cfg: RunConfig
    variants: tuple[str, ...] = VARIANTS
    seed: int = 0

    def __post_init__(self):
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown ablation variants {sorted(unknown)}")
        if "FULL" not in self.variants:
            raise ConfigError("ablation plan must include the FULL baseline")


def union_template(manifests: list[DatasetManifest],
                   base: TaskTemplateSpec) -> TaskTemplateSpec:
    """Widened target set for NO_SELECT: every channel seen in training."""
    names: set[str] = set()
    for m in manifests:
        names.update(m.all_channels())
    return TaskTemplateSpec(base.task, tuple(sorted(names)), base.template_len)


def _variant_stages(variant: str) -> dict:
    return {
        "select": variant != "NO_SELECT",  # NO_SELECT widens the target set instead
        "ea": variant != "NO_EA",
        "mapping": variant != "NO_MAP",
        "per_channel": variant == "NO_FPE",
    }


@dataclass
class AblationResult:
    variant: str
    reports: dict[str, EvalReport]
    train_result: TrainResult
    raw_input_digest: str
    stage_hashes: dict[str, dict]


def run_variant(variant: str, plan: AblationPlan,
                train_manifests: list[DatasetManifest],
                eval_manifests: list[DatasetManifest],
                workdir: str) -> AblationResult:
    cfg = plan.run_cfg
    stages = _variant_stages(variant)
    spec = cfg.template
    if variant == "NO_SELECT":
        spec = union_template(train_manifests, spec)

    vdir = os.path.join(workdir, variant.lower())
    aligned_train, aligned_eval = [], []
    stage_hashes: dict[str, dict] = {}
    for kind, manifests, bucket in (("train", train_manifests, aligned_train),
                                    ("eval", eval_manifests, aligned_eval)):
        for m in manifests:
            out = os.path.join(vdir, kind, m.name)
            aligned = align_dataset(m, out, spec, select=True,
                                    ea=stages["ea"], mapping=stages["mapping"])
            bucket.append(aligned)
            stage_hashes[f"{kind}:{m.name}"] = aligned.alignment["stage_hashes"]

    x_all, y_all, dom_all, layout = stack_aligned(aligned_train + aligned_eval)
    n_train = sum(len(m.trials) for m in aligned_train)
    x_tr, y_tr = x_all[:n_train], y_all[:n_train]

    model_cfg = stacked_model_config(cfg, x_tr, layout, stages["per_channel"])
    model = init_model(model_cfg, seed=plan.seed)
    train_cfg = replace(cfg.train, seed=plan.seed)
    result = train(x_tr, y_tr, model, train_cfg)

    reports: dict[str, EvalReport] = {}
    offset = n_train
    for m in aligned_eval:
        n = len(m.trials)
        sl = slice(offset, offset + n)
        offset += n
        positive = positive_class_index(m.class_names, cfg.task)
        reports[m.name] = evaluate_arrays(
            model, x_all[sl], y_all[sl], dom_all[sl], m.name,
            seed=plan.seed, positive=positive,
        )
    digest = raw_digest(train_manifests + eval_manifests)
    return AblationResult(variant=variant, reports=reports, train_result=result,
                          raw_input_digest=digest, stage_hashes=stage_hashes)


def raw_digest(manifests: list[DatasetManifest]) -> str:
    import hashlib

    h = hashlib.sha256()
    for m in manifests:
        for rec in m.trials:
            with open(os.path.join(m.root, rec.path), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_ablation(plan: AblationPlan, train_paths: list[str], eval_paths: list[str],
                 workdir: str) -> dict[str, AblationResult]:
    """Train and evaluate every planned variant with identical seeds and budgets."""
    train_manifests = [load_manifest(p) for p in train_paths]
    eval_manifests = [load_manifest(p) for p in eval_paths]
    require_task(train_manifests + eval_manifests, plan.run_cfg.task)
    results = {}
    for variant in plan.variants:
        results[variant] = run_variant(variant, plan, train_manifests,
                                       eval_manifests, workdir)
    return results


def ablation_table(results: dict[str, AblationResult], task: str) -> list[dict]:
    """Flat rows: variant, dataset, and the task's metric means."""
    rows = []
    for variant, res in results.items():
        for name, report in res.reports.items():
            row = {"variant": variant, "dataset": name}
            for metric, stats in report.metrics.items():
                row[metric] = stats["mean"]
            rows.append(row)
    return rows


def ablation_csv(results: dict[str, AblationResult], task: str) -> str:
    rows = ablation_table(results, task)
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

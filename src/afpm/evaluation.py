"""Classification metrics and the held-out evaluation report.

Balanced accuracy is the mean of per-class recalls. AUROC and AUC-PR share
one descending sweep over runs of equal scores. AUROC is the probability
that a random positive outscores a random negative, ties counting one half.
AUC-PR is average precision with equal scores grouped at one threshold.
Kappa is chance-corrected agreement.

A report holds the pooled metrics, each held-out subject's metrics and
confusion counts, and whether every trial is predicted as one class.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data_model import DatasetManifest
from .errors import DataError
from .model import Model, forward
from .pipeline import input_channels, require_same_classes, stack_aligned

MI_METRICS = ("balanced_accuracy", "auc_pr")
ERP_METRICS = ("auroc", "auc_pr", "cohens_kappa")


def _check_lengths(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != b.shape[0]:
        raise DataError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise DataError("empty input")
    return a, b


def balanced_accuracy(preds, labels) -> float:
    """Mean over classes of per-class recall."""
    preds, labels = _check_lengths(preds, labels)
    classes = np.unique(labels)
    recalls = [np.mean(preds[labels == c] == c) for c in classes]
    return float(np.mean(recalls))


def _tie_runs(scores, labels) -> tuple[np.ndarray, np.ndarray, int]:
    """Descending sweep over runs of equal scores: (seen, tp, n_pos).

    Run r holds the r-th highest distinct score; ``seen[r]`` trials and
    ``tp[r]`` positives lie at or above it.
    """
    scores, labels = _check_lengths(scores, labels)
    labels = labels.astype(bool)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    seen = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1,
                     scores.size)
    tp = np.cumsum(labels[order])[seen - 1]
    return seen, tp, int(tp[-1])


def auroc(scores, labels) -> float:
    """Area under the ROC curve: the Mann-Whitney statistic over tied runs.

    Each run's positives beat the negatives below it and tie, for one half,
    with the negatives in it. Twice the count is an integer, so it is exact.
    """
    seen, tp, n_pos = _tie_runs(scores, labels)
    fp = seen - tp
    n_neg = int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC needs both classes present")
    twice_u = np.diff(tp, prepend=0) @ (2 * (n_neg - fp) + np.diff(fp, prepend=0))
    return float(twice_u) / 2 / (n_pos * n_neg)


def auc_pr(scores, labels) -> float:
    """Average precision by descending-score sweep, ties grouped at one threshold."""
    seen, tp, n_pos = _tie_runs(scores, labels)
    if n_pos == 0:
        raise DataError("AUC-PR needs at least one positive")
    group_tp = np.diff(tp, prepend=0)
    # accumulate left to right, in the order of the per-group sweep
    return float(np.cumsum(tp / seen * (group_tp / n_pos))[-1])


def cohens_kappa(preds, labels) -> float:
    """Chance-corrected agreement; 0 when expected agreement is total."""
    preds, labels = _check_lengths(preds, labels)
    classes = np.unique(np.concatenate([preds, labels]))
    n = preds.shape[0]
    p_o = float(np.mean(preds == labels))
    p_e = 0.0
    for c in classes:
        p_e += float(np.sum(preds == c)) * float(np.sum(labels == c)) / (n * n)
    if p_e >= 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def positive_class_index(class_names, task: str) -> int:
    """The score-carrying class: 'target' for ERP when present, else class 1.

    The rank metrics score this one class against all others, so on more than
    two classes MI's ``auc_pr`` (and ERP's ``auroc`` and ``auc_pr`` without a
    'target' class) is class 1 against the rest, not a mean over classes.
    """
    if task == "erp":
        lowered = [c.lower() for c in class_names]
        if "target" in lowered:
            return lowered.index("target")
    return 1


@dataclass
class EvalReport:
    dataset: str
    task: str
    n_trials: int
    n_subjects: int
    constant_prediction: bool
    metrics: dict[str, dict]
    subjects: dict[str, dict]

    def to_dict(self) -> dict:
        return asdict(self)

    def mean(self, metric: str) -> float:
        return self.metrics[metric]["mean"]

    def table(self) -> str:
        lines = [f"dataset {self.dataset} ({self.task}), "
                 f"{self.n_trials} trials, {self.n_subjects} subjects"]
        for name, stats in self.metrics.items():
            lines.append(f"  {name:>18s}: {stats['mean']:.4f}")
        if self.constant_prediction:
            lines.append("  every trial is predicted as the same class")
        for subject, rec in self.subjects.items():
            values = ", ".join(f"{m} n/a" if v is None else f"{m} {v:.4f}"
                               for m, v in rec["metrics"].items())
            lines.append(f"  {subject} ({rec['n_trials']} trials): {values}")
        return "\n".join(lines)


def subject_of(domain_id: str) -> str:
    """Subject key: drop the final (session) segment of dataset:subject:session."""
    parts = domain_id.rsplit(":", 1)
    return parts[0] if len(parts) == 2 else domain_id


def subject_groups(domains) -> dict[str, np.ndarray]:
    """Each subject's trial indices in ascending order, subjects sorted."""
    groups: dict[str, list[int]] = {}
    for i, d in enumerate(domains):
        groups.setdefault(subject_of(d), []).append(i)
    return {s: np.asarray(groups[s], dtype=np.int64) for s in sorted(groups)}


def task_metrics(task: str) -> tuple[str, ...]:
    return MI_METRICS if task == "mi" else ERP_METRICS


def undefined_metrics(task: str, labels: np.ndarray, positive: int) -> list[str]:
    """The task's rank metrics that ``labels`` leave undefined: AUROC unless
    class ``positive`` and another class both occur, AUC-PR unless ``positive`` does."""
    n_pos = int(np.count_nonzero(labels == positive))
    defined = {"auroc": 0 < n_pos < labels.size, "auc_pr": n_pos > 0}
    return [name for name in task_metrics(task) if not defined.get(name, True)]


def compute_metrics(task: str, logits: np.ndarray, labels: np.ndarray,
                    positive: int, *, undefined_as_none: bool = False
                    ) -> dict[str, float | None]:
    """The task's metrics of logits [N x c] against integer labels.

    Balanced accuracy and kappa use the argmax over all classes. AUROC and
    AUC-PR rank the softmax score of class ``positive`` with that class as
    the positives and every other class as the negatives: one class against
    the rest when there are more than two (``positive_class_index``). A rank
    metric the labels leave undefined (AUROC on one class, AUC-PR with no
    positive) raises a data error, or is None under ``undefined_as_none``.
    """
    preds = np.argmax(logits, axis=1)
    scores = softmax_scores(logits)[:, positive]
    is_positive = labels == positive
    undefined = undefined_metrics(task, labels, positive) if undefined_as_none else ()
    out: dict[str, float | None] = {}
    for name in task_metrics(task):
        if name in undefined:
            out[name] = None
        elif name == "balanced_accuracy":
            out[name] = balanced_accuracy(preds, labels)
        elif name == "auroc":
            out[name] = auroc(scores, is_positive)
        elif name == "auc_pr":
            out[name] = auc_pr(scores, is_positive)
        elif name == "cohens_kappa":
            out[name] = cohens_kappa(preds, labels)
    return out


def evaluate_arrays(model: Model, x: np.ndarray, labels: np.ndarray,
                    domains: list[str], dataset_name: str, *,
                    positive: int = 1) -> EvalReport:
    """Calibration-free inference: pooled metrics, then each held-out subject's."""
    task = model.cfg.task
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    logits = forward(x, model)
    preds = np.argmax(logits, axis=1)
    pooled = compute_metrics(task, logits, labels, positive)
    k = logits.shape[1]
    subjects = {}
    for subject, idx in subject_groups(domains).items():
        confusion = np.bincount(labels[idx] * k + preds[idx], minlength=k * k)
        subjects[subject] = {
            "n_trials": int(idx.size),
            "metrics": compute_metrics(task, logits[idx], labels[idx], positive,
                                       undefined_as_none=True),
            "confusion": confusion.reshape(k, k).tolist(),
        }
    return EvalReport(dataset=dataset_name, task=task, n_trials=n, n_subjects=len(subjects),
                      constant_prediction=bool(np.all(preds == preds[0])),
                      metrics={m: {"mean": v} for m, v in pooled.items()},
                      subjects=subjects)


def _layout_text(channels: tuple[str, ...], length: int) -> str:
    return f"{len(channels)} channels ({channels[0]} ... {channels[-1]}) x {length} samples"


def model_inputs(model: Model, manifest: DatasetManifest
                 ) -> tuple[np.ndarray, np.ndarray, list[str], int]:
    """An aligned dataset as input to ``model``: (x, labels, domain ids, positive class).

    The dataset must be aligned for the model's task to the template layout
    the model was trained on, mapped or not, and name the model's classes.
    """
    cfg = model.cfg
    x, labels, domains, layout = stack_aligned([manifest], cfg.task)
    channels, length = input_channels(layout), layout["template_len"]
    if (channels, length) != (cfg.template_channels, cfg.template_len):
        expected = _layout_text(cfg.template_channels, cfg.template_len)
        raise DataError(f"template mismatch: checkpoint expects {expected}, "
                        f"dataset is aligned to {_layout_text(channels, length)}")
    require_same_classes(cfg.class_names, layout["class_names"],
                         f"dataset {manifest.name!r}", "the checkpoint")
    positive = positive_class_index(manifest.class_names, cfg.task)
    return x, labels, domains, positive


def evaluate_dataset(model: Model, manifest: DatasetManifest) -> EvalReport:
    """Zero-calibration evaluation of one aligned dataset."""
    x, labels, domains, positive = model_inputs(model, manifest)
    return evaluate_arrays(model, x, labels, domains, manifest.name, positive=positive)

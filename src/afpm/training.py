"""Loss, analytic gradients, AdamW, one-cycle schedule, balanced sampling, training loops.

The optimizer is decoupled-decay AdamW with the constants of Loshchilov &
Hutter (arXiv:1711.05101) and the decay applied to weight matrices only
(biases, norm parameters, class token, and positional embeddings are
exempt). The learning-rate schedule ramps cosine from the initial rate to
the peak over the first 30% of steps, then decays cosine to 1/100 of the
initial rate. Every batch is drawn class-balanced. A batch whose cache would
not fit ``model.MICRO_BATCH_BYTES`` runs as micro-batches whose gradients are
summed. Training is deterministic for a fixed seed when run single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .model import (
    Model, backward_cached, decayed_param, forward_cached, micro_batches, require_int,
    require_number,
)

WARMUP_FRACTION = 0.3
FINAL_LR_DIVISOR = 100.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 512
    lr_init: float = 2.5e-4
    lr_max: float = 5e-4
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        require_int(self, "epochs", 0)
        require_int(self, "batch_size", 1)
        require_int(self, "seed", 0)
        for name in ("lr_init", "lr_max", "weight_decay"):
            require_number(self, name)
        if not (0 < self.lr_init <= self.lr_max and self.weight_decay >= 0):
            raise ConfigError("need 0 < lr_init <= lr_max and weight_decay >= 0")


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and d(mean loss)/d(logits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    n = logits.shape[0]
    picked = z[np.arange(n), labels]
    loss = float(np.mean(np.log(denom[:, 0]) - picked))
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def backward(x_batch: np.ndarray, labels: np.ndarray, model: Model
             ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean batch loss and exact analytic gradients for every parameter tensor.

    The batch runs one micro-batch (``micro_batches``) at a time, so only one
    micro-batch's cache is alive. Each micro-batch's mean loss and logit
    gradient are weighted by its share of the batch, which divides both by
    the size of the whole batch, and its gradients are summed. A batch of one
    micro-batch (the presets up to batch 512) takes a single pass.
    """
    x, labels = np.asarray(x_batch), np.asarray(labels)
    n = labels.shape[0]
    loss, grads = 0.0, {}
    for i, j in micro_batches(model.cfg, n, model.dtype.itemsize):
        logits, cache = forward_cached(x[i:j], model, want_cache=True)
        part, dlogits = batch_cross_entropy(logits.astype(np.float64), labels[i:j])
        share = (j - i) / n
        part_grads = backward_cached((dlogits * share).astype(model.dtype), model, cache)
        del cache           # free it before the next micro-batch's forward
        loss += part * share
        grads = {k: grads[k] + g for k, g in part_grads.items()} if grads else part_grads
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for tensor {name!r}")
    return loss, grads


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()},
                   step=0)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptimizerState, lr: float, cfg: TrainConfig) -> None:
    """One AdamW update with bias correction and decoupled decay. Every new
    parameter is computed before any is stored: if one is not finite,
    NumericError names its tensor, the parameters stay as they were, and the
    moments in ``state`` are spent. ``params`` gets new arrays; the old ones
    are never written, so they may be read-only or shared with another model."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    new = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = grads[name].astype(p.dtype, copy=False)
            m = state.m[name]
            v = state.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if cfg.weight_decay and decayed_param(name, p):
                update = update + cfg.weight_decay * p
            new.append(p - (lr * update).astype(p.dtype, copy=False))
            if not np.isfinite(new[-1]).all():
                raise NumericError(f"non-finite AdamW update for tensor {name!r}")
    for name, p_new in zip(list(params), new):
        params[name] = p_new


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine ramp lr_init -> lr_max over the first 30% of steps, then cosine
    decay to lr_init/100 at the final step."""
    if not 0 <= step < total_steps:
        raise ConfigError(f"step {step} out of range for {total_steps} total steps")
    if total_steps == 1:
        return cfg.lr_init
    warm = int(round(WARMUP_FRACTION * total_steps))
    warm = min(max(warm, 1), total_steps - 1)
    if step <= warm:
        t = step / warm
        return cfg.lr_init + (cfg.lr_max - cfg.lr_init) * 0.5 * (1 - math.cos(math.pi * t))
    lr_final = cfg.lr_init / FINAL_LR_DIVISOR
    t = (step - warm) / (total_steps - 1 - warm)
    return lr_final + (cfg.lr_max - lr_final) * 0.5 * (1 + math.cos(math.pi * t))


def balanced_batches(labels: np.ndarray, n_classes: int, batch_size: int,
                     seed: int, n_batches: int):
    """Yield index batches with equal per-class expected counts.

    Each slot draws its class uniformly, then an instance of that class
    uniformly with replacement, so minority classes are oversampled.
    Deterministic for a fixed seed.
    """
    labels = np.asarray(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(n_classes)]
    for c, idx in enumerate(by_class):
        if idx.size == 0:
            raise DataError(f"class {c} has no trials; balanced sampling impossible")
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        classes = rng.integers(0, n_classes, size=batch_size)
        picks = np.empty(batch_size, dtype=np.int64)
        for c in range(n_classes):
            slots = np.flatnonzero(classes == c)
            if slots.size:
                picks[slots] = by_class[c][rng.integers(0, by_class[c].size,
                                                        size=slots.size)]
        yield picks


@dataclass
class TrainResult:
    model: Model
    history: list[dict] = field(default_factory=list)
    diverged: bool = False

    def history_csv(self) -> str:
        lines = ["step,epoch,lr,loss"]
        for row in self.history:
            lines.append(f"{row['step']},{row['epoch']},{row['lr']:.10g},{row['loss']:.10g}")
        return "\n".join(lines) + "\n"


def train(x: np.ndarray, labels: np.ndarray, model: Model, cfg: TrainConfig,
          log=None) -> TrainResult:
    """Train on pooled template inputs [N x M x T'] with integer labels.

    AdamW starts from fresh moments; one epoch is ceil(N / batch_size) steps.
    On a non-finite loss, gradient or update the loop aborts and returns the
    parameters from before the failing step, flagged as diverged.
    """
    x = np.asarray(x)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 3 or x.shape[0] != labels.shape[0]:
        raise DataError(f"bad training arrays: x {x.shape}, labels {labels.shape}")
    n = x.shape[0]
    if n == 0:
        raise DataError("empty training set")
    n_classes = model.cfg.n_classes
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError("label out of range for model head")

    steps_per_epoch = -(-n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    state = OptimizerState.zeros_like(model.params)
    result = TrainResult(model=model)
    if total_steps == 0:
        return result

    batches = balanced_batches(labels, n_classes, cfg.batch_size, cfg.seed, total_steps)
    for step, idx in enumerate(batches):
        lr = onecycle_lr(step, total_steps, cfg)
        loss = _guarded_step(x[idx], labels[idx], model, state, lr, cfg)
        if loss is None:
            result.diverged = True
            break
        epoch = step // steps_per_epoch
        result.history.append({"step": step, "epoch": epoch, "lr": lr, "loss": loss})
        if log is not None and (step % steps_per_epoch == steps_per_epoch - 1):
            log(f"epoch {epoch + 1}/{cfg.epochs} step {step + 1}/{total_steps} "
                f"lr {lr:.3e} loss {loss:.4f}")
    return result


def _guarded_step(xb, yb, model, state, lr, cfg):
    """Loss of one training step, or None if the loss, a gradient or the update
    is not finite. Parameters change only in a successful ``adamw_step``, so a
    failed step leaves them as the last good update wrote them."""
    # overflow here is handled by the divergence guard, not surfaced as noise
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = backward(xb, yb, model)
        if not math.isfinite(loss):
            return None
        adamw_step(model.params, grads, state, lr, cfg)
    except NumericError:
        return None
    return loss


def chronological_split(n: int, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """First ``fraction`` of indices for tuning, the rest for evaluation."""
    if not 0 < fraction < 1:
        raise ConfigError("fraction must lie strictly between 0 and 1")
    n_tune = int(round(n * fraction))
    if n_tune < 1 or n - n_tune < 1:
        raise DataError(f"{n} trials cannot be split at fraction {fraction}")
    idx = np.arange(n)
    return idx[:n_tune], idx[n_tune:]


def finetune(model: Model, x: np.ndarray, labels: np.ndarray, fraction: float,
             cfg: TrainConfig) -> tuple[TrainResult, np.ndarray, np.ndarray]:
    """Subject-specific fine-tuning: tune on the chronologically first
    ``fraction`` of trials, return the held-out evaluation indices.

    AdamW starts fresh moments on the pretrained weights.
    """
    tune_idx, eval_idx = chronological_split(x.shape[0], fraction)
    result = train(x[tune_idx], labels[tune_idx], model, cfg)
    return result, tune_idx, eval_idx

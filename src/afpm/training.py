"""Loss, analytic gradients, AdamW, one-cycle schedule, balanced sampling, the
training loop, and the chronological split that fine-tuning tunes on.

The optimizer is decoupled-decay AdamW with the constants of Loshchilov &
Hutter (arXiv:1711.05101) and the decay applied to weight matrices only
(biases, norm parameters, class token, and positional embeddings are
exempt). The learning-rate schedule ramps cosine from the initial rate to
the peak over the first 30% of steps, then decays cosine to 1/100 of the
initial rate. Every batch is drawn class-balanced. A batch whose cache would
not fit ``model.MICRO_BATCH_BYTES`` runs as micro-batches whose gradients are
summed. Training is deterministic for a fixed seed when run single-threaded.
Fine-tuning is ``train`` on the pretrained model and the first part of a
subject's trials (``chronological_split``); AdamW starts fresh moments there
too.

The layout ``model.FlatLayout``, that of the checkpoint payload, owns the
parameter and gradient memory: ``train`` gathers the starting parameters once
into the first of two parameter vectors and builds both vectors' views once,
``backward`` has ``model.backward_cached`` write the gradient into views of
one vector, and ``adamw_step`` keeps its moments in two more and writes the
next parameters into the vector the model does not view. So the sum over
micro-batches, the finite checks and the update run as a few long numpy
loops, and no step copies a parameter vector or rebuilds its views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .model import (
    FlatLayout, Model, backward_cached, decayed_param, forward_cached, micro_batches,
    param_shapes, require_int, require_number,
)

WARMUP_FRACTION = 0.3
FINAL_LR_DIVISOR = 100.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# AdamW updates the flat vectors in runs of this many items, so that each
# run's temporaries stay in cache. On one core, an MI preset update (540k
# parameters) took a median 5.6 ms in runs of 2**15, 9.9 ms as one pass over
# the whole vectors and 6.8 ms tensor by tensor; runs of 2**14 or 2**16 were
# within 10% of 2**15 for both presets.
ADAM_RUN = 2**15


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


def backward(x: np.ndarray, labels: np.ndarray, model: Model, rows=None
             ) -> tuple[float, np.ndarray]:
    """Mean batch loss and the exact analytic gradient of every parameter, as
    one new vector in the layout of ``param_shapes(model.cfg)``.

    The batch is the rows ``rows`` (an index array) of the stack ``x`` and
    of ``labels``, or all of them when ``rows`` is None. Its samples are
    never gathered on their own: each micro-batch's patch array is filled
    straight from its rows of ``x`` (``forward_cached``).

    The batch runs one micro-batch (``micro_batches``) at a time, so only one
    micro-batch's cache is alive. Each micro-batch's mean loss and logit
    gradient are weighted by its share of the batch, which divides both by
    the size of the whole batch. ``backward_cached`` writes the first
    micro-batch's gradients into views of the result vector; a batch of
    several micro-batches (per-channel patches) writes each later one into
    one more vector, built once per call, and adds it in. A batch of one
    micro-batch (the presets up to batch 512) takes a single pass. The
    vector is checked finite in one pass.
    """
    x, labels = np.asarray(x), np.asarray(labels)
    rows = np.arange(labels.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    n = rows.shape[0]
    layout = FlatLayout.of(param_shapes(model.cfg))
    flat = np.empty(layout.size, model.dtype)
    loss, spare, grads = 0.0, None, layout.views(flat)
    for i, j in micro_batches(model.cfg, n, model.dtype.itemsize):
        logits, cache = forward_cached(x, model, want_cache=True, rows=rows[i:j])
        part, dlogits = batch_cross_entropy(logits.astype(np.float64), labels[rows[i:j]])
        share = (j - i) / n
        backward_cached((dlogits * share).astype(model.dtype), model, cache, grads)
        del cache           # free it before the next micro-batch's forward
        loss += part * share
        if spare is not None:
            flat += spare
        elif j < n:         # later micro-batches go to a second vector, added in
            spare = np.empty(layout.size, model.dtype)
            grads = layout.views(spare)
    bad = layout.first_nonfinite(flat)
    if bad is not None:
        raise NumericError(f"non-finite gradient for tensor {bad!r}")
    return loss, flat


@dataclass
class OptimizerState:
    """AdamW moments ``m`` and ``v`` as two vectors in the parameters'
    ``layout``. ``decay`` holds 1 over the items of decayed tensors
    (``decayed_param``) and 0 elsewhere, in the parameter dtype."""

    layout: FlatLayout
    decay: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, layout: FlatLayout, dtype) -> "OptimizerState":
        flags = [decayed_param(name, shape) for name, shape in zip(layout.names, layout.shapes)]
        decay = np.repeat(np.array(flags, dtype=dtype), np.diff(layout.offsets))
        return cls(layout=layout, decay=decay, m=np.zeros(layout.size, dtype=dtype),
                   v=np.zeros(layout.size, dtype=dtype))


def adamw_step(p: np.ndarray, g: np.ndarray, state: OptimizerState, lr: float,
               cfg: TrainConfig, out: np.ndarray) -> None:
    """One AdamW update with bias correction and decoupled decay: writes the
    new parameter vector for parameters ``p`` and gradient ``g`` into
    ``out``, all three in the state's layout and dtype.

    The per-item formula runs over runs of ADAM_RUN items, so it rounds
    exactly as it would tensor by tensor. ``p`` is never written, so it may
    be read-only or viewed by a model; ``out`` must be another vector. If a
    new parameter is not finite, NumericError names the first such tensor in
    layout order, and the moments in ``state`` and ``out`` are spent.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    buf1, buf2 = np.empty((2, min(ADAM_RUN, p.size)), p.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, p.size, ADAM_RUN):
            j = min(i + ADAM_RUN, p.size)
            pi, gi, m, v = p[i:j], g[i:j], state.m[i:j], state.v[i:j]
            t1, t2 = buf1[:j - i], buf2[:j - i]
            m *= ADAM_BETA1
            m += np.multiply(gi, 1.0 - ADAM_BETA1, out=t1)
            v *= ADAM_BETA2
            square = np.multiply(gi, gi, out=t1)
            square *= 1.0 - ADAM_BETA2
            v += square
            # update = (m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * p]
            update = np.divide(m, bc1, out=t1)
            root = np.sqrt(np.divide(v, bc2, out=t2), out=t2)
            root += ADAM_EPS
            update /= root
            if cfg.weight_decay:
                # exempt items add a zero, which leaves their parameter as it was
                decay = np.multiply(state.decay[i:j], cfg.weight_decay, out=t2)
                decay *= pi
                update += decay
            update *= lr
            np.subtract(pi, update, out=out[i:j])
    bad = state.layout.first_nonfinite(out)
    if bad is not None:
        raise NumericError(f"non-finite AdamW update for tensor {bad!r}")


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

    Each step hands ``backward`` the stack and its batch's row indices, so
    the only per-step copy of the inputs is the patch array that
    ``forward_cached`` fills from those rows; ``x`` is never written.

    The result's model is new: its parameters are views of one of two
    vectors that training owns, and ``model`` is never written, so its
    arrays may be read-only. Each step writes the next parameters into the
    vector the model does not view and switches the model to that vector's
    views, built once. AdamW starts from fresh moments; one epoch is
    ceil(N / batch_size) steps. On a non-finite loss, gradient or update the
    loop aborts and returns the parameters from before the failing step,
    flagged as diverged.
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
    layout = FlatLayout.of(param_shapes(model.cfg))
    flats = (layout.gather(model.params, model.dtype), np.empty(layout.size, model.dtype))
    views = [layout.views(flat) for flat in flats]
    live = 0            # the vector the result's model views
    state = OptimizerState.zeros(layout, model.dtype)
    result = TrainResult(model=Model(cfg=model.cfg, params=views[live]))
    if total_steps == 0:
        return result

    batches = balanced_batches(labels, n_classes, cfg.batch_size, cfg.seed, total_steps)
    for step, idx in enumerate(batches):
        lr = onecycle_lr(step, total_steps, cfg)
        # overflow here is handled by the divergence guard, not surfaced as
        # noise; ``adamw_step`` writes the other vector only, so after a
        # failed step the model still views the last good parameters
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, g = backward(x, labels, result.model, rows=idx)
            if not math.isfinite(loss):
                raise NumericError("non-finite loss")
            adamw_step(flats[live], g, state, lr, cfg, flats[1 - live])
        except NumericError:
            result.diverged = True
            break
        live = 1 - live
        result.model.params = views[live]
        epoch = step // steps_per_epoch
        result.history.append({"step": step, "epoch": epoch, "lr": lr, "loss": loss})
        if log is not None and (step % steps_per_epoch == steps_per_epoch - 1):
            log(f"epoch {epoch + 1}/{cfg.epochs} step {step + 1}/{total_steps} "
                f"lr {lr:.3e} loss {loss:.4f}")
    return result


def chronological_split(n: int, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """First ``fraction`` of indices for tuning, the rest for evaluation."""
    if not 0 < fraction < 1:
        raise ConfigError("fraction must lie strictly between 0 and 1")
    n_tune = int(round(n * fraction))
    if n_tune < 1 or n - n_tune < 1:
        raise DataError(f"{n} trials cannot be split at fraction {fraction}")
    idx = np.arange(n)
    return idx[:n_tune], idx[n_tune:]


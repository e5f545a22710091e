"""In-memory spans around the public functions of each afpm module.

Shims are installed from outside the package: each wrapped function is
replaced by name in every loaded ``afpm`` module that holds it, because
callers import with ``from .x import f`` and look the name up in their own
module. Only public functions are wrapped. A target that no longer exists is
reported as absent instead of failing, so a later change that removes or
renames a function cannot break the benchmark.

A span is ``[name, start, end, parent_index]``; spans nest through a stack
and stay in memory until the run derives its per-layer metrics from them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from statistics import median

# (module, attribute, wrap the name in its defining module too). The
# training path looks ``forward_cached`` up in ``afpm.training``; inference
# reaches it through ``model.forward`` inside ``afpm.model``, which is left
# unwrapped so that ``model.forward_cached`` times training only.
TARGETS = (
    ("synth", "generate_dataset", True),
    ("data_model", "load_trial", True),
    ("data_model", "load_manifest", True),
    ("data_model", "DatasetWriter.add_trial", True),
    ("preprocessing", "bandpass", True),
    ("preprocessing", "resample", True),
    ("alignment", "align_dataset", True),
    ("alignment", "mean_covariance", True),
    ("alignment", "inv_sqrt_psd", True),
    ("pipeline", "stack_aligned", True),
    ("model", "forward_cached", False),
    ("model", "backward_cached", True),
    ("model", "forward", True),
    ("model", "save_checkpoint", True),
    ("model", "load_checkpoint", True),
    ("training", "train", True),
    ("training", "adamw_step", True),
    ("training", "batch_cross_entropy", True),
    ("training", "balanced_batches", True),
    ("training", "shuffled_batches", True),
    ("evaluation", "evaluate_arrays", True),
    ("evaluation", "compute_metrics", True),
    ("ablation", "run_variant", True),
    ("ablation", "raw_digest", True),
)
SAMPLERS = {"balanced_batches", "shuffled_batches"}
VARIANTS = ("FULL", "NO_SELECT", "NO_EA", "NO_MAP", "NO_FPE")
CLI_COMMANDS = ("synth", "preprocess", "align", "train", "eval", "finetune", "ablate")

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("synth.generate_dataset.busy_s", "s"),
    ("data_model.load_trial.calls", "count"),
    ("data_model.load_trial.busy_s", "s"),
    ("data_model.load_manifest.busy_s", "s"),
    ("data_model.add_trial.busy_s", "s"),
    ("data_model.trial_reads_per_input_trial", "ratio"),
    ("preprocessing.bandpass.busy_s", "s"),
    ("preprocessing.resample.busy_s", "s"),
    ("alignment.align_dataset.calls", "count"),
    ("alignment.align_dataset.busy_s", "s"),
    ("alignment.mean_covariance.busy_s", "s"),
    ("alignment.inv_sqrt_psd.busy_s", "s"),
    ("alignment.distinct_output_ratio", "ratio"),
    ("pipeline.stack_aligned.calls", "count"),
    ("pipeline.stack_aligned.busy_s", "s"),
    ("model.forward_cached.calls", "count"),
    ("model.forward_cached.busy_s", "s"),
    ("model.backward_cached.busy_s", "s"),
    ("model.forward.busy_s", "s"),
    ("model.save_checkpoint.busy_s", "s"),
    ("model.load_checkpoint.busy_s", "s"),
    ("model.checkpoint_bytes", "bytes"),
    ("training.train.steps", "count"),
    ("training.train.busy_s", "s"),
    ("training.train.self_s", "s"),
    ("training.step_ms.p50", "ms"),
    ("training.step_ms.tail", "ms"),
    ("training.step_ms.tail_pct", "%"),
    ("training.step_ms.samples", "count"),
    ("training.adamw_step.busy_s", "s"),
    ("training.batch_cross_entropy.busy_s", "s"),
    ("training.sampler.busy_s", "s"),
    ("evaluation.evaluate_arrays.busy_s", "s"),
    ("evaluation.compute_metrics.busy_s", "s"),
    *((f"ablation.run_variant.{v}.busy_s", "s") for v in VARIANTS),
    ("ablation.raw_digest.busy_s", "s"),
    *((f"cli.{c}.self_s", "s") for c in CLI_COMMANDS),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.absent_targets", "count"),
)
# Metrics taken from the set-up phases (synthesis); all others come from the
# traced rounds.
SETUP_METRICS = {"synth.generate_dataset.busy_s", "cli.synth.self_s"}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False
        self.trial_reads: list[tuple[str, str]] = []
        self.align_outputs: list[str] = []
        self.checkpoint_bytes = 0
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.trial_reads, self.align_outputs = [], []
        self.checkpoint_bytes = 0

    def _wrap(self, name, fn, observe=None, span_name=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(span_name(args, kwargs) if span_name else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return shim

    def _wrap_sampler(self, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.enabled:
                return gen
            return _timed_iter(tracer, gen)
        return shim

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record the ones that no longer exist."""
        observers = {
            "load_trial": self._on_load_trial,
            "align_dataset": self._on_align,
            "save_checkpoint": self._on_save_checkpoint,
        }
        for mod_name, attr, home in TARGETS:
            module = sys.modules.get(f"afpm.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, meth, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if meth in SAMPLERS:
                shim = self._wrap_sampler(original)
            elif meth == "run_variant":
                shim = self._wrap(None, original, span_name=_variant_span)
            else:
                shim = self._wrap(f"{mod_name}.{meth}", original, observers.get(meth))
            if owner_name:
                self._patch(owner, meth, shim)
                continue
            for name, mod in list(sys.modules.items()):
                if not (name == "afpm" or name.startswith("afpm.")) or mod is None:
                    continue
                if mod is module and not home:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, shim)

    def _patch(self, owner, key, shim) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, shim)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # -- counters ------------------------------------------------------------

    def _on_load_trial(self, args, kwargs, result) -> None:
        manifest = args[0] if args else kwargs["manifest"]
        index = args[1] if len(args) > 1 else kwargs["index"]
        self.trial_reads.append((manifest.root, manifest.trials[index].path))

    def _on_align(self, args, kwargs, result) -> None:
        self.align_outputs.append(result.alignment["stage_hashes"]["output"])

    def _on_save_checkpoint(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.checkpoint_bytes += os.path.getsize(path)

    # -- metrics -------------------------------------------------------------

    def phase_metrics(self) -> dict[str, float]:
        """Per-layer values of the spans and counters recorded since reset()."""
        busy, calls, self_s = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if not self._inside(parent, name):
                busy[name] = busy.get(name, 0.0) + (end - start)

        out = {}
        for key, _unit in PER_LAYER:
            layer, _, kind = key.rpartition(".")
            if kind == "busy_s":
                out[key] = busy.get(layer, 0.0)
            elif kind == "calls":
                out[key] = float(calls.get(layer, 0))
            elif kind == "self_s":
                out[key] = self_s.get(layer, 0.0)
        out["training.train.steps"] = float(sum(
            1 for name, *_ in self.spans if name == "training.sampler.yield"))
        out["training.sampler.busy_s"] = busy.get("training.sampler", 0.0) + \
            busy.get("training.sampler.yield", 0.0)
        distinct_reads = len(set(self.trial_reads))
        out["data_model.trial_reads_per_input_trial"] = (
            len(self.trial_reads) / distinct_reads if distinct_reads else 0.0)
        n_align = len(self.align_outputs)
        out["alignment.distinct_output_ratio"] = (
            len(set(self.align_outputs)) / n_align if n_align else 0.0)
        out["model.checkpoint_bytes"] = float(self.checkpoint_bytes)
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def train_step_ms(self) -> list[float]:
        """Step times of every ``train`` call made by the ``train`` command.

        A step runs from one request to the batch sampler to the next; the
        last request of a loop is the one that ends it.
        """
        steps = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name != "training.train" or not self._inside(parent, "cli.train"):
                continue
            starts = [s for (n, s, _e, p) in self.spans
                      if p == i and n.startswith("training.sampler")]
            steps += [1e3 * (b - a) for a, b in zip(starts, starts[1:])]
        return steps


def _timed_iter(tracer: Tracer, gen):
    """Yield from a batch generator, one span per request for a batch.

    A request that returns a batch is ``training.sampler.yield`` (one step);
    the final request that finds the generator exhausted is
    ``training.sampler``.
    """
    while True:
        idx = tracer.begin("training.sampler")
        try:
            item = next(gen)
        except StopIteration:
            tracer.end(idx)
            return
        except BaseException:
            tracer.end(idx)
            raise
        tracer.end(idx)
        tracer.spans[idx][0] = "training.sampler.yield"
        yield item


def _variant_span(args, kwargs) -> str:
    variant = args[0] if args else kwargs["variant"]
    return f"ablation.run_variant.{variant}"


def step_stats(samples: list[float]) -> dict[str, float]:
    """Median and the highest percentile with at least ten samples beyond it.

    With fewer than forty samples the tail is the median itself.
    """
    out = {"training.step_ms.samples": float(len(samples))}
    if not samples:
        out.update({"training.step_ms.p50": 0.0, "training.step_ms.tail": 0.0,
                    "training.step_ms.tail_pct": 0.0})
        return out
    ordered = sorted(samples)
    n = len(ordered)
    pct = 50
    if n >= 40:
        pct = max(q for q in (50, 75, 90, 95, 99) if n * (100 - q) / 100 >= 10)
    out["training.step_ms.p50"] = median(ordered)
    out["training.step_ms.tail"] = _percentile(ordered, pct)
    out["training.step_ms.tail_pct"] = float(pct)
    return out


def _percentile(ordered: list[float], pct: int) -> float:
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

"""Set-up, rounds, operation accounting and metrics of one benchmark run.

Imported by run.py after the thread pins are set, so numpy, scipy and every
afpm module load (and are counted in ``setup_s``) here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from statistics import median

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loaded here so no stage pays for it)
import scipy.signal  # noqa: F401

import afpm
import afpm.ablation
import afpm.alignment
import afpm.cli
import afpm.config
import afpm.data_model
import afpm.evaluation
import afpm.model
import afpm.pipeline
import afpm.preprocessing
import afpm.synth
import afpm.training

import checks
import tracing
from workloads import FT_FRACTION, SCALES, THREAD_VARS, Workload, corpus_seeds

SETUP_REPEATS = 3
# Round 0 runs cold (first allocations, first use of each code path) and is
# often the slowest; the median of at least three rounds does not depend on
# it. Later rounds also compare their checkpoints with round 0's byte for
# byte, and a traced run compares traced rounds with untraced rounds after
# round 0 for the tracing overhead.
MIN_ROUNDS = 3
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("preprocess_trials_per_s", "trials/s"),
    ("train_trials_per_s", "trials/s"),
    ("eval_trials_per_s", "trials/s"),
    ("finetune_s", "s"),
    ("peak_rss_mb", "MB"),
)


# The machine this benchmark was built on changes speed by 20-40% over
# minutes (other tenants of the host), and every stage slows with it. Each
# CLI command is therefore preceded by a fixed numpy kernel (GEMMs, tanh, a
# sort and a loop of small reductions, about 8 ms); every end-to-end time is
# scaled by REF_NOMINAL_S / (median kernel time of the same round), i.e.
# reported at the speed the machine had when REF_NOMINAL_S was measured.
# Raw seconds and the kernel times are kept in the run record.
REF_NOMINAL_S = 0.0075
_RNG = np.random.default_rng(0)
_REF_X = _RNG.standard_normal((256, 425)).astype(np.float32)
_REF_W = _RNG.standard_normal((425, 64)).astype(np.float32)
_REF_V = [_RNG.standard_normal(200) for _ in range(50)]


def reference_s() -> float:
    """Wall time of the fixed reference kernel."""
    t0 = time.perf_counter()
    for _ in range(16):
        g = np.tanh(_REF_X @ _REF_W).T @ _REF_X
        np.sort(g, axis=1)
    for v in _REF_V:
        float(np.sqrt(np.mean(v * v)))
    return time.perf_counter() - t0


class Ops:
    """Counts operations (CLI stages and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict[str, str] = {}
        self.ref: list[float] = []

    def stage(self, argv: list[str], tracer: tracing.Tracer | None) -> float:
        """Run one CLI command in-process; return its wall time in seconds.

        The reference kernel runs first, outside the timed region.
        """
        self.ref.append(reference_s())
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin(f"cli.{argv[0]}") if tracer and tracer.enabled else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = afpm.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # an unexpected error is exit 1 of the real CLI
            rc = 1
            err.write(traceback.format_exc())
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
        if rc != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
        return dt

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            self.notes[name] = fn(*args)
        except Exception as e:  # any failure of a check fails that operation
            self.failed += 1
            self.failures.append(f"{name}: {type(e).__name__}: {e}")


def synth_argv(w: Workload, corpus, out: str, seed: int, name: str) -> list[str]:
    return ["synth", "--task", w.task, "--domains", str(corpus.domains),
            "--trials", str(corpus.trials), "--channels", corpus.channels,
            "--rate", str(corpus.rate_hz), "--snr", str(w.snr_db),
            "--name", name, "--out", out, "--seed", str(seed), "--threads", "1"]


def setup(w: Workload, seed: int, work: str, ops: Ops, tracer) -> tuple[float, dict, list]:
    """Synthesize both raw corpora SETUP_REPEATS times; keep the first copy."""
    train_seed, heldout_seed = corpus_seeds(seed)
    times, phases = [], []
    for k in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup{k}")
        if tracer:
            tracer.reset()
        t = ops.stage(synth_argv(w, w.train, os.path.join(d, "train_raw"), train_seed,
                                 f"{w.task}_train"), tracer)
        t += ops.stage(synth_argv(w, w.heldout, os.path.join(d, "heldout_raw"),
                                  heldout_seed, f"{w.task}_heldout"), tracer)
        times.append(t)
        if tracer:
            phases.append(tracer.phase_metrics())
        if k:
            shutil.rmtree(d)
    raw = {"train": os.path.join(work, "setup0", "train_raw"),
           "heldout": os.path.join(work, "setup0", "heldout_raw")}
    return median(times), raw, phases


def run_round(w: Workload, seed: int, raw: dict, d: str, ops: Ops,
              tracer, digests: dict) -> dict:
    """One pass of the stage chain; returns the round's stage times.

    A stage listed in ``w.repeats`` runs that many times over the same
    inputs and its median time counts.
    """
    p = {k: os.path.join(d, k) for k in
         ("train_pp", "heldout_pp", "train_al", "heldout_al", "eval", "ft", "ablation")}
    ckpt = os.path.join(d, "run", "model.ckpt")
    common = ["--seed", str(seed), "--threads", "1"]
    model = ["--batch-size", str(w.batch_size), *w.model_flags]
    # The README's "finetune --lr-max 1e-4" alone exits 2 (the preset lr_init
    # is 2.5e-4), so both ends of the schedule are given.
    chain = {
        "preprocess": [["preprocess", "--in", raw[k], "--out", p[f"{k}_pp"]]
                       for k in ("train", "heldout")],
        "align": [["align", "--in", p[f"{k}_pp"], "--out", p[f"{k}_al"], "--task", w.task]
                  for k in ("train", "heldout")],
        "train": [["train", "--data", p["train_al"], "--task", w.task, "--out", ckpt,
                   "--epochs", str(w.epochs), *model]],
        "eval": [["eval", "--ckpt", ckpt, "--data", p["heldout_al"], "--task", w.task,
                  "--out", p["eval"]]],
        "finetune": [["finetune", "--ckpt", ckpt, "--data", p["heldout_al"],
                      "--fraction", str(FT_FRACTION), "--out", p["ft"],
                      "--epochs", str(w.ft_epochs), "--lr-init", str(w.ft_lr[0]),
                      "--lr-max", str(w.ft_lr[1]), *model]],
    }
    if w.ablate_epochs is not None:
        digests.clear()
        chain["ablate"] = [["ablate", "--train", p["train_pp"], "--eval", p["heldout_pp"],
                            "--task", w.task, "--variants", "all", "--out", p["ablation"],
                            "--epochs", str(w.ablate_epochs), *model]]
    t = {stage: median(sum(ops.stage(argv + common, tracer) for argv in argvs)
                       for _ in range(w.repeats.get(stage, 1)))
         for stage, argvs in chain.items()}
    return {"times": t, "paths": p, "ckpt": ckpt}


def round_checks(w: Workload, raw: dict, rnd: dict, ops: Ops, digests: dict) -> None:
    p, ckpt = rnd["paths"], rnd["ckpt"]
    for kind in ("train", "heldout"):
        ops.check(f"preprocessed_{kind}", checks.check_preprocessed,
                  raw[kind], p[f"{kind}_pp"], w.band)
        ops.check(f"aligned_{kind}", checks.check_aligned, p[f"{kind}_pp"], p[f"{kind}_al"])
    ops.check("trained", checks.check_trained, p["train_al"], ckpt, w.epochs, w.batch_size)
    ops.check("eval", checks.check_eval, ckpt, p["heldout_al"], p["eval"], w.task)
    ops.check("finetune", checks.check_finetune, p["heldout_al"], p["ft"], FT_FRACTION)
    if w.ablate_epochs is not None:
        ops.check("ablation", checks.check_ablation, p["train_pp"], p["heldout_pp"],
                  p["ablation"], dict(digests), afpm.ablation.VARIANTS)


def capture_variant_digests(digests: dict) -> None:
    """Record each ablation variant's raw_input_digest as run_variant returns.

    The digest is not written to disk, so this result hook stays in place in
    untraced runs too; it takes no time stamps.
    """
    original = afpm.ablation.run_variant

    def run_variant(variant, *args, **kwargs):
        result = original(variant, *args, **kwargs)
        digests[variant] = result.raw_input_digest
        return result
    afpm.ablation.run_variant = run_variant


def round_metrics(w: Workload, raw_t: dict, ref_s: float) -> dict:
    """End-to-end metrics of one round, at the reference speed (see REF_NOMINAL_S)."""
    t = {k: v * REF_NOMINAL_S / ref_s for k, v in raw_t.items()}
    n_train = w.train.domains * w.train.trials
    n_heldout = w.heldout.domains * w.heldout.trials
    steps = w.epochs * -(-n_train // w.batch_size)
    return {
        "wall_s": sum(t.values()),
        "preprocess_trials_per_s": (n_train + n_heldout) / t["preprocess"],
        "train_trials_per_s": steps * w.batch_size / t["train"],
        "eval_trials_per_s": n_heldout / t["eval"],
        "finetune_s": t["finetune"],
    }


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(root),
    }


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(args, import_s: float, root: str) -> int:
    w = SCALES[args.scale][args.workload]
    work = os.path.join(root, "perfbench", "work", f"{w.name}-s{args.seed}-p{os.getpid()}")
    results_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = Ops()
    digests: dict[str, str] = {}
    capture_variant_digests(digests)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    try:
        synth_s, raw, setup_phases = setup(w, args.seed, work, ops, tracer)
        setup_ref_s = median(ops.ref)
        rounds, traced_phases, step_ms = [], [], []
        first_outputs = None
        t_measure = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_measure < args.seconds:
            r = len(rounds)
            traced = bool(tracer) and r % 2 == 1
            if tracer:
                tracer.reset()
                tracer.enabled = traced
            d = os.path.join(work, f"round{r}")
            first_ref = len(ops.ref)
            rnd = run_round(w, args.seed, raw, d, ops, tracer, digests)
            ref_s = median(ops.ref[first_ref:])
            if tracer:
                tracer.enabled = False
                if traced:
                    traced_phases.append(tracer.phase_metrics())
                    step_ms += tracer.train_step_ms()
            round_checks(w, raw, rnd, ops, digests)
            outputs = _output_digests(rnd)
            if first_outputs is None:
                first_outputs = outputs
            else:
                ops.check("deterministic_outputs", _same_outputs, first_outputs, outputs)
            rounds.append({"traced": traced, "times": rnd["times"], "ref_s": ref_s})
            shutil.rmtree(d, ignore_errors=True)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_round = [dict(round_metrics(w, r["times"], r["ref_s"]), traced=r["traced"])
                 for r in rounds]
    plain = [r for r in per_round if not r["traced"]]
    if args.trace:
        metrics = layer_metrics(tracer, setup_phases, traced_phases, step_ms, per_round)
    else:
        metrics = {"setup_s": (import_s + synth_s) * REF_NOMINAL_S / setup_ref_s,
                   "peak_rss_mb": peak_rss_mb}
        for key in ("wall_s", "preprocess_trials_per_s", "train_trials_per_s",
                    "eval_trials_per_s", "finetune_s"):
            metrics[key] = median(r[key] for r in plain)
        units = dict(END_TO_END)
        metrics = {k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END}

    record = {
        "workload": w.name, "scale": args.scale, "seed": args.seed,
        "corpus_seeds": corpus_seeds(args.seed), "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
        "checks": ops.notes, "import_s": import_s, "synth_s": synth_s,
        "ref_nominal_s": REF_NOMINAL_S, "setup_ref_s": setup_ref_s,
        "rounds": per_round, "round_stage_s": [r["times"] for r in rounds],
        "round_ref_s": [r["ref_s"] for r in rounds], "ref_s": ops.ref,
        "absent_targets": tracer.absent if tracer else [],
        "metrics": metrics,
    }
    path = os.path.join(results_dir,
                        f"{w.name}-{args.scale}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for msg in ops.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{w.name:16s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{w.name:16s} operations attempted {ops.attempted}, failed {ops.failed}; "
          f"record {os.path.relpath(path, root)}")
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


def _output_digests(rnd: dict) -> dict:
    """SHA-256 of the round's checkpoint and eval report; None where missing."""
    out = {}
    for name, path in (("model.ckpt", rnd["ckpt"]),
                       ("report.json", os.path.join(rnd["paths"]["eval"], "report.json"))):
        out[name] = checks.file_digest(path) if os.path.isfile(path) else None
    return out


def _same_outputs(first: dict, now: dict) -> str:
    checks.require(None not in first.values() and first == now,
                   f"outputs differ between rounds: {first} vs {now}")
    return "checkpoint and report bytes identical to round 0"


def layer_metrics(tracer, setup_phases, traced_phases, step_ms, per_round) -> dict:
    units = dict(tracing.PER_LAYER)
    out = {}
    for key, _unit in tracing.PER_LAYER:
        phases = setup_phases if key in tracing.SETUP_METRICS else traced_phases
        vals = [ph[key] for ph in phases if key in ph]
        if vals:
            out[key] = median(vals)
    out.update(tracing.step_stats(step_ms))
    traced = median(r["wall_s"] for r in per_round if r["traced"])
    plain = median(r["wall_s"] for r in per_round[1:] if not r["traced"])
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_share"] = (traced - plain) / plain
    out["trace.absent_targets"] = float(len(tracer.absent))
    return {k: {"value": out[k], "unit": units[k]} for k, _ in tracing.PER_LAYER}

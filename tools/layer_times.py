#!/usr/bin/env python3
"""Time one training step stage by stage, and write ``BENCH_<label>.json``.

    python3 tools/layer_times.py                      # BENCH_head.json at the root
    python3 tools/layer_times.py --side parent=../parent/src --side head=src

Each measurement runs in a fresh process on one BLAS thread. It builds a
preset's model (MI, ERP, or either with per-channel patches: ``no_fpe``,
``erp_no_fpe``) on a seeded 100-trial stack, as
``tools/compare_walkthrough.py``'s step digests do, in the attention form
the library picks for it or, as ``<preset>_per_head`` or
``<preset>_factored``, in the other one. It runs steps at batch 64 on rows
drawn from the stack: ``training.backward`` then ``adamw_step``, the work of
one step of ``training.train``. Steps alternate between two kinds:

- plain steps run the library as it is;
- timed steps swap ``model.STAGES`` for wrappers that time each stage
  instance's forward and backward under its name (summed over the
  micro-batches of a step), and also time ``extract_patches``,
  ``batch_cross_entropy`` and ``adamw_step``.

The parts of a timed step add up to it except for the loop's own work, so
``coverage`` (their sum over the timed step) shows how much of the step the
table explains. Layer norm and, where the source has it, the shared
feed-forward are timed too, as ``nested`` parts inside the stages that call
them; they are not added to the sum.

Every figure is a per-process median over steps; the report gives the
median and quartiles of those over ``--processes`` processes per preset and
side. Presets and sides take turns, in an order reversed every other round,
so a drift of the machine's speed spreads over all of them. Each side
(``--side LABEL=SRC``, the package under SRC; by default ``head``, this
tree's ``src``) is written to ``BENCH_<LABEL>.json`` in ``--out-dir`` (by
default the repository root), with the machine, the versions, the BLAS, the
thread settings and the git revision. ``--toy`` runs toy-sized models for a
smoke test.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

TOOLS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TOOLS)
BATCH = 64
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# name -> (task, per-channel patches, attention form, timed steps per
# process). A form of None is the one ``factored_attention`` picks; the
# ``_per_head`` and ``_factored`` presets force the other one. Per-channel
# (NO_FPE) steps take about 20 times as long as MI's.
PRESETS = {"mi": ("mi", False, None, 20), "erp": ("erp", False, None, 40),
           "no_fpe": ("mi", True, None, 4), "erp_no_fpe": ("erp", True, None, 4),
           "mi_per_head": ("mi", False, False, 20), "erp_factored": ("erp", False, True, 40),
           "no_fpe_per_head": ("mi", True, False, 4),
           "erp_no_fpe_factored": ("erp", True, True, 4)}
# Functions timed inside stages, where the source has them.
NESTED = {"layernorm": ("_layernorm", "_layernorm_backward"),
          "mlp": ("_mlp", "_mlp_backward")}


def model_config(preset: str, toy: bool):
    """The preset's model on its task's template, or, with ``toy``, a
    3-channel, 64-sample model of depth 2 in the preset's attention form and
    patch mode."""
    sys.path.insert(0, TOOLS)
    from compare_walkthrough import preset_config
    from afpm.model import FPEConfig, ModelConfig, TransformerConfig

    task, per_channel, _, _ = PRESETS[preset]
    if not toy:
        return preset_config(task, per_channel)
    fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=8, avg_window=2,
                    avg_shift=2, token_dim=8, mlp_hidden=8)
    t_cfg = TransformerConfig(depth=2, heads=2, dim_head=9 if task == "mi" else 3, dim_mlp=6)
    return ModelConfig(task=task, template_channels=("C0", "C1", "C2"), template_len=64,
                       fpe=fpe, transformer=t_cfg, class_names=("class_0", "class_1"),
                       per_channel_patches=per_channel)


def measure(preset: str, steps: int, toy: bool) -> dict:
    """Per-step times in ms of ``steps`` plain and ``steps`` timed steps, in
    this process, after two warm-up steps of each kind."""
    import numpy as np

    import afpm.model
    import afpm.training
    from afpm.pipeline import active_rms_scale
    from afpm.training import OptimizerState, TrainConfig, adamw_step, backward, gradient_models

    cfg = model_config(preset, toy)
    form = PRESETS[preset][2]
    if form is not None:
        afpm.model.factored_attention = lambda t_cfg, token_dim: form
    rng = np.random.default_rng(0)
    n = max(100, BATCH)
    x = rng.standard_normal((n, cfg.n_channels, cfg.template_len)).astype(np.float32)
    x[:, :, cfg.template_len * 7 // 8:] = 0     # a zero-padded tail, as in a template
    labels = rng.integers(0, cfg.n_classes, n)
    model = afpm.model.init_model(dataclasses.replace(cfg, input_scale=active_rms_scale(x)),
                                  seed=0)
    grad, rest = gradient_models(model, BATCH)
    state = OptimizerState.zeros(model.layout, model.dtype)
    spare, train_cfg = np.empty_like(model.flat), TrainConfig(batch_size=BATCH)
    acc: dict[str, float] = {}

    def add(name, start):
        acc[name] = acc.get(name, 0.0) + time.perf_counter() - start

    def timer(name, fn):
        def timed(*args):
            start = time.perf_counter()
            out = fn(*args)
            add(name, start)
            return out
        return timed

    def timed_stage(stage):
        def forward(x, p, cfg, name):
            start = time.perf_counter()
            out = stage.forward(x, p, cfg, name)
            add(f"{name}.forward", start)
            return out

        def backward(dy, p, cfg, name, cache, grads):
            start = time.perf_counter()
            out = stage.backward(dy, p, cfg, name, cache, grads)
            add(f"{name}.backward", start)
            return out
        return dataclasses.replace(stage, forward=forward, backward=backward)

    plain = {(afpm.model, "STAGES"): afpm.model.STAGES,
             (afpm.model, "extract_patches"): afpm.model.extract_patches,
             (afpm.training, "batch_cross_entropy"): afpm.training.batch_cross_entropy}
    timed = {(afpm.model, "STAGES"): tuple(map(timed_stage, afpm.model.STAGES)),
             (afpm.model, "extract_patches"): timer("extract_patches",
                                                    afpm.model.extract_patches),
             (afpm.training, "batch_cross_entropy"): timer("batch_cross_entropy",
                                                           afpm.training.batch_cross_entropy)}
    for part, names in NESTED.items():
        for name, kind in zip(names, ("forward", "backward")):
            if hasattr(afpm.model, name):
                plain[afpm.model, name] = getattr(afpm.model, name)
                timed[afpm.model, name] = timer(f"nested.{part}.{kind}", plain[afpm.model, name])

    def step(patches: dict) -> float:
        for (module, name), value in patches.items():
            setattr(module, name, value)
        rows = rng.permutation(n)[:BATCH]
        acc.clear()
        t = time.perf_counter()
        backward(x, labels, model, grad, rest, rows=rows)
        t_adamw = time.perf_counter()
        adamw_step(model.flat, grad.flat, state, 1e-4, train_cfg, spare)
        end = time.perf_counter()
        acc["adamw_step"] = end - t_adamw
        return end - t

    series: dict[str, list[float]] = {}
    for i in range(steps + 2):
        plain_s, timed_s = step(plain), step(timed)
        if i >= 2:
            for name, value in [("plain_step", plain_s), ("step", timed_s), *acc.items()]:
                series.setdefault(name, []).append(1e3 * value)
    step(plain)     # leave the module as it was
    return {"series": series, "environment": environment(),
            "config": {"tokens": afpm.model.model_dims(cfg).n_tokens,
                       "factored_attention": afpm.model.factored_attention(
                           cfg.transformer, cfg.fpe.token_dim),
                       "micro_batches": len(afpm.model.micro_batches(cfg, BATCH, 4)),
                       "parameters": model.layout.size}}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def source_identity(src: str) -> dict:
    """The git revision of the checkout holding ``src`` (with a note when
    its ``src`` differs from that revision), and a sha256 of its package files."""
    digest = hashlib.sha256()
    package = os.path.join(src, "afpm")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())

    def git(*args):
        done = subprocess.run(["git", "-C", os.path.dirname(src), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    revision = "unknown (not a git checkout)"
    if top is not None and os.path.samefile(top, os.path.dirname(src)):
        revision = git("rev-parse", "HEAD") or revision
        if git("status", "--porcelain", "--", "src"):
            revision += " with uncommitted changes under src"
    return {"git_revision": revision, "package_sha256": digest.hexdigest()}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (linear interpolation) to 4 significant digits."""
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {k: float(f"{v:.4g}") for k, v in zip(("q1", "median", "q3"), q)}


def summarize(runs: list[dict]) -> dict:
    """One preset's report from its processes' ``measure`` results."""
    medians: dict[str, list[float]] = {}
    for run in runs:
        for name, values in run["series"].items():
            medians.setdefault(name, []).append(sorted(values)[len(values) // 2])
    parts = {k: v for k, v in medians.items()
             if k not in ("step", "plain_step") and not k.startswith("nested.")}
    total = [sum(vs) for vs in zip(*parts.values())]
    step = quartiles(medians["step"])["median"]
    return {
        "config": runs[0]["config"],
        "steps_per_process": len(runs[0]["series"]["step"]),
        "plain_step_ms": quartiles(medians["plain_step"]),
        "step_ms": quartiles(medians["step"]),
        "parts_ms": {k: quartiles(v) for k, v in parts.items()},
        "parts_sum_ms": quartiles(total),
        "coverage": round(quartiles([t / s for t, s in zip(total, medians["step"])])["median"],
                          3),
        "share": {k: round(quartiles(v)["median"] / step, 4) for k, v in parts.items()},
        "nested_ms": {k.removeprefix("nested."): quartiles(v) for k, v in medians.items()
                      if k.startswith("nested.")},
    }


def run_child(src: str, preset: str, args: argparse.Namespace) -> dict:
    """``measure`` of ``preset`` in a fresh process with the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(THREAD_VARS, "1"))
    argv = [sys.executable, os.path.abspath(__file__), "--child", preset] + (
        ["--steps", str(args.steps)] if args.steps else [])
    done = subprocess.run(argv + ["--toy"] * args.toy, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{preset} with {src} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", metavar="LABEL[=SRC]",
                        help="a package to time, written to BENCH_LABEL.json "
                             "(default: head, this tree's src); repeat to alternate sides")
    parser.add_argument("--processes", type=int, default=5, help="processes per preset and side")
    parser.add_argument("--steps", type=int, help="timed steps per process "
                        "(default: 20 MI, 40 ERP, 4 NO_FPE; 2 with --toy)")
    parser.add_argument("--presets", default=",".join(PRESETS),
                        help="comma-separated (default: all)")
    parser.add_argument("--out-dir", default=REPO)
    parser.add_argument("--toy", action="store_true", help="toy-sized models")
    parser.add_argument("--child", choices=PRESETS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        steps = args.steps or (2 if args.toy else PRESETS[args.child][3])
        print(json.dumps(measure(args.child, steps, args.toy)))
        return 0
    presets = args.presets.split(",")
    if not set(presets) <= set(PRESETS) or args.processes < 1:
        parser.error(f"--presets takes names from {sorted(PRESETS)}; --processes at least 1")

    sides = {}
    for side in args.side or ["head"]:
        label, _, src = side.partition("=")
        sides[label] = os.path.abspath(src or os.path.join(REPO, "src"))
    jobs = [(p, label) for p in presets for label in sides]
    runs: dict[tuple[str, str], list[dict]] = {job: [] for job in jobs}
    for r in range(args.processes):
        for preset, label in jobs if r % 2 == 0 else jobs[::-1]:
            print(f"round {r + 1}/{args.processes}: {preset} ({label})", flush=True)
            try:
                runs[preset, label].append(run_child(sides[label], preset, args))
            except RuntimeError as e:
                print(e, file=sys.stderr)
                return 2
    for label, src in sides.items():
        first = runs[presets[0], label][0]
        report = {"label": label, **source_identity(src), **first["environment"],
                  "batch": BATCH, "processes": args.processes, "toy": args.toy,
                  "presets": {p: summarize(runs[p, label]) for p in presets}}
        path = os.path.join(args.out_dir, f"BENCH_{label}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        for p, s in report["presets"].items():
            print(f"{label} {p}: step {s['step_ms']['median']} ms (plain "
                  f"{s['plain_step_ms']['median']} ms), parts {s['parts_sum_ms']['median']} ms, "
                  f"coverage {s['coverage']}")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the walkthrough outputs of a git revision with the working tree's, byte for byte.

    python3 tools/compare_walkthrough.py REV

REV is checked out with ``git worktree add`` into a temporary directory. Both
README chains then run at the benchmark's sizes (``perfbench/workloads.py``,
``FULL``) once with REV's ``src`` and once with the working tree's, each side
in a directory of its own, with relative paths and ``--threads 1``: ``synth``
of the training and held-out corpora (seeds 100 and 200), ``preprocess``,
``align``, ``train``, ``eval``, ``finetune`` and, for MI, ``ablate --variants
all``. Each side also writes ``step_digests.json``: ``step_digest`` of one
training step at the MI, ERP and NO_FPE presets and at ERP with per-channel
patches, so a change of rounding in the step shows as one more differing file.
Every file whose bytes differ, or that only one side wrote, is listed.

Exit status: 0 when every file is identical, 1 when a file differs, 2 when a
command fails or REV cannot be checked out. The worktree is always removed.
The outputs are removed too, unless a file differs: then their directory is
kept and its path printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import filecmp
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TOOLS)
sys.path.insert(0, os.path.join(REPO, "perfbench"))

from workloads import FT_FRACTION, FULL, corpus_seeds  # noqa: E402

CHAINS = {"mi": "mi_walkthrough", "erp": "erp_walkthrough"}
RUN_CLI = "import sys; from afpm.cli import main; sys.exit(main(sys.argv[1:]))"
# Digested presets: name -> (task, per-channel patches); NO_FPE is MI per channel.
STEP_PRESETS = {"mi": ("mi", False), "erp": ("erp", False), "no_fpe": ("mi", True),
                "erp_per_channel": ("erp", True)}
STEP_DIGESTS = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from compare_walkthrough import write_step_digests; "
                "write_step_digests(sys.argv[2])")


def chain(task: str) -> list[list[str]]:
    """The README chain of ``task`` at the benchmark's sizes, with relative paths."""
    w = FULL[CHAINS[task]]
    model = ["--batch-size", str(w.batch_size), *w.model_flags, "--seed", "0"]
    argvs = []
    for kind, corpus, seed in (("train", w.train, corpus_seeds(0)[0]),
                               ("heldout", w.heldout, corpus_seeds(0)[1])):
        argvs += [
            ["synth", "--task", task, "--domains", str(corpus.domains),
             "--trials", str(corpus.trials), "--channels", corpus.channels,
             "--rate", str(corpus.rate_hz), "--snr", str(w.snr_db),
             "--name", f"{task}_{kind}", "--out", f"data/{kind}_raw", "--seed", str(seed)],
            ["preprocess", "--in", f"data/{kind}_raw", "--out", f"data/{kind}_pp"],
            ["align", "--in", f"data/{kind}_pp", "--out", f"data/{kind}_al", "--task", task],
        ]
    argvs += [
        ["train", "--data", "data/train_al", "--task", task, "--out", "run/model.ckpt",
         "--epochs", str(w.epochs), *model],
        ["eval", "--ckpt", "run/model.ckpt", "--data", "data/heldout_al", "--task", task,
         "--out", "eval"],
        ["finetune", "--ckpt", "run/model.ckpt", "--data", "data/heldout_al",
         "--fraction", str(FT_FRACTION), "--out", "ft", "--epochs", str(w.ft_epochs),
         "--lr-init", str(w.ft_lr[0]), "--lr-max", str(w.ft_lr[1]), *model],
    ]
    if w.ablate_epochs is not None:
        argvs.append(["ablate", "--train", "data/train_pp", "--eval", "data/heldout_pp",
                      "--task", task, "--variants", "all", "--out", "ablation",
                      "--epochs", str(w.ablate_epochs), *model])
    return [argv + ["--threads", "1"] for argv in argvs]


def preset_config(task: str, per_channel: bool):
    """A task preset's model on the task's template, with two classes."""
    from afpm.config import resolve_config
    from afpm.data_model import task_template
    from afpm.model import ModelConfig

    run, spec = resolve_config(task), task_template(task)
    return ModelConfig(task=task, template_channels=tuple(spec.target_channels),
                       template_len=spec.template_len, fpe=run.fpe,
                       transformer=run.transformer, class_names=("class_0", "class_1"),
                       per_channel_patches=per_channel)


def step_digest(cfg) -> str:
    """sha256 of (loss, gradient vector, logits) of one batch-64
    ``training.backward`` on 64 rows of a seeded 100-trial stack, for a model
    of ``cfg`` whose input scale is measured on the stack as training does."""
    import numpy as np

    from afpm.model import forward, init_model
    from afpm.pipeline import active_rms_scale
    from afpm.training import backward, gradient_models

    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, cfg.n_channels, cfg.template_len)).astype(np.float32)
    x[:, :, cfg.template_len * 7 // 8:] = 0     # a zero-padded tail, as in a template
    labels = rng.integers(0, cfg.n_classes, 100)
    rows = rng.permutation(100)[:64]
    model = init_model(dataclasses.replace(cfg, input_scale=active_rms_scale(x)), seed=0)
    grad, rest = gradient_models(model, rows.size)
    loss = backward(x, labels, model, grad, rest, rows=rows)
    digest = hashlib.sha256(np.float64(loss).tobytes())
    digest.update(grad.flat.tobytes())
    digest.update(forward(x[rows], model).tobytes())
    return digest.hexdigest()


def write_step_digests(path: str, configs=None) -> None:
    """``step_digest`` of each of ``configs`` (name -> model config; by default
    the STEP_PRESETS), as JSON at ``path``."""
    if configs is None:
        configs = {name: preset_config(*preset) for name, preset in STEP_PRESETS.items()}
    with open(path, "w") as fh:
        json.dump({name: step_digest(cfg) for name, cfg in configs.items()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def run_chains(src: str, out: str) -> None:
    """Run both chains with the package under ``src``, outputs under ``out``,
    and write ``out/step_digests.json`` with the same package."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    jobs = [(os.path.join(out, task), [RUN_CLI, *argv]) for task in CHAINS
            for argv in chain(task)]
    jobs.append((out, [STEP_DIGESTS, TOOLS, "step_digests.json"]))
    for cwd, job in jobs:
        os.makedirs(cwd, exist_ok=True)
        done = subprocess.run([sys.executable, "-c", *job], cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode:
            what = f"afpm {' '.join(job[1:])}" if job[0] == RUN_CLI else "step digests"
            raise RuntimeError(f"{src}: {what} exited {done.returncode}: "
                               f"{done.stderr.strip()}")


def files_under(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def compare(a: str, b: str) -> tuple[int, list[str]]:
    """Number of files compared and one line per file that differs or is one-sided."""
    fa, fb = files_under(a), files_under(b)
    lines = [f"only in REV: {p}" for p in sorted(fa - fb)]
    lines += [f"only in the working tree: {p}" for p in sorted(fb - fa)]
    lines += [f"differs: {p}" for p in sorted(fa & fb)
              if not filecmp.cmp(os.path.join(a, p), os.path.join(b, p), shallow=False)]
    return len(fa | fb), sorted(lines, key=lambda line: line.split(": ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="afpm-compare-")
    tree = os.path.join(tmp, "rev")
    out = os.path.join(tmp, "out")
    keep = False
    added = subprocess.run(["git", "-C", REPO, "worktree", "add", "--detach", tree, args.rev],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        if added.returncode:
            print(f"cannot check out {args.rev!r}: {added.stderr.strip()}", file=sys.stderr)
            return 2
        sides = {"rev": os.path.join(tree, "src"), "work": os.path.join(REPO, "src")}
        for side, src in sides.items():
            print(f"running both chains with {src}", flush=True)
            try:
                run_chains(src, os.path.join(out, side))
            except RuntimeError as e:
                print(e, file=sys.stderr)
                return 2
        n, lines = compare(os.path.join(out, "rev"), os.path.join(out, "work"))
        print("\n".join(lines + [f"{n} files compared, {len(lines)} differ"]))
        if lines:
            keep = True
            print(f"outputs kept in {out}")
        return 1 if lines else 0
    finally:
        if added.returncode == 0:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", tree],
                           check=False)
        if not keep:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

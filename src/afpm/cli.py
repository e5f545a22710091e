"""Command-line entrypoint wiring all subcommands.

``--threads N`` pins the BLAS thread pools, which must happen before numpy
is imported; that is why every heavy import lives inside the handlers.
``--threads 1`` guarantees bit-identical reruns for a fixed seed.

Exit codes: 0 success, 2 configuration error, 3 data error (an ``--out`` of
the wrong kind included), 4 numeric error, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, DataError, NumericError

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _set_thread_env(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


_OVERRIDE_FLAGS = {
    # (argparse flag, config section, key, type)
    "--embed-dim": ("fpe", "embed_dim", int),
    "--frame-window": ("fpe", "frame_window", int),
    "--frame-stride": ("fpe", "frame_stride", int),
    "--avg-window": ("fpe", "avg_window", int),
    "--avg-shift": ("fpe", "avg_shift", int),
    "--token-dim": ("fpe", "token_dim", int),
    "--mlp-hidden": ("fpe", "mlp_hidden", int),
    "--depth": ("transformer", "depth", int),
    "--heads": ("transformer", "heads", int),
    "--dim-head": ("transformer", "dim_head", int),
    "--dim-mlp": ("transformer", "dim_mlp", int),
    "--epochs": ("train", "epochs", int),
    "--batch-size": ("train", "batch_size", int),
    "--lr-init": ("train", "lr_init", float),
    "--lr-max": ("train", "lr_max", float),
    "--weight-decay": ("train", "weight_decay", float),
    "--seed": ("train", "seed", int),
}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for flag, (_, key, typ) in _OVERRIDE_FLAGS.items():
        p.add_argument(flag, type=typ, default=None, dest=f"ov_{key}")
    p.add_argument("--config", default=None, help="JSON config file")


def _overrides_from(args: argparse.Namespace) -> dict:
    ov: dict[str, dict] = {}
    for _, (section, key, _typ) in _OVERRIDE_FLAGS.items():
        val = getattr(args, f"ov_{key}", None)
        if val is not None:
            ov.setdefault(section, {})[key] = val
    return ov


def _common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    """``--threads``, and ``--seed`` where no model flag overrides ``train.seed``."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS thread count; 1 gives bit-deterministic runs")


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", required=True, choices=("mi", "erp"))
    p.add_argument("--domains", type=int, default=4)
    p.add_argument("--trials", type=int, default=100, help="trials per domain")
    p.add_argument("--snr", type=float, default=6.0, help="signal-to-noise in dB")
    p.add_argument("--out", required=True)
    p.add_argument("--channels", default="default", choices=("default", "train", "eval"),
                   help="channel-subset catalogue to cycle through")
    p.add_argument("--rate", type=float, default=256.0)
    p.add_argument("--trial-len", type=float, default=None,
                   help="trial length in seconds (default 3.0 MI / 1.0 ERP)")
    p.add_argument("--domain-gain", type=float, default=0.3)
    p.add_argument("--class-ratio", type=float, default=None,
                   help="ERP target fraction (default 1/6); MI labels split half and half")
    p.add_argument("--name", default=None)
    _common(p)


def _preprocess_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", default=None, help="LO:HI in Hz (default by task)")
    _common(p)


def _align_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", required=True, choices=("mi", "erp"))
    p.add_argument("--no-select", action="store_true",
                   help="widen the target set to the union of observed channels")
    p.add_argument("--no-ea", action="store_true", help="skip Euclidean alignment")
    p.add_argument("--no-map", action="store_true",
                   help="keep original channel order, skip template placement")
    p.add_argument("--union-from", nargs="*", default=None,
                   help="datasets whose channels define the --no-select union")
    _common(p)


def _train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--task", required=True, choices=("mi", "erp"))
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--per-channel-patches", action="store_true",
                   help="one channel per patch (frame-encoding ablation)")
    _add_model_flags(p)
    _common(p, seed=False)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("mi", "erp"), default=None,
                   help="expected task; must match the checkpoint")
    p.add_argument("--out", default=None, help="directory for report.json")
    _common(p)


def _ablate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", dest="train_dirs", nargs="+", required=True)
    p.add_argument("--eval", dest="eval_dirs", nargs="+", required=True)
    p.add_argument("--task", required=True, choices=("mi", "erp"))
    p.add_argument("--variants", default="all",
                   help="'all' or comma list of FULL,NO_SELECT,NO_EA,NO_MAP,NO_FPE")
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    _common(p, seed=False)


def _finetune_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    _common(p, seed=False)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``afpm`` parser with every command's subparser, or with ``command``'s alone.

    Both are built from ``_COMMANDS``. A parser built for one command parses
    that command's arguments, and prints its help and errors, as the full
    parser does: its usage line still names every command. ``main`` builds
    one for a known command and the full parser for anything else (no
    command, ``--help``, an unknown name).
    """
    ap = argparse.ArgumentParser(
        prog="afpm",
        description="Calibration-free cross-dataset EEG decoding pipeline",
    )
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{%s}" % ",".join(_COMMANDS) if command else None)
    for name in (command,) if command else _COMMANDS:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


# ---------------------------------------------------------------------------
# handlers


def _cmd_synth(args) -> int:
    from dataclasses import asdict

    from .data_model import echo_config
    from .synth import SynthSpec, default_subsets, generate_dataset

    if args.task == "mi" and args.class_ratio is not None:
        raise ConfigError("--class-ratio sets the ERP target fraction; "
                          "MI labels are always split half and half")
    spec = SynthSpec(
        task=args.task, n_domains=args.domains, trials_per_domain=args.trials,
        channel_subsets=default_subsets(args.task, args.domains, args.channels),
        rate_hz=args.rate, trial_len_s=args.trial_len,
        snr_db=args.snr, domain_gain=args.domain_gain,
        class_ratio=SynthSpec.class_ratio if args.class_ratio is None else args.class_ratio,
        name=args.name or f"synth_{args.task}",
    )
    manifest = generate_dataset(spec, args.seed, args.out)
    echo_config(args.out, "synth", _public_args(args), asdict(spec))
    print(f"wrote {len(manifest.trials)} trials in {spec.n_domains} domains to {args.out}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    from dataclasses import asdict, replace

    from .data_model import TEMPLATE_RATE_HZ, echo_config, load_manifest
    from .preprocessing import default_config, preprocess_dataset

    edges = {}
    if args.band:
        try:
            lo, hi = (float(v) for v in args.band.split(":"))
        except ValueError:
            raise ConfigError(f"--band takes LO:HI in Hz, got {args.band!r}") from None
        edges = {"band_lo_hz": lo, "band_hi_hz": hi}
    manifest = load_manifest(args.in_dir)
    pp = replace(default_config(manifest.task), **edges)
    out = preprocess_dataset(manifest, pp, args.out)
    echo_config(args.out, "preprocess", _public_args(args),
                {**asdict(pp), "target_rate_hz": TEMPLATE_RATE_HZ,
                 "unit_scale": manifest.unit_scale})
    print(f"preprocessed {len(out.trials)} trials to {args.out}")
    return EXIT_OK


def _cmd_align(args) -> int:
    from .alignment import align_dataset, union_template
    from .data_model import echo_config, load_manifest, task_template

    if args.union_from is not None and not args.no_select:
        raise ConfigError("--union-from defines the --no-select union; it needs --no-select")
    manifest = load_manifest(args.in_dir)
    spec = task_template(args.task)
    if args.no_select:
        source = [load_manifest(p) for p in (args.union_from or [args.in_dir])]
        spec = union_template(source, spec)
    out = align_dataset(manifest, args.out, spec,
                        ea=not args.no_ea, mapping=not args.no_map)
    echo_config(args.out, "align", _public_args(args), {
        "template": {"channels": list(spec.target_channels), "len": spec.template_len},
        "ea": not args.no_ea, "mapping": not args.no_map,
    })
    print(f"aligned {len(out.trials)} trials to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .config import resolve_config
    from .data_model import atomic_open, echo_config, load_manifest
    from .model import init_model, save_checkpoint
    from .pipeline import stack_aligned, stacked_model_config
    from .training import train

    cfg = resolve_config(args.task, args.config, _overrides_from(args))
    manifests = [load_manifest(p) for p in args.data]
    x, y, _, layout = stack_aligned(manifests, cfg.task)
    model_cfg = stacked_model_config(cfg, x, layout, args.per_channel_patches)
    model = init_model(model_cfg, seed=cfg.train.seed)

    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    print(f"training on {x.shape[0]} trials "
          f"({x.shape[1]} channels x {x.shape[2]} samples), "
          f"{model.flat.size} parameters")
    result = train(x, y, model, cfg.train, log=print)
    divergence = (f"training diverged at step {len(result.history) + 1}; "
                  f"kept last finite checkpoint")
    if result.diverged:
        print(divergence)
    save_checkpoint(result.model, args.out,
                    extra={"task": cfg.task, "diverged": result.diverged,
                           "n_train_trials": int(x.shape[0])})
    with atomic_open(os.path.join(out_dir, "history.csv")) as f:
        f.write(result.history_csv())
    echo_config(out_dir, "train", _public_args(args), cfg.to_dict())
    final = result.history[-1]["loss"] if result.history else float("nan")
    print(f"saved checkpoint to {args.out} (final loss {final:.4f})")
    if result.diverged:
        raise NumericError(divergence)
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .data_model import atomic_open, echo_config, load_manifest
    from .evaluation import evaluate_dataset
    from .model import load_checkpoint

    model, _, _ = load_checkpoint(args.ckpt)
    cfg = model.cfg
    if args.task and args.task != cfg.task:
        raise ConfigError(f"--task {args.task} does not match the checkpoint's task "
                          f"{cfg.task!r}")
    manifest = load_manifest(args.data)
    report = evaluate_dataset(model, manifest)
    doc = json.dumps(report.to_dict(), indent=1, sort_keys=True)
    print(report.table())
    print(doc)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_open(os.path.join(args.out, "report.json")) as f:
            f.write(doc + "\n")
        with atomic_open(os.path.join(args.out, "report.txt")) as f:
            f.write(report.table() + "\n")
        echo_config(args.out, "eval", _public_args(args), {
            "task": cfg.task, "class_names": list(cfg.class_names),
            "template": {"channels": list(cfg.template_channels), "len": cfg.template_len},
        })
    return EXIT_OK


def _cmd_ablate(args) -> int:
    from .ablation import VARIANTS, ablation_csv, run_ablation
    from .config import resolve_config
    from .data_model import atomic_open, echo_config

    cfg = resolve_config(args.task, args.config, _overrides_from(args))
    variants = (VARIANTS if args.variants == "all"
                else tuple(v.strip().upper() for v in args.variants.split(",")))
    results = run_ablation(cfg, variants, args.train_dirs, args.eval_dirs,
                           os.path.join(args.out, "work"))
    os.makedirs(args.out, exist_ok=True)
    csv = ablation_csv(results)
    with atomic_open(os.path.join(args.out, "ablation.csv")) as f:
        f.write(csv)
    table = {
        variant: {name: rep.to_dict() for name, rep in reports.items()}
        for variant, reports in results.items()
    }
    with atomic_open(os.path.join(args.out, "ablation.json")) as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    echo_config(args.out, "ablate", _public_args(args), cfg.to_dict())
    print(csv, end="")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    import numpy as np

    from .data_model import atomic_open, echo_config, load_manifest
    from .evaluation import (
        compute_metrics, model_inputs, subject_groups, task_metrics, undefined_metrics,
    )
    from .model import forward, load_checkpoint, save_checkpoint
    from .training import chronological_split, train

    model, _, _ = load_checkpoint(args.ckpt)
    manifest = load_manifest(args.data)
    task = model.cfg.task
    cfg = _finetune_config(model.cfg, args)
    x, y, domains, positive = model_inputs(model, manifest)

    groups = subject_groups(domains)
    names = {s: s.replace(":", "_").replace("/", "_") + ".ckpt" for s in groups}
    owners: dict[str, str] = {}
    for subject, name in names.items():
        other = owners.setdefault(name, subject)
        if other != subject:
            raise DataError(f"subjects {other!r} and {subject!r} would both "
                            f"write checkpoint {name}")
    # every subject is split, and its split checked, before any training or writing
    classes = model.cfg.class_names
    splits = {}
    for subject, idx in groups.items():
        try:
            tune, held = chronological_split(idx.size, args.fraction)
        except DataError as e:
            raise DataError(f"subject {subject!r}: {e}") from e
        tune, held = idx[tune], idx[held]
        counts = np.bincount(y[tune], minlength=len(classes))
        if not counts.all():
            raise DataError(f"subject {subject!r}: its first {tune.size} trials (the "
                            f"tune split) hold no {classes[np.argmin(counts)]!r} trial")
        undefined = undefined_metrics(task, y[held], positive)
        if undefined:
            raise DataError(f"subject {subject!r}: its last {held.size} trials (the "
                            f"evaluation split) leave {', '.join(undefined)} undefined")
        splits[subject] = tune, held
    per_subject = []
    os.makedirs(args.out, exist_ok=True)
    for subject, (tune, held) in splits.items():
        result = train(x[tune], y[tune], model, cfg.train)
        before = compute_metrics(task, forward(x[held], model), y[held], positive)
        after = compute_metrics(task, forward(x[held], result.model), y[held], positive)
        save_checkpoint(result.model, os.path.join(args.out, names[subject]),
                        extra={"task": task, "subject": subject})
        per_subject.append({"subject": subject, "n_tune": int(tune.size),
                            "n_eval": int(held.size), "before": before, "after": after})
    summary = {
        "fraction": args.fraction,
        "metrics": list(task_metrics(task)),
        "subjects": per_subject,
        "mean_before": {m: float(np.mean([s["before"][m] for s in per_subject]))
                        for m in task_metrics(task)},
        "mean_after": {m: float(np.mean([s["after"][m] for s in per_subject]))
                       for m in task_metrics(task)},
    }
    doc = json.dumps(summary, indent=1, sort_keys=True)
    with atomic_open(os.path.join(args.out, "finetune.json")) as f:
        f.write(doc + "\n")
    echo_config(args.out, "finetune", _public_args(args), cfg.to_dict())
    print(doc)
    return EXIT_OK


def _finetune_config(model_cfg, args: argparse.Namespace):
    """``finetune``'s run configuration: ``train`` resolved from the flags, the
    config file and the preset, ``fpe`` and ``transformer`` the checkpoint's.

    A flag or config-file key that gives one of the checkpoint's values
    another value would set nothing, so it is a configuration error; the
    flag wins over the file, as in ``resolve_config``.
    """
    from dataclasses import asdict, replace

    from .config import load_config_file, resolve_config

    file_doc = load_config_file(args.config) if args.config is not None else {}
    overrides = _overrides_from(args)
    cfg = resolve_config(model_cfg.task, file_doc, overrides)
    flags = {(section, key): flag for flag, (section, key, _) in _OVERRIDE_FLAGS.items()}
    for section in ("fpe", "transformer"):
        kept = asdict(getattr(model_cfg, section))
        flagged = overrides.get(section, {})
        for key, value in {**file_doc.get(section, {}), **flagged}.items():
            if value != kept[key]:
                given = flags[section, key] if key in flagged else f"config file {section}.{key}"
                raise ConfigError(f"{given} {value} does not match the checkpoint's "
                                  f"{section}.{key} {kept[key]}; finetune keeps the "
                                  "checkpoint's architecture")
    return replace(cfg, fpe=model_cfg.fpe, transformer=model_cfg.transformer)


def _require_out_kind(args: argparse.Namespace) -> None:
    """Refuse an existing ``--out`` of the wrong kind before any work: a
    directory as ``train``'s checkpoint, a file as any other command's directory."""
    if args.command == "train" and os.path.isdir(args.out):
        raise DataError(f"--out {args.out} is a directory; train writes a checkpoint file")
    if args.command != "train" and args.out and os.path.isfile(args.out):
        raise DataError(f"--out {args.out} is a file; {args.command} writes a directory")


def _public_args(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "command" and v is not None}


# Every command: its one-line help, the function that adds its arguments and
# its handler, in the order ``afpm --help`` lists them.
_COMMANDS = {
    "synth": ("generate a synthetic multi-domain dataset", _synth_args, _cmd_synth),
    "preprocess": ("band-pass, resample, rescale a dataset", _preprocess_args,
                   _cmd_preprocess),
    "align": ("channel-select, align, and map a dataset", _align_args, _cmd_align),
    "train": ("train a model on aligned datasets", _train_args, _cmd_train),
    "eval": ("calibration-free evaluation of a checkpoint", _eval_args, _cmd_eval),
    "ablate": ("run the ablation matrix", _ablate_args, _cmd_ablate),
    "finetune": ("subject-specific fine-tuning of a checkpoint", _finetune_args,
                 _cmd_finetune),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)

    _, _, handler = _COMMANDS[args.command]
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        _set_thread_env(args.threads)
        _require_out_kind(args)
        return handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""The CLI contract: every option sets something, and every malformed input
ends in one exit code with one line.

The option table (``test_every_option_sets_something``) runs each command of
``cli._COMMANDS`` on a toy MI chain twice per optional flag, with the flag's
default and with one other valid value, and compares the files each run
writes.

The malformed-input contract: one broken field, one exit code, one line.

A toy MI chain (synth -> preprocess -> align -> train at depth 1 for one
epoch) gives every input a command reads: a checkpoint, a raw and an aligned
dataset, and a ``--config`` file. Each case changes one field of one input,
replacing it by null, a string, -1, 0, 2.5, ``[]``, ``{}``, true or NaN, or
deleting it, and runs the command that reads it through ``cli.main``. Every
case must end in exit 0, 2 (configuration), 3 (data) or 4 (numeric); a
nonzero exit prints exactly one stderr line, and nothing escapes as an
exception. Each test collects every violation and reports them together.
"""

import argparse
import copy
import json
import math
import os
import shutil
import warnings

import pytest

from afpm.cli import _COMMANDS, main

VALUES = (None, "x", -1, 0, 2.5, [], {}, True, math.nan)
DELETE = object()
MUTATIONS = (*VALUES, DELETE)

TOY_MODEL = {
    "fpe": {"embed_dim": 8, "frame_window": 16, "frame_stride": 16, "avg_window": 2,
            "avg_shift": 2, "token_dim": 8, "mlp_hidden": 8},
    "transformer": {"depth": 1, "heads": 2, "dim_head": 4, "dim_mlp": 8},
    "train": {"epochs": 1, "batch_size": 8, "lr_init": 2.5e-4, "lr_max": 5e-4,
              "weight_decay": 0.01, "seed": 3},
}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The toy chain's directories, checkpoint and config file."""
    root = tmp_path_factory.mktemp("contract")
    raw, pre, ali = str(root / "raw"), str(root / "pre"), str(root / "ali")
    config, ckpt = root / "toy.json", str(root / "run" / "model.ckpt")
    config.write_text(json.dumps(TOY_MODEL))
    assert main(["synth", "--task", "mi", "--domains", "2", "--trials", "4",
                 "--trial-len", "1.0", "--out", raw, "--seed", "3"]) == 0
    assert main(["preprocess", "--in", raw, "--out", pre]) == 0
    assert main(["align", "--in", pre, "--out", ali, "--task", "mi"]) == 0
    assert main(["train", "--data", ali, "--task", "mi", "--out", ckpt,
                 "--config", str(config)]) == 0
    return root, raw, ali, ckpt, config


def key_paths(node, prefix=()):
    """The key path of every node below ``node`` (object keys, list indices)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` set to ``value``, or deleted."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def violation(argv, capsys, allowed=(0, 2, 3, 4)):
    """How ``main(argv)`` breaks the contract, or None when it keeps it.

    A warning counts as a stderr line: outside pytest it prints there.
    """
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (Exception, SystemExit) as e:
            return f"raised {type(e).__name__}: {e}"
    err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
    if code not in allowed:
        return f"exit {code}, stderr {err}"
    if code != 0 and len(err) != 1:
        return f"exit {code} with {len(err)} stderr lines: {err}"
    return None


def check_mutations(doc, paths, write, commands, capsys):
    """Every mutation of every path in ``paths``, written by ``write`` and read
    by each argv of ``commands``: the violations, each named by its command,
    path and value."""
    found = []
    for path in paths:
        for value in MUTATIONS:
            write(mutated(doc, path, value))
            for argv in commands:
                problem = violation(argv, capsys)
                if problem:
                    name = "delete" if value is DELETE else repr(value)
                    found.append(f"{argv[0]} {'.'.join(map(str, path))} = {name}: "
                                 f"{problem}")
    write(doc)
    return found


def split_checkpoint(path):
    with open(path, "rb") as f:
        header, payload = f.read().split(b"\n", 1)
    return json.loads(header), payload


def test_every_checkpoint_header_leaf(chain, tmp_path, capsys):
    """Each node of the header's ``config``, ``entries`` and ``extra``, through ``eval``."""
    _, _, ali, ckpt, _ = chain
    header, payload = split_checkpoint(ckpt)
    target = tmp_path / "model.ckpt"

    def write(doc):
        target.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    paths = [p for p in key_paths(header) if p[0] in ("config", "entries", "extra")]
    assert {p[0] for p in paths} == {"config", "entries", "extra"}
    assert check_mutations(header, paths, write,
                           [["eval", "--ckpt", str(target), "--data", ali]], capsys) == []


def test_truncated_checkpoints_are_data_errors(chain, tmp_path, capsys):
    _, _, ali, ckpt, _ = chain
    with open(ckpt, "rb") as f:
        blob = f.read()
    cut = blob.index(b"\n")
    target = tmp_path / "model.ckpt"
    found = []
    for size in (0, cut // 2, cut + 1, (cut + len(blob)) // 2, len(blob) - 1):
        target.write_bytes(blob[:size])
        problem = violation(["eval", "--ckpt", str(target), "--data", ali], capsys,
                            allowed=(3,))
        if problem:
            found.append(f"{size} of {len(blob)} bytes: {problem}")
    assert found == []


def dataset_copy(src, dst):
    """A copy of dataset ``src`` at ``dst``, its manifest and a manifest writer."""
    shutil.copytree(src, dst)
    manifest = dst / "manifest.json"
    doc = json.loads(manifest.read_text())

    def write(d):
        manifest.write_text(json.dumps(d))
    return doc, write


def test_every_raw_manifest_key(chain, tmp_path, capsys):
    """Each top-level key and each key of one trial record, through ``preprocess``."""
    _, raw, _, _, _ = chain
    doc, write = dataset_copy(raw, tmp_path / "raw")
    paths = [(key,) for key in doc] + [("trials", 0, key) for key in doc["trials"][0]]
    argv = ["preprocess", "--in", str(tmp_path / "raw"), "--out", str(tmp_path / "pre")]
    assert check_mutations(doc, paths, write, [argv], capsys) == []


def test_every_aligned_manifest_key(chain, tmp_path, capsys):
    """Each top-level key, each key of the ``alignment`` section and of its
    ``stage_hashes``, and each key of one trial record, through ``eval`` and
    ``train``."""
    _, _, ali, ckpt, config = chain
    doc, write = dataset_copy(ali, tmp_path / "ali")
    paths = ([(key,) for key in doc]
             + [p for p in key_paths(doc["alignment"], ("alignment",))
                if len(p) == 2 or p[1] == "stage_hashes"]
             + [("trials", 0, key) for key in doc["trials"][0]])
    data = str(tmp_path / "ali")
    commands = [["eval", "--ckpt", ckpt, "--data", data],
                ["train", "--data", data, "--task", "mi", "--out", str(tmp_path / "m.ckpt"),
                 "--config", str(config)]]
    assert check_mutations(doc, paths, write, commands, capsys) == []


def test_every_config_file_key(chain, tmp_path, capsys):
    """Each key of the ``fpe``, ``transformer`` and ``train`` sections, through ``train``."""
    _, _, ali, _, config = chain
    doc = json.loads(config.read_text())
    target = tmp_path / "cfg.json"

    def write(d):
        target.write_text(json.dumps(d))
    argv = ["train", "--data", ali, "--task", "mi", "--out", str(tmp_path / "m.ckpt"),
            "--config", str(target)]
    assert check_mutations(doc, list(key_paths(doc)), write, [argv], capsys) == []


# ---------------------------------------------------------------------------
# every option sets something

# Each command's arguments in the option table's runs. "{...}" fields name
# the inputs of ``option_inputs`` and ``{out}``, the run's own directory.
BASE_ARGV = {
    "synth": ["--task", "mi", "--domains", "2", "--trials", "4", "--trial-len", "1.0",
              "--out", "{out}"],
    "preprocess": ["--in", "{raw}", "--out", "{out}"],
    "align": ["--in", "{pre}", "--out", "{out}", "--task", "mi"],
    "train": ["--data", "{ali}", "--task", "mi", "--out", "{out}/model.ckpt",
              "--config", "{config}"],
    "eval": ["--ckpt", "{ckpt}", "--data", "{ali}", "--out", "{out}"],
    "ablate": ["--train", "{pre}", "--eval", "{pre}", "--task", "mi", "--out", "{out}",
               "--config", "{config}", "--variants", "FULL"],
    "finetune": ["--ckpt", "{ckpt}", "--data", "{ali}", "--out", "{out}",
                 "--config", "{config}"],
}
# Another valid value of each model flag, against ``TOY_MODEL``.
MODEL_FLAG_VALUES = {
    "--embed-dim": "4", "--frame-window": "8", "--frame-stride": "8", "--avg-window": "1",
    "--avg-shift": "1", "--token-dim": "4", "--mlp-hidden": "4", "--depth": "2",
    "--heads": "1", "--dim-head": "2", "--dim-mlp": "4", "--epochs": "2",
    "--batch-size": "4", "--lr-init": "1e-4", "--lr-max": "1e-3", "--weight-decay": "0.1",
    "--seed": "4",
}
# (command, flag): the flag's tokens in the second run, and the arguments
# both runs add to the command's base arguments.
OPTION_VALUES = {
    ("synth", "--domains"): (["3"], []),
    ("synth", "--trials"): (["5"], []),
    ("synth", "--snr"): (["0"], []),
    ("synth", "--channels"): (["eval"], []),
    ("synth", "--rate"): (["200"], []),
    ("synth", "--trial-len"): (["1.5"], []),
    ("synth", "--domain-gain"): (["0.5"], []),
    ("synth", "--class-ratio"): (["0.3"], []),        # MI: exits 2
    ("synth", "--name"): (["other"], []),
    ("synth", "--seed"): (["1"], []),
    ("preprocess", "--band"): (["8:30"], []),
    ("align", "--no-select"): ([], []),
    ("align", "--no-ea"): ([], []),
    ("align", "--no-map"): ([], []),
    ("align", "--union-from"): (["{wide}"], ["--no-select"]),
    ("train", "--per-channel-patches"): ([], []),
    **{("train", flag): ([value], []) for flag, value in MODEL_FLAG_VALUES.items()},
    ("eval", "--out"): (["{out}"], []),
    ("ablate", "--variants"): (["FULL,NO_EA"], []),
    **{("ablate", flag): ([value], []) for flag, value in MODEL_FLAG_VALUES.items()},
    ("finetune", "--fraction"): (["0.6"], []),
    **{("finetune", flag): ([value], []) for flag, value in MODEL_FLAG_VALUES.items()},
    # a one-step run trains at lr_init alone
    ("finetune", "--lr-max"): (["1e-3"], ["--epochs", "2"]),
}
# Flags that set nothing on purpose, with the reason. Each must keep setting
# nothing: the second value runs too, and its outputs must equal the first's.
SETS_NOTHING = {
    ("preprocess", "--seed"): (["5"], "draws nothing; kept because perfbench/bench.py "
                                      "passes --seed to every stage"),
    ("align", "--seed"): (["5"], "draws nothing; kept because perfbench/bench.py passes "
                                 "--seed to every stage"),
    ("eval", "--seed"): (["5"], "draws nothing; kept because perfbench/bench.py passes "
                                "--seed to every stage"),
    ("eval", "--task"): (["mi"], "checks the checkpoint's task; a matching value "
                                 "changes nothing"),
}
UNTESTED = {"--threads", "--config", "--help"}


def optional_flags():
    """(command, flag) of every optional flag of every command in ``_COMMANDS``."""
    for command, (_, add_arguments, _) in _COMMANDS.items():
        parser = argparse.ArgumentParser()
        add_arguments(parser)
        for action in parser._actions:
            flag = max(action.option_strings, key=len, default=None)
            if flag and not action.required and flag not in UNTESTED:
                yield command, flag


@pytest.fixture(scope="module")
def option_inputs(tmp_path_factory):
    """A raw, a preprocessed and an aligned MI set of 2 subjects x 10 trials,
    a raw set over the eval channel catalogue, a toy checkpoint and config."""
    root = tmp_path_factory.mktemp("options")
    paths = {k: str(root / k) for k in ("raw", "pre", "ali", "wide")}
    paths["config"], paths["ckpt"] = str(root / "toy.json"), str(root / "run" / "model.ckpt")
    (root / "toy.json").write_text(json.dumps(TOY_MODEL))
    synth = ["synth", "--task", "mi", "--domains", "2", "--trials", "10", "--trial-len", "1.0"]
    assert main([*synth, "--out", paths["raw"]]) == 0
    assert main([*synth, "--channels", "eval", "--out", paths["wide"]]) == 0
    assert main(["preprocess", "--in", paths["raw"], "--out", paths["pre"]]) == 0
    assert main(["align", "--in", paths["pre"], "--out", paths["ali"], "--task", "mi"]) == 0
    assert main(["train", "--data", paths["ali"], "--task", "mi", "--out", paths["ckpt"],
                 "--config", paths["config"]]) == 0
    return root, paths


def run_outputs(argv, out, paths):
    """Exit code of ``argv`` run into a fresh ``out``, and every file it wrote
    there except ``run_config.json``, by relative path."""
    shutil.rmtree(out, ignore_errors=True)
    code = main([a.format(out=out, **paths) for a in argv])
    files = {}
    for top, _, names in os.walk(out):
        for name in names:
            if name != "run_config.json":
                path = os.path.join(top, name)
                with open(path, "rb") as f:
                    files[os.path.relpath(path, out)] = f.read()
    return code, files


def test_every_option_sets_something(option_inputs, capsys):
    """For each command and each optional flag but ``--threads`` and
    ``--config``, the command runs with the flag's default and with one other
    valid value. The second run's outputs, apart from ``run_config.json``,
    differ from the first's, or it exits 2. A flag in ``SETS_NOTHING`` must
    instead leave every output as it was."""
    root, paths = option_inputs
    flags = set(optional_flags())
    assert flags == OPTION_VALUES.keys() | SETS_NOTHING.keys()
    assert not OPTION_VALUES.keys() & SETS_NOTHING.keys()
    out = str(root / "out")
    first_runs = {}
    found = []
    for command, flag in sorted(flags):
        if (command, flag) in SETS_NOTHING:
            value, context = SETS_NOTHING[command, flag][0], []
        else:
            value, context = OPTION_VALUES[command, flag]
        base = [command, *BASE_ARGV[command], *context]
        if flag in base:            # the base sets it for speed: drop it
            i = base.index(flag)
            del base[i:i + 2]
        key = tuple(base)
        if key not in first_runs:
            first_runs[key] = run_outputs(base, out, paths)
        code, files = first_runs[key]
        assert code == 0, (base, capsys.readouterr().err)
        second = run_outputs([*base, flag, *value], out, paths)
        capsys.readouterr()
        if (command, flag) in SETS_NOTHING:
            if second != (0, files):
                found.append(f"{command} {flag}: listed as setting nothing, but it does")
        elif second == (0, files):
            found.append(f"{command} {flag} {' '.join(value)}: sets nothing")
        elif second[0] not in (0, 2):
            found.append(f"{command} {flag} {' '.join(value)}: exit {second[0]}")
    assert found == []

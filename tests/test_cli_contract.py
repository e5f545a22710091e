"""The malformed-input contract: one broken field, one exit code, one line.

A toy MI chain (synth -> preprocess -> align -> train at depth 1 for one
epoch) gives every input a command reads: a checkpoint, a raw and an aligned
dataset, and a ``--config`` file. Each case changes one field of one input,
replacing it by null, a string, -1, 0, 2.5, ``[]``, ``{}``, true or NaN, or
deleting it, and runs the command that reads it through ``cli.main``. Every
case must end in exit 0, 2 (configuration), 3 (data) or 4 (numeric); a
nonzero exit prints exactly one stderr line, and nothing escapes as an
exception. Each test collects every violation and reports them together.
"""

import copy
import json
import math
import shutil
import warnings

import pytest

from afpm.cli import main

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

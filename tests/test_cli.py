import json
import math
import struct

import numpy as np
import pytest

import afpm.cli
import afpm.config
import afpm.data_model
from afpm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from afpm.config import echo_config, load_config_file, resolve_config
from afpm.errors import ConfigError
from afpm.model import load_checkpoint

from conftest import fail_writes_in


class TestResolveConfig:
    def test_mi_preset_matches_published_hyperparameters(self):
        cfg = resolve_config("mi")
        assert cfg.fpe.embed_dim == 20
        assert cfg.fpe.frame_window == 25
        assert cfg.fpe.avg_window == 25
        assert cfg.fpe.avg_shift == 5
        assert cfg.transformer.depth == 6
        assert cfg.transformer.heads == 8
        assert cfg.transformer.dim_head == 64
        assert cfg.transformer.dim_mlp == 40
        assert cfg.template.n_channels == 17

    def test_erp_preset_matches_published_hyperparameters(self):
        cfg = resolve_config("erp")
        assert cfg.fpe.embed_dim == 20
        assert cfg.fpe.frame_window == 25
        assert cfg.fpe.avg_window == 5
        assert cfg.fpe.avg_shift == 2
        assert cfg.transformer.depth == 6
        assert cfg.transformer.heads == 8
        assert cfg.transformer.dim_head == 10
        assert cfg.transformer.dim_mlp == 20
        assert cfg.template.n_channels == 28

    def test_override_precedence_cli_over_file_over_preset(self, tmp_path):
        file_path = tmp_path / "cfg.json"
        file_path.write_text(json.dumps(
            {"transformer": {"depth": 2}, "train": {"epochs": 7}}))
        cfg = resolve_config("erp", str(file_path),
                            {"transformer": {"depth": 3}})
        assert cfg.transformer.depth == 3      # CLI wins
        assert cfg.train.epochs == 7           # file wins over preset
        assert cfg.transformer.dim_head == 10  # preset survives

    def test_unknown_file_key_named(self, tmp_path):
        file_path = tmp_path / "cfg.json"
        file_path.write_text(json.dumps({"transformer": {"depht": 2}}))
        with pytest.raises(ConfigError, match="depht"):
            resolve_config("mi", str(file_path))

    def test_unknown_top_level_key_named(self, tmp_path):
        file_path = tmp_path / "cfg.json"
        file_path.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(ConfigError, match="optimizer"):
            load_config_file(str(file_path))

    def test_no_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            resolve_config(None)


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One tiny synth -> preprocess -> align -> train -> eval CLI pipeline."""
    root = tmp_path_factory.mktemp("cli")
    raw, pre, ali = str(root / "raw"), str(root / "pre"), str(root / "ali")
    ckpt = str(root / "run" / "model.ckpt")
    assert main(["synth", "--task", "mi", "--domains", "2", "--trials", "12",
                 "--trial-len", "1.0", "--out", raw, "--seed", "3"]) == 0
    assert main(["preprocess", "--in", raw, "--out", pre]) == 0
    assert main(["align", "--in", pre, "--out", ali, "--task", "mi"]) == 0
    assert main(toy_train(ali, ckpt) + ["--epochs", "2"]) == 0
    return root, raw, pre, ali, ckpt


def toy_train(ali: str, ckpt: str) -> list[str]:
    """`train` arguments of the toy pipeline, without --epochs."""
    return ["train", "--data", ali, "--task", "mi", "--out", ckpt,
            "--batch-size", "8", "--depth", "1", "--heads", "2", "--dim-head", "4",
            "--seed", "3", "--frame-window", "16", "--frame-stride", "16",
            "--avg-window", "2", "--avg-shift", "2"]


class TestPipeline:
    def test_full_pipeline_emits_report(self, pipeline_dirs, capsys):
        root, raw, pre, ali, ckpt = pipeline_dirs
        out = str(root / "eval")
        assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", out,
                     "--seed", "0"]) == 0
        report = json.loads((root / "eval" / "report.json").read_text())
        assert set(report["metrics"]) == {"balanced_accuracy", "auc_pr"}
        assert report["n_trials"] == 24

    def test_run_config_echoed(self, pipeline_dirs):
        root, raw, pre, ali, ckpt = pipeline_dirs
        doc = json.loads((root / "run" / "run_config.json").read_text())
        assert doc["command"] == "train"
        assert doc["resolved"]["transformer"]["depth"] == 1
        assert doc["resolved"]["train"]["epochs"] == 2
        assert (root / "run" / "history.csv").exists()
        assert (root / "run" / "train.log").exists()

    def test_eval_with_wrong_task_checkpoint_is_data_error(self, pipeline_dirs, tmp_path):
        root, raw, pre, ali, ckpt = pipeline_dirs
        raw2, pre2, ali2 = str(tmp_path / "r"), str(tmp_path / "p"), str(tmp_path / "a")
        assert main(["synth", "--task", "erp", "--domains", "1", "--trials", "12",
                     "--out", raw2, "--seed", "0"]) == 0
        assert main(["preprocess", "--in", raw2, "--out", pre2]) == 0
        assert main(["align", "--in", pre2, "--out", ali2, "--task", "erp"]) == 0
        assert main(["eval", "--ckpt", ckpt, "--data", ali2]) == EXIT_DATA

    def test_missing_dataset_is_data_error(self, pipeline_dirs):
        _, _, _, _, ckpt = pipeline_dirs
        assert main(["eval", "--ckpt", ckpt, "--data", "/nonexistent"]) == EXIT_DATA

    def test_bad_config_file_is_config_error(self, pipeline_dirs, tmp_path):
        root, raw, pre, ali, ckpt = pipeline_dirs
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        code = main(["train", "--data", ali, "--task", "mi",
                     "--out", str(tmp_path / "m.ckpt"), "--config", str(bad)])
        assert code == EXIT_CONFIG

    def test_finetune_cli(self, pipeline_dirs, tmp_path):
        root, raw, pre, ali, ckpt = pipeline_dirs
        out = str(tmp_path / "ft")
        assert main(["finetune", "--ckpt", ckpt, "--data", ali,
                     "--fraction", "0.3", "--out", out,
                     "--epochs", "1", "--batch-size", "4", "--seed", "0"]) == 0
        doc = json.loads((tmp_path / "ft" / "finetune.json").read_text())
        assert len(doc["subjects"]) == 2
        assert "mean_before" in doc and "mean_after" in doc

    def test_readme_finetune_example(self, pipeline_dirs, tmp_path):
        root, raw, pre, ali, ckpt = pipeline_dirs
        assert main(["finetune", "--ckpt", ckpt, "--data", ali,
                     "--fraction", "0.3", "--out", str(tmp_path / "ft"),
                     "--epochs", "10", "--lr-max", "1e-4", "--lr-init", "5e-5"]) == 0


def corrupt_checkpoint(blob: bytes, defect: str) -> bytes:
    if defect == "truncated":
        return blob[:-10]
    header_line, payload = blob.split(b"\n", 1)
    header = json.loads(header_line)
    if defect == "nan":
        payload = struct.pack("<f", math.nan) + payload[4:]
    elif defect == "duplicate":
        # the first tensor listed again at the end, with its own payload
        first = header["entries"][0]
        header["entries"].append(dict(first))
        payload += bytes(4 * math.prod(first["shape"]))
    elif defect == "list":
        header = [header]
    elif defect == "config.fpe":
        del header["config"]["fpe"]
    elif defect == "config.avg_window":
        header["config"]["fpe"]["avg_window"] = 999
    elif defect == "config.template_len":
        header["config"]["template_len"] = 0
    elif defect == "config.task":
        header["config"]["task"] = "xx"
    elif defect == "v1":
        # the previous format: AdamW moments m and v after the parameters
        header.update(format="afpm-checkpoint-v1", opt={"step": 1})
        header["entries"] += [dict(e, kind=kind) for kind in ("m", "v")
                              for e in header["entries"]]
        payload *= 3
    elif defect.startswith("entry."):
        del header["entries"][3][defect.split(".")[1]]
    else:
        del header[defect]
    return json.dumps(header).encode("utf-8") + b"\n" + payload


@pytest.mark.parametrize("defect", [
    "truncated", "config", "entries", "v1", "list", "config.fpe",
    "config.avg_window", "config.template_len", "config.task",
    "entry.shape", "entry.name", "entry.kind", "duplicate", "nan",
])
def test_bad_checkpoint_is_one_line_data_error(defect, pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, ckpt = pipeline_dirs
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt_checkpoint(open(ckpt, "rb").read(), defect))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(bad), "--data", ali]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: checkpoint"), err


@pytest.mark.filterwarnings("error")
def test_diverged_train_saves_last_finite_parameters(pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, _ = pipeline_dirs
    diverged, initial = str(tmp_path / "div" / "m.ckpt"), str(tmp_path / "init" / "m.ckpt")
    capsys.readouterr()
    # the first update overflows float32, so the run keeps its initial weights
    assert main(toy_train(ali, diverged) + ["--epochs", "2", "--lr-init", "1e39",
                                            "--lr-max", "1e39"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == ""
    assert main(toy_train(ali, initial) + ["--epochs", "0"]) == 0
    (model, _, extra), (model0, _, _) = load_checkpoint(diverged), load_checkpoint(initial)
    assert extra["diverged"] is True
    assert model.params.keys() == model0.params.keys()
    for name, arr in model.params.items():
        assert np.array_equal(arr, model0.params[name]), name
    assert main(["eval", "--ckpt", diverged, "--data", ali]) == 0


def test_interrupted_writes_keep_previous_files(pipeline_dirs, tmp_path, monkeypatch):
    _, _, _, ali, ckpt = pipeline_dirs
    run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
    echo_config(resolve_config("mi"), str(run_dir), "train", {"seed": 0})
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(eval_dir)]) == 0
    files = [run_dir / "run_config.json", eval_dir / "report.json", eval_dir / "report.txt"]
    before = [f.read_bytes() for f in files]

    fail_writes_in(monkeypatch, afpm.config, afpm.data_model)
    with pytest.raises(OSError, match="mid-write"):
        echo_config(resolve_config("erp"), str(run_dir), "train", {"seed": 1})
    # the report is one write: fail on the first
    fail_writes_in(monkeypatch, afpm.cli, afpm.data_model, fail_at=1)
    with pytest.raises(OSError, match="mid-write"):
        main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(eval_dir), "--folds", "2"])
    assert [f.read_bytes() for f in files] == before
    assert sorted(p.name for p in run_dir.iterdir()) == ["run_config.json"]
    assert sorted(p.name for p in eval_dir.iterdir()) == ["report.json", "report.txt"]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_data_aligned_for_other_task_is_data_error(command, pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, _ = pipeline_dirs
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--data", ali, "--task", "erp", "--out", out + "/m.ckpt"]
    else:
        argv = ["ablate", "--train", ali, "--eval", ali, "--task", "erp", "--out", out]
    capsys.readouterr()
    assert main(argv + ["--epochs", "1", "--depth", "1"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'mi'" in err[0] and "'erp'" in err[0], err
    assert not (tmp_path / "out").exists()


def test_cli_determinism_bit_identical(tmp_path):
    """Same seed, --threads 1: checkpoints and reports match byte for byte."""
    outs = []
    for run in ("x", "y"):
        d = tmp_path / run
        raw, pre, ali = str(d / "raw"), str(d / "pre"), str(d / "ali")
        ckpt = str(d / "run" / "model.ckpt")
        ev = str(d / "eval")
        assert main(["synth", "--task", "erp", "--domains", "2", "--trials", "18",
                     "--out", raw, "--seed", "11", "--threads", "1"]) == 0
        assert main(["preprocess", "--in", raw, "--out", pre, "--threads", "1"]) == 0
        assert main(["align", "--in", pre, "--out", ali, "--task", "erp",
                     "--threads", "1"]) == 0
        assert main(["train", "--data", ali, "--task", "erp", "--out", ckpt,
                     "--epochs", "2", "--batch-size", "8", "--depth", "1",
                     "--seed", "11", "--threads", "1"]) == 0
        assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", ev,
                     "--seed", "11", "--threads", "1"]) == 0
        outs.append((open(ckpt, "rb").read(), (d / "eval" / "report.json").read_bytes()))
    assert outs[0][0] == outs[1][0], "checkpoints differ between identical runs"
    assert outs[0][1] == outs[1][1], "reports differ between identical runs"


def test_eval_task_flag_must_match_checkpoint(pipeline_dirs):
    _, _, _, ali, ckpt = pipeline_dirs
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--task", "erp"]) == EXIT_CONFIG
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--task", "mi"]) == 0


def test_data_root_env_resolves_relative_paths(pipeline_dirs, tmp_path, monkeypatch):
    root, raw, pre, ali, ckpt = pipeline_dirs
    monkeypatch.setenv("AFPM_DATA_ROOT", str(root))
    assert main(["eval", "--ckpt", ckpt, "--data", "ali", "--seed", "0"]) == 0


def test_ablate_cli_tiny(tmp_path):
    raw_tr, raw_ev = str(tmp_path / "tr"), str(tmp_path / "ev")
    assert main(["synth", "--task", "mi", "--domains", "2", "--trials", "10",
                 "--trial-len", "1.0", "--out", raw_tr, "--seed", "0"]) == 0
    assert main(["synth", "--task", "mi", "--domains", "1", "--trials", "8",
                 "--trial-len", "1.0", "--channels", "eval",
                 "--out", raw_ev, "--seed", "1"]) == 0
    out = str(tmp_path / "abl")
    code = main(["ablate", "--train", raw_tr, "--eval", raw_ev, "--task", "mi",
                 "--variants", "FULL,NO_EA", "--out", out, "--seed", "0",
                 "--epochs", "1", "--batch-size", "8", "--depth", "1",
                 "--heads", "2", "--dim-head", "4", "--frame-window", "16",
                 "--frame-stride", "16", "--avg-window", "2", "--avg-shift", "2",
                 "--token-dim", "8", "--mlp-hidden", "6"])
    assert code == 0
    csv = (tmp_path / "abl" / "ablation.csv").read_text()
    assert "FULL" in csv and "NO_EA" in csv
    assert (tmp_path / "abl" / "ablation.json").exists()

import json
import math
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import afpm.cli
import afpm.data_model
import afpm.model
from afpm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from afpm.config import load_config_file, resolve_config
from afpm.data_model import echo_config, task_template
from afpm.errors import ConfigError
from afpm.model import load_checkpoint

from conftest import fail_writes_in, write_toy_dataset


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
        assert task_template(cfg.task).n_channels == 17

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
        assert task_template(cfg.task).n_channels == 28

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

    @pytest.mark.parametrize("doc", [
        {"fpe": {"embed_dim": 20.0}}, {"fpe": {"frame_window": "25"}},
        {"transformer": {"depth": True}}, {"transformer": {"heads": 8.0}},
        {"train": {"epochs": 2.5}}, {"train": {"batch_size": False}},
        {"train": {"seed": 1.5}},
    ])
    def test_non_integer_sizes_rejected(self, doc):
        with pytest.raises(ConfigError, match="must be an integer"):
            resolve_config("mi", config_file=doc)

    def test_no_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            resolve_config(None)

    def test_readme_config_block_resolves_for_both_tasks(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(block)
        doc = load_config_file(str(path))
        for task in ("mi", "erp"):
            resolved = resolve_config(task, str(path)).to_dict()
            for section_name, values in doc.items():
                assert resolved[section_name] == values, (task, section_name)


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
        assert isinstance(report["constant_prediction"], bool)
        assert sorted(report["subjects"]) == ["synth_mi:s00", "synth_mi:s01"]
        for rec in report["subjects"].values():
            assert rec["n_trials"] == 12 == np.sum(rec["confusion"])
            assert set(rec["metrics"]) == {"balanced_accuracy", "auc_pr"}
        lines = (root / "eval" / "report.txt").read_text().splitlines()
        assert sum(line.startswith("  synth_mi:s0") for line in lines) == 2
        echoed = json.loads((root / "eval" / "run_config.json").read_text())
        assert (echoed["command"], echoed["args"]["ckpt"]) == ("eval", ckpt)
        model, _, _ = load_checkpoint(ckpt)
        assert echoed["resolved"] == {
            "task": "mi", "class_names": list(model.cfg.class_names),
            "template": {"channels": list(model.cfg.template_channels), "len": 1280}}

    def test_run_config_echoed(self, pipeline_dirs):
        root, raw, pre, ali, ckpt = pipeline_dirs
        doc = json.loads((root / "run" / "run_config.json").read_text())
        assert doc["command"] == "train"
        assert doc["resolved"]["transformer"]["depth"] == 1
        assert doc["resolved"]["train"]["epochs"] == 2
        assert doc["resolved"]["train"]["seed"] == 3
        assert (root / "run" / "history.csv").exists()
        # every other command records the settings it used, not a model preset
        echoed = {d: json.loads((root / d / "run_config.json").read_text())
                  for d in ("raw", "pre", "ali")}
        assert echoed["raw"]["command"] == "synth"
        assert echoed["raw"]["resolved"]["trials_per_domain"] == 12
        assert echoed["raw"]["resolved"]["trial_len_s"] == 1.0
        assert echoed["pre"]["resolved"] == {"band_lo_hz": 4.0, "band_hi_hz": 30.0,
                                             "target_rate_hz": 256.0, "unit_scale": 1.0}
        assert echoed["ali"]["resolved"]["template"]["len"] == 1280
        assert echoed["ali"]["resolved"]["template"]["channels"][:2] == ["FC3", "FC1"]
        assert (echoed["ali"]["resolved"]["ea"], echoed["ali"]["resolved"]["mapping"]) == (
            True, True)

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

    @pytest.mark.parametrize("doc", [{"fpe": {"embed_dim": 20.0}},
                                     {"transformer": {"depth": True}},
                                     {"train": {"epochs": 2.5}}])
    def test_non_integer_size_is_one_line_config_error(self, doc, pipeline_dirs,
                                                        tmp_path, capsys):
        _, _, _, ali, _ = pipeline_dirs
        cfg_file = tmp_path / "sizes.json"
        cfg_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", "--data", ali, "--task", "mi", "--out",
                     str(tmp_path / "out" / "m.ckpt"), "--config", str(cfg_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must be an integer" in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [
        {"seed": 1}, {"threads": 2}, {"task": "erp"}, {"preprocess": {}}, {"template": {}},
        # the class count comes from the data; the rest are constants
        {"transformer": {"n_classes": 2}}, {"transformer": {"final_norm": True}},
        {"train": {"beta1": 0.9}}, {"train": {"beta2": 0.999}}, {"train": {"eps_adam": 1e-8}},
        {"train": {"balanced_sampling": True}},
        # a section that is not an object sets nothing either
        {"fpe": [1, 2]}, {"train": "fast"},
    ])
    def test_config_key_that_sets_nothing_is_one_line_config_error(
            self, doc, pipeline_dirs, tmp_path, capsys):
        _, _, _, ali, _ = pipeline_dirs
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", "--data", ali, "--task", "mi", "--out",
                     str(tmp_path / "out" / "m.ckpt"), "--config", str(cfg_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        key, value = next(iter(doc.items()))
        unknown = next(iter(value)) if isinstance(value, dict) and value else key
        assert len(err) == 1 and repr(unknown) in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", [b'\xff\xfe{"train": {}}',
                                     '{"train": {"seed": "\u00e9"}}'.encode("latin-1")])
    def test_config_file_not_utf8_is_one_line_config_error(self, raw, pipeline_dirs,
                                                           tmp_path, capsys):
        _, _, pre, _, _ = pipeline_dirs
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(raw)
        capsys.readouterr()
        assert main(["ablate", "--train", pre, "--eval", pre, "--task", "mi", "--out",
                     str(tmp_path / "out"), "--config", str(cfg_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed config file"), err
        assert not (tmp_path / "out").exists()

    def test_seed_precedence_cli_over_file_over_preset(self, pipeline_dirs, tmp_path):
        _, _, _, ali, _ = pipeline_dirs
        cfg_file = tmp_path / "seed.json"
        cfg_file.write_text(json.dumps({"train": {"seed": 5}}))

        def checkpoint(name, *flags):
            ckpt = tmp_path / name / "m.ckpt"
            argv = toy_train(ali, str(ckpt))
            at = argv.index("--seed")
            assert main(argv[:at] + argv[at + 2:] + ["--epochs", "1", *flags]) == 0
            return ckpt.read_bytes()

        from_file = checkpoint("file", "--config", str(cfg_file))
        assert from_file == checkpoint("flag5", "--seed", "5")
        flag3 = checkpoint("flag3", "--seed", "3")
        assert flag3 != from_file
        assert checkpoint("both", "--config", str(cfg_file), "--seed", "3") == flag3

    @pytest.mark.parametrize("train", [
        {"lr_init": "x"}, {"lr_max": math.inf}, {"lr_init": math.nan}, {"lr_init": 0},
        {"lr_init": 1e-3, "lr_max": 1e-4}, {"weight_decay": "a"}, {"weight_decay": -5},
        {"weight_decay": True},
    ])
    def test_bad_learning_rate_or_decay_is_one_line_config_error(self, train, pipeline_dirs,
                                                                  tmp_path, capsys):
        """Rates and decay are finite numbers, 0 < lr_init <= lr_max, decay >= 0."""
        _, _, _, ali, _ = pipeline_dirs
        cfg_file = tmp_path / "train.json"
        cfg_file.write_text(json.dumps({"train": train}))  # inf and nan as Infinity and NaN
        capsys.readouterr()
        assert main(["train", "--data", ali, "--task", "mi", "--out",
                     str(tmp_path / "out" / "m.ckpt"), "--config", str(cfg_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--rate", "--unit-scale"])
    def test_preprocess_takes_no_rate_or_unit_flag(self, flag, pipeline_dirs, tmp_path):
        """The template fixes the rate, and the manifest the units."""
        _, raw, _, _, _ = pipeline_dirs
        with pytest.raises(SystemExit) as e:
            main(["preprocess", "--in", raw, "--out", str(tmp_path / "pp"), flag, "256"])
        assert e.value.code == EXIT_CONFIG
        assert not (tmp_path / "pp").exists()

    def test_smaller_rerun_leaves_only_listed_trial_files(self, pipeline_dirs, tmp_path):
        _, raw, _, _, _ = pipeline_dirs
        out = tmp_path / "pp"
        assert main(["preprocess", "--in", raw, "--out", str(out)]) == 0
        assert len(list((out / "trials").iterdir())) == 24
        write_toy_dataset(tmp_path / "small", n_trials=3, n_samples=64)
        assert main(["preprocess", "--in", str(tmp_path / "small"), "--out", str(out)]) == 0
        listed = json.loads((out / "manifest.json").read_text())["trials"]
        assert sorted(p.name for p in (out / "trials").iterdir()) == sorted(
            Path(t["path"]).name for t in listed)
        assert len(listed) == 3

    @pytest.mark.parametrize("band", ["abc", "4:30:50"])
    def test_malformed_band_is_one_line_config_error(self, band, pipeline_dirs,
                                                     tmp_path, capsys):
        _, raw, _, _, _ = pipeline_dirs
        capsys.readouterr()
        assert main(["preprocess", "--in", raw, "--out", str(tmp_path / "pp"),
                     "--band", band]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and repr(band) in err[0], err
        assert not (tmp_path / "pp").exists()

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


def test_eval_and_finetune_never_write_into_a_loaded_model(pipeline_dirs, tmp_path,
                                                          monkeypatch):
    """A loaded checkpoint's parameters are read-only views of its payload, and
    eval and finetune, which run on them without copying, write into none."""
    _, _, _, ali, ckpt = pipeline_dirs
    loaded = []

    def recording_load(path, load=afpm.model.load_checkpoint):
        out = load(path)
        loaded.append(out[0])
        return out

    monkeypatch.setattr(afpm.model, "load_checkpoint", recording_load)
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(tmp_path / "ev")]) == 0
    assert main(["finetune", "--ckpt", ckpt, "--data", ali, "--fraction", "0.3",
                 "--out", str(tmp_path / "ft"), "--epochs", "2"]) == 0
    assert len(loaded) == 2
    for model in loaded:
        assert not any(p.flags.writeable for p in model.params.values())


# defect -> (tensor, item) whose value becomes NaN: the first item of the
# first tensor, the first item of a middle one, the last item of the last one
NAN_AT = {"nan": ("patch.w1", 0), "nan.middle": ("block0.attn.wk", 0),
          "nan.last": ("head.w", -1)}


def corrupt_checkpoint(blob: bytes, defect: str) -> bytes:
    if defect == "truncated":
        return blob[:-10]
    header_line, payload = blob.split(b"\n", 1)
    header = json.loads(header_line)
    if defect in NAN_AT:
        name, item = NAN_AT[defect]
        at = 0
        for e in header["entries"]:
            size = math.prod(e["shape"])
            if e["name"] == name:
                at += item % size
                break
            at += size
        payload = payload[:4 * at] + struct.pack("<f", math.nan) + payload[4 * at + 4:]
    elif defect == "duplicate":
        # the first tensor listed again at the end, with its own payload
        first = header["entries"][0]
        header["entries"].append(dict(first))
        payload += bytes(4 * math.prod(first["shape"]))
    elif defect == "list":
        header = [header]
    elif defect in ("config.fpe", "config.input_scale", "config.per_channel_patches"):
        del header["config"][defect.split(".")[1]]
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
    elif defect == "v2":
        # the previous format: a class count and a final-norm switch, no class names
        config = header["config"]
        header["format"] = "afpm-checkpoint-v2"
        config["transformer"].update(n_classes=len(config.pop("class_names")), final_norm=True)
    elif defect.startswith("entry."):
        del header["entries"][3][defect.split(".")[1]]
    else:
        del header[defect]
    return json.dumps(header).encode("utf-8") + b"\n" + payload


@pytest.mark.parametrize("defect", [
    "truncated", "config", "entries", "v1", "v2", "list", "config.fpe",
    "config.input_scale", "config.per_channel_patches", "config.avg_window",
    "config.template_len", "config.task",
    "entry.shape", "entry.name", "entry.kind", "duplicate", "nan", "nan.middle", "nan.last",
])
def test_bad_checkpoint_is_one_line_data_error(defect, pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, ckpt = pipeline_dirs
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt_checkpoint(Path(ckpt).read_bytes(), defect))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(bad), "--data", ali]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: checkpoint"), err
    if defect in NAN_AT:
        assert f"tensor {NAN_AT[defect][0]!r}" in err[0], err


@pytest.mark.filterwarnings("error")
def test_diverged_train_saves_last_finite_parameters(pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, _ = pipeline_dirs
    diverged, initial = str(tmp_path / "div" / "m.ckpt"), str(tmp_path / "init" / "m.ckpt")
    capsys.readouterr()
    # the first update overflows float32, so the run keeps its initial weights
    assert main(toy_train(ali, diverged) + ["--epochs", "2", "--lr-init", "1e39",
                                            "--lr-max", "1e39"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == ("numeric error: training diverged at step 1; "
                                       "kept last finite checkpoint\n")
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
    echo_config(str(run_dir), "train", {"seed": 0}, resolve_config("mi").to_dict())
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(eval_dir)]) == 0
    files = [run_dir / "run_config.json", eval_dir / "report.json", eval_dir / "report.txt",
             eval_dir / "run_config.json"]
    before = [f.read_bytes() for f in files]

    fail_writes_in(monkeypatch, afpm.data_model)
    with pytest.raises(OSError, match="mid-write"):
        echo_config(str(run_dir), "train", {"seed": 1}, resolve_config("erp").to_dict())
    # the report is one write: fail on the first
    fail_writes_in(monkeypatch, afpm.cli, afpm.data_model, fail_at=1)
    with pytest.raises(OSError, match="mid-write"):
        main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(eval_dir)])
    assert [f.read_bytes() for f in files] == before
    assert sorted(p.name for p in run_dir.iterdir()) == ["run_config.json"]
    assert sorted(p.name for p in eval_dir.iterdir()) == ["report.json", "report.txt",
                                                          "run_config.json"]


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "finetune"])
def test_data_aligned_for_other_task_is_data_error(command, pipeline_dirs, tmp_path, capsys):
    """MI data given to an ERP run; unmapped ERP-aligned data given to the MI checkpoint."""
    _, _, _, ali, ckpt = pipeline_dirs
    out = str(tmp_path / "out")
    model = ["--epochs", "1", "--depth", "1"]
    if command in ("eval", "finetune"):
        # align refuses MI data for the ERP template, so the ERP data is recorded as such
        write_toy_dataset(tmp_path / "erp", task="erp", n_trials=4, n_samples=64)
        ali = str(tmp_path / "erp_ali")
        assert main(["align", "--in", str(tmp_path / "erp"), "--out", ali, "--task", "erp",
                     "--no-map"]) == 0
    argv = {
        "train": ["train", "--data", ali, "--task", "erp", "--out", out + "/m.ckpt", *model],
        "ablate": ["ablate", "--train", ali, "--eval", ali, "--task", "erp", "--out", out,
                   *model],
        "eval": ["eval", "--ckpt", ckpt, "--data", ali, "--out", out],
        "finetune": ["finetune", "--ckpt", ckpt, "--data", ali, "--out", out, *model],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'mi'" in err[0] and "'erp'" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, says", [
    ({"rate_hz": 250.0},
     "is sampled at 250 Hz, not at the template's 256 Hz; run preprocess first"),
    ({"unit_scale": 1e3},
     "has a unit conversion pending (unit_scale 1000); run preprocess first"),
    ({"task": "erp"}, "is recorded for task 'erp', not for task 'mi'"),
])
def test_align_refuses_data_the_template_does_not_fit(raw, says, tmp_path, capsys):
    """A raw rate, pending units or another task's recording: exit 3, nothing written."""
    write_toy_dataset(tmp_path / "raw", n_trials=4, n_samples=64, **raw)
    out = tmp_path / "ali"
    capsys.readouterr()
    assert main(["align", "--in", str(tmp_path / "raw"), "--out", str(out),
                 "--task", "mi"]) == EXIT_DATA
    assert capsys.readouterr().err.strip().splitlines() == [f"data error: dataset 'toy' {says}"]
    assert not out.exists()


@pytest.mark.parametrize("rate, refused", [("255.9", False), ("999.97", False),
                                           ("250.0001", True)])
def test_preprocess_refuses_a_rate_whose_filter_passes_64_mib(rate, refused, tmp_path,
                                                              capsys):
    """2560/2559 and 25600/99997 resample; 2560000/2500001 exits 3 in one line, nothing written."""
    raw, out = tmp_path / "raw", tmp_path / "pre"
    assert main(["synth", "--task", "erp", "--rate", rate, "--trials", "2",
                 "--domains", "1", "--out", str(raw)]) == 0
    capsys.readouterr()
    code = main(["preprocess", "--in", str(raw), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    if not refused:
        assert code == 0 and err == []
        assert len(json.loads((out / "manifest.json").read_text())["trials"]) == 2
        return
    assert code == EXIT_DATA
    assert err == [f"data error: dataset 'synth_erp': resampling {rate} Hz to 256.0 Hz "
                   "needs the ratio 2560000/2500001; a factor above 131072 would need "
                   "an anti-alias filter over 64 MiB"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "preprocess", "align", "eval", "finetune",
                                     "ablate", "train"])
def test_output_path_of_the_wrong_kind_is_one_line_data_error(command, pipeline_dirs,
                                                              tmp_path, capsys):
    """A file where --out names a directory, or a directory where train writes its
    checkpoint: exit 3 in one line, before any work and with the path untouched."""
    _, raw, pre, ali, ckpt = pipeline_dirs
    out = tmp_path / "out"
    if command == "train":
        out.mkdir()
    else:
        out.write_text("kept")
    argv = {
        "synth": ["synth", "--task", "mi", "--domains", "1", "--trials", "2",
                  "--out", str(out)],
        "preprocess": ["preprocess", "--in", raw, "--out", str(out)],
        "align": ["align", "--in", pre, "--out", str(out), "--task", "mi"],
        "eval": ["eval", "--ckpt", ckpt, "--data", ali, "--out", str(out)],
        "finetune": ["finetune", "--ckpt", ckpt, "--data", ali, "--out", str(out),
                     "--epochs", "1"],
        "ablate": ["ablate", "--train", pre, "--eval", pre, "--task", "mi",
                   "--variants", "FULL", "--out", str(out), "--epochs", "1"],
        "train": toy_train(ali, str(out)) + ["--epochs", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    if command == "train":
        assert captured.err.splitlines() == [
            f"data error: --out {out} is a directory; train writes a checkpoint file"]
        assert list(out.iterdir()) == []
    else:
        assert captured.err.splitlines() == [
            f"data error: --out {out} is a file; {command} writes a directory"]
        assert out.read_text() == "kept"


@pytest.mark.parametrize("command", ["preprocess", "align"])
def test_aligned_input_to_preprocess_or_align_is_data_error(command, pipeline_dirs, tmp_path,
                                                            capsys):
    """Whitened template trials are no recording: exit 3 in one line, nothing written."""
    _, _, _, ali, _ = pipeline_dirs
    out = tmp_path / "out"
    argv = [command, "--in", ali, "--out", str(out)]
    capsys.readouterr()
    assert main(argv + (["--task", "mi"] if command == "align" else [])) == EXIT_DATA
    assert capsys.readouterr().err.strip().splitlines() == [
        "data error: dataset 'synth_mi' is already aligned; "
        "preprocess and align take unaligned data"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--rate", "nan"), ("--rate", "inf"), ("--rate", "1e-9"),
    ("--trial-len", "0"), ("--trial-len", "-1"), ("--trial-len", "nan"),
    ("--trial-len", "0.001"), ("--snr", "nan"), ("--snr", "inf"),
])
def test_malformed_synth_number_is_one_line_config_error(flag, value, tmp_path, capsys):
    """A rate, trial length or SNR that gives no finite signal: exit 2, nothing written."""
    out = tmp_path / "raw"
    capsys.readouterr()
    assert main(["synth", "--task", "mi", "--domains", "1", "--trials", "2",
                 "--out", str(out), flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists()


def test_synth_class_ratio_for_mi_is_config_error(tmp_path, capsys):
    """MI labels are split half and half, so an MI ``--class-ratio`` would set
    nothing: exit 2 with one line naming the flag, and no ``--out``."""
    out = tmp_path / "raw"
    capsys.readouterr()
    assert main(["synth", "--task", "mi", "--domains", "1", "--trials", "2",
                 "--out", str(out), "--class-ratio", "0.3"]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: --class-ratio sets the ERP target fraction; "
                   "MI labels are always split half and half"], err
    assert not out.exists()


def test_synth_erp_class_ratio_defaults_to_one_in_six(tmp_path):
    """Without the flag, ERP draws 1/6 targets: the bytes of an explicit 1/6."""
    argv = ["synth", "--task", "erp", "--domains", "1", "--trials", "12", "--rate", "64"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b"), "--class-ratio", str(1 / 6)]) == 0
    for name in ["manifest.json", *(f"trials/{i:06d}.f32" for i in range(12))]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    doc = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert sum(t["label"] for t in doc["trials"]) == 2


@pytest.mark.parametrize("command", ["train", "eval", "ablate", "finetune"])
def test_aligned_data_at_another_rate_is_data_error(command, pipeline_dirs, tmp_path, capsys):
    """An aligned set whose manifest says 250 Hz is refused before any training."""
    _, _, _, ali, ckpt = pipeline_dirs
    at_250 = tmp_path / "ali250"
    shutil.copytree(ali, at_250)
    doc = json.loads((at_250 / "manifest.json").read_text())
    (at_250 / "manifest.json").write_text(json.dumps(dict(doc, rate_hz=250.0)))
    data, out, model = str(at_250), str(tmp_path / "out"), ["--epochs", "1", "--depth", "1"]
    argv = {
        "train": ["train", "--data", data, "--task", "mi", "--out", out + "/m.ckpt", *model],
        "eval": ["eval", "--ckpt", ckpt, "--data", data, "--out", out],
        "ablate": ["ablate", "--train", data, "--eval", data, "--task", "mi", "--out", out,
                   *model],
        "finetune": ["finetune", "--ckpt", ckpt, "--data", data, "--out", out, *model],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["data error: dataset 'synth_mi' is sampled at 250 Hz, not at the "
                   "template's 256 Hz; run preprocess first"], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("flag", ["--no-map", "--no-select"])
def test_data_of_another_layout_is_template_mismatch(command, flag, pipeline_dirs, tmp_path,
                                                      capsys):
    """The mapped MI checkpoint refuses MI data aligned unmapped or to a widened template."""
    _, _, pre, _, ckpt = pipeline_dirs
    ali, out = str(tmp_path / "ali"), str(tmp_path / "out")
    assert main(["align", "--in", pre, "--out", ali, "--task", "mi", flag]) == 0
    capsys.readouterr()
    assert main([command, "--ckpt", ckpt, "--data", ali, "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: template mismatch: "
                                               "checkpoint expects 17 channels (FC3 ... CP4)"), err
    assert not (tmp_path / "out").exists()


def test_readme_no_map_chain(tmp_path):
    """Unmapped data fills the template: a 5-row eval set runs on a model trained on 4 rows."""
    d = {k: str(tmp_path / k) for k in ("tr", "ev", "tr_pp", "ev_pp", "tr_al", "ev_al")}
    ckpt = str(tmp_path / "run" / "model.ckpt")
    for kind, domains, seed in (("tr", "4", "100"), ("ev", "2", "200")):
        catalogue = "train" if kind == "tr" else "eval"
        assert main(["synth", "--task", "mi", "--domains", domains, "--trials", "8",
                     "--trial-len", "1.0", "--channels", catalogue,
                     "--out", d[kind], "--seed", seed]) == 0
        assert main(["preprocess", "--in", d[kind], "--out", d[f"{kind}_pp"]]) == 0
        assert main(["align", "--in", d[f"{kind}_pp"], "--out", d[f"{kind}_al"],
                     "--task", "mi", "--no-map"]) == 0
    aligned = {kind: afpm.data_model.load_manifest(d[f"{kind}_al"]) for kind in ("tr", "ev")}
    rows = {kind: max(len(m.channels_of(rec)) for rec in m.trials) for kind, m in aligned.items()}
    assert rows == {"tr": 4, "ev": 5}
    assert main(toy_train(d["tr_al"], ckpt) + ["--epochs", "1"]) == 0
    model, _, _ = load_checkpoint(ckpt)
    spec = task_template("mi")
    assert model.cfg.template_channels == tuple(f"ROW{i:02d}" for i in range(spec.n_channels))
    assert model.cfg.template_len == spec.template_len
    assert main(["eval", "--ckpt", ckpt, "--data", d["ev_al"],
                 "--out", str(tmp_path / "eval")]) == 0
    assert json.loads((tmp_path / "eval" / "report.json").read_text())["n_trials"] == 16
    assert main(["finetune", "--ckpt", ckpt, "--data", d["ev_al"], "--fraction", "0.3",
                 "--out", str(tmp_path / "ft"), "--epochs", "1", "--batch-size", "4"]) == 0


def test_train_on_unmapped_sets_of_different_templates_is_data_error(
        pipeline_dirs, tmp_path, capsys):
    _, _, pre, _, _ = pipeline_dirs
    plain, union = str(tmp_path / "plain"), str(tmp_path / "union")
    assert main(["align", "--in", pre, "--out", plain, "--task", "mi", "--no-map"]) == 0
    assert main(["align", "--in", pre, "--out", union, "--task", "mi", "--no-map",
                 "--no-select"]) == 0
    capsys.readouterr()
    argv = toy_train(plain, str(tmp_path / "out" / "m.ckpt"))
    at = argv.index("--data")
    assert main(argv[:at + 2] + [union] + argv[at + 2:] + ["--epochs", "1"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["data error: datasets are aligned to different templates"], err
    assert not (tmp_path / "out").exists()


def aligned_toy(tmp_path, name: str, class_names: tuple[str, ...], labels=None) -> str:
    """A 12-trial MI toy dataset naming ``class_names``, aligned to the MI template."""
    raw, ali = tmp_path / f"{name}_raw", str(tmp_path / name)
    write_toy_dataset(raw, n_trials=12, n_samples=64, labels=labels, class_names=class_names)
    assert main(["align", "--in", str(raw), "--out", ali, "--task", "mi"]) == 0
    return ali


def test_train_takes_its_classes_from_the_data(tmp_path):
    """Three classes need no config file: the head gets one column per class name."""
    names = ("left_hand", "right_hand", "feet")
    ali = aligned_toy(tmp_path, "three", names, labels=[i % 3 for i in range(12)])
    ckpt = str(tmp_path / "run" / "m.ckpt")
    assert main(toy_train(ali, ckpt) + ["--epochs", "1"]) == 0
    model, _, _ = load_checkpoint(ckpt)
    assert model.cfg.class_names == names
    assert model.params["head.w"].shape[1] == 3
    assert main(["eval", "--ckpt", ckpt, "--data", ali]) == 0


def test_training_sets_naming_classes_differently_is_data_error(tmp_path, capsys):
    """Label 0 must mean one class in every stacked set: swapped names are refused."""
    ab = aligned_toy(tmp_path, "ab", ("class_a", "class_b"))
    ba = aligned_toy(tmp_path, "ba", ("class_b", "class_a"))
    argv = toy_train(ab, str(tmp_path / "out" / "m.ckpt"))
    at = argv.index("--data")
    capsys.readouterr()
    assert main(argv[:at + 2] + [ba] + argv[at + 2:] + ["--epochs", "1"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: class mismatch"), err
    assert "['class_a', 'class_b']" in err[0] and "['class_b', 'class_a']" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_data_naming_other_classes_than_the_checkpoint_is_data_error(
        command, pipeline_dirs, tmp_path, capsys):
    _, _, _, _, ckpt = pipeline_dirs
    ali = aligned_toy(tmp_path, "other", ("class_a", "class_b"))
    capsys.readouterr()
    assert main([command, "--ckpt", ckpt, "--data", ali,
                 "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: class mismatch"), err
    assert "['left_hand', 'right_hand']" in err[0] and "['class_a', 'class_b']" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_checkpoint_is_one_line_data_error(command, where, pipeline_dirs,
                                                      tmp_path, capsys):
    _, _, _, ali, _ = pipeline_dirs
    ckpt = tmp_path / "model.ckpt"
    if where == "directory":
        ckpt.mkdir()
    capsys.readouterr()
    assert main([command, "--ckpt", str(ckpt), "--data", ali,
                 "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: checkpoint {ckpt}"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--folds", "--repeats"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_eval_needs_a_fold_and_a_repeat(flag, value, pipeline_dirs, tmp_path, capsys):
    """eval reports each held-out subject; random subject folds are gone, so
    a fold or repeat count, valid or not, is refused before anything is written."""
    _, _, _, ali, ckpt = pipeline_dirs
    for count in (value, "2"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(tmp_path / "ev"),
                  flag, count])
        assert e.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {count}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()


def test_erp_subject_without_targets_has_null_rank_metrics(tmp_path):
    """A held-out subject with no target trial gets null AUROC and AUC-PR;
    the pooled metrics are those of all trials, and eval succeeds."""
    from afpm.evaluation import compute_metrics, model_inputs
    from afpm.model import forward

    labels = [0, 1] * 6 + [0] * 6
    domains = ["toy:a:0"] * 12 + ["toy:b:0"] * 6
    write_toy_dataset(tmp_path / "raw", task="erp", n_trials=18, n_samples=256,
                      labels=labels, domain_ids=domains,
                      class_names=("nontarget", "target"))
    ali, ckpt, out = str(tmp_path / "ali"), str(tmp_path / "m.ckpt"), tmp_path / "ev"
    assert main(["align", "--in", str(tmp_path / "raw"), "--out", ali, "--task", "erp"]) == 0
    assert main(["train", "--data", ali, "--task", "erp", "--out", ckpt, "--epochs", "1",
                 "--batch-size", "6", "--depth", "1", "--heads", "2", "--dim-head", "4"]) == 0
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["subjects"]["toy:b"]["metrics"]["auroc"] is None
    assert report["subjects"]["toy:b"]["metrics"]["auc_pr"] is None
    assert isinstance(report["subjects"]["toy:b"]["metrics"]["cohens_kappa"], float)
    assert all(v is not None for v in report["subjects"]["toy:a"]["metrics"].values())
    model, _, _ = load_checkpoint(ckpt)
    x, y, _, positive = model_inputs(model, afpm.data_model.load_manifest(ali))
    pooled = compute_metrics("erp", forward(x, model), y, positive)
    assert report["metrics"] == {m: {"mean": v} for m, v in pooled.items()}


@pytest.mark.parametrize("second, split, message", [
    ([0] * 6, "tune", "its first 2 trials (the tune split) hold no 'target' trial"),
    ([0, 1, 0, 0, 0, 0], "evaluation",
     "its last 4 trials (the evaluation split) leave auroc, auc_pr undefined"),
])
def test_finetune_checks_every_split_before_writing(tmp_path, capsys, second, split, message):
    """A later subject whose tune split lacks a class, or whose evaluation
    split leaves a metric undefined, stops finetune with exit 3 and one line
    naming it, before any subject is tuned or any file written."""
    labels = [0, 1] * 6 + second
    domains = ["toy:a:0"] * 12 + ["toy:b:0"] * 6
    write_toy_dataset(tmp_path / "raw", task="erp", n_trials=18, n_samples=256,
                      labels=labels, domain_ids=domains,
                      class_names=("nontarget", "target"))
    ali, ckpt, ft = str(tmp_path / "ali"), str(tmp_path / "m.ckpt"), tmp_path / "ft"
    assert main(["align", "--in", str(tmp_path / "raw"), "--out", ali, "--task", "erp"]) == 0
    assert main(["train", "--data", ali, "--task", "erp", "--out", ckpt, "--epochs", "1",
                 "--batch-size", "6", "--depth", "1", "--heads", "2", "--dim-head", "4"]) == 0
    capsys.readouterr()
    assert main(["finetune", "--ckpt", ckpt, "--data", ali, "--fraction", "0.3",
                 "--out", str(ft), "--epochs", "1", "--batch-size", "4"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: subject 'toy:b': {message}"], (split, err)
    assert not ft.exists()


def test_finetune_tunes_each_subject_on_its_trials_in_order(pipeline_dirs, tmp_path):
    """Every per-subject checkpoint equals one fine-tuned on that subject's
    trials picked one by one in manifest order."""
    from afpm.evaluation import model_inputs, subject_groups, subject_of
    from afpm.model import save_checkpoint
    from afpm.training import chronological_split, train

    _, _, _, ali, ckpt = pipeline_dirs
    ft = tmp_path / "ft"
    assert main(["finetune", "--ckpt", ckpt, "--data", ali, "--fraction", "0.3",
                 "--out", str(ft), "--epochs", "1", "--batch-size", "4", "--seed", "0"]) == 0
    model, _, _ = load_checkpoint(ckpt)
    x, y, domains, _ = model_inputs(model, afpm.data_model.load_manifest(ali))
    train_cfg = resolve_config("mi", None, {"train": {"epochs": 1, "batch_size": 4}}).train
    subjects = sorted({subject_of(d) for d in domains})
    assert list(subject_groups(domains)) == subjects
    for subject in subjects:
        idx = [i for i, d in enumerate(domains) if subject_of(d) == subject]
        assert subject_groups(domains)[subject].tolist() == idx
        tune, _ = chronological_split(len(idx), 0.3)
        result = train(x[idx][tune], y[idx][tune], model, train_cfg)
        name = subject.replace(":", "_") + ".ckpt"
        save_checkpoint(result.model, str(tmp_path / name),
                        extra={"task": "mi", "subject": subject})
        assert (tmp_path / name).read_bytes() == (ft / name).read_bytes(), subject


def test_eval_on_a_dataset_without_trials_is_data_error(pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, ckpt = pipeline_dirs
    doc = json.loads((Path(ali) / "manifest.json").read_text())
    doc["trials"] = []
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "ev")]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "no trials" in err[0], err
    assert not (tmp_path / "ev").exists()


def test_threads_are_parsed_with_the_other_arguments(monkeypatch, capsys):
    pinned = []
    monkeypatch.setattr(afpm.cli, "_set_thread_env", pinned.append)
    bad_band = ["preprocess", "--in", "d", "--out", "o", "--band", "x"]
    assert main(bad_band + ["--threads", "0"]) == EXIT_CONFIG
    assert main(bad_band + ["--threads=2"]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as e:
        main(bad_band + ["--threads", "abc"])
    assert e.value.code == EXIT_CONFIG
    assert pinned == [1, 2]


def test_commands_load_only_the_stages_they_run(pipeline_dirs, tmp_path):
    """Each command, run cold, imports no stage below it: the data stages load
    no decoder module, align no scipy, and nothing but preprocess (whose
    scipy.signal needs it) loads scipy.stats."""
    _, raw, pre, ali, ckpt = pipeline_dirs
    code = ("import json, sys, afpm.cli; rc = afpm.cli.main(sys.argv[2:]);"
            " open(sys.argv[1], 'w').write(json.dumps([rc, sorted(sys.modules)]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = str(tmp_path / "out")
    argv = {
        "synth": ["synth", "--task", "mi", "--domains", "1", "--trials", "2",
                  "--trial-len", "1.0", "--out", out],
        "preprocess": ["preprocess", "--in", raw, "--out", out],
        "align": ["align", "--in", pre, "--out", out, "--task", "mi", "--no-select"],
        "eval": ["eval", "--ckpt", ckpt, "--data", ali],
    }
    decoder = {"afpm.model", "afpm.training", "afpm.evaluation", "afpm.ablation"}
    for command, args in argv.items():
        record = tmp_path / f"{command}.json"
        subprocess.run([sys.executable, "-c", code, str(record), *args],
                       capture_output=True, env=env, check=True)
        rc, modules = json.loads(record.read_text())
        assert rc == 0, command
        if command != "eval":
            assert not decoder & set(modules), (command, sorted(decoder & set(modules)))
        else:  # eval runs a loaded model: no run configuration, no training
            assert not {"afpm.config", "afpm.training"} & set(modules), sorted(modules)
        if command == "align":
            assert not [m for m in modules if m.split(".")[0] == "scipy"]
        if command != "preprocess":
            assert "scipy.stats" not in modules, command


def test_parsing_imports_no_numpy():
    """The thread pools are sized after parsing, so parsing must not load numpy."""
    code = ("import sys, afpm.cli; afpm.cli.build_parser().parse_args("
            "['train', '--data', 'd', '--task', 'mi', '--out', 'm.ckpt', '--threads', '2']);"
            " print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def parser_exit(parse, argv, capsys):
    """Exit code, stdout and stderr of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    return (e.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["eval", "--ckpt", "c", "--data", "d", "extra"],
    *([command, "--help"] for command in afpm.cli._COMMANDS),
], ids=lambda argv: " ".join(["afpm", *argv]))
def test_one_command_parser_prints_what_the_full_parser_prints(argv, capsys):
    """``main`` builds only the named command's subparser (the full parser
    without a known command); help, usage and errors read as the full
    parser's, whose usage line names every command."""
    full = parser_exit(afpm.cli.build_parser().parse_args, argv, capsys)
    assert parser_exit(main, argv, capsys) == full
    code, out, err = full
    assert code == (0 if "--help" in argv else EXIT_CONFIG)
    if argv[-1:] == ["--help"]:
        assert out.startswith(f"usage: afpm {' '.join(argv[:-1])}".rstrip()) and not err
    else:
        assert err.startswith("usage: afpm [-h] {synth,preprocess,align,train,eval,"
                              "ablate,finetune} ...\n") and not out
        assert err.splitlines()[-1] == "afpm: error: " + {
            0: "the following arguments are required: command",
            1: "argument command: invalid choice: 'bogus' (choose from 'synth', "
               "'preprocess', 'align', 'train', 'eval', 'ablate', 'finetune')",
        }.get(len(argv), "unrecognized arguments: extra")


def test_eval_builds_no_other_commands_parser(pipeline_dirs, monkeypatch):
    built = []
    for name, (help_text, add_arguments, handler) in list(afpm.cli._COMMANDS.items()):
        def recorded(p, name=name, add_arguments=add_arguments):
            built.append(name)
            add_arguments(p)
        monkeypatch.setitem(afpm.cli._COMMANDS, name, (help_text, recorded, handler))
    _, _, _, ali, ckpt = pipeline_dirs
    assert main(["eval", "--ckpt", ckpt, "--data", ali]) == 0
    assert built == ["eval"]


def readme_commands() -> list[str]:
    """Every `afpm ...` command of README's bash blocks, continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in readme.split("```bash\n")[1:]:
        body = block.split("```", 1)[0].replace("\\\n", " ")
        for line in body.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("afpm "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {shlex.split(c)[1] for c in commands} == set(afpm.cli._COMMANDS)
    parser = afpm.cli.build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_readme_names_only_flags_that_exist(capsys):
    """Every option README names, in prose too, belongs to an afpm command, to
    the benchmark runner or to a script under ``tools/``, so a removed flag
    cannot linger in the docs."""
    root = Path(__file__).parents[1]
    option = r"(?<![\w-])--[a-z][a-z-]*"
    named = set(re.findall(option, (root / "README.md").read_text(encoding="utf-8")))
    known = set()
    for script in [root / "perfbench" / "run.py", *sorted((root / "tools").glob("*.py"))]:
        known |= set(re.findall(r'add_argument\("(--[a-z-]+)"',
                                script.read_text(encoding="utf-8")))
    for command in afpm.cli._COMMANDS:
        with pytest.raises(SystemExit):
            afpm.cli.build_parser().parse_args([command, "--help"])
        known |= set(re.findall(option, capsys.readouterr().out))
    assert named - known == set()


def test_flat_domain_fails_align_without_partial_output(tmp_path, capsys):
    """A domain that cannot be whitened is named, and nothing is written for any domain."""
    rng = np.random.default_rng(0)
    data = [rng.standard_normal((3, 64)) for _ in range(2)] + [np.zeros((3, 64))] * 2
    write_toy_dataset(tmp_path / "raw", n_trials=4, n_samples=64, data=data,
                      domain_ids=["a:s0:0", "a:s0:0", "b:s1:0", "b:s1:0"])
    out = tmp_path / "ali"
    capsys.readouterr()
    assert main(["align", "--in", str(tmp_path / "raw"), "--out", str(out),
                 "--task", "mi"]) == EXIT_NUMERIC
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error:") and "b:s1:0" in err[0], err
    assert not (out / "alignment.json").exists()
    assert not (out / "manifest.json").exists()


def test_too_long_trial_fails_align_without_partial_output(tmp_path, capsys):
    """A trial longer than the template is named by index and domain, before any write."""
    write_toy_dataset(tmp_path / "raw", n_trials=4, n_samples=1400,
                      domain_ids=["a:s0:0", "a:s0:0", "b:s1:0", "b:s1:0"])
    out = tmp_path / "ali"
    capsys.readouterr()
    assert main(["align", "--in", str(tmp_path / "raw"), "--out", str(out),
                 "--task", "mi"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
    assert "trial 0" in err[0] and "'a:s0:0'" in err[0] and "1400 > 1280" in err[0], err
    assert not (out / "alignment.json").exists()
    assert not (out / "trials").exists()
    assert not (out / "manifest.json").exists()


def test_too_long_unmapped_trial_fails_align_without_partial_output(tmp_path, capsys):
    """The template bounds unmapped trials too: a long one is named before any write."""
    write_toy_dataset(tmp_path / "raw", n_trials=4, n_samples=1400,
                      domain_ids=["a:s0:0", "a:s0:0", "b:s1:0", "b:s1:0"])
    out = tmp_path / "ali"
    capsys.readouterr()
    assert main(["align", "--in", str(tmp_path / "raw"), "--out", str(out),
                 "--task", "mi", "--no-map"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
    assert "trial 0" in err[0] and "'a:s0:0'" in err[0] and "1400 > 1280" in err[0], err
    assert not out.exists()


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
        outs.append((Path(ckpt).read_bytes(), (d / "eval" / "report.json").read_bytes()))
    assert outs[0][0] == outs[1][0], "checkpoints differ between identical runs"
    assert outs[0][1] == outs[1][1], "reports differ between identical runs"


def test_eval_task_flag_must_match_checkpoint(pipeline_dirs):
    _, _, _, ali, ckpt = pipeline_dirs
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--task", "erp"]) == EXIT_CONFIG
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--task", "mi"]) == 0


def test_relative_data_path_resolves_against_the_working_directory(pipeline_dirs,
                                                                   monkeypatch):
    root, raw, pre, ali, ckpt = pipeline_dirs
    monkeypatch.chdir(root)
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


def test_ablate_variant_listed_twice_is_one_line_config_error(pipeline_dirs, tmp_path,
                                                               capsys):
    """FULL,full names FULL twice: exit 2 in one line before anything trains."""
    _, _, pre, _, _ = pipeline_dirs
    out = tmp_path / "abl"
    capsys.readouterr()
    assert main(["ablate", "--train", pre, "--eval", pre, "--task", "mi",
                 "--variants", "FULL,full", "--out", str(out), "--epochs", "1",
                 "--depth", "1", "--heads", "2", "--dim-head", "4"]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: ablation variants listed more than once: ['FULL']"]
    assert not out.exists()


def test_finetune_subjects_sharing_a_checkpoint_name_is_data_error(pipeline_dirs, tmp_path,
                                                                   capsys):
    """Subjects x:a_b and x:a:b would both write x_a_b.ckpt: refused before training."""
    _, _, _, _, ckpt = pipeline_dirs
    raw, ali, out = tmp_path / "raw", str(tmp_path / "ali"), tmp_path / "ft"
    write_toy_dataset(raw, n_trials=12, n_samples=64, labels=[i // 2 % 2 for i in range(12)],
                      domain_ids=[("x:a_b:s0", "x:a:b:s0")[i % 2] for i in range(12)],
                      class_names=("left_hand", "right_hand"))
    assert main(["align", "--in", str(raw), "--out", ali, "--task", "mi"]) == 0
    capsys.readouterr()
    assert main(["finetune", "--ckpt", ckpt, "--data", ali, "--out", str(out),
                 "--epochs", "1"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["data error: subjects 'x:a:b' and 'x:a_b' would both write "
                   "checkpoint x_a_b.ckpt"], err
    assert not out.exists()


@pytest.mark.parametrize("flags, config, says", [
    (["--depth", "9"], None, "--depth 9 does not match the checkpoint's transformer.depth 1"),
    (["--heads", "3"], None, "--heads 3 does not match the checkpoint's transformer.heads 2"),
    ([], {"fpe": {"embed_dim": 21}},
     "config file fpe.embed_dim 21 does not match the checkpoint's fpe.embed_dim 20"),
    (["--frame-window", "8"], {"fpe": {"frame_window": 16}},
     "--frame-window 8 does not match the checkpoint's fpe.frame_window 16"),
])
def test_finetune_refuses_an_architecture_other_than_the_checkpoints(
        flags, config, says, pipeline_dirs, tmp_path, capsys):
    """finetune takes its model from the checkpoint: a flag or config-file key
    that would change it sets nothing, so it exits 2 in one line, nothing written."""
    _, _, _, ali, ckpt = pipeline_dirs
    out = tmp_path / "ft"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = flags + ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    assert main(["finetune", "--ckpt", ckpt, "--data", ali, "--out", str(out),
                 "--epochs", "1", *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: {says}; finetune keeps the checkpoint's architecture"]
    assert not out.exists()


def test_finetune_records_the_checkpoints_architecture(pipeline_dirs, tmp_path):
    """Values equal to the checkpoint's are accepted (a flag overrides the file,
    as everywhere), and run_config.json records the checkpoint's fpe and
    transformer sections with the resolved train section."""
    from dataclasses import asdict

    _, _, _, ali, ckpt = pipeline_dirs
    (tmp_path / "cfg.json").write_text(json.dumps({"transformer": {"depth": 9, "heads": 2}}))
    out = tmp_path / "ft"
    assert main(["finetune", "--ckpt", ckpt, "--data", ali, "--out", str(out),
                 "--config", str(tmp_path / "cfg.json"), "--depth", "1",
                 "--avg-window", "2", "--epochs", "1", "--batch-size", "4"]) == 0
    model, _, _ = load_checkpoint(ckpt)
    resolved = json.loads((out / "run_config.json").read_text())["resolved"]
    assert resolved["fpe"] == asdict(model.cfg.fpe)
    assert resolved["transformer"] == asdict(model.cfg.transformer)
    assert (resolved["train"]["epochs"], resolved["train"]["batch_size"]) == (1, 4)


def test_align_union_from_without_no_select_is_config_error(pipeline_dirs, tmp_path,
                                                             capsys):
    """--union-from only defines the --no-select union: alone it exits 2, nothing written."""
    _, _, pre, _, _ = pipeline_dirs
    out = tmp_path / "ali"
    capsys.readouterr()
    assert main(["align", "--in", pre, "--out", str(out), "--task", "mi",
                 "--union-from", pre]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: --union-from defines the --no-select union; it needs --no-select"]
    assert not out.exists()


def test_union_from_template_trains_and_evaluates_across_sets(tmp_path):
    """align --no-select --union-from A B widens both sets to the sorted union of
    A's and B's channels, so a model trained on A evaluates B."""
    pre = {}
    for kind, catalogue, seed in (("a", "train", "100"), ("b", "eval", "200")):
        raw, pre[kind] = str(tmp_path / f"{kind}_raw"), str(tmp_path / f"{kind}_pp")
        assert main(["synth", "--task", "mi", "--domains", "2", "--trials", "6",
                     "--trial-len", "1.0", "--channels", catalogue,
                     "--out", raw, "--seed", seed]) == 0
        assert main(["preprocess", "--in", raw, "--out", pre[kind]]) == 0
    own = {kind: set(afpm.data_model.load_manifest(path).all_channels())
           for kind, path in pre.items()}
    union = sorted(own["a"] | own["b"])
    assert own["a"] != set(union) != own["b"]
    ali = {}
    for kind in pre:
        ali[kind] = str(tmp_path / f"{kind}_al")
        assert main(["align", "--in", pre[kind], "--out", ali[kind], "--task", "mi",
                     "--no-select", "--union-from", pre["a"], pre["b"]]) == 0
        aligned = afpm.data_model.load_manifest(ali[kind])
        assert list(aligned.alignment["template_channels"]) == union
    ckpt = str(tmp_path / "run" / "model.ckpt")
    assert main(toy_train(ali["a"], ckpt) + ["--epochs", "1"]) == 0
    assert main(["eval", "--ckpt", ckpt, "--data", ali["b"],
                 "--out", str(tmp_path / "eval")]) == 0
    assert json.loads((tmp_path / "eval" / "report.json").read_text())["n_trials"] == 12


def test_align_no_ea_skips_every_domain(pipeline_dirs, tmp_path):
    """--no-ea: every alignment.json entry is skipped and the manifest records ea false."""
    _, _, pre, _, _ = pipeline_dirs
    out = tmp_path / "ali"
    assert main(["align", "--in", pre, "--out", str(out), "--task", "mi", "--no-ea"]) == 0
    entries = json.loads((out / "alignment.json").read_text())
    assert len(entries) == 2 and all(e["skipped"] is True for e in entries), entries
    assert afpm.data_model.load_manifest(str(out)).alignment["ea"] is False


def test_per_channel_patches_checkpoint_evaluates(pipeline_dirs, tmp_path):
    """train --per-channel-patches records the switch in the checkpoint, and eval runs on it."""
    _, _, _, ali, _ = pipeline_dirs
    ckpt = str(tmp_path / "run" / "model.ckpt")
    assert main(toy_train(ali, ckpt) + ["--epochs", "1", "--per-channel-patches"]) == 0
    with open(ckpt, "rb") as f:
        assert json.loads(f.readline())["config"]["per_channel_patches"] is True
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(tmp_path / "eval")]) == 0
    assert json.loads((tmp_path / "eval" / "report.json").read_text())["n_trials"] == 24

import json
import math
import os
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
    "entry.shape", "entry.name", "entry.kind", "duplicate", "nan",
])
def test_bad_checkpoint_is_one_line_data_error(defect, pipeline_dirs, tmp_path, capsys):
    _, _, _, ali, ckpt = pipeline_dirs
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt_checkpoint(Path(ckpt).read_bytes(), defect))
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
    files = [run_dir / "run_config.json", eval_dir / "report.json", eval_dir / "report.txt"]
    before = [f.read_bytes() for f in files]

    fail_writes_in(monkeypatch, afpm.data_model)
    with pytest.raises(OSError, match="mid-write"):
        echo_config(str(run_dir), "train", {"seed": 1}, resolve_config("erp").to_dict())
    # the report is one write: fail on the first
    fail_writes_in(monkeypatch, afpm.cli, afpm.data_model, fail_at=1)
    with pytest.raises(OSError, match="mid-write"):
        main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(eval_dir), "--folds", "2"])
    assert [f.read_bytes() for f in files] == before
    assert sorted(p.name for p in run_dir.iterdir()) == ["run_config.json"]
    assert sorted(p.name for p in eval_dir.iterdir()) == ["report.json", "report.txt"]


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
    _, _, _, ali, ckpt = pipeline_dirs
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(tmp_path / "ev"),
                 flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: {flag} must be at least 1, got {value}"], err
    assert not (tmp_path / "ev").exists()


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
    no_folds = ["eval", "--ckpt", "m.ckpt", "--data", "d", "--folds", "0"]
    assert main(no_folds + ["--threads", "0"]) == EXIT_CONFIG
    assert main(no_folds + ["--threads=2"]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as e:
        main(no_folds + ["--threads", "abc"])
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
    assert {shlex.split(c)[1] for c in commands} == set(afpm.cli._HANDLERS)
    parser = afpm.cli.build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


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

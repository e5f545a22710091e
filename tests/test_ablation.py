"""Tiny-scale ablation machinery tests; directional claims live in acceptance."""

import json
import re
import shutil
import weakref

import numpy as np
import pytest

import afpm.ablation
from afpm.ablation import VARIANTS, ablation_csv, run_ablation, run_variant
from afpm.alignment import union_template
from afpm.config import resolve_config
from afpm.data_model import load_manifest, task_template
from afpm.errors import ConfigError, DataError
from afpm.evaluation import evaluate_dataset
from afpm.model import load_checkpoint, save_checkpoint
from afpm.pipeline import stack_aligned
from afpm.preprocessing import default_config, preprocess_dataset
from afpm.synth import SynthSpec, generate_dataset

from conftest import trials_of


@pytest.fixture(scope="module")
def tiny_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("abl")
    tr_spec = SynthSpec(task="mi", n_domains=2, trials_per_domain=16,
                        channel_subsets=(("C3", "C4", "O1"), ("FC3", "FC4", "CZ")),
                        trial_len_s=1.0, name="tr")
    ev_spec = SynthSpec(task="mi", n_domains=1, trials_per_domain=10,
                        channel_subsets=(("C3", "C4", "CZ"),),
                        trial_len_s=1.0, name="ev")
    tr = generate_dataset(tr_spec, seed=0, out_dir=str(root / "tr"))
    ev = generate_dataset(ev_spec, seed=1, out_dir=str(root / "ev"))
    tr = preprocess_dataset(tr, default_config("mi"), str(root / "tr_pp"))
    ev = preprocess_dataset(ev, default_config("mi"), str(root / "ev_pp"))
    return root, tr, ev


def tiny_run_cfg():
    overrides = {
        "fpe": {"embed_dim": 4, "frame_window": 128, "frame_stride": 128,
                "avg_window": 2, "avg_shift": 2, "token_dim": 8, "mlp_hidden": 6},
        "transformer": {"depth": 1, "heads": 2, "dim_head": 3, "dim_mlp": 6},
        "train": {"epochs": 2, "batch_size": 8, "seed": 0},
    }
    return resolve_config("mi", overrides=overrides)


PRIMARY_METRIC = {"mi": "balanced_accuracy", "erp": "auroc"}


def mean_primary(reports: dict, task: str) -> float:
    """Mean of the task's primary metric over one variant's reports by eval set."""
    metric = PRIMARY_METRIC[task]
    return float(np.mean([rep.mean(metric) for rep in reports.values()]))


def test_plan_requires_full_baseline(tmp_path):
    # the variants are checked before any dataset is read
    missing = [str(tmp_path / "missing")]
    with pytest.raises(ConfigError, match="FULL"):
        run_ablation(tiny_run_cfg(), ("NO_EA",), missing, missing, str(tmp_path / "w"))
    with pytest.raises(ConfigError, match="unknown"):
        run_ablation(tiny_run_cfg(), ("FULL", "NO_THING"), missing, missing,
                     str(tmp_path / "w"))
    assert not (tmp_path / "w").exists()


def test_datasets_sharing_a_name_within_a_list_are_refused(tiny_sets, tmp_path):
    """Aligned sets and reports are kept by dataset name: a second set of one
    name in --train or in --eval is refused before any work, while a training
    and an eval set may share one."""
    _, tr, ev = tiny_sets
    tr_copy, ev_copy = str(tmp_path / "tr_copy"), str(tmp_path / "ev_copy")
    shutil.copytree(tr.root, tr_copy)
    shutil.copytree(ev.root, ev_copy)
    work = tmp_path / "work"
    for train_paths, eval_paths, kind, first, second in (
            ([tr.root, tr_copy], [ev.root], "training", tr.root, tr_copy),
            ([tr.root], [ev.root, ev_copy], "eval", ev.root, ev_copy)):
        with pytest.raises(DataError, match=re.escape(f"{kind} datasets {first} and "
                                                      f"{second} are both named")):
            run_ablation(tiny_run_cfg(), ("FULL",), train_paths, eval_paths, str(work))
        assert not work.exists()
    assert json.loads((tmp_path / "tr_copy" / "manifest.json").read_text())["name"] == tr.name
    results = run_ablation(tiny_run_cfg(), ("FULL",), [tr.root], [tr_copy], str(work))
    assert list(results["FULL"]) == [tr.name]


def test_union_template_covers_all_channels(tiny_sets):
    _, tr, ev = tiny_sets
    base = task_template("mi")
    union = union_template([tr], base)
    assert set(union.target_channels) == {"C3", "C4", "O1", "FC3", "FC4", "CZ"}
    assert union.template_len == base.template_len


def test_full_only_plan_single_row(tiny_sets):
    root, tr, ev = tiny_sets
    results = run_ablation(tiny_run_cfg(), ("FULL",), [tr.root], [ev.root],
                           str(root / "w1"))
    assert list(results) == ["FULL"]
    csv = ablation_csv(results)
    assert csv.count("\n") == 2  # header + one row
    assert list(results["FULL"]) == ["ev"]
    assert 0.0 <= mean_primary(results["FULL"], "mi") <= 1.0


def test_ablation_holds_one_model_at_a_time(tiny_sets, monkeypatch):
    """``run_ablation`` lets each variant's model go before the next variant
    starts, and returns the reports ``run_variant`` made."""
    root, tr, ev = tiny_sets
    models, reports = [], {}

    def tracked(variant, *args, **kwargs):
        assert all(ref() is None for ref in models), f"a model is alive as {variant} starts"
        res = run_variant(variant, *args, **kwargs)
        models.append(weakref.ref(res.model))
        reports[variant] = res.reports
        return res

    monkeypatch.setattr(afpm.ablation, "run_variant", tracked)
    variants = ("FULL", "NO_EA", "NO_FPE")
    results = run_ablation(tiny_run_cfg(), variants, [tr.root], [ev.root], str(root / "w5"))
    assert len(models) == len(variants) and all(ref() is None for ref in models)
    assert list(results) == list(variants)
    assert all(results[v] is reports[v] for v in variants)


def test_variants_share_upstream_bytes_and_differ_only_at_flagged_stage(tiny_sets):
    root, tr, ev = tiny_sets
    cfg = tiny_run_cfg()
    full = run_variant("FULL", cfg, [tr], [ev], str(root / "w2"))
    no_ea = run_variant("NO_EA", cfg, [tr], [ev], str(root / "w2"))
    no_map = run_variant("NO_MAP", cfg, [tr], [ev], str(root / "w2"))
    no_fpe = run_variant("NO_FPE", cfg, [tr], [ev], str(root / "w2"))

    assert full.raw_input_digest == no_ea.raw_input_digest == no_map.raw_input_digest
    for key in full.stage_hashes:
        # selection output identical when selection is untouched
        assert full.stage_hashes[key]["selected"] == no_ea.stage_hashes[key]["selected"]
        # EA changes its stage: with selection and mapping shared, only EA
        # can make the written payloads differ
        assert full.stage_hashes[key]["output"] != no_ea.stage_hashes[key]["output"]
        # NO_FPE shares the whole spatial pipeline with FULL
        assert full.stage_hashes[key]["output"] == no_fpe.stage_hashes[key]["output"]


def test_no_fpe_token_count_formula(tiny_sets):
    root, tr, ev = tiny_sets
    res = run_variant("NO_FPE", tiny_run_cfg(), [tr], [ev], str(root / "w3"))
    cfg = res.model.cfg
    assert cfg.per_channel_patches
    g = -(-cfg.template_len // cfg.fpe.frame_stride) + 1
    k = (g - cfg.fpe.avg_window) // cfg.fpe.avg_shift + 1
    assert cfg.n_patches == g
    assert cfg.n_tokens == cfg.n_channels * k + 1


def test_every_variant_config_saves_and_loads_unchanged(tiny_sets, tmp_path):
    _, tr, ev = tiny_sets
    for variant in VARIANTS:
        model = run_variant(variant, tiny_run_cfg(), [tr], [ev], str(tmp_path / "w")).model
        path = str(tmp_path / f"{variant}.ckpt")
        save_checkpoint(model, path)
        assert load_checkpoint(path)[0].cfg == model.cfg


def test_no_map_pads_to_template(tiny_sets):
    """Unmapped trials fill the first template rows, from the first sample; the rest is zero."""
    root, tr, ev = tiny_sets
    res = run_variant("NO_MAP", tiny_run_cfg(), [tr], [ev], str(root / "w4"))
    spec = task_template("mi")
    cfg = res.model.cfg
    assert cfg.template_channels == tuple(f"ROW{i:02d}" for i in range(spec.n_channels))
    assert cfg.template_len == spec.template_len
    assert res.reports["ev"].n_trials == 10

    aligned = load_manifest(str(root / "w4" / "no_map" / "train" / "tr"))
    x, _, _, layout = stack_aligned([aligned], "mi")
    assert x.shape == (32, spec.n_channels, spec.template_len)
    assert layout == {"mapped": False, "template_channels": spec.target_channels,
                      "template_len": spec.template_len, "class_names": aligned.class_names}
    for k, (rec, trial) in enumerate(trials_of(aligned)):
        rows, n = trial.shape
        assert rows < spec.n_channels and n < spec.template_len
        assert np.array_equal(x[k, :rows, :n], trial)
        assert not x[k, rows:].any() and not x[k, :, n:].any()


def test_no_map_report_is_eval_of_its_aligned_eval_set(tiny_sets):
    """NO_MAP evaluates each eval set as `eval` does, also one with more rows than
    training, and the eval sets do not shape the model."""
    root, tr, ev = tiny_sets
    spec = SynthSpec(task="mi", n_domains=1, trials_per_domain=10,
                     channel_subsets=(("C3", "C4", "CZ", "CP3", "CP4"),),
                     trial_len_s=1.0, name="wide")
    wide = generate_dataset(spec, seed=2, out_dir=str(root / "wide"))
    wide = preprocess_dataset(wide, default_config("mi"), str(root / "wide_pp"))
    res = run_variant("NO_MAP", tiny_run_cfg(), [tr], [wide], str(root / "w6"))
    aligned = load_manifest(str(root / "w6" / "no_map" / "eval" / "wide"))
    assert len(aligned.channel_sets[aligned.trials[0].channel_set]) == 5
    report = evaluate_dataset(res.model, aligned)
    assert report.to_dict() == res.reports["wide"].to_dict()

    narrow = run_variant("NO_MAP", tiny_run_cfg(), [tr], [ev], str(root / "w7"))
    model, other = res.model, narrow.model
    assert model.cfg == other.cfg
    assert all(np.array_equal(v, other.params[k]) for k, v in model.params.items())


def test_all_variants_listed():
    assert VARIANTS == ("FULL", "NO_SELECT", "NO_EA", "NO_MAP", "NO_FPE")

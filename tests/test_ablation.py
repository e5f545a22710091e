"""Tiny-scale ablation machinery tests; directional claims live in acceptance."""

import numpy as np
import pytest

from afpm.ablation import (
    AblationPlan, AblationResult, VARIANTS, ablation_csv, run_ablation,
    run_variant, union_template,
)
from afpm.config import resolve_config
from afpm.data_model import task_template
from afpm.errors import ConfigError
from afpm.evaluation import primary_metric
from afpm.model import model_dims
from afpm.preprocessing import default_config, preprocess_dataset
from afpm.synth import SynthSpec, generate_dataset


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
        "fpe": {"embed_dim": 4, "frame_window": 16, "frame_stride": 16,
                "avg_window": 2, "avg_shift": 2, "token_dim": 8, "mlp_hidden": 6},
        "transformer": {"depth": 1, "heads": 2, "dim_head": 3, "dim_mlp": 6},
        "train": {"epochs": 2, "batch_size": 8},
        "template": {"len": 256},
    }
    return resolve_config("mi", overrides=overrides, seed=0)


def mean_primary(res: AblationResult, task: str) -> float:
    metric = primary_metric(task)
    return float(np.mean([rep.mean(metric) for rep in res.reports.values()]))


def test_plan_requires_full_baseline():
    with pytest.raises(ConfigError, match="FULL"):
        AblationPlan(run_cfg=tiny_run_cfg(), variants=("NO_EA",))
    with pytest.raises(ConfigError, match="unknown"):
        AblationPlan(run_cfg=tiny_run_cfg(), variants=("FULL", "NO_THING"))


def test_union_template_covers_all_channels(tiny_sets):
    _, tr, ev = tiny_sets
    base = task_template("mi")
    union = union_template([tr], base)
    assert set(union.target_channels) == {"C3", "C4", "O1", "FC3", "FC4", "CZ"}
    assert union.template_len == base.template_len


def test_full_only_plan_single_row(tiny_sets):
    root, tr, ev = tiny_sets
    plan = AblationPlan(run_cfg=tiny_run_cfg(), variants=("FULL",), seed=0)
    results = run_ablation(plan, [tr.root], [ev.root], str(root / "w1"))
    assert list(results) == ["FULL"]
    csv = ablation_csv(results, "mi")
    assert csv.count("\n") == 2  # header + one row
    assert 0.0 <= mean_primary(results["FULL"], "mi") <= 1.0


def test_variants_share_upstream_bytes_and_differ_only_at_flagged_stage(tiny_sets):
    root, tr, ev = tiny_sets
    plan = AblationPlan(run_cfg=tiny_run_cfg(), seed=0)
    full = run_variant("FULL", plan, [tr], [ev], str(root / "w2"))
    no_ea = run_variant("NO_EA", plan, [tr], [ev], str(root / "w2"))
    no_map = run_variant("NO_MAP", plan, [tr], [ev], str(root / "w2"))
    no_fpe = run_variant("NO_FPE", plan, [tr], [ev], str(root / "w2"))

    assert full.raw_input_digest == no_ea.raw_input_digest == no_map.raw_input_digest
    for key in full.stage_hashes:
        # selection output identical when selection is untouched
        assert full.stage_hashes[key]["selected"] == no_ea.stage_hashes[key]["selected"]
        # EA output differs when EA is disabled
        assert full.stage_hashes[key]["aligned"] != no_ea.stage_hashes[key]["aligned"]
        # NO_FPE shares the whole spatial pipeline with FULL
        assert full.stage_hashes[key]["output"] == no_fpe.stage_hashes[key]["output"]


def test_no_fpe_token_count_formula(tiny_sets):
    root, tr, ev = tiny_sets
    plan = AblationPlan(run_cfg=tiny_run_cfg(), seed=0)
    res = run_variant("NO_FPE", plan, [tr], [ev], str(root / "w3"))
    cfg = res.train_result.model.cfg
    assert cfg.per_channel_patches
    dims = model_dims(cfg)
    g = -(-cfg.template_len // cfg.fpe.frame_stride) + 1
    k = (g - cfg.fpe.avg_window) // cfg.fpe.avg_shift + 1
    assert dims.n_seq == cfg.n_channels * k
    assert dims.n_tokens == cfg.n_channels * k + 1


def test_no_map_pads_to_max_channels(tiny_sets):
    root, tr, ev = tiny_sets
    plan = AblationPlan(run_cfg=tiny_run_cfg(), seed=0)
    res = run_variant("NO_MAP", plan, [tr], [ev], str(root / "w4"))
    assert res.train_result.model.cfg.template_channels[0] == "ROW00"
    assert res.reports["ev"].n_trials == 10


def test_all_variants_listed():
    assert VARIANTS == ("FULL", "NO_SELECT", "NO_EA", "NO_MAP", "NO_FPE")

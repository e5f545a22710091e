"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The cross-dataset
generalization, ablation-direction, and fine-tuning criteria share one
synthetic experiment suite per task (session-scoped), so the heavy training
work happens once.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from afpm.ablation import run_variant
from afpm.alignment import align_domain, inv_sqrt_psd
from afpm.config import resolve_config
from afpm.data_model import MI_TEMPLATE_CHANNELS
from afpm.evaluation import auc_pr, auroc, balanced_accuracy, cohens_kappa
from afpm.model import (FPEConfig, ModelConfig, TransformerConfig,
                        extract_patches, forward,
                        init_model, patch_count, window_matrix)
from afpm.preprocessing import default_config, preprocess_dataset
from afpm.synth import (ERP_EVAL_SUBSETS, ERP_TRAIN_SUBSETS, MI_EVAL_SUBSETS,
                        MI_TRAIN_SUBSETS, SynthSpec, generate_dataset,
                        hemisphere)
from afpm.training import TrainConfig, chronological_split, train

from conftest import named_backward, random_spd, trials_of

SEEDS = (0, 1, 2)


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: whitening exactness


def test_criterion_1_whitening_exactness(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 18))
        d = int(rng.integers(1, 21))
        t = int(rng.integers(max(m, 32), 513))
        group = [rng.standard_normal((m, t)) for _ in range(d)]
        aligned, _ = align_domain(group)
        acc = sum(x @ x.T for x in aligned) / d
        worst = max(worst, float(np.linalg.norm(acc - np.eye(m), "fro")))
    elapsed = time.time() - t0
    report("criterion 1 (whitening exactness)",
           worst < 1e-6 and elapsed < 10.0,
           f"worst residual {worst:.2e} over 100 domains in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: inverse-sqrt defining identity


def test_criterion_2_inv_sqrt_defining_identity(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 29))
        a = random_spd(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        b = inv_sqrt_psd(a)
        worst = max(worst, float(np.linalg.norm(b @ a @ b - np.eye(n), "fro")))
    report("criterion 2 (inverse-sqrt identity)", worst < 1e-8,
           f"worst ||BAB - I||_F = {worst:.2e} over 100 SPD matrices")


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness on the reduced config


def test_criterion_3_gradient_check(rng):
    t0 = time.time()
    fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=8, avg_window=2,
                    avg_shift=2, token_dim=8, mlp_hidden=8)
    t_cfg = TransformerConfig(depth=1, heads=2, dim_head=3, dim_mlp=6)
    cfg = ModelConfig(task="mi", template_channels=("C3", "CZ", "C4"),
                      template_len=64, fpe=fpe, transformer=t_cfg,
                      class_names=("left_hand", "right_hand"))
    model = init_model(cfg, seed=1, dtype=np.float64)
    for name, arr in model.params.items():
        if not name.endswith(".g"):
            model.params[name] = arr + 0.3 * rng.standard_normal(arr.shape)

    x = rng.standard_normal((2, 3, 64))
    y = np.array([0, 1])
    _, grads = named_backward(x, y, model)

    def loss_at():
        from afpm.model import forward_cached
        from afpm.training import batch_cross_entropy
        logits, _ = forward_cached(x, model, want_cache=False)
        return batch_cross_entropy(logits, y)[0]

    h = 1e-4
    worst_by_tensor = {}
    for name, p in model.params.items():
        flat = p.reshape(-1)
        errs = []
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp = loss_at()
            flat[i] = old - h
            lm = loss_at()
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            an = float(grads[name].reshape(-1)[i])
            # tiny gradients are compared absolutely (denominator floor 1e-3)
            errs.append(abs(fd - an) / max(abs(fd), abs(an), 1e-3))
        worst_by_tensor[name] = max(errs)
    elapsed = time.time() - t0
    worst = max(worst_by_tensor.values())
    worst_name = max(worst_by_tensor, key=worst_by_tensor.get)
    report("criterion 3 (gradient correctness)",
           worst < 1e-4 and elapsed < 120.0,
           f"all {len(worst_by_tensor)} tensors pass; worst rel err "
           f"{worst:.2e} ({worst_name}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: index formulas vs exhaustive enumeration


def test_criterion_4_index_formulas(rng):
    checked = 0
    for _ in range(1000):
        t_prime = int(rng.integers(1, 200))
        d = int(rng.integers(1, 32))
        m = int(rng.integers(1, 32))
        p = int(rng.integers(1, 12))
        h = int(rng.integers(1, 8))
        g_formula = patch_count(t_prime, d)
        # exhaustive: windows with start (g-1)*d inside the template, plus the
        # one boundary window of the formula
        g_enum = sum(1 for g in range(1, t_prime + 2) if (g - 1) * d < t_prime) + 1
        assert g_formula == g_enum, (t_prime, d)
        if p > g_formula:
            continue
        k_formula = (g_formula - p) // h + 1
        k_enum = sum(1 for k in range(1, g_formula + 1) if (k - 1) * h + p <= g_formula)
        assert k_formula == k_enum, (g_formula, p, h)

        # content check on a small template, including zero-padded boundary
        n_ch = int(rng.integers(1, 3))
        x = rng.standard_normal((n_ch, t_prime))
        fpe = FPEConfig(embed_dim=1, frame_window=m, frame_stride=d, avg_window=p,
                        avg_shift=h, token_dim=1, mlp_hidden=1)
        patches = extract_patches(x[None], fpe)[0]
        assert patches.shape == (g_formula, n_ch * m)
        padded = np.zeros((n_ch, (g_formula - 1) * d + m))
        padded[:, :t_prime] = x
        g_probe = int(rng.integers(0, g_formula))
        manual = padded[:, g_probe * d:g_probe * d + m].reshape(-1)
        assert np.array_equal(patches[g_probe], manual)
        e = rng.standard_normal((g_formula, 2))
        assert (window_matrix(g_formula, p, h) @ e).shape == (k_formula, 2)
        checked += 1
    report("criterion 4 (index formulas)", checked >= 600,
           f"G and K formulas match exhaustive enumeration on {checked} "
           f"valid configs out of 1000 sampled")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def pairwise_auroc(scores, labels):
    pos = scores[labels.astype(bool)]
    neg = scores[~labels.astype(bool)]
    total = sum(1.0 if p > q else 0.5 if p == q else 0.0
                for p in pos for q in neg)
    return total / (pos.size * neg.size)


def sweep_auc_pr(scores, labels):
    labels = labels.astype(bool)
    n_pos = labels.sum()
    ap, prev_recall = 0.0, 0.0
    for th in sorted(set(scores), reverse=True):
        picked = scores >= th
        tp = int((picked & labels).sum())
        precision = tp / int(picked.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_criterion_5_metric_oracles(rng):
    auroc_exact, ap_close = True, True
    for i in range(100):
        n = int(rng.integers(4, 201))
        scores = np.round(rng.random(n), 2 if i % 2 else 6)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        auroc_exact &= auroc(scores, labels) == pairwise_auroc(scores, labels)
        ap_close &= abs(auc_pr(scores, labels) - sweep_auc_pr(scores, labels)) < 1e-12
    # frozen confusion-matrix examples
    labels = np.array([0] * 50 + [1] * 50)
    preds = np.array([0] * 45 + [1] * 5 + [0] * 10 + [1] * 40)
    bacc_ok = abs(balanced_accuracy(preds, labels) - 0.85) < 1e-12
    kappa_ok = abs(cohens_kappa(preds, labels) - 0.7) < 1e-12
    report("criterion 5 (metric oracles)",
           auroc_exact and ap_close and bacc_ok and kappa_ok,
           "AUROC == pairwise oracle exactly, AUC-PR within 1e-12, "
           "kappa=0.7 and balanced accuracy=0.85 on the frozen confusion")


# ---------------------------------------------------------------------------
# synthetic experiment suites (shared by criteria 6-8)


def build_task_suite(task, tmp, budget_epochs, train_trials, eval_trials,
                     ft_trials, snr, ft_snr, trial_len, ft_lr, ft_epochs):
    """Generate data once; run FULL/NO_SELECT/NO_EA/NO_MAP for three seeds."""
    train_subsets = MI_TRAIN_SUBSETS if task == "mi" else ERP_TRAIN_SUBSETS
    eval_subsets = MI_EVAL_SUBSETS if task == "mi" else ERP_EVAL_SUBSETS
    t0 = time.time()

    def gen(name, n_dom, n_tr, subsets, seed, level):
        spec = SynthSpec(task=task, n_domains=n_dom, trials_per_domain=n_tr,
                         channel_subsets=subsets, trial_len_s=trial_len,
                         snr_db=level, domain_gain=0.3, name=name)
        raw = generate_dataset(spec, seed=seed, out_dir=str(tmp / f"{name}_raw"))
        return preprocess_dataset(raw, default_config(task), str(tmp / name))

    pp_train = gen(f"{task}_train", 4, train_trials, train_subsets, 100, snr)
    pp_eval = gen(f"{task}_eval", 2, eval_trials, eval_subsets, 200, snr)
    pp_ft = gen(f"{task}_ft", 2, ft_trials, eval_subsets, 300, ft_snr)
    gen_seconds = time.time() - t0

    run_cfgs = {seed: resolve_config(task, overrides={
        "train": {"epochs": budget_epochs, "seed": seed}}) for seed in SEEDS}
    results = {}
    full_seconds = 0.0
    for variant in ("FULL", "NO_SELECT", "NO_EA", "NO_MAP"):
        per_seed = []
        for seed in SEEDS:
            t1 = time.time()
            res = run_variant(variant, run_cfgs[seed], [pp_train], [pp_eval],
                              str(tmp / f"work_s{seed}"))
            if variant == "FULL":
                full_seconds += time.time() - t1
            per_seed.append(res)
        results[variant] = per_seed
    return {
        "task": task,
        "pp_train": pp_train, "pp_eval": pp_eval, "pp_ft": pp_ft,
        "results": results,
        "ft_lr": ft_lr, "ft_epochs": ft_epochs,
        "gen_seconds": gen_seconds, "full_seconds": full_seconds,
    }


@pytest.fixture(scope="session")
def mi_suite(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acc_mi")
    return build_task_suite("mi", tmp, budget_epochs=18, train_trials=96,
                            eval_trials=80, ft_trials=120, snr=6.0, ft_snr=1.0,
                            trial_len=3.0, ft_lr=1e-4, ft_epochs=10)


@pytest.fixture(scope="session")
def erp_suite(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acc_erp")
    return build_task_suite("erp", tmp, budget_epochs=26, train_trials=240,
                            eval_trials=180, ft_trials=240, snr=9.0, ft_snr=4.0,
                            trial_len=1.0, ft_lr=4e-5, ft_epochs=8)


def primary_of(suite, variant, seed_idx):
    res = suite["results"][variant][seed_idx]
    metric = "balanced_accuracy" if suite["task"] == "mi" else "auroc"
    vals = [rep.mean(metric) for rep in res.reports.values()]
    return float(np.mean(vals))


def band_power(x, rate, lo, hi):
    spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2
    f = np.fft.rfftfreq(x.shape[-1], 1.0 / rate)
    return spec[..., (f >= lo) & (f <= hi)].mean(axis=-1)


def mi_bandpower_oracle(manifest):
    """Linear rule on raw trials: sign of right-minus-left log band power."""
    montage = set(MI_TEMPLATE_CHANNELS)
    preds, labels = [], []
    for rec, x in trials_of(manifest):
        left, right = [], []
        for i, ch in enumerate(manifest.channels_of(rec)):
            if ch not in montage:
                continue
            p = math.log(float(band_power(x[i], manifest.rate_hz, 8, 12)))
            (left if hemisphere(ch) == "left" else
             right if hemisphere(ch) == "right" else []).append(p)
        preds.append(0 if np.mean(right) - np.mean(left) < 0 else 1)
        labels.append(rec.label)
    return balanced_accuracy(np.array(preds), np.array(labels))


# ---------------------------------------------------------------------------
# criterion 6: calibration-free cross-dataset generalization


@pytest.mark.slow
def test_criterion_6_mi_generalization(mi_suite):
    oracle = mi_bandpower_oracle(mi_suite["pp_eval"])
    scores = [primary_of(mi_suite, "FULL", i) for i in range(len(SEEDS))]
    runtime = mi_suite["gen_seconds"] + mi_suite["full_seconds"]
    ok = oracle >= 0.95 and min(scores) >= 0.85 and runtime < 900
    report("criterion 6 (MI cross-dataset)", ok,
           f"balanced accuracy per seed {[f'{s:.3f}' for s in scores]} "
           f"(target >= 0.85), band-power oracle {oracle:.3f} (>= 0.95), "
           f"runtime {runtime:.0f}s (< 900s)")


@pytest.mark.slow
def test_criterion_6_erp_generalization(erp_suite):
    scores = [primary_of(erp_suite, "FULL", i) for i in range(len(SEEDS))]
    runtime = erp_suite["gen_seconds"] + erp_suite["full_seconds"]
    labels = np.array([t.label for t in erp_suite["pp_eval"].trials])
    ratio = labels.sum() / labels.size
    ok = min(scores) >= 0.80 and abs(ratio - 1 / 6) < 0.02 and runtime < 900
    report("criterion 6 (ERP cross-dataset)", ok,
           f"AUROC per seed {[f'{s:.3f}' for s in scores]} (target >= 0.80) "
           f"at target ratio {ratio:.3f}, runtime {runtime:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# criterion 7: ablation directionality


@pytest.mark.slow
@pytest.mark.parametrize("task_fixture", ["mi_suite", "erp_suite"])
def test_criterion_7_ablation_direction(task_fixture, request):
    suite = request.getfixturevalue(task_fixture)
    task = suite["task"]
    full = np.array([primary_of(suite, "FULL", i) for i in range(len(SEEDS))])
    details, ok = [], True
    for variant in ("NO_EA", "NO_SELECT", "NO_MAP"):
        abl = np.array([primary_of(suite, variant, i) for i in range(len(SEEDS))])
        diffs = full - abl
        margin = float(diffs.mean())
        spread = float(diffs.std(ddof=1))
        good = margin > spread
        ok &= good
        details.append(f"{variant}: margin {margin:+.3f} vs seed-spread {spread:.3f}")
    report(f"criterion 7 (ablation direction, {task})", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: fine-tuning does not hurt


@pytest.mark.slow
@pytest.mark.parametrize("task_fixture", ["mi_suite", "erp_suite"])
def test_criterion_8_finetune_direction(task_fixture, request):
    from afpm.alignment import align_dataset
    from afpm.evaluation import compute_metrics, positive_class_index, subject_groups
    from afpm.pipeline import stack_aligned

    suite = request.getfixturevalue(task_fixture)
    task = suite["task"]
    metric = "balanced_accuracy" if task == "mi" else "auroc"
    aligned = align_dataset(suite["pp_ft"],
                            str(suite["pp_ft"].root) + "_aligned")
    x, y, doms, _ = stack_aligned([aligned], task)
    positive = positive_class_index(aligned.class_names, task)
    ft_cfg = TrainConfig(epochs=suite["ft_epochs"], batch_size=16,
                         lr_init=suite["ft_lr"] / 2, lr_max=suite["ft_lr"],
                         weight_decay=0.01, seed=0)

    befores, afters = [], []
    for seed_idx, seed in enumerate(SEEDS):
        pretrained = suite["results"]["FULL"][seed_idx].model
        for idx in subject_groups(doms).values():
            xs, ys = x[idx], y[idx]
            tune_idx, eval_idx = chronological_split(idx.size, 0.3)
            result = train(xs[tune_idx], ys[tune_idx], pretrained,
                           replace(ft_cfg, seed=seed))
            before = compute_metrics(task, forward(xs[eval_idx], pretrained),
                                     ys[eval_idx], positive)[metric]
            after = compute_metrics(task, forward(xs[eval_idx], result.model),
                                    ys[eval_idx], positive)[metric]
            befores.append(before)
            afters.append(after)
    mean_before, mean_after = float(np.mean(befores)), float(np.mean(afters))
    report(f"criterion 8 (fine-tuning direction, {task})",
           mean_after >= mean_before,
           f"mean {metric} before {mean_before:.3f} -> after {mean_after:.3f} "
           f"over {len(befores)} subject x seed runs")


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism (subprocess, --threads 1)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "afpm.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_determinism(tmp_path):
    payloads = []
    for run in ("first", "second"):
        d = tmp_path / run
        raw, pre, ali = str(d / "raw"), str(d / "pre"), str(d / "ali")
        ckpt = str(d / "run" / "model.ckpt")
        run_cli(["synth", "--task", "erp", "--domains", "2", "--trials", "18",
                 "--out", raw, "--seed", "11", "--threads", "1"])
        run_cli(["preprocess", "--in", raw, "--out", pre, "--threads", "1"])
        run_cli(["align", "--in", pre, "--out", ali, "--task", "erp",
                 "--threads", "1"])
        run_cli(["train", "--data", ali, "--task", "erp", "--out", ckpt,
                 "--epochs", "2", "--batch-size", "8", "--depth", "1",
                 "--seed", "11", "--threads", "1"])
        run_cli(["eval", "--ckpt", ckpt, "--data", ali, "--out", str(d / "ev"),
                 "--seed", "11", "--threads", "1"])
        payloads.append((Path(ckpt).read_bytes(),
                         (d / "ev" / "report.json").read_bytes()))
    same_ckpt = payloads[0][0] == payloads[1][0]
    same_report = payloads[0][1] == payloads[1][1]
    report("criterion 9 (CLI determinism)", same_ckpt and same_report,
           f"checkpoint bytes identical: {same_ckpt}, "
           f"report bytes identical: {same_report}")


# ---------------------------------------------------------------------------
# criterion 10: preset fidelity


def test_criterion_10_preset_fidelity():
    mi = resolve_config("mi")
    erp = resolve_config("erp")
    checks = {
        "MI L": mi.fpe.embed_dim == 20, "MI m": mi.fpe.frame_window == 25,
        "MI P": mi.fpe.avg_window == 25, "MI h": mi.fpe.avg_shift == 5,
        "MI depth": mi.transformer.depth == 6, "MI heads": mi.transformer.heads == 8,
        "MI dim_head": mi.transformer.dim_head == 64,
        "MI dim_mlp": mi.transformer.dim_mlp == 40,
        "ERP L": erp.fpe.embed_dim == 20, "ERP m": erp.fpe.frame_window == 25,
        "ERP P": erp.fpe.avg_window == 5, "ERP h": erp.fpe.avg_shift == 2,
        "ERP depth": erp.transformer.depth == 6, "ERP heads": erp.transformer.heads == 8,
        "ERP dim_head": erp.transformer.dim_head == 10,
        "ERP dim_mlp": erp.transformer.dim_mlp == 20,
    }
    bad = [k for k, v in checks.items() if not v]
    report("criterion 10 (preset fidelity)", not bad,
           "all 16 preset values match" if not bad else f"mismatches: {bad}")

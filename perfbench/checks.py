"""Output checks against independent computations or properties of the method.

Each check reads what a CLI stage wrote and raises ``CheckFailed`` when a
property does not hold. Datasets are read with the small reader below, not
with ``afpm.data_model``, so a fault in the program's loader cannot hide a
fault in what it wrote. No check compares against stored copies of earlier
output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

from afpm.model import forward, load_checkpoint

TARGET_RATE_HZ = 256.0
# Largest share of a preprocessed trial's power allowed outside the pass band
# (Hann-windowed periodogram, summed over all trials of a corpus).
MAX_OUT_OF_BAND_SHARE = 0.05
# Deviation of a domain's mean X X^T from the identity allowed after float32
# storage of whitened trials.
WHITENING_TOL = 1e-5
EVAL_BATCH = 256
# Below this many steps the loss of both presets can still sit on its initial
# ln 2 plateau, where "last epoch below first" holds only by chance.
LEARNING_STEPS = 64


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# an independent reader for the on-disk dataset format


def read_manifest(path: str) -> dict:
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["root"] = path
    return doc


def trial_channels(doc: dict, rec: dict) -> list[str]:
    return doc["channel_sets"][str(rec["channels"])]


def read_trial(doc: dict, rec: dict) -> np.ndarray:
    flat = np.fromfile(os.path.join(doc["root"], rec["path"]), dtype="<f4")
    return flat.reshape(len(trial_channels(doc, rec)), rec["n_samples"])


def subject_of(domain_id: str) -> str:
    return domain_id.rsplit(":", 1)[0]


# ---------------------------------------------------------------------------
# preprocess


def check_preprocessed(raw_dir: str, pp_dir: str, band: tuple[float, float]) -> str:
    raw, pp = read_manifest(raw_dir), read_manifest(pp_dir)
    require(pp["rate_hz"] == TARGET_RATE_HZ, f"{pp_dir}: rate {pp['rate_hz']} Hz")
    require(len(pp["trials"]) == len(raw["trials"]), f"{pp_dir}: trial count changed")
    lo, hi = band
    out_band = total = 0.0
    for r, p in zip(raw["trials"], pp["trials"]):
        want = math.floor(Fraction(r["n_samples"]) * Fraction(TARGET_RATE_HZ)
                          / Fraction(raw["rate_hz"]) + Fraction(1, 2))
        require(p["n_samples"] == want,
                f"{p['path']}: {p['n_samples']} samples, expected {want}")
        require((p["label"], p["domain_id"]) == (r["label"], r["domain_id"]),
                f"{p['path']}: label or domain changed")
        require(trial_channels(pp, p) == trial_channels(raw, r),
                f"{p['path']}: channels changed")
        x = read_trial(pp, p).astype(np.float64)
        spec = np.abs(np.fft.rfft(x * np.hanning(x.shape[1]), axis=1)) ** 2
        freqs = np.fft.rfftfreq(x.shape[1], 1.0 / TARGET_RATE_HZ)
        outside = (freqs < lo) | (freqs > hi)
        out_band += float(spec[:, outside].sum())
        total += float(spec.sum())
    share = out_band / total
    require(share <= MAX_OUT_OF_BAND_SHARE,
            f"{pp_dir}: {share:.3f} of the power lies outside {lo}-{hi} Hz")
    return f"out-of-band power share {share:.4f}"


# ---------------------------------------------------------------------------
# align


def check_aligned(pp_dir: str, al_dir: str) -> str:
    """Per domain: mean X X^T over the selected rows is I, other rows are zero."""
    pp, al = read_manifest(pp_dir), read_manifest(al_dir)
    template = al["alignment"]["template_channels"]
    t_len = al["alignment"]["template_len"]
    require(len(al["trials"]) == len(pp["trials"]), f"{al_dir}: trial count changed")
    grams: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    rows_of: dict[str, list[int]] = {}
    for p, a in zip(pp["trials"], al["trials"]):
        require((a["label"], a["domain_id"]) == (p["label"], p["domain_id"]),
                f"{a['path']}: label or domain changed")
        require(trial_channels(al, a) == template and a["n_samples"] == t_len,
                f"{a['path']}: not in the {len(template)}x{t_len} template layout")
        present = set(trial_channels(pp, p))
        rows = [i for i, ch in enumerate(template) if ch in present]
        dom = a["domain_id"]
        require(rows_of.setdefault(dom, rows) == rows, f"{dom}: channel sets differ")
        x = read_trial(al, a)
        other = np.ones(len(template), dtype=bool)
        other[rows] = False
        require(not np.any(x[other]), f"{a['path']}: an unselected row is nonzero")
        require(not np.any(x[:, p["n_samples"]:]), f"{a['path']}: padding is nonzero")
        sel = x[rows].astype(np.float64)
        grams[dom] = grams.get(dom, 0.0) + sel @ sel.T
        counts[dom] = counts.get(dom, 0) + 1
    worst = 0.0
    for dom, g in grams.items():
        dev = float(np.max(np.abs(g / counts[dom] - np.eye(g.shape[0]))))
        worst = max(worst, dev)
        require(dev <= WHITENING_TOL, f"{dom}: mean X X^T deviates from I by {dev:.2e}")
    return f"{len(grams)} domains, worst |mean XX^T - I| {worst:.2e}"


# ---------------------------------------------------------------------------
# train


def check_trained(al_dir: str, ckpt: str, epochs: int, batch_size: int) -> str:
    n = len(read_manifest(al_dir)["trials"])
    with open(os.path.join(os.path.dirname(ckpt), "history.csv"), encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    steps_per_epoch = -(-n // batch_size)
    require(len(rows) == epochs * steps_per_epoch,
            f"history has {len(rows)} steps, expected {epochs} x {steps_per_epoch}")
    loss = np.array([float(r["loss"]) for r in rows])
    require(bool(np.all(np.isfinite(loss))), "non-finite loss in history")
    first = float(loss[:steps_per_epoch].mean())
    last = float(loss[-steps_per_epoch:].mean())
    if len(rows) >= LEARNING_STEPS:
        require(last < first, f"last epoch loss {last:.4f} not below first {first:.4f}")

    model, opt, _extra = load_checkpoint(ckpt)
    stored = _checkpoint_payload(ckpt)
    reloaded = {("param", k): v for k, v in model.params.items()}
    for kind in ("m", "v"):
        reloaded.update({(kind, k): v for k, v in (opt or {}).get(kind, {}).items()})
    require(stored.keys() == reloaded.keys(), "reloaded tensors differ from the file's")
    for key, arr in stored.items():
        require(np.array_equal(arr, reloaded[key]), f"tensor {key} changed on reload")
    return f"loss {first:.4f} -> {last:.4f}, {len(stored)} tensors reload exactly"


def _checkpoint_payload(path: str) -> dict:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    out, offset = {}, 0
    for e in header["entries"]:
        count = int(np.prod(e["shape"])) if e["shape"] else 1
        out[(e["kind"], e["name"])] = np.frombuffer(
            blob, dtype="<f4", count=count, offset=offset).reshape(e["shape"])
        offset += 4 * count
    require(offset == len(blob), f"{path}: payload has trailing bytes")
    return out


# ---------------------------------------------------------------------------
# eval


def check_eval(ckpt: str, al_dir: str, report_dir: str, task: str) -> str:
    """The reported primary metric equals an oracle on ``forward`` logits."""
    with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    model, _, _ = load_checkpoint(ckpt)
    doc = read_manifest(al_dir)
    x = np.stack([read_trial(doc, rec) for rec in doc["trials"]])
    y = np.array([rec["label"] for rec in doc["trials"]])
    # same batches as the eval command, so the logits are bitwise the same
    logits = np.concatenate([forward(x[i:i + EVAL_BATCH], model)
                             for i in range(0, len(x), EVAL_BATCH)])
    if task == "erp":
        metric = "auroc"
        pos = [c.lower() for c in doc["class_names"]].index("target")
        z = logits - logits.max(axis=1, keepdims=True)
        scores = (np.exp(z) / np.exp(z).sum(axis=1, keepdims=True))[:, pos]
        sp, sn = scores[y == pos], scores[y != pos]
        wins = (sp[:, None] > sn[None, :]).sum() + 0.5 * (sp[:, None] == sn[None, :]).sum()
        oracle = float(wins) / (sp.size * sn.size)
    else:
        metric = "balanced_accuracy"
        k = logits.shape[1]
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (y, logits.argmax(axis=1)), 1)
        present = confusion.sum(axis=1) > 0
        oracle = float(np.mean(np.diag(confusion)[present] / confusion.sum(axis=1)[present]))
    got = report["metrics"][metric]["mean"]
    require(report["n_trials"] == len(doc["trials"]), "report trial count is wrong")
    require(abs(got - oracle) <= 1e-12, f"{metric} {got!r} != oracle {oracle!r}")
    return f"{metric} {oracle:.4f} equals the oracle"


# ---------------------------------------------------------------------------
# finetune


def check_finetune(al_dir: str, ft_dir: str, fraction: float) -> str:
    doc = read_manifest(al_dir)
    sizes: dict[str, int] = {}
    for rec in doc["trials"]:
        s = subject_of(rec["domain_id"])
        sizes[s] = sizes.get(s, 0) + 1
    with open(os.path.join(ft_dir, "finetune.json"), encoding="utf-8") as f:
        summary = json.load(f)
    got = {s["subject"]: (s["n_tune"], s["n_eval"]) for s in summary["subjects"]}
    want = {s: (round(fraction * n), n - round(fraction * n)) for s, n in sizes.items()}
    require(got == want, f"fine-tune splits {got} != {want}")
    for s in summary["subjects"]:
        for side in ("before", "after"):
            require(all(math.isfinite(v) for v in s[side].values()),
                    f"{s['subject']}: non-finite {side} metric")
    return f"{len(got)} subjects split {sorted(want.values())}"


# ---------------------------------------------------------------------------
# ablate


def check_ablation(train_pp: str, heldout_pp: str, ab_dir: str,
                   digests: dict[str, str], variants: tuple[str, ...]) -> str:
    """Stage hashes agree where the variants share stages; inputs are unchanged."""
    h = hashlib.sha256()
    names = []
    for d in (train_pp, heldout_pp):
        doc = read_manifest(d)
        names.append(doc["name"])
        for rec in doc["trials"]:
            with open(os.path.join(d, rec["path"]), "rb") as f:
                h.update(f.read())
    raw = h.hexdigest()
    require(sorted(digests) == sorted(variants), f"variants run: {sorted(digests)}")
    for v, d in digests.items():
        require(d == raw, f"{v}: raw_input_digest differs from the input files' SHA-256")

    def hashes(variant):
        out = {}
        for kind in ("train", "eval"):
            base = os.path.join(ab_dir, "work", variant.lower(), kind)
            for name in sorted(os.listdir(base)):
                out[f"{kind}:{name}"] = read_manifest(
                    os.path.join(base, name))["alignment"]["stage_hashes"]
        return out

    full, no_fpe, no_ea = hashes("FULL"), hashes("NO_FPE"), hashes("NO_EA")
    require(len(full) == 2, f"aligned datasets {sorted(full)}")
    for key, stages in full.items():
        require(no_fpe[key]["output"] == stages["output"],
                f"{key}: FULL and NO_FPE outputs differ")
        require(no_ea[key]["selected"] == stages["selected"],
                f"{key}: FULL and NO_EA selections differ")
    with open(os.path.join(ab_dir, "ablation.csv"), encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    require(len(rows) == len(variants), f"ablation.csv has {len(rows)} rows")
    return f"{len(variants)} variants over {names}"


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()

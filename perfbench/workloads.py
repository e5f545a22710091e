"""Workload definitions: the synthetic corpora and the CLI stage chain of each.

Every workload runs the README walkthrough's stage chain (preprocess, align,
train, eval, finetune) on corpora synthesized from the workload seed;
``mi_walkthrough`` adds the README's ``afpm ablate --variants all``. The
sizes are chosen so that three rounds of the chain fit the benchmark's time
budget (see README.md for the figures behind each choice).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Corpus:
    domains: int
    trials: int       # per domain
    rate_hz: float
    channels: str     # synth channel catalogue: "train" or "eval"


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    train: Corpus
    heldout: Corpus
    snr_db: float
    epochs: int                      # train command
    ft_epochs: int
    ft_lr: tuple[float, float]       # (lr_init, lr_max) for finetune
    ablate_epochs: int | None = None  # None: no ablate stage
    # Runs per round of the stages that are too short to time once; the
    # median counts. Chosen so each such stage spends 1-3 s per round.
    repeats: dict[str, int] = field(default_factory=dict)
    batch_size: int = 64
    model_flags: tuple[str, ...] = ()

    @property
    def band(self) -> tuple[float, float]:
        return (4.0, 30.0) if self.task == "mi" else (1.0, 30.0)


FT_FRACTION = 0.3
WORKLOADS = ("mi_walkthrough", "erp_walkthrough")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

FULL = {
    # The README's MI walkthrough, ablation included, at the MI preset.
    # ablate trains five variants; one epoch of two steps each keeps NO_FPE's
    # 103-token steps (about 2.4 s each) from taking the whole round. 32
    # train steps time the 7-token step; the README's 25 epochs on 480
    # trials (200 steps) do not fit a run's time budget.
    "mi_walkthrough": Workload(
        "mi_walkthrough", "mi",
        train=Corpus(4, 32, 256.0, "train"), heldout=Corpus(2, 64, 256.0, "eval"),
        snr_db=6.0, epochs=16, ft_epochs=2, ft_lr=(5e-5, 1e-4), ablate_epochs=1,
        repeats={"preprocess": 3, "eval": 8, "finetune": 2}),
    # Raw rates other than 256 Hz make resampling do real work; 250 -> 256 Hz
    # needs a 128/125 polyphase filter. 12 dB rather than the acceptance
    # suite's 9 dB so that 66 steps leave the initial loss plateau.
    "erp_walkthrough": Workload(
        "erp_walkthrough", "erp",
        train=Corpus(4, 96, 512.0, "train"), heldout=Corpus(2, 120, 250.0, "eval"),
        snr_db=12.0, epochs=11, ft_epochs=4, ft_lr=(2e-5, 4e-5),
        repeats={"eval": 10, "finetune": 3}),
}

# Toy sizes for the smoke check: one-block models, a handful of trials.
TOY = {
    "mi_walkthrough": Workload(
        "mi_walkthrough", "mi",
        train=Corpus(4, 8, 256.0, "train"), heldout=Corpus(2, 10, 256.0, "eval"),
        snr_db=6.0, epochs=4, ft_epochs=1, ft_lr=(5e-5, 1e-4), ablate_epochs=1,
        repeats={"eval": 2}, batch_size=8, model_flags=("--depth", "1")),
    "erp_walkthrough": Workload(
        "erp_walkthrough", "erp",
        train=Corpus(4, 12, 512.0, "train"), heldout=Corpus(2, 30, 250.0, "eval"),
        snr_db=12.0, epochs=4, ft_epochs=1, ft_lr=(2e-5, 4e-5),
        repeats={"eval": 2}, batch_size=8, model_flags=("--depth", "1")),
}

SCALES = {"full": FULL, "toy": TOY}


def corpus_seeds(seed: int) -> tuple[int, int]:
    """Synth seeds of the train and held-out corpora; seed 0 gives the README's."""
    return 100 + 1000 * seed, 200 + 1000 * seed

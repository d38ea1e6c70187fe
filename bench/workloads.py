"""The benchmark's workloads: what each pins at corpus-gen, which CLI
stages build its prerequisites, which stages are timed, and what each
timed repetition is checked against.

Every workload uses the `desk` preset on the `overlapping` grammar
(n=2000, T=20) and pins its whole configuration at `corpus-gen` with
`--set`, so later stages take no overrides and a checkpoint never meets a
configuration other than the one it was written under.
"""

from __future__ import annotations

from dataclasses import dataclass

# Generator pretraining length for the adversarial and evaluation
# workloads' set-up. Longer pretraining makes rollouts repeat more (unique
# share of scored rows: 1.000 after 5 epochs, 0.965 after 40), so a
# "score unique rows only" change shows more. 8 epochs (about 3 s) keeps
# every run inside the benchmark's time budget, at the price of a unique
# share near 1 (the traced run reports it as
# adversarial.rollout_unique_share). At 8 epochs the final NLL also varies
# least from seed to seed (quartile spread 0.07 over six seeds, 0.10 at 10
# epochs), which keeps final_nll steady across runs.
SETUP_G_EPOCHS = 8

BASE = {
    "corpus.grammar": "overlapping",
    "corpus.n": "2000",
    "corpus.seq_len": "20",
    "pretrain.patience": "1000",   # early stopping never fires
    "embed.epochs": "2",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                                # "mle", "adv" or "eval": what to check
    why: str
    settings: dict[str, str]                 # pinned at corpus-gen
    setup: tuple[tuple[str, ...], ...]       # stages after corpus-gen
    timed: tuple[tuple[str, ...], ...]       # stages of one timed repetition
    setup_per_rep: bool                      # a fresh set-up before every repetition

    def config(self) -> dict[str, str]:
        return {**BASE, **self.settings}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mle_pretrain",
        kind="mle",
        why="teacher-forced forward pass and BPTT at B=64 from a fresh init; "
            "LSTM step, BPTT and sigmoid work shows here",
        settings={"pretrain.g_epochs": "8"},
        setup=(),
        timed=(("pretrain-g",),),
        setup_per_rep=True),
    Workload(
        name="adv_cnn",
        kind="adv",
        why="default adversarial path: cnn scoring of rollout rows, free-running "
            "rollout steps and rollout bookkeeping dominate",
        settings={"disc.kind": "cnn", "pretrain.g_epochs": str(SETUP_G_EPOCHS),
                  "pretrain.d_epochs_cnn": "3", "adv.iterations": "2"},
        setup=(("pretrain-g",), ("pretrain-d",)),
        timed=(("advtrain",),),
        setup_per_rep=False),
    Workload(
        name="adv_birnn",
        kind="adv",
        why="same schedule with the birnn body: forward-only recurrent scoring "
            "at 2048-row chunks dominates",
        settings={"disc.kind": "birnn", "pretrain.g_epochs": str(SETUP_G_EPOCHS),
                  "pretrain.d_epochs_birnn": "1", "adv.iterations": "1"},
        setup=(("pretrain-g",), ("pretrain-d",)),
        timed=(("advtrain",),),
        setup_per_rep=False),
    Workload(
        name="evaluate",
        kind="eval",
        why="eval micro (pure-Python BLEU and self-BLEU) then macro "
            "(cnn evaluator training and skip-gram) on a pretrained generator",
        settings={"pretrain.g_epochs": str(SETUP_G_EPOCHS), "eval.seeds": "1"},
        setup=(("pretrain-g",),),
        timed=(("eval", "--tier", "micro"), ("eval", "--tier", "macro")),
        setup_per_rep=False),
)}

"""Adversarial training with Monte Carlo rollout rewards.

The generator is trained by REINFORCE: sampled sequences are scored by a
discriminator, and intermediate positions receive the mean discriminator
score of K rollout completions. Completions come from a separate rollout
network whose weights trail the generator through a soft update
beta <- (1 - alpha) * theta + alpha * beta after every iteration, which
damps reward churn while the discriminator moves.

Raw scores can be rescaled before the policy step. The odds-ratio form
D/(1-D) amplifies confident scores; the rank-based form maps batch ranks
through a sigmoid so rewards keep a fixed scale no matter how strong the
discriminator is. Either way a per-position batch-mean baseline can be
subtracted to cut gradient variance.

Pretraining loops for both players live here too, so every training
entry point shares one file. Each of the three loops is a generator that
trains one epoch or iteration per step and yields its row of metrics; the
caller owns the clock, the log and the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .corpus import SequenceData
from .discriminators import Discriminator, score, train_step
from .generator import (GeneratorDims, free_run, hoist, mean_nll, mle_step,
                        policy_gradient_step, sample_batch, teacher_scan)
from .numerics import AdamState, ParamStore, RngStream, Workspace, chunk_slices, sigmoid

ODA_CAP = 1e6
RESCALE_MODES = ("none", "oda", "bra")
PRETRAIN_CLIP = 5.0    # global gradient-norm cap of both pretraining loops
MIN_DELTA = 1e-4       # validation NLL gain that resets early-stopping patience


@dataclass
class TrainSchedule:
    iterations: int
    g_steps: int
    d_steps: int
    batch_size: int
    rollouts: int
    alpha: float
    rescale: str
    delta: float
    baseline: bool
    teacher_forcing: bool
    g_lr: float
    d_lr: float
    clip: float


def soft_update(rollout_params: ParamStore, gen_params: ParamStore,
                alpha: float) -> None:
    """beta <- (1 - alpha) * theta + alpha * beta, exact at both endpoints."""
    beta = rollout_params.flat
    if alpha == 0.0:
        beta[...] = gen_params.flat
    elif alpha != 1.0:
        beta *= alpha
        beta += (1.0 - alpha) * gen_params.flat


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

ScoreFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def mc_rollout_rewards(rollout_params: ParamStore, dims: GeneratorDims,
                       score_fn: ScoreFn, tokens: np.ndarray, labels: np.ndarray,
                       n_rollouts: int, rng: RngStream, ws: Workspace) -> np.ndarray:
    """Per-position rewards for sampled sequences, shape (B, T).

    Position t < T-1 gets the mean score of n_rollouts completions of the
    prefix ending at t; the final position is scored directly. Completions
    are generated by the rollout network restarted from its own
    teacher-forced state at the cut, with all rollout randomness drawn up
    front from one stream, in row blocks; `score_fn` then scores all
    completions in one call. The teacher-forced states come from the scan
    alone, without the output head; they live in `ws` and are dead when
    this returns.
    """
    B, T = tokens.shape
    K = n_rollouts
    rewards = np.empty((B, T))
    if T > 1:
        hz = hoist(rollout_params, dims)
        states = teacher_scan(hz, tokens, labels, ws)
        n_rows = (T - 1) * B * K
        # row r = p*B*K + b*K + k, cuts p ascending so the active set at
        # generation position q is exactly the first q*B*K rows
        seqs = np.tile(tokens[None, :, None, :], (T - 1, 1, K, 1)).reshape(n_rows, T)
        h = np.repeat(states.hs[1:T], K, axis=1).reshape(n_rows, -1)
        c = np.repeat(states.cs[1:T], K, axis=1).reshape(n_rows, -1)
        labels_rows = np.tile(labels[None, :, None], (T - 1, 1, K)).reshape(n_rows)
        u = rng.uniform((n_rows, T))
        free_run(hz, labels_rows, h, c, seqs, u[:, 1:], range(B * K, n_rows + 1, B * K))
        del hz, h, c, u   # dead once generated, and scoring is where the call peaks
        scores = score_fn(seqs, labels_rows)
        rewards[:, :T - 1] = scores.reshape(T - 1, B, K).mean(axis=2).T
    rewards[:, T - 1] = score_fn(tokens, labels)
    return rewards


def rescale_oda(rewards: np.ndarray) -> np.ndarray:
    """Odds ratio D/(1-D); scores clamped below 1-1e-6 and the output
    capped at 1e6 so a saturated discriminator cannot produce inf."""
    d = np.clip(rewards, 0.0, 1.0 - 1e-6)
    return np.minimum(d / (1.0 - d), ODA_CAP)


def rank_tensor(scores: np.ndarray) -> np.ndarray:
    """Descending 1-based ranks per column with stable tie order."""
    B = scores.shape[0]
    order = np.argsort(-scores, axis=0, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, B + 1)[:, None] *
                      np.ones_like(order[:1]), axis=0)
    return ranks


def rescale_bra(rewards: np.ndarray, delta: float) -> np.ndarray:
    """Batch-rank rescale sigma(delta * (0.5 - rank/B)); the batch median
    lands near 0.5 regardless of the raw score scale."""
    B = rewards.shape[0]
    ranks = rank_tensor(rewards)
    return sigmoid(delta * (0.5 - ranks / B))


def subtract_baseline(rewards: np.ndarray) -> np.ndarray:
    """Remove the per-position batch mean."""
    return rewards - rewards.mean(axis=0, keepdims=True)


def apply_reward_shaping(rewards: np.ndarray, sched: TrainSchedule) -> np.ndarray:
    if sched.rescale == "oda":
        rewards = rescale_oda(rewards)
    elif sched.rescale == "bra":
        rewards = rescale_bra(rewards, sched.delta)
    if sched.baseline:
        rewards = subtract_baseline(rewards)
    return rewards


# ---------------------------------------------------------------------------
# Pretraining loops
# ---------------------------------------------------------------------------


def _epochs_since_best(valid_nlls: list[float]) -> int:
    """Epochs since the validation NLL last beat its best by MIN_DELTA."""
    best, stale = np.inf, 0
    for v in valid_nlls:
        best, stale = (v, 0) if v < best - MIN_DELTA else (best, stale + 1)
    return stale


def pretrain_generator(params: ParamStore, dims: GeneratorDims,
                       train: SequenceData, valid: SequenceData, rng: RngStream,
                       epochs: int, opt: AdamState, batch_size: int,
                       patience: int, start_epoch: int,
                       prior_valid: tuple) -> Iterator[dict]:
    """Teacher-forced maximum likelihood with early stopping on validation
    NLL, yielding one row per epoch. Training always keeps the latest
    weights; stopping just ends the loop once `patience` epochs pass
    without improvement.

    Resuming: pass `start_epoch` plus the previous epochs' validation NLLs
    so the early-stopping state replays to where the interrupted run left
    off. Patience is checked before each epoch, so a run that had already
    stopped trains nothing more, and epoch indices key the shuffle streams,
    so the continued trajectory matches an uninterrupted run.
    """
    ws = Workspace()   # every step's teacher-forced pass, reused across batches
    valid_nlls = list(prior_valid)
    for epoch in range(start_epoch, epochs):
        if _epochs_since_best(valid_nlls) >= patience:
            break
        order = rng.child("order", epoch).permutation(len(train))
        losses = []
        for sl in chunk_slices(len(train), batch_size):
            idx = order[sl]
            losses.append(mle_step(params, dims, opt, train.tokens[idx],
                                   train.labels[idx], clip=PRETRAIN_CLIP, ws=ws))
        valid_nll = mean_nll(params, dims, valid, ws=ws)
        valid_nlls.append(valid_nll)
        yield {"epoch": epoch, "train_nll": float(np.mean(losses)),
               "valid_nll": valid_nll}


def discriminator_step(disc: Discriminator, opt: AdamState, gen_params: ParamStore,
                       dims: GeneratorDims, train: SequenceData, idx: np.ndarray,
                       fake_rng: RngStream, drop_rng: RngStream,
                       clip: float) -> tuple[float, float]:
    """One real-vs-generated update: the real rows `idx`, then as many fakes
    under the same labels, so both classes share one condition marginal."""
    labels = train.labels[idx]
    fake = sample_batch(gen_params, dims, labels, train.seq_len, fake_rng)
    targets = np.concatenate([np.ones(len(idx), dtype=np.int64),
                              np.zeros(len(idx), dtype=np.int64)])
    return train_step(disc, opt, np.concatenate([train.tokens[idx], fake], axis=0),
                      np.concatenate([labels, labels]), targets, drop_rng, clip=clip)


def pretrain_discriminator(disc: Discriminator, gen_params: ParamStore,
                           dims: GeneratorDims, train: SequenceData,
                           rng: RngStream, epochs: int, opt: AdamState,
                           batch_size: int, start_epoch: int) -> Iterator[dict]:
    """Real-vs-generated pretraining, one discriminator_step per batch,
    yielding one row per epoch."""
    for epoch in range(start_epoch, epochs):
        order = rng.child("order", epoch).permutation(len(train))
        losses, accs = [], []
        for b, sl in enumerate(chunk_slices(len(train), batch_size)):
            loss, acc = discriminator_step(disc, opt, gen_params, dims, train, order[sl],
                                           rng.child("fake", epoch, b),
                                           rng.child("drop", epoch, b), PRETRAIN_CLIP)
            losses.append(loss)
            accs.append(acc)
        yield {"epoch": epoch, "d_loss": float(np.mean(losses)),
               "d_acc": float(np.mean(accs))}


# ---------------------------------------------------------------------------
# Adversarial loop
# ---------------------------------------------------------------------------


def adversarial_train(gen_params: ParamStore, dims: GeneratorDims,
                      disc: Discriminator, train: SequenceData,
                      monitor: SequenceData, sched: TrainSchedule, rng: RngStream,
                      rollout_params: ParamStore, g_opt: AdamState, d_opt: AdamState,
                      start_iteration: int, threads: int) -> Iterator[dict]:
    """Alternate policy-gradient generator steps with discriminator steps,
    updating every given state in place and yielding one row per
    iteration. A fresh run starts the rollout network as a copy of the
    generator.

    All randomness is derived from (purpose, iteration, step) child
    streams, so resuming at `start_iteration` with restored parameters and
    optimizer states continues the original trajectory exactly.
    """
    score_fn = partial(score, disc, threads=threads)
    for i in range(start_iteration, sched.iterations):
        g_objs, reward_means = [], []
        for g in range(sched.g_steps):
            # one workspace per generator step, shared by its three
            # teacher-forced passes and dropped at the step's end, so no
            # buffer is held through the next rollouts or the d-steps
            ws = Workspace()
            idx = rng.child("glabels", i, g).integers(0, len(train), sched.batch_size)
            labels = train.labels[idx]
            tokens = sample_batch(gen_params, dims, labels, train.seq_len,
                                  rng.child("gsample", i, g))
            raw = mc_rollout_rewards(rollout_params, dims, score_fn, tokens,
                                     labels, sched.rollouts, rng.child("mc", i, g), ws)
            shaped = apply_reward_shaping(raw, sched)
            g_objs.append(policy_gradient_step(gen_params, dims, g_opt, tokens,
                                               labels, shaped, clip=sched.clip, ws=ws))
            reward_means.append(float(raw.mean()))
            if sched.teacher_forcing:
                ridx = rng.child("tf", i, g).integers(0, len(train), sched.batch_size)
                mle_step(gen_params, dims, g_opt, train.tokens[ridx],
                         train.labels[ridx], clip=sched.clip, ws=ws)
            del ws
        d_losses, d_accs = [], []
        for d in range(sched.d_steps):
            idx = rng.child("dreal", i, d).integers(0, len(train), sched.batch_size)
            loss, acc = discriminator_step(disc, d_opt, gen_params, dims, train, idx,
                                           rng.child("dfake", i, d),
                                           rng.child("drop", i, d), sched.clip)
            d_losses.append(loss)
            d_accs.append(acc)
        soft_update(rollout_params, gen_params, sched.alpha)
        yield {"iteration": i,
               "g_objective": float(np.mean(g_objs)),
               "mean_reward": float(np.mean(reward_means)),
               "d_loss": float(np.mean(d_losses)),
               "d_acc": float(np.mean(d_accs)),
               "nll_test": mean_nll(gen_params, dims, monitor)}

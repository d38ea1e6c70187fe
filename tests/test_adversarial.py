"""Reward shaping, Monte Carlo rollouts against exact enumeration, the
soft-updated rollout network, and the adversarial loop's reproducibility."""

import math
import tracemalloc
import weakref
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from advseq import adversarial, numerics
from advseq.adversarial import (TrainSchedule, adversarial_train,
                                apply_reward_shaping, discriminator_step, mc_rollout_rewards,
                                pretrain_discriminator, pretrain_generator,
                                rank_tensor, rescale_bra, rescale_oda,
                                soft_update, subtract_baseline)
from advseq.corpus import BOS_ID, PAD_ID, SequenceData
from advseq.discriminators import KINDS, DiscriminatorConfig, init_discriminator, score
from advseq.generator import (GeneratorDims, batch_log_probs,
                              init_generator_params, mle_step, mean_nll,
                              policy_gradient_step)
from advseq.numerics import AdamState, RngStream, Workspace
from oracles import SCORER, desk, enumeration_rewards

DIMS = GeneratorDims(vocab_size=4, n_labels=2, d_embed=4, d_hidden=4, d_label=2)


def tiny_corpus(n: int = 24, seq_len: int = 4, seed: int = 130) -> SequenceData:
    rng = RngStream(seed)
    return SequenceData(rng.child("tok").integers(2, DIMS.vocab_size, (n, seq_len)),
                        rng.child("lab").integers(0, 2, n))


# ---------------------------------------------------------------------------
# reward rescaling
# ---------------------------------------------------------------------------


def test_oda_fixed_points():
    r = rescale_oda(np.array([[0.5, 0.8]]))
    assert r[0, 0] == 1.0
    assert abs(r[0, 1] - 4.0) < 1e-12


def test_oda_saturation_is_capped():
    r = rescale_oda(np.array([[0.999999999, 1.0, 0.0]]))
    assert 9.9e5 < r[0, 0] <= 1e6
    assert 9.9e5 < r[0, 1] <= 1e6
    assert r[0, 2] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
def test_oda_is_monotone(vals):
    col = np.array(vals)[:, None]
    out = rescale_oda(col)[:, 0]
    order = np.argsort(col[:, 0], kind="stable")
    assert np.all(np.diff(out[order]) >= 0)


def test_bra_middle_rank_maps_to_half():
    # rank B/2 makes the sigmoid argument exactly zero
    scores = np.arange(8, 0, -1, dtype=np.float64)[:, None]  # ranks 1..8
    out = rescale_bra(scores, delta=12.0)[:, 0]
    assert out[3] == 0.5  # rank 4 of B=8
    assert np.all(np.diff(out) < 0)  # lower score, lower reward


def test_bra_top_rank_value_at_batch_64():
    scores = -np.arange(64, dtype=np.float64)[:, None]  # row 0 is rank 1
    out = rescale_bra(scores, delta=12.0)
    expected = 1.0 / (1.0 + math.exp(-12.0 * (0.5 - 1.0 / 64.0)))
    assert abs(out[0, 0] - expected) < 1e-15
    assert abs(expected - 0.99702) < 5e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=40, unique=True),
       st.sampled_from(["exp", "affine", "cube"]))
def test_bra_depends_only_on_ranks(vals, transform):
    col = np.array(vals)[:, None]
    fn = {"exp": lambda x: np.exp(x / 10.0),
          "affine": lambda x: 3.0 * x + 7.0,
          "cube": lambda x: x ** 3}[transform]
    mapped = fn(col)
    # float rounding can merge very close inputs, which changes the ranks
    # legitimately; only injective images exercise the invariant
    assume(len(np.unique(mapped)) == len(vals))
    assert np.array_equal(rescale_bra(col, 12.0), rescale_bra(mapped, 12.0))


def test_rank_tensor_descending_with_stable_ties():
    scores = np.array([[0.3], [0.9], [0.3], [0.1]])
    ranks = rank_tensor(scores)[:, 0]
    assert ranks[1] == 1          # highest score
    assert ranks[3] == 4          # lowest
    assert (ranks[0], ranks[2]) == (2, 3)  # tie broken by row order


def test_baseline_removes_column_means():
    rewards = RngStream(131).uniform((16, 5))
    out = subtract_baseline(rewards)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    assert np.array_equal(out.argmax(axis=0), rewards.argmax(axis=0))
    assert np.max(np.abs(subtract_baseline(np.full((7, 3), 0.42)))) == 0.0


def test_apply_reward_shaping_combines_modes():
    rewards = RngStream(132).uniform((8, 3))
    sched = desk(TrainSchedule, rescale="none", baseline=False)
    assert np.array_equal(apply_reward_shaping(rewards, sched), rewards)
    sched = desk(TrainSchedule, rescale="oda", baseline=True)
    out = apply_reward_shaping(rewards, sched)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12


# ---------------------------------------------------------------------------
# soft update
# ---------------------------------------------------------------------------


def test_soft_update_endpoints_are_exact():
    gen = init_generator_params(DIMS, RngStream(133, "g"))
    roll = init_generator_params(DIMS, RngStream(133, "r"))
    snap = {n: p.value.copy() for n, p in roll.items()}
    soft_update(roll, gen, 1.0)
    for n, p in roll.items():
        assert np.array_equal(p.value, snap[n])
    soft_update(roll, gen, 0.0)
    for n, p in roll.items():
        assert np.array_equal(p.value, gen.value(n))


def test_soft_update_interpolates():
    gen = init_generator_params(DIMS, RngStream(134, "g"))
    roll = init_generator_params(DIMS, RngStream(134, "r"))
    for _, p in gen.items():
        p.value[...] = 1.0
    for _, p in roll.items():
        p.value[...] = 0.0
    soft_update(roll, gen, 0.8)
    for _, p in roll.items():
        # 0.8*0 + 0.2*1; float arithmetic lands one ulp under 0.2
        assert np.max(np.abs(p.value - 0.2)) < 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo rollout rewards
# ---------------------------------------------------------------------------


def mean_score_fn(tokens, labels):
    # deterministic stand-in discriminator, bounded in (0, 1)
    return (tokens.mean(axis=1) + labels) / (DIMS.vocab_size + 2)


def test_final_position_is_scored_directly():
    params = init_generator_params(DIMS, RngStream(135))
    tokens = np.array([[2, 3, 2], [3, 3, 1]])
    labels = np.array([0, 1])
    rewards = mc_rollout_rewards(params, DIMS, mean_score_fn, tokens, labels,
                                 n_rollouts=4, rng=RngStream(136), ws=Workspace())
    assert np.array_equal(rewards[:, -1], mean_score_fn(tokens, labels))


def test_length_one_sequences_skip_rollouts():
    params = init_generator_params(DIMS, RngStream(137))
    tokens = np.array([[2], [3]])
    labels = np.array([1, 0])
    rewards = mc_rollout_rewards(params, DIMS, mean_score_fn, tokens, labels,
                                 n_rollouts=3, rng=RngStream(138), ws=Workspace())
    assert rewards.shape == (2, 1)
    assert np.array_equal(rewards[:, 0], mean_score_fn(tokens, labels))


def test_constant_score_means_constant_rewards():
    params = init_generator_params(DIMS, RngStream(139))
    tokens = RngStream(140).integers(0, 4, (5, 4))
    labels = RngStream(141).integers(0, 2, 5)
    rewards = mc_rollout_rewards(params, DIMS, lambda t, l: np.full(len(t), 0.7),
                                 tokens, labels, n_rollouts=3, rng=RngStream(142), ws=Workspace())
    assert np.max(np.abs(rewards - 0.7)) < 1e-15


def test_deterministic_rollout_network_gives_exact_completions():
    params = init_generator_params(DIMS, RngStream(143))
    params["gen.out.b"].value[0, 3] += 50.0  # every completion is token 3
    tokens = np.array([[2, 0, 2, 1], [0, 2, 3, 2]])
    labels = np.array([0, 1])
    rewards = mc_rollout_rewards(params, DIMS, mean_score_fn, tokens, labels,
                                 n_rollouts=5, rng=RngStream(144), ws=Workspace())
    for p in range(3):
        completed = tokens.copy()
        completed[:, p + 1:] = 3
        assert np.max(np.abs(rewards[:, p] - mean_score_fn(completed, labels))) < 1e-12


def test_rollout_rows_match_a_straight_line_oracle():
    params = init_generator_params(DIMS, RngStream(160))
    tokens = RngStream(161).integers(0, 4, (3, 5))
    labels = np.array([0, 1, 1])
    (B, T), K = tokens.shape, 2
    scored = []

    def recording_score_fn(rows, row_labels):
        scored.append((rows.copy(), row_labels.copy()))
        return mean_score_fn(rows, row_labels)

    mc_rollout_rewards(params, DIMS, recording_score_fn, tokens, labels, K, RngStream(162),
                       Workspace())
    rows, row_labels = scored[0]
    # the one block of uniforms the rollouts draw, column q for position q
    u = RngStream(162).uniform(((T - 1) * B * K, T))

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    embed, lab = params.value("gen.embed"), params.value("gen.label_embed")
    W, b = params.value("gen.lstm.W"), params.value("gen.lstm.b")[0]
    Wo, bo = params.value("gen.out.W"), params.value("gen.out.b")[0]
    d = DIMS.d_hidden
    assert rows.shape == ((T - 1) * B * K, T)
    for p in range(T - 1):
        for bi in range(B):
            for k in range(K):
                r = p * B * K + bi * K + k
                assert row_labels[r] == labels[bi]
                h, c, prev = np.zeros(d), np.zeros(d), BOS_ID
                expected = []
                for q in range(T):
                    a = np.concatenate([h, embed[prev], lab[labels[bi]]]) @ W + b
                    i, f, o = sig(a[:d]), sig(a[d:2 * d]), sig(a[2 * d:3 * d])
                    c = f * c + i * np.tanh(a[3 * d:])
                    h = o * np.tanh(c)
                    if q <= p:                       # teacher-forced prefix
                        prev = tokens[bi, q]
                    else:                            # inverse-CDF draw from u[r, q]
                        probs = np.exp(h @ Wo + bo - np.max(h @ Wo + bo))
                        cum = np.cumsum(probs / probs.sum())
                        prev = min(int((cum < u[r, q]).sum()), DIMS.vocab_size - 1)
                    expected.append(prev)
                assert rows[r].tolist() == expected, (p, bi, k)


@pytest.mark.parametrize("B,T,K", [(3, 5, 2), (2, 1, 3), (4, 2, 1)])
def test_score_fn_is_called_with_tokens_and_labels_only(B, T, K):
    # the traced benchmark run wraps the third positional argument as
    # counting(tokens, labels) and counts the rows each call scores
    params = init_generator_params(DIMS, RngStream(163))
    tokens = RngStream(164, T).integers(0, 4, (B, T))
    labels = RngStream(165, T).integers(0, 2, B)
    calls = []

    def strict_score_fn(*args, **kwargs):
        calls.append((args, kwargs))
        rows, row_labels = args
        assert rows.ndim == 2 and rows.shape[1] == T and row_labels.shape == (len(rows),)
        return mean_score_fn(rows, row_labels)

    mc_rollout_rewards(params, DIMS, strict_score_fn, tokens, labels, K, RngStream(166),
                       Workspace())
    assert all(len(args) == 2 and not kwargs for args, kwargs in calls)
    assert sum(len(args[0]) for args, _ in calls) == (T - 1) * B * K + B


def test_rollout_rewards_deterministic_in_the_stream():
    params = init_generator_params(DIMS, RngStream(145))
    tokens = RngStream(146).integers(0, 4, (6, 4))
    labels = RngStream(147).integers(0, 2, 6)
    a = mc_rollout_rewards(params, DIMS, mean_score_fn, tokens, labels, 4,
                           RngStream(148), Workspace())
    b = mc_rollout_rewards(params, DIMS, mean_score_fn, tokens, labels, 4,
                           RngStream(148), Workspace())
    c = mc_rollout_rewards(params, DIMS, mean_score_fn, tokens, labels, 4,
                           RngStream(149), Workspace())
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_enumeration_matches_hand_expectation():
    dims = GeneratorDims(vocab_size=2, n_labels=2, d_embed=3, d_hidden=3, d_label=2)
    params = init_generator_params(dims, RngStream(150))
    params["gen.out.W"].value *= 4.0
    tokens = np.array([[1, 0], [0, 1]])
    labels = np.array([0, 1])

    def last_token_score(toks, labs):
        return 0.2 + 0.5 * toks[:, -1]

    rewards = enumeration_rewards(params, dims, last_token_score, tokens, labels)
    # position 0: expectation of the score over the next-token distribution
    logp, _ = batch_log_probs(params, dims, tokens, labels, Workspace())
    for b in range(2):
        probs = []
        for v in range(2):
            alt = tokens[b].copy()
            alt[1] = v
            lp, _ = batch_log_probs(params, dims, alt[None, :], labels[b:b + 1], Workspace())
            probs.append(math.exp(lp[0, 1]))
        assert abs(sum(probs) - 1.0) < 1e-12
        expected = probs[0] * 0.2 + probs[1] * 0.7
        assert abs(rewards[b, 0] - expected) < 1e-12
        assert abs(rewards[b, 1] - (0.2 + 0.5 * tokens[b, 1])) < 1e-15


def test_monte_carlo_approaches_enumeration():
    dims = GeneratorDims(vocab_size=3, n_labels=2, d_embed=4, d_hidden=4, d_label=2)
    params = init_generator_params(dims, RngStream(151))
    tokens = np.array([[2, 0, 1], [1, 2, 0]])
    labels = np.array([0, 1])

    def fn(toks, labs):
        return (toks * np.array([0.11, 0.07, 0.05])).sum(axis=1) / 2.0 + 0.1 * labs

    exact = enumeration_rewards(params, dims, fn, tokens, labels)
    mc = mc_rollout_rewards(params, dims, fn, tokens, labels, 4000, RngStream(152),
                            Workspace())
    assert np.max(np.abs(mc - exact)) < 0.02


def test_doubling_rollouts_cuts_reward_variance():
    dims = GeneratorDims(vocab_size=3, n_labels=2, d_embed=4, d_hidden=4, d_label=2)
    params = init_generator_params(dims, RngStream(153))
    tokens = np.array([[2, 0, 1]])
    labels = np.array([0])

    def fn(toks, labs):
        return toks.mean(axis=1) / 3.0

    small, big = [], []
    for trial in range(100):
        small.append(mc_rollout_rewards(params, dims, fn, tokens, labels, 8,
                                        RngStream(154, "s", trial), Workspace())[0, 0])
        big.append(mc_rollout_rewards(params, dims, fn, tokens, labels, 16,
                                      RngStream(154, "b", trial), Workspace())[0, 0])
    ratio = np.var(big, ddof=1) / np.var(small, ddof=1)
    assert ratio < 0.75


# ---------------------------------------------------------------------------
# schedule validation and teacher forcing
# ---------------------------------------------------------------------------


def test_teacher_forcing_is_a_maximum_likelihood_step():
    # the adversarial loop's teacher-forcing step is mle_step on a copy
    # of the store the rollout network starts from
    data = tiny_corpus()
    a = init_generator_params(DIMS, RngStream(155))
    b = a.copy()
    opt_a = AdamState(a, lr=1e-3)
    opt_b = AdamState(b, lr=1e-3)
    la = mle_step(a, DIMS, opt_a, data.tokens[:8], data.labels[:8], 5.0, Workspace())
    lb = mle_step(b, DIMS, opt_b, data.tokens[:8], data.labels[:8], 5.0, Workspace())
    assert la == lb
    for n, p in a.items():
        assert np.array_equal(p.value, b.value(n))


def test_policy_step_returns_reward_weighted_log_likelihood():
    data = tiny_corpus()
    params = init_generator_params(DIMS, RngStream(156))
    tokens, labels = data.tokens[:8].copy(), data.labels[:8]
    tokens[2, 2:] = PAD_ID
    rewards = RngStream(159).normal(tokens.shape)
    logp, mask = batch_log_probs(params, DIMS, tokens, labels, Workspace())
    assert np.any(rewards * mask < 0) and np.any(rewards * mask > 0)
    want = float((rewards * mask * logp).sum() / len(tokens))
    got = policy_gradient_step(params, DIMS, AdamState(params, lr=1e-3), tokens, labels,
                               rewards, 5.0, Workspace())
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# pretraining loops
# ---------------------------------------------------------------------------


def make_disc(seed: int = 157):
    cfg = desk(DiscriminatorConfig, vocab_size=DIMS.vocab_size, n_labels=2, kind="fasttext",
               **SCORER, d_embed=6, n_buckets=64, dropout=0.1, l2=0.01)
    embed = RngStream(seed, "embed").uniform_range(-0.3, 0.3,
                                                   (DIMS.vocab_size, 6))
    return init_discriminator(cfg, embed, RngStream(seed, "disc"))


def test_pretrain_generator_improves_and_logs():
    data = tiny_corpus(n=40)
    valid = tiny_corpus(n=12, seed=158)
    params = init_generator_params(DIMS, RngStream(159))
    start = mean_nll(params, DIMS, valid)
    history = list(pretrain_generator(params, DIMS, data, valid, RngStream(160),
                                      epochs=8, opt=AdamState(params, lr=5e-3),
                                      batch_size=16, patience=20, start_epoch=0,
                                      prior_valid=()))
    assert [r["epoch"] for r in history] == list(range(8))
    assert history[-1]["valid_nll"] < start
    assert all(r["train_nll"] > 0 for r in history)


def test_pretrain_generator_early_stops():
    data = tiny_corpus(n=40)
    valid = tiny_corpus(n=12, seed=161)
    params = init_generator_params(DIMS, RngStream(162))
    history = list(pretrain_generator(params, DIMS, data, valid, RngStream(163),
                                      epochs=400, opt=AdamState(params, lr=5e-3),
                                      batch_size=16, patience=5, start_epoch=0,
                                      prior_valid=()))
    assert len(history) < 400  # patience ended the loop


def test_pretrain_generator_resume_matches_uninterrupted_run():
    data = tiny_corpus(n=40)
    valid = tiny_corpus(n=12, seed=164)

    full = init_generator_params(DIMS, RngStream(165))
    full_opt = AdamState(full, lr=5e-3)
    full_hist = list(pretrain_generator(full, DIMS, data, valid, RngStream(166),
                                        epochs=6, batch_size=16, opt=full_opt, patience=20,
                                        start_epoch=0, prior_valid=()))

    part = init_generator_params(DIMS, RngStream(165))
    part_opt = AdamState(part, lr=5e-3)
    first = list(pretrain_generator(part, DIMS, data, valid, RngStream(166),
                                    epochs=3, batch_size=16, opt=part_opt, patience=20,
                                    start_epoch=0, prior_valid=()))
    second = list(pretrain_generator(part, DIMS, data, valid, RngStream(166),
                                     epochs=6, batch_size=16, opt=part_opt, patience=20,
                                     start_epoch=3,
                                     prior_valid=tuple(r["valid_nll"] for r in first)))
    assert full_hist == first + second
    for n, p in full.items():
        assert np.array_equal(p.value, part.value(n))


def test_exhausted_prior_valid_trains_nothing():
    # a resumed run whose replayed history already used up its patience
    # returns no rows and leaves the parameters as they were
    data = tiny_corpus(n=40)
    valid = tiny_corpus(n=12, seed=164)
    params = init_generator_params(DIMS, RngStream(165))
    before = {n: p.value.copy() for n, p in params.items()}
    rows = list(pretrain_generator(params, DIMS, data, valid, RngStream(166),
                                   epochs=6, opt=AdamState(params, lr=1e-3), batch_size=16,
                                   patience=2,
                                   start_epoch=3, prior_valid=(2.0, 2.5, 2.5)))
    assert rows == []
    for n, p in params.items():
        assert np.array_equal(p.value, before[n])


def test_pretrain_discriminator_beats_coin_flipping():
    data = tiny_corpus(n=48)
    gen = init_generator_params(DIMS, RngStream(167))
    disc = make_disc()
    history = list(pretrain_discriminator(disc, gen, DIMS, data, RngStream(168), epochs=6,
                                          opt=AdamState(disc.params, lr=5e-3),
                                          batch_size=16, start_epoch=0))
    assert len(history) == 6
    assert history[-1]["d_loss"] < math.log(2)
    assert history[-1]["d_acc"] > 0.5


# ---------------------------------------------------------------------------
# the adversarial loop
# ---------------------------------------------------------------------------


def small_schedule(iterations: int = 3) -> TrainSchedule:
    return desk(TrainSchedule, iterations=iterations, g_steps=2, d_steps=2,
                batch_size=8, rollouts=3, alpha=0.8, rescale="oda",
                baseline=True, teacher_forcing=True, g_lr=1e-4, d_lr=1e-3)


def fresh_state(gen, disc, sched: TrainSchedule) -> dict:
    """What a fresh `advtrain` builds: the rollout network as a copy of the
    generator and new Adam states for both players."""
    return {"rollout_params": gen.copy(), "g_opt": AdamState(gen, lr=sched.g_lr),
            "d_opt": AdamState(disc.params, lr=sched.d_lr)}


def test_zero_iterations_is_a_no_op():
    data = tiny_corpus()
    gen = init_generator_params(DIMS, RngStream(169))
    before = {n: p.value.copy() for n, p in gen.items()}
    disc = make_disc()
    sched = small_schedule(0)
    state = fresh_state(gen, disc, sched)
    history = list(adversarial_train(gen, DIMS, disc, data, data, sched, RngStream(170),
                                     start_iteration=0, threads=1, **state))
    assert history == []
    for n, p in gen.items():
        assert np.array_equal(p.value, before[n])
        assert np.array_equal(state["rollout_params"].value(n), before[n])


def test_history_rows_carry_the_metric_columns():
    data = tiny_corpus()
    gen = init_generator_params(DIMS, RngStream(171))
    disc = make_disc(seed=172)
    sched = small_schedule(2)
    history = list(adversarial_train(gen, DIMS, disc, data, data, sched, RngStream(173),
                                     start_iteration=0, threads=1,
                                     **fresh_state(gen, disc, sched)))
    assert len(history) == 2
    for i, row in enumerate(history):
        assert row["iteration"] == i
        assert set(row) == {"iteration", "g_objective", "mean_reward", "d_loss",
                            "d_acc", "nll_test"}
        assert math.isfinite(row["nll_test"])


def test_no_generator_step_workspace_is_alive_in_the_d_steps(monkeypatch):
    # each g-step's workspace is dropped at the step's end, so no buffer of
    # it is held through the discriminator steps
    workspaces, alive = [], []

    def workspace():
        ws = Workspace()
        workspaces.append(weakref.ref(ws))
        return ws

    def d_step(*args):
        alive.append(sum(ref() is not None for ref in workspaces))
        return discriminator_step(*args)

    monkeypatch.setattr(adversarial, "Workspace", workspace)
    monkeypatch.setattr(adversarial, "discriminator_step", d_step)
    data = tiny_corpus()
    gen = init_generator_params(DIMS, RngStream(171))
    disc = make_disc(seed=172)
    sched = small_schedule(2)
    assert len(list(adversarial_train(gen, DIMS, disc, data, data, sched, RngStream(173),
                                      start_iteration=0, threads=1,
                                      **fresh_state(gen, disc, sched)))) == 2
    assert len(workspaces) == 4 and alive == [0, 0, 0, 0]


def test_same_stream_reproduces_the_run():
    data = tiny_corpus()

    def run():
        gen = init_generator_params(DIMS, RngStream(174))
        disc = make_disc(seed=175)
        sched = small_schedule(3)
        history = list(adversarial_train(gen, DIMS, disc, data, data, sched, RngStream(176),
                                         start_iteration=0, threads=1,
                                         **fresh_state(gen, disc, sched)))
        return history, {n: p.value.copy() for n, p in gen.items()}

    h1, p1 = run()
    h2, p2 = run()
    assert h1 == h2
    for n in p1:
        assert np.array_equal(p1[n], p2[n])


def test_resume_continues_the_exact_trajectory():
    data = tiny_corpus()
    sched = small_schedule(4)

    gen = init_generator_params(DIMS, RngStream(177))
    disc = make_disc(seed=178)
    rollout_params = gen.copy()
    g_opt = AdamState(gen, lr=sched.g_lr)
    d_opt = AdamState(disc.params, lr=sched.d_lr)
    snap = {}
    full_hist = []
    for row in adversarial_train(gen, DIMS, disc, data, data, sched,
                                 RngStream(179), rollout_params=rollout_params,
                                 g_opt=g_opt, d_opt=d_opt, start_iteration=0, threads=1):
        full_hist.append(row)
        if row["iteration"] == 1:
            snap["gen"] = gen.copy()
            snap["disc"] = disc.params.copy()
            snap["roll"] = rollout_params.copy()
            for key, opt in (("g_opt", g_opt), ("d_opt", d_opt)):
                snap[key] = ({n: a.copy() for n, a in opt.m.items()},
                             {n: a.copy() for n, a in opt.v.items()}, opt.t)

    gen2 = snap["gen"]
    disc2 = make_disc(seed=178)
    for name, p in disc2.params.items():
        p.value[...] = snap["disc"].value(name)
    g_opt2 = AdamState(gen2, lr=sched.g_lr)
    d_opt2 = AdamState(disc2.params, lr=sched.d_lr)
    for key, opt in (("g_opt", g_opt2), ("d_opt", d_opt2)):
        for moments, arrays in zip((opt.m, opt.v), snap[key]):
            for n, a in arrays.items():
                moments[n][...] = a   # in place, as restore_run_state fills them
        opt.t = snap[key][2]
    tail_hist = list(adversarial_train(gen2, DIMS, disc2, data, data, sched,
                                       RngStream(179), rollout_params=snap["roll"],
                                       g_opt=g_opt2, d_opt=d_opt2,
                                       start_iteration=2, threads=1))
    assert full_hist[2:] == tail_hist
    for n, p in gen.items():
        assert np.array_equal(p.value, gen2.value(n))


def test_rollout_network_trails_the_generator():
    # after each iteration: beta' - theta' = alpha * (beta - theta'), so the
    # new gap is bounded by alpha * (previous gap + generator movement)
    data = tiny_corpus()
    gen = init_generator_params(DIMS, RngStream(180))
    disc = make_disc(seed=181)
    sched = small_schedule(3)
    state = fresh_state(gen, disc, sched)
    rollout_params = state["rollout_params"]
    theta_prev = gen.copy()
    gaps = []

    def gap(a, b):
        return max(float(np.max(np.abs(p.value - b.value(n)))) for n, p in a.items())

    for _ in adversarial_train(gen, DIMS, disc, data, data, sched, RngStream(182),
                               start_iteration=0, threads=1, **state):
        move = gap(gen, theta_prev)
        gaps.append((gap(rollout_params, gen), move))
        theta_prev = gen.copy()
    prev_gap = 0.0  # rollout starts as a clone of the generator
    for new_gap, move in gaps:
        assert new_gap <= sched.alpha * (prev_gap + move) + 1e-12
        prev_gap = new_gap


def test_thread_count_does_not_change_scores():
    disc = make_disc(seed=183)
    disc.params["d.head.W"].value[...] = RngStream(184).normal(
        disc.params.value("d.head.W").shape, scale=0.5)
    tokens = RngStream(185).integers(0, DIMS.vocab_size, (50, 4))
    labels = RngStream(186).integers(0, 2, 50)
    with mock.patch.object(numerics, "ROW_BLOCK", 16):   # 50 rows in three blocks
        one = score(disc, tokens, labels, threads=1)
        four = score(disc, tokens, labels, threads=4)
    assert np.array_equal(one, four)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), B=st.integers(1, 4), T=st.integers(2, 6),
       K=st.integers(1, 3), block=st.sampled_from([2, 3, 5, 7, 16]),
       threads=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
@example(kind="cnn", B=1, T=6, K=1, block=2, threads=2, seed=0)
@example(kind="birnn", B=1, T=6, K=1, block=3, threads=1, seed=1)
@example(kind="fasttext", B=1, T=5, K=1, block=2, threads=2, seed=2)
def test_row_blocks_do_not_change_rollout_rewards(kind, B, T, K, block, threads, seed):
    # the rewards of an unblocked run (one block) scored at one thread, bit
    # for bit, for any block size and scoring thread count, including block
    # sizes that are not a multiple of B*K and B*K = 1, where a block steps
    # one active row among several
    params = init_generator_params(DIMS, RngStream(seed, "gen"))
    tokens = RngStream(seed, "tok").integers(0, DIMS.vocab_size, (B, T))
    labels = RngStream(seed, "lab").integers(0, 2, B)
    # dims at which a product's rows can take other bits in another row set
    cfg = desk(DiscriminatorConfig, vocab_size=DIMS.vocab_size, n_labels=2, kind=kind, **SCORER,
               d_embed=8, d_hidden=8, n_filters=4, widths=(1, 2))
    disc = init_discriminator(cfg, RngStream(seed, "embed").normal((DIMS.vocab_size, 8)),
                              RngStream(seed, "disc"))
    disc.params["d.head.W"].value[...] = RngStream(seed, "head").normal(
        disc.params.value("d.head.W").shape, scale=0.5)

    def rewards(size: int, n_threads: int) -> np.ndarray:
        with mock.patch.object(numerics, "ROW_BLOCK", size):
            return mc_rollout_rewards(params, DIMS, partial(score, disc, threads=n_threads),
                                      tokens, labels, K, RngStream(seed, "mc"), Workspace())
    assert np.array_equal(rewards(block, threads), rewards(10**9, 1))


# tracemalloc peak of one call at adv_cnn's shape (V 62, 2 labels, desk
# dims, B 32, K 8, T 20), in MiB. Measured 5.68 (cnn), 5.68 (fasttext)
# and 5.99 (birnn) since the teacher-forced pass runs the scan alone,
# without the output head's logits and softmax table, the hoisted tables
# are dropped before scoring and birnn's scoring steps one (h, c) state
# per direction in place; 6.39, 6.40 and 7.17 before. 8.41, 8.39 and
# 10.84 while the call held the rows' (h, c) states and uniforms through
# scoring, and 8.03 for birnn while scoring kept a batch's features
# whole. Before generation and scoring ran in row blocks they were 23.8,
# 25.8 and 49.6, and 40.8 for birnn while its attention took a 2048-row
# batch whole. What the call holds through scoring whatever the blocks
# is about 1.7 MiB: the 4,864 rows' tokens and labels and the
# teacher-forced scan's states and gates. Each bound was lowered by its
# kind's measured drops and sits 3.4-4.0 MiB over the readings.
ROLLOUT_PEAK_MIB = {"cnn": 9.1, "fasttext": 9.2, "birnn": 10.0}


@pytest.mark.parametrize("kind", KINDS)
def test_one_rollout_call_stays_within_its_memory_bound(kind):
    V, n_labels = 62, 2
    dims = desk(GeneratorDims, vocab_size=V, n_labels=n_labels)
    sched = desk(TrainSchedule)
    params = init_generator_params(dims, RngStream(187))
    labels = RngStream(188).integers(0, n_labels, sched.batch_size)
    tokens = RngStream(189).integers(2, V, (sched.batch_size, 20))
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=n_labels, kind=kind, **SCORER)
    disc = init_discriminator(cfg, RngStream(190).normal((V, cfg.d_embed)),
                              RngStream(191, kind))
    tracemalloc.start()
    try:
        mc_rollout_rewards(params, dims, partial(score, disc), tokens, labels,
                           sched.rollouts, RngStream(192), Workspace())
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < ROLLOUT_PEAK_MIB[kind], peak

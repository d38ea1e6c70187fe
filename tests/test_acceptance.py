"""Acceptance gate: ten end-to-end checks covering gradient exactness,
likelihood normalization, training convergence, reward machinery, the
evaluation suites, and run reproducibility.

Each test prints one `criterion NN ...: PASS/FAIL` line on the real stdout
so the gate can be read off a plain pytest run.
"""

import itertools
import math
import os
import shutil
import time

import numpy as np
import pytest

from advseq.adversarial import (TrainSchedule, adversarial_train, pretrain_discriminator,
                                pretrain_generator, rescale_bra, rescale_oda,
                                soft_update)
from advseq.checkpoint import load_tensors, save_tensors
from advseq.cli import main
from advseq.corpus import PAD_ID, generate_corpus, split_corpus
from advseq.discriminators import (KINDS, DiscriminatorConfig, backward,
                                   forward, init_discriminator,
                                   loss_and_dlogits)
from advseq.embeddings import pretrain_embeddings
from advseq.evaluation import (adversarial_success, application_metrics,
                               ere_suite, median_over_seeds, self_bleu)
from advseq.generator import (GeneratorDims, backward_coefs, batch_log_probs,
                              forward_states, init_generator_params, mean_nll,
                              pad_mask, policy_gradient_step)
from advseq.grammar import overlapping_preset, separable_preset
from advseq.numerics import AdamState, RngStream, Workspace
from oracles import (SCORER, SKIP_GRAM, bleu, desk, enumeration_rewards, exact_log_prob,
                     finite_diff_check)

EPS = 1e-9

# wall-clock budgets in seconds, one per criterion
BUDGETS = {1: 30, 2: 1, 3: 600, 4: 1800, 5: 5, 6: 5, 7: 1, 8: 600, 9: 900,
           10: 300}

# fixture costs are charged to the criteria that depend on them
FIXTURE_COST = {"overlap": 0.0, "mle": 0.0}


def verdict(capsys, n: int, desc: str, ok: bool, elapsed: float) -> None:
    with capsys.disabled():
        state = "PASS" if ok else "FAIL"
        print(f"\ncriterion {n:2d} {desc}: {state} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# shared training fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overlap():
    """Label-conditioned corpus with overlapping vocabulary, n=2000, T=20."""
    t0 = time.monotonic()
    spec = overlapping_preset()
    data, vocab = generate_corpus(spec, 2000, RngStream(42, "corpus"))
    splits = split_corpus(data, (0.7, 0.1, 0.2), RngStream(42, "split"))
    FIXTURE_COST["overlap"] = time.monotonic() - t0
    return spec, vocab, splits


@pytest.fixture(scope="module")
def mle_runs(overlap):
    """Three seeds of MLE pretraining on the overlapping corpus, keeping each
    seed's best-validation parameters and their test NLL."""
    t0 = time.monotonic()
    spec, vocab, splits = overlap
    dims = GeneratorDims(len(vocab), 2, d_embed=48, d_hidden=64, d_label=8)
    runs = []
    for seed in (0, 1, 2):
        params = init_generator_params(dims, RngStream(seed, "init"))
        best = {"nll": math.inf, "params": params}
        for row in pretrain_generator(params, dims, splits.train, splits.valid,
                                      RngStream(seed, "pre"), epochs=300,
                                      opt=AdamState(params, lr=1e-3), batch_size=64,
                                      patience=30, start_epoch=0, prior_valid=()):
            if row["valid_nll"] < best["nll"]:
                best["nll"] = row["valid_nll"]
                best["params"] = params.copy()
        runs.append((best["params"],
                     mean_nll(best["params"], dims, splits.test)))
    FIXTURE_COST["mle"] = time.monotonic() - t0
    return dims, runs


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences(capsys):
    t0 = time.monotonic()
    errs = {}

    dims = GeneratorDims(vocab_size=5, n_labels=2, d_embed=3, d_hidden=3,
                         d_label=2)
    params = init_generator_params(dims, RngStream(300, "init"))
    tokens = np.array([[2, 4, PAD_ID, 3], [3, 2, 2, PAD_ID]])
    labels = np.array([0, 1])

    def gen_loss(ps):
        logp, mask = batch_log_probs(ps, dims, tokens, labels, Workspace())
        return float(-(logp * mask).sum() / tokens.shape[0])

    params.zero_grads()
    cache = forward_states(params, dims, tokens, labels, Workspace())
    backward_coefs(params, dims, cache, tokens, pad_mask(tokens) / 2, Workspace())
    errs["generator"] = finite_diff_check(gen_loss, params)

    for kind in KINDS:
        cfg = DiscriminatorConfig(kind=kind, vocab_size=6, n_labels=2,
                                  d_embed=4, d_hidden=3,
                                  n_filters=3, widths=(2, 3), n_buckets=64,
                                  dropout=0.0, l2=0.05, **SCORER)
        embed = RngStream(301, kind).uniform_range(-0.4, 0.4, (6, 4))
        disc = init_discriminator(cfg, embed, RngStream(302, kind))
        disc.params["d.head.W"].value[...] = RngStream(303, kind).normal(
            disc.params.value("d.head.W").shape, scale=0.5)
        d_tokens = RngStream(304, kind).integers(2, 6, (4, 5))
        d_labels = RngStream(305, kind).integers(0, 2, 4)
        targets = np.array([1, 0, 1, 0])

        def disc_loss(_ps, d=disc, tk=d_tokens, lb=d_labels, tg=targets):
            logits, _ = forward(d, tk, lb, None)
            loss, _, _ = loss_and_dlogits(d, logits, tg)
            return loss

        disc.params.zero_grads()
        logits, cache = forward(disc, d_tokens, d_labels, None)
        _, _, dlogits = loss_and_dlogits(disc, logits, targets)
        backward(disc, cache, dlogits)
        disc.params["d.head.W"].grad += cfg.l2 * disc.params.value("d.head.W")
        errs[kind] = finite_diff_check(disc_loss, disc.params)

    elapsed = time.monotonic() - t0
    ok = all(e < 1e-4 for e in errs.values()) and elapsed < BUDGETS[1]
    verdict(capsys, 1, "gradients match finite differences", ok, elapsed)
    assert ok, errs


# ---------------------------------------------------------------------------
# 2. likelihood normalization
# ---------------------------------------------------------------------------


def test_criterion_02_sequence_probabilities_sum_to_one(capsys):
    t0 = time.monotonic()
    dims = GeneratorDims(vocab_size=3, n_labels=2, d_embed=4, d_hidden=4,
                         d_label=2)
    params = init_generator_params(dims, RngStream(310, "init"))
    params["gen.out.W"].value *= 5.0  # away from uniform
    seqs = np.array(list(itertools.product(range(3), repeat=3)),
                    dtype=np.int64)
    gaps = []
    for label in (0, 1):
        lp = exact_log_prob(params, dims, seqs, np.full(len(seqs), label, dtype=np.int64))
        gaps.append(abs(float(np.exp(lp).sum()) - 1.0))
    elapsed = time.monotonic() - t0
    ok = max(gaps) < 1e-10 and elapsed < BUDGETS[2]
    verdict(capsys, 2, "sequence probabilities sum to one per label", ok,
            elapsed)
    assert ok, gaps


# ---------------------------------------------------------------------------
# 3. MLE convergence to the exact grammar entropy
# ---------------------------------------------------------------------------


def test_criterion_03_mle_converges_to_entropy(overlap, mle_runs, capsys):
    t0 = time.monotonic()
    spec, _, _ = overlap
    exact = spec.conditional_entropy()
    _, runs = mle_runs
    gaps = sorted(nll - exact for _, nll in runs)
    elapsed = (time.monotonic() - t0 + FIXTURE_COST["overlap"]
               + FIXTURE_COST["mle"])
    ok = gaps[1] < 0.2 and elapsed < BUDGETS[3]
    verdict(capsys, 3, "MLE reaches the exact entropy within 0.2 nats", ok,
            elapsed)
    assert ok, gaps


# ---------------------------------------------------------------------------
# 4. adversarial training improves on the MLE baseline
# ---------------------------------------------------------------------------


def test_criterion_04_adversarial_beats_mle(overlap, mle_runs, capsys):
    t0 = time.monotonic()
    spec, vocab, splits = overlap
    dims, runs = mle_runs
    sched = desk(TrainSchedule, iterations=10, g_steps=1, d_steps=1, batch_size=32,
                 rollouts=4, rescale="oda")
    margins = []
    for seed, (mle_params, base) in enumerate(runs):
        params = mle_params.copy()
        embed = pretrain_embeddings(splits.train, len(vocab), 32,
                                    RngStream(seed, "emb"), epochs=3, **SKIP_GRAM)
        cfg = desk(DiscriminatorConfig, vocab_size=len(vocab), n_labels=2, kind="cnn",
                   **SCORER)
        disc = init_discriminator(cfg, embed, RngStream(seed, "dinit"))
        for _ in pretrain_discriminator(disc, params, dims, splits.train,
                                        RngStream(seed, "dpre"), epochs=3,
                                        opt=AdamState(disc.params, lr=1e-3), batch_size=64,
                                        start_epoch=0):
            pass
        hist = list(adversarial_train(params, dims, disc, splits.train,
                                      splits.test, sched, RngStream(seed, "adv"),
                                      rollout_params=params.copy(),
                                      g_opt=AdamState(params, lr=sched.g_lr),
                                      d_opt=AdamState(disc.params, lr=sched.d_lr),
                                      start_iteration=0, threads=1))
        margins.append(hist[-1]["nll_test"] - base)
    elapsed = (time.monotonic() - t0 + FIXTURE_COST["overlap"]
               + FIXTURE_COST["mle"])
    wins = sum(m < 0 for m in margins)
    ok = max(margins) <= 0.05 and wins >= 2 and elapsed < BUDGETS[4]
    verdict(capsys, 4, "adversarial run improves on the MLE baseline", ok,
            elapsed)
    assert ok, (margins, wins)


# ---------------------------------------------------------------------------
# 5. reward machinery closed forms
# ---------------------------------------------------------------------------


def test_criterion_05_reward_machinery_closed_forms(capsys):
    t0 = time.monotonic()
    ok = True

    # enumeration rewards vs. a brute-force expectation over all suffixes
    dims = GeneratorDims(vocab_size=2, n_labels=2, d_embed=3, d_hidden=3,
                         d_label=2)
    params = init_generator_params(dims, RngStream(320, "init"))
    params["gen.out.W"].value *= 4.0
    tokens = np.array([[1, 0, 1], [0, 1, 0]])
    labels = np.array([0, 1])

    def score(toks, labs):
        return (toks @ np.array([0.2, 0.1, 0.3])) / 2.0 + 0.05 + 0.1 * labs

    rewards = enumeration_rewards(params, dims, score, tokens, labels)
    T = tokens.shape[1]
    for b in range(2):
        for p in range(T):
            if p == T - 1:
                want = score(tokens[b:b + 1], labels[b:b + 1])[0]
            else:
                want = 0.0
                mass = 0.0
                for suffix in itertools.product(range(2), repeat=T - 1 - p):
                    done = tokens[b].copy()
                    done[p + 1:] = suffix
                    lp, _ = batch_log_probs(params, dims, done[None, :],
                                            labels[b:b + 1], Workspace())
                    prob = math.exp(float(lp[0, p + 1:].sum()))
                    mass += prob
                    want += prob * score(done[None, :], labels[b:b + 1])[0]
                ok = ok and abs(mass - 1.0) < 1e-12
            ok = ok and abs(rewards[b, p] - want) < 1e-12

    # fixed points of the two rescalers; 0.8/(1-0.8) rounds one ulp off 4.0
    ok = ok and abs(rescale_oda(np.array([[0.8]]))[0, 0] - 4.0) < 1e-12
    scores = np.arange(8, 0, -1, dtype=np.float64)[:, None]  # ranks 1..8
    ok = ok and rescale_bra(scores, 12.0)[3, 0] == 0.5  # rank B/2 -> sigmoid(0)

    # soft update endpoints are bit-exact
    gen = init_generator_params(dims, RngStream(321, "g"))
    roll = init_generator_params(dims, RngStream(321, "r"))
    snap = {n: p.value.copy() for n, p in roll.items()}
    soft_update(roll, gen, 1.0)
    ok = ok and all(np.array_equal(p.value, snap[n])
                    for n, p in roll.items())
    soft_update(roll, gen, 0.0)
    ok = ok and all(np.array_equal(p.value, gen.value(n))
                    for n, p in roll.items())

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < BUDGETS[5]
    verdict(capsys, 5, "reward machinery matches closed forms", ok, elapsed)
    assert ok


# ---------------------------------------------------------------------------
# 6. REINFORCE sanity on a one-step bandit
# ---------------------------------------------------------------------------


def test_criterion_06_policy_gradient_solves_bandit(capsys):
    t0 = time.monotonic()
    # arms: the begin marker, the pad (whose positions carry no reward) and
    # the rewarded token 2
    dims = GeneratorDims(vocab_size=3, n_labels=2, d_embed=3, d_hidden=3,
                         d_label=2)
    params = init_generator_params(dims, RngStream(330, "init"))
    opt = AdamState(params, lr=0.01)
    tokens = np.array([[2]])
    labels = np.array([0])
    rewards = np.ones((1, 1))

    def p_win():
        logits = forward_states(params, dims, tokens, labels, Workspace()).logits[0, 0]
        e = np.exp(logits - logits.max())
        return float(e[2] / e.sum())

    probs = [p_win()]
    for _ in range(200):
        policy_gradient_step(params, dims, opt, tokens, labels, rewards, 5.0, Workspace())
        probs.append(p_win())

    elapsed = time.monotonic() - t0
    monotone = bool(np.all(np.diff(probs[:51]) > 0))
    ok = monotone and probs[200] > 0.95 and elapsed < BUDGETS[6]
    verdict(capsys, 6, "policy gradient solves the three-armed bandit", ok,
            elapsed)
    assert ok, (monotone, probs[200])


# ---------------------------------------------------------------------------
# 7. BLEU against a hand-counted table
# ---------------------------------------------------------------------------


def test_criterion_07_bleu_matches_hand_counts(capsys):
    t0 = time.monotonic()
    # (candidate, references, max_n, hand-counted value)
    table = [
        ([1, 2, 3, 4], [[1, 2, 3, 4]], 4, 1.0),
        ([1, 2, 8, 9], [[1, 2, 3, 4]], 4,
         (0.5 * (1.0 / 3.0) * EPS * EPS) ** 0.25),
        ([9, 9, 9, 9], [[1, 2, 3]], 4, EPS),
        ([1, 2], [[1, 2, 3, 4]], 2, math.exp(-1.0)),
        ([1, 2, 3], [[1, 2], [1, 2, 3, 4]], 2, 1.0),
        ([1, 1, 1], [[1, 1], [1]], 1, 2.0 / 3.0),
        ([2, 3, 4, 5], [[2, 3], [4, 5]], 2, math.sqrt(2.0 / 3.0)),
        ([2, 3, 2, 3], [[2, 3, 4]], 2, math.sqrt(1.0 / 6.0)),
        ([2, 3, 4], [[2, 3, 4, 5, 6]], 1, math.exp(-2.0 / 3.0)),
        ([7], [[7, 8]], 1, math.exp(-1.0)),
    ]
    gaps = [abs(bleu(cand, refs, max_n=n) - want)
            for cand, refs, n, want in table]
    ok = max(gaps) < 1e-9
    ok = ok and self_bleu([[1, 2, 3, 4]] * 3) == 1.0
    ok = ok and self_bleu([[2, 2, 2, 2], [3, 3, 3, 3], [4, 4, 4, 4]]) < 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < BUDGETS[7]
    verdict(capsys, 7, "BLEU matches the hand-counted table", ok, elapsed)
    assert ok, gaps


# ---------------------------------------------------------------------------
# 8. macro-suite calibration
# ---------------------------------------------------------------------------


def test_criterion_08_macro_suite_is_calibrated(overlap, capsys):
    t0 = time.monotonic()
    _, vocab, splits = overlap
    evaluator = desk(DiscriminatorConfig, vocab_size=len(vocab), n_labels=2, kind="cnn",
                     **SCORER), 60   # its cnn, its epochs
    test, train = splits.test, splits.train
    copies = train.subset(range(len(test)))  # real rows posing as synthetic
    stand_in = train.subset(range(400, 798))

    def probe(stream):
        out = {"adversuc": adversarial_success(test, copies,
                                               stream.child("adv"), *evaluator)}
        out.update(ere_suite(test, stand_in, stream.child("ere"), *evaluator))
        return out

    got = median_over_seeds(probe, RngStream(250, "macro"), n_seeds=3)
    elapsed = time.monotonic() - t0 + FIXTURE_COST["overlap"]
    ok = (0.4 <= got["adversuc"] <= 0.6 and got["ere1"] < 0.1
          and got["ere3"] < 0.05 and elapsed < BUDGETS[8])
    verdict(capsys, 8, "macro evaluation suite is calibrated", ok, elapsed)
    assert ok, got


# ---------------------------------------------------------------------------
# 9. conditional fidelity and augmentation
# ---------------------------------------------------------------------------


def test_criterion_09_synthetic_data_carries_labels(capsys):
    t0 = time.monotonic()
    spec = separable_preset()
    data, vocab = generate_corpus(spec, 2000, RngStream(43, "corpus"))
    splits = split_corpus(data, (0.7, 0.1, 0.2), RngStream(43, "split"))
    dims = GeneratorDims(len(vocab), 2, d_embed=48, d_hidden=64, d_label=8)
    params = init_generator_params(dims, RngStream(7, "init"))
    for _ in pretrain_generator(params, dims, splits.train, splits.valid,
                                RngStream(7, "pre"), epochs=200,
                                opt=AdamState(params, lr=1e-3), batch_size=64,
                                patience=20, start_epoch=0, prior_valid=()):
        pass
    evaluator = desk(DiscriminatorConfig, vocab_size=len(vocab), n_labels=2, kind="cnn",
                     **SCORER)
    got = application_metrics(params, dims, splits.train, splits.test,
                              RngStream(251, "app"), evaluator, 25, n_seeds=3)
    elapsed = time.monotonic() - t0
    ok = (got["acc_synth"] >= 0.9 * got["acc_real"]
          and got["acc_mix"] >= got["acc_synth"] - 0.02
          and elapsed < BUDGETS[9])
    verdict(capsys, 9, "synthetic data carries the labels downstream", ok,
            elapsed)
    assert ok, got


# ---------------------------------------------------------------------------
# 10. determinism and persistence
# ---------------------------------------------------------------------------

SEED_ARGS = ["--seed", "11"]
FAST_ARGS = []
for _pair in ("corpus.n=60", "model.d_embed=8", "model.d_hidden=8",
              "model.d_label=2", "disc.kind=fasttext", "disc.d_embed=8",
              "disc.n_buckets=128", "embed.epochs=1", "pretrain.g_epochs=2",
              "pretrain.batch_size=16", "pretrain.d_epochs_fasttext=2",
              "adv.iterations=4", "adv.g_steps=1", "adv.d_steps=1",
              "adv.batch_size=8", "adv.rollouts=2", "eval.epochs=1",
              "eval.seeds=1", "eval.n_samples=8"):
    FAST_ARGS += ["--set", _pair]


def test_criterion_10_determinism_and_persistence(tmp_path, capsys):
    t0 = time.monotonic()

    def read_bytes(*parts):
        with open(os.path.join(*parts), "rb") as fh:
            return fh.read()

    def pretrain(root):
        d = str(root / "run")  # same basename keeps run ids comparable
        assert main(["corpus-gen", "--run-dir", d, *SEED_ARGS,
                     *FAST_ARGS]) == 0
        assert main(["pretrain-g", "--run-dir", d]) == 0
        assert main(["pretrain-d", "--run-dir", d]) == 0
        return d

    a = pretrain(tmp_path / "a")
    c = str(tmp_path / "c" / "run")
    os.makedirs(os.path.dirname(c))
    shutil.copytree(a, c)
    b = pretrain(tmp_path / "b")
    assert main(["advtrain", "--run-dir", a]) == 0
    assert main(["advtrain", "--run-dir", b]) == 0
    assert main(["advtrain", "--run-dir", c, "--threads", "2"]) == 0
    assert main(["eval", "--run-dir", a, "--tier", "micro"]) == 0
    assert main(["eval", "--run-dir", b, "--tier", "micro"]) == 0

    same_csv = read_bytes(a, "metrics.csv") == read_bytes(b, "metrics.csv")
    same_ckpt = read_bytes(a, "gen_adv.ckpt") == read_bytes(b, "gen_adv.ckpt")
    thread_free = read_bytes(a, "gen_adv.ckpt") == read_bytes(c,
                                                              "gen_adv.ckpt")

    blocks, digest = load_tensors(os.path.join(a, "gen_adv.ckpt"))
    resaved = str(tmp_path / "resaved.ckpt")
    save_tensors(resaved, blocks, digest)
    resave_same = read_bytes(resaved) == read_bytes(a, "gen_adv.ckpt")

    elapsed = time.monotonic() - t0
    ok = (same_csv and same_ckpt and thread_free and resave_same
          and elapsed < BUDGETS[10])
    verdict(capsys, 10, "runs are deterministic and checkpoints stable", ok,
            elapsed)
    assert ok, (same_csv, same_ckpt, thread_free, resave_same)

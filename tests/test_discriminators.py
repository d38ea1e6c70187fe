"""Three discriminator bodies against straight-line oracles, finite
differences, and the shared head/training contracts."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as some

from advseq import numerics
from advseq.corpus import PAD_ID
from advseq.discriminators import (KINDS, Discriminator, DiscriminatorConfig,
                                   _attend, _birnn_eval_features, _cnn_backward,
                                   _cnn_features, backward,
                                   bigram_buckets, class_probs, forward,
                                   init_discriminator, loss_and_dlogits, score,
                                   train_step)
from advseq.numerics import ROW_BLOCK, AdamState, RngStream, sigmoid, softmax_rows
from oracles import SCORER, desk, finite_diff_check

V, T, D_E = 8, 6, 12
EMBED = RngStream(80, "embed").uniform_range(-0.3, 0.3, (V, D_E))


def make_disc(kind: str, seed: int = 81, dropout: float = 0.2,
              l2: float = 0.001, **overrides) -> Discriminator:
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind=kind, **SCORER, d_embed=D_E,
               d_hidden=8, n_filters=8, widths=(2, 3), dropout=dropout, l2=l2, **overrides)
    return init_discriminator(cfg, EMBED, RngStream(seed, kind))


def random_batch(stream: RngStream, n: int = 16):
    tokens = stream.child("tok").integers(2, V, (n, T))
    labels = stream.child("lab").integers(0, 2, n)
    return tokens, labels


def randomize_head(disc: Discriminator, seed: int = 82) -> None:
    disc.params["d.head.W"].value[...] = RngStream(seed, "head").normal(
        disc.params.value("d.head.W").shape, scale=0.5)


# ---------------------------------------------------------------------------
# fresh-model contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_fresh_discriminator_scores_exactly_half(kind):
    disc = make_disc(kind)
    tokens, labels = random_batch(RngStream(83, kind))
    assert np.all(score(disc, tokens, labels) == 0.5)
    targets = RngStream(84, kind).integers(0, 2, len(tokens))
    loss, acc, _ = loss_and_dlogits(
        disc, forward(disc, tokens, labels, None)[0], targets)
    assert abs(loss - math.log(2)) < 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_scores_stay_strictly_inside_unit_interval(kind):
    disc = make_disc(kind)
    randomize_head(disc)
    tokens, labels = random_batch(RngStream(85, kind), n=40)
    s = score(disc, tokens, labels)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert np.any(np.abs(s - 0.5) > 1e-4)  # head actually does something


def test_loss_includes_head_l2_penalty():
    disc = make_disc("fasttext", l2=0.5)
    randomize_head(disc)
    tokens, labels = random_batch(RngStream(86))
    targets = RngStream(87).integers(0, 2, len(tokens))
    logits, _ = forward(disc, tokens, labels, None)
    loss, _, _ = loss_and_dlogits(disc, logits, targets)
    probs = 1.0 / (1.0 + np.exp(-logits[:, 0]))
    y = targets.astype(np.float64)
    bce = float(-(y * np.log(probs + 1e-12) + (1 - y) * np.log(1 - probs + 1e-12)).mean())
    W = disc.params.value("d.head.W")
    assert abs(loss - (bce + 0.25 * float((W * W).sum()))) < 1e-12


# ---------------------------------------------------------------------------
# straight-line oracles
# ---------------------------------------------------------------------------


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def head_logit(disc: Discriminator, s_row: np.ndarray, label: int) -> float:
    onehot = np.zeros(disc.cfg.n_labels)
    onehot[label] = 1.0
    head_in = np.concatenate([s_row, onehot])
    return float(head_in @ disc.params.value("d.head.W")[:, 0]
                 + disc.params.value("d.head.b")[0, 0])


def test_fasttext_forward_matches_hand_computation():
    disc = make_disc("fasttext")
    randomize_head(disc)
    tokens = np.array([[2, 5, 3, PAD_ID, PAD_ID, PAD_ID],
                       [4, 4, 6, 7, 2, 3]])
    labels = np.array([1, 0])
    logits, _ = forward(disc, tokens, labels, None)
    bigram = disc.params.value("d.bigram")
    for r in range(2):
        toks = [t for t in tokens[r] if t != PAD_ID]
        vecs = [EMBED[t] for t in toks]
        for a, b in zip(toks[:-1], toks[1:]):
            vecs.append(bigram[(a * 1_000_003 + b * 8_191) % disc.cfg.n_buckets])
        s = np.mean(vecs, axis=0)
        assert abs(logits[r, 0] - head_logit(disc, s, labels[r])) < 1e-12


def test_cnn_forward_matches_hand_computation():
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="cnn", **SCORER, d_embed=D_E,
               n_filters=2, widths=(2,), dropout=0.0, l2=0.0)
    disc = init_discriminator(cfg, EMBED, RngStream(88))
    randomize_head(disc)
    tokens = np.array([[2, 7, 3, 5]])
    logits, _ = forward(disc, tokens, np.array([0]), None)
    W = disc.params.value("d.conv2.W")
    b = disc.params.value("d.conv2.b")[0]
    acts = []
    for i in range(3):
        window = np.concatenate([EMBED[tokens[0, i]], EMBED[tokens[0, i + 1]]])
        acts.append(np.maximum(window @ W + b, 0.0))
    s0 = np.max(acts, axis=0)
    t_gate = sig(s0 @ disc.params.value("d.hw.Wt")[..., :] + disc.params.value("d.hw.bt")[0])
    g = np.maximum(s0 @ disc.params.value("d.hw.Wg") + disc.params.value("d.hw.bg")[0], 0.0)
    s = t_gate * g + (1 - t_gate) * s0
    assert abs(logits[0, 0] - head_logit(disc, s, 0)) < 1e-12


def test_birnn_forward_matches_hand_computation():
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="birnn", **SCORER, d_embed=3,
               d_hidden=2, dropout=0.0, l2=0.0)
    embed = RngStream(89, "e").uniform_range(-0.4, 0.4, (V, 3))
    disc = init_discriminator(cfg, embed, RngStream(89))
    randomize_head(disc)
    tokens = np.array([[5, 2, 7]])
    logits, _ = forward(disc, tokens, np.array([1]), None)
    p = disc.params

    def run_lstm(xs, W, b):
        h = np.zeros(2)
        c = np.zeros(2)
        hs = []
        for x in xs:
            a = np.concatenate([h, x]) @ W + b[0]
            i, f, o = sig(a[:2]), sig(a[2:4]), sig(a[4:6])
            g = np.tanh(a[6:])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs.append(h)
        return hs

    xs = [embed[t] for t in tokens[0]]
    hf = run_lstm(xs, p.value("d.fwd.W"), p.value("d.fwd.b"))
    hb = run_lstm(xs[::-1], p.value("d.bwd.W"), p.value("d.bwd.b"))[::-1]
    H = [np.concatenate([a, b]) for a, b in zip(hf, hb)]
    u = [np.tanh(h @ p.value("d.att.W") + p.value("d.att.b")[0]) for h in H]
    scores = np.array([ui @ p.value("d.att.u")[0] for ui in u])
    alpha = np.exp(scores - scores.max())
    alpha /= alpha.sum()
    s = sum(a * h for a, h in zip(alpha, H))
    assert abs(logits[0, 0] - head_logit(disc, s, 1)) < 1e-12


# ---------------------------------------------------------------------------
# eval-mode scoring against forward()
# ---------------------------------------------------------------------------


def rollout_rows(samples: np.ndarray, K: int, completions: np.ndarray) -> np.ndarray:
    """The rollout layout: row p*B*K + b*K + k keeps columns 0..p of sample b
    and takes the rest from completions[row]."""
    B, T = samples.shape
    rows = completions.copy()
    for p in range(T - 1):
        for b in range(B):
            block = slice((p * B + b) * K, (p * B + b + 1) * K)
            rows[block, :p + 1] = samples[b, :p + 1]
    return rows


@settings(max_examples=150, deadline=None)
@given(kind=some.sampled_from(KINDS), T=some.integers(2, 7), B=some.integers(1, 4),
       K=some.integers(1, 3), widths=some.sets(some.integers(1, 4), min_size=1, max_size=3),
       d_hidden=some.sampled_from([1, 8, 32]), softmax_head=some.booleans(),
       seed=some.integers(0, 2**16), data=some.data())
def test_eval_scoring_equals_forward_on_rollout_rows(kind, T, B, K, widths, d_hidden,
                                                    softmax_head, seed, data):
    # score and class_probs give, row by row, the bits of the head over
    # forward()'s logits on any chunk grid, on rows that share prefixes;
    # forward takes each chunk whole, scoring runs in row blocks of the
    # shipped size or of a small one
    widths = tuple(sorted(w for w in widths if w <= T)) or (1,)
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind=kind, d_embed=D_E,
               d_hidden=d_hidden, n_filters=4, widths=widths, use_condition=not softmax_head,
               n_out=3 if softmax_head else 1)
    disc = init_discriminator(cfg, EMBED, RngStream(seed, kind))
    randomize_head(disc, seed)
    stream = RngStream(seed, "rows")
    samples = stream.child("s").integers(2, V, (B, T))
    samples[-1] = samples[0]                                  # a duplicate sample
    completions = stream.child("c").integers(2, 2 + data.draw(some.integers(1, V - 2)),
                                             ((T - 1) * B * K, T))
    pads = stream.child("pad").uniform(completions.shape) < data.draw(some.sampled_from([0, 0.2]))
    completions[pads] = PAD_ID                                # PAD in mid-row too
    tokens = rollout_rows(samples, K, completions)
    block = data.draw(some.sampled_from([ROW_BLOCK, 2, 3, 5]))
    n_rows = data.draw(some.sampled_from([0, block - 1, block + 1, 2 * block + 1]))
    if n_rows:                                                # around the row-block edges
        tokens = np.resize(tokens, (n_rows, T))
    n = len(tokens)
    labels = stream.child("lab").integers(0, 2, n)
    # chunks may split a cut block; none holds one row unless the whole
    # does, since numpy sends a one-row product to gemv
    chunk = data.draw(some.integers(min(2, n), n + 1))
    starts = list(range(0, n - 1 if n > 1 else n, chunk))
    grid = [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]
    passes = [forward(disc, tokens[sl], None if softmax_head else labels[sl], None)
              for sl in grid]
    with mock.patch.object(numerics, "ROW_BLOCK", block):
        if softmax_head:
            want = np.concatenate([softmax_rows(z) for z, _ in passes])
            got = class_probs(disc, tokens)
        else:
            want = sigmoid(np.concatenate([z for z, _ in passes])[:, 0])
            got = score(disc, tokens, labels)
        for r in range(len(tokens)):
            assert np.array_equal(got[r], want[r]), r
        if kind == "birnn":
            # the features themselves, where a last-bit difference cannot round away
            for sl, (_, cache) in zip(grid, passes):
                assert np.array_equal(_birnn_eval_features(disc, tokens[sl]),
                                      cache.features[:, :cfg.feature_dim()])


def test_birnn_eval_features_do_not_depend_on_the_row_block():
    # eval-mode birnn features run attention block by block; they must
    # equal forward()'s over the whole batch for every block size, which
    # holds only while _attend's rows do not depend on which rows share it.
    # With a gemv score this fails at some seeds, while the hypothesis test
    # above, which sees blocked features only through the head, can pass
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="birnn", d_embed=D_E,
               d_hidden=8, use_condition=False, n_out=1)
    for seed in range(40):
        disc = init_discriminator(cfg, EMBED, RngStream(seed, "birnn"))
        tokens = RngStream(seed, "rows").integers(2, V, (3 + seed, 2 + seed % 6))
        want = forward(disc, tokens, None, None)[1].features
        for block in (2, 3, 5):
            with mock.patch.object(numerics, "ROW_BLOCK", block):
                got = np.concatenate([_birnn_eval_features(disc, tokens[b])
                                      for b in numerics.row_blocks(len(tokens))])
            assert np.array_equal(got, want), (seed, block)


# row subsets of every size mod 4: OpenBLAS's gemv takes rows four at a
# time and the rest through another kernel. One row comes only as a whole
# batch, as in `numerics.row_blocks`: a one-row product goes to gemv
# whatever the score's form
@settings(max_examples=200, deadline=None)
@given(T=some.integers(1, 6), quads=some.integers(0, 5), rest=some.integers(0, 3),
       extra=some.integers(0, 9), d_hidden=some.sampled_from([1, 3, 8, 32]),
       seed=some.integers(0, 2**16))
def test_attention_rows_do_not_depend_on_the_other_rows(T, quads, rest, extra, d_hidden,
                                                        seed):
    n = 4 * quads + rest
    if n < 2:
        n, extra = 1, 0
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="birnn", **SCORER, d_embed=D_E,
               d_hidden=d_hidden)
    disc = init_discriminator(cfg, EMBED, RngStream(seed, "birnn"))
    disc.params["d.att.b"].value[...] = RngStream(seed, "b").normal((1, d_hidden))
    stream = RngStream(seed, "rows")
    H = stream.child("H").normal((T, n + extra, 2 * d_hidden))
    subset = np.sort(stream.child("pick").permutation(n + extra)[:n])
    s, u, alpha = _attend(disc.params, H)
    s_sub, u_sub, alpha_sub = _attend(disc.params, H[:, subset])
    rows_of_u = (np.arange(T)[:, None] * (n + extra) + subset).ravel()
    assert np.array_equal(u_sub, u[rows_of_u])
    assert np.array_equal(alpha_sub, alpha[subset])
    assert np.array_equal(s_sub, s[subset])


@settings(max_examples=60, deadline=None)
@given(kind=some.sampled_from(KINDS), softmax_head=some.booleans(), desk_dims=some.booleans(),
       threads=some.sampled_from([1, 2]), block=some.sampled_from([ROW_BLOCK, 5]),
       draw=some.sampled_from(["subset", "permutation", "repeats"]),
       seed=some.integers(0, 2**16), data=some.data())
def test_a_rows_score_does_not_depend_on_the_rows_scored_with_it(kind, softmax_head, desk_dims,
                                                                 threads, block, draw, seed,
                                                                 data):
    # each row's score, and each class_probs row, are the bits the row gets
    # in any other call of two or more rows: subsets, permutations and
    # repeats of a pool, at sizes around and across the row block. A
    # one-row call is not drawn: numpy sends the bodies' one-row products
    # to gemv
    small = {} if desk_dims else dict(d_embed=D_E, d_hidden=8, n_filters=4, widths=(2, 3))
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind=kind,
               use_condition=not softmax_head, n_out=3 if softmax_head else 1, **small)
    disc = init_discriminator(cfg, RngStream(seed, "embed").normal((V, cfg.d_embed)),
                              RngStream(seed, kind))
    randomize_head(disc, seed)
    stream = RngStream(seed, "rows")
    pool = stream.child("tok").integers(2, V, (2 * block + 2, T))
    pool[stream.child("pad").uniform(pool.shape) < 0.1] = PAD_ID
    labels = stream.child("lab").integers(0, 2, len(pool))
    n = data.draw(some.sampled_from([2, 3, 5, block - 1, block, block + 1, 2 * block + 1]))
    pick = stream.child("pick")
    idx = (pick.integers(0, len(pool), n) if draw == "repeats"
           else pick.permutation(len(pool))[:n])
    if draw == "subset":
        idx = np.sort(idx)

    def rows(sel) -> np.ndarray:
        if softmax_head:
            return class_probs(disc, pool[sel])
        return score(disc, pool[sel], labels[sel], threads=threads)
    with mock.patch.object(numerics, "ROW_BLOCK", block):
        want, got = rows(slice(None)), rows(idx)
    for i, r in enumerate(idx):
        assert np.array_equal(got[i], want[r]), (i, r)


# ---------------------------------------------------------------------------
# architecture-specific structure
# ---------------------------------------------------------------------------


def test_fasttext_without_bigrams_is_order_invariant():
    disc = make_disc("fasttext")
    randomize_head(disc)
    disc.params["d.bigram"].value[...] = 0.0
    tokens, labels = random_batch(RngStream(90), n=10)
    shuffled = tokens.copy()
    for r in range(len(shuffled)):
        shuffled[r] = shuffled[r][RngStream(91, r).permutation(T)]
    a = score(disc, tokens, labels)
    b = score(disc, shuffled, labels)
    assert np.max(np.abs(a - b)) < 1e-12


def test_fasttext_bigrams_break_order_invariance():
    disc = make_disc("fasttext")
    randomize_head(disc)
    tokens = np.array([[2, 3, 4, 5, 6, 7]])
    flipped = tokens[:, ::-1].copy()
    labels = np.array([0])
    assert abs(score(disc, tokens, labels)[0] - score(disc, flipped, labels)[0]) > 1e-9


def test_bigram_buckets_deterministic_and_in_range():
    tokens = RngStream(92).integers(0, V, (5, T))
    a = bigram_buckets(tokens, 4096)
    assert a.shape == (5, T - 1)
    assert np.array_equal(a, bigram_buckets(tokens, 4096))
    assert a.min() >= 0 and a.max() < 4096


def test_cnn_pooling_collapses_constant_sequences():
    # every window of a constant sequence is identical, so sequence length
    # cannot matter once it covers the widest filter
    disc = make_disc("cnn", dropout=0.0)
    randomize_head(disc)
    short = np.full((1, 4), 5, dtype=np.int64)
    long = np.full((1, 9), 5, dtype=np.int64)
    labels = np.array([1])
    assert abs(score(disc, short, labels)[0] - score(disc, long, labels)[0]) < 1e-12


def test_cnn_rejects_sequences_shorter_than_widest_filter():
    disc = make_disc("cnn")
    with pytest.raises(ValueError, match="filter width"):
        forward(disc, np.full((1, 2), 4, dtype=np.int64), np.array([0]), None)


def window_cnn(disc: Discriminator, tokens: np.ndarray, ds: np.ndarray):
    """The cnn body as (B, L, w*d_e) window tensors times W_w, relu, then
    max and argmax over time; kept only as an oracle for the tap-table
    form. Returns the highway output and the conv gradients from ds."""
    p = disc.params
    X = disc.embed[tokens]
    B, T, d_e = X.shape
    parts = []
    for w in disc.cfg.widths:
        L = T - w + 1
        windows = np.concatenate([X[:, i:i + L] for i in range(w)], axis=2)
        pre = windows.reshape(B * L, w * d_e) @ p.value(f"d.conv{w}.W")
        act = np.maximum(pre.reshape(B, L, -1) + p.value(f"d.conv{w}.b"), 0.0)
        parts.append((w, windows, act.argmax(axis=1), act.max(axis=1)))
    s0 = np.concatenate([pooled for *_, pooled in parts], axis=1)
    t_gate = sig(s0 @ p.value("d.hw.Wt") + p.value("d.hw.bt"))
    g_pre = s0 @ p.value("d.hw.Wg") + p.value("d.hw.bg")
    g = np.maximum(g_pre, 0.0)
    s = t_gate * g + (1.0 - t_gate) * s0
    da_t = ds * (g - s0) * t_gate * (1.0 - t_gate)
    da_g = ds * t_gate * (g_pre > 0)
    ds0 = ds * (1.0 - t_gate) + da_t @ p.value("d.hw.Wt").T + da_g @ p.value("d.hw.Wg").T
    grads, F = {}, disc.cfg.n_filters
    for k, (w, windows, argmax, pooled) in enumerate(parts):
        dpooled = ds0[:, k * F:(k + 1) * F] * (pooled > 0)
        dpre = np.zeros((B, windows.shape[1], F))
        np.put_along_axis(dpre, argmax[:, None, :], dpooled[:, None, :], axis=1)
        grads[f"d.conv{w}.W"] = windows.reshape(-1, windows.shape[2]).T @ dpre.reshape(-1, F)
        grads[f"d.conv{w}.b"] = dpre.sum(axis=(0, 1))[None, :]
    return s, grads


def wide_cnn(seed: int = 130) -> Discriminator:
    """Widths (2, 3, 4) over T = 20, biases spread across zero, and filter 1
    of width 3 negative everywhere."""
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="cnn", **SCORER, d_embed=D_E,
               n_filters=8, widths=(2, 3, 4), dropout=0.0)
    disc = init_discriminator(cfg, EMBED, RngStream(seed))
    for w in cfg.widths:
        disc.params[f"d.conv{w}.b"].value[...] = RngStream(seed, "b", w).normal((1, 8))
    disc.params["d.conv3.b"].value[0, 1] = -50.0
    return disc


def test_cnn_tap_tables_match_window_oracle():
    disc = wide_cnn()
    tokens = RngStream(131).integers(2, V, (9, 20))
    tokens[2, 5:9] = PAD_ID
    tokens[6, 11] = PAD_ID
    tokens[7, 3:] = PAD_ID
    s, cache = _cnn_features(disc, tokens)
    want, _ = window_cnn(disc, tokens, np.zeros_like(s))
    assert np.max(np.abs(s - want)) < 1e-12
    assert np.all(cache["s0"][:, 8 + 1] == 0.0)


def test_cnn_tap_gradients_match_window_oracle_on_ties_and_dead_filters():
    disc = wide_cnn()
    tokens = RngStream(132).integers(2, V, (8, 20))
    tokens[0] = 5      # constant rows: every window ties for the max, and the
    tokens[3] = 2      # oracle sends the gradient to the first one only
    tokens[5, 7:] = PAD_ID
    # filter 0 of width 2 reads only a window's first token, so in row 1 the
    # windows (5, 5) tie with the last one, (5, 7), and only the first counts
    disc.params["d.conv2.W"].value[D_E:, 0] = 0.0
    disc.params["d.conv2.b"].value[0, 0] = 5.0
    tokens[1] = 5
    tokens[1, -1] = 7
    ds = RngStream(133).normal((8, disc.cfg.feature_dim()))
    disc.params.zero_grads()
    _, cache = _cnn_features(disc, tokens)
    _cnn_backward(disc, cache, ds)
    _, want = window_cnn(disc, tokens, ds)
    for name, g in want.items():
        assert np.max(np.abs(disc.params[name].grad - g)) < 1e-12, name
    assert np.all(disc.params["d.conv3.W"].grad[:, 1] == 0.0)
    assert disc.params["d.conv3.b"].grad[0, 1] == 0.0


def test_highway_gate_closed_passes_features_through():
    disc = make_disc("cnn", dropout=0.0)
    disc.params["d.hw.bt"].value[...] = -50.0  # transform gate ~ 0
    tokens, _ = random_batch(RngStream(93), n=6)
    s, cache = _cnn_features(disc, tokens)
    assert np.max(np.abs(s - cache["s0"])) < 1e-12


def test_attention_weights_sum_to_one():
    disc = make_disc("birnn")
    tokens, labels = random_batch(RngStream(94), n=12)
    _, cache = forward(disc, tokens, labels, None)
    alpha = cache.body["alpha"]
    assert np.all(alpha >= 0)
    assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) < 1e-10


def test_attention_uniform_when_scores_constant():
    disc = make_disc("birnn")
    disc.params["d.att.u"].value[...] = 0.0  # all positions score 0
    tokens, labels = random_batch(RngStream(95), n=4)
    _, cache = forward(disc, tokens, labels, None)
    assert np.max(np.abs(cache.body["alpha"] - 1.0 / T)) < 1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_gradients_pass_finite_differences(kind):
    cfg = DiscriminatorConfig(kind=kind, vocab_size=6, n_labels=2,
                              d_embed=4, d_hidden=3, n_filters=3, widths=(2, 3),
                              n_buckets=64, dropout=0.0, l2=0.05, **SCORER)
    embed = RngStream(96, kind).uniform_range(-0.4, 0.4, (6, 4))
    disc = init_discriminator(cfg, embed, RngStream(97, kind))
    randomize_head(disc, seed=98)
    tokens = RngStream(99, kind).integers(2, 6, (4, 5))
    labels = RngStream(100, kind).integers(0, 2, 4)
    targets = np.array([1, 0, 1, 0])

    def loss_fn(_ps, d=disc):
        logits, _ = forward(d, tokens, labels, None)
        loss, _, _ = loss_and_dlogits(d, logits, targets)
        return loss

    disc.params.zero_grads()
    logits, cache = forward(disc, tokens, labels, None)
    _, _, dlogits = loss_and_dlogits(disc, logits, targets)
    backward(disc, cache, dlogits)
    disc.params["d.head.W"].grad += cfg.l2 * disc.params.value("d.head.W")
    assert finite_diff_check(loss_fn, disc.params) < 1e-4


def test_cnn_gradients_pass_finite_differences_with_three_widths():
    cfg = desk(DiscriminatorConfig, vocab_size=6, n_labels=2, kind="cnn", **SCORER, d_embed=4,
               n_filters=3, widths=(2, 3, 4), dropout=0.0, l2=0.05)
    embed = RngStream(134).uniform_range(-0.4, 0.4, (6, 4))
    disc = init_discriminator(cfg, embed, RngStream(135))
    randomize_head(disc, seed=136)
    tokens = RngStream(137).integers(2, 6, (5, 7))
    tokens[1, 4:] = PAD_ID
    labels = RngStream(138).integers(0, 2, 5)
    targets = np.array([1, 0, 1, 0, 1])

    def loss_fn(_ps, d=disc):
        logits, _ = forward(d, tokens, labels, None)
        loss, _, _ = loss_and_dlogits(d, logits, targets)
        return loss

    disc.params.zero_grads()
    logits, cache = forward(disc, tokens, labels, None)
    _, _, dlogits = loss_and_dlogits(disc, logits, targets)
    backward(disc, cache, dlogits)
    disc.params["d.head.W"].grad += cfg.l2 * disc.params.value("d.head.W")
    assert all(np.any(disc.params[f"d.conv{w}.W"].grad != 0) for w in cfg.widths)
    assert finite_diff_check(loss_fn, disc.params) < 1e-4


def test_softmax_head_gradients_pass_finite_differences():
    cfg = desk(DiscriminatorConfig, vocab_size=6, n_labels=2, kind="cnn", d_embed=4, n_filters=3,
               widths=(2,), dropout=0.0, l2=0.0, use_condition=False, n_out=3)
    embed = RngStream(101).uniform_range(-0.4, 0.4, (6, 4))
    disc = init_discriminator(cfg, embed, RngStream(102))
    randomize_head(disc, seed=103)
    tokens = RngStream(104).integers(2, 6, (4, 5))
    targets = np.array([0, 2, 1, 2])

    def loss_fn(_ps, d=disc):
        logits, _ = forward(d, tokens, None, None)
        loss, _, _ = loss_and_dlogits(d, logits, targets)
        return loss

    disc.params.zero_grads()
    logits, cache = forward(disc, tokens, None, None)
    _, _, dlogits = loss_and_dlogits(disc, logits, targets)
    backward(disc, cache, dlogits)
    assert finite_diff_check(loss_fn, disc.params) < 1e-4


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------


def toy_batch(stream: RngStream, n: int = 64):
    """Real rows lead with token 2, fake rows with token 3."""
    half = n // 2
    tokens = stream.child("fill").integers(4, V, (n, T))
    tokens[:half, 0] = 2
    tokens[half:, 0] = 3
    targets = np.concatenate([np.ones(half, dtype=np.int64),
                              np.zeros(half, dtype=np.int64)])
    labels = stream.child("lab").integers(0, 2, n)
    return tokens, labels, targets


@pytest.mark.parametrize("kind", KINDS)
def test_learns_linearly_separable_toy_within_200_steps(kind):
    disc = make_disc(kind, seed=105)
    opt = AdamState(disc.params, lr=0.005)
    for step in range(200):
        tokens, labels, targets = toy_batch(RngStream(106, kind, step))
        train_step(disc, opt, tokens, labels, targets, RngStream(107, kind, step))
    tokens, labels, targets = toy_batch(RngStream(108, kind), n=200)
    logits, _ = forward(disc, tokens, labels, None)
    _, acc, _ = loss_and_dlogits(disc, logits, targets)
    assert acc >= 0.99


def test_embedding_table_frozen_through_training():
    disc = make_disc("fasttext", seed=109)
    before = disc.embed.tobytes()
    opt = AdamState(disc.params, lr=1e-3)
    for step in range(20):
        tokens, labels, targets = toy_batch(RngStream(110, step), n=32)
        train_step(disc, opt, tokens, labels, targets, RngStream(111, step))
    assert disc.embed.tobytes() == before


def test_condition_head_is_live_after_training_on_label_skewed_data():
    disc = make_disc("fasttext", seed=112, dropout=0.1)
    opt = AdamState(disc.params, lr=0.01)

    def batch(stream, n=64):
        tokens = stream.child("fill").integers(2, V, (n, T))
        labels = stream.child("lab").integers(0, 2, n)
        u = stream.child("u").uniform(n)
        real = np.where(labels == 0, u < 0.9, u < 0.1).astype(np.int64)
        return tokens, labels, real

    for step in range(150):
        tokens, labels, targets = batch(RngStream(113, step))
        train_step(disc, opt, tokens, labels, targets, RngStream(114, step))
    tokens, labels, _ = batch(RngStream(115), n=300)
    s = score(disc, tokens, labels)
    s_flip = score(disc, tokens, 1 - labels)
    assert np.mean(np.abs(s - s_flip) > 0.05) >= 0.9
    zeros = np.zeros(len(tokens), dtype=np.int64)
    assert score(disc, tokens, zeros).mean() > score(disc, tokens, 1 - zeros).mean()


# ---------------------------------------------------------------------------
# dropout and evaluation mode
# ---------------------------------------------------------------------------


def test_eval_mode_is_deterministic():
    disc = make_disc("cnn", seed=116)
    randomize_head(disc)
    tokens, labels = random_batch(RngStream(117))
    assert np.array_equal(score(disc, tokens, labels), score(disc, tokens, labels))


def test_training_dropout_needs_a_stream_and_uses_it():
    disc = make_disc("cnn", seed=118)
    randomize_head(disc)
    tokens, labels = random_batch(RngStream(119))
    targets = RngStream(119, "y").integers(0, 2, len(tokens))
    with pytest.raises(ValueError, match="dropout"):
        train_step(disc, AdamState(disc.params, lr=1e-3), tokens, labels, targets, None)
    a, _ = forward(disc, tokens, labels, drop_rng=RngStream(120))
    b, _ = forward(disc, tokens, labels, drop_rng=RngStream(120))
    c, _ = forward(disc, tokens, labels, drop_rng=RngStream(121))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # without a stream the pass is the eval-mode one that score() reads
    assert np.array_equal(sigmoid(forward(disc, tokens, labels, None)[0][:, 0]),
                          score(disc, tokens, labels))


# ---------------------------------------------------------------------------
# interface errors and the softmax head
# ---------------------------------------------------------------------------


def test_init_rejects_unknown_kind_and_bad_embedding():
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="transformer", **SCORER)
    with pytest.raises(ValueError, match="kind"):
        init_discriminator(cfg, EMBED, RngStream(122))
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="cnn", **SCORER,
               d_embed=D_E + 1)
    with pytest.raises(ValueError, match="embedding"):
        init_discriminator(cfg, EMBED, RngStream(123))


def test_conditional_forward_requires_labels():
    disc = make_disc("fasttext")
    tokens, _ = random_batch(RngStream(124))
    with pytest.raises(ValueError, match="labels"):
        forward(disc, tokens, None, None)


def test_score_refuses_softmax_heads_and_class_probs_normalize():
    cfg = desk(DiscriminatorConfig, vocab_size=V, n_labels=2, kind="fasttext", d_embed=D_E,
               use_condition=False, n_out=3)
    disc = init_discriminator(cfg, EMBED, RngStream(125))
    randomize_head(disc)
    tokens, _ = random_batch(RngStream(126))
    with pytest.raises(ValueError, match="sigmoid"):
        score(disc, tokens, None)
    probs = class_probs(disc, tokens)
    assert probs.shape == (len(tokens), 3)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

"""Conditional LSTM generator: exact probabilities, gradients, training
behaviour, and stream-stable sampling."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from advseq import numerics
from advseq.corpus import BOS_ID, PAD_ID, SequenceData, generate_corpus
from advseq.generator import (GeneratorDims, backward_coefs, forward_states,
                              init_generator_params, batch_log_probs,
                              free_run, hoist, mean_nll, mle_step, pad_mask,
                              policy_gradient_step, sample_batch, shifted_inputs)
from advseq.grammar import parse_grammar
from advseq.numerics import AdamState, ParamStore, RngStream, Workspace
from oracles import desk, exact_log_prob, finite_diff_check

SMALL = GeneratorDims(vocab_size=5, n_labels=2, d_embed=3, d_hidden=3, d_label=2)


def all_sequences(vocab_size: int, seq_len: int) -> np.ndarray:
    return np.array(list(itertools.product(range(vocab_size), repeat=seq_len)),
                    dtype=np.int64)


def masked_nll(params: ParamStore, dims: GeneratorDims, tokens, labels) -> float:
    logp, mask = batch_log_probs(params, dims, tokens, labels, Workspace())
    return float(-(logp * mask).sum() / tokens.shape[0])


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_shifted_inputs_prepend_begin_marker():
    tokens = np.array([[4, 2, 3], [2, 2, 5]])
    assert np.array_equal(shifted_inputs(tokens),
                          [[BOS_ID, 4, 2], [BOS_ID, 2, 2]])


def test_forward_matches_straight_line_reference():
    dims = GeneratorDims(vocab_size=4, n_labels=2, d_embed=3, d_hidden=3, d_label=2)
    params = init_generator_params(dims, RngStream(50, "init"))
    tokens = np.array([[2, 3, 1], [3, 0, 2]])
    labels = np.array([1, 0])
    cache = forward_states(params, dims, tokens, labels, Workspace())

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    embed = params.value("gen.embed")
    lab = params.value("gen.label_embed")
    W = params.value("gen.lstm.W")
    b = params.value("gen.lstm.b")[0]
    Wo = params.value("gen.out.W")
    bo = params.value("gen.out.b")[0]
    d = dims.d_hidden
    for r in range(2):
        h = np.zeros(d)
        c = np.zeros(d)
        prev = BOS_ID
        for t in range(3):
            z = np.concatenate([h, embed[prev], lab[labels[r]]])
            a = z @ W + b
            i, f, o = sig(a[:d]), sig(a[d:2 * d]), sig(a[2 * d:3 * d])
            g = np.tanh(a[3 * d:])
            c = f * c + i * g
            h = o * np.tanh(c)
            logits = h @ Wo + bo
            assert np.max(np.abs(cache.logits[r, t] - logits)) < 1e-12
            assert np.max(np.abs(cache.hs[r, t] - h)) < 1e-12
            prev = tokens[r, t]


def test_hidden_states_bounded():
    params = init_generator_params(SMALL, RngStream(51, "init"))
    params["gen.lstm.W"].value *= 40.0  # push the cell hard
    tokens = RngStream(51, "tok").integers(0, SMALL.vocab_size, (4, 6))
    cache = forward_states(params, SMALL, tokens, np.array([0, 1, 0, 1]), Workspace())
    assert np.all(np.abs(cache.hs) < 1.0)


def test_changing_the_label_changes_the_logits():
    params = init_generator_params(SMALL, RngStream(52, "init"))
    tokens = np.array([[2, 3, 4]])
    a = forward_states(params, SMALL, tokens, np.array([0]), Workspace()).logits
    b = forward_states(params, SMALL, tokens, np.array([1]), Workspace()).logits
    assert np.max(np.abs(a - b)) > 1e-6


def test_caches_from_different_workspaces_share_no_memory():
    params = init_generator_params(SMALL, RngStream(52, "init"))
    tokens = np.array([[2, 3, 4], [4, 2, 3]])
    a = forward_states(params, SMALL, tokens, np.array([0, 1]), ws=Workspace())
    b = forward_states(params, SMALL, tokens, np.array([1, 0]), ws=Workspace())
    arrays_a = (a.hs, a.logits, *a.scan)
    arrays_b = (b.hs, b.logits, *b.scan)
    for x in arrays_a:
        for y in arrays_b:
            assert not np.shares_memory(x, y)


# ---------------------------------------------------------------------------
# exact probabilities
# ---------------------------------------------------------------------------


def test_uniform_model_sequence_nll():
    dims = GeneratorDims(vocab_size=10, n_labels=2, d_embed=4, d_hidden=4, d_label=2)
    params = init_generator_params(dims, RngStream(53, "init"))
    params["gen.out.W"].value[...] = 0.0  # logits constant -> uniform
    tokens = RngStream(53, "tok").integers(0, 10, (3, 5))
    lp = exact_log_prob(params, dims, tokens, np.array([0, 1, 0]))
    assert np.max(np.abs(lp + 5 * math.log(10))) < 1e-12


def test_forced_token_gives_probability_one():
    params = init_generator_params(SMALL, RngStream(54, "init"))
    params["gen.out.b"].value[0, 3] += 50.0  # logit gap ~50 nats
    tokens = np.full((2, 4), 3, dtype=np.int64)
    lp = exact_log_prob(params, SMALL, tokens, np.array([0, 1]))
    assert np.all(lp > -1e-9)
    draws = sample_batch(params, SMALL, np.array([0, 1]), 4, RngStream(54, "draw"))
    assert np.all(draws == 3)


def test_probability_mass_sums_to_one_per_label():
    dims = GeneratorDims(vocab_size=3, n_labels=2, d_embed=4, d_hidden=4, d_label=2)
    params = init_generator_params(dims, RngStream(55, "init"))
    params["gen.out.W"].value *= 5.0  # away from uniform
    seqs = all_sequences(3, 3)
    for label in (0, 1):
        lp = exact_log_prob(params, dims, seqs, np.full(len(seqs), label, dtype=np.int64))
        assert abs(float(np.exp(lp).sum()) - 1.0) < 1e-10


def test_pad_mask_modes():
    tokens = np.array([[2, PAD_ID, 3]])
    assert np.array_equal(pad_mask(tokens), [[1.0, 0.0, 1.0]])


def test_mean_nll_batch_boundary_invariant():
    params = init_generator_params(SMALL, RngStream(56, "init"))
    tokens = RngStream(56, "tok").integers(0, SMALL.vocab_size, (23, 4))
    data = SequenceData(tokens, RngStream(56, "lab").integers(0, 2, 23))
    a = mean_nll(params, SMALL, data, batch_size=64)
    b = mean_nll(params, SMALL, data, batch_size=7)
    assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_mle_gradient_matches_finite_differences():
    dims = GeneratorDims(vocab_size=5, n_labels=2, d_embed=3, d_hidden=3, d_label=2)
    params = init_generator_params(dims, RngStream(57, "init"))
    tokens = np.array([[2, 4, PAD_ID, 3], [3, 2, 2, PAD_ID]])
    labels = np.array([0, 1])

    def loss_fn(ps):
        return masked_nll(ps, dims, tokens, labels)

    params.zero_grads()
    cache = forward_states(params, dims, tokens, labels, Workspace())
    backward_coefs(params, dims, cache, tokens, pad_mask(tokens) / 2, Workspace())
    assert finite_diff_check(loss_fn, params) < 1e-4


def test_reward_weighted_gradient_matches_finite_differences():
    params = init_generator_params(SMALL, RngStream(58, "init"))
    tokens = np.array([[2, 3, 4, PAD_ID], [4, PAD_ID, 2, 3], [3, 3, 2, 4]])
    labels = np.array([1, 0, 1])
    # per-position rewards of both signs; pads carry rewards the mask drops
    rewards = np.array([[0.9, -1.3, 0.2, 2.0], [-0.4, 5.0, 1.7, -0.8],
                        [0.05, -2.2, 1.1, 0.6]])
    weights = rewards * pad_mask(tokens) / len(tokens)

    def loss_fn(ps):
        logp, _ = batch_log_probs(ps, SMALL, tokens, labels, Workspace())
        return float(-(weights * logp).sum())

    params.zero_grads()
    cache = forward_states(params, SMALL, tokens, labels, Workspace())
    backward_coefs(params, SMALL, cache, tokens, weights, Workspace())
    assert finite_diff_check(loss_fn, params) < 1e-4


def test_backward_accumulates_into_existing_grads():
    params = init_generator_params(SMALL, RngStream(34, "init"))
    tokens = np.array([[2, 3, 4], [4, 2, 2]])
    labels = np.array([1, 0])
    cache = forward_states(params, SMALL, tokens, labels, Workspace())
    params.zero_grads()
    backward_coefs(params, SMALL, cache, tokens, np.full((2, 3), 0.5), Workspace())
    once = {n: p.grad.copy() for n, p in params.items()}
    backward_coefs(params, SMALL, cache, tokens, np.full((2, 3), 0.5), Workspace())
    for n, p in params.items():
        assert np.allclose(p.grad, 2 * once[n], rtol=0, atol=1e-15), n


DESK = desk(GeneratorDims, vocab_size=62, n_labels=4)   # the desk preset's dims


def desk_batches(seed: int, n: int) -> SequenceData:
    rng = RngStream(seed)
    return SequenceData(rng.child("tok").integers(0, DESK.vocab_size, (n, 20)),
                        rng.child("lab").integers(0, DESK.n_labels, n))


def test_reused_workspace_matches_fresh_ones_bitwise():
    # ragged batches take views of buffers sized for a larger batch, and
    # what an earlier batch left there must not reach the result
    data = desk_batches(65, 198)
    runs = []
    for shared in (Workspace(), None):
        params = init_generator_params(DESK, RngStream(65, "init"))
        opt = AdamState(params, lr=0.01)
        losses, start = [], 0
        for B in (64, 50, 64, 6):
            ws = shared if shared is not None else Workspace()
            losses.append(mle_step(params, DESK, opt, data.tokens[start:start + B],
                                   data.labels[start:start + B], clip=5.0, ws=ws))
            start += B
        ws = shared if shared is not None else Workspace()
        losses.append(mean_nll(params, DESK, data, ws=ws))
        runs.append((losses, {n: p.value.copy() for n, p in params.items()}))
    (reused, reused_params), (fresh, fresh_params) = runs
    assert np.array_equal(reused, fresh)
    for n in fresh_params:
        assert np.array_equal(reused_params[n], fresh_params[n]), n


def test_mle_step_faults_in_almost_no_pages():
    # a step that allocates its large blocks afresh hands them back to the
    # OS and faults them in again: well over a thousand pages at this shape
    resource = pytest.importorskip("resource")
    data = desk_batches(66, 64 * 21)
    params = init_generator_params(DESK, RngStream(66, "init"))
    opt = AdamState(params, lr=0.01)
    ws = Workspace()
    mle_step(params, DESK, opt, data.tokens[:64], data.labels[:64], clip=5.0, ws=ws)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(1, 21):
        rows = slice(64 * k, 64 * (k + 1))
        mle_step(params, DESK, opt, data.tokens[rows], data.labels[rows], clip=5.0, ws=ws)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 20 < 50, faults


def test_zero_rewards_leave_parameters_unchanged():
    params = init_generator_params(SMALL, RngStream(59, "init"))
    before = {n: p.value.copy() for n, p in params.items()}
    opt = AdamState(params, lr=0.05)
    tokens = np.array([[2, 3, 4]])
    obj = policy_gradient_step(params, SMALL, opt, tokens, np.array([0]),
                               np.zeros((1, 3)), clip=5.0, ws=Workspace())
    assert obj == 0.0
    for n, p in params.items():
        assert np.array_equal(p.value, before[n])


def test_policy_gradient_rejects_misshapen_rewards():
    params = init_generator_params(SMALL, RngStream(60, "init"))
    opt = AdamState(params, lr=1e-3)
    with pytest.raises(ValueError, match="rewards"):
        policy_gradient_step(params, SMALL, opt, np.array([[2, 3]]),
                             np.array([0]), np.zeros((1, 3)), clip=5.0, ws=Workspace())


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------


def test_memorizes_one_sequence():
    dims = GeneratorDims(vocab_size=6, n_labels=2, d_embed=8, d_hidden=8, d_label=4)
    params = init_generator_params(dims, RngStream(61, "init"))
    opt = AdamState(params, lr=0.02)
    tokens = np.array([[2, 4, 3, 5, 2]])
    labels = np.array([1])
    loss = math.inf
    for _ in range(300):
        loss = mle_step(params, dims, opt, tokens, labels, clip=5.0, ws=Workspace())
    assert loss < 0.01


COND_GRAMMAR = """\
separable = true
seq_len = 4

[label 0]
[template weight = 1.0]
slot = up | high
slot = sun | sky
slot = warm
slot = day | noon

[label 1]
[template weight = 1.0]
slot = low | deep
slot = sea | cave
slot = cold
slot = night | dusk
"""


def test_trained_model_is_condition_sensitive():
    spec = parse_grammar(COND_GRAMMAR)
    data, vocab = generate_corpus(spec, 80, RngStream(62, "corpus"))
    dims = GeneratorDims(vocab_size=len(vocab), n_labels=2,
                         d_embed=12, d_hidden=12, d_label=4)
    params = init_generator_params(dims, RngStream(62, "init"))
    opt = AdamState(params, lr=0.02)
    for _ in range(60):
        mle_step(params, dims, opt, data.tokens, data.labels, clip=5.0, ws=Workspace())
    matched = mean_nll(params, dims, data)
    flipped = mean_nll(params, dims, SequenceData(data.tokens, 1 - data.labels))
    assert matched < 3.0           # near the 3*ln2 grammar entropy
    assert flipped > matched + 2.0  # wrong condition is much less likely


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_and_chunk_invariant():
    params = init_generator_params(SMALL, RngStream(63, "init"))
    labels = RngStream(63, "lab").integers(0, 2, 12)
    a = sample_batch(params, SMALL, labels, 5, RngStream(63, "draw"))
    b = sample_batch(params, SMALL, labels, 5, RngStream(63, "draw"))
    assert np.array_equal(a, b)
    front = sample_batch(params, SMALL, labels[:7], 5, RngStream(63, "draw"))
    back = sample_batch(params, SMALL, labels[7:], 5, RngStream(63, "draw"),
                        item_offset=7)
    assert np.array_equal(np.concatenate([front, back]), a)


def test_sampled_frequencies_match_exact_model_probabilities():
    dims = GeneratorDims(vocab_size=3, n_labels=2, d_embed=4, d_hidden=4, d_label=2)
    params = init_generator_params(dims, RngStream(64, "init"))
    params["gen.out.b"].value[...] = [[0.9, -0.4, 0.1]]
    params["gen.lstm.W"].value *= 6.0  # history dependence
    labels = np.zeros(100_000, dtype=np.int64)
    draws = sample_batch(params, dims, labels, 2, RngStream(64, "draw"))

    seqs = all_sequences(3, 2)
    lp = exact_log_prob(params, dims, seqs, np.zeros(9, dtype=np.int64))
    expected = np.exp(lp) * len(labels)
    counts = np.bincount(draws[:, 0] * 3 + draws[:, 1], minlength=9)
    assert abs(float(np.exp(lp).sum()) - 1.0) < 1e-10
    _, p = chisquare(counts, expected)
    assert p > 0.001


@settings(max_examples=80, deadline=None)
@given(group=st.integers(1, 6), steps=st.integers(1, 6), block=st.sampled_from([2, 3, 5, 7]),
       seed=st.integers(0, 2**16))
@example(group=1, steps=6, block=2, seed=0)
def test_row_blocks_do_not_change_free_run_bitwise(group, steps, block, seed):
    # the rollout layout: step i draws for the first (i + 1) * group rows.
    # The states carry any last-bit difference that a draw would hide, such
    # as a lone active row multiplied alone (group 1)
    dims = desk(GeneratorDims, vocab_size=7, n_labels=2, d_embed=8, d_hidden=8, d_label=3)
    hz = hoist(init_generator_params(dims, RngStream(seed, "init")), dims)
    rows, T = steps * group, steps + 1
    rng = RngStream(seed, "rows")
    labels = rng.child("lab").integers(0, 2, rows)
    start = (rng.child("h").normal((rows, 8)), rng.child("c").normal((rows, 8)),
             rng.child("seq").integers(0, 7, (rows, T)), rng.child("u").uniform((rows, steps)))

    def run(size: int) -> tuple:
        h, c, seqs, u = (a.copy() for a in start)
        with mock.patch.object(numerics, "ROW_BLOCK", size):
            free_run(hz, labels, h, c, seqs, u, range(group, rows + 1, group))
        return h, c, seqs
    for got, want in zip(run(block), run(10**9)):
        assert np.array_equal(got, want)

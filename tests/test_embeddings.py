"""Skip-gram pretraining: co-occurring tokens end up aligned, the dense
update matches the per-pair loop, and a diverging run is refused."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as some

from advseq.corpus import PAD_ID, SequenceData, Vocab, generate_corpus
from advseq.embeddings import BATCH_SIZE, _skipgram_pairs, pretrain_embeddings
from advseq.grammar import overlapping_preset, separable_preset
from advseq.numerics import NumericError, RngStream
from oracles import SKIP_GRAM, loop_pretrain_embeddings


@pytest.fixture(scope="module")
def trained():
    spec = separable_preset()
    data, vocab = generate_corpus(spec, 400, RngStream(21, "corpus"))
    emb = pretrain_embeddings(data, len(vocab), 16, RngStream(21, "embed"), epochs=5,
                              **SKIP_GRAM)
    return data, vocab, emb


def test_cooccurring_tokens_align(trained):
    _, vocab, emb = trained

    def cos(a: str, b: str) -> float:
        u, v = emb[vocab.encode_token(a)], emb[vocab.encode_token(b)]
        return float(u @ v) / float(np.linalg.norm(u) * np.linalg.norm(v))

    # "plan rest" and "intake <subj> arrived" are adjacent slots in every
    # label; "plan" and "followup" never appear in the same template
    assert cos("plan", "rest") > 0.5
    assert cos("intake", "arrived") > 0.5
    assert cos("plan", "followup") < cos("plan", "rest")
    assert cos("plan", "followup") < cos("intake", "arrived")


def test_tokens_seen_often_get_trained_rows(trained):
    data, vocab, emb = trained
    counts = np.bincount(data.tokens.ravel(), minlength=len(vocab))
    for tid in range(len(vocab)):
        if counts[tid] >= 5:
            assert float(np.abs(emb[tid]).sum()) > 0.0


def test_pretraining_is_deterministic():
    vocab = Vocab.from_tokens(["alpha", "beta", "gamma", "delta"])
    pairs = [[vocab.encode_token(t) for t in ("alpha", "beta")],
             [vocab.encode_token(t) for t in ("gamma", "delta")]]
    data = SequenceData(np.array([pairs[i % 2] for i in range(60)]), np.arange(60) % 2)
    e1 = pretrain_embeddings(data, len(vocab), 8, RngStream(23, "embed"), epochs=5, **SKIP_GRAM)
    e2 = pretrain_embeddings(data, len(vocab), 8, RngStream(23, "embed"), epochs=5, **SKIP_GRAM)
    assert np.array_equal(e1, e2)
    e3 = pretrain_embeddings(data, len(vocab), 8, RngStream(24, "embed"), epochs=5, **SKIP_GRAM)
    assert not np.array_equal(e1, e3)


def test_empty_corpus_returns_initial_table():
    data = SequenceData(np.full((3, 4), 1, dtype=np.int64), np.zeros(3, dtype=np.int64))
    emb = pretrain_embeddings(data, 6, 8, RngStream(25, "embed"), epochs=5, **SKIP_GRAM)
    assert emb.shape == (6, 8)
    assert np.all(np.abs(emb) <= 0.5 / 8)  # untouched init range


def loop_skipgram_pairs(data: SequenceData, window: int) -> np.ndarray:
    """Reference: the per-token loop, pads dropped before windowing."""
    pairs: list[tuple[int, int]] = []
    for row in data.tokens:
        toks = [int(t) for t in row if t != PAD_ID]
        for i, center in enumerate(toks):
            lo = max(0, i - window)
            hi = min(len(toks), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, toks[j]))
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def test_skipgram_pairs_skip_mid_row_pads():
    # the pad between 3 and 4 is removed first, so 3 and 4 are neighbours
    data = SequenceData(np.array([[2, 3, PAD_ID, 4, PAD_ID]]), np.zeros(1, dtype=np.int64))
    got = _skipgram_pairs(data, 1)
    assert got.tolist() == [[2, 3], [3, 2], [3, 4], [4, 3]]
    assert np.array_equal(got, loop_skipgram_pairs(data, 1))


def test_a_window_wider_than_the_row_gives_the_pairs_of_seq_len_minus_1():
    # no offset past seq_len - 1 lands in a row, so a window of 10**5 gives
    # the same pairs and takes memory by the row, not by the window
    data = SequenceData(np.array([[2, 3, PAD_ID, 4, 5]]), np.zeros(1, dtype=np.int64))
    tracemalloc.start()
    try:
        got = _skipgram_pairs(data, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _skipgram_pairs(data, 4))
    assert peak < 2**20, peak


# rows over a small alphabet that includes PAD, so pads land anywhere and
# all-pad rows occur
@given(rows=some.integers(0, 6).flatmap(
           lambda width: some.lists(some.lists(some.integers(PAD_ID, 4), min_size=width,
                                               max_size=width), min_size=1, max_size=6)),
       window=some.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_skipgram_pairs_match_the_loop(rows, window):
    tokens = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    data = SequenceData(tokens, np.zeros(len(rows), dtype=np.int64))
    got = _skipgram_pairs(data, window)
    want = loop_skipgram_pairs(data, window)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the dense coefficient-table update against the per-pair loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec,n,epochs", [(overlapping_preset(), 350, 3),
                                           (separable_preset(), 400, 2)])
def test_matches_the_per_pair_loop_on_a_preset(spec, n, epochs):
    data, vocab = generate_corpus(spec, n, RngStream(72, "corpus"))
    args = (data, len(vocab), 16, RngStream(72, "embed"))
    got = pretrain_embeddings(*args, epochs=epochs, **SKIP_GRAM)
    want = loop_pretrain_embeddings(*args, epochs=epochs, **SKIP_GRAM)
    assert np.abs(got - want).max() <= 1e-12


# tiny vocabularies, so negatives repeat within a row and collide with the
# context, and sometimes more than one batch with a ragged last one. lr is
# kept small: with V this small each output row takes hundreds of summed
# updates per batch, and at the default rate the table can grow without
# bound, where the two summation orders drift apart.
@given(vocab_size=some.integers(3, 8), negatives=some.integers(0, 5),
       window=some.integers(1, 3), n_rows=some.integers(1, 50),
       width=some.integers(1, 12), epochs=some.integers(1, 3),
       seed=some.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_matches_the_per_pair_loop(vocab_size, negatives, window, n_rows, width,
                                   epochs, seed):
    tokens = np.random.default_rng(seed).integers(PAD_ID, vocab_size, (n_rows, width))
    data = SequenceData(tokens, np.zeros(n_rows, dtype=np.int64))
    args = (data, vocab_size, 4, RngStream(seed, "embed"))
    kw = dict(window=window, negatives=negatives, epochs=epochs, lr=0.005)
    got = pretrain_embeddings(*args, **kw)
    want = loop_pretrain_embeddings(*args, **kw)
    assert np.abs(got - want).max() <= 1e-12


def test_a_diverging_table_is_a_numeric_failure():
    data, vocab = generate_corpus(overlapping_preset(), 100, RngStream(73, "corpus"))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="skip-gram"):
        pretrain_embeddings(data, len(vocab), 8, RngStream(73, "embed"), epochs=5,
                            **dict(SKIP_GRAM, lr=1e6))


def test_a_finite_but_diverged_table_is_a_numeric_failure():
    # Zipf tokens (p ~ 1/rank over 60 tokens, the top one 21% of all): one
    # output row takes hundreds of summed updates per batch and the table
    # grows to about 1e18 while staying finite
    V = 62
    p = 1.0 / np.arange(1, V - 1)
    tokens = 2 + np.random.default_rng(5).choice(V - 2, size=(400, 20), p=p / p.sum())
    data = SequenceData(tokens, np.zeros(len(tokens), dtype=np.int64))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged"):
        pretrain_embeddings(data, V, 32, RngStream(3, "e"), epochs=5, **SKIP_GRAM)


def test_training_faults_in_few_pages_per_batch():
    # the (B, V) tables are freed and reallocated every batch; they must
    # come back from the heap, not from fresh pages. A form that faults in
    # its update arrays anew costs hundreds of pages per batch; this one
    # took 0 to 11 per batch at this shape, alone and inside the suite
    resource = pytest.importorskip("resource")
    data, vocab = generate_corpus(overlapping_preset(), 350, RngStream(74, "corpus"))
    n_batches = 3 * -(-len(_skipgram_pairs(data, 2)) // BATCH_SIZE)
    pretrain_embeddings(data, len(vocab), 32, RngStream(74, "embed"), epochs=1, **SKIP_GRAM)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pretrain_embeddings(data, len(vocab), 32, RngStream(74, "embed"), epochs=3, **SKIP_GRAM)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / n_batches < 40, faults

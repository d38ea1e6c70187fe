"""Vocab, encoding, corpus sampling against exact grammar probabilities,
stratified splits, and file roundtrips."""

import math

import numpy as np
import pytest

from advseq.corpus import (BOS_ID, PAD_ID, DataError, SequenceData, Vocab,
                           decode_sequence, dedupe, generate_corpus,
                           read_corpus, read_vocab, split_corpus,
                           write_corpus, write_vocab)
from advseq.grammar import (BOS_TOKEN, PAD_TOKEN, overlapping_preset,
                            parse_grammar, separable_preset)
from advseq.numerics import RngStream
from oracles import sequence_nll_tokens

from test_grammar import TINY


def exact_nll(spec, vocab, tokens, label) -> float:
    """The oracle's exact NLL of one stored row (pads kept)."""
    return sequence_nll_tokens(spec, int(label), decode_sequence(tokens, vocab))


@pytest.fixture(scope="module")
def tiny_spec():
    return parse_grammar(TINY)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_reserved_ids_and_sorting():
    v = Vocab.from_tokens(["zebra", "apple", "apple", "mango"])
    assert v.decode_id(BOS_ID) == BOS_TOKEN
    assert v.decode_id(PAD_ID) == PAD_TOKEN
    assert v.id_to_token[2:] == ["apple", "mango", "zebra"]
    assert len(v) == 5 and "mango" in v.token_to_id and "kiwi" not in v.token_to_id


def test_vocab_rejects_bad_layouts():
    with pytest.raises(DataError, match="reserved"):
        Vocab(["apple", "mango"])
    with pytest.raises(DataError, match="duplicate"):
        Vocab([BOS_TOKEN, PAD_TOKEN, "a", "a"])


def test_unknown_tokens_collapse_to_pad():
    v = Vocab.from_tokens(["a", "b"])
    assert v.encode_token("zzz") == PAD_ID
    assert v.encode_token("a") == v.token_to_id["a"]


def test_decode_encode_identity(tiny_spec):
    v = Vocab.from_tokens(tiny_spec.token_set())
    for tok in tiny_spec.token_set():
        assert v.decode_id(v.encode_token(tok)) == tok


# ---------------------------------------------------------------------------
# padding and encoding
# ---------------------------------------------------------------------------


def read_rows(tmp_path, text: str, vocab: Vocab, seq_len: int):
    path = tmp_path / "corpus.tsv"
    path.write_text(text)
    return read_corpus(path, vocab, seq_len)


def test_crop_pad_pads(tmp_path):
    v = Vocab.from_tokens(["a", "b", "c"])
    data, _ = read_rows(tmp_path, "0\ta b c\n", v, 5)
    assert np.array_equal(data.tokens[0], [2, 3, 4, PAD_ID, PAD_ID])


def test_encode_counts_unknown_tokens(tmp_path):
    # a stored pad token is no unknown, and a row may be all pads
    v = Vocab.from_tokens(["a", "b"])
    data, unknown = read_rows(tmp_path, f"0\ta mystery b ghost\n1\t{PAD_TOKEN} a\n1\t\n",
                              v, 5)
    assert unknown == 2
    assert np.array_equal(data.tokens,
                          [[v.encode_token("a"), PAD_ID, v.encode_token("b"), PAD_ID, PAD_ID],
                           [PAD_ID, v.encode_token("a"), PAD_ID, PAD_ID, PAD_ID],
                           [PAD_ID] * 5])
    assert data.labels.tolist() == [0, 1, 1]


def test_decode_sequence_keeps_pads(tmp_path):
    v = Vocab.from_tokens(["a", "b"])
    data, _ = read_rows(tmp_path, "1\tb a\n", v, 4)
    assert decode_sequence(data.tokens[0], v) == ["b", "a", PAD_TOKEN, PAD_TOKEN]


def test_sequence_data_rejects_misaligned_arrays():
    with pytest.raises(DataError):
        SequenceData(np.zeros((3, 4)), np.zeros(2))


def test_sequence_data_concat_and_subset():
    a = SequenceData(np.arange(8).reshape(4, 2), np.array([0, 1, 0, 1]))
    b = SequenceData(np.arange(4).reshape(2, 2), np.array([1, 1]))
    both = SequenceData.concat([a, b])
    assert len(both) == 6 and both.seq_len == 2 and both.n_labels() == 2
    sub = both.subset([5, 0])
    assert np.array_equal(sub.tokens, [[2, 3], [0, 1]])


# ---------------------------------------------------------------------------
# sampling against exact grammar probabilities
# ---------------------------------------------------------------------------


def test_generate_corpus_deterministic(tiny_spec):
    d1, v1 = generate_corpus(tiny_spec, 60, RngStream(5, "corpus"))
    d2, v2 = generate_corpus(tiny_spec, 60, RngStream(5, "corpus"))
    assert np.array_equal(d1.tokens, d2.tokens)
    assert np.array_equal(d1.labels, d2.labels)
    assert v1.id_to_token == v2.id_to_token


def test_unigram_frequencies_match_grammar(tiny_spec):
    n = 10_000
    data, vocab = generate_corpus(tiny_spec, n, RngStream(6, "corpus"))
    # "f" occurs iff label 0 template 0 fires; "a" mixes both labels
    for tok, p in (("f", 0.4 * 0.7),
                   ("a", 0.4 * 0.7 * 0.25 + 0.6 / 3.0)):
        count = int(np.sum(np.any(data.tokens == vocab.encode_token(tok), axis=1)))
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) < 3 * sigma, (tok, count, n * p, sigma)
    # label marginals follow the priors
    n1 = int(np.sum(data.labels == 1))
    assert abs(n1 - n * 0.6) < 3 * math.sqrt(n * 0.6 * 0.4)


def test_mean_exact_nll_matches_entropy(tiny_spec):
    n = 4000
    data, vocab = generate_corpus(tiny_spec, n, RngStream(7, "corpus"))
    nlls = np.array([exact_nll(tiny_spec, vocab, data.tokens[i], data.labels[i])
                     for i in range(n)])
    assert np.all(np.isfinite(nlls))
    se = float(nlls.std(ddof=1)) / math.sqrt(n)
    assert abs(float(nlls.mean()) - tiny_spec.conditional_entropy()) < 2 * se


def test_overlapping_preset_nll_is_exactly_entropy():
    spec = overlapping_preset()
    data, vocab = generate_corpus(spec, 40, RngStream(8, "corpus"))
    h = spec.conditional_entropy()
    for i in range(len(data)):
        nll = exact_nll(spec, vocab, data.tokens[i], data.labels[i])
        assert abs(nll - h) < 1e-9


def test_exact_nll_flags_impossible_sequences(tiny_spec):
    data, vocab = generate_corpus(tiny_spec, 5, RngStream(9, "corpus"))
    tokens = data.tokens[0].copy()
    tokens[0] = PAD_ID  # no template starts with a pad
    assert math.isinf(exact_nll(tiny_spec, vocab, tokens, data.labels[0]))


def test_separable_corpus_obeys_unigram_presence_rule():
    spec = separable_preset()
    data, vocab = generate_corpus(spec, 300, RngStream(10, "corpus"))
    marker_ids = {label: {vocab.encode_token(t) for t in spec.exclusive_tokens(label)}
                  for label in spec.label_ids()}
    hits = 0
    for i in range(len(data)):
        present = set(data.tokens[i].tolist())
        guess = max(spec.label_ids(), key=lambda lb: len(present & marker_ids[lb]))
        hits += guess == data.labels[i]
    assert hits == len(data)


# ---------------------------------------------------------------------------
# dedupe and splits
# ---------------------------------------------------------------------------


def unique_rows(n: int, n_labels: int = 2, seq_len: int = 4) -> SequenceData:
    # row i spells out i in base 7, offset past the reserved ids
    tokens = np.zeros((n, seq_len), dtype=np.int64)
    for i in range(n):
        x = i
        for j in range(seq_len):
            tokens[i, j] = 2 + x % 7
            x //= 7
    return SequenceData(tokens, np.arange(n) % n_labels)


def test_dedupe_keeps_first_occurrence():
    base = unique_rows(6)
    doubled = SequenceData.concat([base, base.subset([2, 4])])
    out = dedupe(doubled)
    assert len(out) == 6
    assert np.array_equal(out.tokens, base.tokens)


def test_dedupe_distinguishes_labels():
    tokens = np.tile([2, 3], (2, 1))
    data = SequenceData(tokens, np.array([0, 1]))
    assert len(dedupe(data)) == 2


def test_split_is_stratified_and_exact():
    data = unique_rows(100)
    splits = split_corpus(data, (0.7, 0.1, 0.2), RngStream(11))
    assert (len(splits.train), len(splits.valid), len(splits.test)) == (70, 10, 20)
    for label in (0, 1):
        per = [int(np.sum(part.labels == label))
               for part in (splits.train, splits.valid, splits.test)]
        assert abs(per[0] - 35) <= 1 and abs(per[1] - 5) <= 1 and abs(per[2] - 10) <= 1


def test_split_deterministic():
    data = unique_rows(57)
    a = split_corpus(data, (0.7, 0.1, 0.2), RngStream(12))
    b = split_corpus(data, (0.7, 0.1, 0.2), RngStream(12))
    for pa, pb in ((a.train, b.train), (a.valid, b.valid), (a.test, b.test)):
        assert np.array_equal(pa.tokens, pb.tokens)
        assert np.array_equal(pa.labels, pb.labels)


def test_split_dedupes_so_no_row_crosses_splits():
    base = unique_rows(50)
    noisy = SequenceData.concat([base, base])  # every row duplicated
    splits = split_corpus(noisy, (0.6, 0.2, 0.2), RngStream(13))
    seen: set[bytes] = set()
    total = 0
    for part in (splits.train, splits.valid, splits.test):
        for i in range(len(part)):
            seen.add(part.labels[i].tobytes() + part.tokens[i].tobytes())
            total += 1
    assert total == 50 and len(seen) == 50


def test_split_refuses_tiny_corpora():
    with pytest.raises(DataError, match="at least 10"):
        split_corpus(unique_rows(9), (0.7, 0.1, 0.2), RngStream(14))
    # duplicates do not count toward the minimum
    base = unique_rows(8)
    padded = SequenceData.concat([base, base, base])
    with pytest.raises(DataError, match="at least 10"):
        split_corpus(padded, (0.7, 0.1, 0.2), RngStream(14))


def test_split_rejects_bad_ratios():
    with pytest.raises(DataError, match="ratios"):
        split_corpus(unique_rows(20), (0.7, 0.1, 0.1), RngStream(15))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def test_corpus_file_roundtrip(tmp_path, tiny_spec):
    data, vocab = generate_corpus(tiny_spec, 30, RngStream(16, "corpus"))
    path = tmp_path / "corpus.tsv"
    write_corpus(path, data, vocab)
    back, unknown = read_corpus(path, vocab, tiny_spec.seq_len)
    assert unknown == 0
    assert np.array_equal(back.tokens, data.tokens)
    assert np.array_equal(back.labels, data.labels)


def test_read_corpus_counts_unknowns(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("0\ta b mystery\n1\tghost a\n")
    vocab = Vocab.from_tokens(["a", "b"])
    data, unknown = read_corpus(path, vocab, 4)
    assert unknown == 2
    assert data.tokens[1, 0] == PAD_ID


def test_read_corpus_errors_cite_lines(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("0\ta b\nnotab\n")
    with pytest.raises(DataError, match="line 2"):
        read_corpus(path, Vocab.from_tokens(["a", "b"]), 3)
    path.write_text("x\ta\n")
    with pytest.raises(DataError, match="line 1.*label"):
        read_corpus(path, Vocab.from_tokens(["a"]), 3)
    path.write_text("-1\ta\n")
    with pytest.raises(DataError, match="negative"):
        read_corpus(path, Vocab.from_tokens(["a"]), 3)
    path.write_text("0\ta\n99999999999999999999\ta\n")  # beyond int64
    with pytest.raises(DataError, match="line 2: bad label"):
        read_corpus(path, Vocab.from_tokens(["a"]), 3)


def test_read_corpus_refuses_rows_longer_than_seq_len(tmp_path):
    # cutting such a row would train on, and score against, other text
    path = tmp_path / "corpus.tsv"
    path.write_text("0\ta b\n1\ta b a b\n")
    with pytest.raises(DataError, match=r"corpus.tsv: line 2: 4 tokens, longer than "
                                        r"corpus.seq_len = 3"):
        read_corpus(path, Vocab.from_tokens(["a", "b"]), 3)


def test_vocab_file_roundtrip(tmp_path, tiny_spec):
    vocab = Vocab.from_tokens(tiny_spec.token_set())
    path = tmp_path / "vocab.txt"
    write_vocab(path, vocab)
    assert read_vocab(path).id_to_token == vocab.id_to_token


def test_read_vocab_rejects_bad_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n")
    with pytest.raises(DataError, match="vocab.txt"):
        read_vocab(path)

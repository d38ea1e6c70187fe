"""Evaluation tiers: BLEU oracles, evaluator reliability, reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as some

from advseq.corpus import DataError, SequenceData, generate_corpus
from advseq.discriminators import DiscriminatorConfig
from advseq.evaluation import (MetricsReport,
                               adversarial_success, application_metrics,
                               classifier_accuracy, corpus_bleu_mean,
                               downstream_classification, ere_suite,
                               macro_metrics,
                               median_over_seeds, micro_metrics, ngrams,
                               random_sequences, self_bleu,
                               strip_pads)
from advseq.generator import GeneratorDims, init_generator_params, mean_nll, sample_batch
from advseq.grammar import separable_preset
from advseq.numerics import RngStream
from oracles import SCORER, bleu, desk, parse_metrics_csv

EPS = 1e-9

# A cheap evaluator (its cnn over a vocabulary of 8, and its epochs) for
# shape-and-key tests where the trained values are irrelevant; the
# calibrated probes below use near-default settings.
FAST = desk(DiscriminatorConfig, vocab_size=8, n_labels=2, kind="cnn", **SCORER, d_embed=8,
            n_filters=4, dropout=0.0, l2=0.01), 1


# ---------------------------------------------------------------------------
# n-gram and BLEU oracles
# ---------------------------------------------------------------------------


def test_ngrams_counts():
    got = ngrams([1, 2, 1, 2], 2)
    assert got == {(1, 2): 2, (2, 1): 1}
    assert ngrams([1], 2) == {}


def test_strip_pads_removes_pad_only():
    # PAD is id 1; BOS (0) and ordinary tokens survive
    assert strip_pads([0, 3, 1, 4, 1]) == (0, 3, 4)
    assert strip_pads([1, 1]) == ()


def test_bleu_exact_match_is_one():
    assert bleu([1, 2, 3, 4], [[1, 2, 3, 4]]) == 1.0


def test_bleu_partial_overlap_hand_value():
    # unigrams 2/4, bigrams 1/3, tri/quad floored at eps, no brevity penalty
    got = bleu([1, 2, 8, 9], [[1, 2, 3, 4]])
    want = (0.5 * (1.0 / 3.0) * EPS * EPS) ** 0.25
    assert abs(got - want) < 1e-12


def test_bleu_disjoint_floor():
    # every precision collapses to eps, candidate longer than reference
    got = bleu([9, 9, 9, 9], [[1, 2, 3]])
    assert abs(got - EPS) < 1e-15
    assert got < 1e-6


def test_bleu_brevity_penalty():
    # precisions are all 1, candidate half the reference length
    got = bleu([1, 2], [[1, 2, 3, 4]], max_n=2)
    assert abs(got - math.exp(-1.0)) < 1e-12


def test_bleu_length_tie_prefers_shorter_reference():
    # candidate length 3; references 2 and 4 tie, the shorter one wins,
    # so no brevity penalty applies
    loose = bleu([1, 2, 3], [[1, 2], [1, 2, 3, 4]])
    tight = bleu([1, 2, 3], [[1, 2, 3, 4]])
    assert abs(loose - tight * math.exp(4.0 / 3.0 - 1.0)) < 1e-12


def test_bleu_clips_repeated_ngrams():
    # candidate has three 1s, best reference supplies only two
    got = bleu([1, 1, 1], [[1, 1], [1]], max_n=1)
    assert abs(got - 2.0 / 3.0) < 1e-15


def test_bleu_empty_candidate_scores_zero():
    assert bleu([], [[1, 2]]) == 0.0


def test_bleu_requires_references():
    with pytest.raises(ValueError):
        bleu([1, 2], [])


@given(cand=some.lists(some.integers(2, 5), max_size=8),
       refs=some.lists(some.lists(some.integers(2, 5), min_size=1, max_size=8),
                       min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_bleu_bounded_and_reference_order_invariant(cand, refs):
    got = bleu(cand, refs)
    assert 0.0 <= got <= 1.0
    assert got == bleu(cand, list(reversed(refs)))


def test_self_bleu_identical_samples():
    assert self_bleu([[1, 2, 3, 4]] * 3) == 1.0


def test_self_bleu_disjoint_samples():
    assert self_bleu([[2, 2, 2, 2], [3, 3, 3, 3], [4, 4, 4, 4]]) < 1e-6


def test_self_bleu_needs_two_samples():
    with pytest.raises(ValueError):
        self_bleu([[1, 2, 3]])


def test_corpus_bleu_mean_is_plain_mean():
    samples = [[1, 2, 3, 4], [9, 9, 9, 9]]
    refs = [[1, 2, 3, 4]]
    want = (bleu(samples[0], refs) + bleu(samples[1], refs)) / 2.0
    assert abs(corpus_bleu_mean(samples, refs) - want) < 1e-15


# Rows over a three-token alphabet, lengths 0-6, with some rows repeated:
# duplicates, shared top counts, rows shorter than n, empty rows and equal
# lengths all turn up often.
def _with_repeats(rows_and_picks):
    rows, picks = rows_and_picks
    return rows + [rows[i % len(rows)] for i in picks]


ROWS = some.tuples(
    some.lists(some.lists(some.integers(2, 4), max_size=6).map(tuple),
               min_size=1, max_size=7),
    some.lists(some.integers(0, 6), max_size=4)).map(_with_repeats)


@given(samples=ROWS, refs=ROWS, max_n=some.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_counted_once_scores_equal_sentence_bleu_exactly(samples, refs, max_n):
    want = float(np.mean([bleu(s, refs, max_n=max_n) for s in samples]))
    assert corpus_bleu_mean(samples, refs, max_n=max_n) == want
    if len(samples) >= 2:
        want = float(np.mean([bleu(samples[i], samples[:i] + samples[i + 1:],
                                   max_n=max_n) for i in range(len(samples))]))
        assert self_bleu(samples, max_n=max_n) == want


def test_self_bleu_shared_top_count_survives_leaving_one_out():
    # (2,) occurs twice in each of the first two samples: leaving either out
    # still finds two in the other, so both match 2 of 2 unigrams; the last
    # sample matches its one 2 but not its 3
    samples = [(2, 2), (2, 2), (2, 3)]
    assert self_bleu(samples, max_n=1) == float(np.mean([1.0, 1.0, 0.5]))


def test_self_bleu_single_top_holder_drops_to_second_count():
    # only the first sample holds (2,) three times; without it the best
    # count is the second sample's 1, so it clips to 1 of 3 unigram matches
    samples = [(2, 2, 2), (2, 3, 3), (3, 3, 3)]
    got = self_bleu(samples, max_n=1)
    assert got == float(np.mean([1.0 / 3.0, 1.0, 2.0 / 3.0]))


def test_nll_test_uniform_model():
    # zeroed output weights make every step uniform over the vocabulary
    dims = GeneratorDims(5, 2, d_embed=3, d_hidden=3, d_label=2)
    params = init_generator_params(dims, RngStream(3, "init"))
    params["gen.out.W"].value[...] = 0.0
    data = SequenceData(np.array([[2, 3, 4], [4, 3, 2]]), np.array([0, 1]))
    assert abs(mean_nll(params, dims, data) - 3.0 * math.log(5.0)) < 1e-9


# ---------------------------------------------------------------------------
# Calibrated reliability probes on the separable preset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_corpus():
    spec = separable_preset()
    data, vocab = generate_corpus(spec, 1200, RngStream(230, "corpus"))
    return spec, data, vocab


@pytest.fixture(scope="module")
def probe_settings(eval_corpus):
    # default evaluator sizing; longer schedule because the probes here
    # train on a few hundred rows rather than thousands
    return desk(DiscriminatorConfig, vocab_size=len(eval_corpus[2]), n_labels=2, kind="cnn",
                **SCORER), 60


@pytest.fixture(scope="module")
def untrained_samples(eval_corpus):
    spec, data, vocab = eval_corpus
    dims = GeneratorDims(len(vocab), 2, d_embed=16, d_hidden=16, d_label=4)
    params = init_generator_params(dims, RngStream(5, "init"))
    labels = data.subset(range(400)).labels
    fake = SequenceData(sample_batch(params, dims, labels, spec.seq_len, RngStream(6, "gen")),
                        labels)
    return dims, params, fake


def test_random_sequences_shape_and_bounds():
    got = random_sequences(50, 7, 10, 3, RngStream(40))
    assert got.tokens.shape == (50, 7) and got.labels.shape == (50,)
    assert got.tokens.min() >= 2 and got.tokens.max() <= 9
    assert set(np.unique(got.labels)) <= {0, 1, 2}
    again = random_sequences(50, 7, 10, 3, RngStream(40))
    assert np.array_equal(got.tokens, again.tokens)
    assert np.array_equal(got.labels, again.labels)


def test_probe_sits_at_chance_on_real_vs_real(eval_corpus, probe_settings):
    spec, data, vocab = eval_corpus
    got = adversarial_success(data.subset(range(400)),
                              data.subset(range(400, 800)),
                              RngStream(240), *probe_settings)
    assert 0.3 <= got <= 0.7


def test_probe_flags_untrained_generator(eval_corpus, probe_settings,
                                         untrained_samples):
    spec, data, vocab = eval_corpus
    got = adversarial_success(data.subset(range(400)), untrained_samples[2],
                              RngStream(241), *probe_settings)
    assert got <= 0.15


def test_reliability_suite_bounds(eval_corpus, probe_settings,
                                  untrained_samples):
    spec, data, vocab = eval_corpus
    got = ere_suite(data.subset(range(400)), untrained_samples[2],
                    RngStream(242), *probe_settings)
    assert set(got) == {"ere1", "ere2", "ere3"}
    assert 0.0 <= got["ere1"] <= 0.15  # real vs real stays near chance
    assert 0.0 <= got["ere2"] <= 0.15  # generated vs generated too
    assert 0.0 <= got["ere3"] <= 0.10  # real vs random is nearly solved


def test_probe_refuses_tiny_sides(eval_corpus, probe_settings):
    spec, data, vocab = eval_corpus
    with pytest.raises(DataError, match="at least 4"):
        adversarial_success(data.subset(range(3)), data.subset(range(4, 8)),
                            RngStream(1), *probe_settings)


def test_classifier_reads_label_exclusive_tokens(eval_corpus, probe_settings):
    spec, data, vocab = eval_corpus
    got = classifier_accuracy(data.subset(range(400)),
                              data.subset(range(1000, 1200)),
                              RngStream(243), *probe_settings, 2)
    assert got >= 0.95


def test_downstream_ordering(eval_corpus, probe_settings, untrained_samples):
    spec, data, vocab = eval_corpus
    got = downstream_classification(data.subset(range(400)),
                                    untrained_samples[2],
                                    data.subset(range(1000, 1200)),
                                    RngStream(244), *probe_settings)
    assert set(got) == {"acc_real", "acc_synth", "acc_mix"}
    assert got["acc_real"] >= 0.9
    assert got["acc_synth"] <= 0.75  # untrained samples carry no label signal
    assert got["acc_mix"] >= 0.85


# ---------------------------------------------------------------------------
# Aggregation, tier drivers, reporting
# ---------------------------------------------------------------------------


def test_median_over_seeds_matches_hand_median():
    def fn(stream):
        return {"v": float(stream.uniform(1)[0])}

    base = RngStream(77, "med")
    got = median_over_seeds(fn, base, n_seeds=3)
    vals = [float(RngStream(77, "med").child("seed", s).uniform(1)[0])
            for s in range(3)]
    assert got == {"v": float(np.median(vals))}
    assert median_over_seeds(fn, RngStream(77, "med"), n_seeds=3) == got


def _tiny_generator(vocab_size=8, forced_token=None):
    dims = GeneratorDims(vocab_size, 2, d_embed=4, d_hidden=4, d_label=2)
    params = init_generator_params(dims, RngStream(9, "init"))
    if forced_token is not None:
        params["gen.out.b"].value[0, forced_token] += 50.0
    return dims, params


def test_micro_metrics_keys_and_degenerate_sampler():
    # rows must be at least 4 tokens, otherwise the 4-gram precision
    # floors at eps and even identical samples cannot reach self-BLEU 1
    dims, params = _tiny_generator(vocab_size=5, forced_token=2)
    test = SequenceData(np.array([[2, 3, 4, 2], [3, 4, 2, 3],
                                  [4, 4, 4, 4], [2, 2, 3, 3]]),
                        np.array([0, 1, 0, 1]))
    got = micro_metrics(params, dims, test, RngStream(50), n_samples=6)
    assert set(got) == {"nll_test", "bleu_test", "self_bleu"}
    assert got["self_bleu"] == 1.0  # every sample is the forced sequence
    assert 0.0 < got["bleu_test"] < 1.0
    assert math.isfinite(got["nll_test"]) and got["nll_test"] > 0.0


def test_micro_metrics_guards():
    dims, params = _tiny_generator(vocab_size=5)
    empty = SequenceData(np.zeros((0, 3), dtype=np.int64),
                         np.zeros((0,), dtype=np.int64))
    test = SequenceData(np.array([[2, 3, 4]]), np.array([0]))
    with pytest.raises(DataError):
        micro_metrics(params, dims, empty, RngStream(1), n_samples=200)
    with pytest.raises(DataError):
        micro_metrics(params, dims, test, RngStream(1), n_samples=1)


def test_macro_metrics_key_set():
    dims, params = _tiny_generator()
    real = random_sequences(24, 6, 8, 2, RngStream(60))
    got = macro_metrics(params, dims, real, RngStream(61), *FAST, n_seeds=1)
    assert set(got) == {"adversuc", "ere1", "ere2", "ere3"}
    assert 0.0 <= got["adversuc"] <= 1.0
    for k in ("ere1", "ere2", "ere3"):
        assert 0.0 <= got[k] <= 1.0


def test_application_metrics_flags_heavy_imbalance():
    dims, params = _tiny_generator()
    tokens = 2 + RngStream(62).integers(0, 6, (40, 6))
    train = SequenceData(tokens, np.array([0] * 38 + [1] * 2))
    test = SequenceData(2 + RngStream(63).integers(0, 6, (10, 6)),
                        np.array([0, 1] * 5))
    got = application_metrics(params, dims, train, test, RngStream(64), *FAST, n_seeds=1)
    assert {"acc_real", "acc_synth", "acc_mix", "label_imbalance"} == set(got)
    assert got["label_imbalance"] == 19.0


def test_application_metrics_balanced_has_no_flag():
    dims, params = _tiny_generator()
    tokens = 2 + RngStream(65).integers(0, 6, (20, 6))
    train = SequenceData(tokens, np.array([0, 1] * 10))
    test = SequenceData(2 + RngStream(66).integers(0, 6, (10, 6)),
                        np.array([0, 1] * 5))
    got = application_metrics(params, dims, train, test, RngStream(67), *FAST, n_seeds=1)
    assert "label_imbalance" not in got


def test_application_metrics_guards():
    dims, params = _tiny_generator()
    one = SequenceData(np.array([[2, 3, 4, 2, 3, 4]]), np.array([0]))
    many = SequenceData(2 + RngStream(68).integers(0, 6, (8, 6)),
                        np.array([0, 1] * 4))
    with pytest.raises(DataError):
        application_metrics(params, dims, one, many, RngStream(1), *FAST, n_seeds=1)
    with pytest.raises(DataError):
        application_metrics(params, dims, many, one, RngStream(1), *FAST, n_seeds=1)


def test_metrics_report_csv_bytes():
    rep = MetricsReport("run1", 7, {"a": 0.25, "b": 1.5}, {})
    assert rep.csv_text() == "run_id,seed,a,b\nrun1,7,0.25,1.5\n"


def test_metrics_report_csv_roundtrip():
    rep = MetricsReport("abc", 13, {"nll_test": 11.679270067241038,
                                    "self_bleu": 1.0 / 3.0}, {})
    back = parse_metrics_csv(rep.csv_text())
    assert back.run_id == "abc" and back.seed == 13
    assert back.metrics == rep.metrics  # repr floats roundtrip exactly


def test_metrics_report_text_lists_skips():
    rep = MetricsReport("r", 1, {"m": 0.5}, {"macro": "too few rows"})
    text = rep.text()
    assert text.startswith("run r  seed 1\n")
    assert "m" in text and "0.500000" in text
    assert "macro suite" in text and "skipped (too few rows)" in text
    assert "macro" not in rep.csv_text()  # skips never reach the CSV


def test_metrics_report_parse_rejections():
    with pytest.raises(ValueError):
        parse_metrics_csv("run_id,seed,a\n")
    with pytest.raises(ValueError):
        parse_metrics_csv("run_id,seed,a\nr,1,0.5\nr,2,0.5\n")
    with pytest.raises(ValueError):
        parse_metrics_csv("id,seed,a\nr,1,0.5\n")
    with pytest.raises(ValueError):
        parse_metrics_csv("run_id,seed,a\nr,1\n")

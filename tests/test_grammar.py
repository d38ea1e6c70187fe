"""Grammar parsing, validation, exact entropy, and the shipped presets."""

import itertools
import math

import numpy as np
import pytest

from advseq.grammar import (PAD_TOKEN, GrammarError, GrammarSpec, Template,
                            format_grammar, overlapping_preset,
                            parse_grammar, sample_sequence, separable_preset,
                            uniform_slot)
from advseq.numerics import RngStream
from oracles import sequence_nll_tokens

TINY = """\
separable = false
seq_len = 3

[label 0]
prior = 0.4
[template weight = 0.7]
slot = a 0.25 | b 0.75
slot = c | d | e
slot = f
[template weight = 0.3]
slot = g | h

[label 1]
prior = 0.6
[template weight = 1.0]
slot = a | b | c
"""


def brute_force_entropy(spec: GrammarSpec, label: int) -> float:
    """Enumerate every sequence the label can emit and sum -p log p."""
    probs: dict[tuple[str, ...], float] = {}
    for t in spec.labels[label]:
        supports = [list(zip(s.tokens, s.probs)) for s in t.slots]
        for combo in itertools.product(*supports):
            tokens = tuple(tok for tok, _ in combo)
            tokens += (PAD_TOKEN,) * (spec.seq_len - len(tokens))
            p = t.weight * math.prod(p for _, p in combo)
            probs[tokens] = probs.get(tokens, 0.0) + p
    total = sum(probs.values())
    assert abs(total - 1.0) < 1e-12
    return -sum(p * math.log(p) for p in probs.values())


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_tiny_grammar():
    spec = parse_grammar(TINY)
    assert spec.seq_len == 3
    assert spec.label_ids() == [0, 1]
    assert spec.label_prior(0) == 0.4
    assert len(spec.labels[0]) == 2
    slot0 = spec.labels[0][0].slots[0]
    assert slot0.tokens == ("a", "b")
    assert np.array_equal(slot0.probs, [0.25, 0.75])


def test_parse_errors_cite_line_numbers():
    bad = TINY.replace("slot = a 0.25 | b 0.75", "slot = a 0.25 | b 0.70")
    with pytest.raises(GrammarError, match="line 7.*sum"):
        parse_grammar(bad)


def test_parse_rejects_unknown_key():
    with pytest.raises(GrammarError, match="line 1.*unknown key"):
        parse_grammar("mystery = 3\nseq_len = 2\n")


def test_parse_rejects_template_outside_label():
    text = "seq_len = 2\n[template weight = 1.0]\nslot = a\n"
    with pytest.raises(GrammarError, match="line 2"):
        parse_grammar(text)


def test_parse_requires_seq_len():
    with pytest.raises(GrammarError, match="seq_len"):
        parse_grammar("[label 0]\n[template weight = 1.0]\nslot = a\n")


def test_parse_comments_and_blank_lines_ignored():
    spec = parse_grammar(TINY.replace("[label 0]", "# note\n\n[label 0]"))
    assert spec.label_ids() == [0, 1]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_rejects_nonconsecutive_labels():
    spec = GrammarSpec(seq_len=1, labels={0: [Template(1.0, [uniform_slot("a")])],
                                          2: [Template(1.0, [uniform_slot("b")])]},
                       separable=False)
    with pytest.raises(GrammarError, match="consecutive"):
        spec.validate()


def test_validate_rejects_bad_template_weights():
    spec = GrammarSpec(seq_len=1, labels={0: [Template(0.6, [uniform_slot("a")]),
                                              Template(0.6, [uniform_slot("b")])]},
                       separable=False)
    with pytest.raises(GrammarError, match="weights.*sum"):
        spec.validate()


def test_validate_rejects_partial_priors():
    spec = parse_grammar(TINY)
    spec.priors = {0: 1.0}
    with pytest.raises(GrammarError, match="priors"):
        spec.validate()


def test_validate_rejects_too_many_slots():
    spec = GrammarSpec(seq_len=1, labels={
        0: [Template(1.0, [uniform_slot("a"), uniform_slot("b")])]}, separable=False)
    with pytest.raises(GrammarError, match="slots"):
        spec.validate()


def test_validate_rejects_reserved_tokens():
    with pytest.raises(GrammarError, match="reserved"):
        parse_grammar("seq_len = 1\n[label 0]\n[template weight = 1.0]\nslot = <pad>\n")


def test_separable_flag_demands_exclusive_slot():
    # both labels share their whole vocabulary, so separable must fail
    bad = TINY.replace("separable = false", "separable = true")
    with pytest.raises(GrammarError, match="separable"):
        parse_grammar(bad)


# ---------------------------------------------------------------------------
# exact entropy
# ---------------------------------------------------------------------------


def test_label_entropy_matches_brute_force():
    spec = parse_grammar(TINY)
    for label in spec.label_ids():
        assert abs(spec.label_entropy(label) - brute_force_entropy(spec, label)) < 1e-12


def test_conditional_entropy_weights_by_priors():
    spec = parse_grammar(TINY)
    expected = 0.4 * spec.label_entropy(0) + 0.6 * spec.label_entropy(1)
    assert abs(spec.conditional_entropy() - expected) < 1e-15


def test_entropy_refuses_possibly_overlapping_templates():
    text = ("seq_len = 1\n[label 0]\n"
            "[template weight = 0.5]\nslot = a | b\n"
            "[template weight = 0.5]\nslot = b | c\n")
    spec = parse_grammar(text)
    with pytest.raises(GrammarError, match="overlap"):
        spec.label_entropy(0)


def test_uniform_slot_entropy():
    assert abs(uniform_slot("a", "b", "c").entropy() - math.log(3)) < 1e-15


# ---------------------------------------------------------------------------
# exact sequence scoring
# ---------------------------------------------------------------------------


def test_sequence_nll_hand_values():
    spec = parse_grammar(TINY)
    # p = 0.7 * 0.75 * (1/3) * 1
    nll = sequence_nll_tokens(spec, 0, ["b", "c", "f"])
    assert abs(nll - (-math.log(0.7 * 0.75 / 3.0))) < 1e-12
    # one-slot template: tail must be PAD
    nll2 = sequence_nll_tokens(spec, 0, ["g", PAD_TOKEN, PAD_TOKEN])
    assert abs(nll2 - (-math.log(0.3 * 0.5))) < 1e-12


def test_sequence_nll_marginalizes_over_templates():
    text = ("seq_len = 1\n[label 0]\n"
            "[template weight = 0.5]\nslot = a | b\n"
            "[template weight = 0.5]\nslot = b | c\n")
    spec = parse_grammar(text)
    assert abs(sequence_nll_tokens(spec, 0, ["b"]) - math.log(2)) < 1e-12


def test_sequence_nll_impossible_cases():
    spec = parse_grammar(TINY)
    assert sequence_nll_tokens(spec, 0, ["f", "c", "a"]) == math.inf
    assert sequence_nll_tokens(spec, 0, ["g", "h", PAD_TOKEN]) == math.inf  # tail not PAD
    assert sequence_nll_tokens(spec, 0, ["b", "c"]) == math.inf      # wrong length
    assert sequence_nll_tokens(spec, 9, ["b", "c", "f"]) == math.inf  # no such label


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_sequence_deterministic():
    spec = parse_grammar(TINY)
    a = [sample_sequence(spec, RngStream(3, "s", i)) for i in range(40)]
    b = [sample_sequence(spec, RngStream(3, "s", i)) for i in range(40)]
    assert a == b


def test_samples_are_always_scorable():
    spec = parse_grammar(TINY)
    for i in range(200):
        label, tokens = sample_sequence(spec, RngStream(4, i))
        padded = tokens + [PAD_TOKEN] * (spec.seq_len - len(tokens))
        assert math.isfinite(sequence_nll_tokens(spec, label, padded))


# ---------------------------------------------------------------------------
# formatting roundtrip
# ---------------------------------------------------------------------------


def test_format_parse_roundtrip():
    spec = parse_grammar(TINY)
    text = format_grammar(spec)
    again = parse_grammar(text)
    assert again.seq_len == spec.seq_len
    assert again.priors == spec.priors
    for label in spec.label_ids():
        assert abs(again.label_entropy(label) - spec.label_entropy(label)) < 1e-12
    assert format_grammar(again) == text


# ---------------------------------------------------------------------------
# shipped presets
# ---------------------------------------------------------------------------


def test_overlapping_preset_entropy_constant():
    spec = overlapping_preset()
    expected = math.log(2) + 10 * math.log(3)
    for label in (0, 1):
        assert abs(spec.label_entropy(label) - expected) < 1e-12
    assert abs(spec.conditional_entropy() - expected) < 1e-12


def test_overlapping_preset_has_constant_sequence_nll():
    # every template mixes equal-entropy slots, so -log p(x|y) is flat
    spec = overlapping_preset()
    h = spec.conditional_entropy()
    for i in range(25):
        label, tokens = sample_sequence(spec, RngStream(8, i))
        assert abs(sequence_nll_tokens(spec, label, tokens) - h) < 1e-9


def test_separable_preset_entropy_constant():
    spec = separable_preset()
    expected = 1.5 * math.log(2) + 4 * math.log(3) + 3.5 * math.log(4)
    assert abs(spec.conditional_entropy() - expected) < 1e-12
    assert spec.separable


def test_separable_preset_labels_have_exclusive_markers():
    spec = separable_preset()
    ex0 = spec.exclusive_tokens(0)
    ex1 = spec.exclusive_tokens(1)
    assert "cough" in ex0 and "fracture" in ex1
    assert not (ex0 & ex1)


def test_presets_reject_short_sequences():
    with pytest.raises(GrammarError, match="seq_len"):
        overlapping_preset(8)
    with pytest.raises(GrammarError, match="seq_len"):
        separable_preset(12)

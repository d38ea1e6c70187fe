"""Grammar parsing, validation, exact entropy, and the shipped presets."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advseq.corpus import PAD_ID, Vocab, decode_sequence, generate_corpus
from advseq.grammar import (PAD_TOKEN, GrammarError, GrammarSpec, Slot, Template,
                            format_grammar, overlapping_preset,
                            parse_grammar, sample_rows, separable_preset,
                            uniform_slot)
from advseq.numerics import RngStream
from oracles import sample_sequence, sequence_nll_tokens

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


def token_ids(spec: GrammarSpec) -> dict[str, int]:
    return Vocab.from_tokens(spec.token_set()).token_to_id


def oracle_rows(spec: GrammarSpec, u: np.ndarray) -> tuple[list[int], np.ndarray]:
    """`sample_rows` rebuilt from the per-row oracle, one row at a time."""
    token_id = token_ids(spec)
    labels, ids = [], np.full((len(u), spec.seq_len), PAD_ID)
    for i, row in enumerate(u):
        label, tokens = sample_sequence(spec, row)
        labels.append(label)
        ids[i, :len(tokens)] = [token_id[tok] for tok in tokens]
    return labels, ids


def test_sample_sequence_deterministic():
    # each row depends on its own uniforms alone
    spec = parse_grammar(TINY)
    u = RngStream(3, "s").uniform((40, 2 + spec.seq_len))
    labels, ids = sample_rows(spec, u, token_ids(spec))
    again = sample_rows(spec, u.copy(), token_ids(spec))
    assert np.array_equal(labels, again[0]) and np.array_equal(ids, again[1])
    for i in range(len(u)):
        one = sample_rows(spec, u[i:i + 1], token_ids(spec))
        assert one[0][0] == labels[i] and np.array_equal(one[1][0], ids[i])


def test_samples_are_always_scorable():
    spec = parse_grammar(TINY)
    data, vocab = generate_corpus(spec, 200, RngStream(4))
    for label, ids in zip(data.labels, data.tokens):
        tokens = decode_sequence(ids, vocab)
        assert math.isfinite(sequence_nll_tokens(spec, int(label), tokens))


def test_sample_rows_clamps_a_label_draw_past_priors_that_sum_below_1():
    # three priors of 0.3333333333 sum to 1 - 1e-10, inside PROB_TOL, so a
    # uniform just below 1 lies past the cumulative table's last entry
    text = "seq_len = 2\n" + "".join(
        f"[label {lb}]\nprior = 0.3333333333\n[template weight = 1.0]\nslot = t{lb}\n"
        for lb in range(3))
    spec = parse_grammar(text)
    u = np.full((1, 2 + spec.seq_len), 0.5)
    u[0, 0] = np.nextafter(1.0, 0.0)
    labels, ids = sample_rows(spec, u, token_ids(spec))
    assert labels.tolist() == [2] == oracle_rows(spec, u)[0]
    assert ids.tolist() == [[token_ids(spec)["t2"], PAD_ID]]


def normalized(draw, n: int) -> list[float]:
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return [w / sum(weights) for w in weights]


@st.composite
def grammars(draw) -> GrammarSpec:
    """1-3 labels with or without priors, 1-3 templates each, up to seq_len
    slots per template over a small shared pool, uniform or weighted."""
    seq_len = draw(st.integers(1, 5))
    pool = [f"w{i}" for i in range(6)]
    labels = {}
    for label in range(draw(st.integers(1, 3))):
        n_templates = draw(st.integers(1, 3))
        templates = []
        for weight in normalized(draw, n_templates):
            slots = []
            for _ in range(draw(st.integers(1, seq_len))):
                tokens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                                       unique=True))
                probs = (np.array(normalized(draw, len(tokens))) if draw(st.booleans())
                         else np.full(len(tokens), 1.0 / len(tokens)))
                slots.append(Slot(tuple(tokens), probs))
            templates.append(Template(weight, slots))
        labels[label] = templates
    priors = {}
    if draw(st.booleans()):
        # ten digits, as a grammar file might give them: may sum just below 1
        priors = dict(enumerate(round(p, 10) for p in normalized(draw, len(labels))))
    spec = GrammarSpec(seq_len=seq_len, labels=labels, separable=False, priors=priors)
    spec.validate()
    return spec


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sample_rows_match_the_per_row_oracle(data):
    spec = data.draw(grammars())
    # every cumulative table's entries below 1, where side="right" matters
    edges = {0.0, float(np.nextafter(1.0, 0.0))}
    edges.update(np.cumsum([spec.label_prior(lb) for lb in spec.label_ids()]))
    for templates in spec.labels.values():
        edges.update(np.cumsum([t.weight for t in templates]))
        for t in templates:
            for slot in t.slots:
                edges.update(np.cumsum(slot.probs))
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                        st.sampled_from(sorted(e for e in edges if e < 1.0)))
    n = data.draw(st.integers(1, 12))
    u = np.array(data.draw(st.lists(uniform, min_size=n * (2 + spec.seq_len),
                                    max_size=n * (2 + spec.seq_len)))
                 ).reshape(n, 2 + spec.seq_len)
    labels, ids = sample_rows(spec, u, token_ids(spec))
    expected_labels, expected_ids = oracle_rows(spec, u)
    assert labels.tolist() == expected_labels
    assert np.array_equal(ids, expected_ids)


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
    data, vocab = generate_corpus(spec, 25, RngStream(8))
    for label, ids in zip(data.labels, data.tokens):
        tokens = decode_sequence(ids, vocab)
        assert abs(sequence_nll_tokens(spec, int(label), tokens) - h) < 1e-9


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

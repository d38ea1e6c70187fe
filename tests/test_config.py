"""Configuration: precedence, schema typing, canonical text, digest scope."""

import os

import pytest

from advseq.adversarial import TrainSchedule
from advseq.config import (ConfigError, canonical_text, config_digest, make_config,
                           parse_config_text, view)
from advseq.discriminators import DiscriminatorConfig
from advseq.generator import GeneratorDims


def base(*pairs):
    return make_config("desk", None, ["run.seed=7", *pairs])


def test_defaults_resolve():
    cfg = base()
    assert cfg["run.seed"] == 7
    assert cfg["corpus.n"] == 2000
    assert cfg["corpus.grammar"] == "overlapping"
    assert cfg["adv.alpha"] == 0.8
    assert cfg["corpus.split"] == (0.7, 0.1, 0.2)
    assert cfg["adv.baseline"] is True


def test_seed_is_required():
    with pytest.raises(ConfigError, match="run.seed"):
        make_config("desk", None, [])


def test_precedence_preset_file_set():
    assert make_config("full", None, ["run.seed=1"])["corpus.n"] == 2216
    assert make_config("full", "corpus.n = 500", ["run.seed=1"])["corpus.n"] == 500
    got = make_config("full", "corpus.n = 500", ["run.seed=1", "corpus.n=100"])
    assert got["corpus.n"] == 100


def test_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        make_config("huge", None, ["run.seed=1"])


def test_parse_text_comments_and_line_numbers():
    text = "# top comment\ncorpus.n = 50  # inline\n\nbogus.key = 1\n"
    with pytest.raises(ConfigError, match="line 4.*bogus.key"):
        parse_config_text(text)
    assert parse_config_text("# only comments\n\n") == {}


def test_parse_text_shape_and_value_errors():
    with pytest.raises(ConfigError, match="line 1.*key = value"):
        parse_config_text("corpus.n 50")
    with pytest.raises(ConfigError, match="bad value for corpus.n"):
        parse_config_text("corpus.n = lots")
    with pytest.raises(ConfigError, match="bad value for adv.baseline"):
        parse_config_text("adv.baseline = yes")


def test_set_pair_needs_equals():
    with pytest.raises(ConfigError, match="--set"):
        make_config("desk", None, ["run.seed"])


@pytest.mark.parametrize("pair,needle", [
    ("disc.kind=transformer", "disc.kind"),
    ("adv.rescale=softmax", "adv.rescale"),
    ("adv.alpha=1.5", "alpha"),
    ("corpus.n=0", "positive"),
    ("corpus.seq_len=3", "corpus.seq_len must be at least 4"),
    ("corpus.split=0.5,0.5", "corpus.split"),
    ("corpus.split=0.5,0.4,0.2", "corpus.split"),
    ("adv.g_steps=0", "adv.g_steps"),
    ("adv.d_steps=0", "adv.d_steps"),
    ("adv.delta=0", "adv.delta"),
    ("adv.iterations=-1", "adv.iterations"),
    ("adv.rollouts=0", "adv.rollouts"),
    ("model.d_embed=0", "model.d_embed must be positive"),
    ("model.d_hidden=0", "model.d_hidden must be positive"),
    ("model.d_label=0", "model.d_label must be positive"),
    ("disc.d_embed=0", "disc.d_embed must be positive"),
    ("disc.d_hidden=0", "disc.d_hidden must be positive"),
    ("disc.n_filters=0", "disc.n_filters must be positive"),
    ("disc.n_buckets=0", "disc.n_buckets must be positive"),
    ("embed.window=-1", "embed.window must be positive"),
    ("disc.dropout=1.0", r"disc.dropout must lie in \[0, 1\)"),
    ("disc.dropout=-0.1", r"disc.dropout must lie in \[0, 1\)"),
    ("embed.negatives=-1", "embed.negatives must be >= 0"),
    ("embed.epochs=-1", "embed.epochs must be >= 0"),
    ("embed.lr=0", "embed.lr must be finite and positive"),
    ("embed.lr=-0.1", "embed.lr must be finite and positive"),
    ("embed.lr=nan", "embed.lr must be finite and positive"),
    ("embed.lr=inf", "embed.lr must be finite and positive"),
    ("pretrain.g_lr=-1e-3", "pretrain.g_lr must be finite and >= 0"),
    ("pretrain.d_lr=inf", "pretrain.d_lr must be finite and >= 0"),
    ("adv.g_lr=-1e-4", "adv.g_lr must be finite and >= 0"),
    ("adv.d_lr=nan", "adv.d_lr must be finite and >= 0"),
    ("adv.clip=-1", "adv.clip must be finite and positive"),
    ("adv.clip=0", "adv.clip must be finite and positive"),
    ("adv.clip=nan", "adv.clip must be finite and positive"),
    ("adv.clip=inf", "adv.clip must be finite and positive"),
    # validation only: no thread is started
    pytest.param(f"run.threads={(os.cpu_count() or 1) + 1}", "run.threads must be at most",
                 id="run.threads-above-cpu-count"),
])
def test_validation_rejections(pair, needle):
    with pytest.raises(ConfigError, match=needle):
        base(pair)


def test_embed_zero_negatives_and_epochs_are_valid():
    cfg = base("embed.negatives=0", "embed.epochs=0", "adv.iterations=0")
    assert cfg["embed.negatives"] == 0 and cfg["embed.epochs"] == 0
    assert cfg["adv.iterations"] == 0  # an explicit no-op adversarial run


def test_typed_views_reflect_overrides():
    cfg = base("model.d_hidden=48", "adv.rollouts=4", "disc.dropout=0.3", "disc.kind=birnn",
               "eval.epochs=9", "pretrain.d_epochs_cnn=17")
    dims = view(cfg, GeneratorDims, vocab_size=30, n_labels=2)
    assert dims.vocab_size == 30 and dims.d_hidden == 48 and dims.d_label == 8
    sched = view(cfg, TrainSchedule)
    assert sched.rollouts == 4 and sched.alpha == 0.8 and sched.baseline is True
    disc = view(cfg, DiscriminatorConfig, vocab_size=30, n_labels=2, use_condition=True, n_out=1)
    assert disc.kind == "birnn" and disc.dropout == 0.3 and disc.l2 == 0.1
    assert disc.widths == (2, 3, 4)  # no setting: the field's default
    assert cfg["eval.epochs"] == 9
    assert cfg["pretrain.d_epochs_cnn"] == 17
    assert cfg["pretrain.d_epochs_fasttext"] == 30


def test_a_given_field_overrides_its_setting():
    # eval's evaluator is a cnn whatever disc.kind says
    cfg = base("disc.kind=fasttext", "disc.n_filters=5", "adv.rollouts=4")
    disc = view(cfg, DiscriminatorConfig, kind="cnn", vocab_size=30, n_labels=2,
                use_condition=False, n_out=3, widths=(2,))
    assert (disc.kind, disc.n_filters, disc.use_condition, disc.n_out, disc.widths) == \
        ("cnn", 5, False, 3, (2,))
    assert view(cfg, TrainSchedule, rollouts=9).rollouts == 9
    assert cfg["disc.kind"] == "fasttext" and cfg["adv.rollouts"] == 4  # the config is not touched


def test_canonical_text_is_stable_and_parseable():
    via_set = base()
    via_file = make_config("desk", "run.seed = 7", [])
    text = canonical_text(via_set)
    assert text == canonical_text(via_file)
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert "run.seed = 7" in lines
    assert "corpus.split = 0.7,0.1,0.2" in lines
    assert "adv.baseline = true" in lines
    # a canonical dump feeds back in as a config file without drift
    again = make_config("desk", text, [])
    assert canonical_text(again) == text


def _digest(cfg: dict, vocab=30, labels=2):
    return config_digest(cfg, vocab, labels)


def test_digest_covers_model_shaping_keys():
    ref = _digest(base())
    assert len(ref) == 32
    assert _digest(base()) == ref
    for pair in ("run.seed=8", "corpus.n=999", "corpus.grammar=separable",
                 "model.d_embed=16", "disc.n_filters=8", "embed.window=3"):
        assert _digest(base(pair)) != ref, pair
    assert _digest(base(), vocab=31) != ref
    assert _digest(base(), labels=3) != ref


def test_digest_ignores_schedule_and_threads():
    ref = _digest(base())
    for pair in ("adv.iterations=99", "pretrain.g_epochs=5", "eval.epochs=2",
                 "run.threads=2", "adv.g_lr=0.01", "eval.seeds=1"):
        assert _digest(base(pair)) == ref, pair

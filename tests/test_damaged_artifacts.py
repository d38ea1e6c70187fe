"""Damaged run artifacts and boundary settings end in a documented exit
code, never a traceback.

One small run directory is built per module and copied for each example.
Each artifact kind is truncated, has one bit flipped or has one byte
overwritten, and the command that reads it runs through `cli.main`: only
exits 0, 2 (usage), 3 (numeric) and 4 (corrupt artifact) may occur. A
checkpoint also gets one block rewritten under its own digest, so its
checksum stays valid and only the reader's checks of stored values apply.
A config key set to a boundary value must be refused by `corpus-gen` with
exit 2 exactly when the value does not parse or lies outside the key's
`SCHEMA` domain; a run it accepts goes through the pipeline without a
traceback.
"""

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advseq.checkpoint import load_tensors, save_tensors
from advseq.cli import main
from advseq.config import SCHEMA

from test_cli import FAST, SEED

# artifact -> the command that reads it
READERS = {
    "gen_pretrain.ckpt": ("pretrain-g", "--resume", "--set", "pretrain.g_epochs=3"),
    "disc_fasttext.ckpt": ("pretrain-d", "--resume", "--set", "pretrain.d_epochs_fasttext=3"),
    "advtrain.ckpt": ("advtrain", "--resume", "--set", "adv.iterations=5"),
    "gen_adv.ckpt": ("sample", "--n", "2"),
    "vocab.txt": ("sample", "--n", "2"),
    "corpus_train.txt": ("pretrain-g", "--resume", "--set", "pretrain.g_epochs=3"),
    "grammar.txt": ("eval", "--tier", "micro"),
    "gen_pretrain_log.csv": ("pretrain-g", "--resume", "--set", "pretrain.g_epochs=3"),
    "advtrain_metrics.csv": ("advtrain", "--resume", "--set", "adv.iterations=5"),
    "config.txt": ("sample", "--n", "2"),
}
DOCUMENTED_EXITS = {0, 2, 3, 4}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("damage") / "run")
    for argv in (("corpus-gen", *SEED, *FAST), ("pretrain-g",), ("pretrain-d",),
                 ("advtrain",)):
        assert main([argv[0], "--run-dir", d, *argv[1:]]) == 0
    return d


def damage(path: str, data) -> None:
    """Truncate, flip one bit or overwrite one byte, as hypothesis draws;
    config.txt is only truncated or bit-flipped."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    kinds = ["truncate", "flip"] + ([] if path.endswith("config.txt") else ["overwrite"])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    if kind == "truncate":
        del blob[pos:]
    elif kind == "flip":
        blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    else:
        blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]),
                              label="byte")
    with open(path, "wb") as fh:
        fh.write(blob)


def run_damaged(run_dir: str, artifact: str, damage_fn) -> tuple[int, str]:
    """Exit code and stderr of the command that reads `artifact`, run on a
    copy of `run_dir` in which `damage_fn(path)` has damaged it."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "run")
        shutil.copytree(run_dir, d)
        damage_fn(os.path.join(d, artifact))
        argv = READERS[artifact]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--run-dir", d, *argv[1:]])  # anything raised fails
    return code, err.getvalue()


@pytest.mark.parametrize("artifact", list(READERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_artifact_ends_in_a_documented_exit(run_dir, artifact, data):
    code, err = run_damaged(run_dir, artifact, lambda path: damage(path, data))
    assert code in DOCUMENTED_EXITS, (code, err)


# checkpoint -> its blocks that hold counts, dims, Adam moments or the frozen table
STORED_VALUES = {
    "gen_pretrain.ckpt": ("meta.epoch", "meta.dims", "gopt.t", "gopt.m.gen.out.b",
                          "gopt.v.gen.out.b"),
    "disc_fasttext.ckpt": ("embed.table", "dopt.t", "meta.epoch", "dopt.m.d.head.W",
                           "dopt.v.d.head.W"),
    "advtrain.ckpt": ("meta.dims", "embed.table", "gopt.t", "dopt.t", "meta.iteration"),
    "gen_adv.ckpt": ("meta.dims",),
}
# no mid-sized dims: a reader that sized arrays from them would allocate
# gigabytes before it failed
BAD_VALUES = (math.nan, math.inf, -1.0, 0.5, 1e12, "wrong shape")


CASES = [(artifact, block, value) for artifact, blocks in STORED_VALUES.items()
         for block in blocks for value in BAD_VALUES]


# more examples than cases, so that hypothesis runs every case once
@settings(max_examples=len(CASES) + 10, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES))
def test_bad_block_under_a_valid_checksum_ends_in_a_documented_exit(run_dir, case):
    # the file's own digest is kept, so only the reader's checks of each
    # stored value stand between it and a traceback
    artifact, name, value = case

    def rewrite(path: str) -> None:
        blocks, digest = load_tensors(path)
        block = blocks[name]
        blocks[name] = (np.append(block, block[:, :1], axis=1) if value == "wrong shape"
                        else np.full_like(block, value))
        save_tensors(path, blocks, digest)

    code, err = run_damaged(run_dir, artifact, rewrite)
    # of BAD_VALUES a count takes only 1e12 (whole and >= 0), the table and
    # a first moment any finite one and a second moment any finite one >= 0
    if name == "embed.table" or ".m." in name:
        takes = math.isfinite
    elif ".v." in name:
        takes = lambda v: math.isfinite(v) and v >= 0
    else:
        takes = lambda v: v == 1e12
    refused = value == "wrong shape" or name == "meta.dims" or not takes(value)
    assert code == 4 if refused else code in DOCUMENTED_EXITS, (code, err)
    if refused:
        assert name in err, err



# every key is set to each of these; run.seed also to the edges of its
# 64-bit range. No large in-domain size is drawn, as a huge corpus.n would
# run for ever
BOUNDARY = ("0", "-1", "nan", "inf", "1e308", "many")
CONFIG_CASES = [(key, raw) for key in SCHEMA
            for raw in BOUNDARY + ((str(2**63), str(-2**63)) if key == "run.seed" else ())]
PIPELINE = (("pretrain-g",), ("pretrain-d",), ("advtrain",), ("eval", "--tier", "micro"))


def refuses(key: str, raw: str) -> bool:
    """Whether `key = raw` fails to parse or lies outside the key's domain;
    no grammar file or preset has any of BOUNDARY's names."""
    parse, _, domain = SCHEMA[key]
    try:
        return key == "corpus.grammar" or not domain.accepts(parse(raw))
    except ValueError:
        return True


# more examples than cases, so that hypothesis runs every case once
@settings(max_examples=len(CONFIG_CASES) + 10, deadline=None, derandomize=True)
@given(case=st.sampled_from(CONFIG_CASES))
def test_a_boundary_setting_is_refused_with_exit_2_or_runs(case):
    key, raw = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        d = os.path.join(tmp, "run")
        # the drawn pair comes last, so it overrides FAST and the seed
        code = main(["corpus-gen", "--run-dir", d, "--set", "run.seed=11", *FAST,
                     "--set", f"{key}={raw}"])  # anything raised fails
        assert code == (2 if refuses(key, raw) else 0), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().count("\n") == 1 and not os.path.exists(d), err.getvalue()
        else:
            for argv in PIPELINE:
                code = main([argv[0], "--run-dir", d, *argv[1:]])
                assert code in {0, 2, 3}, (argv, code, err.getvalue())

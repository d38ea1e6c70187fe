"""Damaged run artifacts end in a documented exit code, never a traceback.

One small run directory is built per module and copied for each example.
Each artifact kind is truncated, has one bit flipped or has one byte
overwritten, and the command that reads it runs through `cli.main`: only
exits 0, 2 (usage), 3 (numeric) and 4 (corrupt artifact) may occur.
"""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advseq.cli import main

from test_cli import FAST, SEED

# artifact -> the command that reads it
READERS = {
    "embeddings.ckpt": ("pretrain-d",),
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


@pytest.mark.parametrize("artifact", list(READERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_artifact_ends_in_a_documented_exit(run_dir, artifact, data):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "run")
        shutil.copytree(run_dir, d)
        damage(os.path.join(d, artifact), data)
        argv = READERS[artifact]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--run-dir", d, *argv[1:]])  # anything raised fails
    assert code in DOCUMENTED_EXITS, (code, err.getvalue())

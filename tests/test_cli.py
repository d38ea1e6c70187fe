"""Command line: run-dir lifecycle, exit codes, resumability, determinism."""

import argparse
import errno
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import advseq
from advseq import cli, evaluation
from advseq.checkpoint import load_tensors, save_tensors
from advseq.cli import main
from advseq.corpus import read_vocab
from oracles import parse_metrics_csv

SEED = ["--seed", "11"]
# scaled way down so a full pipeline runs in well under a second
FAST = []
for pair in ("corpus.n=60", "model.d_embed=8", "model.d_hidden=8",
             "model.d_label=2", "disc.kind=fasttext", "disc.d_embed=8",
             "disc.n_buckets=128", "embed.epochs=1", "pretrain.g_epochs=2",
             "pretrain.batch_size=16", "pretrain.d_epochs_fasttext=2",
             "adv.iterations=4", "adv.g_steps=1", "adv.d_steps=1",
             "adv.batch_size=8", "adv.rollouts=2", "eval.epochs=1",
             "eval.seeds=1", "eval.n_samples=8"):
    FAST += ["--set", pair]

CORPUS_FILES = ("config.txt", "grammar.txt", "vocab.txt", "corpus_train.txt",
                "corpus_valid.txt", "corpus_test.txt")


# sha256 of each file corpus-gen writes at --seed 3 --set corpus.n=400, as the
# per-row sampler wrote them; the table sampler must keep every byte
CORPUS_SHA256 = {
    "overlapping": {
        "config.txt": "a31ea2b68d40a2500aa96cfb7bf1b713c61063cad8907aa16ad99bf6129a71f5",
        "grammar.txt": "93dddca69120f48de201166ccc5f7ffa054d5cdcf76089895d6891eb7b33a916",
        "vocab.txt": "9452dea6fe8ae58204b0feaecbbb733ea4c309f30b7ee8028d5668c0d84be3a8",
        "corpus_train.txt": "b640da0dbd560442cdff235f59fb1b86dcc0bf639e4cfeb8ac91e9d2a7e4e477",
        "corpus_valid.txt": "6c243e6b43875a16089071a0918c10692dc86dc41f3459ecf682b448af59f4e4",
        "corpus_test.txt": "0d5b525ee42a209f5799ba7cf56797adf3f8f944d30a314e017095f47fcb831d",
    },
    "separable": {
        "config.txt": "443e940bbf55178c53d95d184489a2fc38821e2bad8d67f017b5c9f82d052442",
        "grammar.txt": "cfb6390a44b495197eaa2d43e60612461a56497e7037a285917b7068947fb1ba",
        "vocab.txt": "a3f4a57437c6fa50e8c60816b892a9e8877b3b69c9e9e0ce2b3b8beb8fccb7b5",
        "corpus_train.txt": "0db7bd09ab3bc57c4dbadb2de52728633c1b02c503ade1cb14012f5e9c57ad1f",
        "corpus_valid.txt": "62e8f13e89e712ebfa21c407e3c3b250c5df5bb00106d391abd813328b408ba1",
        "corpus_test.txt": "c44c7b230ac45043d00f1ec6f6c9086a5d29a0c84c4ac16c788fff0c52fb271b",
    },
    "full": {
        "config.txt": "89882f7298606cbc72645de93576224fe40a687df49dcda861d9e6240321e252",
        "grammar.txt": "2c3884cb3966266505604b3fe1f122fe167697430bae752e60802a616079e9ac",
        "vocab.txt": "716242da9ee6ad9f15285761b6d0f4256ea54d90e21541160669ca52de23d3b4",
        "corpus_train.txt": "a46bde5b54f628d353c73ef3ebbd97e34fbd30765555b978c7f2f97ae96da248",
        "corpus_valid.txt": "2e96e4a9fc575bb75b0dcb105647d88d80bf180202e57ca66de7db4edc23bbc1",
        "corpus_test.txt": "0b2c562e84966345f4a2188898deb37f1ad6060dd7fac17bebcfd5a8feb859c7",
    },
    "file": {
        "config.txt": "80daa982d2ca6fb94f97ab4a221dc83d365d1494a309103f6fb9bd7f0c3f1aab",
        "grammar.txt": "09f079017f0a23ac1f00975deb94d7036342b4e2d63c41a78e36edd1eca07430",
        "vocab.txt": "6e2f5b2d6a9426a4e1ad22a4bb300e5778e8485a2d2bb8134ecc2c53db9a9495",
        "corpus_train.txt": "f126654f712c2f07b612bee88949f3dcba54173a09340d30860c3395f2672fb2",
        "corpus_valid.txt": "5620c32b444eab92d9c8fd97d4e4d1597102a6f21373938b563d743fbce99f46",
        "corpus_test.txt": "a7dfd99f14c9986251ccbffe3843e6608c1a8f7bedf2136f2b718d3aecfd0973",
    },
}

PINNED_GRAMMAR = """\
seq_len = 8

[label 0]
prior = 0.3
[template weight = 0.75]
slot = go 0.2 | stay 0.8
slot = left | right | back | up
slot = now 0.1 | later 0.3 | soon 0.6
[template weight = 0.25]
slot = wait
slot = now 0.6 | later 0.4
slot = here | there | near
slot = left 0.5 | back 0.5
slot = stop

[label 1]
prior = 0.7
[template weight = 0.4]
slot = go | wait | stay
slot = here 0.1 | there 0.9
slot = now
slot = up | down | left | right | back
slot = soon 0.25 | later 0.75
slot = stop | go
[template weight = 0.6]
slot = near | far
slot = up 0.7 | down 0.3
"""


def run(*argv) -> int:
    return main(list(argv))


def read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def csv_rows(path) -> list[dict]:
    lines = read(path).strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def drop_wall(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in rows]


def lock_is_free(run_dir) -> bool:
    """Whether a command could take <run>/.lock now (no live holder)."""
    with open(os.path.join(run_dir, ".lock"), "ab") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
        return True


def child_env() -> dict:
    """This environment, with the tested advseq first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(advseq.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """One corpus-gen + pretrain-g + pretrain-d run, copied per test."""
    d = str(tmp_path_factory.mktemp("pre") / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    assert run("pretrain-d", "--run-dir", d) == 0
    return d


@pytest.fixture(scope="module")
def trained(pretrained, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("adv") / "run")
    shutil.copytree(pretrained, d)
    assert run("advtrain", "--run-dir", d) == 0
    return d


# ---------------------------------------------------------------------------
# corpus-gen
# ---------------------------------------------------------------------------


def test_corpus_gen_materializes_run(tmp_path, capsys):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    for name in CORPUS_FILES:
        assert os.path.exists(os.path.join(d, name)), name
    assert os.path.getsize(os.path.join(d, ".lock")) == 0  # kept, and empty
    assert lock_is_free(d)
    out = capsys.readouterr().out
    assert "corpus:" in out and "entropy" in out
    pinned = read(os.path.join(d, "config.txt"))
    assert "run.seed = 11" in pinned
    assert "corpus.n = 60" in pinned  # overrides are pinned for later commands


def test_corpus_gen_is_deterministic(tmp_path):
    a, b, c = (str(tmp_path / x) for x in "abc")
    assert run("corpus-gen", "--run-dir", a, *SEED, *FAST) == 0
    assert run("corpus-gen", "--run-dir", b, *SEED, *FAST) == 0
    assert run("corpus-gen", "--run-dir", c, "--seed", "12", *FAST) == 0
    for name in CORPUS_FILES:
        assert read(os.path.join(a, name)) == read(os.path.join(b, name)), name
    assert read(os.path.join(a, "corpus_train.txt")) != \
           read(os.path.join(c, "corpus_train.txt"))


@pytest.mark.parametrize("case,extra", [
    ("overlapping", ("--set", "corpus.grammar=overlapping")),
    ("separable", ("--set", "corpus.grammar=separable")),
    ("full", ("--preset", "full")),
    ("file", ("--set", "corpus.grammar=grammar_in.txt")),
])
def test_corpus_gen_keeps_its_pinned_bytes(tmp_path, monkeypatch, case, extra):
    # the file grammar has priors, weighted slots and templates shorter
    # than seq_len; its path is relative, as config.txt pins it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grammar_in.txt").write_text(PINNED_GRAMMAR)
    assert run("corpus-gen", "--run-dir", "run", "--seed", "3", "--set", "corpus.n=400",
               *extra) == 0
    for name in CORPUS_FILES:
        digest = hashlib.sha256(read_bytes(os.path.join("run", name))).hexdigest()
        assert digest == CORPUS_SHA256[case][name], name


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_corpus_gen_interrupted_at_any_write_reruns_to_the_same_bytes(
        tmp_path, capsys, monkeypatch, call):
    # corpus_train.txt comes last, so a run stopped at any file's write
    # leaves a directory that a rerun accepts
    straight = str(tmp_path / "straight")
    assert run("corpus-gen", "--run-dir", straight, *SEED, *FAST) == 0
    real = getattr(os, call)
    for k in range(len(CORPUS_FILES)):
        d, calls = str(tmp_path / f"cut{k}"), []

        def cut(*args):
            calls.append(args)
            if len(calls) == k + 1:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(os, call, cut)
        assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == cli.EXIT_INTERRUPTED
        monkeypatch.setattr(os, call, real)
        left = sorted(os.listdir(d))
        assert not any(name.endswith(".tmp") for name in left), left
        assert "corpus_train.txt" not in left and lock_is_free(d), left
        assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
        for name in CORPUS_FILES:
            assert read_bytes(os.path.join(d, name)) == \
                   read_bytes(os.path.join(straight, name)), (k, name)
    capsys.readouterr()


def test_corpus_gen_refuses_existing(tmp_path, capsys):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 2
    assert "already exists" in capsys.readouterr().err


def test_a_corpus_gen_started_during_another_leaves_one_run(tmp_path, capsys, monkeypatch):
    # the second starts while the first generates its corpus: one of them
    # exits 0 and the run on disk is its run, the other is refused
    d = str(tmp_path / "run")
    real, codes = cli.generate_corpus, {}

    def generate(*args):
        if not codes:  # the first run's call starts the second; the second's does not
            codes["12"] = None
            codes["12"] = run("corpus-gen", "--run-dir", d, "--seed", "12", *FAST)
        return real(*args)

    monkeypatch.setattr(cli, "generate_corpus", generate)
    codes["11"] = run("corpus-gen", "--run-dir", d, *SEED, *FAST)
    assert sorted(codes.values()) == [0, 2], codes
    winner = next(seed for seed, code in codes.items() if code == 0)
    assert f"run.seed = {winner}\n" in read(os.path.join(d, "config.txt"))
    capsys.readouterr()


def test_corpus_gen_env_var_run_dir(tmp_path, monkeypatch):
    d = str(tmp_path / "from_env")
    monkeypatch.setenv("ADVSEQ_RUN_DIR", d)
    assert run("corpus-gen", *SEED, *FAST) == 0
    assert os.path.exists(os.path.join(d, "vocab.txt"))


def test_bad_grammar_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.grammar"
    bad.write_text("separable = false\nseq_len = 20\n\nslot = a | b\n")
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED,
               "--set", f"corpus.grammar={bad}") == 2
    assert "line" in capsys.readouterr().err


def test_grammar_file_longer_than_seq_len_exit_2(tmp_path, capsys):
    # 26 slots under the default corpus.seq_len = 20: every later read would
    # cut the rows to 20 tokens
    long = tmp_path / "long.grammar"
    slots = "".join(f"slot = w{i}\n" for i in range(26))
    long.write_text(f"seq_len = 30\n[label 0]\n[template weight = 1.0]\n{slots}")
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, "--set", f"corpus.grammar={long}") == 2
    assert "seq_len = 30, longer than corpus.seq_len = 20" in capsys.readouterr().err
    assert not os.path.exists(d)  # nothing created


def test_empty_split_exit_2(tmp_path, capsys):
    # every later command would refuse the run for a split with no rows
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, "--seed", "1", "--set", "corpus.n=200",
               "--set", "corpus.split=0.9,0.1,0.0") == 2
    assert "leaves the test split empty" in capsys.readouterr().err
    assert not os.path.exists(d)  # nothing created


def test_seq_len_below_cnn_filter_width_exit_2(tmp_path, capsys):
    # the cnn evaluator of eval's macro tier has filters of width 4, so
    # pretrain-d and eval would end in a raw ValueError
    short = tmp_path / "short.grammar"
    slots = "slot = a | b | c | d\n" * 3
    short.write_text(f"seq_len = 3\n[label 0]\n[template weight = 1.0]\n{slots}"
                     f"[label 1]\n[template weight = 1.0]\n{slots}")
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, "--set", f"corpus.grammar={short}",
               "--set", "corpus.seq_len=3") == 2
    assert "corpus.seq_len must be at least 4" in capsys.readouterr().err
    assert not os.path.exists(d)  # nothing created


def test_missing_grammar_file_exit_2(tmp_path, capsys):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED,
               "--set", "corpus.grammar=/no/such/file") == 2
    assert "cannot read grammar" in capsys.readouterr().err


def test_more_threads_than_cpus_exit_2(tmp_path, capsys):
    # refused by validation before any worker starts
    d = str(tmp_path / "run")
    too_many = str((os.cpu_count() or 1) + 1)
    assert run("corpus-gen", "--run-dir", d, *SEED, "--set", f"run.threads={too_many}") == 2
    assert "run.threads must be at most" in capsys.readouterr().err
    assert not os.path.exists(d)


def test_a_refused_corpus_gen_leaves_an_existing_run_dir_as_it_was(tmp_path, capsys):
    d = tmp_path / "run"
    d.mkdir()
    assert run("corpus-gen", "--run-dir", str(d), *SEED, "--set", "corpus.split=nan,0.5,0.5") == 2
    assert "corpus.split must be three finite fractions" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_unknown_config_key_exit_2(tmp_path, capsys):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, "--set", "bogus=1") == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["empty", "dead_pid", "garbage"])
def test_a_leftover_lock_never_blocks(tmp_path, content):
    # only a live holder of the flock blocks, whatever the file holds
    d = str(tmp_path / "run")
    os.makedirs(d)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)  # reaped, so its pid names no live process
    with open(os.path.join(d, ".lock"), "w") as fh:
        fh.write({"empty": "", "dead_pid": f"{child.pid}\n", "garbage": "x\0y"}[content])
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    assert os.path.exists(os.path.join(d, "gen_pretrain.ckpt"))
    assert lock_is_free(d)


HOLD_LOCK = """
import fcntl, sys, time
fh = open(sys.argv[1], "a")
fcntl.flock(fh, fcntl.LOCK_EX)
print("held", flush=True)
time.sleep(600)
"""


def test_lock_of_a_live_process_still_blocks(tmp_path, capsys):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    lock = os.path.join(d, ".lock")
    child = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, lock], stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline() == b"held\n"
        capsys.readouterr()
        assert run("pretrain-g", "--run-dir", d) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "locked" in err and lock in err, err
        assert not os.path.exists(os.path.join(d, "gen_pretrain.ckpt"))
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
    assert run("pretrain-g", "--run-dir", d) == 0  # the kernel dropped the killed child's lock


def test_a_held_lock_refuses_a_second_taker(tmp_path):
    # flock locks belong to an open file, so a second open in the same
    # process is refused just as another process would be
    paths = cli.RunPaths(str(tmp_path))
    with cli.run_lock(paths):
        assert not lock_is_free(tmp_path)
        with pytest.raises(cli.CliError, match="locked"):
            with cli.run_lock(paths):
                pass
    assert lock_is_free(tmp_path)


@pytest.mark.parametrize("fault", ["ENOLCK", "interrupt"])
def test_a_failed_or_interrupted_lock_leaves_a_run_a_rerun_accepts(tmp_path, capsys,
                                                                    monkeypatch, fault):
    # taking the lock writes nothing, so a failure or a Ctrl-C there leaves
    # no state behind; an OSError names the lock as write_atomic names its file
    d = str(tmp_path / "run")

    def flock(*args):
        if fault == "interrupt":
            raise KeyboardInterrupt
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    with monkeypatch.context() as patch:
        patch.setattr(fcntl, "flock", flock)
        code = run("corpus-gen", "--run-dir", d, *SEED, *FAST)
    err = capsys.readouterr().err
    if fault == "interrupt":
        assert code == cli.EXIT_INTERRUPTED
    else:
        assert code == 2
        assert err == f"error: {os.path.join(d, '.lock')}: {os.strerror(errno.ENOLCK)}\n"
    assert lock_is_free(d)
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0


# ---------------------------------------------------------------------------
# Prerequisites and artifact guards
# ---------------------------------------------------------------------------


def option_strings() -> dict[str, list[str]]:
    """Each subcommand's option strings, from `cli.build_parser()`, save -h."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in subs.choices.items()}


def test_each_command_takes_only_the_flags_it_acts_on():
    # --config, --preset and --seed are pinned by corpus-gen, so a later one
    # does nothing, trains another model or changes the digest, and a later
    # --set overrides the pinned keys; run.threads is read by advtrain alone
    common = ["--run-dir", "--set"]
    assert option_strings() == {
        "corpus-gen": common + ["--config", "--preset", "--seed", "--threads"],
        "pretrain-g": common + ["--resume"],
        "pretrain-d": common + ["--resume"],
        "advtrain": common + ["--resume", "--threads"],
        "sample": common + ["--n", "--label", "--out", "--ckpt"],
        "eval": common + ["--tier", "--ckpt"],
    }


def test_a_later_config_file_cannot_replace_the_pinned_config(tmp_path, capsys):
    # only corpus-gen reads --config; a later one would train another model
    # than the run pinned, so it is refused before anything is written
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST, "--set", "model.d_hidden=16") == 0
    other = tmp_path / "f.txt"  # the pinned config without model.d_hidden
    other.write_text("".join(line for line in read(os.path.join(d, "config.txt")).splitlines(True)
                             if not line.startswith("model.d_hidden")))
    with pytest.raises(SystemExit) as exc:
        run("pretrain-g", "--run-dir", d, "--config", str(other))
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "gen_pretrain.ckpt"))


def test_missing_prerequisites_exit_2(tmp_path, capsys):
    # in an empty directory the corpus is checked before the config is
    # built, which would otherwise refuse the missing run.seed first
    d = str(tmp_path / "run")
    os.makedirs(d)
    for command in ("pretrain-g", "pretrain-d", "advtrain", "sample", "eval"):
        assert run(command, "--run-dir", d) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and \
               "`advseq corpus-gen`" in err, command
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    assert run("pretrain-d", "--run-dir", d) == 2
    assert "pretrain-g" in capsys.readouterr().err
    assert run("advtrain", "--run-dir", d) == 2
    assert "pretrain-d" in capsys.readouterr().err


def test_corrupt_checkpoint_exit_4(trained, tmp_path, capsys):
    d = str(tmp_path / "run")
    shutil.copytree(trained, d)
    ckpt = os.path.join(d, "gen_adv.ckpt")
    blob = bytearray(open(ckpt, "rb").read())
    blob[len(blob) // 2] ^= 0x10
    open(ckpt, "wb").write(bytes(blob))
    assert run("sample", "--run-dir", d, "--n", "2") == 4
    assert "artifact error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_missing_ckpt_path_exit_2(trained, tmp_path, capsys, command):
    # a mistyped --ckpt is a usage error, not a corrupt artifact
    nope = str(tmp_path / "nope.ckpt")
    assert run(command, "--run-dir", trained, "--ckpt", nope) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: missing {nope}") and "--ckpt" in err, err
    assert "pretrain-g" not in err  # which cannot write that path


def test_digest_mismatch_exit_2(trained, capsys):
    # a model-shaping override invalidates stored checkpoints
    assert run("sample", "--run-dir", trained, "--n", "2",
               "--set", "model.d_hidden=12") == 2
    assert "different configuration" in capsys.readouterr().err


def test_advtrain_refuses_rerun_without_resume(trained, capsys):
    assert run("advtrain", "--run-dir", trained) == 2
    assert "--resume" in capsys.readouterr().err


def test_advtrain_resume_nothing_to_do(trained, capsys):
    assert run("advtrain", "--run-dir", trained, "--resume") == 2
    assert "nothing to do" in capsys.readouterr().err


def test_invalid_adv_value_exit_2(pretrained, capsys):
    assert run("advtrain", "--run-dir", pretrained, "--set", "adv.g_steps=0") == 2
    err = capsys.readouterr().err
    assert err == "error: adv.g_steps must be positive, got 0\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command,setting,outputs", [
    ("pretrain-g", "pretrain.g_epochs=0", ("gen_pretrain.ckpt", "gen_pretrain_log.csv")),
    ("pretrain-d", "pretrain.d_epochs_fasttext=0",
     ("disc_fasttext.ckpt", "disc_fasttext_log.csv")),
])
def test_zero_epochs_is_nothing_to_do(pretrained, tmp_path, capsys, command, setting,
                                      outputs):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    for name in outputs:
        os.remove(os.path.join(d, name))
    before = sorted(os.listdir(d))
    assert run(command, "--run-dir", d, "--set", setting) == 2
    assert "nothing to do" in capsys.readouterr().err
    assert sorted(os.listdir(d)) == before  # nothing written


def test_unknown_tier_rejected(trained):
    with pytest.raises(SystemExit) as exc:
        run("eval", "--run-dir", trained, "--tier", "nano")
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["corpus_train.txt", "vocab.txt", "grammar.txt",
                                  "config.txt"])
def test_non_utf8_input_exit_2(pretrained, tmp_path, capsys, name):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    with open(os.path.join(d, name), "ab") as fh:
        fh.write(b"\xff\n")
    assert run("pretrain-g", "--run-dir", d) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("name,damage,needle", [
    ("corpus_train.txt", lambda text: "2" + text[1:], "label 2 is outside the grammar's 2"),
    ("corpus_valid.txt", lambda text: "", "no rows"),
], ids=["label", "empty"])
def test_unusable_corpus_split_exit_2(pretrained, tmp_path, capsys, name, damage, needle):
    # a label the generator has no row for, or an empty split, would end in
    # a raw IndexError or ZeroDivisionError during training
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    path = os.path.join(d, name)
    text = read(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(damage(text))
    assert run("pretrain-g", "--run-dir", d, "--resume", "--set", "pretrain.g_epochs=3") == 2
    assert needle in capsys.readouterr().err


def test_non_integer_metrics_key_exit_4(pretrained, tmp_path, capsys):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    assert run("advtrain", "--run-dir", d, "--set", "adv.iterations=2") == 0
    path = os.path.join(d, "advtrain_metrics.csv")
    lines = read(path).splitlines(keepends=True)
    lines[1] = "x" + lines[1][1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert run("advtrain", "--run-dir", d, "--resume") == 4
    assert "advtrain_metrics.csv" in capsys.readouterr().err
    assert read(path) == "".join(lines)  # the damaged log is left as found


def test_non_numeric_valid_nll_exit_4(pretrained, tmp_path, capsys):
    # early stopping replays the logged valid_nll cells, so a garbled one
    # is a corrupt log rather than a crash
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    path = os.path.join(d, "gen_pretrain_log.csv")
    lines = read(path).splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = "abc"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert run("pretrain-g", "--run-dir", d, "--resume",
               "--set", "pretrain.g_epochs=4") == 4
    assert "gen_pretrain_log.csv" in capsys.readouterr().err
    assert read(path) == "".join(lines)  # the damaged log is left as found


def test_log_without_key_column_exit_4(pretrained, tmp_path, capsys):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    path = os.path.join(d, "gen_pretrain_log.csv")
    text = read(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("epoch,", "epok,", 1))
    assert run("pretrain-g", "--run-dir", d, "--resume",
               "--set", "pretrain.g_epochs=4") == 4
    assert "gen_pretrain_log.csv" in capsys.readouterr().err


def test_nan_weight_is_a_numeric_failure(trained, tmp_path, capsys):
    # a NaN weight under a valid checksum must stop sampling and evaluation
    # with exit 3 rather than quietly emit token 0
    d = str(tmp_path / "run")
    shutil.copytree(trained, d)
    path = os.path.join(d, "gen_adv.ckpt")
    blocks, digest = load_tensors(path)
    blocks["gen.lstm.W"][0, 0] = np.nan
    save_tensors(path, blocks, digest)
    assert run("sample", "--run-dir", d, "--n", "2") == 3
    assert run("eval", "--run-dir", d, "--tier", "micro") == 3
    assert "numeric failure" in capsys.readouterr().err


def test_diverging_skip_gram_exits_3_and_saves_no_table(tmp_path, capsys):
    # a table that left the finite range must not reach a checkpoint, where
    # every later pretrain-d --resume or advtrain would load it
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST,
               "--set", "embed.lr=1e6", "--set", "embed.epochs=10") == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    with np.errstate(all="ignore"):
        assert run("pretrain-d", "--run-dir", d) == 3
    assert "skip-gram embeddings" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "disc_fasttext.ckpt"))


def test_a_diverged_skipgram_table_exits_3(tmp_path, capsys):
    # at embed.lr=1e12 the skip-gram table reaches entries near 1e258,
    # finite but diverged; no discriminator may train on it
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST,
               "--set", "embed.lr=1e12", "--set", "embed.epochs=3") == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    with np.errstate(all="ignore"):
        assert run("pretrain-d", "--run-dir", d) == 3
    assert "skip-gram embeddings diverged" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "disc_fasttext.ckpt"))


def test_overflowing_gradient_norm_exits_3(tmp_path, capsys, monkeypatch):
    # a finite table of entries near 1e258 gives finite discriminator
    # gradients whose squared sum overflows; the clip must not scale them
    # all to zero and report an untrained discriminator as a success.
    # Skip-gram refuses to train such a table, so it takes skip-gram's place
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    n_tokens = len(read_vocab(os.path.join(d, "vocab.txt")))
    table = np.random.default_rng(0).uniform(-1.0, 1.0, (n_tokens, 8)) * 1e258
    monkeypatch.setattr(cli, "pretrain_embeddings", lambda *args, **kwargs: table)
    with np.errstate(all="ignore"):
        assert run("pretrain-d", "--run-dir", d) == 3
    assert "gradient norm" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "disc_fasttext.ckpt"))


def test_a_numeric_failure_prints_one_stderr_line(tmp_path):
    # skip-gram at embed.lr=1e6 overflows; numpy's floating-point warnings
    # would print before the one line that names what failed
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, "--seed", "3", "--set", "embed.lr=1e6",
               "--set", "corpus.n=200", "--set", "pretrain.g_epochs=1") == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    child = subprocess.run([sys.executable, "-m", "advseq.cli", "pretrain-d", "--run-dir", d],
                           env=child_env(), capture_output=True, text=True)
    assert child.returncode == cli.EXIT_NUMERIC
    assert child.stderr.count("\n") == 1, child.stderr
    assert child.stderr.startswith("numeric failure: ") and "skip-gram embeddings" in child.stderr


@pytest.mark.parametrize("setting,before,command,ckpt", [
    # 10**16 fasttext buckets of 8 dims ask numpy for 568 PiB, past any
    # address space: a MemoryError before numpy takes any memory
    pytest.param(f"disc.n_buckets={10**16}", ("pretrain-g",), "pretrain-d",
                 "disc_fasttext.ckpt", id="n_buckets"),
    # a 1e11 x 4e11 lstm weight matrix has more bytes than numpy can describe:
    # its "array is too big" ValueError, raised before any allocation too
    pytest.param("model.d_hidden=100000000000", (), "pretrain-g", "gen_pretrain.ckpt",
                 id="d_hidden"),
])
def test_an_array_larger_than_memory_exits_2_with_one_line(tmp_path, capsys, setting,
                                                            before, command, ckpt):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST, "--set", setting) == 0
    for earlier in before:
        assert run(earlier, "--run-dir", d) == 0
    capsys.readouterr()
    assert run(command, "--run-dir", d) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert not os.path.exists(os.path.join(d, ckpt))


# ---------------------------------------------------------------------------
# Training pipeline artifacts
# ---------------------------------------------------------------------------


def test_pretrain_logs_well_formed(trained):
    g_rows = csv_rows(os.path.join(trained, "gen_pretrain_log.csv"))
    assert [int(r["epoch"]) for r in g_rows] == [0, 1]
    assert all(float(r["valid_nll"]) > 0 for r in g_rows)
    d_rows = csv_rows(os.path.join(trained, "disc_fasttext_log.csv"))
    assert [int(r["epoch"]) for r in d_rows] == [0, 1]
    adv_rows = csv_rows(os.path.join(trained, "advtrain_metrics.csv"))
    assert [int(r["iteration"]) for r in adv_rows] == [0, 1, 2, 3]
    assert set(adv_rows[0]) == {"iteration", "nll_test", "mean_reward",
                                "d_loss", "g_objective", "wall_seconds"}


def test_every_log_row_has_its_wall_seconds(trained):
    # the driver stamps each row with the seconds since its loop was built,
    # so within one invocation the column never decreases
    for log in ("gen_pretrain_log.csv", "disc_fasttext_log.csv", "advtrain_metrics.csv"):
        walls = [float(r["wall_seconds"]) for r in csv_rows(os.path.join(trained, log))]
        assert len(walls) >= 2 and walls[0] >= 0.0, log
        assert walls == sorted(walls), log


def test_pretrain_g_resume_extends_log(pretrained, tmp_path):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    assert run("pretrain-g", "--run-dir", d, "--resume",
               "--set", "pretrain.g_epochs=4") == 0
    rows = csv_rows(os.path.join(d, "gen_pretrain_log.csv"))
    assert [int(r["epoch"]) for r in rows] == [0, 1, 2, 3]


def test_pretrain_g_resume_matches_straight_run(pretrained, tmp_path):
    resumed, straight = str(tmp_path / "resumed"), str(tmp_path / "straight")
    shutil.copytree(pretrained, resumed)
    shutil.copytree(pretrained, straight)
    more = ("--set", "pretrain.g_epochs=4")
    assert run("pretrain-g", "--run-dir", resumed, "--resume", *more) == 0
    assert run("pretrain-g", "--run-dir", straight, *more) == 0
    assert read_bytes(os.path.join(resumed, "gen_pretrain.ckpt")) == \
           read_bytes(os.path.join(straight, "gen_pretrain.ckpt"))
    assert drop_wall(csv_rows(os.path.join(resumed, "gen_pretrain_log.csv"))) == \
           drop_wall(csv_rows(os.path.join(straight, "gen_pretrain_log.csv")))


def test_pretrain_d_resume_matches_straight_run(pretrained, tmp_path):
    resumed, straight = str(tmp_path / "resumed"), str(tmp_path / "straight")
    shutil.copytree(pretrained, resumed)
    shutil.copytree(pretrained, straight)
    os.remove(os.path.join(straight, "disc_fasttext.ckpt"))
    more = ("--set", "pretrain.d_epochs_fasttext=4")
    assert run("pretrain-d", "--run-dir", resumed, "--resume", *more) == 0
    assert run("pretrain-d", "--run-dir", straight, *more) == 0
    assert read_bytes(os.path.join(resumed, "disc_fasttext.ckpt")) == \
           read_bytes(os.path.join(straight, "disc_fasttext.ckpt"))
    assert drop_wall(csv_rows(os.path.join(resumed, "disc_fasttext_log.csv"))) == \
           drop_wall(csv_rows(os.path.join(straight, "disc_fasttext_log.csv")))


def test_resume_after_early_stopping_trains_nothing(tmp_path, capsys):
    # with a zero learning rate the validation NLL never improves after
    # epoch 0, so patience 1 stops the run after epoch 1 however long it is
    resumed, straight = str(tmp_path / "resumed"), str(tmp_path / "straight")
    stop = ("--set", "pretrain.g_lr=0.0", "--set", "pretrain.patience=1")
    for d, epochs in ((resumed, "3"), (straight, "6")):
        assert run("corpus-gen", "--run-dir", d, *SEED, *FAST, *stop) == 0
        assert run("pretrain-g", "--run-dir", d, "--set", f"pretrain.g_epochs={epochs}") == 0
    ckpt, log = (os.path.join(resumed, n) for n in ("gen_pretrain.ckpt", "gen_pretrain_log.csv"))
    before = read_bytes(ckpt), read_bytes(log)
    capsys.readouterr()
    assert run("pretrain-g", "--run-dir", resumed, "--resume",
               "--set", "pretrain.g_epochs=6") == 0
    assert "early stopping already triggered" in capsys.readouterr().out
    assert (read_bytes(ckpt), read_bytes(log)) == before
    assert [int(r["epoch"]) for r in csv_rows(log)] == [0, 1]
    assert drop_wall(csv_rows(log)) == \
           drop_wall(csv_rows(os.path.join(straight, "gen_pretrain_log.csv")))


# command -> (settings of the straight run, checkpoint, log, counter)
INTERRUPTIBLE = {
    "pretrain-g": (("--set", "pretrain.g_epochs=4"), "gen_pretrain.ckpt",
                   "gen_pretrain_log.csv", "meta.epoch"),
    "pretrain-d": (("--set", "pretrain.d_epochs_fasttext=4"), "disc_fasttext.ckpt",
                   "disc_fasttext_log.csv", "meta.epoch"),
    "advtrain": ((), "advtrain.ckpt", "advtrain_metrics.csv", "meta.iteration"),
}


def check_resume_matches_straight_run(pretrained, tmp_path, command, interrupted):
    """`interrupted` holds a run stopped in place of its third checkpoint
    write: the log already has the third row, the checkpoint is at 1."""
    more, ckpt, log, counter = INTERRUPTIBLE[command]
    assert len(csv_rows(os.path.join(interrupted, log))) == 3
    assert load_tensors(os.path.join(interrupted, ckpt))[0][counter][0, 0] == 1.0
    assert run(command, "--run-dir", interrupted, "--resume", *more) == 0
    straight = str(tmp_path / "straight")
    shutil.copytree(pretrained, straight)
    assert run(command, "--run-dir", straight, *more) == 0
    for name in (ckpt, "gen_adv.ckpt") if command == "advtrain" else (ckpt,):
        assert read_bytes(os.path.join(interrupted, name)) == \
               read_bytes(os.path.join(straight, name)), name
    assert drop_wall(csv_rows(os.path.join(interrupted, log))) == \
           drop_wall(csv_rows(os.path.join(straight, log)))


@pytest.mark.parametrize("command", list(INTERRUPTIBLE))
def test_ctrl_c_then_resume_matches_straight_run(pretrained, tmp_path, capsys,
                                                 monkeypatch, command):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    real, writes = cli.save_run_state, []

    def save(*args, **kwargs):
        writes.append(args[0])
        if len(writes) == 3:
            raise KeyboardInterrupt
        real(*args, **kwargs)

    monkeypatch.setattr(cli, "save_run_state", save)
    capsys.readouterr()
    assert run(command, "--run-dir", d, *INTERRUPTIBLE[command][0]) == cli.EXIT_INTERRUPTED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("interrupted")
    assert "Traceback" not in err
    assert lock_is_free(d)
    monkeypatch.setattr(cli, "save_run_state", real)
    check_resume_matches_straight_run(pretrained, tmp_path, command, d)


KILL_AT_THIRD_SAVE = """
import os, signal, sys
from advseq import cli
real, writes = cli.save_run_state, []
def save(*args, **kwargs):
    writes.append(args[0])
    if len(writes) == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    real(*args, **kwargs)
cli.save_run_state = save
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("damage", ["drop", "repeat", "remove"])
@pytest.mark.parametrize("command", list(INTERRUPTIBLE))
def test_resume_refuses_a_log_without_each_row_once_in_order(pretrained, tmp_path, capsys,
                                                             command, damage):
    # the rows before the checkpoint's counter are the history a resume
    # replays and keeps, so a hole or a repeat in them is a corrupt log
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    more, _, log, _ = INTERRUPTIBLE[command]
    if command == "advtrain":
        assert run("advtrain", "--run-dir", d, "--set", "adv.iterations=2") == 0
    path = os.path.join(d, log)
    lines = read(path).splitlines(keepends=True)
    if damage == "remove":
        os.remove(path)
    else:
        lines[1:2] = [] if damage == "drop" else lines[1:2] * 2
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    capsys.readouterr()
    assert run(command, "--run-dir", d, "--resume", *more) == 4
    assert log in capsys.readouterr().err
    if damage != "remove":
        assert read(path) == "".join(lines)  # the damaged log is left as found


@pytest.mark.parametrize("command", list(INTERRUPTIBLE))
def test_sigkill_then_resume_matches_straight_run(pretrained, tmp_path, command):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    child = subprocess.run([sys.executable, "-c", KILL_AT_THIRD_SAVE, command,
                            "--run-dir", d, *INTERRUPTIBLE[command][0]], env=child_env())
    assert child.returncode == -signal.SIGKILL
    assert lock_is_free(d)  # the kernel dropped the killed command's lock
    check_resume_matches_straight_run(pretrained, tmp_path, command, d)


FSIZE_LIMITED = """
import resource, sys
from advseq import cli
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(cli.main(sys.argv[2:]))
"""


def test_a_failed_checkpoint_write_exits_2_and_a_rerun_matches_straight_run(pretrained,
                                                                            tmp_path):
    # a file-size limit in a child process stands in for a full disk: the
    # first checkpoint write fails after its log row is written
    ckpt, log = "gen_pretrain.ckpt", "gen_pretrain_log.csv"
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    for name in (ckpt, log):
        os.remove(os.path.join(d, name))
    limit = os.path.getsize(os.path.join(pretrained, ckpt)) // 2
    child = subprocess.run([sys.executable, "-c", FSIZE_LIMITED, str(limit), "pretrain-g",
                            "--run-dir", d], env=child_env(), capture_output=True, text=True)
    assert child.returncode == cli.EXIT_USAGE, child.stderr
    assert child.stderr.count("\n") == 1 and child.stderr.startswith("error: ")
    assert ckpt in child.stderr and "Traceback" not in child.stderr
    assert not [n for n in os.listdir(d) if n.endswith(".tmp")]
    assert not os.path.exists(os.path.join(d, ckpt))
    assert run("pretrain-g", "--run-dir", d) == 0
    assert read_bytes(os.path.join(d, ckpt)) == read_bytes(os.path.join(pretrained, ckpt))
    assert drop_wall(csv_rows(os.path.join(d, log))) == \
           drop_wall(csv_rows(os.path.join(pretrained, log)))


def test_a_failed_log_append_exits_2_and_names_the_log(pretrained, tmp_path, capsys,
                                                      monkeypatch):
    # an OSError injected into the first row's append stands in for a full
    # disk; closing the file fails again, as a buffered file's close retries
    # the write
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    for name in ("gen_pretrain.ckpt", "gen_pretrain_log.csv"):
        os.remove(os.path.join(d, name))

    class FullDisk:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.write("")

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    log = os.path.join(d, "gen_pretrain_log.csv")
    monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: FullDisk()
                        if path == log else open(path, *args, **kwargs), raising=False)
    capsys.readouterr()
    assert run("pretrain-g", "--run-dir", d) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {log}: {os.strerror(errno.ENOSPC)}\n"
    assert not os.path.exists(os.path.join(d, "gen_pretrain.ckpt"))


def test_resume_before_the_first_checkpoint_exits_2(tmp_path, capsys):
    # a run stopped before its first checkpoint has nothing to resume from,
    # and is rerun without --resume; each command's earlier stages have run
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST) == 0
    for command, ckpt in (("pretrain-g", "gen_pretrain.ckpt"),
                          ("pretrain-d", "disc_fasttext.ckpt"), ("advtrain", "advtrain.ckpt")):
        capsys.readouterr()
        assert run(command, "--run-dir", d, "--resume") == cli.EXIT_USAGE
        assert capsys.readouterr().err == (f"error: nothing to resume: no "
                                           f"{os.path.join(d, ckpt)} yet; rerun without --resume\n")
        assert run(command, "--run-dir", d) == 0


def test_checkpoint_block_order(trained):
    # format v1 fixes each file's block order: generator + meta.dims |
    # rollout. | discriminator + embed.table | gopt. | dopt. | counter
    gen = ["gen.embed", "gen.label_embed", "gen.lstm.W", "gen.lstm.b",
           "gen.out.W", "gen.out.b"]
    disc = ["d.bigram", "d.head.W", "d.head.b"]

    def adam(prefix, names):
        return ([f"{prefix}m.{n}" for n in names] + [f"{prefix}v.{n}" for n in names]
                + [f"{prefix}t"])

    expected = {
        "gen_pretrain.ckpt": gen + ["meta.dims"] + adam("gopt.", gen) + ["meta.epoch"],
        "disc_fasttext.ckpt": disc + ["embed.table"] + adam("dopt.", disc)
                              + ["meta.epoch"],
        "advtrain.ckpt": gen + ["meta.dims"] + [f"rollout.{n}" for n in gen] + disc
                         + ["embed.table"] + adam("gopt.", gen) + adam("dopt.", disc)
                         + ["meta.iteration"],
        "gen_adv.ckpt": gen + ["meta.dims"],
    }
    for name, names in expected.items():
        blocks, _ = load_tensors(os.path.join(trained, name))
        assert list(blocks) == names, name
    # the frozen table lives only in the discriminator's and advtrain's files
    assert not os.path.exists(os.path.join(trained, "embeddings.ckpt"))


def test_advtrain_interrupted_resume_matches_straight_run(pretrained, trained,
                                                          tmp_path):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    assert run("advtrain", "--run-dir", d, "--set", "adv.iterations=2") == 0
    assert run("advtrain", "--run-dir", d, "--resume") == 0  # back to 4
    direct = read_bytes(os.path.join(trained, "gen_adv.ckpt"))
    resumed = read_bytes(os.path.join(d, "gen_adv.ckpt"))
    assert direct == resumed
    a = drop_wall(csv_rows(os.path.join(trained, "advtrain_metrics.csv")))
    b = drop_wall(csv_rows(os.path.join(d, "advtrain_metrics.csv")))
    assert a == b


def test_threads_do_not_change_results(pretrained, trained, tmp_path):
    d = str(tmp_path / "run")
    shutil.copytree(pretrained, d)
    assert run("advtrain", "--run-dir", d, "--threads", "2") == 0
    assert read_bytes(os.path.join(d, "gen_adv.ckpt")) == \
           read_bytes(os.path.join(trained, "gen_adv.ckpt"))


# ---------------------------------------------------------------------------
# sample / eval
# ---------------------------------------------------------------------------


def test_sample_output_shape_and_determinism(trained, capsys):
    assert run("sample", "--run-dir", trained, "--n", "4") == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert len(lines) == 4
    labels = [int(ln.split("\t")[0]) for ln in lines]
    assert labels == [0, 1, 0, 1]  # alternating by default
    assert all(len(ln.split("\t")[1].split()) == 20 for ln in lines)
    assert run("sample", "--run-dir", trained, "--n", "4") == 0
    assert capsys.readouterr().out == first


def test_sample_fixed_label_and_file_output(trained, tmp_path, capsys):
    out = str(tmp_path / "samples.txt")
    assert run("sample", "--run-dir", trained, "--n", "3", "--label", "1",
               "--out", out) == 0
    assert "wrote 3 samples" in capsys.readouterr().out
    lines = read(out).strip().splitlines()
    assert [int(ln.split("\t")[0]) for ln in lines] == [1, 1, 1]
    assert run("sample", "--run-dir", trained, "--n", "1", "--label", "7") == 2
    assert "--label" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sample_rejects_a_count_below_one(trained, capsys, n):
    assert run("sample", "--run-dir", trained, "--n", n) == 2
    assert capsys.readouterr().err.startswith("error: --n")


def test_sample_reports_an_unwritable_output_path(trained, tmp_path, capsys):
    out = str(tmp_path / "missing" / "samples.txt")
    assert run("sample", "--run-dir", trained, "--n", "2", "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert not os.path.exists(out)


def test_eval_micro_tier(trained, capsys):
    assert run("eval", "--run-dir", trained, "--tier", "micro") == 0
    out = capsys.readouterr().out
    assert "nll_test" in out
    report = parse_metrics_csv(read(os.path.join(trained, "metrics.csv")))
    assert report.run_id == os.path.basename(trained)
    assert report.seed == 11
    # the built-in grammar has computable entropy, so the gap is reported
    assert set(report.metrics) == {"nll_test", "bleu_test", "self_bleu",
                                   "exact_entropy", "nll_gap"}
    assert abs(report.metrics["nll_gap"]
               - (report.metrics["nll_test"] - report.metrics["exact_entropy"])) < 1e-12
    assert "nll_test" in read(os.path.join(trained, "metrics.txt"))


def test_eval_macro_skips_when_test_split_too_small(tmp_path, capsys):
    d = str(tmp_path / "run")
    assert run("corpus-gen", "--run-dir", d, *SEED, *FAST,
               "--set", "corpus.split=0.8,0.1,0.1") == 0
    assert run("pretrain-g", "--run-dir", d) == 0
    assert run("eval", "--run-dir", d, "--tier", "macro") == 0
    out = capsys.readouterr().out
    assert "macro suite" in out and "skipped" in out
    report = parse_metrics_csv(read(os.path.join(d, "metrics.csv")))
    assert report.metrics == {}  # skipped suites write no columns


def test_eval_reads_only_the_cnn_fields_of_disc(tmp_path, monkeypatch):
    # every evaluator is a cnn built from disc.*, so neither disc.kind nor
    # the fields only the other kinds read may move an evaluator's weights
    # or a macro or application number; the first run keeps the desk
    # values of all three
    train_cnn, weights = evaluation._train_cnn, []

    def recording(*args, **kwargs):
        disc = train_cnn(*args, **kwargs)
        weights[-1].append({n: p.value for n, p in disc.params.items()})
        return disc

    monkeypatch.setattr(evaluation, "_train_cnn", recording)
    desk_disc = ["--set", "disc.kind=cnn", "--set", "disc.n_buckets=4096"]
    reports = []
    for i, setting in enumerate(["", "disc.kind=birnn", "disc.d_hidden=5", "disc.n_buckets=64"]):
        d = str(tmp_path / str(i) / "run")
        extra = ["--set", setting] if setting else []
        weights.append([])
        assert run("corpus-gen", "--run-dir", d, *SEED, *FAST, *desk_disc, *extra) == 0
        assert run("pretrain-g", "--run-dir", d) == 0
        assert run("eval", "--run-dir", d, "--tier", "all") == 0
        reports.append(read(os.path.join(d, "metrics.csv")))
    metrics = parse_metrics_csv(reports[0]).metrics
    assert {"adversuc", "ere1", "acc_real", "acc_mix"} <= set(metrics)
    assert reports[1:] == reports[:1] * 3
    assert len(weights[0]) == 7   # four macro probes, three classifiers
    for other in weights[1:]:
        assert len(other) == 7
        for want, got in zip(weights[0], other):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[n], want[n]) for n in want)

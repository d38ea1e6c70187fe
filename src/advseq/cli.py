"""Command line for the full pipeline.

Subcommands cover the whole workflow against one run directory:

    corpus-gen   materialize a grammar corpus, vocabulary, and splits
    pretrain-g   maximum-likelihood generator pretraining
    pretrain-d   discriminator pretraining against the pretrained generator
    advtrain     adversarial training with rollout rewards
    sample       print sequences from a trained generator
    eval         micro / macro / application metrics

The run directory comes from --run-dir, else the ADVSEQ_RUN_DIR
environment variable, else ./run. corpus-gen pins the resolved
configuration into <run>/config.txt; later commands read it back, so a run
stays self-describing; only corpus-gen takes --config, --preset and
--seed, a later command overrides pinned keys with --set alone, and only
corpus-gen and advtrain, the one reader of run.threads, take --threads.
Mutating commands hold an exclusive flock on <run>/.lock while working;
the kernel drops it when the command exits, however it ends.
Each training loop yields one row per epoch or iteration to one driver,
which stamps its wall time, appends it to the log and checkpoints the run;
--resume continues or extends a run from its checkpoint.
Models are sized from the config alone; a checkpoint only fills them.

Exit codes: 0 success, 2 usage or configuration problems (a setting
outside its domain, an array larger than memory or than numpy can
describe), 3 numeric failures during training, 4 corrupt or mismatched
artifacts (a bad stored count, Adam moment, dims or block shape, a log
missing rows), 130 interrupted (Ctrl-C), each with one stderr line:
numpy's floating-point warnings are muted, as the finite checks name what
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import functools
import os
import sys
import time
import warnings
from typing import Callable, Iterator

import numpy as np

from .adversarial import (TrainSchedule, adversarial_train, pretrain_discriminator,
                          pretrain_generator)
from .checkpoint import CheckpointError, load_tensors, save_tensors, write_atomic
from .config import ConfigError, canonical_text, config_digest, make_config, view
from .corpus import (DataError, SplitDataset, Vocab,
                     decode_sequence, generate_corpus, read_corpus, read_vocab,
                     split_corpus, write_corpus, write_vocab)
from .discriminators import Discriminator, DiscriminatorConfig, init_discriminator
from .embeddings import pretrain_embeddings
from .evaluation import (MetricsReport, application_metrics, macro_metrics,
                         micro_metrics)
from .generator import GeneratorDims, init_generator_params, mean_nll, sample_batch
from .grammar import GrammarError, GrammarSpec, format_grammar, load_grammar, resolve_grammar
from .numerics import AdamState, NumericError, ParamStore, RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CORRUPT = 4
EXIT_INTERRUPTED = 130

ADV_COLUMNS = ("iteration", "nll_test", "mean_reward", "d_loss", "g_objective",
               "wall_seconds")
GPRE_COLUMNS = ("epoch", "train_nll", "valid_nll", "wall_seconds")
DPRE_COLUMNS = ("epoch", "d_loss", "d_acc", "wall_seconds")


class CliError(Exception):
    """Unusable invocation or missing prerequisite artifact."""


# ---------------------------------------------------------------------------
# Run directory plumbing
# ---------------------------------------------------------------------------


class RunPaths:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        join = lambda name: os.path.join(run_dir, name)
        self.config = join("config.txt")
        self.grammar = join("grammar.txt")
        self.vocab = join("vocab.txt")
        self.train = join("corpus_train.txt")
        self.valid = join("corpus_valid.txt")
        self.test = join("corpus_test.txt")
        self.gen_pretrain = join("gen_pretrain.ckpt")
        self.gen_pretrain_log = join("gen_pretrain_log.csv")
        self.gen_adv = join("gen_adv.ckpt")
        self.advtrain = join("advtrain.ckpt")
        self.adv_metrics = join("advtrain_metrics.csv")
        self.metrics_csv = join("metrics.csv")
        self.metrics_txt = join("metrics.txt")
        self.lock = join(".lock")

    def disc(self, kind: str) -> str:
        return os.path.join(self.run_dir, f"disc_{kind}.ckpt")

    def disc_log(self, kind: str) -> str:
        return os.path.join(self.run_dir, f"disc_{kind}_log.csv")


@contextlib.contextmanager
def run_lock(paths: RunPaths) -> Iterator[None]:
    """Hold an exclusive flock on <run>/.lock for the block, so two commands
    cannot interleave writes. Only a live holder blocks: the kernel drops
    the lock when its process exits, however it ends. The empty file is
    never removed, as a waiter could then lock the unlinked inode while a
    third command locks a new file."""
    with open(paths.lock, "ab") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CliError(f"run directory is locked ({paths.lock}); "
                           f"another command is running") from None
        except OSError as e:  # named as write_atomic names its file
            raise OSError(f"{paths.lock}: {e.strerror or e}") from e
        yield


def resolve_run_dir(args) -> str:
    return args.run_dir or os.environ.get("ADVSEQ_RUN_DIR") or "run"


def resolve_config(args, paths: RunPaths) -> dict:
    """The preset, then corpus-gen's --config file or else the pinned
    config.txt, then --set pairs, then --seed and --threads. A later command
    has no --config, so it overrides the pinned file with --set alone."""
    file_text = None
    if getattr(args, "config", None):
        file_text = _read_text(args.config)
    elif os.path.exists(paths.config):
        file_text = _read_text(paths.config)
    sets = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        sets.append(f"run.seed={args.seed}")
    if getattr(args, "threads", None) is not None:
        sets.append(f"run.threads={args.threads}")
    return make_config(getattr(args, "preset", "desk"), file_text, sets)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"missing {path}; run `{hint}` first")
    return path


# ---------------------------------------------------------------------------
# Artifact composition
# ---------------------------------------------------------------------------


def load_run_data(args) -> tuple[RunPaths, dict, GrammarSpec, Vocab, SplitDataset,
                                  bytes]:
    """A later command's run: paths, config, corpus artifacts (required before
    the config is built) and the config digest their checkpoints carry."""
    paths = RunPaths(resolve_run_dir(args))
    for path in (paths.grammar, paths.vocab, paths.train, paths.valid, paths.test):
        _require(path, "advseq corpus-gen")
    cfg = resolve_config(args, paths)
    grammar, vocab = load_grammar(paths.grammar), read_vocab(paths.vocab)
    splits = []
    for path in (paths.train, paths.valid, paths.test):
        data, unknown = read_corpus(path, vocab, cfg["corpus.seq_len"])
        if unknown:
            raise DataError(f"{path}: {unknown} tokens fell outside the stored vocabulary")
        if len(data) == 0:
            raise DataError(f"{path}: no rows")
        if data.labels.max() >= len(grammar.labels):
            raise DataError(f"{path}: label {data.labels.max()} is outside the grammar's "
                            f"{len(grammar.labels)} labels")
        splits.append(data)
    digest = config_digest(cfg, len(vocab), len(grammar.labels))
    return paths, cfg, grammar, vocab, SplitDataset(*splits), digest


def new_generator(cfg: dict, vocab: Vocab,
                  grammar: GrammarSpec) -> tuple[ParamStore, GeneratorDims]:
    """The generator the config sizes, at its seeded initial weights."""
    dims = view(cfg, GeneratorDims, vocab_size=len(vocab), n_labels=len(grammar.labels))
    return init_generator_params(dims, RngStream(cfg["run.seed"], "gen_init")), dims


def load_generator(cfg: dict, vocab: Vocab, grammar: GrammarSpec, digest: bytes,
                   path: str) -> tuple[ParamStore, GeneratorDims]:
    """The generator the config sizes, filled from the checkpoint at `path`."""
    params, dims = new_generator(cfg, vocab, grammar)
    restore_run_state(_require(path, "advseq pretrain-g"), digest, {"gen": params, "dims": dims})
    return params, dims


def new_discriminator(cfg: dict, vocab: Vocab, grammar: GrammarSpec,
                      root: RngStream) -> Discriminator:
    """The `disc.kind` discriminator the config sizes, at its seeded initial
    weights, over a zero table for a checkpoint or skip-gram to fill."""
    dcfg = view(cfg, DiscriminatorConfig, vocab_size=len(vocab),
                n_labels=len(grammar.labels), use_condition=True, n_out=1)
    return init_discriminator(dcfg, np.zeros((dcfg.vocab_size, dcfg.d_embed)),
                              root.child("dinit", dcfg.kind))


def _count(block: np.ndarray) -> int:
    value = float(block[0, 0])
    if not (value >= 0 and value.is_integer()):  # false for NaN and inf too
        raise ValueError(f"holds {value!r}, not a whole number >= 0")
    return int(value)


def _same(expected: np.ndarray, block: np.ndarray) -> None:
    if not np.array_equal(block, expected):
        raise ValueError(f"holds {block.tolist()}, but the config gives {expected.tolist()}")


def _finite(array: np.ndarray, second_moment: bool, block: np.ndarray) -> None:
    if not np.isfinite(block).all() or second_moment and (block < 0).any():
        raise ValueError("holds a non-finite value or a negative second moment")
    np.copyto(array, block)


def _run_blocks(run: dict, counters: dict[str, int]
                ) -> list[tuple[str, np.ndarray, Callable[[np.ndarray], None]]]:
    """Every block of a run checkpoint, in the one order all files keep:
    generator + meta.dims | rollout. | discriminator | embed.table | gopt. |
    dopt. | meta.<counter>. `run` maps the sections a file holds to their
    objects: "gen" (its GeneratorDims in "dims"), "rollout" and "disc"
    ParamStores, "embed" the discriminator's frozen table, "gopt" and
    "dopt" AdamStates; `counters` holds the epoch or iteration. A block is
    (name, array, load): save writes `array`; restore checks a stored
    block's shape against it, then `load(block)` takes the block into the
    object or raises ValueError for a value the object cannot take."""
    blocks = []

    def fill(name: str, array: np.ndarray) -> None:
        blocks.append((name, array, functools.partial(np.copyto, array)))

    def count(name: str, value: int, store: Callable[[int], None]) -> None:
        blocks.append((name, np.array([[float(value)]]), lambda block: store(_count(block))))

    if "gen" in run:
        for name, p in run["gen"].items():
            fill(name, p.value)
        dims = np.array([dataclasses.astuple(run["dims"])], dtype=np.float64)
        blocks.append(("meta.dims", dims, functools.partial(_same, dims)))
    for section, prefix in (("rollout", "rollout."), ("disc", "")):
        for name, p in run.get(section, {}).items():
            fill(prefix + name, p.value)
    if "embed" in run:   # frozen, so no later step would catch a bad value
        blocks.append(("embed.table", run["embed"],
                       functools.partial(_finite, run["embed"], False)))
    for prefix, opt in (("gopt.", run.get("gopt")), ("dopt.", run.get("dopt"))):
        if opt is not None:
            for moment, arrays in (("m.", opt.m), ("v.", opt.v)):
                for name, array in arrays.items():
                    blocks.append((prefix + moment + name, array,
                                   functools.partial(_finite, array, moment == "v.")))
            count(prefix + "t", opt.t, functools.partial(setattr, opt, "t"))
    for key, value in counters.items():
        count(f"meta.{key}", value, functools.partial(counters.__setitem__, key))
    return blocks


def save_run_state(path: str, digest: bytes, run: dict, **counter: int) -> None:
    """Write the sections in `run`, and the epoch or iteration if given."""
    save_tensors(path, {name: array for name, array, _ in _run_blocks(run, counter)}, digest)


def restore_run_state(path: str, digest: bytes, run: dict, counter: str | None = None
                      ) -> int | None:
    """Fill the objects in `run` in place and return the stored `counter`,
    if one is named. The config sized every object, so a missing block, a
    block of another shape, dims other than the config's, a count that is
    not a whole number >= 0, or an Adam moment or embedding table it cannot
    take is a corrupt artifact (CheckpointError, exit 4); a digest mismatch
    is a checkpoint of another configuration, a usage problem (CliError,
    exit 2)."""
    tensors, stored = load_tensors(path)
    if stored != digest:
        raise CliError(f"{path} was written under a different configuration "
                       f"(digest mismatch); refusing to load")
    counters = {} if counter is None else {counter: 0}
    for name, array, load in _run_blocks(run, counters):
        block = tensors.get(name)
        if block is None:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if block.shape != array.shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {block.shape}, "
                                  f"expected {array.shape}")
        try:
            load(block)
        except ValueError as e:
            raise CheckpointError(f"{path}: tensor {name!r} {e}") from None
    return counters.get(counter)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_corpus_gen(args) -> int:
    paths = RunPaths(resolve_run_dir(args))
    cfg = resolve_config(args, paths)
    grammar = resolve_grammar(cfg["corpus.grammar"], cfg["corpus.seq_len"])
    root = RngStream(cfg["run.seed"])
    data, vocab = generate_corpus(grammar, cfg["corpus.n"], root.child("corpus"))
    splits = split_corpus(data, cfg["corpus.split"], root.child("split"))
    # after the checks, so a refused run creates and writes nothing
    os.makedirs(paths.run_dir, exist_ok=True)
    with run_lock(paths):
        if os.path.exists(paths.train):  # under the lock: no other run writes it after
            raise CliError(f"{paths.train} already exists; use a fresh run directory")
        # corpus_train.txt goes last: while it is missing, a rerun starts over
        write_atomic(paths.config, canonical_text(cfg).encode("utf-8"))
        write_atomic(paths.grammar, format_grammar(grammar).encode("utf-8"))
        write_vocab(paths.vocab, vocab)
        write_corpus(paths.valid, splits.valid, vocab)
        write_corpus(paths.test, splits.test, vocab)
        write_corpus(paths.train, splits.train, vocab)
    print(f"corpus: {len(splits.train)} train / {len(splits.valid)} valid / "
          f"{len(splits.test)} test, vocabulary {len(vocab)}")
    try:
        print(f"exact conditional entropy: {grammar.conditional_entropy():.6f} nats")
    except GrammarError:
        print("exact conditional entropy: unavailable (templates may overlap)")
    return EXIT_OK


def _read_csv_rows(path: str, columns: tuple[str, ...], n: int) -> list[dict]:
    """The first `n` rows of a training log, every cell but the key (first)
    column parsed as a float.

    A log this program wrote always exists, has every column and numeric
    cells, and its rows up to a checkpoint's counter hold keys 0..n-1 once
    each and in order, so anything else is a corrupt artifact.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            for _, line in zip(range(n), fh):
                row = dict(zip(header, line.rstrip("\n").split(",")))
                rows.append({c: row[c] if c == columns[0] else float(row[c])
                             for c in columns})
    except (OSError, KeyError, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"{path}: unusable log ({type(e).__name__}: {e})") from None
    if [row[columns[0]] for row in rows] != [str(i) for i in range(n)]:
        raise CheckpointError(f"{path}: its first rows are not {columns[0]} 0..{n - 1} "
                              f"once each and in order, as the checkpoint needs")
    return rows


def _train(args, cfg: dict, setting: str, digest: bytes, run: dict, ckpt: str,
           log_path: str, columns: tuple[str, ...],
           loop: Callable[[int, list[dict]], Iterator[dict]]) -> tuple[int, dict | None]:
    """The one training driver, and the only writer of training logs and of
    per-row run checkpoints. On --resume it fills `run` from `ckpt` and
    starts after the stored counter, the log's first column; without `ckpt`
    there is nothing to resume, and the command is rerun without --resume.
    It refuses an empty range up to `cfg[setting]`, rewrites the log's kept
    rows through `write_atomic`, then runs `loop(start, kept)`: each row
    gets `wall_seconds` since the loop was built, is appended to the log,
    which is closed again (an OSError names the log), and only then is
    `run` saved, so the log never trails the checkpoint.
    Returns `start` and the last row, None if the loop yielded none."""
    key, total = columns[0], cfg[setting]
    start = 0
    if args.resume:
        if not os.path.exists(ckpt):
            raise CliError(f"nothing to resume: no {ckpt} yet; rerun without --resume")
        start = restore_run_state(ckpt, digest, run, counter=key) + 1
    if start >= total:
        raise CliError(f"nothing to do: {setting} = {total} ends before {key} {start}")
    kept = _read_csv_rows(log_path, columns, start) if start else []
    def line(row: dict) -> str:  # repr(float(cell)) is the cell as written
        return ",".join(repr(float(row[c])) if isinstance(row[c], float) else str(row[c])
                        for c in columns) + "\n"
    header = dict(zip(columns, columns))
    write_atomic(log_path, "".join(map(line, [header] + kept)).encode("utf-8"))
    row = None
    rows = loop(start, kept)
    t0 = time.perf_counter()
    for row in rows:
        row["wall_seconds"] = time.perf_counter() - t0
        try:  # closed per row: a failed write fails again in close, which names no file
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(line(row))
        except OSError as e:  # named as write_atomic names its file
            raise OSError(f"{log_path}: {e.strerror or e}") from e
        save_run_state(ckpt, digest, run, **{key: row[key]})
    return start, row


def cmd_pretrain_g(args) -> int:
    paths, cfg, grammar, vocab, splits, digest = load_run_data(args)
    root = RngStream(cfg["run.seed"])
    with run_lock(paths):
        params, dims = new_generator(cfg, vocab, grammar)
        opt = AdamState(params, lr=cfg["pretrain.g_lr"])
        run = {"gen": params, "dims": dims, "gopt": opt}
        start, last = _train(
            args, cfg, "pretrain.g_epochs", digest, run, paths.gen_pretrain,
            paths.gen_pretrain_log, GPRE_COLUMNS,
            lambda start, kept: pretrain_generator(
                params, dims, splits.train, splits.valid, root.child("gpre"),
                epochs=cfg["pretrain.g_epochs"], batch_size=cfg["pretrain.batch_size"],
                patience=cfg["pretrain.patience"], opt=opt, start_epoch=start,
                prior_valid=tuple(r["valid_nll"] for r in kept)))
    if last:
        print(f"pretrained generator: epochs {start}..{last['epoch']}, "
              f"train NLL {last['train_nll']:.4f}, valid NLL {last['valid_nll']:.4f}")
        print(f"test NLL {mean_nll(params, dims, splits.test):.4f} nats")
    else:
        print("early stopping already triggered; nothing to continue")
    return EXIT_OK


def cmd_pretrain_d(args) -> int:
    paths, cfg, grammar, vocab, splits, digest = load_run_data(args)
    kind = cfg["disc.kind"]
    gen_params, dims = load_generator(cfg, vocab, grammar, digest, paths.gen_pretrain)
    root = RngStream(cfg["run.seed"])
    setting = f"pretrain.d_epochs_{kind}"
    with run_lock(paths):
        disc = new_discriminator(cfg, vocab, grammar, root)
        opt = AdamState(disc.params, lr=cfg["pretrain.d_lr"])

        def loop(start: int, kept: list[dict]) -> Iterator[dict]:
            if not args.resume:  # trained only once the driver accepts the epoch range
                disc.embed[...] = pretrain_embeddings(
                    splits.train, len(vocab), cfg["disc.d_embed"], root.child("embed"),
                    window=cfg["embed.window"], negatives=cfg["embed.negatives"],
                    epochs=cfg["embed.epochs"], lr=cfg["embed.lr"])
            return pretrain_discriminator(disc, gen_params, dims, splits.train,
                                          root.child("dpre", kind), epochs=cfg[setting],
                                          batch_size=cfg["pretrain.batch_size"],
                                          opt=opt, start_epoch=start)
        start, last = _train(args, cfg, setting, digest,
                             {"disc": disc.params, "embed": disc.embed, "dopt": opt},
                             paths.disc(kind), paths.disc_log(kind), DPRE_COLUMNS, loop)
    print(f"pretrained {kind} discriminator: epochs {start}..{last['epoch']}, "
          f"loss {last['d_loss']:.4f}, accuracy {last['d_acc']:.4f}")
    return EXIT_OK


def cmd_advtrain(args) -> int:
    paths, cfg, grammar, vocab, splits, digest = load_run_data(args)
    kind = cfg["disc.kind"]
    sched = view(cfg, TrainSchedule)
    root = RngStream(cfg["run.seed"])
    with run_lock(paths):
        disc = new_discriminator(cfg, vocab, grammar, root)
        if args.resume:  # advtrain.ckpt holds every section
            gen_params, dims = new_generator(cfg, vocab, grammar)
        else:
            restore_run_state(_require(paths.disc(kind), "advseq pretrain-d"), digest,
                              {"disc": disc.params, "embed": disc.embed})
            if os.path.exists(paths.advtrain):
                raise CliError(f"{paths.advtrain} exists; pass --resume to continue "
                               f"or remove it to start over")
            gen_params, dims = load_generator(cfg, vocab, grammar, digest, paths.gen_pretrain)
        rollout_params = gen_params.copy()  # beta starts at theta
        g_opt = AdamState(gen_params, lr=sched.g_lr)
        d_opt = AdamState(disc.params, lr=sched.d_lr)
        run = {"gen": gen_params, "dims": dims, "rollout": rollout_params,
               "disc": disc.params, "embed": disc.embed, "gopt": g_opt, "dopt": d_opt}
        _, last = _train(args, cfg, "adv.iterations", digest, run, paths.advtrain,
                         paths.adv_metrics, ADV_COLUMNS,
                         lambda start, kept: adversarial_train(
                             gen_params, dims, disc, splits.train, splits.test, sched,
                             root.child("adv"), rollout_params=rollout_params, g_opt=g_opt,
                             d_opt=d_opt, start_iteration=start, threads=cfg["run.threads"]))
        save_run_state(paths.gen_adv, digest, {"gen": gen_params, "dims": dims})
    print(f"adversarial training done at iteration {sched.iterations - 1}; "
          f"test NLL {last['nll_test']:.4f}")
    return EXIT_OK


def _generator_path(args, paths: RunPaths) -> str:
    """--ckpt, else the adversarial generator, else the pretrained one."""
    if args.ckpt and not os.path.exists(args.ckpt):
        raise CliError(f"missing {args.ckpt}; check the --ckpt path")
    return args.ckpt or (paths.gen_adv if os.path.exists(paths.gen_adv) else paths.gen_pretrain)


def cmd_sample(args) -> int:
    paths, cfg, grammar, vocab, _, digest = load_run_data(args)
    path = _generator_path(args, paths)
    params, dims = load_generator(cfg, vocab, grammar, digest, path)
    n_labels = dims.n_labels
    if args.n < 1:
        raise CliError(f"--n must be at least 1, got {args.n}")
    if args.label is not None and not 0 <= args.label < n_labels:
        raise CliError(f"--label must lie in [0, {n_labels}), got {args.label}")
    if args.label is None:
        labels = np.arange(args.n, dtype=np.int64) % n_labels
    else:
        labels = np.full(args.n, args.label, dtype=np.int64)
    root = RngStream(cfg["run.seed"])
    tokens = sample_batch(params, dims, labels, cfg["corpus.seq_len"],
                          root.child("cli_sample"))
    lines = []
    for i in range(args.n):
        text = " ".join(decode_sequence(tokens[i], vocab))
        lines.append(f"{int(labels[i])}\t{text}")
    out = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e}") from None
        print(f"wrote {args.n} samples from {path} to {args.out}")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_eval(args) -> int:
    paths, cfg, grammar, vocab, splits, digest = load_run_data(args)
    ckpt_path = _generator_path(args, paths)
    params, dims = load_generator(cfg, vocab, grammar, digest, ckpt_path)
    root = RngStream(cfg["run.seed"]).child("eval")
    dcfg = view(cfg, DiscriminatorConfig, kind="cnn", vocab_size=len(vocab),
                n_labels=len(grammar.labels), use_condition=True, n_out=1)
    tiers = ("micro", "macro", "application") if args.tier == "all" else (args.tier,)
    metrics: dict[str, float] = {}
    skipped: dict[str, str] = {}
    suites = {
        "micro": lambda: micro_metrics(params, dims, splits.test, root.child("micro"),
                                       n_samples=cfg["eval.n_samples"]),
        "macro": lambda: macro_metrics(params, dims, splits.test, root.child("macro"),
                                       dcfg, cfg["eval.epochs"], n_seeds=cfg["eval.seeds"]),
        "application": lambda: application_metrics(params, dims, splits.train, splits.test,
                                                   root.child("app"), dcfg, cfg["eval.epochs"],
                                                   n_seeds=cfg["eval.seeds"])}
    with run_lock(paths):
        for tier in tiers:
            try:
                metrics.update(suites[tier]())
            except DataError as e:
                skipped[tier] = str(e)
                continue
            if tier == "micro":
                with contextlib.suppress(GrammarError):
                    metrics["exact_entropy"] = exact = grammar.conditional_entropy()
                    metrics["nll_gap"] = metrics["nll_test"] - exact
        report = MetricsReport(os.path.basename(os.path.abspath(paths.run_dir)),
                               cfg["run.seed"], metrics, skipped)
        write_atomic(paths.metrics_csv, report.csv_text().encode("utf-8"))
        write_atomic(paths.metrics_txt, report.text().encode("utf-8"))
    print(f"evaluated {ckpt_path}")
    sys.stdout.write(report.text())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advseq",
        description="Conditional adversarial sequence generation with "
                    "rollout rewards, plus its evaluation suite.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn: Callable, about: str, resume_from: str | None):
        p = subs.add_parser(name, help=about)
        p.add_argument("--run-dir", help="run directory (default: $ADVSEQ_RUN_DIR or ./run)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if resume_from:
            p.add_argument("--resume", action="store_true",
                           help=f"continue from the {resume_from} checkpoint")
        p.set_defaults(fn=fn)
        return p

    corpus = command("corpus-gen", cmd_corpus_gen, "generate corpus, vocab, and splits", None)
    corpus.add_argument("--config", help="config file to pin, under --set overrides")
    corpus.add_argument("--preset", default="desk", choices=("desk", "full"),
                        help="baseline defaults before file/--set overrides")
    corpus.add_argument("--seed", type=int, help="shorthand for --set run.seed=N")
    command("pretrain-g", cmd_pretrain_g, "maximum-likelihood generator pretraining",
            "saved pretraining")
    command("pretrain-d", cmd_pretrain_d, "discriminator pretraining", "saved pretraining")
    adv = command("advtrain", cmd_advtrain, "adversarial training", "latest adversarial")
    for p in (corpus, adv):
        p.add_argument("--threads", type=int,
                       help="worker threads for rollout scoring; never changes results")
    sample = command("sample", cmd_sample, "print generated sequences", None)
    sample.add_argument("--n", type=int, default=10, help="number of sequences")
    sample.add_argument("--label", type=int, help="condition label (default: alternate)")
    sample.add_argument("--out", help="write samples here instead of stdout")
    evaluate = command("eval", cmd_eval, "run the evaluation tiers", None)
    evaluate.add_argument("--tier", default="all",
                          choices=("all", "micro", "macro", "application"))
    for p in (sample, evaluate):
        p.add_argument("--ckpt", help="generator checkpoint (default: adversarial, "
                                      "then pretrained)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # mute numpy's float warnings; unlike errstate, the filter reaches pmap threads
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".* encountered in ", RuntimeWarning)
            return args.fn(args)
    except (CliError, ConfigError, GrammarError, DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)  # OSError: a write failed, say on a full disk
        return EXIT_USAGE
    except (MemoryError, ValueError) as e:
        # numpy refuses an array past the machine before taking any, and one
        # past the address space with this ValueError; any other is a bug
        if isinstance(e, ValueError) and not str(e).startswith("array is too big;"):
            raise
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as e:
        print(f"artifact error: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except KeyboardInterrupt:
        print("interrupted; training commands continue with --resume", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

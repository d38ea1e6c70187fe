"""Flat run configuration: `section.key = value` files, presets, overrides.

Precedence is preset < config file < command-line --set pairs. Every key
has a typed schema entry; unknown keys and type mismatches are errors, and
a run refuses to start without an explicit seed. The canonical rendering
is sorted and byte-stable, so its hash can guard checkpoints against being
loaded into a differently-shaped run.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from .adversarial import TrainSchedule
from .discriminators import KINDS, DiscriminatorConfig
from .generator import GeneratorDims


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"expected true or false, got {s!r}")


def _parse_ratios(s: str) -> tuple[float, ...]:
    return tuple(float(p) for p in s.split(","))


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (parser, default); None default marks a required key
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    "run.seed": (int, None),
    "run.threads": (int, 1),
    "corpus.grammar": (str, "overlapping"),
    "corpus.n": (int, 2000),
    "corpus.seq_len": (int, 20),
    "corpus.split": (_parse_ratios, (0.7, 0.1, 0.2)),
    "model.d_embed": (int, 32),
    "model.d_hidden": (int, 32),
    "model.d_label": (int, 8),
    "disc.kind": (str, "cnn"),
    "disc.d_embed": (int, 32),
    "disc.d_hidden": (int, 32),
    "disc.n_filters": (int, 16),
    "disc.n_buckets": (int, 4096),
    "disc.dropout": (float, 0.2),
    "disc.l2": (float, 0.1),
    "embed.window": (int, 2),
    "embed.negatives": (int, 5),
    "embed.epochs": (int, 5),
    "embed.lr": (float, 0.025),
    "pretrain.g_epochs": (int, 100),
    "pretrain.g_lr": (float, 1e-3),
    "pretrain.batch_size": (int, 64),
    "pretrain.patience": (int, 20),
    "pretrain.d_epochs_fasttext": (int, 30),
    "pretrain.d_epochs_cnn": (int, 30),
    "pretrain.d_epochs_birnn": (int, 30),
    "pretrain.d_lr": (float, 1e-3),
    "adv.iterations": (int, 30),
    "adv.g_steps": (int, 5),
    "adv.d_steps": (int, 5),
    "adv.batch_size": (int, 32),
    "adv.rollouts": (int, 8),
    "adv.alpha": (float, 0.8),
    "adv.rescale": (str, "oda"),
    "adv.delta": (float, 12.0),
    "adv.baseline": (_parse_bool, True),
    "adv.teacher_forcing": (_parse_bool, True),
    "adv.g_lr": (float, 1e-4),
    "adv.d_lr": (float, 1e-3),
    "adv.clip": (float, 5.0),
    "eval.n_samples": (int, 200),
    "eval.epochs": (int, 25),
    "eval.seeds": (int, 3),
}

# scaled-down defaults run on a desk in minutes; the full-scale preset
# restores the reference training lengths
PRESETS: dict[str, dict[str, Any]] = {
    "desk": {},
    "full": {
        "corpus.n": 2216,
        "corpus.seq_len": 40,
        "pretrain.g_epochs": 1000,
        "pretrain.d_epochs_fasttext": 500,
        "pretrain.d_epochs_cnn": 100,
        "pretrain.d_epochs_birnn": 100,
        "adv.iterations": 100,
        "adv.batch_size": 64,
    },
}


@dataclass
class RunConfig:
    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def validate(self) -> None:
        if self.values.get("run.seed") is None:
            raise ConfigError("run.seed must be set; refusing to pick one implicitly")
        if self["disc.kind"] not in KINDS:
            raise ConfigError(f"disc.kind must be one of {KINDS}, got {self['disc.kind']!r}")
        try:
            self.schedule().validate()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        split = self["corpus.split"]
        if len(split) != 3 or abs(sum(split) - 1.0) > 1e-9 or any(r < 0 for r in split):
            raise ConfigError(f"corpus.split {split} must be three fractions summing to 1")
        for key in ("corpus.n", "corpus.seq_len", "run.threads", "pretrain.batch_size",
                    "eval.seeds", "model.d_embed", "model.d_hidden", "model.d_label",
                    "disc.d_embed", "disc.d_hidden", "disc.n_filters", "disc.n_buckets",
                    "embed.window"):
            if self[key] < 1:
                raise ConfigError(f"{key} must be positive, got {self[key]}")
        if self["run.threads"] > (cpus := os.cpu_count() or 1):
            raise ConfigError(f"run.threads must be at most {cpus}, this machine's "
                              f"CPU count, got {self['run.threads']}")
        # every eval trains a cnn evaluator with the default filter widths
        if self["corpus.seq_len"] < (w := max(DiscriminatorConfig.widths)):
            raise ConfigError(f"corpus.seq_len must be at least {w}, the widest cnn filter")
        if not 0.0 <= self["disc.dropout"] < 1.0:
            raise ConfigError(f"disc.dropout must lie in [0, 1), got {self['disc.dropout']}")
        for key in ("embed.negatives", "embed.epochs"):
            if self[key] < 0:
                raise ConfigError(f"{key} must be >= 0, got {self[key]}")
        if not (math.isfinite(self["embed.lr"]) and self["embed.lr"] > 0):
            raise ConfigError(f"embed.lr must be finite and positive, got {self['embed.lr']}")
        for key in ("pretrain.g_lr", "pretrain.d_lr", "adv.g_lr", "adv.d_lr"):
            if not (math.isfinite(self[key]) and self[key] >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {self[key]}")
        if not (math.isfinite(self["adv.clip"]) and self["adv.clip"] > 0):
            raise ConfigError(f"adv.clip must be finite and positive, got {self['adv.clip']}")

    # typed views consumed by the training and evaluation code

    def generator_dims(self, vocab_size: int, n_labels: int) -> GeneratorDims:
        return GeneratorDims(vocab_size=vocab_size, n_labels=n_labels,
                             d_embed=self["model.d_embed"],
                             d_hidden=self["model.d_hidden"],
                             d_label=self["model.d_label"])

    def schedule(self) -> TrainSchedule:
        return TrainSchedule(iterations=self["adv.iterations"],
                             g_steps=self["adv.g_steps"],
                             d_steps=self["adv.d_steps"],
                             batch_size=self["adv.batch_size"],
                             rollouts=self["adv.rollouts"],
                             alpha=self["adv.alpha"],
                             rescale=self["adv.rescale"],
                             delta=self["adv.delta"],
                             baseline=self["adv.baseline"],
                             teacher_forcing=self["adv.teacher_forcing"],
                             g_lr=self["adv.g_lr"], d_lr=self["adv.d_lr"],
                             clip=self["adv.clip"])

    def disc_config(self, vocab_size: int, n_labels: int, kind: str) -> DiscriminatorConfig:
        return DiscriminatorConfig(kind=kind,
                                   vocab_size=vocab_size, n_labels=n_labels,
                                   d_embed=self["disc.d_embed"],
                                   d_hidden=self["disc.d_hidden"],
                                   n_filters=self["disc.n_filters"],
                                   n_buckets=self["disc.n_buckets"],
                                   dropout=self["disc.dropout"],
                                   l2=self["disc.l2"])


def _parse_pair(key: str, raw: str, where: str) -> Any:
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _ = SCHEMA[key]
    try:
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from None


def parse_config_text(text: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_pair(key.strip(), value.strip(),
                                       f"config: line {lineno}")
    return out


def make_config(preset: str, file_text: str | None, set_pairs: list[str]) -> RunConfig:
    """Resolve preset, optional file, and --set overrides, then validate."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    values = {key: default for key, (_, default) in SCHEMA.items()}
    values.update(PRESETS[preset])
    if file_text is not None:
        values.update(parse_config_text(file_text))
    for pair in set_pairs:
        if "=" not in pair:
            raise ConfigError(f"--set {pair!r}: expected key=value")
        key, _, value = pair.partition("=")
        values[key.strip()] = _parse_pair(key.strip(), value.strip(), f"--set {pair!r}")
    cfg = RunConfig(values)
    cfg.validate()
    return cfg


def canonical_text(cfg: RunConfig) -> str:
    return "\n".join(f"{k} = {_fmt(cfg.values[k])}" for k in sorted(cfg.values)) + "\n"


_DIGEST_PREFIXES = ("run.seed", "corpus.", "model.", "disc.", "embed.")


def config_digest(cfg: RunConfig, vocab_size: int, n_labels: int) -> bytes:
    """32-byte digest over everything that shapes stored tensors.

    Covers the seed, corpus recipe, and model/discriminator/embedding
    shapes. Schedule keys are left out so training lengths can be extended
    or retuned against existing artifacts, and run.threads is left out
    because worker count must never change results.
    """
    lines = [f"{k} = {_fmt(cfg.values[k])}" for k in sorted(cfg.values)
             if any(k == p or k.startswith(p) for p in _DIGEST_PREFIXES)]
    lines.append(f"vocab_size = {vocab_size}")
    lines.append(f"n_labels = {n_labels}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()

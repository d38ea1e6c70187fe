"""Flat run configuration: `section.key = value` files, presets, overrides.

Precedence is preset < config file < command-line --set pairs. `SCHEMA`
is the one home of each key's parser, default and domain, the set of values
it accepts. Unknown keys and values that do not parse are errors where they
are read; once the three layers are resolved, one loop checks every value
against its domain and refuses the first outside it, naming the key and
the domain, and a run refuses to start without an explicit seed. Checking
resolved values lets a later layer fix an earlier one: `--threads 1` runs a
config pinned with more threads than this machine has. A resolved config
is a plain dict from key to value. The typed views that the training code
takes are filled by one rule, `view`: field f of a view is the setting
`<section>.f` of the view's section in `VIEWS`. The canonical rendering is
sorted and byte-stable, so its hash can guard checkpoints against being
loaded into a differently-shaped run.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import fields
from typing import Any, Callable, NamedTuple

from .adversarial import RESCALE_MODES, TrainSchedule
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


class Domain(NamedTuple):
    """The values a key accepts, as a test that each accepted value passes
    (so NaN, which fails every comparison, fails it), and as the words that
    follow "<key> must" in the error that refuses the others."""
    text: str
    accepts: Callable[[Any], bool]


def _one_of(options: tuple) -> Domain:
    return Domain(f"be one of {options}", lambda v: v in options)


_CPUS = os.cpu_count() or 1
_WIDEST = max(DiscriminatorConfig.widths)
ANY = Domain("be any value", lambda v: True)
POSITIVE = Domain("be positive", lambda v: v > 0)
AT_LEAST_0 = Domain("be >= 0", lambda v: v >= 0)
FINITE_POSITIVE = Domain("be finite and positive", lambda v: 0 < v < math.inf)
FINITE_AT_LEAST_0 = Domain("be finite and >= 0", lambda v: 0 <= v < math.inf)
# RngStream keys every stream by the seed's 8 bytes
SEED = Domain("be a signed 64-bit integer", lambda v: -2**63 <= v < 2**63)
THREADS = Domain(f"be at most {_CPUS}, this machine's CPU count, and positive",
                 lambda v: 0 < v <= _CPUS)
# every eval trains a cnn evaluator with the default filter widths
CNN_WIDTH = Domain(f"be at least {_WIDEST}, the widest cnn filter", lambda v: v >= _WIDEST)
SPLIT = Domain("be three finite fractions >= 0 that sum to 1",
               lambda v: len(v) == 3 and all(0 <= r <= 1 for r in v) and abs(sum(v) - 1) <= 1e-9)

# key -> (parser, default, domain); None default marks a required key, the
# one default outside its domain
SCHEMA: dict[str, tuple[Callable[[str], Any], Any, Domain]] = {
    "run.seed": (int, None, SEED),
    "run.threads": (int, 1, THREADS),
    "corpus.grammar": (str, "overlapping", ANY),
    "corpus.n": (int, 2000, POSITIVE),
    "corpus.seq_len": (int, 20, CNN_WIDTH),
    "corpus.split": (_parse_ratios, (0.7, 0.1, 0.2), SPLIT),
    "model.d_embed": (int, 32, POSITIVE),
    "model.d_hidden": (int, 32, POSITIVE),
    "model.d_label": (int, 8, POSITIVE),
    "disc.kind": (str, "cnn", _one_of(KINDS)),
    "disc.d_embed": (int, 32, POSITIVE),
    "disc.d_hidden": (int, 32, POSITIVE),
    "disc.n_filters": (int, 16, POSITIVE),
    "disc.n_buckets": (int, 4096, POSITIVE),
    "disc.dropout": (float, 0.2, Domain("lie in [0, 1)", lambda v: 0 <= v < 1)),
    "disc.l2": (float, 0.1, FINITE_AT_LEAST_0),
    "embed.window": (int, 2, POSITIVE),
    "embed.negatives": (int, 5, AT_LEAST_0),
    "embed.epochs": (int, 5, AT_LEAST_0),
    "embed.lr": (float, 0.025, FINITE_POSITIVE),
    "pretrain.g_epochs": (int, 100, AT_LEAST_0),
    "pretrain.g_lr": (float, 1e-3, FINITE_AT_LEAST_0),
    "pretrain.batch_size": (int, 64, POSITIVE),
    "pretrain.patience": (int, 20, POSITIVE),
    "pretrain.d_epochs_fasttext": (int, 30, AT_LEAST_0),
    "pretrain.d_epochs_cnn": (int, 30, AT_LEAST_0),
    "pretrain.d_epochs_birnn": (int, 30, AT_LEAST_0),
    "pretrain.d_lr": (float, 1e-3, FINITE_AT_LEAST_0),
    "adv.iterations": (int, 30, AT_LEAST_0),
    "adv.g_steps": (int, 5, POSITIVE),
    "adv.d_steps": (int, 5, POSITIVE),
    "adv.batch_size": (int, 32, POSITIVE),
    "adv.rollouts": (int, 8, POSITIVE),
    "adv.alpha": (float, 0.8, Domain("lie in [0, 1]", lambda v: 0 <= v <= 1)),
    "adv.rescale": (str, "oda", _one_of(RESCALE_MODES)),
    "adv.delta": (float, 12.0, FINITE_POSITIVE),
    "adv.baseline": (_parse_bool, True, ANY),
    "adv.teacher_forcing": (_parse_bool, True, ANY),
    "adv.g_lr": (float, 1e-4, FINITE_AT_LEAST_0),
    "adv.d_lr": (float, 1e-3, FINITE_AT_LEAST_0),
    "adv.clip": (float, 5.0, FINITE_POSITIVE),
    "eval.n_samples": (int, 200, AT_LEAST_0),
    "eval.epochs": (int, 25, AT_LEAST_0),
    "eval.seeds": (int, 3, POSITIVE),
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


# each typed view and its section: `view` fills field f from `<section>.f`
VIEWS: dict[type, str] = {GeneratorDims: "model", TrainSchedule: "adv",
                          DiscriminatorConfig: "disc"}


def view(cfg: dict[str, Any], cls: type, **given: Any) -> Any:
    """`cls` with each field not `given` set from `<section>.<field>`, its
    section from VIEWS; a field with no such setting keeps its default."""
    section = VIEWS[cls]
    return cls(**{f.name: cfg[f"{section}.{f.name}"] for f in fields(cls)
                  if f.name not in given and f"{section}.{f.name}" in cfg}, **given)


def _parse_pair(key: str, raw: str, where: str) -> Any:
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _, _ = SCHEMA[key]
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


def make_config(preset: str, file_text: str | None, set_pairs: list[str]) -> dict[str, Any]:
    """Every key's value from preset, optional file, and --set overrides,
    each checked against its key's domain."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    values.update(PRESETS[preset])
    if file_text is not None:
        values.update(parse_config_text(file_text))
    for pair in set_pairs:
        if "=" not in pair:
            raise ConfigError(f"--set {pair!r}: expected key=value")
        key, _, value = pair.partition("=")
        values[key.strip()] = _parse_pair(key.strip(), value.strip(), f"--set {pair!r}")
    if values["run.seed"] is None:
        raise ConfigError("run.seed must be set; refusing to pick one implicitly")
    for key, (_, _, domain) in SCHEMA.items():
        if not domain.accepts(values[key]):
            raise ConfigError(f"{key} must {domain.text}, got {_fmt(values[key])}")
    return values


def canonical_text(cfg: dict[str, Any]) -> str:
    return "\n".join(f"{k} = {_fmt(cfg[k])}" for k in sorted(cfg)) + "\n"


_DIGEST_PREFIXES = ("run.seed", "corpus.", "model.", "disc.", "embed.")


def config_digest(cfg: dict[str, Any], vocab_size: int, n_labels: int) -> bytes:
    """32-byte digest over everything that shapes stored tensors.

    Covers the seed, corpus recipe, and model/discriminator/embedding
    shapes. Schedule keys are left out so training lengths can be extended
    or retuned against existing artifacts, and run.threads is left out
    because worker count must never change results.
    """
    lines = [f"{k} = {_fmt(cfg[k])}" for k in sorted(cfg)
             if any(k == p or k.startswith(p) for p in _DIGEST_PREFIXES)]
    lines.append(f"vocab_size = {vocab_size}")
    lines.append(f"n_labels = {n_labels}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()

"""Tokenized labeled corpora: vocabulary, padding, splits, and file I/O.

Token id 0 is the begin marker fed to the generator at the first step and
id 1 is the shared pad/unknown id; both are excluded from losses and text
metrics downstream. Sequences are stored as fixed-width int arrays of
length `seq_len` with trailing pads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grammar import BOS_TOKEN, PAD_TOKEN, GrammarSpec, sample_sequence
from .numerics import RngStream

BOS_ID = 0
PAD_ID = 1


class DataError(ValueError):
    """Malformed corpus content or an unusable split request."""


class Vocab:
    """Bidirectional token <-> id map with fixed reserved entries."""

    def __init__(self, tokens: list[str]):
        if tokens[:2] != [BOS_TOKEN, PAD_TOKEN]:
            raise DataError("vocabulary must start with the reserved begin and pad tokens")
        if len(set(tokens)) != len(tokens):
            raise DataError("vocabulary contains duplicate tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        """Build from corpus tokens: reserved entries first, rest sorted."""
        body = sorted(set(tokens) - {BOS_TOKEN, PAD_TOKEN})
        return cls([BOS_TOKEN, PAD_TOKEN] + body)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        # unknown tokens collapse onto the pad id
        return self.token_to_id.get(token, PAD_ID)

    def decode_id(self, idx: int) -> str:
        return self.id_to_token[idx]


class SequenceData:
    """A batchable array of same-length labeled sequences."""

    def __init__(self, tokens: np.ndarray, labels: np.ndarray):
        tokens = np.asarray(tokens, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if tokens.ndim != 2 or labels.ndim != 1 or tokens.shape[0] != labels.shape[0]:
            raise DataError(
                f"tokens {tokens.shape} and labels {labels.shape} do not align")
        self.tokens = tokens
        self.labels = labels

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[1]

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def subset(self, indices) -> "SequenceData":
        idx = np.asarray(indices, dtype=np.int64)
        return SequenceData(self.tokens[idx], self.labels[idx])

    def n_labels(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    @staticmethod
    def concat(parts: list["SequenceData"]) -> "SequenceData":
        return SequenceData(np.concatenate([p.tokens for p in parts], axis=0),
                            np.concatenate([p.labels for p in parts], axis=0))


def encode_sequences(rows: list[tuple[int, list[str]]], vocab: Vocab,
                     seq_len: int) -> tuple["SequenceData", int]:
    """Map (label, tokens) rows to padded id arrays.

    Returns the data plus a count of out-of-vocabulary tokens that were
    collapsed onto the pad id.
    """
    n = len(rows)
    tokens = np.full((n, seq_len), PAD_ID, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    unknown = 0
    for i, (label, toks) in enumerate(rows):
        labels[i] = label
        for j, tok in enumerate(toks[:seq_len]):
            tid = vocab.encode_token(tok)
            if tid == PAD_ID and tok != PAD_TOKEN:
                unknown += 1
            tokens[i, j] = tid
    return SequenceData(tokens, labels), unknown


def decode_sequence(ids: np.ndarray, vocab: Vocab, strip_pad: bool) -> list[str]:
    toks = [vocab.decode_id(int(i)) for i in ids]
    if strip_pad:
        toks = [t for t in toks if t != PAD_TOKEN]
    return toks


def generate_corpus(spec: GrammarSpec, n: int, rng: RngStream
                    ) -> tuple["SequenceData", Vocab]:
    """Sample n labeled sequences from a grammar, one child stream per item."""
    vocab = Vocab.from_tokens(spec.token_set())
    rows = [sample_sequence(spec, rng.child(i)) for i in range(n)]
    data, unknown = encode_sequences(rows, vocab, spec.seq_len)
    if unknown:
        raise DataError(f"grammar emitted {unknown} tokens missing from the vocabulary")
    return data, vocab


def dedupe(data: SequenceData) -> SequenceData:
    """Drop exact (label, tokens) repeats, keeping first occurrences."""
    seen: set[bytes] = set()
    keep: list[int] = []
    for i in range(len(data)):
        key = data.labels[i].tobytes() + data.tokens[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return data.subset(keep)


@dataclass
class SplitDataset:
    train: SequenceData
    valid: SequenceData
    test: SequenceData


def split_corpus(data: SequenceData, ratios: tuple[float, float, float],
                 rng: RngStream) -> SplitDataset:
    """Label-stratified shuffle split after removing duplicate rows.

    Duplicates are removed first so no identical sequence can land in two
    splits. Refuses fewer than 10 rows, and ratios that leave a split empty.
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise DataError(f"split ratios {ratios} must be nonnegative and sum to 1")
    data = dedupe(data)
    if len(data) < 10:
        raise DataError(f"corpus has {len(data)} unique rows; need at least 10 to split")
    parts: list[list[int]] = [[], [], []]
    for label in range(data.n_labels()):
        idx = np.flatnonzero(data.labels == label)
        idx = idx[rng.child("split", label).permutation(len(idx))]
        bounds = np.round(np.cumsum(ratios) * len(idx)).astype(int)
        parts[0].extend(idx[:bounds[0]])
        parts[1].extend(idx[bounds[0]:bounds[1]])
        parts[2].extend(idx[bounds[1]:bounds[2]])
    if empty := [name for name, p in zip(("train", "valid", "test"), parts) if not p]:
        raise DataError(f"split {ratios} leaves the {' and '.join(empty)} split empty")
    subsets = [data.subset(sorted(p)) for p in parts]
    return SplitDataset(*subsets)


# ---------------------------------------------------------------------------
# Files: one sequence per line, `label<TAB>tok tok tok`
# ---------------------------------------------------------------------------


def write_corpus(path, data: SequenceData, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(data)):
            toks = decode_sequence(data.tokens[i], vocab, strip_pad=True)
            fh.write(f"{int(data.labels[i])}\t{' '.join(toks)}\n")


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from None


def read_corpus(path, vocab: Vocab, seq_len: int) -> tuple["SequenceData", int]:
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"{path}: line {lineno}: expected label<TAB>tokens")
        head, _, body = line.partition("\t")
        try:
            label = int(head)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad label {head!r}") from None
        if label < 0:
            raise DataError(f"{path}: line {lineno}: negative label")
        toks = body.split()
        if len(toks) > seq_len:
            raise DataError(f"{path}: line {lineno}: {len(toks)} tokens, longer than "
                            f"corpus.seq_len = {seq_len}")
        rows.append((label, toks))
    return encode_sequences(rows, vocab, seq_len)


def write_vocab(path, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.id_to_token:
            fh.write(tok + "\n")


def read_vocab(path) -> Vocab:
    tokens = [line for line in _read_lines(path) if line]
    try:
        return Vocab(tokens)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None

"""Tokenized labeled corpora: vocabulary, padding, splits, and file I/O.

Token id 0 is the begin marker fed to the generator at the first step and
id 1 is the shared pad/unknown id; both are excluded from losses and text
metrics downstream. Sequences are stored as fixed-width int arrays of
length `seq_len` with trailing pads. Generated rows and each line of a
corpus file go straight into that array; files are written whole through
`checkpoint.write_atomic`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import write_atomic
from .grammar import BOS_TOKEN, PAD_TOKEN, GrammarSpec, sample_rows
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


def decode_sequence(ids: np.ndarray, vocab: Vocab) -> list[str]:
    return [vocab.decode_id(int(i)) for i in ids]


def generate_corpus(spec: GrammarSpec, n: int, rng: RngStream
                    ) -> tuple["SequenceData", Vocab]:
    """Sample n labeled sequences from a grammar. Row i takes its label,
    template and slot uniforms from child stream i, so no row depends on
    n or on the others; `grammar.sample_rows` draws all rows at once."""
    vocab = Vocab.from_tokens(spec.token_set())
    u = np.array([rng.child(i).uniform(2 + spec.seq_len) for i in range(n)])
    labels, tokens = sample_rows(spec, u.reshape(n, 2 + spec.seq_len), vocab.token_to_id)
    return SequenceData(tokens, labels), vocab


def dedupe(data: SequenceData) -> SequenceData:
    """Drop exact (label, tokens) repeats, keeping first occurrences."""
    _, first = np.unique(np.column_stack([data.labels, data.tokens]), axis=0,
                         return_index=True)
    return data.subset(np.sort(first))


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
    words = vocab.id_to_token
    lines = [f"{label}\t{' '.join(words[t] for t in row if t != PAD_ID)}\n"
             for label, row in zip(data.labels.tolist(), data.tokens.tolist())]
    write_atomic(path, "".join(lines).encode("utf-8"))


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from None


def read_corpus(path, vocab: Vocab, seq_len: int) -> tuple["SequenceData", int]:
    """Parse a corpus file into ids line by line; also returns the count of
    tokens outside the vocabulary, which become the pad id."""
    lines = _read_lines(path)
    tokens = np.full((len(lines), seq_len), PAD_ID, dtype=np.int64)
    labels = np.zeros(len(lines), dtype=np.int64)
    n = unknown = 0
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"{path}: line {lineno}: expected label<TAB>tokens")
        head, _, body = line.partition("\t")
        try:
            labels[n] = label = int(head)
        except (ValueError, OverflowError):  # no int, or none that int64 holds
            raise DataError(f"{path}: line {lineno}: bad label {head!r}") from None
        if label < 0:
            raise DataError(f"{path}: line {lineno}: negative label")
        toks = body.split()
        if len(toks) > seq_len:
            raise DataError(f"{path}: line {lineno}: {len(toks)} tokens, longer than "
                            f"corpus.seq_len = {seq_len}")
        ids = [vocab.encode_token(tok) for tok in toks]
        unknown += ids.count(PAD_ID) - toks.count(PAD_TOKEN)
        tokens[n, :len(ids)] = ids
        n += 1
    return SequenceData(tokens[:n], labels[:n]), unknown


def write_vocab(path, vocab: Vocab) -> None:
    write_atomic(path, "".join(tok + "\n" for tok in vocab.id_to_token).encode("utf-8"))


def read_vocab(path) -> Vocab:
    tokens = [line for line in _read_lines(path) if line]
    try:
        return Vocab(tokens)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None

"""Label-conditioned template grammars for synthetic corpora.

A grammar holds, per condition label, a weighted list of templates; each
template is a sequence of slots and each slot is a categorical distribution
over tokens. Because the generating process is fully known, the per-label
entropy is available in closed form, which gives training code a
ground-truth convergence target.

Grammar files are flat structured text:

    separable = false
    seq_len = 20

    [label 0]
    prior = 0.5
    [template weight = 0.5]
    slot = daynote
    slot = calm | tense | tired

A slot line lists tokens separated by `|`; each token may carry an explicit
probability (`calm 0.25 | tense 0.75`), otherwise the slot is uniform.

`sample_rows` draws a whole corpus at once, each cumulative table built
once and searched for all the rows that reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BOS_TOKEN = "<bos>"
PAD_TOKEN = "<pad>"
RESERVED_TOKENS = (BOS_TOKEN, PAD_TOKEN)

PROB_TOL = 1e-9


class GrammarError(ValueError):
    """Invalid grammar content; message carries a line number when parsed."""


@dataclass
class Slot:
    tokens: tuple[str, ...]
    probs: np.ndarray  # aligned with tokens, sums to 1

    def entropy(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())

    def support(self) -> frozenset[str]:
        return frozenset(t for t, p in zip(self.tokens, self.probs) if p > 0)


def uniform_slot(*tokens: str) -> Slot:
    n = len(tokens)
    return Slot(tuple(tokens), np.full(n, 1.0 / n))


@dataclass
class Template:
    weight: float
    slots: list[Slot]


@dataclass
class GrammarSpec:
    seq_len: int
    labels: dict[int, list[Template]]
    separable: bool
    priors: dict[int, float] = field(default_factory=dict)

    def label_ids(self) -> list[int]:
        return sorted(self.labels)

    def label_prior(self, label: int) -> float:
        if self.priors:
            return self.priors[label]
        return 1.0 / len(self.labels)

    def token_set(self) -> list[str]:
        seen: set[str] = set()
        for templates in self.labels.values():
            for t in templates:
                for slot in t.slots:
                    seen.update(slot.tokens)
        return sorted(seen)

    def exclusive_tokens(self, label: int) -> set[str]:
        """Tokens that appear in this label's templates and in no other's."""
        mine: set[str] = set()
        for t in self.labels[label]:
            for slot in t.slots:
                mine.update(slot.support())
        for other, templates in self.labels.items():
            if other == label:
                continue
            for t in templates:
                for slot in t.slots:
                    mine -= slot.support()
        return mine

    def validate(self) -> None:
        if self.seq_len < 1:
            raise GrammarError("seq_len must be at least 1")
        if sorted(self.labels) != list(range(len(self.labels))):
            raise GrammarError("labels must be consecutive integers from 0")
        if len(self.labels) < 1:
            raise GrammarError("grammar declares no labels")
        if self.priors:
            if sorted(self.priors) != sorted(self.labels):
                raise GrammarError("label priors must cover every label or none")
            total = sum(self.priors.values())
            if abs(total - 1.0) > PROB_TOL:
                raise GrammarError(f"label priors sum to {total!r}, expected 1")
        for label, templates in self.labels.items():
            if not templates:
                raise GrammarError(f"label {label} has no templates")
            wsum = sum(t.weight for t in templates)
            if abs(wsum - 1.0) > PROB_TOL:
                raise GrammarError(
                    f"template weights for label {label} sum to {wsum!r}, expected 1")
            for ti, t in enumerate(templates):
                if t.weight <= 0:
                    raise GrammarError(f"label {label} template {ti}: weight must be positive")
                if not t.slots or len(t.slots) > self.seq_len:
                    raise GrammarError(
                        f"label {label} template {ti}: needs 1..{self.seq_len} slots")
                for si, slot in enumerate(t.slots):
                    self._validate_slot(slot, f"label {label} template {ti} slot {si}")
        if self.separable:
            self._validate_separable()

    @staticmethod
    def _validate_slot(slot: Slot, where: str) -> None:
        if len(slot.tokens) == 0:
            raise GrammarError(f"{where}: empty slot")
        if len(set(slot.tokens)) != len(slot.tokens):
            raise GrammarError(f"{where}: duplicate token in slot")
        for tok in slot.tokens:
            if tok in RESERVED_TOKENS:
                raise GrammarError(f"{where}: reserved token {tok!r} cannot appear in a slot")
            if not tok or any(ch.isspace() for ch in tok) or "|" in tok:
                raise GrammarError(f"{where}: malformed token {tok!r}")
        if np.any(slot.probs <= 0):
            raise GrammarError(f"{where}: probabilities must be positive")
        total = float(slot.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise GrammarError(f"{where}: probabilities sum to {total!r}, expected 1")

    def _validate_separable(self) -> None:
        # every template must pin at least one slot entirely on tokens that
        # no other label ever emits, so a unigram presence rule separates
        # the labels perfectly
        for label, templates in self.labels.items():
            exclusive = self.exclusive_tokens(label)
            for ti, t in enumerate(templates):
                if not any(slot.support() <= exclusive for slot in t.slots):
                    raise GrammarError(
                        f"separable grammar: label {label} template {ti} has no "
                        f"slot made only of label-exclusive tokens")

    # ------------------------------------------------------------------
    # Exact quantities
    # ------------------------------------------------------------------

    def _check_identifiable(self, label: int) -> None:
        """Entropy decomposes only when templates never produce a common
        sequence; require a slot position with disjoint supports (padding
        counts as a deterministic PAD slot)."""
        templates = self.labels[label]
        for i in range(len(templates)):
            for j in range(i + 1, len(templates)):
                a, b = templates[i], templates[j]
                if len(a.slots) != len(b.slots):
                    continue  # pad tail differs, outputs disjoint
                if not any(sa.support().isdisjoint(sb.support())
                           for sa, sb in zip(a.slots, b.slots)):
                    raise GrammarError(
                        f"label {label}: templates {i} and {j} may overlap; "
                        f"exact entropy undefined by decomposition")

    def label_entropy(self, label: int) -> float:
        """Exact entropy (nats) of the per-label sequence distribution."""
        self._check_identifiable(label)
        templates = self.labels[label]
        h = 0.0
        for t in templates:
            h += -t.weight * math.log(t.weight)
            h += t.weight * sum(slot.entropy() for slot in t.slots)
        return h

    def conditional_entropy(self) -> float:
        """Entropy of sequences given the label, averaged over label priors."""
        return sum(self.label_prior(lb) * self.label_entropy(lb) for lb in self.labels)


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------


def _parse_slot_line(body: str, lineno: int) -> Slot:
    parts = [p.strip() for p in body.split("|")]
    tokens: list[str] = []
    probs: list[float | None] = []
    for part in parts:
        if not part:
            raise GrammarError(f"line {lineno}: empty slot entry")
        fields = part.split()
        if len(fields) == 1:
            tokens.append(fields[0])
            probs.append(None)
        elif len(fields) == 2:
            tokens.append(fields[0])
            try:
                probs.append(float(fields[1]))
            except ValueError:
                raise GrammarError(f"line {lineno}: bad probability {fields[1]!r}") from None
        else:
            raise GrammarError(f"line {lineno}: slot entry {part!r} has too many fields")
    if all(p is None for p in probs):
        arr = np.full(len(tokens), 1.0 / len(tokens))
    elif any(p is None for p in probs):
        raise GrammarError(f"line {lineno}: mix of explicit and implicit probabilities")
    else:
        arr = np.asarray(probs, dtype=np.float64)
    slot = Slot(tuple(tokens), arr)
    try:
        GrammarSpec._validate_slot(slot, "slot")
    except GrammarError as e:
        raise GrammarError(f"line {lineno}: {e}") from None
    return slot


def parse_grammar(text: str) -> GrammarSpec:
    """Parse grammar text; errors cite 1-based line numbers."""
    seq_len: int | None = None
    separable = False
    labels: dict[int, list[Template]] = {}
    priors: dict[int, float] = {}
    cur_label: int | None = None
    cur_template: Template | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[label"):
            inner = line.strip("[]").strip()
            fields = inner.split()
            if len(fields) != 2:
                raise GrammarError(f"line {lineno}: expected [label N]")
            try:
                cur_label = int(fields[1])
            except ValueError:
                raise GrammarError(f"line {lineno}: bad label id {fields[1]!r}") from None
            if cur_label in labels:
                raise GrammarError(f"line {lineno}: duplicate label {cur_label}")
            labels[cur_label] = []
            cur_template = None
        elif line.startswith("[template"):
            if cur_label is None:
                raise GrammarError(f"line {lineno}: template outside any label block")
            inner = line.strip("[]").strip()
            fields = inner.replace("=", " ").split()
            if len(fields) != 3 or fields[1] != "weight":
                raise GrammarError(f"line {lineno}: expected [template weight = W]")
            try:
                weight = float(fields[2])
            except ValueError:
                raise GrammarError(f"line {lineno}: bad template weight {fields[2]!r}") from None
            cur_template = Template(weight, [])
            labels[cur_label].append(cur_template)
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "slot":
                if cur_template is None:
                    raise GrammarError(f"line {lineno}: slot outside any template block")
                cur_template.slots.append(_parse_slot_line(value, lineno))
            elif key == "seq_len":
                try:
                    seq_len = int(value)
                except ValueError:
                    raise GrammarError(f"line {lineno}: bad seq_len {value!r}") from None
            elif key == "separable":
                if value not in ("true", "false"):
                    raise GrammarError(f"line {lineno}: separable must be true or false")
                separable = value == "true"
            elif key == "prior":
                if cur_label is None:
                    raise GrammarError(f"line {lineno}: prior outside any label block")
                try:
                    priors[cur_label] = float(value)
                except ValueError:
                    raise GrammarError(f"line {lineno}: bad prior {value!r}") from None
            else:
                raise GrammarError(f"line {lineno}: unknown key {key!r}")
        else:
            raise GrammarError(f"line {lineno}: cannot parse {line!r}")

    if seq_len is None:
        raise GrammarError("grammar never sets seq_len")
    spec = GrammarSpec(seq_len=seq_len, labels=labels, priors=priors, separable=separable)
    spec.validate()
    return spec


def load_grammar(path) -> GrammarSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise GrammarError(f"cannot read grammar file {path}: {e}") from None
    return parse_grammar(text)


def format_grammar(spec: GrammarSpec) -> str:
    """Render a grammar back to its file form (uniform slots stay implicit)."""
    lines = [f"separable = {'true' if spec.separable else 'false'}",
             f"seq_len = {spec.seq_len}", ""]
    for label in spec.label_ids():
        lines.append(f"[label {label}]")
        if spec.priors:
            lines.append(f"prior = {spec.priors[label]!r}")
        for t in spec.labels[label]:
            lines.append(f"[template weight = {t.weight!r}]")
            for slot in t.slots:
                if np.allclose(slot.probs, slot.probs[0]):
                    lines.append("slot = " + " | ".join(slot.tokens))
                else:
                    lines.append("slot = " + " | ".join(
                        f"{tok} {float(p)!r}" for tok, p in zip(slot.tokens, slot.probs)))
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The entry of a cumulative table that each uniform falls in. Clamped
    to the last entry, since a table's total may end just below 1."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def sample_rows(spec: GrammarSpec, u: np.ndarray, token_id: dict[str, int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """One row per line of the (n, 2 + seq_len) uniforms `u`: column 0 picks
    the label, 1 its template, 2 + s the token of slot s. Returns (n,) labels
    and (n, seq_len) ids under `token_id`, PAD past a template's slots; each
    cumulative table is built once for all the rows that reach it."""
    priors = np.cumsum([spec.label_prior(lb) for lb in spec.label_ids()])
    labels = _pick(priors, u[:, 0])  # label ids are 0..L-1, by validation
    ids = np.full((len(u), spec.seq_len), token_id[PAD_TOKEN], dtype=np.int64)
    for label, templates in spec.labels.items():
        rows = np.flatnonzero(labels == label)
        picked = _pick(np.cumsum([t.weight for t in templates]), u[rows, 1])
        for ti, template in enumerate(templates):
            sel = rows[picked == ti]
            for si, slot in enumerate(template.slots):
                tokens = np.array([token_id[tok] for tok in slot.tokens])
                ids[sel, si] = tokens[_pick(np.cumsum(slot.probs), u[sel, 2 + si])]
    return labels, ids


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------

_CONTENT_POOLS = [
    ("calm", "tense", "tired", "alert"),
    ("warm", "cool", "damp", "dry"),
    ("walking", "resting", "reading", "talking"),
    ("morning", "midday", "evening", "dusk"),
    ("slowly", "gently", "quickly", "sharply"),
    ("kitchen", "garden", "office", "hall"),
    ("tea", "water", "juice", "broth"),
    ("briefly", "often", "rarely", "twice"),
    ("settled", "restless", "quiet", "busy"),
    ("steady", "uneven", "light", "heavy"),
]


def overlapping_preset(seq_len: int = 20) -> GrammarSpec:
    """Shared vocabulary, label-dependent slot distributions.

    Every stochastic slot is uniform over a 3-token window of a 4-token
    pool; label 0 uses tokens 0..2 and label 1 uses 1..3, so supports
    overlap in two tokens. All templates carry the same entropy, making the
    exact per-sequence NLL constant and equal to the label entropy.
    """
    if seq_len < 20:
        raise GrammarError("overlapping preset needs seq_len >= 20")
    frames = ("daynote", "nightnote")
    connectives = {
        "daynote": ("subject", "felt", "then", "with", "and",
                    "after", "during", "before", "under"),
        "nightnote": ("observer", "seemed", "later", "amid", "plus",
                      "toward", "around", "beyond", "against"),
    }

    def build_label(label: int) -> list[Template]:
        lo = 0 if label == 0 else 1
        templates = []
        for frame in frames:
            slots: list[Slot] = [uniform_slot(frame)]
            for j in range(9):
                slots.append(uniform_slot(connectives[frame][j]))
                slots.append(uniform_slot(*_CONTENT_POOLS[j][lo:lo + 3]))
            slots.append(uniform_slot(*_CONTENT_POOLS[9][lo:lo + 3]))
            while len(slots) < seq_len:
                slots.append(uniform_slot("rest"))
            templates.append(Template(0.5, slots))
        return templates

    spec = GrammarSpec(seq_len=seq_len,
                       labels={0: build_label(0), 1: build_label(1)},
                       separable=False)
    spec.validate()
    return spec


def separable_preset(seq_len: int = 20) -> GrammarSpec:
    """Disjoint label-marker tokens for application-level checks."""
    if seq_len < 20:
        raise GrammarError("separable preset needs seq_len >= 20")
    subj = ("patient", "client", "resident")
    time = ("today", "yesterday", "recently", "overnight")
    sev = ("mild", "moderate", "marked")
    deg = ("slightly", "notably", "sharply")
    dur = ("hours", "days", "weeks")
    num = ("two", "three", "four", "five")
    qual = ("stable", "improving", "variable")
    markers = {
        0: (("cough", "fever", "wheeze", "congestion"), ("breathless", "hoarse")),
        1: (("fracture", "sprain", "bruise", "swelling"), ("limping", "guarded")),
    }
    closer = {0: ("fluids", "home"), 1: ("support", "clinic")}

    def build_label(label: int) -> list[Template]:
        m_main, m_alt = markers[label]
        intake = [
            uniform_slot("intake"), uniform_slot(*subj), uniform_slot("arrived"),
            uniform_slot(*time), uniform_slot("reporting"), uniform_slot(*sev),
            uniform_slot(*m_main), uniform_slot("and"), uniform_slot(*m_main),
            uniform_slot("for"), uniform_slot(*num), uniform_slot(*dur),
            uniform_slot("overall"), uniform_slot("condition"), uniform_slot(*qual),
            uniform_slot("plan"), uniform_slot("rest"), uniform_slot("and"),
            uniform_slot(closer[label][0]), uniform_slot("advised"),
        ]
        followup = [
            uniform_slot("followup"), uniform_slot(*subj), uniform_slot("returned"),
            uniform_slot(*time), uniform_slot("noting"), uniform_slot(*deg),
            uniform_slot("reduced"), uniform_slot(*m_main), uniform_slot("though"),
            uniform_slot(*m_alt), uniform_slot("persists"), uniform_slot("after"),
            uniform_slot(*num), uniform_slot(*dur), uniform_slot("condition"),
            uniform_slot(*qual), uniform_slot("continue"), uniform_slot("care"),
            uniform_slot("at"), uniform_slot(closer[label][1]),
        ]
        for slots in (intake, followup):
            while len(slots) < seq_len:
                slots.append(uniform_slot("rest"))
        return [Template(0.5, intake), Template(0.5, followup)]

    spec = GrammarSpec(seq_len=seq_len,
                       labels={0: build_label(0), 1: build_label(1)},
                       separable=True)
    spec.validate()
    return spec


GRAMMAR_PRESETS = {
    "separable": separable_preset,
    "overlapping": overlapping_preset,
}


def resolve_grammar(name_or_path: str, seq_len: int) -> GrammarSpec:
    """Build a preset by name at `seq_len`, or parse a grammar file from
    disk, refusing one whose rows could be longer than `seq_len`."""
    if name_or_path in GRAMMAR_PRESETS:
        return GRAMMAR_PRESETS[name_or_path](seq_len)
    spec = load_grammar(name_or_path)
    if spec.seq_len > seq_len:
        raise GrammarError(f"grammar file {name_or_path} sets seq_len = {spec.seq_len}, "
                           f"longer than corpus.seq_len = {seq_len}")
    return spec

"""Three evaluation tiers for conditional sequence generators.

Micro: held-out negative log-likelihood and n-gram statistics (BLEU
against references, self-BLEU among samples for diversity).

Macro: adversarial evaluation. A fresh convolutional evaluator is trained
to separate held-out real text from generated text; the generator's score
is the evaluator's error rate on a balanced held-out set. Because a weak
or broken evaluator would make that number meaningless, three reliability
probes report how far the evaluator is from its ideal accuracy on rigged
inputs: real-vs-real and generated-vs-generated should sit at chance,
real-vs-random-tokens should be perfectly separable.

Application: train a label classifier on real data, on generated data,
and on their union, then compare test accuracies, measuring whether
generated text can stand in for (or augment) real training data.

Macro and application numbers are reported as the median over several
evaluator seeds, since single evaluator trainings are noisy. Every
evaluator is a fresh cnn of `dcfg`, the run's discriminator config of kind
cnn, trained for `epochs` epochs over a frozen skip-gram table of its own
training rows, trained with the fixed settings of `EVAL_EMBED` and not
the run's embed.* keys. Each probe sets its own n_labels, n_out and
use_condition: the scoring probes a sigmoid head that sees the label, the
label classifier a softmax head over the labels that does not. So the
values `dcfg` carries for these three are never read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import PAD_ID, DataError, SequenceData
from .discriminators import (Discriminator, DiscriminatorConfig, class_probs,
                             init_discriminator, score, train_step)
from .embeddings import pretrain_embeddings
from .generator import GeneratorDims, mean_nll, sample_batch
from .numerics import AdamState, ParamStore, RngStream, chunk_slices

BLEU_EPS = 1e-9


def strip_pads(row: Sequence[int]) -> tuple[int, ...]:
    return tuple(int(t) for t in row if int(t) != PAD_ID)


def ngrams(seq: Sequence, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _sentence_bleu(candidate: Sequence, max_ref: Mapping[tuple, int],
                   ref_lengths: list[int], max_n: int) -> float:
    """BLEU of one candidate from each n-gram's highest count in any reference
    (keyed by the gram, so by n too) and the sorted distinct reference lengths.

    Modified precisions are clipped by those counts for n = 1..max_n, and a
    zero precision (an empty n-gram set too) is replaced by BLEU_EPS before the
    geometric mean. The brevity penalty uses the reference length closest to
    the candidate, shorter on ties. Inputs must already have pads removed.
    """
    c = len(candidate)
    if c == 0:
        return 0.0
    log_precisions = 0.0
    for n in range(1, max_n + 1):
        cand_counts = ngrams(candidate, n)
        total = sum(cand_counts.values())
        if total == 0:
            log_precisions += math.log(BLEU_EPS)
            continue
        matched = sum(min(count, max_ref.get(gram, 0))
                      for gram, count in cand_counts.items())
        p_n = matched / total
        log_precisions += math.log(p_n) if p_n > 0 else math.log(BLEU_EPS)
    k = bisect_left(ref_lengths, c)
    r = min(ref_lengths[max(k - 1, 0):k + 1], key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_precisions / max_n)


def _reference_table(references: list[Sequence], max_n: int
                     ) -> tuple[dict[tuple, int], list[int]]:
    """Highest count of every n-gram (n = 1..max_n) in any reference, and
    the sorted distinct reference lengths."""
    if not references:
        raise ValueError("bleu needs at least one reference")
    max_ref: dict[tuple, int] = {}
    for ref in references:
        for n in range(1, max_n + 1):
            for gram, count in ngrams(ref, n).items():
                if count > max_ref.get(gram, 0):
                    max_ref[gram] = count
    return max_ref, sorted({len(ref) for ref in references})


def self_bleu(samples: list[Sequence], max_n: int = 4) -> float:
    """Mean BLEU of each sample against all the others; high values mean
    the sample set repeats itself. Each n-gram's two highest counts over
    the samples give its maximum over all samples but any one."""
    if len(samples) < 2:
        raise ValueError("self-BLEU needs at least two samples")
    counts = [{gram: k for n in range(1, max_n + 1)
               for gram, k in ngrams(s, n).items()} for s in samples]
    held: dict[tuple, list[int]] = {}
    for own in counts:
        for gram, k in own.items():
            held.setdefault(gram, [0]).append(k)
    top2 = {gram: sorted(ks)[-2:] for gram, ks in held.items()}  # [second, top]
    lengths = Counter(len(s) for s in samples)
    scores = []
    for s, own in zip(samples, counts):
        others = {gram: top2[gram][0] if k == top2[gram][1] else top2[gram][1]
                  for gram, k in own.items()}
        scores.append(_sentence_bleu(s, others, sorted(lengths - Counter([len(s)])),
                                     max_n))
    return float(np.mean(scores))


def corpus_bleu_mean(samples: list[Sequence], references: list[Sequence],
                     max_n: int = 4) -> float:
    """Mean sentence BLEU of the samples, references counted once."""
    max_ref, ref_lengths = _reference_table(references, max_n)
    return float(np.mean([_sentence_bleu(s, max_ref, ref_lengths, max_n)
                          for s in samples]))


# ---------------------------------------------------------------------------
# Macro tier: adversarial evaluation
# ---------------------------------------------------------------------------


EVAL_BATCH_SIZE = 64
EVAL_LR = 1e-3
# skip-gram settings for each evaluator's table, whatever the run's embed.* keys
EVAL_EMBED = {"epochs": 3, "window": 2, "negatives": 5, "lr": 0.025}


def _train_cnn(tokens: np.ndarray, labels: np.ndarray | None,
               targets: np.ndarray, cfg: DiscriminatorConfig, epochs: int,
               rng: RngStream) -> Discriminator:
    """Fit a fresh classifier of `cfg` for `epochs` epochs, embeddings
    pretrained on its own training rows and then frozen."""
    embed = pretrain_embeddings(SequenceData(tokens, targets), cfg.vocab_size,
                                cfg.d_embed, rng.child("embed"), **EVAL_EMBED)
    disc = init_discriminator(cfg, embed, rng.child("init"))
    opt = AdamState(disc.params, lr=EVAL_LR)
    for epoch in range(epochs):
        order = rng.child("order", epoch).permutation(len(tokens))
        for b, sl in enumerate(chunk_slices(len(tokens), EVAL_BATCH_SIZE)):
            idx = order[sl]
            lab = None if labels is None else labels[idx]
            train_step(disc, opt, tokens[idx], lab, targets[idx],
                       rng.child("drop", epoch, b))
    return disc


def split_half(data: SequenceData, stream: RngStream
               ) -> tuple[SequenceData, SequenceData]:
    """A random half of the rows (rounded down) and the rest."""
    order = stream.permutation(len(data))
    cut = len(data) // 2
    return data.subset(order[:cut]), data.subset(order[cut:])


def _binary_probe(pos: SequenceData, neg: SequenceData, rng: RngStream,
                  dcfg: DiscriminatorConfig, epochs: int,
                  n_labels: int) -> float:
    """Train an evaluator on half of each side, return held-out accuracy."""
    if len(pos) < 4 or len(neg) < 4:
        raise DataError(f"evaluator probe needs at least 4 items per side, "
                        f"got {len(pos)} vs {len(neg)}")

    pos_tr, pos_te = split_half(pos, rng.child("pos"))
    neg_tr, neg_te = split_half(neg, rng.child("neg"))
    train = SequenceData.concat([pos_tr, neg_tr])
    targets = np.concatenate([np.ones(len(pos_tr), dtype=np.int64),
                              np.zeros(len(neg_tr), dtype=np.int64)])
    cfg = replace(dcfg, n_labels=n_labels, n_out=1, use_condition=True)
    disc = _train_cnn(train.tokens, train.labels, targets, cfg, epochs, rng.child("train"))
    test = SequenceData.concat([pos_te, neg_te])
    te_targets = np.concatenate([np.ones(len(pos_te)), np.zeros(len(neg_te))])
    preds = score(disc, test.tokens, test.labels) >= 0.5
    return float((preds == (te_targets >= 0.5)).mean())


def adversarial_success(real: SequenceData, generated: SequenceData,
                        rng: RngStream, dcfg: DiscriminatorConfig,
                        epochs: int) -> float:
    """Held-out error rate of a fresh real-vs-generated evaluator; 0.5
    means the evaluator cannot tell the sets apart at all."""
    n_labels = max(real.n_labels(), generated.n_labels())
    acc = _binary_probe(real, generated, rng, dcfg, epochs, n_labels)
    return 1.0 - acc


def random_sequences(n: int, seq_len: int, vocab_size: int, n_labels: int,
                     rng: RngStream) -> SequenceData:
    """Uniform tokens over the non-reserved vocabulary; the separability
    floor for reliability probing."""
    tokens = 2 + rng.child("tok").integers(0, vocab_size - 2, (n, seq_len))
    labels = rng.child("lab").integers(0, n_labels, (n,))
    return SequenceData(tokens, labels)


def ere_suite(real: SequenceData, generated: SequenceData, rng: RngStream,
              dcfg: DiscriminatorConfig, epochs: int) -> dict[str, float]:
    """Evaluator reliability errors.

    ere1: |acc - 0.5| on real-vs-real (should be inseparable)
    ere2: |acc - 0.5| on generated-vs-generated (same)
    ere3: |acc - 1.0| on real-vs-random-tokens (should be trivial)
    """
    n_labels = max(real.n_labels(), generated.n_labels())
    real_a, real_b = split_half(real, rng.child("real_split"))
    gen_a, gen_b = split_half(generated, rng.child("gen_split"))
    rand = random_sequences(len(real), real.seq_len, dcfg.vocab_size, n_labels,
                            rng.child("rand"))
    probes = {"ere1": (real_a, real_b, 0.5), "ere2": (gen_a, gen_b, 0.5),
              "ere3": (real, rand, 1.0)}
    return {name: abs(_binary_probe(pos, neg, rng.child(name), dcfg, epochs, n_labels) - want)
            for name, (pos, neg, want) in probes.items()}


# ---------------------------------------------------------------------------
# Application tier: downstream label classification
# ---------------------------------------------------------------------------


def classifier_accuracy(train: SequenceData, test: SequenceData,
                        rng: RngStream, dcfg: DiscriminatorConfig, epochs: int,
                        n_labels: int) -> float:
    """Train a label classifier (condition head off, label as target) and
    return its test accuracy."""
    cfg = replace(dcfg, n_labels=n_labels, n_out=n_labels, use_condition=False)
    disc = _train_cnn(train.tokens, None, train.labels, cfg, epochs, rng.child("train"))
    probs = class_probs(disc, test.tokens)
    return float((probs.argmax(axis=1) == test.labels).mean())


def downstream_classification(real_train: SequenceData,
                              synth_train: SequenceData, test: SequenceData,
                              rng: RngStream, dcfg: DiscriminatorConfig,
                              epochs: int) -> dict[str, float]:
    """Test accuracy when training on real data, generated data, and their
    union (augmentation)."""
    n_labels = max(real_train.n_labels(), test.n_labels())
    sets = {"real": real_train, "synth": synth_train,
            "mix": SequenceData.concat([real_train, synth_train])}
    return {f"acc_{name}": classifier_accuracy(train, test, rng.child(name), dcfg, epochs,
                                               n_labels)
            for name, train in sets.items()}


# ---------------------------------------------------------------------------
# Aggregation and reporting
# ---------------------------------------------------------------------------


def median_over_seeds(fn: Callable[[RngStream], dict[str, float]],
                      rng: RngStream, n_seeds: int) -> dict[str, float]:
    """Run fn under n_seeds child streams, take the per-metric median."""
    results = [fn(rng.child("seed", s)) for s in range(n_seeds)]
    return {k: float(np.median([r[k] for r in results])) for k in results[0]}


def micro_metrics(params: ParamStore, dims: GeneratorDims, test: SequenceData,
                  rng: RngStream, n_samples: int) -> dict[str, float]:
    """Held-out NLL plus BLEU-vs-test and self-BLEU over fresh samples."""
    if len(test) < 1 or n_samples < 2:
        raise DataError("micro metrics need a nonempty test set and >= 2 samples")
    labels = test.labels[rng.child("labels").integers(0, len(test), n_samples)]
    samples = sample_batch(params, dims, labels, test.seq_len, rng.child("sample"))
    sample_rows = [strip_pads(r) for r in samples]
    ref_rows = [strip_pads(r) for r in test.tokens]
    return {
        "nll_test": mean_nll(params, dims, test),
        "bleu_test": corpus_bleu_mean(sample_rows, ref_rows),
        "self_bleu": self_bleu(sample_rows),
    }


def macro_metrics(params: ParamStore, dims: GeneratorDims, test: SequenceData,
                  rng: RngStream, dcfg: DiscriminatorConfig, epochs: int,
                  n_seeds: int) -> dict[str, float]:
    """AdverSuc and the reliability probes, median over evaluator seeds."""
    labels = test.labels
    generated = SequenceData(sample_batch(params, dims, labels, test.seq_len,
                                          rng.child("gen_a")), labels)
    generated_b = SequenceData(sample_batch(params, dims, labels, test.seq_len,
                                            rng.child("gen_b")), labels)

    def one_seed(stream: RngStream) -> dict[str, float]:
        out = {"adversuc": adversarial_success(test, generated, stream.child("adv"),
                                               dcfg, epochs)}
        out.update(ere_suite(test, SequenceData.concat([generated, generated_b]),
                             stream.child("ere"), dcfg, epochs))
        return out

    return median_over_seeds(one_seed, rng.child("seeds"), n_seeds)


def application_metrics(params: ParamStore, dims: GeneratorDims,
                        real_train: SequenceData, test: SequenceData,
                        rng: RngStream, dcfg: DiscriminatorConfig, epochs: int,
                        n_seeds: int) -> dict[str, float]:
    """Downstream classification with generated data matched in size and
    label mix to the real training set, median over seeds."""
    if len(real_train) < 2 or len(test) < 2:
        raise DataError("application metrics need nonempty train and test sets")
    synth = SequenceData(sample_batch(params, dims, real_train.labels,
                                      real_train.seq_len, rng.child("synth")),
                         real_train.labels)

    def one_seed(stream: RngStream) -> dict[str, float]:
        return downstream_classification(real_train, synth, test, stream,
                                         dcfg, epochs)

    out = median_over_seeds(one_seed, rng.child("seeds"), n_seeds)
    counts = np.bincount(real_train.labels, minlength=2).astype(np.float64)
    ratio = counts.max() / max(counts.min(), 1.0)
    if ratio > 9.0:
        out["label_imbalance"] = float(ratio)  # flagged only beyond 9:1
    return out


@dataclass
class MetricsReport:
    """Ordered metric table with byte-stable CSV rendering.

    The CSV is one row per run: run id, seed, then every metric; floats
    are rendered with repr so equal values give equal bytes. Suites that
    could not run are listed in `skipped` (name -> reason) and appear only
    in the text summary.
    """
    run_id: str
    seed: int
    metrics: dict[str, float]
    skipped: dict[str, str]

    def csv_text(self) -> str:
        header = ",".join(["run_id", "seed"] + list(self.metrics))
        row = ",".join([self.run_id, str(self.seed)]
                       + [repr(v) for v in self.metrics.values()])
        return header + "\n" + row + "\n"

    def text(self) -> str:
        names = list(self.metrics) + [f"{s} suite" for s in self.skipped]
        width = max((len(n) for n in names), default=0)
        lines = [f"run {self.run_id}  seed {self.seed}"]
        lines += [f"{n.ljust(width)}  {v:.6f}" for n, v in self.metrics.items()]
        lines += [f"{(s + ' suite').ljust(width)}  skipped ({reason})"
                  for s, reason in self.skipped.items()]
        return "\n".join(lines) + "\n"

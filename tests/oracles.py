"""Reference implementations that only the tests use: a finite-difference
gradient checker, the exact model log-probability of a row, exact rollout
rewards by enumerating every completion, step-by-step BPTT through the LSTM
scan, Adam, gradient clipping and the soft update one parameter at a time,
skip-gram training with per-pair gathers and scatter-adds, the per-row
grammar sampler, the exact grammar NLL of one sequence, sentence BLEU
against a reference list, and a parser for the metrics CSV that `eval`
writes. Also `desk`, which fills a typed config view from the schema's
defaults."""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Sequence

import numpy as np

from advseq.config import make_config, view
from advseq.corpus import SequenceData
from advseq.embeddings import BATCH_SIZE, _negative_table, _skipgram_pairs
from advseq.evaluation import MetricsReport, _reference_table, _sentence_bleu
from advseq.generator import GeneratorDims, batch_log_probs
from advseq.grammar import PAD_TOKEN, GrammarSpec
from advseq.numerics import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, NumericError,
                             ParamStore, RngStream, Tensor, Workspace, sigmoid)
from advseq.recurrent import Scan, gate_scale


# the head of the real/fake scorer that pretrain-d and advtrain train: one
# sigmoid output that sees the condition label
SCORER = {"use_condition": True, "n_out": 1}
# the schema's skip-gram settings, which pretrain-d passes on from a desk run;
# each call sets its own epochs
SKIP_GRAM = {key: make_config("desk", None, ["run.seed=0"])[f"embed.{key}"]
             for key in ("window", "negatives", "lr")}


def desk(cls, **given):
    """`config.view` of `cls` over the desk preset, whose values are the
    schema's defaults, with `given` fields: `desk(TrainSchedule,
    rollouts=4)`, `desk(GeneratorDims, vocab_size=62, n_labels=4)`."""
    return view(make_config("desk", None, ["run.seed=0"]), cls, **given)


def finite_diff_check(loss_fn: Callable[[ParamStore], float], params: ParamStore,
                      eps: float = 1e-5, max_coords: int | None = None,
                      rng: RngStream | None = None) -> float:
    """Compare stored analytic gradients against central differences.

    The caller runs its backward pass first so `params` holds analytic
    gradients; `loss_fn` must evaluate the same loss without touching them.
    Returns the max over checked coordinates of
    |analytic - central| / max(|analytic|, |central|, floor).

    The floor absorbs central-difference roundoff: for losses of order
    1..100 in float64 the difference quotient carries ~|loss|*1e-16/eps of
    absolute noise, so coordinates whose true gradient sits below ~1e-5
    cannot be compared relatively and are measured against the floor
    instead. Genuinely wrong gradients at any meaningful scale still
    register as order-one relative errors.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    floor = 1e-5
    analytic = {name: p.grad.copy() for name, p in params.items()}
    worst = 0.0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                raise ValueError("sampling coordinates requires an rng")
            coords = rng.child("fdc", name)._gen.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        a_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_fn(params))
            flat[i] = orig - eps
            lo = float(loss_fn(params))
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(f"loss not finite while perturbing '{name}'")
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), floor)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    # restore analytic gradients in case loss_fn disturbed them
    for name, p in params.items():
        p.grad[...] = analytic[name]
    return worst


def exact_log_prob(params: ParamStore, dims: GeneratorDims, tokens: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """log p(x | y) per row, summed over every position, pads included: exp
    of it sums to one over all length-T id sequences."""
    logp, _ = batch_log_probs(params, dims, tokens, labels, Workspace())
    return logp.sum(axis=1)


def enumeration_rewards(rollout_params: ParamStore, dims: GeneratorDims,
                        score_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        tokens: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Exact expected rewards by summing over every completion.

    Only feasible for tiny vocabularies and lengths; the reference point
    Monte Carlo rewards converge to.
    """
    B, T = tokens.shape
    V = dims.vocab_size
    rewards = np.empty((B, T))
    for p in range(T - 1):
        suffixes = np.array(list(product(range(V), repeat=T - 1 - p)), dtype=np.int64)
        n_suf = len(suffixes)
        full = np.repeat(tokens, n_suf, axis=0)            # (B*n_suf, T)
        full[:, p + 1:] = np.tile(suffixes, (B, 1))
        labs = np.repeat(labels, n_suf)
        logp, _ = batch_log_probs(rollout_params, dims, full, labs, Workspace())
        w = np.exp(logp[:, p + 1:].sum(axis=1)).reshape(B, n_suf)
        vals = score_fn(full, labs).reshape(B, n_suf)
        rewards[:, p] = (w * vals).sum(axis=1)
    rewards[:, T - 1] = score_fn(tokens, labels)
    return rewards


def loop_scan_backward(dH: Tensor, s: Scan, W_h: Tensor) -> Tensor:
    """BPTT through `recurrent.scan` one step at a time, each gate's
    derivative table built inside the loop from fresh arrays: the order of
    arithmetic `recurrent.scan_backward` must reproduce bit for bit."""
    T, B, d = dH.shape
    shift = 2.0 * gate_scale(d) - 1.0    # 0 on i|f|o, 1 on g
    dA = np.empty((T, B, 4 * d))
    dh, dc = np.zeros((2, B, d))
    for t in range(T - 1, -1, -1):
        G = s.gates[t]
        tanh_c = np.tanh(s.cs[t + 1])
        dh += dH[t]
        dc += dh * G[:, 2 * d:3 * d] * (1.0 - tanh_c * tanh_c)
        da = dA[t]
        np.multiply(dc, G[:, 3 * d:], out=da[:, :d])
        np.multiply(dc, s.cs[t], out=da[:, d:2 * d])
        np.multiply(dh, tanh_c, out=da[:, 2 * d:3 * d])
        np.multiply(dc, G[:, :d], out=da[:, 3 * d:])
        da *= (1.0 - G) * (G + shift)  # s(1 - s) on i|f|o, (1 - g)(1 + g) on g
        dc *= G[:, d:2 * d]
        dh = da @ W_h.T
    return dA


def loop_adam_step(params: ParamStore, state: AdamState) -> None:
    """`numerics.adam_step` one parameter at a time on the per-name views,
    checking each gradient, then each updated value, in parameter order."""
    for name, p in params.items():
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (p.grad * p.grad)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.value -= state.lr * update
        if not np.all(np.isfinite(p.value)):
            raise NumericError(f"non-finite value for parameter '{name}' after update")
    for _, p in params.items():
        p.grad[...] = 0.0


def loop_clip_gradients(params: ParamStore, max_norm: float) -> float:
    """`numerics.clip_gradients` with the norm summed and the gradients
    scaled one parameter at a time."""
    total = 0.0
    for _, p in params.items():
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if not math.isfinite(norm):
        raise NumericError(f"global gradient norm is {norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            p.grad *= scale
    return norm


def loop_soft_update(rollout_params: ParamStore, gen_params: ParamStore,
                     alpha: float) -> None:
    """`adversarial.soft_update` one parameter at a time."""
    for name, p in rollout_params.items():
        theta = gen_params.value(name)
        if alpha == 0.0:
            p.value[...] = theta
        elif alpha != 1.0:
            p.value *= alpha
            p.value += (1.0 - alpha) * theta


def loop_pretrain_embeddings(data: SequenceData, vocab_size: int, dim: int,
                             rng: RngStream, window: int, negatives: int,
                             epochs: int, lr: float) -> np.ndarray:
    """`embeddings.pretrain_embeddings` with each batch's update built pair
    by pair: the context and negative rows gathered, their scores and
    gradients taken per pair, and every row update scatter-added. Same
    streams, pair order and schedule, so the two tables differ only in the
    order of floating-point sums."""
    pairs = _skipgram_pairs(data, window)
    w_in = rng.child("init").uniform_range(-0.5 / dim, 0.5 / dim, (vocab_size, dim))
    if len(pairs) == 0:
        return w_in
    w_out = np.zeros((vocab_size, dim))
    cum = _negative_table(data, vocab_size)

    n_batches = (len(pairs) + BATCH_SIZE - 1) // BATCH_SIZE
    total_steps = epochs * n_batches
    step = 0
    for epoch in range(epochs):
        order = rng.child("shuffle", epoch).permutation(len(pairs))
        for b in range(n_batches):
            batch = pairs[order[b * BATCH_SIZE:(b + 1) * BATCH_SIZE]]
            centers, contexts = batch[:, 0], batch[:, 1]
            u = rng.child("neg", epoch, b).uniform((len(batch), negatives))
            negs = np.searchsorted(cum, u, side="right")
            np.clip(negs, 0, vocab_size - 1, out=negs)

            v = w_in[centers]                      # (B, d)
            u_pos = w_out[contexts]                # (B, d)
            u_neg = w_out[negs]                    # (B, K, d)
            g_pos = sigmoid((v * u_pos).sum(axis=1)) - 1.0          # (B,)
            g_neg = sigmoid(np.einsum("bkd,bd->bk", u_neg, v))      # (B, K)

            lr_t = lr * max(1.0 - step / total_steps, 1e-4)
            dv = g_pos[:, None] * u_pos + np.einsum("bk,bkd->bd", g_neg, u_neg)
            np.add.at(w_in, centers, -lr_t * dv)
            np.add.at(w_out, contexts, -lr_t * g_pos[:, None] * v)
            np.add.at(w_out, negs.reshape(-1),
                      (-lr_t * g_neg[..., None] * v[:, None, :]).reshape(-1, dim))
            step += 1
    return w_in


def sample_sequence(spec: GrammarSpec, u: np.ndarray) -> tuple[int, list[str]]:
    """Draw (label, tokens) from one row of 2 + seq_len uniforms, one
    table at a time: u[0] picks the label, u[1] its template and u[2 + s]
    the token of slot s, each the first cumulative entry above the uniform,
    or the last entry. Tokens are unpadded."""
    def pick(probs, x: float) -> int:
        return min(int(np.searchsorted(np.cumsum(probs), x, side="right")), len(probs) - 1)

    label = spec.label_ids()[pick([spec.label_prior(lb) for lb in spec.label_ids()], u[0])]
    templates = spec.labels[label]
    template = templates[pick([t.weight for t in templates], u[1])]
    return label, [slot.tokens[pick(slot.probs, u[2 + si])]
                   for si, slot in enumerate(template.slots)]


def sequence_nll_tokens(spec: GrammarSpec, label: int, tokens: list[str]) -> float:
    """Exact -log p(tokens | label), marginalized over templates.

    Tokens beyond a template's slot count must be PAD. Returns inf when the
    grammar cannot produce the sequence.
    """
    if label not in spec.labels:
        return math.inf
    if len(tokens) != spec.seq_len:
        return math.inf
    log_terms = []
    for t in spec.labels[label]:
        lp = math.log(t.weight)
        ok = True
        for pos in range(spec.seq_len):
            tok = tokens[pos]
            if pos < len(t.slots):
                slot = t.slots[pos]
                try:
                    k = slot.tokens.index(tok)
                except ValueError:
                    ok = False
                    break
                p = slot.probs[k]
                if p <= 0:
                    ok = False
                    break
                lp += math.log(p)
            elif tok != PAD_TOKEN:
                ok = False
                break
        if ok:
            log_terms.append(lp)
    if not log_terms:
        return math.inf
    m = max(log_terms)
    return -(m + math.log(sum(math.exp(x - m) for x in log_terms)))


def bleu(candidate: Sequence, references: list[Sequence], max_n: int = 4) -> float:
    """Sentence BLEU of one candidate against its own reference list,
    through the same per-sentence scorer as `corpus_bleu_mean` and
    `self_bleu`."""
    return _sentence_bleu(candidate, *_reference_table(references, max_n), max_n)


def parse_metrics_csv(text: str) -> MetricsReport:
    """The inverse of `MetricsReport.csv_text`."""
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) != 2:
        raise ValueError("metrics CSV must be a header row plus one data row")
    names = lines[0].split(",")
    cells = lines[1].split(",")
    if len(names) != len(cells) or names[:2] != ["run_id", "seed"]:
        raise ValueError("metrics CSV must start with run_id,seed columns")
    metrics = {n: float(c) for n, c in zip(names[2:], cells[2:])}
    return MetricsReport(cells[0], int(cells[1]), metrics, {})

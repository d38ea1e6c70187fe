"""Conditional LSTM sequence generator.

One recurrent cell consumes the previous token's embedding and a learned
condition embedding, so the label steers every step of the sequence. Both
inputs are projected into one gate-major (label, token) table made once per
call (`hoist`), so a step gathers its (4, rows, d) inputs once, and the
teacher-forced states are one `recurrent.scan` (`teacher_scan`), which
rollouts run alone. The training pass also keeps the softmax's exp table
and row sums, which the log-probabilities and the backward both read, so a
training step exponentiates once. One backward pass serves maximum
likelihood and policy-gradient training: each weights d(-log p)/d(logits)
per position, so the steps differ only in the coefficient table they feed
to it. The pass and its backward write their large arrays into a
caller-owned `Workspace` whose buffers only grow, so a training loop that
keeps one allocates them once.

One free-running loop, `free_run`, serves sampling and rollouts. Sampling
draws one child stream per item, which keeps results independent of batch
decomposition and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import BOS_ID, PAD_ID, SequenceData
from .numerics import (AdamState, ParamStore, RngStream, Tensor, Workspace, adam_step,
                       check_finite, clip_gradients, row_blocks, softmax_rows)
from .recurrent import Scan, cell, fold, gate_rows, scan, scan_backward

INIT_RANGE = 0.08


@dataclass(frozen=True)
class GeneratorDims:
    vocab_size: int
    n_labels: int
    d_embed: int
    d_hidden: int
    d_label: int


def init_generator_params(dims: GeneratorDims, rng: RngStream) -> ParamStore:
    """Embeddings and recurrent weights uniform in [-0.08, 0.08], output
    projection fan-in scaled normal, zero biases."""
    return ParamStore({
        "gen.embed": rng.child("embed").uniform_range(
            -INIT_RANGE, INIT_RANGE, (dims.vocab_size, dims.d_embed)),
        "gen.label_embed": rng.child("label_embed").uniform_range(
            -INIT_RANGE, INIT_RANGE, (dims.n_labels, dims.d_label)),
        "gen.lstm.W": rng.child("lstm").uniform_range(  # rows [h ; x ; label]
            -INIT_RANGE, INIT_RANGE,
            (dims.d_hidden + dims.d_embed + dims.d_label, 4 * dims.d_hidden)),
        "gen.lstm.b": np.zeros((1, 4 * dims.d_hidden)),
        "gen.out.W": rng.child("out").normal(
            (dims.d_hidden, dims.vocab_size)) / np.sqrt(dims.d_hidden),
        "gen.out.b": np.zeros((1, dims.vocab_size)),
    })


class Hoisted(NamedTuple):
    """Step inputs made once per call by `recurrent.fold`: gen.lstm.W's rows
    [h ; x ; label] as W4 and one input table, so a step gathers once."""

    inputs: Tensor  # (4, n_labels * V, d_h): [:, l*V + x] = embed[x] @ W_x + cond[l]
    W4: Tensor      # (4, d_h, d_h)
    W_out: Tensor
    b_out: Tensor


def hoist(params: ParamStore, dims: GeneratorDims) -> Hoisted:
    d_h, d_e = dims.d_hidden, dims.d_embed
    W = params.value("gen.lstm.W")
    table = params.value("gen.embed") @ W[d_h:d_h + d_e]
    cond = params.value("gen.label_embed") @ W[d_h + d_e:] + params.value("gen.lstm.b")
    return Hoisted(fold((table + cond[:, None]).reshape(-1, 4 * d_h)), fold(W[:d_h]),
                   params.value("gen.out.W"), params.value("gen.out.b"))


@dataclass
class GenCache:
    """Arrays of one teacher-forced pass. All but `labels` are views into the
    workspace that `forward_states` was given, so a cache stays valid until
    that workspace is passed to `forward_states` again."""

    labels: np.ndarray             # (B,)
    scan: Scan                     # time-major states and gates
    hs: np.ndarray                 # (B, T, d_h) post-step hidden states
    logits: np.ndarray             # (B, T, V)
    top: np.ndarray                # (B*T, 1) row maxima of the logits
    exp: np.ndarray                # (B*T, V) exp(logits - top)
    sums: np.ndarray               # (B*T, 1) row sums of exp


def shifted_inputs(tokens: Tensor) -> np.ndarray:
    """Input ids per step: begin marker, then the previous target token."""
    inputs = np.empty_like(tokens)
    inputs[:, 0] = BOS_ID
    inputs[:, 1:] = tokens[:, :-1]
    return inputs


def step_logits(hz: Hoisted, labels: np.ndarray, h: Tensor, c: Tensor,
                input_ids: np.ndarray) -> Tensor:
    """One free-running step for rows conditioned on `labels`: advances the
    state (h, c) in place and returns the logits."""
    cell(gate_rows(hz.inputs, labels * hz.W_out.shape[1] + input_ids, None), hz.W4, h, c, h, c)
    logits = h @ hz.W_out
    logits += hz.b_out
    return logits


def teacher_scan(hz: Hoisted, tokens: Tensor, labels: np.ndarray, ws: Workspace) -> Scan:
    """The recurrent states of a teacher-forced pass over a (B, T) token
    batch, time-major, built in `ws`."""
    B, T = tokens.shape
    d, V = hz.W_out.shape
    xa = gate_rows(hz.inputs, shifted_inputs(tokens).T + labels * V, ws.take("gates", (T, 4, B, d)))
    return scan(xa, hz.W4, ws)


def forward_states(params: ParamStore, dims: GeneratorDims, tokens: Tensor,
                   labels: np.ndarray, ws: Workspace) -> GenCache:
    """Teacher-forced pass over a (B, T) token batch, keeping every
    intermediate needed for backprop.

    The cache is built in `ws` and stays valid until `ws` is used for
    another pass."""
    B, T = tokens.shape
    d_h, V = dims.d_hidden, dims.vocab_size
    hz = hoist(params, dims)
    s = teacher_scan(hz, tokens, labels, ws)
    hs = ws.take("hs", (B, T, d_h))
    np.copyto(hs, s.hs[1:].transpose(1, 0, 2))
    logits = np.matmul(hs.reshape(B * T, d_h), hz.W_out, out=ws.take("logits", (B * T, V)))
    logits += hz.b_out
    top = logits.max(axis=1, keepdims=True)
    e = np.subtract(logits, top, out=ws.take("probs", (B * T, V)))
    np.exp(e, out=e)
    return GenCache(labels, s, hs, logits.reshape(B, T, V), top, e,
                    e.sum(axis=1, keepdims=True))


def _token_log_probs(cache: GenCache, tokens: Tensor) -> np.ndarray:
    """log p(x_t | x_<t, y) per position, as (B, T): (x - max) - log(sum
    exp(x - max)) at each target, as a full log-softmax table holds it."""
    B, T, V = cache.logits.shape
    logp = np.take_along_axis(cache.logits.reshape(B * T, V), tokens.reshape(B * T, 1), axis=1)
    logp -= cache.top
    logp -= np.log(cache.sums)
    return logp.reshape(B, T)


def pad_mask(tokens: Tensor) -> np.ndarray:
    """1.0 where a position contributes to losses and metrics: not a pad."""
    return (tokens != PAD_ID).astype(np.float64)


def batch_log_probs(params: ParamStore, dims: GeneratorDims, tokens: Tensor,
                    labels: np.ndarray, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per-position log p(x_t | x_<t, y) and the contribution mask. Summed
    over every position, pads included, the log-probs are the exact model
    log-probability of the row."""
    cache = forward_states(params, dims, tokens, labels, ws)
    return _token_log_probs(cache, tokens), pad_mask(tokens)


def mean_nll(params: ParamStore, dims: GeneratorDims, data: SequenceData,
             batch_size: int = 64, ws: Workspace | None = None) -> float:
    """Average per-sequence negative log-likelihood in nats, pads excluded."""
    ws = Workspace() if ws is None else ws
    total = 0.0
    for start in range(0, len(data), batch_size):
        tok = data.tokens[start:start + batch_size]
        lab = data.labels[start:start + batch_size]
        logp, mask = batch_log_probs(params, dims, tok, lab, ws)
        total += float(-(logp * mask).sum(axis=1).sum())
    check_finite("mean NLL", total)  # no optimizer step follows to catch it
    return total / len(data)


def backward_coefs(params: ParamStore, dims: GeneratorDims, cache: GenCache,
                   tokens: Tensor, coefs: np.ndarray, ws: Workspace) -> None:
    """Accumulate gradients of sum_{b,t} coefs[b,t] * (-log p(x_bt)).

    coefs = mask/B gives mean NLL; coefs = -reward*mask/B gives the
    policy-gradient objective. Only the scan's backward loops over time;
    the output layer and the gradients from its dA are one op over B*T rows.
    Scratch arrays come from `ws`. The softmax is the cache's exp table over
    its row sums, made in place when `ws` holds `cache`, which then serves
    no second backward.
    """
    B, T = tokens.shape
    d_h, d_e = dims.d_hidden, dims.d_embed
    W = params.value("gen.lstm.W")
    g = {name: p.grad for name, p in params.items()}
    dlogits = np.divide(cache.exp, cache.sums, out=ws.take("probs", cache.exp.shape))
    dlogits[np.arange(B * T), tokens.reshape(-1)] -= 1.0
    dlogits *= coefs.reshape(B * T, 1)
    g["gen.out.W"] += cache.hs.reshape(B * T, d_h).T @ dlogits
    g["gen.out.b"] += dlogits.sum(axis=0, keepdims=True)
    dH = np.matmul(dlogits, params.value("gen.out.W").T, out=ws.take("dH", (B * T, d_h)))
    dA = scan_backward(dH.reshape(B, T, d_h).transpose(1, 0, 2), cache.scan, W[:d_h], ws)
    dA_seq = dA.sum(axis=0)                  # (B, 4d): the label's input is the same each step
    dA = dA.reshape(T * B, -1)
    ids = shifted_inputs(tokens).T.reshape(-1)   # time-major, like dA's rows
    g["gen.lstm.W"][:d_h] += cache.scan.hs[:-1].reshape(T * B, d_h).T @ dA
    rows = np.take(params.value("gen.embed"), ids, axis=0, mode="clip",
                   out=ws.take("embed_rows", (T * B, d_e)))
    g["gen.lstm.W"][d_h:d_h + d_e] += rows.T @ dA
    g["gen.lstm.W"][d_h + d_e:] += params.value("gen.label_embed")[cache.labels].T @ dA_seq
    g["gen.lstm.b"] += dA_seq.sum(axis=0, keepdims=True)
    np.add.at(g["gen.embed"], ids, np.matmul(dA, W[d_h:d_h + d_e].T, out=rows))
    np.add.at(g["gen.label_embed"], cache.labels, dA_seq @ W[d_h + d_e:].T)


def mle_step(params: ParamStore, dims: GeneratorDims, opt: AdamState,
             tokens: Tensor, labels: np.ndarray, clip: float, ws: Workspace) -> float:
    """One maximum-likelihood update, the policy step with unit rewards;
    returns mean NLL per sequence."""
    return -policy_gradient_step(params, dims, opt, tokens, labels,
                                 np.ones(tokens.shape), clip, ws)


def policy_gradient_step(params: ParamStore, dims: GeneratorDims, opt: AdamState,
                         tokens: Tensor, labels: np.ndarray, rewards: np.ndarray,
                         clip: float, ws: Workspace) -> float:
    """REINFORCE ascent on sum_t reward[b,t] * log p(x_bt) over non-pad
    positions; returns the mean per-sequence weighted log-likelihood being
    maximized. The pass runs in `ws`, which a training loop keeps across
    steps."""
    if rewards.shape != tokens.shape:
        raise ValueError(f"rewards {rewards.shape} do not match tokens {tokens.shape}")
    cache = forward_states(params, dims, tokens, labels, ws)
    B = len(tokens)
    weights = rewards * pad_mask(tokens)
    objective = float((weights * _token_log_probs(cache, tokens)).sum() / B)
    # minimizing sum_t (R/B) * (-log p) is ascent on the reward-weighted
    # log-likelihood
    backward_coefs(params, dims, cache, tokens, weights / B, ws)
    clip_gradients(params, clip)
    adam_step(params, opt)
    return objective


def _sample_from_logits(logits: Tensor, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row from softmax(logits), u in [0, 1)."""
    check_finite("sampling logits", logits)  # a NaN row would quietly draw id 0
    cum = softmax_rows(logits)
    np.cumsum(cum, axis=1, out=cum)
    idx = (cum < u[:, None]).sum(axis=1)
    return np.minimum(idx, logits.shape[1] - 1)


def free_run(hz: Hoisted, labels: np.ndarray, h: Tensor, c: Tensor, seqs: np.ndarray,
             u: np.ndarray, active: Sequence[int]) -> None:
    """Draw the last len(active) columns of seqs (rows, T) in place, step i
    by the first active[i] rows from their uniforms u[:, i]. Row r starts
    from state (h[r], c[r]) having read the token before its first draw.

    The rows run in the fixed `row_blocks` grid (256 rows), a block through
    all its steps before the next, so a step's (4, rows, d) gates and
    (rows, V) logits stay near the cache, not held for all 4,864 rows of a
    desk rollout. At each step a block's active rows are a prefix of it. A
    row's bits do not depend on its block, but a block's one active row
    among several is listed twice, as numpy sends a one-row product to gemv."""
    first = seqs.shape[1] - len(active)
    for block in row_blocks(len(seqs)):
        for i, n in enumerate(active):
            a = min(n, block.stop) - block.start
            if a < 1:
                continue
            r = slice(block.start, block.start + a) if a > 1 or n == 1 else [block.start] * 2
            hr, cr = h[r], c[r]
            logits = step_logits(hz, labels[r], hr, cr, seqs[r, first + i - 1])
            seqs[r, first + i] = _sample_from_logits(logits, u[r, i])
            if isinstance(r, list):   # the listed row was stepped in copies
                h[r], c[r] = hr, cr


def sample_batch(params: ParamStore, dims: GeneratorDims, labels: np.ndarray,
                 seq_len: int, rng: RngStream, item_offset: int = 0) -> np.ndarray:
    """Free-running generation of one sequence per label entry.

    Item i consumes stream rng.child(item_offset + i), so splitting a batch
    into chunks reproduces the unsplit draw as long as offsets are kept.
    """
    B = len(labels)
    u = np.stack([rng.child(item_offset + i).uniform(seq_len) for i in range(B)])
    h, c = np.zeros((2, B, dims.d_hidden))
    out = np.full((B, seq_len + 1), BOS_ID, dtype=np.int64)
    free_run(hoist(params, dims), labels, h, c, out, u, [B] * seq_len)
    return out[:, 1:]

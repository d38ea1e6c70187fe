"""Conditional LSTM sequence generator.

One recurrent cell consumes the previous token's embedding concatenated
with a learned condition embedding, so the label steers every step of the
sequence. The same teacher-forced backward pass serves both maximum
likelihood and policy-gradient training: each is a per-position weighting
of d(-log p)/d(logits), so training steps differ only in the coefficient
table they feed to the shared backprop-through-time loop.

Sampling draws one child stream per batch item, which keeps results
independent of batch decomposition and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BOS_ID, PAD_ID, SequenceData
from .numerics import (AdamState, ParamStore, RngStream, Tensor, adam_step,
                       check_finite, clip_gradients, log_softmax_rows, softmax_rows)
from .recurrent import LstmCache, lstm_cell_backward, lstm_cell_forward

INIT_RANGE = 0.08


@dataclass(frozen=True)
class GeneratorDims:
    vocab_size: int
    n_labels: int
    d_embed: int = 32
    d_hidden: int = 32
    d_label: int = 8

    @property
    def d_input(self) -> int:
        return self.d_hidden + self.d_embed + self.d_label


def init_generator_params(dims: GeneratorDims, rng: RngStream) -> ParamStore:
    """Embeddings and recurrent weights uniform in [-0.08, 0.08], output
    projection fan-in scaled normal, zero biases."""
    params = ParamStore()
    params.add("gen.embed", rng.child("embed").uniform_range(
        -INIT_RANGE, INIT_RANGE, (dims.vocab_size, dims.d_embed)))
    params.add("gen.label_embed", rng.child("label_embed").uniform_range(
        -INIT_RANGE, INIT_RANGE, (dims.n_labels, dims.d_label)))
    params.add("gen.lstm.W", rng.child("lstm").uniform_range(
        -INIT_RANGE, INIT_RANGE, (dims.d_input, 4 * dims.d_hidden)))
    params.add("gen.lstm.b", np.zeros((1, 4 * dims.d_hidden)))
    params.add("gen.out.W", rng.child("out").normal(
        (dims.d_hidden, dims.vocab_size)) / np.sqrt(dims.d_hidden))
    params.add("gen.out.b", np.zeros((1, dims.vocab_size)))
    return params


@dataclass
class GenCache:
    input_ids: np.ndarray          # (B, T) ids fed at each step
    labels: np.ndarray             # (B,)
    lstm: list[LstmCache]
    hs: np.ndarray                 # (B, T, d_h) post-step hidden states
    cs: np.ndarray                 # (B, T, d_h) post-step cell states
    logits: np.ndarray             # (B, T, V)


def shifted_inputs(tokens: Tensor) -> np.ndarray:
    """Input ids per step: begin marker, then the previous target token."""
    inputs = np.empty_like(tokens)
    inputs[:, 0] = BOS_ID
    inputs[:, 1:] = tokens[:, :-1]
    return inputs


def step_logits(params: ParamStore, dims: GeneratorDims, h: Tensor, c: Tensor,
                input_ids: np.ndarray, cond: Tensor
                ) -> tuple[Tensor, Tensor, Tensor, Tensor, LstmCache]:
    """One recurrent step; `cond` is the pre-gathered label embedding rows."""
    x = params.value("gen.embed")[input_ids]
    z = np.concatenate([h, x, cond], axis=1)
    h_new, c_new, cache = lstm_cell_forward(
        z, c, params.value("gen.lstm.W"), params.value("gen.lstm.b"))
    logits = h_new @ params.value("gen.out.W") + params.value("gen.out.b")
    return logits, h_new, c_new, z, cache


def forward_states(params: ParamStore, dims: GeneratorDims, tokens: Tensor,
                   labels: np.ndarray) -> GenCache:
    """Teacher-forced pass over a (B, T) token batch, keeping every
    intermediate needed for backprop and for restarting generation at an
    arbitrary position."""
    B, T = tokens.shape
    cond = params.value("gen.label_embed")[labels]
    input_ids = shifted_inputs(tokens)
    h = np.zeros((B, dims.d_hidden))
    c = np.zeros((B, dims.d_hidden))
    lstm_caches: list[LstmCache] = []
    hs = np.empty((B, T, dims.d_hidden))
    cs = np.empty((B, T, dims.d_hidden))
    logits = np.empty((B, T, dims.vocab_size))
    for t in range(T):
        logits_t, h, c, _, cache = step_logits(params, dims, h, c, input_ids[:, t], cond)
        lstm_caches.append(cache)
        hs[:, t] = h
        cs[:, t] = c
        logits[:, t] = logits_t
    return GenCache(input_ids, labels, lstm_caches, hs, cs, logits)


def pad_mask(tokens: Tensor, exclude_pad: bool) -> np.ndarray:
    """1.0 where a position contributes to losses and metrics."""
    if exclude_pad:
        return (tokens != PAD_ID).astype(np.float64)
    return np.ones_like(tokens, dtype=np.float64)


def batch_log_probs(params: ParamStore, dims: GeneratorDims, tokens: Tensor,
                    labels: np.ndarray, exclude_pad: bool = True
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-position log p(x_t | x_<t, y) and the contribution mask."""
    cache = forward_states(params, dims, tokens, labels)
    B, T = tokens.shape
    logp = np.empty((B, T))
    for t in range(T):
        logp[:, t] = log_softmax_rows(cache.logits[:, t])[np.arange(B), tokens[:, t]]
    return logp, pad_mask(tokens, exclude_pad)


def sequence_log_prob(params: ParamStore, dims: GeneratorDims, tokens: Tensor,
                      labels: np.ndarray, exclude_pad: bool = True) -> np.ndarray:
    """log p(x | y) per sequence. With exclude_pad=False this is the exact
    model probability, so exp of it sums to one over all length-T id
    sequences."""
    logp, mask = batch_log_probs(params, dims, tokens, labels, exclude_pad)
    return (logp * mask).sum(axis=1)


def mean_nll(params: ParamStore, dims: GeneratorDims, data: SequenceData,
             batch_size: int = 64, exclude_pad: bool = True) -> float:
    """Average per-sequence negative log-likelihood in nats."""
    total = 0.0
    for start in range(0, len(data), batch_size):
        tok = data.tokens[start:start + batch_size]
        lab = data.labels[start:start + batch_size]
        total += float(-sequence_log_prob(params, dims, tok, lab, exclude_pad).sum())
    check_finite("mean NLL", total)  # no optimizer step follows to catch it
    return total / len(data)


def backward_coefs(params: ParamStore, dims: GeneratorDims, cache: GenCache,
                   tokens: Tensor, coefs: np.ndarray) -> None:
    """Accumulate gradients of sum_{b,t} coefs[b,t] * (-log p(x_bt)).

    coefs = mask/B gives mean NLL; coefs = -reward*mask/B gives the
    policy-gradient objective. The whole loop is hand-derived backprop
    through time over the fused-gate cell.
    """
    B, T = tokens.shape
    d_h, d_e = dims.d_hidden, dims.d_embed
    W_out = params.value("gen.out.W")
    W_lstm = params.value("gen.lstm.W")
    g = {name: params[name].grad for name in
         ("gen.embed", "gen.label_embed", "gen.lstm.W", "gen.lstm.b",
          "gen.out.W", "gen.out.b")}
    rows = np.arange(B)
    dh_carry = np.zeros((B, d_h))
    dc_carry = np.zeros((B, d_h))
    for t in range(T - 1, -1, -1):
        dlogits = softmax_rows(cache.logits[:, t])
        dlogits[rows, tokens[:, t]] -= 1.0
        dlogits *= coefs[:, t][:, None]
        h_t = cache.hs[:, t]
        g["gen.out.W"] += h_t.T @ dlogits
        g["gen.out.b"] += dlogits.sum(axis=0, keepdims=True)
        dh = dlogits @ W_out.T + dh_carry
        dz, dc_carry = lstm_cell_backward(dh, dc_carry, cache.lstm[t], W_lstm,
                                          g["gen.lstm.W"], g["gen.lstm.b"])
        dh_carry = dz[:, :d_h]
        np.add.at(g["gen.embed"], cache.input_ids[:, t], dz[:, d_h:d_h + d_e])
        np.add.at(g["gen.label_embed"], cache.labels, dz[:, d_h + d_e:])


def mle_step(params: ParamStore, dims: GeneratorDims, opt: AdamState,
             tokens: Tensor, labels: np.ndarray, exclude_pad: bool = True,
             clip: float = 5.0) -> float:
    """One maximum-likelihood update; returns mean NLL per sequence."""
    cache = forward_states(params, dims, tokens, labels)
    B, T = tokens.shape
    mask = pad_mask(tokens, exclude_pad)
    logp = np.empty((B, T))
    for t in range(T):
        logp[:, t] = log_softmax_rows(cache.logits[:, t])[np.arange(B), tokens[:, t]]
    loss = float(-(logp * mask).sum() / B)
    backward_coefs(params, dims, cache, tokens, mask / B)
    clip_gradients(params, clip)
    adam_step(params, opt)
    return loss


def policy_gradient_step(params: ParamStore, dims: GeneratorDims, opt: AdamState,
                         tokens: Tensor, labels: np.ndarray, rewards: np.ndarray,
                         exclude_pad: bool = True, clip: float = 5.0) -> float:
    """REINFORCE ascent on sum_t reward[b,t] * log p(x_bt); returns the
    mean per-sequence weighted log-likelihood being maximized."""
    if rewards.shape != tokens.shape:
        raise ValueError(f"rewards {rewards.shape} do not match tokens {tokens.shape}")
    cache = forward_states(params, dims, tokens, labels)
    B, T = tokens.shape
    mask = pad_mask(tokens, exclude_pad)
    logp = np.empty((B, T))
    for t in range(T):
        logp[:, t] = log_softmax_rows(cache.logits[:, t])[np.arange(B), tokens[:, t]]
    objective = float((rewards * mask * logp).sum() / B)
    # minimizing sum_t (R/B) * (-log p) is ascent on the reward-weighted
    # log-likelihood
    backward_coefs(params, dims, cache, tokens, rewards * mask / B)
    clip_gradients(params, clip)
    adam_step(params, opt)
    return objective


def _sample_from_logits(logits: Tensor, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row from softmax(logits), u in [0, 1)."""
    check_finite("sampling logits", logits)  # a NaN row would quietly draw id 0
    cum = np.cumsum(softmax_rows(logits), axis=1)
    idx = (cum < u[:, None]).sum(axis=1)
    return np.minimum(idx, logits.shape[1] - 1)


def sample_batch(params: ParamStore, dims: GeneratorDims, labels: np.ndarray,
                 seq_len: int, rng: RngStream, item_offset: int = 0) -> np.ndarray:
    """Free-running generation of one sequence per label entry.

    Item i consumes stream rng.child(item_offset + i), so splitting a batch
    into chunks reproduces the unsplit draw as long as offsets are kept.
    """
    B = len(labels)
    u = np.stack([rng.child(item_offset + i).uniform(seq_len) for i in range(B)])
    cond = params.value("gen.label_embed")[labels]
    h = np.zeros((B, dims.d_hidden))
    c = np.zeros((B, dims.d_hidden))
    prev = np.full(B, BOS_ID, dtype=np.int64)
    out = np.empty((B, seq_len), dtype=np.int64)
    for t in range(seq_len):
        logits, h, c, _, _ = step_logits(params, dims, h, c, prev, cond)
        prev = _sample_from_logits(logits, u[:, t])
        out[:, t] = prev
    return out

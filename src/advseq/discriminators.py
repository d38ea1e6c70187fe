"""Three sequence discriminators over frozen token embeddings.

All share the same scoring head: architecture features, optional inverted
dropout, then one dense layer whose input gets the condition label appended
as a one-hot block, so the model can judge sequence/label agreement rather
than sequence realism alone. With n_out == 1 the head is a sigmoid
real/fake scorer; with n_out > 1 it is a softmax classifier, which is how
the downstream label classifier reuses this module (condition head off,
label as the target).

Kinds:
  fasttext  mean of unigram embeddings and hashed-bigram bucket embeddings
  cnn       parallel convolutions of several widths, max-over-time
            pooling, relu, one highway layer
  birnn     bidirectional recurrent encoder with additive self-attention

Token embeddings stay frozen, so no backward pass ever reaches them; the
hashed bigram table of the fasttext kind is trained from scratch. So the
cnn and birnn bodies project the vocabulary once: cnn tap i of width w is
the (V, F) table embed @ W_w[i*d_e:(i+1)*d_e], a window's pre-activation is
the bias plus w gathered rows, and relu (which commutes with max) runs once
on the pooled features.

Eval-mode scoring (`score`, `class_probs`) runs body and head over the
`numerics.row_blocks` grid (256 rows) and keeps only each block's head
outputs: cnn's window sums take 0.6 MB per width, not 5 MB, birnn's hidden
states and attention layer 2.5 and 1.3 MB, not 20 and 10. birnn steps
each LSTM direction over the block's rows and keeps only the current state,
not the scan's gate and cell history. Its features equal `forward`'s bit
for bit, since neither an LSTM step's rows nor `_attend`'s depend on the
other rows. Nor do the head's: its product is an einsum, which sums each
row on its own, where OpenBLAS gives a product of one to three output
columns row bits that depend on the rows beside it. So a call of two or
more rows gives each row the bits it gets in any other call of two or more
rows. A one-row call may not, since numpy sends the bodies' one-row
products to gemv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .corpus import PAD_ID
from .numerics import (AdamState, ParamStore, RngStream, Tensor, adam_step,
                       check_finite, clip_gradients, log_softmax_rows, pmap, relu,
                       row_blocks, sigmoid, softmax_rows)
from .recurrent import Scan, cell, gate_scale, scan, scan_backward

KINDS = ("fasttext", "cnn", "birnn")

# fixed mixing constants for the bigram bucket hash
_BIGRAM_MULT_A = 1_000_003
_BIGRAM_MULT_B = 8_191


@dataclass(frozen=True)
class DiscriminatorConfig:
    kind: str
    vocab_size: int
    n_labels: int
    d_embed: int
    d_hidden: int
    n_filters: int
    n_buckets: int
    dropout: float
    l2: float
    use_condition: bool
    n_out: int
    widths: tuple[int, ...] = (2, 3, 4)

    def feature_dim(self) -> int:
        if self.kind == "fasttext":
            return self.d_embed
        if self.kind == "cnn":
            return len(self.widths) * self.n_filters
        if self.kind == "birnn":
            return 2 * self.d_hidden
        raise ValueError(f"unknown discriminator kind {self.kind!r}")

    def head_in_dim(self) -> int:
        return self.feature_dim() + (self.n_labels if self.use_condition else 0)


@dataclass
class Discriminator:
    cfg: DiscriminatorConfig
    params: ParamStore
    embed: np.ndarray  # (vocab_size, d_embed), frozen


def init_discriminator(cfg: DiscriminatorConfig, embed: np.ndarray,
                       rng: RngStream) -> Discriminator:
    if cfg.kind not in KINDS:
        raise ValueError(f"unknown discriminator kind {cfg.kind!r}")
    if embed.shape != (cfg.vocab_size, cfg.d_embed):
        raise ValueError(f"embedding table {embed.shape} does not match config "
                         f"({cfg.vocab_size}, {cfg.d_embed})")
    p = {}
    if cfg.kind == "fasttext":
        p["d.bigram"] = rng.child("bigram").uniform_range(
            -0.08, 0.08, (cfg.n_buckets, cfg.d_embed))
    elif cfg.kind == "cnn":
        for w in cfg.widths:
            fan_in = w * cfg.d_embed
            p[f"d.conv{w}.W"] = (rng.child("conv", w).normal((fan_in, cfg.n_filters))
                                 / np.sqrt(fan_in))
            p[f"d.conv{w}.b"] = np.zeros((1, cfg.n_filters))
        d = cfg.feature_dim()
        p["d.hw.Wt"] = rng.child("hwt").normal((d, d)) / np.sqrt(d)
        p["d.hw.bt"] = np.zeros((1, d))
        p["d.hw.Wg"] = rng.child("hwg").normal((d, d)) / np.sqrt(d)
        p["d.hw.bg"] = np.zeros((1, d))
    else:
        d_in = cfg.d_hidden + cfg.d_embed
        for direction in ("fwd", "bwd"):
            p[f"d.{direction}.W"] = rng.child(direction).uniform_range(
                -0.08, 0.08, (d_in, 4 * cfg.d_hidden))
            p[f"d.{direction}.b"] = np.zeros((1, 4 * cfg.d_hidden))
        d_att = cfg.d_hidden
        p["d.att.W"] = rng.child("attw").normal(
            (2 * cfg.d_hidden, d_att)) / np.sqrt(2 * cfg.d_hidden)
        p["d.att.b"] = np.zeros((1, d_att))
        p["d.att.u"] = rng.child("attu").normal((1, d_att)) / np.sqrt(d_att)
    # Zero head: a freshly built discriminator outputs exactly 0.5 (loss ln 2)
    # regardless of kind, and the last layer has no symmetry to break.
    p["d.head.W"] = np.zeros((cfg.head_in_dim(), cfg.n_out))
    p["d.head.b"] = np.zeros((1, cfg.n_out))
    return Discriminator(cfg, ParamStore(p), np.array(embed, dtype=np.float64))


# ---------------------------------------------------------------------------
# Architecture bodies: features + their backward passes
# ---------------------------------------------------------------------------


def bigram_buckets(tokens: Tensor, n_buckets: int) -> np.ndarray:
    """Deterministic hash of adjacent token pairs into bucket ids."""
    a, b = tokens[:, :-1], tokens[:, 1:]
    return (a * _BIGRAM_MULT_A + b * _BIGRAM_MULT_B) % n_buckets


def _fasttext_features(disc: Discriminator, tokens: Tensor) -> tuple[Tensor, dict]:
    uni_mask = tokens != PAD_ID
    buckets = bigram_buckets(tokens, disc.cfg.n_buckets)
    bi_mask = uni_mask[:, :-1] & uni_mask[:, 1:]
    counts = uni_mask.sum(axis=1) + bi_mask.sum(axis=1)
    counts = np.maximum(counts, 1).astype(np.float64)
    uni_sum = (disc.embed[tokens] * uni_mask[..., None]).sum(axis=1)
    bi_sum = (disc.params.value("d.bigram")[buckets] * bi_mask[..., None]).sum(axis=1)
    s = (uni_sum + bi_sum) / counts[:, None]
    return s, {"buckets": buckets, "bi_mask": bi_mask, "counts": counts}


def _fasttext_backward(disc: Discriminator, cache: dict, ds: Tensor) -> None:
    per_row = ds / cache["counts"][:, None]              # (B, d)
    weighted = per_row[:, None, :] * cache["bi_mask"][..., None]
    np.add.at(disc.params["d.bigram"].grad, cache["buckets"].reshape(-1),
              weighted.reshape(-1, disc.cfg.d_embed))


def _cnn_features(disc: Discriminator, tokens: Tensor) -> tuple[Tensor, dict]:
    """Time-major: pre[l, b] = b_w + sum_i tap_i[ids[l+i, b]], shape (L, B, F),
    where tap i is the (V, F) table embed @ (the i-th d_e-row block of W_w)."""
    cfg = disc.cfg
    ids = np.ascontiguousarray(tokens.T)                  # (T, B)
    T = len(ids)
    pres = []
    for w in cfg.widths:
        if T < w:
            raise ValueError(f"sequence length {T} shorter than filter width {w}")
        L = T - w + 1
        W = disc.params.value(f"d.conv{w}.W")
        taps = disc.embed @ W.reshape(w, cfg.d_embed, cfg.n_filters)   # (w, V, F)
        pre = taps[0][ids[:L]]
        pre += disc.params.value(f"d.conv{w}.b")
        for i in range(1, w):
            pre += taps[i][ids[i:i + L]]
        pres.append(pre)
    s0 = relu(np.concatenate([pre.max(axis=0) for pre in pres], axis=1))
    t_gate = sigmoid(s0 @ disc.params.value("d.hw.Wt") + disc.params.value("d.hw.bt"))
    g_pre = s0 @ disc.params.value("d.hw.Wg") + disc.params.value("d.hw.bg")
    g_act = relu(g_pre)
    s = t_gate * g_act + (1.0 - t_gate) * s0
    return s, {"ids": ids, "pres": pres, "s0": s0, "t": t_gate, "g_pre": g_pre, "g": g_act}


def _cnn_backward(disc: Discriminator, cache: dict, ds: Tensor) -> None:
    cfg = disc.cfg
    p = disc.params
    s0, t_gate, g_act = cache["s0"], cache["t"], cache["g"]
    dt = ds * (g_act - s0)
    dg = ds * t_gate
    ds0 = ds * (1.0 - t_gate)
    da_t = dt * t_gate * (1.0 - t_gate)
    da_g = dg * (cache["g_pre"] > 0)
    p["d.hw.Wt"].grad += s0.T @ da_t
    p["d.hw.bt"].grad += da_t.sum(axis=0, keepdims=True)
    p["d.hw.Wg"].grad += s0.T @ da_g
    p["d.hw.bg"].grad += da_g.sum(axis=0, keepdims=True)
    ds0 += da_t @ p.value("d.hw.Wt").T + da_g @ p.value("d.hw.Wg").T
    ids = cache["ids"]
    F, V = cfg.n_filters, cfg.vocab_size
    rows = np.arange(ids.shape[1])[:, None]
    for k, (w, pre) in enumerate(zip(cfg.widths, cache["pres"])):
        # gradient reaches each filter's first maximal position, never a dead filter
        dpooled = ds0[:, k * F:(k + 1) * F] * (s0[:, k * F:(k + 1) * F] > 0)
        tap = np.arange(w)[:, None, None]
        tok = ids[pre.argmax(axis=0) + tap, rows]         # (w, B, F)
        dtaps = np.bincount(((tap * V + tok) * F + np.arange(F)).ravel(),
                            np.broadcast_to(dpooled, tok.shape).ravel(), w * V * F)
        p[f"d.conv{w}.W"].grad += (disc.embed.T @ dtaps.reshape(w, V, F)).reshape(-1, F)
        p[f"d.conv{w}.b"].grad += dpooled.sum(axis=0)


def _lstm_folded(p: ParamStore, direction: str, embed: Tensor) -> tuple[Tensor, Tensor]:
    """d.<direction> (W's rows [h ; x]) folded by `gate_scale`: the (V, 4d)
    table of x @ W_x + b over the frozen embedding table, and W_h."""
    W = p.value(f"d.{direction}.W")
    d_h = W.shape[1] // 4
    W = W * gate_scale(d_h)
    table = embed @ W[d_h:]
    table += p.value(f"d.{direction}.b") * gate_scale(d_h)
    return table, W[:d_h]


def _lstm_seq_backward(p: ParamStore, direction: str, embed: Tensor, ids: Tensor,
                       s: Scan, dH: Tensor) -> None:
    """BPTT for d.<direction>; the embeddings are frozen, so dX is dropped."""
    T, B, d_h = dH.shape
    gW = p[f"d.{direction}.W"].grad
    dA = scan_backward(dH, s, p.value(f"d.{direction}.W")[:d_h])
    dA = dA.reshape(T * B, 4 * d_h)
    gW[:d_h] += s.hs[:-1].reshape(T * B, d_h).T @ dA
    gW[d_h:] += embed[ids.reshape(-1)].T @ dA
    p[f"d.{direction}.b"].grad += dA.sum(axis=0)


def _birnn_features(disc: Discriminator, tokens: Tensor) -> tuple[Tensor, dict]:
    """Time-major throughout: H is (T, B, 2*d_h)."""
    p = disc.params
    ids = (tokens.T, tokens[:, ::-1].T)                      # read forward, backward
    scans = []
    for direction, i in zip(("fwd", "bwd"), ids):
        table, W_h = _lstm_folded(p, direction, disc.embed)
        scans.append(scan(table[i], W_h))
    H = np.concatenate([scans[0].hs[1:], scans[1].hs[:0:-1]], axis=2)
    s, u, alpha = _attend(p, H)
    return s, {"H": H, "u": u, "alpha": alpha, "ids": ids, "scans": scans}


def _attend(p: ParamStore, H: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Additive self-attention over H (T, B, 2*d_h): the pooled (B, 2*d_h)
    features, the (T*B, d_att) tanh layer, built in place, and the (B, T)
    weights. No row's bits depend on the other rows: the score u @ att.u is
    an einsum, where numpy's gemv would take rows four at a time."""
    T, B, d2 = H.shape
    u = H.reshape(T * B, d2) @ p.value("d.att.W")
    u += p.value("d.att.b")
    np.tanh(u, out=u)
    scores = np.einsum("ij,j->i", u, p.value("d.att.u")[0])
    alpha = softmax_rows(scores.reshape(T, B).T)                        # (B, T)
    s = (alpha[:, None, :] @ H.transpose(1, 0, 2))[:, 0]
    return s, u, alpha


def _birnn_backward(disc: Discriminator, cache: dict, ds: Tensor) -> None:
    p = disc.params
    H, u, alpha = cache["H"], cache["u"], cache["alpha"]
    T, B, d2 = H.shape
    dalpha = (H.transpose(1, 0, 2) @ ds[:, :, None])[:, :, 0]             # (B, T)
    dH = alpha.T[:, :, None] * ds
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dscores = dscores.T.reshape(T * B, 1)
    p["d.att.u"].grad += dscores.T @ u
    da = dscores * p.value("d.att.u") * (1.0 - u * u)        # (T*B, d_att)
    p["d.att.W"].grad += H.reshape(T * B, d2).T @ da
    p["d.att.b"].grad += da.sum(axis=0, keepdims=True)
    dH += (da @ p.value("d.att.W").T).reshape(T, B, d2)
    halves = (dH[:, :, :d2 // 2], dH[::-1, :, d2 // 2:])
    for k, direction in enumerate(("fwd", "bwd")):
        _lstm_seq_backward(p, direction, disc.embed, cache["ids"][k], cache["scans"][k],
                           halves[k])


_FEATURES = {"fasttext": _fasttext_features, "cnn": _cnn_features, "birnn": _birnn_features}
_BACKWARDS = {"fasttext": _fasttext_backward, "cnn": _cnn_backward, "birnn": _birnn_backward}


def _birnn_eval_features(disc: Discriminator, tokens: Tensor) -> Tensor:
    """The features of `_birnn_features`, bit for bit, keeping only the
    current state: each direction steps every row from its previous state
    and writes its hidden state into H."""
    p = disc.params
    B, T = tokens.shape
    d_h = disc.cfg.d_hidden
    H = np.empty((T, B, 2 * d_h))
    for direction, ids, out in (("fwd", tokens.T, H[:, :, :d_h]),
                                ("bwd", tokens[:, ::-1].T, H[::-1, :, d_h:])):
        table, W_h = _lstm_folded(p, direction, disc.embed)
        h, c = np.zeros((2, B, d_h))
        for t in range(T):
            cell(table[ids[t]], W_h, h, c, h, c)
            out[t] = h
    return _attend(p, H)[0]


# ---------------------------------------------------------------------------
# Head, loss, and training
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    body: Any
    features: Tensor       # head input: post-dropout features, then the one-hot block
    drop_mask: Tensor | None


def _head(disc: Discriminator, s: Tensor, labels: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """The head's input (features, then the one-hot block) and its logits.
    The product is an einsum, so no row's bits depend on the other rows
    while the input is C-contiguous, as the bodies and the one-hot
    concatenation leave it."""
    cfg = disc.cfg
    if cfg.use_condition:
        if labels is None:
            raise ValueError("conditional discriminator needs labels")
        onehot = np.zeros((len(s), cfg.n_labels))
        onehot[np.arange(len(s)), labels] = 1.0
        head_in = np.concatenate([s, onehot], axis=1)
    else:
        head_in = s
    logits = np.einsum("ij,jk->ik", head_in, disc.params.value("d.head.W"))
    return head_in, logits + disc.params.value("d.head.b")


def forward(disc: Discriminator, tokens: Tensor, labels: np.ndarray | None,
            drop_rng: RngStream | None) -> tuple[Tensor, ForwardCache]:
    """Head logits (B, n_out). Dropout runs when a stream is given, that is,
    in training."""
    cfg = disc.cfg
    s, body = _FEATURES[cfg.kind](disc, tokens)
    drop_mask = None
    if drop_rng is not None and cfg.dropout > 0.0:
        keep = 1.0 - cfg.dropout
        drop_mask = (drop_rng.uniform(s.shape) < keep).astype(np.float64) / keep
        s = s * drop_mask
    head_in, logits = _head(disc, s, labels)
    return logits, ForwardCache(body, head_in, drop_mask)


def backward(disc: Discriminator, cache: ForwardCache, dlogits: Tensor) -> None:
    cfg = disc.cfg
    p = disc.params
    p["d.head.W"].grad += cache.features.T @ dlogits
    p["d.head.b"].grad += dlogits.sum(axis=0, keepdims=True)
    ds = (dlogits @ p.value("d.head.W").T)[:, :cfg.feature_dim()]
    if cache.drop_mask is not None:
        ds = ds * cache.drop_mask
    _BACKWARDS[cfg.kind](disc, cache.body, ds)


def _eval_blocks(disc: Discriminator, tokens: Tensor, labels: np.ndarray | None,
                 head, threads: int) -> np.ndarray:
    """head(eval-mode logits), bit for bit `forward`'s on any two or more
    rows, one row block (`numerics.row_blocks`) per `pmap` item: birnn's
    features from a step loop that keeps only the current state, cnn's and
    fasttext's from their training bodies, then the head. Non-finite logits
    stop here, before any caller acts on them."""
    kind = disc.cfg.kind
    def one(b: slice) -> np.ndarray:
        s = (_birnn_eval_features(disc, tokens[b]) if kind == "birnn"
             else _FEATURES[kind](disc, tokens[b])[0])
        logits = _head(disc, s, None if labels is None else labels[b])[1]
        check_finite("discriminator logits", logits)
        return head(logits)
    parts = pmap(one, row_blocks(len(tokens)), threads)
    return np.concatenate(parts) if parts else head(np.empty((0, disc.cfg.n_out)))


def score(disc: Discriminator, tokens: Tensor, labels: np.ndarray | None,
          threads: int = 1) -> np.ndarray:
    """Eval-mode P(real | sequence, label) for a sigmoid head. Each row's
    score depends only on that row, whatever the worker count, unless the
    call scores one row alone."""
    if disc.cfg.n_out != 1:
        raise ValueError("score() expects a sigmoid head; use class_probs()")
    return _eval_blocks(disc, tokens, labels, lambda z: sigmoid(z[:, 0]), threads)


def class_probs(disc: Discriminator, tokens: Tensor) -> np.ndarray:
    """Eval-mode class distribution for a softmax head without a condition
    block."""
    return _eval_blocks(disc, tokens, None, softmax_rows, 1)


def loss_and_dlogits(disc: Discriminator, logits: Tensor,
                     targets: np.ndarray) -> tuple[float, float, Tensor]:
    """Mean loss, accuracy, and d(loss)/d(logits) including the head L2 term."""
    B = len(targets)
    if disc.cfg.n_out == 1:
        probs = sigmoid(logits[:, 0])
        y = targets.astype(np.float64)
        eps = 1e-12
        loss = float(-(y * np.log(probs + eps) + (1 - y) * np.log(1 - probs + eps)).mean())
        dlogits = ((probs - y) / B)[:, None]
        acc = float(((probs >= 0.5) == (y >= 0.5)).mean())
    else:
        rows = np.arange(B)
        loss = float(-log_softmax_rows(logits)[rows, targets].mean())
        dlogits = softmax_rows(logits)
        dlogits[rows, targets] -= 1.0
        dlogits /= B
        acc = float((logits.argmax(axis=1) == targets).mean())
    W = disc.params.value("d.head.W")
    loss += 0.5 * disc.cfg.l2 * float((W * W).sum())
    return loss, acc, dlogits


def train_step(disc: Discriminator, opt: AdamState, tokens: Tensor,
               labels: np.ndarray | None, targets: np.ndarray,
               drop_rng: RngStream | None, clip: float = 5.0) -> tuple[float, float]:
    """One supervised update; returns (loss, accuracy) on the batch."""
    if drop_rng is None and disc.cfg.dropout > 0.0:
        raise ValueError("a training step with dropout needs a dropout stream")
    logits, cache = forward(disc, tokens, labels, drop_rng)
    loss, acc, dlogits = loss_and_dlogits(disc, logits, targets)
    backward(disc, cache, dlogits)
    disc.params["d.head.W"].grad += disc.cfg.l2 * disc.params.value("d.head.W")
    clip_gradients(disc.params, clip)
    adam_step(disc.params, opt)
    return loss, acc

"""Skip-gram word embeddings with negative sampling.

Trains small dense vectors on a token corpus so the discriminators can
start from frozen, distribution-aware embeddings instead of random ones.
Updates are applied with scatter-adds over minibatches of (center, context)
pairs, which keeps the result deterministic for a given stream.
"""

from __future__ import annotations

import numpy as np

from .corpus import PAD_ID, SequenceData
from .numerics import RngStream, sigmoid

BATCH_SIZE = 512  # (center, context) pairs per update


def _skipgram_pairs(data: SequenceData, window: int) -> np.ndarray:
    """All (center, context) id pairs within `window`, pads skipped: row by
    row, center by center, contexts in position order."""
    keep = data.tokens != PAD_ID
    order = np.argsort(~keep, axis=1, kind="stable")  # pads moved to the end
    toks = np.take_along_axis(data.tokens, order, axis=1).astype(np.int64)
    n_kept = keep.sum(axis=1)[:, None, None]
    centers = np.arange(toks.shape[1])[None, :, None]
    offsets = np.array([d for d in range(-window, window + 1) if d != 0], dtype=np.int64)
    ctx = centers + offsets
    valid = (centers < n_kept) & (ctx >= 0) & (ctx < n_kept)
    ctx_tok = toks[np.arange(len(toks))[:, None, None], np.clip(ctx, 0, toks.shape[1] - 1)]
    return np.stack([np.broadcast_to(toks[:, :, None], valid.shape)[valid],
                     ctx_tok[valid]], axis=1)


def _negative_table(data: SequenceData, vocab_size: int) -> np.ndarray:
    """Cumulative unigram^0.75 distribution used to draw negatives."""
    counts = np.bincount(data.tokens.ravel(), minlength=vocab_size).astype(np.float64)
    counts[PAD_ID] = 0.0
    weights = counts ** 0.75
    total = weights.sum()
    if total == 0:
        weights = np.ones(vocab_size)
        weights[PAD_ID] = 0.0
        total = weights.sum()
    return np.cumsum(weights / total)


def pretrain_embeddings(data: SequenceData, vocab_size: int, dim: int,
                        rng: RngStream, window: int = 2, negatives: int = 5,
                        epochs: int = 5, lr: float = 0.025) -> np.ndarray:
    """Train input vectors and return them as a (vocab_size, dim) table.

    The learning rate decays linearly over all updates down to 1e-4 of its
    starting value, the usual schedule for this model.
    """
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

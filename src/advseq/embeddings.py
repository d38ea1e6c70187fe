"""Skip-gram word embeddings with negative sampling.

Trains small dense vectors on a token corpus so the discriminators can
start from frozen, distribution-aware embeddings instead of random ones.
Each minibatch of (center, context) pairs is one update. Its center rows
are scored against every output row at once (a (B, V) table), and the
gradients of the context and the K negatives are summed into a (B, V)
coefficient table C, so repeated draws add up. Three matrix products then
apply the update: C @ w_out for the centers' gradients, C.T @ (center
rows) for the output rows, and a one-hot product for the input rows. The
result is deterministic for a given stream.

The dense form does B*V*d work per batch where per-pair gathers and
scatter-adds do B*(1+K)*d, but runs as a few large BLAS calls instead of
many small scatters. With K = 5 it is faster up to a vocabulary of roughly
400 tokens (every shipped grammar has about 60) and slower beyond. On 400
rows of uniform random tokens (T = 20, d = 32, 2 epochs, one BLAS thread,
2-vCPU x86) it took 0.3 s against 0.4 s at V = 300, 0.65 s against 0.45 s
at V = 600, and 2.1 s against 0.4 s at V = 2,000.
"""

from __future__ import annotations

import numpy as np

from .corpus import PAD_ID, SequenceData
from .numerics import NumericError, RngStream, check_finite, sigmoid

BATCH_SIZE = 512  # (center, context) pairs per update
# Largest |entry| of a trained table. Preset tables stay below 4; at 100 two
# rows' score can reach 1e4*d, far past where the logistic saturates, so the
# summed batch updates fit nothing any more: the table has diverged.
MAX_ENTRY = 100.0


def _skipgram_pairs(data: SequenceData, window: int) -> np.ndarray:
    """All (center, context) id pairs within `window`, pads skipped: row by
    row, center by center, contexts in position order. A window wider than a
    row acts as `seq_len - 1`, since no wider offset lands in the row."""
    window = min(window, data.tokens.shape[1] - 1)
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
    return np.cumsum(weights / weights.sum())


def pretrain_embeddings(data: SequenceData, vocab_size: int, dim: int,
                        rng: RngStream, epochs: int, window: int,
                        negatives: int, lr: float) -> np.ndarray:
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

            B = len(batch)
            ids = np.concatenate([contexts[:, None], negs], axis=1)   # (B, 1+K)
            v = w_in[centers]                                         # (B, d)
            g = sigmoid(np.take_along_axis(v @ w_out.T, ids, axis=1))
            g[:, 0] -= 1.0
            # C[b, t]: d loss_b / d score(b, t), repeated draws of t added up
            row_start = np.arange(B) * vocab_size
            C = np.bincount((row_start[:, None] + ids).ravel(), weights=g.ravel(),
                            minlength=B * vocab_size).reshape(B, vocab_size)
            onehot = np.zeros((B, vocab_size))
            onehot.ravel()[row_start + centers] = 1.0

            lr_t = lr * max(1.0 - step / total_steps, 1e-4)
            dv = C @ w_out                                            # (B, d)
            w_out -= lr_t * (C.T @ v)
            w_in -= lr_t * (onehot.T @ dv)
            step += 1
    check_finite("skip-gram embeddings", w_in)
    if (top := float(np.abs(w_in).max())) > MAX_ENTRY:
        raise NumericError(f"skip-gram embeddings diverged: an entry of {top:.3g} "
                           f"exceeds {MAX_ENTRY:g}")
    return w_in

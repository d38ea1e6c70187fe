"""One LSTM step and scan, shared by the generator (teacher-forced pass,
sampling, rollouts) and the bidirectional classifier.

Weights, biases and gate blocks hold the input, forget, output and
candidate gates in that order along their 4*d columns:

    a_t = xa_t + h_{t-1} @ W_h         (B, 4d) pre-activations, i|f|o|g
    i, f, o, g = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o), tanh(a_g)
    c_t = f * c_{t-1} + i * g,  h_t = o * tanh(c_t)

Callers hoist the input projection xa_t = x_t @ W_x + b out of the loop
for all T steps (as rows of a (V, 4d) token table embed @ W_x, plus a
label projection in the generator), so only h @ W_h runs per step, inside
`cell`, which `scan`, the generator's free-running loop and the
classifier's prefix-tree scoring call. A row's result does not depend on
which rows share the step, except that numpy sends a one-row product to
gemv, whose bits can differ from gemm's. One tanh gives
every gate, as sigmoid(x) = 0.5*(1 + tanh(x/2)): callers fold the halving
into W_x, W_h and b by multiplying them by `gate_scale(d)`, which is exact.
`scan_backward` takes W_h as stored and returns the (T, B, 4d) gradients
dA of the unfolded pre-activations; each gradient is then one GEMM after
the loop: dW_h = h_prev^T dA, dW_x = X^T dA, db = sum dA, dX = dA W_x^T.
`scan` and `scan_backward` write their arrays into a caller's `Workspace`,
so a training loop that keeps one allocates them once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import Tensor, Workspace


@lru_cache(maxsize=None)
def gate_scale(d: int) -> Tensor:
    """(4d,) read-only column factors: 0.5 on the sigmoid gates i|f|o, 1 on g."""
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], d)
    scale.flags.writeable = False
    return scale


def cell(a: Tensor, W_h: Tensor, h_prev: Tensor, c_prev: Tensor, h: Tensor, c: Tensor) -> None:
    """One step from folded projections a (B, 4d) and W_h: a becomes the gates
    i|f|o|g in place, and the new state goes into h and c (which may alias)."""
    d = c_prev.shape[1]
    scale = gate_scale(d)
    a += h_prev @ W_h
    np.tanh(a, out=a)
    a *= scale
    a += 1.0 - scale                     # 0.5 on i|f|o, 0 on g
    np.multiply(a[:, d:2 * d], c_prev, out=c)
    c += a[:, :d] * a[:, 3 * d:]
    np.tanh(c, out=h)
    h *= a[:, 2 * d:3 * d]


class Scan(NamedTuple):
    hs: Tensor      # (T + 1, B, d) hidden states, hs[0] = 0 before step 0
    cs: Tensor      # (T + 1, B, d) cell states, likewise
    gates: Tensor   # (T, B, 4d) i|f|o|g


def scan(xa: Tensor, W_h: Tensor, ws: Workspace | None = None) -> Scan:
    """Run from a zero state over folded hoisted projections xa (T, B, 4d),
    which become the gates. The states are the workspace's "states" buffer
    (a fresh workspace when none is given)."""
    ws = Workspace() if ws is None else ws
    T, B, d4 = xa.shape
    hs, cs = ws.take("states", (2, T + 1, B, d4 // 4))
    hs[0] = 0.0
    cs[0] = 0.0
    for t in range(T):
        cell(xa[t], W_h, hs[t], cs[t], hs[t + 1], cs[t + 1])
    return Scan(hs, cs, xa)


def scan_backward(dH: Tensor, s: Scan, W_h: Tensor, ws: Workspace | None = None) -> Tensor:
    """BPTT from dH (T, B, d), each step's direct loss gradient on its
    hidden state, with W_h as stored (the one given to `scan`, unfolded).
    Returns the workspace's "dA" buffer (a fresh workspace when none is
    given); every element's arithmetic is that of the step-by-step chain
    rule, in the same order."""
    ws = Workspace() if ws is None else ws
    T, B, d = dH.shape
    shift = 2.0 * gate_scale(d) - 1.0    # 0 on i|f|o, 1 on g
    # each dA[t] starts as 1 - G and is scaled in place by (G + shift) and
    # then by the chain-rule products
    dA = np.subtract(1.0, s.gates, out=ws.take("dA", (T, B, 4 * d)))
    dh, dc, tanh_c, sech2, prod = ws.take("bptt", (5, B, d))
    scale = ws.take("bptt_gates", (B, 4 * d))
    dh[...] = 0.0
    dc[...] = 0.0
    for t in range(T - 1, -1, -1):
        G = s.gates[t]
        np.tanh(s.cs[t + 1], out=tanh_c)
        dh += dH[t]
        np.multiply(tanh_c, tanh_c, out=sech2)
        np.subtract(1.0, sech2, out=sech2)
        np.multiply(dh, G[:, 2 * d:3 * d], out=prod)
        prod *= sech2
        dc += prod
        da = dA[t]
        da *= np.add(G, shift, out=scale)  # s(1 - s) on i|f|o, (1 - g)(1 + g) on g
        da[:, :d] *= np.multiply(dc, G[:, 3 * d:], out=prod)
        da[:, d:2 * d] *= np.multiply(dc, s.cs[t], out=prod)
        da[:, 2 * d:3 * d] *= np.multiply(dh, tanh_c, out=prod)
        da[:, 3 * d:] *= np.multiply(dc, G[:, :d], out=prod)
        dc *= G[:, d:2 * d]
        np.matmul(da, W_h.T, out=dh)
    return dA

"""One LSTM step and scan, shared by the generator (teacher-forced pass,
sampling, rollouts) and the bidirectional classifier.

Weights and biases hold the input, forget, output and candidate gates in
that order along their 4*d columns; the recurrence runs gate-major, on
(4, B, d) stacks of contiguous (B, d) slabs i|f|o|g (see `fold`):

    a_t = xa_t + h_{t-1} @ W4          W4: the (4, d, d) column blocks of W_h
    i, f, o, g = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o), tanh(a_g)
    c_t = f * c_{t-1} + i * g,  h_t = o * tanh(c_t)

Callers hoist xa_t = x_t @ W_x + b out of the loop as a folded (4, V, d)
token table, whose rows `gate_rows` gathers as (4, B, d) stacks, so only
h @ W4 runs per step, in `cell`. A row's result does not depend on which
rows share the step, except that numpy sends a one-row product to gemv,
whose bits can differ from gemm's. At widths that are multiples of 8,
OpenBLAS gives h @ W4 the bits of the row layout's h @ W_h; at others it
may sum in another order. One tanh gives every gate, as sigmoid(x) =
0.5*(1 + tanh(x/2)): `fold` halves the i|f|o slabs of W4 and of the table,
after the products, which gives the bits of halving W_x, W_h and b before
them, since halving is exact.
`scan_backward` returns the gradients dA of the unfolded pre-activations
in the stored (T, B, 4d) layout, so each gradient is one GEMM after the
loop: dW_h = h_prev^T dA, dW_x = X^T dA, db = sum dA, dX = dA W_x^T.
`scan` and `scan_backward` write into a caller's `Workspace`, so a
training loop that keeps one allocates their arrays once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numerics import Tensor, Workspace


def fold(x: Tensor) -> Tensor:
    """A contiguous (..., 4, R, d) copy of x (..., R, 4d), its column blocks
    stacked, with the sigmoid's halving folded into the i|f|o slabs."""
    y = np.moveaxis(x.reshape(*x.shape[:-1], 4, -1), -2, -3).copy()
    y[..., :3, :, :] *= 0.5
    return y


def gate_rows(table: Tensor, ids: np.ndarray, out: Tensor | None) -> Tensor:
    """Rows `ids` (..., B) of a gate-major (4, n, d) table as (..., 4, B, d)
    stacks of contiguous slabs (fancy indexing would interleave them), by one
    np.take into `out` if given (mode="clip" writes there; "raise" buffers)."""
    _, n, d = table.shape
    return np.take(table.reshape(4 * n, d), ids[..., None, :] + n * np.arange(4)[:, None],
                   axis=0, mode="clip", out=out)


def cell(a: Tensor, W4: Tensor, h_prev: Tensor, c_prev: Tensor, h: Tensor, c: Tensor) -> None:
    """One step from folded gate-major projections a (4, B, d) and W4: a
    becomes the gates in place, the state goes into h and c (which may
    alias). g skips the row layout's `*1` and `+0`, which only turn -0.0 to
    +0.0; a_g is never -0.0, as (h @ W4)_g, a BLAS sum from +0.0, never is."""
    a += np.matmul(h_prev, W4)
    np.tanh(a, out=a)
    a[:3] *= 0.5
    a[:3] += 0.5
    np.multiply(a[1], c_prev, out=c)
    c += a[0] * a[3]
    np.tanh(c, out=h)
    h *= a[2]


class Scan(NamedTuple):
    hs: Tensor      # (T + 1, B, d) hidden states, hs[0] = 0 before step 0
    cs: Tensor      # (T + 1, B, d) cell states, likewise
    gates: Tensor   # (T, 4, B, d) i|f|o|g, gate-major


def scan(xa: Tensor, W4: Tensor, ws: Workspace | None = None) -> Scan:
    """Run from a zero state over folded gate-major hoisted projections xa
    (T, 4, B, d), which become the gates. The states are the workspace's
    "states" buffer (a fresh workspace when none is given)."""
    ws = Workspace() if ws is None else ws
    T, _, B, d = xa.shape
    hs, cs = ws.take("states", (2, T + 1, B, d))
    hs[0] = 0.0
    cs[0] = 0.0
    for t in range(T):
        cell(xa[t], W4, hs[t], cs[t], hs[t + 1], cs[t + 1])
    return Scan(hs, cs, xa)


def scan_backward(dH: Tensor, s: Scan, W_h: Tensor, ws: Workspace | None = None) -> Tensor:
    """BPTT from dH (T, B, d), each step's direct loss gradient on its
    hidden state, with W_h as stored: (d, 4d) and unfolded. Returns the
    workspace's (T, B, 4d) "dA" buffer (a fresh workspace when none is
    given); each element's arithmetic is the step-by-step chain rule's, in
    its order. A step scales contiguous gate slabs, then copies them into
    dA[t]: faster than scaling dA's strided column blocks in place."""
    ws = Workspace() if ws is None else ws
    T, B, d = dH.shape
    dA = ws.take("dA", (T, B, 4 * d))
    dh, dc, tanh_c, sech2, prod = ws.take("bptt", (5, B, d))
    da = ws.take("bptt_gates", (4, B, d))
    dh[...] = 0.0
    dc[...] = 0.0
    for t in range(T - 1, -1, -1):
        G = s.gates[t]
        i, f, o, g = G
        np.tanh(s.cs[t + 1], out=tanh_c)
        dh += dH[t]
        np.multiply(tanh_c, tanh_c, out=sech2)
        np.subtract(1.0, sech2, out=sech2)
        np.multiply(dh, o, out=prod)
        prod *= sech2
        dc += prod
        np.subtract(1.0, G, out=da)
        da[:3] *= G[:3]                     # s(1 - s) on i|f|o
        da[3] *= np.add(g, 1.0, out=prod)   # (1 - g)(1 + g) on g
        da[0] *= np.multiply(dc, g, out=prod)
        da[1] *= np.multiply(dc, s.cs[t], out=prod)
        da[2] *= np.multiply(dh, tanh_c, out=prod)
        da[3] *= np.multiply(dc, i, out=prod)
        dc *= f
        dA[t].reshape(B, 4, d).transpose(1, 0, 2)[...] = da
        np.matmul(dA[t], W_h.T, out=dh)
    return dA

"""LSTM scan forward against a straight-line per-row oracle, backward
against finite differences and against step-by-step BPTT, and batch rows
against each other."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as some
from hypothesis.extra.numpy import arrays

from advseq.numerics import RngStream, Workspace
from advseq.recurrent import Scan, cell, gate_scale, scan, scan_backward
from oracles import loop_scan_backward


def cell_params(d_h: int, d_x: int, rng: RngStream):
    W = rng.child("W").normal((d_h + d_x, 4 * d_h), scale=0.4)
    b = rng.child("b").normal(4 * d_h, scale=0.1)
    return W, b


def run_scan(W, b, X):
    """Hoist X @ W_x + b out of the loop and scan, the way callers do."""
    d_h = W.shape[1] // 4
    Wf = W * gate_scale(d_h)
    xa = X @ Wf[d_h:] + b * gate_scale(d_h)
    return scan(xa, Wf[:d_h])


def test_zero_weights_give_zero_hidden_state():
    # with W=b=0: i=f=o=0.5, g=0, so a zero state stays zero
    d_h, d_x = 2, 4
    X = RngStream(30).normal((5, 3, d_x))
    s = run_scan(np.zeros((d_h + d_x, 4 * d_h)), np.zeros(4 * d_h), X)
    assert np.array_equal(s.hs, np.zeros((6, 3, d_h)))
    assert np.array_equal(s.cs, np.zeros((6, 3, d_h)))
    assert np.array_equal(s.gates[..., :3 * d_h], np.full((5, 3, 3 * d_h), 0.5))
    assert np.array_equal(s.gates[..., 3 * d_h:], np.zeros((5, 3, d_h)))


def test_forward_matches_straight_line_oracle():
    # five steps, so every step after the first carries a nonzero h and c
    d_h, d_x, batch, T = 2, 3, 4, 5
    rng = RngStream(31)
    W, b = cell_params(d_h, d_x, rng)
    X = rng.child("x").normal((T, batch, d_x))
    s = run_scan(W, b, X)

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    for r in range(batch):
        h, c = np.zeros(d_h), np.zeros(d_h)
        for t in range(T):
            a = np.concatenate([h, X[t, r]]) @ W + b
            i = sig(a[:d_h])
            f = sig(a[d_h:2 * d_h])
            o = sig(a[2 * d_h:3 * d_h])
            g = np.tanh(a[3 * d_h:])
            c = f * c + i * g
            h = o * np.tanh(c)
            assert np.max(np.abs(s.gates[t, r] - np.concatenate([i, f, o, g]))) < 1e-12
            assert np.max(np.abs(s.cs[t + 1, r] - c)) < 1e-12
            assert np.max(np.abs(s.hs[t + 1, r] - h)) < 1e-12
    assert np.all(np.abs(s.cs[1:]) > 0)
    assert np.array_equal(s.hs[0], np.zeros((batch, d_h)))


def test_hidden_state_stays_in_open_unit_interval():
    rng = RngStream(32)
    W, b = cell_params(3, 3, rng)
    s = run_scan(W, b, rng.child("x").normal((50, 8, 3), scale=4.0))
    assert np.all(np.abs(s.hs) < 1.0)


def test_backward_matches_finite_differences():
    d_h, d_x, batch, T = 2, 3, 2, 4
    rng = RngStream(33)
    W, b = cell_params(d_h, d_x, rng)
    X = rng.child("x").normal((T, batch, d_x))
    # scalar loss: a weighted sum of every step's hidden state, so each
    # gradient crosses up to T - 1 steps of recurrence
    wh = rng.child("wh").normal((T, batch, d_h))
    scale = gate_scale(d_h)

    def loss_of_preact(xa_raw):
        return float(np.sum(wh * scan(xa_raw * scale, W[:d_h] * scale).hs[1:]))

    def loss():
        return float(np.sum(wh * run_scan(W, b, X).hs[1:]))

    s = run_scan(W, b, X)
    dA = scan_backward(wh, s, W[:d_h])
    flat = dA.reshape(T * batch, 4 * d_h)
    grads = {
        "W_h": s.hs[:-1].reshape(T * batch, d_h).T @ flat,
        "W_x": X.reshape(T * batch, d_x).T @ flat,
        "b": flat.sum(axis=0),
        "X": dA @ W[d_h:].T,
    }
    dW = np.concatenate([grads["W_h"], grads["W_x"]])

    def fd_check(arr, grad, f):
        eps = 1e-6
        flat_arr = arr.reshape(-1)
        for k in range(flat_arr.size):
            orig = flat_arr[k]
            flat_arr[k] = orig + eps
            up = f()
            flat_arr[k] = orig - eps
            down = f()
            flat_arr[k] = orig
            assert abs((up - down) / (2 * eps) - grad.reshape(-1)[k]) < 1e-6

    xa_raw = X @ W[d_h:] + b
    fd_check(xa_raw, dA, lambda: loss_of_preact(xa_raw))
    for arr, grad in ((W, dW), (b, grads["b"]), (X, grads["X"])):
        fd_check(arr, grad, loss)


def test_scan_rows_are_independent_bitwise():
    # what the chunk- and thread-invariance gates rest on: a row's states,
    # gates and gradients do not depend on which rows share its batch
    d_h, d_x, T = 32, 32, 6
    rng = RngStream(34)
    W, b = cell_params(d_h, d_x, rng)
    W_h = W[:d_h] * gate_scale(d_h)
    for batch, cut in ((13, 7), (300, 128)):
        X = rng.child("x", batch).normal((T, batch, d_x))
        dH = rng.child("dh", batch).normal((T, batch, d_h))
        whole = run_scan(W, b, X)
        dA = scan_backward(dH, whole, W_h)
        for rows in (slice(0, cut), slice(cut, batch)):
            part = run_scan(W, b, X[:, rows].copy())
            assert np.array_equal(part.hs, whole.hs[:, rows])
            assert np.array_equal(part.cs, whole.cs[:, rows])
            assert np.array_equal(part.gates, whole.gates[:, rows])
            assert np.array_equal(scan_backward(dH[:, rows], part, W_h), dA[:, rows])


def test_cell_rows_are_independent_bitwise_at_chunk_size():
    # what birnn scoring over a prefix tree rests on: one step over rows
    # gathered from a 2048-row batch, in any order and with repeats, gives
    # those rows' bits of the whole batch's step (one row alone is not
    # covered: numpy sends a one-row product to gemv)
    d, B = 32, 2048
    rng = RngStream(35)
    W_h = rng.child("w").normal((d, 4 * d), scale=0.3) * gate_scale(d)
    a = rng.child("a").normal((B, 4 * d))
    h_prev = rng.child("h").uniform_range(-1.0, 1.0, (B, d))
    c_prev = rng.child("c").normal((B, d))
    h, c = np.empty((2, B, d))
    cell(a.copy(), W_h, h_prev, c_prev, h, c)
    for m in (2, 3, 7, 64, 257, 1500, 2047):
        rows = rng.child("rows", m).permutation(B)[:m]
        rows[-1] = rows[0]
        h_sub, c_sub = np.empty((2, m, d))
        cell(a[rows], W_h, h_prev[rows], c_prev[rows], h_sub, c_sub)
        assert np.array_equal(h_sub, h[rows]), m
        assert np.array_equal(c_sub, c[rows]), m


@settings(max_examples=200, deadline=None)
@given(data=some.data(), T=some.integers(1, 6), B=some.integers(1, 5), d=some.integers(1, 4))
def test_backward_equals_step_by_step_bptt_bitwise(data, T, B, d):
    def draw(shape, bound):
        return data.draw(arrays(np.float64, shape, elements=some.floats(-bound, bound)))

    s = Scan(np.zeros((T + 1, B, d)), draw((T + 1, B, d), 3.0), draw((T, B, 4 * d), 1.0))
    dH, W_h = draw((T, B, d), 10.0), draw((d, 4 * d), 1.0)
    expected = loop_scan_backward(dH, s, W_h)
    assert np.array_equal(scan_backward(dH, s, W_h), expected)
    # a workspace that served a larger pass first hands out views of
    # stale memory, which must not leak into the result
    ws = Workspace()
    big = Scan(np.ones((7, 5, 4)), np.ones((7, 5, 4)), np.full((6, 5, 16), 0.5))
    scan_backward(np.ones((6, 5, 4)), big, np.ones((4, 16)), ws)
    assert np.array_equal(scan_backward(dH, s, W_h, ws), expected)

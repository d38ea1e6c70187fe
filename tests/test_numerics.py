"""Tensor kernels, optimizer, RNG streams, and the gradient checker."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advseq.adversarial import soft_update
from advseq.numerics import (ADAM_EPS, AdamState, NumericError, ParamStore, RngStream,
                             adam_step, check_finite, chunk_slices,
                             clip_gradients, log_softmax_rows,
                             pmap, relu, sigmoid, softmax_rows)
from oracles import finite_diff_check, loop_adam_step, loop_clip_gradients, loop_soft_update


def small_store(rng: RngStream, shapes=((3, 4), (2, 2), (1, 5))) -> ParamStore:
    return ParamStore({f"w{i}": rng.child("p", i).normal(shape)
                       for i, shape in enumerate(shapes)})


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(-300, 300), min_size=1, max_size=7),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    # gaps below ~746 nats keep every exp() representable, so probs stay > 0
    probs = softmax_rows(np.array(rows, dtype=np.float64))
    assert np.all(probs > 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


def test_log_softmax_consistent_with_softmax():
    x = RngStream(3).normal((4, 9), scale=30.0)
    assert np.allclose(np.exp(log_softmax_rows(x)), softmax_rows(x),
                       rtol=0, atol=1e-12)


def test_sigmoid_and_relu_basics():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    # saturation must not overflow
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0 and big[1] == 0.0
    assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


def test_sigmoid_is_the_tanh_form_of_the_two_branch_logistic():
    x = np.linspace(-60.0, 60.0, 1_000_001)
    s = sigmoid(x)
    two_branch = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                          np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert np.max(np.abs(s - two_branch)) <= 2.3e-16
    assert np.all(np.diff(s) >= 0.0)
    # (0 and +-800 are pinned above) far enough below zero the result is
    # exactly 0.0, not a tiny positive
    assert sigmoid(np.array([-40.0]))[0] == 0.0


def test_check_finite_names_the_offender():
    with pytest.raises(NumericError, match="bad_tensor"):
        check_finite("bad_tensor", np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# ParamStore and gradient utilities
# ---------------------------------------------------------------------------


def test_param_store_copy_is_independent():
    ps = small_store(RngStream(1))
    clone = ps.copy()
    ps["w0"].value += 1.0
    assert not np.array_equal(ps.value("w0"), clone.value("w0"))
    assert [n for n, _ in ps.items()] == [n for n, _ in clone.items()]
    assert sum(p.value.size for _, p in ps.items()) == 12 + 4 + 5


def test_zero_grads_resets_every_block():
    ps = small_store(RngStream(2))
    for _, p in ps.items():
        p.grad += 3.0
    ps.zero_grads()
    assert not ps.grad.any()


def test_clip_gradients_scales_to_max_norm():
    ps = small_store(RngStream(4))
    for _, p in ps.items():
        p.grad[...] = 2.0
    before = clip_gradients(ps, np.inf)  # the norm, nothing scaled
    assert before > 1.0
    assert clip_gradients(ps, 1.0) == before
    assert abs(clip_gradients(ps, np.inf) - 1.0) < 1e-12


@pytest.mark.parametrize("grad", [1e200, np.inf, np.nan])
def test_clip_gradients_refuses_a_non_finite_norm(grad):
    # 1e200 is finite, but its square overflows the norm's float64 sum;
    # scaling by max_norm / inf would zero every gradient instead
    ps = small_store(RngStream(4))
    for _, p in ps.items():
        p.grad[...] = 1.0
    ps["w1"].grad[0, 0] = grad
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="gradient norm"):
        clip_gradients(ps, 5.0)


def test_clip_gradients_leaves_small_gradients_alone():
    ps = small_store(RngStream(5))
    for _, p in ps.items():
        p.grad[...] = 1e-3
    snapshot = {n: p.grad.copy() for n, p in ps.items()}
    clip_gradients(ps, 10.0)
    for n, p in ps.items():
        assert np.array_equal(p.grad, snapshot[n])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_matches_sign_update():
    # with bias correction the first step is -lr * g / (|g| + eps)
    ps = small_store(RngStream(6))
    before = {n: p.value.copy() for n, p in ps.items()}
    grads = {}
    for n, p in ps.items():
        p.grad[...] = RngStream(7, n).normal(p.value.shape)
        grads[n] = p.grad.copy()
    opt = AdamState(ps, lr=1e-3)
    adam_step(ps, opt)
    for n, p in ps.items():
        delta = p.value - before[n]
        expected = -opt.lr * grads[n] / (np.abs(grads[n]) + ADAM_EPS)
        assert np.max(np.abs(delta - expected)) < 1e-6


def test_adam_state_roundtrip_resumes_exactly():
    def run(steps_then_restore):
        ps = small_store(RngStream(8))
        opt = AdamState(ps, lr=1e-2)
        stream = RngStream(9)
        saved = None
        for step in range(6):
            if step == 3 and steps_then_restore:
                saved = ({n: p.value.copy() for n, p in ps.items()},
                         ({n: a.copy() for n, a in opt.m.items()},
                          {n: a.copy() for n, a in opt.v.items()}, opt.t))
            for n, p in ps.items():
                p.grad[...] = stream.child("g", step, n).normal(p.value.shape)
            adam_step(ps, opt)
        return ps, saved

    full, saved = run(True)
    ps2 = small_store(RngStream(8))
    for n, p in ps2.items():
        p.value[...] = saved[0][n]
    opt2 = AdamState(ps2, lr=1e-2)
    for moments, arrays in zip((opt2.m, opt2.v), saved[1]):
        for n, a in arrays.items():
            moments[n][...] = a   # in place, as restore_run_state fills them
    opt2.t = saved[1][2]
    stream = RngStream(9)
    for step in range(3, 6):
        for n, p in ps2.items():
            p.grad[...] = stream.child("g", step, n).normal(p.value.shape)
        adam_step(ps2, opt2)
    for n, p in full.items():
        assert np.array_equal(p.value, ps2.value(n))


def test_store_views_share_the_packed_vectors():
    ps = small_store(RngStream(14))
    for _, p in ps.items():
        assert np.shares_memory(p.value, ps.flat) and np.shares_memory(p.grad, ps.grad)
    assert ps.flat.size == ps.grad.size == 12 + 4 + 5


def _step_both(stores, opts, rolls, clip, alpha):
    """One clip + Adam + soft update on the packed store and, through the
    per-parameter oracles, on its twin; returns each side's outcome."""
    outcomes = []
    for ps, opt, roll, (clip_fn, adam_fn, soft_fn) in zip(
            stores, opts, rolls, ((clip_gradients, adam_step, soft_update),
                                  (loop_clip_gradients, loop_adam_step, loop_soft_update))):
        try:
            norm = None if clip is None else clip_fn(ps, clip)
            adam_fn(ps, opt)
            soft_fn(roll, ps, alpha)
            outcomes.append(norm)
        except NumericError as e:
            outcomes.append(str(e))
    return outcomes


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 40)),
                       min_size=1, max_size=12),
       clip=st.sampled_from([None, 0.5, 1e3]), alpha=st.sampled_from([0.0, 1.0, 0.8, 0.37]),
       poison=st.sampled_from(["none", "grad", "value"]),
       spots=st.lists(st.integers(0, 11), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
@example(shapes=[(1, 1)] * 9, clip=None, alpha=0.8, poison="grad", spots=[8, 3], seed=0)
@example(shapes=[(1, 1), (3, 30), (1, 1), (2, 17), (1, 5), (6, 6), (1, 1), (4, 9), (1, 40)],
         clip=None, alpha=0.0, poison="value", spots=[7, 2], seed=1)
def test_packed_store_matches_the_per_parameter_loops(shapes, clip, alpha, poison, spots,
                                                      seed):
    # clipping, Adam and the soft update on whole vectors give the bits of
    # the old per-parameter loops, norm included, over several steps; a
    # non-finite gradient or value is reported by the same message naming
    # the first parameter that holds one
    rng = RngStream(seed)
    init = {f"w{i}": rng.child("p", i).normal(s, scale=0.3) for i, s in enumerate(shapes)}
    stores = [ParamStore(init), ParamStore(init)]
    rolls = [ParamStore({n: -a for n, a in init.items()}) for _ in stores]
    opts = [AdamState(ps, lr=0.05) for ps in stores]
    names = list(init)
    for step in range(4):
        for ps in stores:
            for n, p in ps.items():
                p.grad[...] = rng.child("g", step, n).normal(p.grad.shape, scale=0.7)
        if step == 3 and poison != "none":
            for ps in stores:
                for i in spots:
                    getattr(ps[names[i % len(names)]], poison)[0, 0] = np.nan
        packed, loop = _step_both(stores, opts, rolls, clip, alpha)
        assert packed == loop
        if isinstance(packed, str):
            first = names[min(i % len(names) for i in spots)]
            clipped = poison == "grad" and clip is not None  # the norm check goes first
            assert packed == "global gradient norm is nan" if clipped else f"'{first}'" in packed
            return
        assert np.array_equal(stores[0].flat, stores[1].flat)
        assert np.array_equal(stores[0].grad, stores[1].grad)
        assert np.array_equal(rolls[0].flat, rolls[1].flat)
        assert np.array_equal(opts[0].m_flat, opts[1].m_flat)
        assert np.array_equal(opts[0].v_flat, opts[1].v_flat)
        assert opts[0].t == opts[1].t == step + 1


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def quadratic_loss(ps: ParamStore) -> float:
    return 0.5 * sum(float(np.sum(p.value ** 2)) for _, p in ps.items())


def test_finite_diff_check_quadratic_is_tight():
    ps = small_store(RngStream(10))
    for _, p in ps.items():
        p.grad[...] = p.value  # exact analytic gradient of 0.5 * ||w||^2
    rel = finite_diff_check(quadratic_loss, ps)
    assert rel < 1e-8


def test_finite_diff_check_flags_corrupted_gradient():
    ps = small_store(RngStream(12))
    for _, p in ps.items():
        p.grad[...] = p.value
    ps["w1"].grad[0, 0] += 0.05
    rel = finite_diff_check(quadratic_loss, ps)
    assert rel > 1e-2


def test_finite_diff_check_subsamples_deterministically():
    ps = small_store(RngStream(13))
    for _, p in ps.items():
        p.grad[...] = p.value
    a = finite_diff_check(quadratic_loss, ps, max_coords=5, rng=RngStream(1, "fd"))
    b = finite_diff_check(quadratic_loss, ps, max_coords=5, rng=RngStream(1, "fd"))
    assert a == b


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def test_same_seed_and_path_is_bit_identical():
    a = RngStream(42, "x").uniform(64)
    b = RngStream(42, "x").uniform(64)
    assert np.array_equal(a, b)


def test_child_streams_differ_from_parent_and_each_other():
    root = RngStream(42)
    u0 = root.child("a").uniform(32)
    u1 = root.child("b").uniform(32)
    u2 = root.child("a", 1).uniform(32)
    assert not np.array_equal(u0, u1)
    assert not np.array_equal(u0, u2)


def test_draw_order_does_not_leak_between_children():
    root = RngStream(5)
    root.child("x").uniform(1000)  # consume a lot on one child
    a = root.child("y").uniform(8)
    b = RngStream(5).child("y").uniform(8)
    assert np.array_equal(a, b)


def test_uniform_range_and_integers_bounds():
    rng = RngStream(77)
    u = rng.child("u").uniform_range(-0.08, 0.08, (50, 50))
    assert np.all(u >= -0.08) and np.all(u < 0.08)
    ints = rng.child("i").integers(3, 9, 10_000)
    assert ints.min() == 3 and ints.max() == 8


def test_permutation():
    rng = RngStream(78)
    perm = rng.child("p").permutation(100)
    assert np.array_equal(np.sort(perm), np.arange(100))


# ---------------------------------------------------------------------------
# parallel map
# ---------------------------------------------------------------------------


def test_pmap_results_independent_of_thread_count():
    items = [np.arange(i, i + 4, dtype=np.float64) for i in range(23)]
    fn = lambda x: float(np.sum(np.sin(x)))
    assert pmap(fn, items, threads=1) == pmap(fn, items, threads=4)


def test_chunk_slices_partition_the_range():
    for n, chunk in ((0, 4), (7, 3), (12, 4), (5, 100)):
        slices = chunk_slices(n, chunk)
        seen = []
        for s in slices:
            seen.extend(range(n)[s])
        assert seen == list(range(n))

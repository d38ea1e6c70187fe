"""Dense float64 numeric core.

Tensors are plain 2-D numpy float64 arrays ("row-major reals with shape
metadata"). On top of them this module provides stable nonlinearities, named
parameter stores packed into one value and one gradient vector, an Adam
optimizer that updates those whole vectors, grow-only scratch workspaces,
counter-based seeded random streams, and an order-preserving parallel map
whose results do not depend on the worker count, over fixed grids of rows.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

Tensor = np.ndarray


class NumericError(RuntimeError):
    """A value that must stay finite became NaN or infinite."""


def check_finite(name: str, *arrays: Tensor) -> None:
    """Raise NumericError naming `name` if any array holds NaN/Inf."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite values in '{name}'")


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function as 0.5*(1 + tanh(x/2)), elementwise: no overflow,
    exact 0.5 at 0, and exactly 0.0 below about -37.4, so a caller that
    takes its log adds an eps first."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise softmax via max subtraction; safe for entries up to +-1e3."""
    logits = np.asarray(logits, dtype=np.float64)
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def log_softmax_rows(logits: Tensor) -> Tensor:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


# ---------------------------------------------------------------------------
# Parameter stores
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Param:
    value: Tensor
    grad: Tensor


class ParamStore:
    """Ordered map of name -> (value, gradient), packed: values in one float64
    vector, `flat`, gradients in another, `grad`; each Param holds shaped
    views of its slices, filled in place and never rebound. Single writer."""

    def __init__(self, values: dict[str, Tensor]):
        self._shapes = {name: np.shape(v) for name, v in values.items()}
        self._starts = np.cumsum([0] + [math.prod(s) for s in self._shapes.values()])
        self.flat = np.concatenate([np.ravel(v) for v in values.values()], dtype=np.float64)
        self.grad = np.zeros_like(self.flat)
        self._params = {name: Param(value, grad) for (name, value), grad in
                        zip(self.views(self.flat).items(), self.views(self.grad).values())}

    def views(self, vector: Tensor) -> dict[str, Tensor]:
        """Shaped views, by name, of a vector laid out like `flat`."""
        return {name: vector[a:b].reshape(shape) for (name, shape), a, b
                in zip(self._shapes.items(), self._starts, self._starts[1:])}

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self) -> Iterator[tuple[str, Param]]:
        return iter(self._params.items())

    def value(self, name: str) -> Tensor:
        return self._params[name].value

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def copy(self) -> "ParamStore":
        """Deep copy of values (gradients start from zero)."""
        return ParamStore(self.views(self.flat))

    def require_finite(self, vector: Tensor, message: str) -> None:
        """Raise NumericError, `message` naming the parameter of `vector`'s first NaN/Inf."""
        finite = np.isfinite(vector)
        if not finite.all():
            at = np.searchsorted(self._starts, np.argmin(finite), side="right") - 1
            raise NumericError(message.format(list(self._shapes)[at]))


def clip_gradients(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm.

    Returns the pre-clip norm: each parameter's np.sum of squares, added in
    parameter order (one sum, or np.add.reduceat, over `grad` groups them
    otherwise). A norm that overflows (finite gradients above about 1e154)
    raises NumericError: scaling by max_norm / inf would zero every
    gradient and turn the step into a silent no-op.
    """
    total = 0.0
    for part in params.views(params.grad * params.grad).values():
        total += float(np.sum(part))
    norm = float(np.sqrt(total))
    if not math.isfinite(norm):
        raise NumericError(f"global gradient norm is {norm}")
    if norm > max_norm:
        params.grad *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# Scratch buffers
# ---------------------------------------------------------------------------


class Workspace:
    """Named float64 scratch buffers that only grow.

    `take(name, shape)` returns a C-contiguous view of the leading elements
    of the buffer `name`, reallocating it only when the request is larger
    than any before. Batches of every size then share one block per name,
    and a training loop that owns a workspace allocates its large arrays
    once. An array handed out stays valid until the same name is taken
    again, so the caller that owns the workspace decides how long results
    built in it live.
    """

    def __init__(self):
        self._buffers: dict[str, Tensor] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> Tensor:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# Adaptive-moment optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Step counter and moment vectors laid out like `flat` (by name: m, v)."""

    def __init__(self, params: ParamStore, lr: float):
        self.lr = float(lr)
        self.t = 0
        self.m_flat = np.zeros_like(params.flat)
        self.v_flat = np.zeros_like(params.flat)
        self.m = params.views(self.m_flat)
        self.v = params.views(self.v_flat)


def adam_step(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected adaptive-moment update; gradients are zeroed after.

    A NaN/Inf gradient raises NumericError naming the offending parameter so
    poisoned state never reaches the weights.
    """
    params.require_finite(params.grad, "non-finite gradient for parameter '{}'")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.m_flat, state.v_flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * params.grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (params.grad * params.grad)
    params.flat -= state.lr * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))
    params.require_finite(params.flat, "non-finite value for parameter '{}' after update")
    params.zero_grads()


# ---------------------------------------------------------------------------
# Seeded random streams
# ---------------------------------------------------------------------------


def _derive_key(seed: int, path: tuple) -> int:
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed).to_bytes(8, "little", signed=True))
    for part in path:
        if isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(8, "little", signed=True))
        else:
            raise TypeError(f"rng path parts must be str or int, got {type(part).__name__}")
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Counter-based random stream keyed by (seed, path).

    Identical (seed, path) pairs replay identical draw sequences; distinct
    paths give independent streams, so batch items can each own a stream and
    the execution schedule never changes results.
    """

    def __init__(self, seed: int, *path):
        self.seed = int(seed)
        self.path: tuple = tuple(path)
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(self.seed, self.path)))

    def child(self, *path) -> "RngStream":
        return RngStream(self.seed, *self.path, *path)

    def uniform(self, size) -> Tensor:
        return self._gen.random(size)

    def normal(self, size, scale: float = 1.0) -> Tensor:
        return self._gen.standard_normal(size) * scale

    def uniform_range(self, low: float, high: float, size) -> Tensor:
        return low + (high - low) * self._gen.random(size)

    def integers(self, low: int, high: int, size):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# Deterministic parallel map
# ---------------------------------------------------------------------------


def pmap(fn: Callable, items: Sequence, threads: int) -> list:
    """Order-preserving map over independent items.

    The work decomposition is fixed by the item list, never by the worker
    count, so outputs are identical for any `threads` value.
    """
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def chunk_slices(n: int, chunk: int) -> list[slice]:
    """Fixed-size slicing of range(n), independent of worker count."""
    return [slice(i, min(i + chunk, n)) for i in range(0, n, chunk)]


# rows per block of the rollout step's per-row work (generation, cnn and
# fasttext scoring bodies): a block's (4, rows, d) gates and (L, rows, F)
# window sums stay near the L2 cache. At adv_cnn's shape a rollout call
# peaked at 8.4 MiB, 23.8 unblocked (6.4 with generation state freed before
# scoring); 128 rows took 5% more CPU, 512 held 2.3 MiB more. At least 2
ROW_BLOCK = 256


def row_blocks(n: int) -> list[slice]:
    """The fixed grid of ROW_BLOCK-row slices of range(n). No block holds
    one row unless n is 1: numpy sends a one-row product to gemv, whose
    bits can differ from the same row's in a gemm. So a one-row remainder
    joins the block before it."""
    starts = list(range(0, n - 1 if n > 1 else n, ROW_BLOCK))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]

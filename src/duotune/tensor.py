"""Dense tensor numerics with reverse-mode autodiff on an explicit tape.

Everything here is plain numpy under the hood. A forward pass builds a Tape
of nodes in creation order (which is a topological order), and backward()
walks it in reverse. Parameters are ordinary numpy arrays wrapped into leaf
nodes per pass, so optimizers stay tape-free.

Training runs at float32 by default; gradient checks use float64.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-12
# Python floats: under NumPy 2 a float64 scalar promotes float32 arrays.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TensorError(ValueError):
    """Shape mismatch, non-finite values, or other tensor-level misuse."""


class Rng:
    """Seeded PCG64 stream; same seed gives the same stream everywhere."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def spawn(self, *key: int) -> "Rng":
        """Independent child stream, deterministic in (seed, key)."""
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._gen = np.random.default_rng([self.seed, *key])
        return child

    def normal(self, shape, sigma=1.0, dtype=np.float32):
        return self._gen.normal(0.0, sigma, size=shape).astype(dtype)

    def truncated_normal(self, shape, sigma=0.02, dtype=np.float32):
        # resample anything beyond 2 sigma, as in BERT-style init
        out = self._gen.normal(0.0, sigma, size=shape)
        bad = np.abs(out) > 2.0 * sigma
        while bad.any():
            out[bad] = self._gen.normal(0.0, sigma, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * sigma
        return out.astype(dtype)

    def uniform(self, shape, low=0.0, high=1.0, dtype=np.float32):
        return self._gen.uniform(low, high, size=shape).astype(dtype)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, seq, size=None, replace=True):
        return self._gen.choice(seq, size=size, replace=replace)


class Tensor:
    """A tape node: immutable ndarray plus an optional backward closure."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "tape")

    def __init__(self, data: np.ndarray, tape: Optional["Tape"], requires_grad: bool,
                 parents: Sequence["Tensor"] = (), backward: Optional[Callable] = None):
        self.data = data
        self.tape = tape
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._backward = backward
        if tape is not None and requires_grad:
            tape.nodes.append(self)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


class Tape:
    """Records grad-requiring nodes in creation order for reverse replay."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def leaf(self, data: np.ndarray, param: bool = False) -> Tensor:
        return Tensor(np.asarray(data), self, requires_grad=param)

    def backward(self, out: Tensor) -> None:
        if out.data.size != 1:
            raise TensorError("backward expects a scalar output")
        for n in self.nodes:
            n.grad = None
        if not out.requires_grad:
            return              # constant output: every parameter gradient is zero
        out.grad = np.ones_like(out.data)
        for node in reversed(self.nodes):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    # accumulation is always out-of-place, so aliasing g is safe
    t.grad = g if t.grad is None else t.grad + g


def _make(data, parents, backward):
    req = any(p.requires_grad for p in parents)
    tape = next((p.tape for p in parents if p.tape is not None), None)
    return Tensor(data, tape, req, parents if req else (), backward if req else None)


def constant(data, like: Tensor) -> Tensor:
    """Non-differentiable value on the same tape/dtype as `like`."""
    return Tensor(np.asarray(data, dtype=like.dtype), like.tape, requires_grad=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def backward(g):
        _accum(a, g * s)

    return _make(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise TensorError("matmul expects operands with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise TensorError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accum(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), backward)


def softmax(a: Tensor) -> Tensor:
    x = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(x)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(a, (g - dot) * out)

    return _make(out, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * phi

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        _accum(a, g * (phi + x * pdf))

    return _make(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0
    out = np.maximum(a.data, 0)

    def backward(g):
        _accum(a, g * (a.data > 0))

    return _make(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / out))

    return _make(out, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.dtype))

    return _make(out, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, (np.broadcast_to(g, a.data.shape) / n).astype(a.dtype))

    return _make(out, (a,), backward)


def layer_norm(a: Tensor, weight: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * weight.data + bias.data

    def backward(g):
        if weight.requires_grad:
            _accum(weight, _unbroadcast(g * xhat, weight.data.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            gx = g * weight.data
            n = x.shape[-1]
            gxc = gx * inv
            gvar = (gx * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv ** 3
            gmu = -gxc.sum(axis=-1, keepdims=True) - gvar * 2.0 * xc.mean(axis=-1, keepdims=True)
            _accum(a, (gxc + gvar * 2.0 * xc / n + gmu / n).astype(x.dtype))

    return _make(out, (a, weight, bias), backward)


def l2_normalize(a: Tensor) -> Tensor:
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    if np.any(norm < 1e-12):
        raise TensorError("l2_normalize of a (near-)zero vector")
    out = a.data / norm

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(a, ((g - out * dot) / norm).astype(a.dtype))

    return _make(out, (a,), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= weight.data.shape[0]:
        raise TensorError("token id out of range")
    out = weight.data[ids]

    def backward(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids, g)
        _accum(weight, gw)

    return _make(out, (weight,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    out = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inv))

    return _make(out, (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop along axis 0."""
    out = a.data[start:stop]

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accum(a, full)

    return _make(out, (a,), backward)


def grad_check(f: Callable[[dict], float], params: dict, eps: float = 1e-3):
    """Compare autodiff gradients of f against central finite differences.

    `f(params)` must run a fresh tape over float64 copies of `params` and
    return a scalar Tensor. Returns (max relative error, worst param name).

    Each entry's deviation is measured relative to the larger of the two
    gradient values at that entry and the overall gradient scale (the max
    gradient magnitude across the whole tree); otherwise finite-difference
    truncation noise on near-zero entries dominates the report even when
    the backward pass is exact.
    """
    if not (1e-5 <= eps <= 1e-2):
        raise ValueError("eps outside [1e-5, 1e-2]")
    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}

    tape = Tape()
    leaves = {k: tape.leaf(v, param=True) for k, v in work.items()}
    out = f(leaves)
    tape.backward(out)
    auto = {k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(work[k]))
            for k in work}

    def eval_at(w):
        t = Tape()
        lv = {k: t.leaf(v, param=True) for k, v in w.items()}
        val = f(lv).item()
        if not np.isfinite(val):
            raise TensorError("non-finite loss at perturbed point")
        return val

    numeric = {}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        num = np.empty(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = eval_at(work)
            flat[i] = orig - eps
            fm = eval_at(work)
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * eps)
        numeric[name] = num

    scale_floor = max(max((np.abs(n).max(initial=0.0) for n in numeric.values()),
                          default=0.0),
                      max((np.abs(a).max(initial=0.0) for a in auto.values()),
                          default=0.0),
                      1e-8)
    worst = 0.0
    worst_name = ""
    for name in work:
        gflat = auto[name].reshape(-1)
        num = numeric[name]
        for i in range(num.size):
            denom = max(abs(num[i]), abs(gflat[i]), scale_floor)
            rel = abs(num[i] - gflat[i]) / denom
            if rel > worst:
                worst = rel
                worst_name = name
    return worst, worst_name

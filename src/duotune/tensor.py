"""Dense tensor numerics with reverse-mode autodiff on an explicit tape.

Everything here is plain numpy under the hood. A forward pass builds a Tape
of nodes in creation order (which is a topological order), and backward()
walks it in reverse. Parameters are ordinary numpy arrays wrapped into leaf
nodes per pass, so optimizers stay tape-free.

A node holds its tape weakly, so a pass's graph is freed when the caller
drops the tape. The fused ops `linear`, `attention`, `add_layer_norm` and
`triplet_margin_loss` are one node each, with a hand-written backward, in
place of primitive chains.

Training runs at float32 by default; gradient checks use float64.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-12
DIST_EPS = 1e-12  # inside the sqrt of a triplet distance, keeps d=0 differentiable
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

    def random(self) -> float:
        """One float64 in [0, 1): the value and stream step of `uniform(0, 1)`."""
        return self._gen.random()

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


class Tensor:
    """A tape node: immutable ndarray plus an optional backward closure."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_tape")

    def __init__(self, data: np.ndarray, tape: Optional["Tape"], requires_grad: bool,
                 parents: Sequence["Tensor"] = (), backward: Optional[Callable] = None):
        self.data = data
        self._tape = None if tape is None else tape.ref
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._backward = backward
        if tape is not None and requires_grad:
            tape.nodes.append(self)

    @property
    def tape(self) -> Optional["Tape"]:
        """The recording tape, or None once nothing else holds it."""
        return None if self._tape is None else self._tape()

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
        self.ref = weakref.ref(self)        # shared by the tape's nodes

    def leaf(self, data: np.ndarray, param: bool = False) -> Tensor:
        return Tensor(np.asarray(data), self, requires_grad=param)

    def backward(self, out: Tensor, grad: Optional[np.ndarray] = None) -> None:
        """Gradients of `out`, seeded with `grad` (of `out`'s shape; ones for a scalar)."""
        if grad is None and out.data.size != 1:
            raise TensorError("backward expects a scalar output or a seed gradient")
        if grad is not None and np.shape(grad) != out.data.shape:
            raise TensorError(f"seed gradient of shape {np.shape(grad)} for an output "
                              f"of shape {out.data.shape}")
        for n in self.nodes:
            n.grad = None
        if not out.requires_grad:
            return              # constant output: every parameter gradient is zero
        out.grad = np.ones_like(out.data) if grad is None else grad
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
    tape = next((p.tape for p in parents if p.requires_grad), None)
    return Tensor(data, tape, req, parents if req else (), backward if req else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), backward)


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b over the last axis of x, for an (out, in) weight as in HF
    layers: one 2-D GEMM on the rows x2 of x; dW = g2.T @ x2, dx = g2 @ W."""
    n_out, n_in = w.data.shape
    if x.data.shape[-1] != n_in or b.data.shape != (n_out,):
        raise TensorError(f"linear shapes {x.data.shape}, {w.data.shape}, {b.data.shape}")
    x2 = x.data.reshape(-1, n_in)
    out = x2 @ w.data.T
    out += b.data
    out = out.reshape(*x.data.shape[:-1], n_out)

    def backward(g):
        g2 = g.reshape(-1, n_out)
        if x.requires_grad:
            _accum(x, (g2 @ w.data).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, g2.T @ x2)
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))

    return _make(out, (x, w, b), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray,
              n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of (B, L, hidden) q, k, v: the
    scores get `mask_bias` (broadcast to (B, heads, L, L); very negative on
    pad keys) before the softmax over keys; returns the (B, L, hidden) context."""
    B, L, h = q.data.shape
    if k.data.shape != q.data.shape or v.data.shape != q.data.shape or h % n_heads:
        raise TensorError(f"attention shapes {q.data.shape}, {k.data.shape}, "
                          f"{v.data.shape} with {n_heads} heads")
    dh = h // n_heads
    scale = dh ** -0.5                  # a Python float keeps float32 float32

    def heads(t):
        return t.reshape(B, L, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(B, L, h)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale + mask_bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)

    def backward(g):
        gc = heads(g)
        if v.requires_grad:
            _accum(v, merge(np.swapaxes(p, -1, -2) @ gc))
        gp = gc @ np.swapaxes(vh, -1, -2)
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * (p * scale)
        if q.requires_grad:
            _accum(q, merge(gs @ kh))
        if k.requires_grad:
            _accum(k, merge(np.swapaxes(gs, -1, -2) @ qh))

    return _make(out, (q, k, v), backward)


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
    phi = x * _INV_SQRT2            # 0.5 * (1 + erf(x / sqrt 2)), in one new buffer
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if not a.requires_grad:         # no backward reads phi: finish in its buffer
        phi *= x
        return _make(phi, (a,), None)
    out = x * phi

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        _accum(a, g * (phi + x * pdf))

    return _make(out, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def backward(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.dtype))

    return _make(out, (a,), backward)


def _layer_norm(xhat: np.ndarray, inputs: tuple, weight: Tensor, bias: Tensor) -> Tensor:
    """LayerNorm of a fresh array holding the sum of the `inputs` (which all
    get its gradient), normalised in place into `xhat`."""
    xhat -= xhat.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    if not any(t.requires_grad for t in (*inputs, weight, bias)):
        xhat *= weight.data     # no backward reads xhat: finish in its buffer
        xhat += bias.data
        return _make(xhat, (*inputs, weight, bias), None)
    out = xhat * weight.data
    out += bias.data

    def backward(g):
        if weight.requires_grad:
            _accum(weight, _unbroadcast(g * xhat, weight.data.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if any(a.requires_grad for a in inputs):
            gx = g * weight.data
            ga = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            for a in inputs:
                if a.requires_grad:
                    _accum(a, ga)

    return _make(out, (*inputs, weight, bias), backward)


def layer_norm(a: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return _layer_norm(a.data.copy(), (a,), weight, bias)


def add_layer_norm(a: Tensor, b: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """LayerNorm(a + b) as one node: a residual add followed by LayerNorm."""
    if a.data.shape != b.data.shape:
        raise TensorError(f"add_layer_norm shape mismatch: {a.data.shape} + {b.data.shape}")
    return _layer_norm(a.data + b.data, (a, b), weight, bias)


def l2_normalize(a: Tensor) -> Tensor:
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    if np.any(norm < 1e-12):
        raise TensorError("l2_normalize of a (near-)zero vector")
    out = a.data / norm

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(a, ((g - out * dot) / norm).astype(a.dtype))

    return _make(out, (a,), backward)


def triplet_margin_loss(anchor: Tensor, positive: Tensor, negative: Tensor,
                        margin: float) -> Tensor:
    """mean(max(0, d(a, p) - d(a, n) + margin)) over (..., hidden) inputs of
    one shape, with d(a, x) = sqrt(sum((a - x)^2) + DIST_EPS) along the last
    axis, as one node. The hinge subgradient at the kink is 0."""
    if positive.data.shape != anchor.data.shape or negative.data.shape != anchor.data.shape:
        raise TensorError(f"triplet_margin_loss shapes {anchor.data.shape}, "
                          f"{positive.data.shape}, {negative.data.shape}")
    diff_p, diff_n = anchor.data - positive.data, anchor.data - negative.data
    dp = np.sqrt((diff_p * diff_p).sum(axis=-1) + DIST_EPS)
    dn = np.sqrt((diff_n * diff_n).sum(axis=-1) + DIST_EPS)
    gap = dp - dn + dp.dtype.type(margin)
    out = np.maximum(gap, 0).mean()

    def backward(g):
        g_dp = g / gap.size * (gap > 0)                 # and -g_dp for dn
        # The negative's term reaches the anchor first, and each term rounds as
        # in the op-by-op form of this loss, so earlier result digests hold.
        for x, diff, dist, g_dist in ((negative, diff_n, dn, -g_dp),
                                      (positive, diff_p, dp, g_dp)):
            if anchor.requires_grad or x.requires_grad:
                g_diff = (g_dist * (0.5 / dist))[..., None] * diff
                g_diff = g_diff + g_diff                # diff * diff has two factors
                if anchor.requires_grad:
                    _accum(anchor, g_diff)
                if x.requires_grad:
                    _accum(x, -g_diff)

    return _make(out, (anchor, positive, negative), backward)


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

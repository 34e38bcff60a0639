"""Triplet margin loss, optimizers, LR schedulers, and batch/LR scaling rules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from . import tensor as T

DIST_EPS = 1e-12  # inside the sqrt of the pairwise distance, keeps d=0 differentiable


class OptimError(ValueError):
    pass


@dataclass(frozen=True)
class LossSpec:
    margin: float = 0.1

    def __post_init__(self):
        if self.margin < 0:
            raise OptimError("margin must be >= 0")


def pair_distance(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Euclidean distance along the last axis, differentiable at zero."""
    d = T.sub(a, b)
    sq = T.tsum(T.mul(d, d), axis=-1)
    return T.sqrt(T.add(sq, T.constant(np.full(sq.shape, DIST_EPS), sq)))


def triplet_margin_loss(anchor: T.Tensor, positive: T.Tensor, negative: T.Tensor,
                        spec: LossSpec = LossSpec()) -> T.Tensor:
    """mean over the batch of max(0, d(a,p) - d(a,n) + margin).

    Inputs are (..., hidden) unit embeddings; the hinge subgradient at the
    kink is 0.
    """
    dp = pair_distance(anchor, positive)
    dn = pair_distance(anchor, negative)
    gap = T.add(T.sub(dp, dn), T.constant(np.full(dp.shape, spec.margin), dp))
    return T.tmean(T.relu(gap))


def triplet_margin_loss_np(a: np.ndarray, p: np.ndarray, n: np.ndarray,
                           margin: float = 0.1) -> np.ndarray:
    """Evaluation-mode per-triplet losses for (N, hidden) arrays."""
    dp = np.linalg.norm(a - p, axis=-1)
    dn = np.linalg.norm(a - n, axis=-1)
    return np.maximum(0.0, dp - dn + margin)


# --- optimizers -----------------------------------------------------------

@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adamw"            # adamw | adamax | adadelta | sgd
    lr: float = 5e-8
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: bool = True          # adamax/sgd: False zeroes the moment terms
    weight_decay: float = 0.0
    rho: float = 0.9               # adadelta decay
    adadelta_eps: float = 1e-6

    def __post_init__(self):
        # lr == 0 is allowed: a no-op run is a useful control
        if self.lr < 0:
            raise OptimError("lr must be >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise OptimError("betas must lie in [0, 1)")
        if self.kind not in ("adamw", "adamax", "adadelta", "sgd"):
            raise OptimError(f"unknown optimizer kind {self.kind!r}")

    def __str__(self) -> str:
        """The --optimizer spelling; a sweep point's label."""
        return self.kind


class Optimizer:
    """State per parameter name; updates are in-place on the given tree."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.t = 0
        self.state: Dict[str, dict] = {}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
             lr: Optional[float] = None) -> None:
        s = self.spec
        lr = s.lr if lr is None else lr
        self.t += 1
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise OptimError(f"non-finite gradient for {name}")
            w = params[name]
            st = self.state.setdefault(name, {})
            if s.kind == "sgd":
                if s.momentum:
                    v = st.get("v")
                    v = g.copy() if v is None else 0.9 * v + g
                    st["v"] = v
                    upd = lr * v
                else:
                    upd = lr * g
                w -= upd.astype(w.dtype)
            elif s.kind == "adamw":
                m = st.get("m", np.zeros_like(w, dtype=np.float64))
                v = st.get("v", np.zeros_like(w, dtype=np.float64))
                m = s.beta1 * m + (1 - s.beta1) * g
                v = s.beta2 * v + (1 - s.beta2) * (g * g)
                st["m"], st["v"] = m, v
                mhat = m / (1 - s.beta1 ** self.t)
                vhat = v / (1 - s.beta2 ** self.t)
                w -= (lr * mhat / (np.sqrt(vhat) + s.eps)).astype(w.dtype)
            elif s.kind == "adamax":
                b1 = s.beta1 if s.momentum else 0.0
                b2 = s.beta2 if s.momentum else 0.0
                m = st.get("m", np.zeros_like(w, dtype=np.float64))
                u = st.get("u", np.zeros_like(w, dtype=np.float64))
                m = b1 * m + (1 - b1) * g
                u = np.maximum(b2 * u, np.abs(g))
                st["m"], st["u"] = m, u
                denom = 1.0 - b1 ** self.t if b1 > 0 else 1.0
                w -= (lr / denom * m / (u + s.eps)).astype(w.dtype)
            elif s.kind == "adadelta":
                eg = st.get("eg", np.zeros_like(w, dtype=np.float64))
                ed = st.get("ed", np.zeros_like(w, dtype=np.float64))
                eg = s.rho * eg + (1 - s.rho) * (g * g)
                delta = -np.sqrt(ed + s.adadelta_eps) / np.sqrt(eg + s.adadelta_eps) * g
                ed = s.rho * ed + (1 - s.rho) * (delta * delta)
                st["eg"], st["ed"] = eg, ed
                w += (lr * delta).astype(w.dtype)
            # decoupled weight decay, applied after the moment update
            if s.weight_decay != 0.0:
                w -= (lr * s.weight_decay * w).astype(w.dtype)


# --- schedulers -----------------------------------------------------------

@dataclass(frozen=True)
class SchedulerSpec:
    kind: str = "none"             # none | L | Q | E
    lr0: float = 5e-8
    total_steps: int = 0           # T; required for L and Q
    gamma: float = 0.95            # for E

    def __post_init__(self):
        if self.kind not in ("none", "L", "Q", "E"):
            raise OptimError(f"unknown scheduler kind {self.kind!r}")
        if self.kind in ("L", "Q") and self.total_steps <= 0:
            raise OptimError(f"scheduler {self.kind} needs total_steps > 0")
        if self.kind == "E" and not (0.0 < self.gamma <= 1.0):
            raise OptimError("gamma must lie in (0, 1]")

    def __str__(self) -> str:
        """The --scheduler spelling that parse_scheduler reads back; a sweep
        point's label."""
        return f"E:{self.gamma}" if self.kind == "E" else self.kind


def scheduler_value(spec: SchedulerSpec, t: int) -> float:
    if t < 0:
        raise OptimError("step must be >= 0")
    if spec.kind == "none":
        return spec.lr0
    if spec.kind == "E":
        return spec.lr0 * spec.gamma ** t
    if t > spec.total_steps:
        raise OptimError(f"step {t} beyond total_steps {spec.total_steps}")
    frac = t / spec.total_steps
    if spec.kind == "L":
        return spec.lr0 * (1.0 - frac)
    return spec.lr0 * (1.0 - frac * frac)  # Q


def parse_scheduler(text: str, lr0: float, total_steps: int) -> SchedulerSpec:
    """Parse a CLI scheduler name: none | L | Q | E | E:{gamma}."""
    text = text.strip()
    if text in ("none", "-", ""):
        return SchedulerSpec("none", lr0=lr0)
    if text in ("L", "Q"):
        return SchedulerSpec(text, lr0=lr0, total_steps=total_steps)
    if text == "E":
        return SchedulerSpec("E", lr0=lr0, gamma=0.95)
    if text.startswith("E:"):
        return SchedulerSpec("E", lr0=lr0, gamma=float(text[2:]))
    raise OptimError(f"unknown scheduler {text!r}")


def scale_lr(base_batch: int, base_lr: float, new_batch: int, rule: str) -> float:
    """Linear or square-root LR scaling with batch size."""
    if base_batch <= 0 or new_batch <= 0:
        raise OptimError("batch sizes must be > 0")
    ratio = new_batch / base_batch
    if rule == "linear":
        return base_lr * ratio
    if rule == "sqrt":
        return base_lr * math.sqrt(ratio)
    raise OptimError(f"unknown scaling rule {rule!r}")

"""Triplet margin loss, optimizers, LR schedulers, and batch/LR scaling rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import tensor as T


class OptimError(ValueError):
    pass


@dataclass(frozen=True)
class LossSpec:
    margin: float = 0.1

    def __post_init__(self):
        if not 0 <= self.margin < math.inf:     # NaN fails too
            raise OptimError(f"margin must be finite and >= 0, not {self.margin!r}")


def triplet_margin_loss(anchor: T.Tensor, positive: T.Tensor, negative: T.Tensor,
                        spec: LossSpec = LossSpec()) -> T.Tensor:
    """mean over the batch of max(0, d(a,p) - d(a,n) + margin), as one tape
    node (see `tensor.triplet_margin_loss`)."""
    return T.triplet_margin_loss(anchor, positive, negative, spec.margin)


def triplet_margin_loss_np(a: np.ndarray, p: np.ndarray, n: np.ndarray,
                           margin: float = 0.1) -> np.ndarray:
    """Evaluation-mode per-triplet losses for (N, hidden) arrays."""
    dp = np.linalg.norm(a - p, axis=-1)
    dn = np.linalg.norm(a - n, axis=-1)
    return np.maximum(0.0, dp - dn + margin)


# --- optimizers -----------------------------------------------------------

BETA1, BETA2, EPS, RHO, ADADELTA_EPS = 0.9, 0.999, 1e-8, 0.9, 1e-6
# the same, keyed by the OptimizerSpec fields that held them in older manifests
FIXED = {"beta1": BETA1, "beta2": BETA2, "eps": EPS, "rho": RHO, "adadelta_eps": ADADELTA_EPS}


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adamw"            # adamw | adamax | adadelta | sgd
    lr: float = 5e-8
    momentum: bool = True          # adamax/sgd: False zeroes the moment terms
    weight_decay: float = 0.0

    def __post_init__(self):
        # lr == 0 is allowed: a no-op run is a useful control; NaN fails
        for name in ("lr", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise OptimError(f"{name} must be finite and >= 0, not {getattr(self, name)!r}")
        if self.kind not in ("adamw", "adamax", "adadelta", "sgd"):
            raise OptimError(f"unknown optimizer kind {self.kind!r}")


def _decay_into(buf: np.ndarray, decay: float, term: np.ndarray) -> None:
    """buf = decay * buf + (1 - decay) * term, updating buf in place."""
    buf *= decay
    buf += (1 - decay) * term


class Optimizer:
    """State per parameter name; updates are in-place on the given tree, and
    so are the float64 moment buffers (bit-identical to the plain formulas)."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.t = 0
        self.state: Dict[str, dict] = {}

    def _buffers(self, name: str, w: np.ndarray, *keys: str) -> list:
        st = self.state.setdefault(name, {})
        return [st[k] if k in st else st.setdefault(k, np.zeros(w.shape)) for k in keys]

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
             lr: Optional[float] = None) -> None:
        s = self.spec
        lr = s.lr if lr is None else lr
        self.t += 1
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise OptimError(f"non-finite gradient for {name}")
            w = params[name]
            if s.kind == "sgd":
                if s.momentum:
                    st = self.state.setdefault(name, {})
                    if "v" not in st:
                        st["v"] = g.copy()
                    else:                       # v = 0.9 * v + g
                        st["v"] *= 0.9
                        st["v"] += g
                    g = st["v"]
                w -= (lr * g).astype(w.dtype, copy=False)
            elif s.kind == "adamw":
                m, v = self._buffers(name, w, "m", "v")
                _decay_into(m, BETA1, g)
                _decay_into(v, BETA2, g * g)
                upd = m / (1 - BETA1 ** self.t)     # lr * mhat / (sqrt(vhat) + eps)
                upd *= lr
                den = np.sqrt(v / (1 - BETA2 ** self.t))
                den += EPS
                upd /= den
                w -= upd.astype(w.dtype)
            elif s.kind == "adamax":
                b1 = BETA1 if s.momentum else 0.0
                b2 = BETA2 if s.momentum else 0.0
                m, u = self._buffers(name, w, "m", "u")
                _decay_into(m, b1, g)
                u *= b2                                 # u = max(b2 * u, |g|)
                np.maximum(u, np.abs(g), out=u)
                denom = 1.0 - b1 ** self.t if b1 > 0 else 1.0
                upd = lr / denom * m
                upd /= u + EPS
                w -= upd.astype(w.dtype)
            elif s.kind == "adadelta":
                eg, ed = self._buffers(name, w, "eg", "ed")
                _decay_into(eg, RHO, g * g)
                delta = -np.sqrt(ed + ADADELTA_EPS) / np.sqrt(eg + ADADELTA_EPS) * g
                _decay_into(ed, RHO, delta * delta)
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


def parse_scheduler(text: str, total_steps: int) -> SchedulerSpec:
    """Parse a CLI scheduler name: none | L | Q | E | E:{gamma}; TuneConfig sets lr0."""
    text = text.strip()
    if text in ("none", "-", ""):
        return SchedulerSpec("none")
    if text in ("L", "Q"):
        return SchedulerSpec(text, total_steps=total_steps)
    if text == "E":
        return SchedulerSpec("E")
    if text.startswith("E:"):
        return SchedulerSpec("E", gamma=float(text[2:]))
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

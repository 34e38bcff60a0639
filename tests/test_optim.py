"""Loss, optimizers, schedulers, and LR scaling rules against hand-computed
reference updates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotune import tensor as T
from duotune.optim import (LossSpec, OptimError, Optimizer, OptimizerSpec,
                           SchedulerSpec, parse_scheduler, scale_lr,
                           scheduler_value, triplet_margin_loss,
                           triplet_margin_loss_np)
from tests.conftest import random_unit


def loss_value(a, p, n, margin):
    tape = T.Tape()
    la, lp, ln = (tape.leaf(np.asarray(v, dtype=np.float64)[None, :]) for v in (a, p, n))
    return triplet_margin_loss(la, lp, ln, LossSpec(margin=margin)).item()


def unit(i, dim=4):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


# --- triplet margin loss ---------------------------------------------------------

def test_loss_zero_when_margin_satisfied():
    # anchor == positive, negative at distance 1
    a = unit(0)
    n = (unit(0) + unit(1) * math.sqrt(3)) / 2.0  # unit vector at distance 1 from a
    assert np.isclose(np.linalg.norm(a - n), 1.0)
    assert loss_value(a, a, n, 0.1) == pytest.approx(0.0, abs=1e-6)


def test_loss_for_inverted_triplet():
    # anchor == negative, positive at distance 1
    a = unit(0)
    p = (unit(0) + unit(1) * math.sqrt(3)) / 2.0
    assert loss_value(a, p, a, 0.1) == pytest.approx(1.1, abs=1e-6)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = {k: random_unit(rng, 6) for k in ("a", "p", "n")}

    def f(leaves):
        return triplet_margin_loss(leaves["a"], leaves["p"], leaves["n"],
                                   LossSpec(margin=1.0))

    err, _ = T.grad_check(f, params, eps=1e-4)
    assert err < 1e-4


def test_loss_zero_iff_margin_gap_satisfied():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, p, n = (random_unit(rng, 6) for _ in range(3))
        margin = float(rng.uniform(0, 1))
        val = triplet_margin_loss_np(a[None], p[None], n[None], margin)[0]
        dp = np.linalg.norm(a - p)
        dn = np.linalg.norm(a - n)
        assert (val == 0.0) == (dp + margin <= dn)


def test_negative_margin_rejected():
    with pytest.raises(OptimError):
        LossSpec(margin=-0.1)


# --- optimizer steps --------------------------------------------------------------

def test_sgd_single_step():
    params = {"w": np.array([1.0])}
    Optimizer(OptimizerSpec(kind="sgd", lr=0.1)).step(params, {"w": np.array([2.0])})
    assert params["w"][0] == pytest.approx(0.8)


def test_adamw_matches_hand_computed_reference():
    spec = OptimizerSpec(kind="adamw", lr=0.01, weight_decay=0.1)
    w0, g = 0.5, 0.2
    params = {"w": np.array([w0])}
    Optimizer(spec).step(params, {"w": np.array([g])})

    m = (1 - spec.beta1) * g
    v = (1 - spec.beta2) * g * g
    mhat = m / (1 - spec.beta1)
    vhat = v / (1 - spec.beta2)
    w1 = w0 - spec.lr * mhat / (math.sqrt(vhat) + spec.eps)
    w1 -= spec.lr * spec.weight_decay * w1  # decoupled decay after the moment update
    assert params["w"][0] == pytest.approx(w1, rel=1e-12)


def test_adamw_decay_is_decoupled_from_the_moment_update():
    # with zero gradient the moment update is a no-op, so only the decay term acts
    spec = OptimizerSpec(kind="adamw", lr=0.01, weight_decay=0.5)
    params = {"w": np.array([2.0])}
    Optimizer(spec).step(params, {"w": np.array([0.0])})
    assert params["w"][0] == pytest.approx(2.0 * (1 - 0.01 * 0.5))


def test_adamax_without_momentum_is_sign_like():
    spec = OptimizerSpec(kind="adamax", lr=0.01, momentum=False)
    params = {"w": np.array([1.0, 1.0, 1.0])}
    g = np.array([0.5, -2.0, 1e-30])
    Optimizer(spec).step(params, {"w": g})
    expect = 1.0 - 0.01 * g / (np.abs(g) + spec.eps)
    assert np.allclose(params["w"], expect, rtol=1e-12)
    # sign-like: nonzero gradients move by ~lr regardless of magnitude
    assert params["w"][0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert params["w"][1] == pytest.approx(1.0 + 0.01, rel=1e-6)


def test_adadelta_moves_weights():
    params = {"w": np.array([1.0])}
    Optimizer(OptimizerSpec(kind="adadelta", lr=1.0)).step(params, {"w": np.array([0.3])})
    assert params["w"][0] != 1.0


@pytest.mark.parametrize("kind", ["sgd", "adamw", "adamax", "adadelta"])
def test_zero_gradient_zero_decay_step_is_identity(kind):
    params = {"w": np.array([0.7, -0.2])}
    before = params["w"].copy()
    Optimizer(OptimizerSpec(kind=kind, lr=0.1)).step(params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], before)


def test_non_finite_gradient_rejected():
    opt = Optimizer(OptimizerSpec(kind="sgd", lr=0.1))
    with pytest.raises(OptimError):
        opt.step({"w": np.array([1.0])}, {"w": np.array([np.nan])})


def test_lr_zero_is_allowed_and_is_a_no_op_for_sgd():
    params = {"w": np.array([1.0])}
    Optimizer(OptimizerSpec(kind="sgd", lr=0.0)).step(params, {"w": np.array([5.0])})
    assert params["w"][0] == 1.0


def test_negative_lr_rejected():
    with pytest.raises(OptimError):
        OptimizerSpec(lr=-1e-8)


def reference_step(spec, state, t, params, grads, lr):
    """The textbook update of each kind, one fresh array per term."""
    for name, g in grads.items():
        w = params[name]
        st = state.setdefault(name, {})
        if spec.kind == "sgd":
            if spec.momentum:
                v = st.get("v")
                v = g.copy() if v is None else 0.9 * v + g
                st["v"] = v
                upd = lr * v
            else:
                upd = lr * g
            w -= upd.astype(w.dtype)
        elif spec.kind == "adamw":
            m = st.get("m", np.zeros_like(w, dtype=np.float64))
            v = st.get("v", np.zeros_like(w, dtype=np.float64))
            m = spec.beta1 * m + (1 - spec.beta1) * g
            v = spec.beta2 * v + (1 - spec.beta2) * (g * g)
            st["m"], st["v"] = m, v
            mhat = m / (1 - spec.beta1 ** t)
            vhat = v / (1 - spec.beta2 ** t)
            w -= (lr * mhat / (np.sqrt(vhat) + spec.eps)).astype(w.dtype)
        elif spec.kind == "adamax":
            b1 = spec.beta1 if spec.momentum else 0.0
            b2 = spec.beta2 if spec.momentum else 0.0
            m = st.get("m", np.zeros_like(w, dtype=np.float64))
            u = st.get("u", np.zeros_like(w, dtype=np.float64))
            m = b1 * m + (1 - b1) * g
            u = np.maximum(b2 * u, np.abs(g))
            st["m"], st["u"] = m, u
            denom = 1.0 - b1 ** t if b1 > 0 else 1.0
            w -= (lr / denom * m / (u + spec.eps)).astype(w.dtype)
        elif spec.kind == "adadelta":
            eg = st.get("eg", np.zeros_like(w, dtype=np.float64))
            ed = st.get("ed", np.zeros_like(w, dtype=np.float64))
            eg = spec.rho * eg + (1 - spec.rho) * (g * g)
            delta = -np.sqrt(ed + spec.adadelta_eps) / np.sqrt(eg + spec.adadelta_eps) * g
            ed = spec.rho * ed + (1 - spec.rho) * (delta * delta)
            st["eg"], st["ed"] = eg, ed
            w += (lr * delta).astype(w.dtype)
        if spec.weight_decay != 0.0:
            w -= (lr * spec.weight_decay * w).astype(w.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("momentum", [True, False])
@pytest.mark.parametrize("kind", ["adamw", "adamax", "adadelta", "sgd"])
def test_in_place_step_is_bit_identical_to_the_reference_over_300_steps(kind, momentum,
                                                                        weight_decay, dtype):
    spec = OptimizerSpec(kind=kind, lr=1e-2, momentum=momentum, weight_decay=weight_decay)
    rng = np.random.default_rng(17)
    shapes = {"w": (8, 5), "b": (5,), "frozen": (3,)}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    opt, ref_state = Optimizer(spec), {}
    for t in range(1, 301):
        grads = {k: rng.normal(scale=0.1, size=shapes[k]).astype(dtype) for k in ("w", "b")}
        lr = 1e-2 / (1 + t % 7)         # a schedule's changing lr
        opt.step(params, grads, lr=lr)
        reference_step(spec, ref_state, t, ref, grads, lr)
    for k in params:
        assert np.array_equal(params[k], ref[k]), k
    for k, st in ref_state.items():
        for key, buf in st.items():
            assert np.array_equal(opt.state[k][key], buf), (k, key)
            assert opt.state[k][key].dtype == buf.dtype


# --- schedulers --------------------------------------------------------------------

def test_scheduler_value_at_t0_is_lr0():
    for spec in (SchedulerSpec("none", lr0=2e-7),
                 SchedulerSpec("L", lr0=2e-7, total_steps=10),
                 SchedulerSpec("Q", lr0=2e-7, total_steps=10),
                 SchedulerSpec("E", lr0=2e-7, gamma=0.95)):
        assert scheduler_value(spec, 0) == pytest.approx(2e-7, rel=1e-12)


def test_exponential_scheduler_closed_form():
    spec = SchedulerSpec("E", lr0=1e-7, gamma=0.95)
    assert scheduler_value(spec, 2) == pytest.approx(9.025e-8, rel=1e-12)


def test_linear_scheduler_hits_zero_at_T():
    spec = SchedulerSpec("L", lr0=1e-7, total_steps=40)
    assert scheduler_value(spec, 40) == 0.0


def test_quadratic_scheduler_closed_form():
    spec = SchedulerSpec("Q", lr0=1e-7, total_steps=10)
    assert scheduler_value(spec, 5) == pytest.approx(1e-7 * (1 - 0.25), rel=1e-12)


def test_bounded_schedulers_reject_steps_beyond_T():
    for kind in ("L", "Q"):
        with pytest.raises(OptimError):
            scheduler_value(SchedulerSpec(kind, lr0=1e-7, total_steps=10), 11)


@pytest.mark.parametrize("spec", [
    SchedulerSpec("none", lr0=1e-7),
    SchedulerSpec("L", lr0=1e-7, total_steps=50),
    SchedulerSpec("Q", lr0=1e-7, total_steps=50),
    SchedulerSpec("E", lr0=1e-7, gamma=0.95),
    SchedulerSpec("E", lr0=1e-7, gamma=0.98),
])
def test_scheduler_values_non_increasing(spec):
    values = [scheduler_value(spec, t) for t in range(0, 51)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_parse_scheduler_forms():
    assert parse_scheduler("none", 1e-7, 0).kind == "none"
    assert parse_scheduler("L", 1e-7, 100).total_steps == 100
    assert parse_scheduler("E:0.98", 1e-7, 0).gamma == 0.98
    with pytest.raises(OptimError):
        parse_scheduler("X", 1e-7, 0)


# --- LR scaling rules -----------------------------------------------------------

def test_sqrt_scaling_reproduces_reference_column():
    base = (14, 5e-8)
    for batch, expect in ((7, 3.54e-8), (28, 7.07e-8), (56, 1.00e-7), (112, 1.41e-7)):
        got = scale_lr(*base, batch, "sqrt")
        assert float(f"{got:.3g}") == pytest.approx(expect, rel=1e-9), batch


def test_linear_scaling_reproduces_reference_column():
    base = (14, 5e-8)
    for batch, expect in ((28, 1.0e-7), (56, 2.0e-7), (112, 4.0e-7)):
        assert scale_lr(*base, batch, "linear") == pytest.approx(expect, rel=1e-12)


def test_scaling_identity_at_base_batch():
    assert scale_lr(14, 5e-8, 14, "sqrt") == 5e-8
    assert scale_lr(14, 5e-8, 14, "linear") == 5e-8


def test_sqrt_rule_composes():
    once = scale_lr(14, 5e-8, 56, "sqrt")
    twice = scale_lr(28, scale_lr(14, 5e-8, 28, "sqrt"), 56, "sqrt")
    assert twice == pytest.approx(once, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 512), st.integers(1, 512),
       st.floats(1e-9, 1e-3, allow_nan=False))
def test_linear_scaling_is_proportional(base_batch, new_batch, lr):
    got = scale_lr(base_batch, lr, new_batch, "linear")
    assert got == pytest.approx(lr * new_batch / base_batch, rel=1e-12)

"""Autodiff core: primitive gradients against a central finite-difference
oracle, plus the gradient-check harness itself."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotune import tensor as T


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Independent central-difference oracle over a flat float64 array."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def auto_grad(op, x: np.ndarray, reduce=True):
    tape = T.Tape()
    leaf = tape.leaf(x.astype(np.float64), param=True)
    out = op(leaf)
    if reduce:
        out = T.tsum(out)
    tape.backward(out)
    return leaf.grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


# --- hand-checkable values ---------------------------------------------------

def test_l2_normalize_345_triangle():
    tape = T.Tape()
    out = T.l2_normalize(tape.leaf(np.array([3.0, 4.0])))
    assert np.allclose(out.data, [0.6, 0.8])


def test_softmax_symmetry():
    tape = T.Tape()
    out = T.softmax(tape.leaf(np.array([0.0, 0.0])))
    assert np.allclose(out.data, [0.5, 0.5])


def test_gelu_gradient_at_0p7_vs_central_difference():
    x = np.array([0.7])
    num = fd_grad(lambda v: float(v[0] * 0.5 * (1 + math.erf(v[0] / math.sqrt(2)))),
                  x, eps=1e-3)
    ana = auto_grad(T.gelu, x)
    assert rel_err(ana, num) < 1e-6


def test_l2_normalize_of_zero_vector_is_an_error():
    tape = T.Tape()
    with pytest.raises(T.TensorError):
        T.l2_normalize(tape.leaf(np.zeros(4)))


# --- per-primitive gradients vs the finite-difference oracle ------------------

def _weighted_softmax(t):
    # plain sum of a softmax is constant 1; weight the entries so the
    # reduction actually depends on the input
    w = T.constant(np.arange(1, t.data.size + 1, dtype=np.float64).reshape(t.shape), t)
    return T.mul(T.softmax(t), w)


UNARY_OPS = {
    "softmax": _weighted_softmax,
    "gelu": T.gelu,
    "sqrt": lambda t: T.sqrt(T.add(T.mul(t, t), T.constant(np.full(t.shape, 0.5), t))),
    "tsum": lambda t: T.tsum(t, axis=-1),
    "tmean": lambda t: T.tmean(t, axis=-1),
    "l2_normalize": T.l2_normalize,
    "relu_shifted": lambda t: T.relu(T.add(t, T.constant(np.full(t.shape, 0.1), t))),
    "reshape": lambda t: T.reshape(t, (t.data.size,)),
    "transpose": lambda t: T.transpose(t, (1, 0)),
    "slice_rows": lambda t: T.mul(T.slice_rows(t, 1, 3),
                                  T.constant(np.arange(1, 9, dtype=np.float64).reshape(2, 4), t)),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_primitive_gradients(name):
    op = UNARY_OPS[name]
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, size=(3, 4))
    if name == "l2_normalize":
        x += np.sign(x) * 0.5  # stay away from the zero-norm error
    ana = auto_grad(op, x)

    def scalar(v):
        tape = T.Tape()
        return T.tsum(op(tape.leaf(v))).item()

    num = fd_grad(scalar, x)
    assert rel_err(ana, num) < 1e-6


@pytest.mark.parametrize("binop", [T.add, T.sub, T.mul])
def test_binary_primitive_gradients_with_broadcast(binop):
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, size=(3, 4))
    b = rng.uniform(-2, 2, size=(1, 4))  # broadcast over rows
    for side, fixed in ((0, b), (1, a)):
        def scalar(v):
            tape = T.Tape()
            args = [tape.leaf(v), tape.leaf(fixed)] if side == 0 else \
                   [tape.leaf(fixed), tape.leaf(v)]
            return T.tsum(binop(*args)).item()

        def ana_of(v):
            tape = T.Tape()
            x = tape.leaf(v.astype(np.float64), param=True)
            other = tape.leaf(fixed)
            out = binop(x, other) if side == 0 else binop(other, x)
            tape.backward(T.tsum(out))
            return x.grad

        target = a if side == 0 else b
        assert rel_err(ana_of(target), fd_grad(scalar, target)) < 1e-6


def test_matmul_gradients():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(3, 4))
    b = rng.uniform(-2, 2, size=(4, 5))
    for side in (0, 1):
        def scalar(v):
            tape = T.Tape()
            args = (tape.leaf(v), tape.leaf(b)) if side == 0 else (tape.leaf(a), tape.leaf(v))
            return T.tsum(T.matmul(*args)).item()

        tape = T.Tape()
        x = tape.leaf((a if side == 0 else b).astype(np.float64), param=True)
        out = T.matmul(x, tape.leaf(b)) if side == 0 else T.matmul(tape.leaf(a), x)
        tape.backward(T.tsum(out))
        assert rel_err(x.grad, fd_grad(scalar, a if side == 0 else b)) < 1e-6


def test_layer_norm_gradients_all_three_inputs():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(2, 6))
    w = rng.uniform(0.5, 1.5, size=6)
    b = rng.uniform(-0.5, 0.5, size=6)

    tape = T.Tape()
    lx, lw, lb = (tape.leaf(v.astype(np.float64), param=True) for v in (x, w, b))
    tape.backward(T.tsum(T.layer_norm(lx, lw, lb)))

    def scalar(which):
        def f(v):
            tape = T.Tape()
            vals = {"x": x, "w": w, "b": b}
            vals[which] = v
            return T.tsum(T.layer_norm(tape.leaf(vals["x"]), tape.leaf(vals["w"]),
                                       tape.leaf(vals["b"]))).item()
        return f

    assert rel_err(lx.grad, fd_grad(scalar("x"), x)) < 1e-6
    assert rel_err(lw.grad, fd_grad(scalar("w"), w)) < 1e-6
    assert rel_err(lb.grad, fd_grad(scalar("b"), b)) < 1e-6


def test_embedding_gradient_accumulates_repeated_ids():
    w = np.arange(12, dtype=np.float64).reshape(4, 3)
    ids = np.array([[1, 1, 3]])
    tape = T.Tape()
    leaf = tape.leaf(w, param=True)
    tape.backward(T.tsum(T.embedding(leaf, ids)))
    expect = np.zeros_like(w)
    expect[1] = 2.0
    expect[3] = 1.0
    assert np.array_equal(leaf.grad, expect)


def test_embedding_rejects_out_of_range_ids():
    tape = T.Tape()
    leaf = tape.leaf(np.zeros((4, 3)), param=True)
    with pytest.raises(T.TensorError):
        T.embedding(leaf, np.array([[4]]))


# --- grad_check harness --------------------------------------------------------

def test_grad_check_quadratic():
    def f(leaves):
        return T.tsum(T.mul(leaves["w"], leaves["w"]))

    # analytic gradient of sum(w^2) at [1, 2] is [2, 4]
    tape = T.Tape()
    leaf = tape.leaf(np.array([1.0, 2.0]), param=True)
    tape.backward(T.tsum(T.mul(leaf, leaf)))
    assert np.allclose(leaf.grad, [2.0, 4.0])

    err, name = T.grad_check(f, {"w": np.array([1.0, 2.0])}, eps=1e-3)
    assert err < 1e-8
    assert name == "w"


def test_grad_check_constant_function_gives_zero_gradients():
    def f(leaves):
        c = T.constant(np.zeros(2), leaves["w"])
        return T.tsum(T.mul(c, c))

    err, _ = T.grad_check(f, {"w": np.array([1.0, 2.0])}, eps=1e-3)
    assert err == 0.0


def test_grad_check_rejects_out_of_range_eps():
    with pytest.raises(ValueError):
        T.grad_check(lambda lv: T.tsum(lv["w"]), {"w": np.ones(2)}, eps=0.5)


# --- determinism and rng ----------------------------------------------------

def test_rng_same_seed_same_stream():
    a = T.Rng(42).normal((5,), dtype=np.float64)
    b = T.Rng(42).normal((5,), dtype=np.float64)
    assert np.array_equal(a, b)


def test_rng_spawn_is_keyed_and_independent():
    base = T.Rng(7)
    assert np.array_equal(base.spawn(1, 2).normal((4,)), T.Rng(7).spawn(1, 2).normal((4,)))
    assert not np.array_equal(base.spawn(1, 2).normal((4,)), base.spawn(1, 3).normal((4,)))


def test_truncated_normal_is_bounded():
    out = T.Rng(0).truncated_normal((1000,), sigma=0.02)
    assert np.abs(out).max() <= 2.0 * 0.02 + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=8).filter(
    lambda v: np.linalg.norm(v) > 1e-6))
def test_l2_normalize_always_unit_norm(values):
    tape = T.Tape()
    out = T.l2_normalize(tape.leaf(np.array(values, dtype=np.float64)))
    assert abs(np.linalg.norm(out.data) - 1.0) < 1e-6


def test_backward_requires_scalar_output():
    tape = T.Tape()
    leaf = tape.leaf(np.ones(3), param=True)
    with pytest.raises(T.TensorError):
        tape.backward(T.mul(leaf, leaf))


def test_trainable_leaves_are_recorded_on_a_live_tape():
    tape = T.Tape()
    w = tape.leaf(np.array([1.0, 2.0]), param=True)
    c = tape.leaf(np.array([3.0, 4.0]))
    out = T.tsum(T.mul(w, c))
    assert tape.nodes[0] is w and c not in tape.nodes and out in tape.nodes
    assert w.tape is tape and out.tape is tape
    tape.backward(out)
    assert np.array_equal(w.grad, [3.0, 4.0])


def test_a_node_holds_its_tape_weakly():
    gc.disable()
    try:
        tape = T.Tape()
        w = tape.leaf(np.ones(2), param=True)
        out = T.tsum(T.mul(w, w))
        ref = weakref.ref(tape)
        del tape
        assert ref() is None        # freed by reference counting, not by gc
        assert w.tape is None and out.tape is None
    finally:
        gc.enable()

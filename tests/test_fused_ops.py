"""Fused tensor ops: float64 finite-difference gradient checks, and float32
equivalence with the primitive node chains they replace (the triplet loss is
checked against its NumPy formula instead)."""

import numpy as np
import pytest

from duotune import tensor as T
from duotune.encoder import ATTENTION_MASK_BIAS
from duotune.optim import triplet_margin_loss_np
from tests.conftest import constant

B, L, H, HEADS = 2, 4, 6, 2


def weighted_sum(out: T.Tensor, seed: int = 0) -> T.Tensor:
    """A scalar that depends on every output entry differently."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=out.shape)
    return T.tsum(T.mul(out, constant(w, out)))


def mask_bias(dtype=np.float64) -> np.ndarray:
    """(B, 1, 1, L) attention bias; the second sequence's last key is a pad."""
    keep = np.ones((B, L), dtype=bool)
    keep[1, -1] = False
    return np.where(keep, 0.0, ATTENTION_MASK_BIAS).astype(dtype)[:, None, None, :]


# --- the node chains the fused ops replace --------------------------------------

def linear_chain(x, w, b):
    return T.add(T.matmul(x, T.transpose(w, (1, 0))), b)


def attention_chain(q, k, v, bias, n_heads):
    b_, l_, h = q.shape
    dh = h // n_heads

    def heads(t):
        return T.transpose(T.reshape(t, (b_, l_, n_heads, dh)), (0, 2, 1, 3))

    scores = T.matmul(heads(q), T.transpose(heads(k), (0, 1, 3, 2)))
    scores = T.mul(scores, constant(dh ** -0.5, scores))
    scores = T.add(scores, constant(bias, scores))
    ctx = T.matmul(T.softmax(scores), heads(v))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b_, l_, h))


def add_layer_norm_chain(a, b, w, bias):
    return T.layer_norm(T.add(a, b), w, bias)


# --- float64 gradient checks ------------------------------------------------------

def inputs(shapes: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {k: rng.uniform(-1.0, 1.0, size=s) for k, s in shapes.items()}


def check_each_input_frozen_in_turn(op, vals: dict):
    """grad_check with every input trainable, then with each one a constant."""
    for frozen in (None, *vals):
        params = {k: v for k, v in vals.items() if k != frozen}

        def f(leaves):
            args = [leaves[k] if k in leaves else T.Tensor(vals[k], None, False)
                    for k in vals]
            return weighted_sum(op(*args))

        err, worst = T.grad_check(f, params, eps=1e-5)
        assert err < 1e-6, f"frozen {frozen}: relative error {err:.3g} at {worst}"


@pytest.mark.parametrize("x_shape", [(5, 3), (2, 4, 3)])
def test_linear_gradients(x_shape):
    check_each_input_frozen_in_turn(T.linear, inputs({"x": x_shape, "w": (4, 3), "b": (4,)}, 1))


def test_attention_gradients_with_a_masked_key():
    vals = inputs({"q": (B, L, H), "k": (B, L, H), "v": (B, L, H)}, 2)
    check_each_input_frozen_in_turn(lambda q, k, v: T.attention(q, k, v, mask_bias(), HEADS),
                                    vals)


def test_attention_gives_masked_keys_no_weight_and_no_gradient():
    vals = inputs({"q": (B, L, H), "k": (B, L, H), "v": (B, L, H)}, 3)
    tape = T.Tape()
    leaves = {k: tape.leaf(v, param=True) for k, v in vals.items()}
    out = T.attention(leaves["q"], leaves["k"], leaves["v"], mask_bias(), HEADS)
    tape.backward(weighted_sum(out))
    assert not leaves["k"].grad[1, -1].any() and not leaves["v"].grad[1, -1].any()
    # the pad key's value cannot move the second sequence's outputs
    moved = dict(vals)
    moved["v"] = vals["v"].copy()
    moved["v"][1, -1] += 100.0
    again = T.attention(*(T.Tensor(moved[k], None, False) for k in "qkv"), mask_bias(), HEADS)
    assert np.array_equal(again.data[1], out.data[1])


def test_add_layer_norm_gradients():
    vals = inputs({"a": (2, 3, 5), "b": (2, 3, 5), "w": (5,), "bias": (5,)}, 4)
    vals["w"] += 1.5                    # keep the scale away from zero
    check_each_input_frozen_in_turn(T.add_layer_norm, vals)


def test_triplet_margin_loss_gradients():
    vals = inputs({"a": (5, 6), "p": (5, 6), "n": (5, 6)}, 11)
    check_each_input_frozen_in_turn(lambda a, p, n: T.triplet_margin_loss(a, p, n, 0.3), vals)


def test_triplet_margin_loss_is_one_node_with_the_reference_value():
    rng = np.random.default_rng(12)
    a, p, n = (rng.normal(size=(7, 16)) for _ in range(3))
    a, p, n = (x / np.linalg.norm(x, axis=-1, keepdims=True) for x in (a, p, n))
    p[:3] = a[:3]                       # d(a, p) = 0 must stay differentiable
    tape = T.Tape()
    leaves = [tape.leaf(x.astype(np.float32), param=True) for x in (a, p, n)]
    loss = T.triplet_margin_loss(*leaves, 0.5)
    assert len(tape.nodes) == 4 and tape.nodes[-1] is loss
    assert loss.item() == pytest.approx(triplet_margin_loss_np(a, p, n, 0.5).mean(), rel=1e-6)
    tape.backward(loss)
    grads = [leaf.grad for leaf in leaves]
    assert all(g.dtype == np.float32 and np.isfinite(g).all() for g in grads)
    assert not grads[1][:3].any()


# --- float32 equivalence with the chains ----------------------------------------

def run(op, vals: dict, seed: int = 5):
    """Forward value and every input's gradient of a weighted sum of op."""
    tape = T.Tape()
    leaves = {k: tape.leaf(v, param=True) for k, v in vals.items()}
    out = op(*leaves.values())
    tape.backward(weighted_sum(out, seed))
    return out.data, {k: leaf.grad for k, leaf in leaves.items()}


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-30)


def assert_equivalent(fused, chain, vals, bit_identical=True):
    f_out, f_grads = run(fused, vals)
    c_out, c_grads = run(chain, vals)
    assert f_out.dtype == np.float32 and all(g.dtype == np.float32 for g in f_grads.values())
    if bit_identical:
        assert np.array_equal(f_out, c_out)
    else:
        assert rel_err(f_out, c_out) < 1e-6
    for k in vals:
        assert rel_err(f_grads[k], c_grads[k]) < 1e-6, k


def f32_inputs(shapes: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {k: rng.normal(0.0, 1.0, size=s).astype(np.float32) for k, s in shapes.items()}


def test_linear_matches_its_chain_in_float32():
    shapes = {"w": (256, 64), "b": (256,)}
    # 2-D x: the chain's matmul is the same GEMM
    assert_equivalent(T.linear, linear_chain, f32_inputs({"x": (112, 64), **shapes}, 6))
    # 3-D x: the chain runs one small GEMM per batch row, which OpenBLAS may
    # accumulate in another order; the fused op equals the chain on the 2-D view
    vals = f32_inputs({"x": (14, 8, 64), **shapes}, 7)
    assert_equivalent(T.linear, linear_chain, vals, bit_identical=False)
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in vals.items()}
    flat = T.reshape(leaves["x"], (112, 64))
    assert np.array_equal(T.linear(leaves["x"], leaves["w"], leaves["b"]).data.reshape(112, 256),
                          linear_chain(flat, leaves["w"], leaves["b"]).data)


def test_attention_matches_its_chain_in_float32():
    shapes = {k: (14, 8, 64) for k in "qkv"}
    keep = np.arange(8)[None, :] < np.random.default_rng(8).integers(1, 9, size=(14, 1))
    bias = np.where(keep, 0.0, ATTENTION_MASK_BIAS).astype(np.float32)[:, None, None, :]
    assert_equivalent(lambda q, k, v: T.attention(q, k, v, bias, 4),
                      lambda q, k, v: attention_chain(q, k, v, bias, 4),
                      f32_inputs(shapes, 9))


def test_add_layer_norm_matches_its_chain_in_float32():
    vals = f32_inputs({"a": (14, 8, 64), "b": (14, 8, 64), "w": (64,), "bias": (64,)}, 10)
    assert_equivalent(T.add_layer_norm, add_layer_norm_chain, vals)


def test_fused_ops_reject_mismatched_shapes():
    tape = T.Tape()
    x = tape.leaf(np.ones((2, 3)))
    with pytest.raises(T.TensorError):
        T.linear(x, tape.leaf(np.ones((4, 2))), tape.leaf(np.ones(4)))
    q = tape.leaf(np.ones((1, 2, 4)))
    with pytest.raises(T.TensorError):
        T.attention(q, q, tape.leaf(np.ones((1, 2, 6))), np.zeros(2), 2)
    with pytest.raises(T.TensorError):
        T.attention(q, q, q, np.zeros(2), 3)
    with pytest.raises(T.TensorError):
        T.add_layer_norm(x, tape.leaf(np.ones((3, 3))), tape.leaf(np.ones(3)),
                         tape.leaf(np.zeros(3)))
    with pytest.raises(T.TensorError):
        T.triplet_margin_loss(x, x, tape.leaf(np.ones((1, 3))), 0.1)


def test_untaped_gelu_and_layer_norms_match_the_taped_ops_and_write_no_input():
    vals = f32_inputs({"a": (14, 8, 64), "b": (14, 8, 64), "w": (64,), "bias": (64,)}, 11)
    ops = {"gelu": lambda a, b, w, bias: T.gelu(a),
           "layer_norm": lambda a, b, w, bias: T.layer_norm(a, w, bias),
           "add_layer_norm": T.add_layer_norm}
    for name, op in ops.items():
        taped, _ = run(op, vals)
        before = {k: v.copy() for k, v in vals.items()}
        out = op(*(T.Tape().leaf(v) for v in vals.values()))
        assert not out.requires_grad and np.array_equal(out.data, taped), name
        assert all(np.array_equal(vals[k], before[k]) for k in vals), name
        assert not any(np.shares_memory(out.data, v) for v in vals.values()), name

"""Encoder contract: twin start, pooling, parameter naming, similarity
measures, and the checkpoint container."""

import json
import re

import numpy as np
import pytest

from duotune import tensor as T
from duotune.encoder import (DualEncoder, EncoderConfig, EncoderError, Vocab,
                             encode, encode_many, init_params, load_dual,
                             param_shapes, save_dual, similarity,
                             similarity_matrix, trees_equal)
from tests.conftest import random_unit


def test_twin_start_identical_embeddings(tiny_model, tiny_config):
    toks = [3, 4, 5]
    q = encode(tiny_model.query_params, toks, tiny_config)
    t = encode(tiny_model.text_params, toks, tiny_config)
    assert np.array_equal(q, t)
    assert similarity(q, t, "cosine") == pytest.approx(1.0, abs=1e-6)


def test_output_is_unit_norm(tiny_model, tiny_config):
    rng = np.random.default_rng(0)
    for _ in range(5):
        toks = rng.integers(2, tiny_config.vocab_size, size=rng.integers(1, 10)).tolist()
        out = encode(tiny_model.query_params, toks, tiny_config)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-5


def test_pad_tail_does_not_change_embedding(tiny_model, tiny_config):
    base = encode(tiny_model.query_params, [3, 4, 5], tiny_config)
    padded = encode(tiny_model.query_params, [3, 4, 5, 0, 0, 0], tiny_config)
    assert np.allclose(base, padded, atol=1e-6)


def test_init_params_deterministic(tiny_config):
    a = init_params(tiny_config, T.Rng(9))
    b = init_params(tiny_config, T.Rng(9))
    assert trees_equal(a, b)


def test_init_layer_norm_weights_are_one(tiny_config):
    tree = init_params(tiny_config, T.Rng(0))
    for name, arr in tree.items():
        if name.endswith("LayerNorm.weight"):
            assert np.all(arr == 1.0)
        if name.endswith(".bias"):
            assert np.all(arr == 0.0)


def test_param_name_count_matches_closed_form():
    # 5 embedding entries plus 16 per block (6 attention projections with
    # biases is 8 entries, attention LayerNorm 2, intermediate 2, output
    # dense 2, output LayerNorm 2)
    cfg = EncoderConfig()
    shapes = param_shapes(cfg)
    assert len(shapes) == 5 + 16 * cfg.n_blocks


def test_param_names_cover_diagnosed_layer_names():
    # every name addressed by freeze specs or layer diagnostics must resolve
    # on a deep (12-block) tree after restoring the encoder.layer prefix
    cfg = EncoderConfig(n_blocks=12)
    names = set(param_shapes(cfg))
    diagnosed = [
        "embeddings.word_embeddings.weight",
        "embeddings.LayerNorm.bias",
        "0.attention.self.query.weight",
        "3.attention.output.dense.bias",
        "5.attention.output.LayerNorm.weight",
        "7.intermediate.dense.weight",
        "11.output.dense.bias",
        "11.output.dense.weight",
        "11.output.LayerNorm.weight",
    ]
    for short in diagnosed:
        full = short if short.startswith("embeddings.") else f"encoder.layer.{short}"
        assert full in names, full


def test_encode_rejects_bad_inputs(tiny_model, tiny_config):
    with pytest.raises(EncoderError):
        encode(tiny_model.query_params, [tiny_config.vocab_size], tiny_config)
    with pytest.raises(EncoderError):
        encode(tiny_model.query_params, [3] * (tiny_config.max_positions + 1), tiny_config)
    with pytest.raises(EncoderError):
        encode(tiny_model.query_params, [0, 0], tiny_config)  # all-pad


def test_hidden_not_divisible_by_heads_rejected():
    with pytest.raises(EncoderError):
        EncoderConfig(hidden=10, n_heads=4)


# --- similarity ----------------------------------------------------------------

def test_similarity_identity_and_orthogonal():
    a = np.zeros(4)
    a[0] = 1.0
    b = np.zeros(4)
    b[1] = 1.0
    assert similarity(a, a, "cosine") == pytest.approx(1.0)
    assert similarity(a, a, "euclidean") == pytest.approx(0.0)
    assert similarity(a, b, "cosine") == pytest.approx(0.0)
    assert similarity(a, b, "euclidean") == pytest.approx(-np.sqrt(2.0))


def test_similarity_rejects_non_unit_inputs():
    with pytest.raises(EncoderError):
        similarity(np.array([3.0, 4.0]), np.array([1.0, 0.0]), "cosine")


def test_cosine_and_euclidean_rank_identically_on_unit_vectors():
    rng = np.random.default_rng(2)
    q = random_unit(rng)
    cands = np.stack([random_unit(rng) for _ in range(100)])
    cos = similarity_matrix(q[None, :], cands, "cosine")[0]
    euc = similarity_matrix(q[None, :], cands, "euclidean")[0]
    assert np.array_equal(np.argsort(-cos), np.argsort(-euc))


def test_similarity_matrix_agrees_with_scalar_similarity():
    rng = np.random.default_rng(4)
    A = np.stack([random_unit(rng) for _ in range(3)])
    B = np.stack([random_unit(rng) for _ in range(5)])
    for measure in ("cosine", "euclidean"):
        M = similarity_matrix(A, B, measure)
        for i in range(3):
            for j in range(5):
                assert M[i, j] == pytest.approx(similarity(A[i], B[j], measure), abs=1e-9)


def test_similarity_matrix_rejects_an_unknown_measure():
    with pytest.raises(EncoderError):
        similarity_matrix(np.eye(2), np.eye(2), "manhattan")


# --- batching and vocab ---------------------------------------------------------

def test_encode_many_matches_single_encodes(tiny_model, tiny_config):
    lists = [[3, 4], [5, 6, 7], [8]]
    batched = encode_many(tiny_model.query_params, lists, tiny_config)
    for i, toks in enumerate(lists):
        single = encode(tiny_model.query_params, toks, tiny_config)
        assert np.allclose(batched[i], single, atol=1e-6)


def test_vocab_roundtrip_and_unk(tmp_path):
    v = Vocab(["alpha", "beta"])
    assert v.encode("alpha beta") == [2, 3]
    assert v.encode("alpha gamma") == [2, 1]  # unk id
    v.save(tmp_path / "vocab.txt")
    again = Vocab.load(tmp_path / "vocab.txt")
    assert again.tokens == v.tokens
    with pytest.raises(EncoderError):
        v.encode("")


# --- checkpoint container --------------------------------------------------------

def test_checkpoint_roundtrip_bit_identical(tiny_model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_dual(tiny_model, path)
    again = load_dual(path)
    assert again.config == tiny_model.config
    assert again.mode == tiny_model.mode
    assert trees_equal(again.query_params, tiny_model.query_params)
    assert trees_equal(again.text_params, tiny_model.text_params)


def test_checkpoint_bytes_are_stable(tiny_model, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_dual(tiny_model, p1)
    save_dual(tiny_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(EncoderError):
        load_dual(path)


def _corrupt(model, tmp_path, edit):
    """Save `model`, pass its lines through `edit`, write them back."""
    path = tmp_path / "m.ckpt"
    save_dual(model, path)
    lines = edit(path.read_text().splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _rejected(path):
    with pytest.raises(EncoderError, match=re.escape(str(path))):
        load_dual(path)


def test_checkpoint_rejects_a_shape_other_than_the_config(tiny_model, tmp_path):
    # same element count, so the data alone would reshape silently
    def edit(lines):
        name, shape, data = lines[1].split("\t")
        rows, cols = json.loads(shape)
        assert rows % 2 == 0
        lines[1] = "\t".join([name, json.dumps([rows // 2, cols * 2]), data])
        return lines
    _rejected(_corrupt(tiny_model, tmp_path, edit))


def test_checkpoint_rejects_an_unknown_version(tiny_model, tmp_path):
    def edit(lines):
        header = json.loads(lines[0])
        header["version"] = 99
        return [json.dumps(header, sort_keys=True)] + lines[1:]
    _rejected(_corrupt(tiny_model, tmp_path, edit))


@pytest.mark.parametrize("where", ["replacing", "appended"])
def test_checkpoint_rejects_a_duplicated_tensor(tiny_model, tmp_path, where):
    def edit(lines):
        if where == "replacing":     # tensor count stays right
            return lines[:3] + [lines[2]] + lines[4:]
        return lines + [lines[2]]
    _rejected(_corrupt(tiny_model, tmp_path, edit))


@pytest.mark.parametrize("keep", [0.5, 0.9999])
def test_checkpoint_rejects_a_truncated_file(tiny_model, tmp_path, keep):
    path = tmp_path / "m.ckpt"
    save_dual(tiny_model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:int(len(raw) * keep)])
    _rejected(path)


def test_checkpoint_rejects_an_empty_file(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("")
    _rejected(path)


def test_checkpoint_rejects_an_unknown_section(tiny_model, tmp_path):
    def edit(lines):
        lines[1] = "other." + lines[1].split(".", 1)[1]
        return lines
    _rejected(_corrupt(tiny_model, tmp_path, edit))


def test_twin_init_trees_are_independent_copies(tiny_config):
    model = DualEncoder.twin_init(tiny_config, T.Rng(1))
    model.query_params["embeddings.LayerNorm.bias"][:] = 5.0
    assert not np.array_equal(model.query_params["embeddings.LayerNorm.bias"],
                              model.text_params["embeddings.LayerNorm.bias"])

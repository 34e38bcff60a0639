"""Encoder contract: twin start, pooling, parameter naming, similarity
measures, and the checkpoint container."""

import json
import re
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from duotune import encoder
from duotune import tensor as T
from duotune.encoder import (ENCODE_BATCH, DualEncoder, EncoderConfig, EncoderError, Vocab,
                             encode, encode_batch, encode_groups, encode_many, encode_prefix,
                             init_params, load_dual, pad_batch, param_shapes, save_dual,
                             similarity, similarity_matrix, trees_equal, wrap_params)
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


def seqs(n, seed, vocab_size=32):
    """n token lists of 1..12 in-vocabulary ids."""
    rng = np.random.default_rng(seed)
    return [rng.integers(2, vocab_size, size=int(rng.integers(1, 13))).tolist()
            for _ in range(n)]


def serial_encodes(groups, config):
    """Each group's ENCODE_BATCH-row chunks through `encode_batch`, one after another."""
    out = []
    for tree, toks, *prefix in groups:
        out.append(np.concatenate([
            encode_batch(wrap_params(T.Tape(), tree), pad_batch(toks[i:i + ENCODE_BATCH]),
                         config, prefix=prefix[0] if prefix else None).data
            for i in range(0, len(toks), ENCODE_BATCH)]) if toks else None)
    return out


def forwards_on_both_threads(monkeypatch, helper_rows=None):
    """Run `encode_groups` chunks on the caller and a helper thread, whatever
    the host's CPUs: the caller's first chunk waits until the helper has taken
    one. Returns the lists of the thread of each chunk and of each chunk that
    raised; `helper_rows` replaces the first row of every chunk the helper runs."""
    real, helper_took, threads, raised = encoder._forward, threading.Event(), [], []

    def forward(tree, toks, *args):
        threads.append(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            assert helper_took.wait(10)
        else:
            helper_took.set()
            if helper_rows is not None:
                toks = helper_rows + toks[1:]
        try:
            return real(tree, toks, *args)
        except EncoderError:
            raised.append(threading.current_thread())
            raise

    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    monkeypatch.setattr(encoder, "_forward", forward)
    return threads, raised


def test_encode_groups_on_two_threads_gives_a_serial_loops_bits(monkeypatch, tiny_model,
                                                                tiny_config):
    query = tiny_model.query_params
    text = init_params(tiny_config, T.Rng(1))
    tree64 = init_params(tiny_config, T.Rng(2), dtype=np.float64)
    prefix_seqs = seqs(30, 4)
    groups = [(query, seqs(2 * ENCODE_BATCH + 44, 0)),      # a ragged last chunk
              (text, []), (text, seqs(40, 1)), (query, seqs(3, 2)),
              (query, prefix_seqs, encode_prefix(query, prefix_seqs, tiny_config, 2)),
              (tree64, seqs(20, 3)), (tree64, [])]
    want = serial_encodes(groups, tiny_config)
    threads, _ = forwards_on_both_threads(monkeypatch)
    got = encode_groups(groups, tiny_config)
    assert len(set(threads)) == 2 and len(threads) == 3 + 1 + 1 + 1 + 1
    for (tree, toks, *_), g, w in zip(groups, got, want):
        dtype = tree["embeddings.LayerNorm.weight"].dtype
        assert g.shape == (len(toks), tiny_config.hidden) and g.dtype == dtype
        assert w is None or np.array_equal(g, w)
    assert encode_many(tree64, [], tiny_config).dtype == np.float64


def test_one_cpu_runs_every_chunk_on_the_caller(monkeypatch, tiny_model, tiny_config):
    groups = [(tiny_model.query_params, seqs(3 * ENCODE_BATCH, 0)),
              (tiny_model.text_params, seqs(30, 1))]
    threads, _ = forwards_on_both_threads(monkeypatch)
    threaded = encode_groups(groups, tiny_config)
    assert len(set(threads)) == 2
    monkeypatch.undo()
    monkeypatch.setattr(encoder.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    real, seen = encoder._forward, []
    monkeypatch.setattr(encoder, "_forward", lambda *a: seen.append(
        (threading.current_thread(), threading.active_count())) or real(*a))
    before = threading.active_count()
    serial = encode_groups(groups, tiny_config)
    assert encoder._workers() == 1
    assert seen == [(threading.main_thread(), before)] * 4      # no thread started
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))


def test_a_failing_chunk_on_the_helper_raises_as_the_serial_path(monkeypatch, tiny_model,
                                                                 tiny_config):
    query, toks = tiny_model.query_params, seqs(3 * ENCODE_BATCH, 5)
    with pytest.raises(EncoderError) as serial:
        encode_many(query, [[tiny_config.vocab_size]] + toks, tiny_config)
    before = threading.active_count()
    _, raised = forwards_on_both_threads(monkeypatch, helper_rows=[[tiny_config.vocab_size]])
    with pytest.raises(EncoderError) as threaded:
        encode_many(query, toks, tiny_config)
    assert str(threaded.value) == str(serial.value) == "token id out of vocabulary range"
    assert len(raised) == 1 and raised[0] is not threading.main_thread()
    assert threading.active_count() == before
    monkeypatch.undo()                                      # the next call still works
    assert np.array_equal(encode_many(query, toks, tiny_config),
                          serial_encodes([(query, toks)], tiny_config)[0])


def test_the_lowest_failed_chunk_is_raised_and_no_later_chunk_starts(monkeypatch):
    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    ran, second_failed = [], threading.Event()

    def task(i):
        ran.append(i)
        if i == 1:                  # fails only once chunk 2 has failed on the other thread
            assert second_failed.wait(10)
        if i == 2:
            second_failed.set()
        if i in (1, 2):
            raise ValueError(f"chunk {i}")
        return i

    with pytest.raises(ValueError, match="chunk 1"):
        encoder._run_chunks([partial(task, i) for i in range(8)])
    assert sorted(ran) == [0, 1, 2]
    assert encoder._run_chunks([partial(task, 0), partial(task, 3)]) == [0, 3]


def test_numpys_openblas_runs_one_thread_while_the_helper_runs(monkeypatch):
    blas = encoder._openblas()
    if blas is None:
        pytest.skip("NumPy links no OpenBLAS of its own")
    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    before = blas[0]()
    try:
        blas[1](2)
        assert encoder._run_chunks([blas[0]] * 4) == [1] * 4 and blas[0]() == 2
        with pytest.raises(ZeroDivisionError):
            encoder._run_chunks([blas[0], lambda: 1 / 0])
        assert blas[0]() == 2
    finally:
        blas[1](before)


def test_each_task_runs_once_under_frequent_thread_switches(monkeypatch):
    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    interval, ran = sys.getswitchinterval(), []
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            ran.clear()
            got = encoder._run_chunks([partial(lambda i: ran.append(i) or i, i)
                                       for i in range(2000)])
            assert got == list(range(2000)) and sorted(ran) == got
    finally:
        sys.setswitchinterval(interval)


def test_a_memo_encodes_each_distinct_group_once(monkeypatch, tiny_model, tiny_config):
    query, text, memo, rows = tiny_model.query_params, init_params(tiny_config, T.Rng(1)), {}, []
    real = encoder._forward
    monkeypatch.setattr(encoder, "_forward", lambda *a: rows.append(len(a[1])) or real(*a))
    groups = [(query, seqs(5, 0)), (query, seqs(5, 0)), (text, seqs(5, 0)), (query, seqs(7, 1)),
              (text, [])]
    first = encode_groups(groups, tiny_config, memo)
    assert sorted(rows) == [5, 5, 7] and len(memo) == 4      # the repeat is encoded once
    again = encode_groups(groups, tiny_config, memo)
    assert len(rows) == 3 and all(a is b for a, b in zip(first, again))
    assert first[0] is first[1]
    assert all(np.array_equal(a, b) for a, b in zip(first, encode_groups(groups, tiny_config)))


def test_an_evaluation_chunk_peaks_at_under_6_mb():
    """256 rows of 8 tokens at the benchmark's model size: 10.0 MB while each
    block kept its FFN activations and GELU made four temporaries."""
    config = EncoderConfig(vocab_size=100, hidden=64, n_blocks=4, n_heads=4, intermediate=256)
    tree = init_params(config, T.Rng(0))
    toks = np.random.default_rng(0).integers(2, 100, size=(ENCODE_BATCH, 8)).tolist()
    encoder._forward(tree, toks, config, None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        encoder._forward(tree, toks, config, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


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


@pytest.mark.parametrize("dtype", ["int32", "float16", "complex64"])
def test_checkpoint_rejects_a_dtype_other_than_float32_or_float64(tiny_model, tmp_path, dtype):
    def edit(lines):
        lines[0] = lines[0].replace('"dtype": "float32"', f'"dtype": "{dtype}"')
        return lines
    path = _corrupt(tiny_model, tmp_path, edit)
    with pytest.raises(EncoderError, match=f"{re.escape(str(path))}: checkpoint dtype {dtype}, "
                                           "expected float32 or float64"):
        load_dual(path)


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

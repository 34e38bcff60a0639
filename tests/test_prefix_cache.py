"""The query tower's frozen-prefix cache: where the boundary falls, cached
anchors against a full encode, one prefix computation per distinct query
per tune() call, no cache while an embedding parameter trains, and each
step's graph freed without the garbage collector."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from duotune import encoder, tuning
from duotune import tensor as T
from duotune.encoder import (DualEncoder, EncoderConfig, encode_batch, encode_prefix,
                             frozen_stages, init_params, pad_batch, trees_equal, wrap_params)
from duotune.freeze import parse_freeze_spec, trainable_names
from duotune.tuning import tune

from test_tuning import CFG, VOCAB, small_config, topic_triplets

WORD_EMB = "embeddings.word_embeddings.weight"
CFG4 = EncoderConfig(vocab_size=32, hidden=16, n_blocks=4, n_heads=2,
                     intermediate=32, max_positions=16)


def stages_of(freeze, config=CFG4):
    names = trainable_names(parse_freeze_spec(freeze), init_params(config, T.Rng(0)))
    return frozen_stages(names, config)


def test_the_boundary_counts_the_leading_stages_without_a_trainable_parameter():
    assert stages_of("-") == 0
    assert stages_of("B0") == 0                 # the embeddings train
    assert stages_of("emb") == 1
    assert stages_of("emb, B0-2") == 4
    assert stages_of("emb, B1") == 1            # block 0 trains, block 1 does not
    assert stages_of("emb, B0-3") == 5          # nothing trains


def queries(n, seed):
    """Token lists of lengths 1..7, so batches carry padding."""
    rng = np.random.default_rng(seed)
    return [list(rng.integers(2, 32, size=int(rng.integers(1, 8)))) for _ in range(n)]


@pytest.mark.parametrize("freeze, atol", [("emb", 0.0), ("emb, B0-2", 1e-6)])
def test_cached_anchors_match_a_full_encode(freeze, atol):
    tree = init_params(CFG4, T.Rng(2))
    seqs = queries(40, 0)
    prefix = encode_prefix(tree, seqs, CFG4, stages_of(freeze))
    for batch in (seqs[:14], seqs[14:30], seqs[30:]):
        leaves = wrap_params(T.Tape(), tree)
        full = encode_batch(leaves, pad_batch(batch), CFG4).data
        cached = encode_batch(leaves, pad_batch(batch), CFG4, prefix=prefix).data
        if atol == 0.0:
            assert np.array_equal(cached, full)
        else:
            np.testing.assert_allclose(cached, full, rtol=0, atol=atol)


def test_tune_at_emb_is_bit_identical_with_and_without_the_cache(monkeypatch):
    model = DualEncoder.twin_init(CFG, T.Rng(4))
    train, valid = topic_triplets(20), topic_triplets(8, seed=1)
    cfg = small_config(max_epochs=3, idle_epochs_to_stop=5)
    cached, cached_rec = tune(model, train, valid, cfg, VOCAB)
    monkeypatch.setattr(tuning, "frozen_stages", lambda names, config: 0)
    plain, plain_rec = tune(model, train, valid, cfg, VOCAB)
    assert cached_rec == plain_rec
    assert trees_equal(cached.query_params, plain.query_params)


def test_prefix_rows_are_computed_once_per_distinct_query_per_call(monkeypatch):
    # distinct towers, so a query-tower forward can be told from its weights
    model = DualEncoder(CFG4, init_params(CFG4, T.Rng(0)), init_params(CFG4, T.Rng(1)))
    train = topic_triplets(20)
    valid = train[:3] + topic_triplets(5, seed=1)      # queries shared with train
    cfg = small_config(freeze="emb, B0-1", max_epochs=2, idle_epochs_to_stop=5)
    rows, spans = Counter(), set()
    real = encoder._stages

    def counting(params, ids, config, x, start, stop):
        if np.array_equal(params[WORD_EMB].data, model.query_params[WORD_EMB]):
            spans.add((start, stop))
            if start == 0:
                assert (ids != 0).all()     # each query at its own length
                rows.update(tuple(int(i) for i in row) for row in ids)
        return real(params, ids, config, x, start, stop)

    monkeypatch.setattr(encoder, "_stages", counting)
    distinct = {tuple(VOCAB.encode(s.query)) for s in train + valid}
    for calls in (1, 2):                    # the cache does not outlive a call
        tune(model, train, valid, cfg, VOCAB)
        assert set(rows) == distinct
        assert set(rows.values()) == {calls}
    # the prefix ("emb, B0-1": 3 stages) once; steps and validation after it
    assert spans == {(0, 3), (3, 5)}


@pytest.mark.parametrize("freeze", ["-", "B0-1"])
def test_no_cache_is_built_while_an_embedding_parameter_trains(monkeypatch, freeze):
    def no_prefix(*args, **kw):
        raise AssertionError("encode_prefix called")

    prefixes = []
    real = tuning.encode_batch

    def recording(params, ids, config, **kw):
        prefixes.append(kw.get("prefix"))
        return real(params, ids, config, **kw)

    monkeypatch.setattr(tuning, "encode_prefix", no_prefix)
    monkeypatch.setattr(tuning, "encode_batch", recording)
    cfg = small_config(freeze=freeze, max_epochs=1, idle_epochs_to_stop=2)
    tune(DualEncoder.twin_init(CFG, T.Rng(0)), topic_triplets(12), topic_triplets(4, seed=1),
         cfg, VOCAB)
    assert prefixes and all(p is None for p in prefixes)


def test_each_steps_graph_is_freed_without_the_garbage_collector(monkeypatch):
    tapes = []
    real = tuning.encode_batch

    def recording(params, ids, config, **kw):
        out = real(params, ids, config, **kw)
        if out.requires_grad:               # a training step's query forward
            tapes.append(weakref.ref(out.tape))
        return out

    monkeypatch.setattr(tuning, "encode_batch", recording)
    cfg = small_config(max_epochs=1, idle_epochs_to_stop=2)
    gc.disable()
    try:
        tune(DualEncoder.twin_init(CFG, T.Rng(0)), topic_triplets(12),
             topic_triplets(4, seed=1), cfg, VOCAB)
        assert len(tapes) == cfg.batches_per_epoch
        assert all(ref() is None for ref in tapes)
    finally:
        gc.enable()

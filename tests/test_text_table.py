"""The frozen text tower's embedding table: rows agree with a fresh encode,
each distinct text is encoded once per tune() call, and both-tuned mode
still encodes the text tower every step."""

from collections import Counter

import numpy as np

from duotune import encoder, tuning
from duotune import tensor as T
from duotune.encoder import (DualEncoder, encode_batch, init_params, pad_batch,
                             trees_equal, wrap_params)
from duotune.optim import LossSpec, OptimizerSpec
from duotune.tuning import _text_rows, _text_table, _tokenize_triplets, tune, validate

from test_tuning import CFG, VOCAB, small_config, topic_triplets

WORD_EMB = "embeddings.word_embeddings.weight"


def tokens(n, seed):
    return _tokenize_triplets(topic_triplets(n, seed=seed), VOCAB, 64)


def test_table_rows_match_a_fresh_encode_of_the_padded_batch():
    model = DualEncoder.twin_init(CFG, T.Rng(3))
    train_tok, valid_tok = tokens(30, 0), tokens(10, 1)
    table = _text_table(model, train_tok + valid_tok)
    for toks in (train_tok[:4], train_tok[4:8], valid_tok):
        seqs = [t[1] for t in toks] + [t[2] for t in toks]
        leaves = wrap_params(T.Tape(), model.text_params)
        fresh = encode_batch(leaves, pad_batch(seqs), CFG).data
        cached = _text_rows(leaves, seqs, CFG, table)
        assert not cached.requires_grad
        np.testing.assert_allclose(cached.data, fresh, rtol=0, atol=1e-6)


def test_validate_from_the_table_matches_the_reencode_reference():
    for seed in (0, 3):
        model = DualEncoder.twin_init(CFG, T.Rng(seed))
        valid_tok = tokens(30, 5)
        ref_loss, ref_errors = validate(model, valid_tok, LossSpec())
        loss, errors = validate(model, valid_tok, LossSpec(),
                                _text_table(model, valid_tok))
        assert errors == ref_errors
        assert abs(loss - ref_loss) <= 1e-6


def test_query_only_tune_encodes_each_distinct_text_once_per_call(monkeypatch):
    # distinct towers, so a call's tower can be told from its weights
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    train, valid = topic_triplets(20), topic_triplets(8, seed=1)
    text_rows = Counter()
    real = encoder.encode_batch

    def counting(params, ids, config):
        if np.array_equal(params[WORD_EMB].data, model.text_params[WORD_EMB]):
            text_rows.update(tuple(int(i) for i in row if i) for row in ids)
        return real(params, ids, config)

    monkeypatch.setattr(encoder, "encode_batch", counting)
    monkeypatch.setattr(tuning, "encode_batch", counting)
    cfg = small_config(max_epochs=3, idle_epochs_to_stop=5)
    distinct = {tuple(s) for t in tokens(20, 0) + tokens(8, 1) for s in t[1:]}
    for calls in (1, 2):        # the table does not outlive a call
        best, record = tune(model, train, valid, cfg, VOCAB)
        assert record.total_steps == 3 * cfg.batches_per_epoch
        assert set(text_rows) == distinct
        assert set(text_rows.values()) == {calls}
    assert trees_equal(best.text_params, model.text_params)


def _count_tuning_encodes(monkeypatch, mode):
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    rows = []
    real = tuning.encode_batch

    def counting(params, ids, config):
        rows.append(len(ids))
        return real(params, ids, config)

    monkeypatch.setattr(tuning, "encode_batch", counting)
    cfg = small_config(mode=mode, max_epochs=2, idle_epochs_to_stop=2,
                       optimizer=OptimizerSpec(kind="sgd", lr=1e-2))
    seq = iter([(1.0, 10), (0.5, 5), (0.6, 6)])
    best, record = tune(model, topic_triplets(20), topic_triplets(8, seed=1), cfg,
                        VOCAB, validate_fn=lambda m: next(seq))
    return model, best, record, rows


def test_both_tuned_mode_encodes_the_text_tower_every_step(monkeypatch):
    model, best, record, rows = _count_tuning_encodes(monkeypatch, "both-tuned")
    # per step: the anchors, then positives and negatives in one batch
    assert rows == [4, 8] * record.total_steps
    assert not trees_equal(best.text_params, model.text_params)


def test_query_only_steps_encode_only_the_anchors(monkeypatch):
    model, best, record, rows = _count_tuning_encodes(monkeypatch, "query-only")
    assert rows == [4] * record.total_steps
    assert trees_equal(best.text_params, model.text_params)

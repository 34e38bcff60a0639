"""Each tower's frozen-prefix cache: where the boundary falls, cached rows
against a full encode, one prefix computation per distinct sequence per
tune() call (a text tower where nothing trains runs no stage in a step), no
query-tower cache while an embedding parameter trains, and each step's
graph freed without the garbage collector."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from duotune import encoder, lab, tuning
from duotune import tensor as T
from duotune.encoder import (DualEncoder, EncoderConfig, encode_batch, encode_prefix,
                             frozen_stages, init_params, pad_batch, trees_equal, wrap_params)
from duotune.freeze import parse_freeze_spec, trainable_names
from duotune.optim import LossSpec, OptimizerSpec
from duotune.tuning import _tokenize_triplets, tune, validate

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


@pytest.mark.parametrize("freeze, atol", [("emb", 0.0), ("emb, B0-2", 1e-6),
                                          ("emb, B0-3", 1e-6)])     # full depth: only pooling
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
    real = tuning.frozen_stages
    # no query-tower cache; the text tower, where nothing trains, keeps its own
    monkeypatch.setattr(tuning, "frozen_stages",
                        lambda names, config: 0 if names else real(names, config))
    plain, plain_rec = tune(model, train, valid, cfg, VOCAB)
    assert cached_rec == plain_rec
    assert trees_equal(cached.query_params, plain.query_params)


def tokens(n, seed):
    return _tokenize_triplets(topic_triplets(n, seed=seed), VOCAB, 64)


def test_validate_from_the_prefixes_matches_a_full_encode():
    for seed in (0, 3):
        model = DualEncoder(CFG, init_params(CFG, T.Rng(seed)), init_params(CFG, T.Rng(seed + 1)))
        valid_tok = tokens(30, 5)
        prefixes = {
            "query": encode_prefix(model.query_params, [t[0] for t in valid_tok], CFG, 1),
            "text": encode_prefix(model.text_params, [s for t in valid_tok for s in t[1:]],
                                  CFG, CFG.n_blocks + 1)}
        ref_loss, ref_errors = validate(model, valid_tok, LossSpec())
        loss, errors = validate(model, valid_tok, LossSpec(), prefixes)
        assert errors == ref_errors
        assert abs(loss - ref_loss) <= 1e-6


def count_stages(monkeypatch, tree):
    """Record (start, stop) of every `_stages` call on `tree`'s weights, and
    each row's tokens for the calls that start at the embeddings."""
    rows, spans = Counter(), []
    real = encoder._stages

    def counting(params, ids, config, x, start, stop):
        if np.array_equal(params[WORD_EMB].data, tree[WORD_EMB]):
            spans.append((start, stop))
            if start == 0:
                assert (ids != 0).all()     # each sequence at its own length
                rows.update(tuple(int(i) for i in row) for row in ids)
        return real(params, ids, config, x, start, stop)

    monkeypatch.setattr(encoder, "_stages", counting)
    return rows, spans


def test_prefix_rows_are_computed_once_per_distinct_query_per_call(monkeypatch):
    # distinct towers, so a query-tower forward can be told from its weights
    model = DualEncoder(CFG4, init_params(CFG4, T.Rng(0)), init_params(CFG4, T.Rng(1)))
    train = topic_triplets(20)
    valid = train[:3] + topic_triplets(5, seed=1)      # queries shared with train
    cfg = small_config(freeze="emb, B0-1", max_epochs=2, idle_epochs_to_stop=5)
    rows, spans = count_stages(monkeypatch, model.query_params)
    distinct = {tuple(VOCAB.encode(s.query)) for s in train + valid}
    for calls in (1, 2):                    # the cache does not outlive a call
        tune(model, train, valid, cfg, VOCAB)
        assert set(rows) == distinct
        assert set(rows.values()) == {calls}
    # the prefix ("emb, B0-1": 3 stages) once; steps and validation after it
    assert set(spans) == {(0, 3), (3, 5)}


def test_query_only_tune_runs_each_distinct_texts_stages_once_per_call(monkeypatch):
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    rows, spans = count_stages(monkeypatch, model.text_params)
    cfg = small_config(max_epochs=3, idle_epochs_to_stop=5)
    distinct = {tuple(s) for t in tokens(20, 0) + tokens(8, 1) for s in t[1:]}
    for calls in (1, 2):
        best, record = tune(model, topic_triplets(20), topic_triplets(8, seed=1), cfg, VOCAB)
        assert record.total_steps == 3 * cfg.batches_per_epoch
        assert set(rows) == distinct
        assert set(rows.values()) == {calls}
    # all stages once per text; steps and validation only pool
    assert set(spans) == {(0, CFG.n_blocks + 1), (CFG.n_blocks + 1, CFG.n_blocks + 1)}
    assert trees_equal(best.text_params, model.text_params)


def test_a_query_only_sweep_runs_each_distinct_texts_stages_once(monkeypatch):
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    train, valid, evals = topic_triplets(20), topic_triplets(8, seed=1), topic_triplets(6, seed=2)
    texts = [tuple(VOCAB.encode(t)) for s in train + valid + evals
             for t in s.positives + s.negatives]
    assert len(set(texts)) == len(texts)
    rows, _ = count_stages(monkeypatch, model.text_params)
    spec = lab.SweepSpec("learning_rate", [1e-4, 1e-3, 1e-2],
                         small_config(max_epochs=2, idle_epochs_to_stop=3), {"evals": evals})
    lab.run_sweep(model, train, valid, VOCAB, spec)
    # the evaluation texts for the base, the prefix rows for the first point;
    # every later point and evaluation reuses them
    assert set(rows) == set(texts)
    assert set(rows.values()) == {1}


def test_a_memo_shares_prefix_tables_by_content(monkeypatch):
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    train, valid = topic_triplets(20), topic_triplets(8, seed=1)
    cfg = small_config(freeze="emb, B0", max_epochs=2, idle_epochs_to_stop=3)
    plain, plain_rec = tune(model, train, valid, cfg, VOCAB)
    # with both towers cached, only a table build runs a stage from the embeddings
    (query_rows, query_spans), (text_rows, text_spans) = (
        count_stages(monkeypatch, tree) for tree in (model.query_params, model.text_params))
    memo = {}
    for m in (model, model.copy()):
        tuned, record = tune(m, train, valid, cfg, VOCAB, memo=memo)
        assert record == plain_rec
        assert trees_equal(tuned.query_params, plain.query_params)
    # one table per tower, each distinct sequence built once: the copy all hits
    assert {s for s in query_spans if s[0] == 0} == {(0, 2)}
    assert {s for s in text_spans if s[0] == 0} == {(0, CFG.n_blocks + 1)}
    assert set(query_rows.values()) == set(text_rows.values()) == {1}
    model.text_params["encoder.layer.1.output.dense.bias"] += 0.5    # in place
    tune(model, train, valid, cfg, VOCAB, memo=memo)
    assert set(query_rows.values()) == {1} and set(text_rows.values()) == {2}


def test_query_only_steps_run_no_text_tower_stage(monkeypatch):
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    _, spans = count_stages(monkeypatch, model.text_params)
    cfg = small_config(max_epochs=2, idle_epochs_to_stop=2,
                       optimizer=OptimizerSpec(kind="sgd", lr=1e-2))
    seq = iter([(1.0, 10), (0.5, 5), (0.6, 6)])
    best, record = tune(model, topic_triplets(20), topic_triplets(8, seed=1), cfg,
                        VOCAB, validate_fn=lambda m: next(seq))
    assert [s for s in spans if s[0] < s[1]] == [(0, CFG.n_blocks + 1)]    # the prefix
    assert len(spans) == 1 + record.total_steps
    assert trees_equal(best.text_params, model.text_params)


def test_both_tuned_mode_encodes_the_text_tower_every_step(monkeypatch):
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    rows = []
    real = tuning.encode_batch

    def counting(params, ids, config, **kw):
        rows.append(len(ids))
        return real(params, ids, config, **kw)

    monkeypatch.setattr(tuning, "encode_batch", counting)
    cfg = small_config(mode="both-tuned", max_epochs=2, idle_epochs_to_stop=2,
                       optimizer=OptimizerSpec(kind="sgd", lr=1e-2))
    seq = iter([(1.0, 10), (0.5, 5), (0.6, 6)])
    best, record = tune(model, topic_triplets(20), topic_triplets(8, seed=1), cfg,
                        VOCAB, validate_fn=lambda m: next(seq))
    # per step: the anchors, then positives and negatives in one batch
    assert rows == [4, 8] * record.total_steps
    assert not trees_equal(best.text_params, model.text_params)


def test_both_tuned_caches_the_text_towers_frozen_prefix(monkeypatch):
    # the text tower's word embeddings stay frozen, so its forwards can be told apart
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    train, valid = topic_triplets(20), topic_triplets(8, seed=1)
    cfg = small_config(mode="both-tuned", freeze="emb, B0", max_epochs=3,
                       idle_epochs_to_stop=5)
    rows, spans = count_stages(monkeypatch, model.text_params)
    cached, cached_rec = tune(model, train, valid, cfg, VOCAB)
    assert set(rows) == {tuple(s) for t in tokens(20, 0) + tokens(8, 1) for s in t[1:]}
    assert set(rows.values()) == {1}
    # "emb, B0": 2 stages once per text; steps and validation run block 1
    assert set(spans) == {(0, 2), (2, 3)}

    monkeypatch.setattr(tuning, "frozen_stages", lambda names, config: 0)
    plain, plain_rec = tune(model, train, valid, cfg, VOCAB)
    # validation reads the moving towers, so its losses compare the trained models
    losses = [[r.initial_loss] + [e.val_loss for e in r.epochs] for r in (cached_rec, plain_rec)]
    assert len(set(losses[0])) == len(losses[0])
    np.testing.assert_allclose(losses[0], losses[1], rtol=0, atol=1e-6)
    assert [(e.val_errors, e.accepted) for e in cached_rec.epochs] == \
        [(e.val_errors, e.accepted) for e in plain_rec.epochs]
    for side in ("query_params", "text_params"):
        for name, arr in getattr(plain, side).items():
            np.testing.assert_allclose(getattr(cached, side)[name], arr, rtol=0, atol=1e-5)


@pytest.mark.parametrize("freeze", ["-", "B0-1"])
def test_no_cache_is_built_while_an_embedding_parameter_trains(monkeypatch, freeze):
    model = DualEncoder(CFG, init_params(CFG, T.Rng(0)), init_params(CFG, T.Rng(1)))
    built, prefixes = [], []
    real_prefix, real_batch = tuning.encode_prefix, tuning.encode_batch

    def recording_prefix(params, *args):     # no memo: each call builds its table
        table = real_prefix(params, *args)
        built.append((np.array_equal(params[WORD_EMB], model.query_params[WORD_EMB]), table[0]))
        return table

    def recording(params, ids, config, **kw):
        if np.array_equal(params[WORD_EMB].data, model.query_params[WORD_EMB]):
            prefixes.append(kw.get("prefix"))
        return real_batch(params, ids, config, **kw)

    monkeypatch.setattr(tuning, "encode_prefix", recording_prefix)
    monkeypatch.setattr(tuning, "encode_batch", recording)
    cfg = small_config(freeze=freeze, max_epochs=1, idle_epochs_to_stop=2)
    tune(model, topic_triplets(12), topic_triplets(4, seed=1), cfg, VOCAB)
    assert built == [(False, CFG.n_blocks + 1)]     # only the untrained text tower
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

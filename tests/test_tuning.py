"""Tuning loop: acceptance rule, stopping, freeze contract, determinism."""

import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest

from duotune import encoder, tuning
from duotune import tensor as T
from duotune.data import TripletSample
from duotune.encoder import DualEncoder, EncoderConfig, Vocab, trees_equal
from duotune.lab import evaluate_triplets
from duotune.optim import LossSpec, OptimError, Optimizer, OptimizerSpec, SchedulerSpec
from duotune.tuning import (RunRecord, TuneConfig, TuningError, tune, validate,
                            validate_samples, _tokenize_triplets)

CFG = EncoderConfig(vocab_size=32, hidden=16, n_blocks=2, n_heads=2,
                    intermediate=32, max_positions=16)
VOCAB = Vocab([f"w{i:03d}" for i in range(30)])


def words(idx):
    return " ".join(f"w{i:03d}" for i in idx)


def topic_triplets(n, seed=0):
    """Two token 'topics': queries match positives from the same half of the
    vocabulary, negatives come from the other half."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        t = rng.integers(0, 2)
        lo, hi = (0, 15) if t == 0 else (15, 30)
        olo, ohi = (15, 30) if t == 0 else (0, 15)
        out.append(TripletSample(
            words(rng.integers(lo, hi, size=4)),
            [words(rng.integers(lo, hi, size=4))],
            [words(rng.integers(olo, ohi, size=4))]))
    return out


def small_config(**kw):
    base = dict(batch_size=4, epoch_policy="batches", epoch_size=3,
                idle_epochs_to_stop=3, max_epochs=50, freeze="emb",
                optimizer=OptimizerSpec(kind="adamw", lr=1e-3), seed=0)
    base.update(kw)
    return TuneConfig(**base)


# --- config ---------------------------------------------------------------------

def test_epoch_accounting_for_both_policies():
    assert TuneConfig(epoch_policy="batches", epoch_size=1000,
                      batch_size=56).batches_per_epoch == 1000
    assert TuneConfig(epoch_policy="samples", epoch_size=14000,
                      batch_size=56).batches_per_epoch == 250
    assert TuneConfig(epoch_policy="samples", epoch_size=14000,
                      batch_size=14).batches_per_epoch == 1000


def test_config_validation():
    with pytest.raises(TuningError):
        TuneConfig(batch_size=0)
    with pytest.raises(TuningError):
        TuneConfig(idle_epochs_to_stop=0)
    with pytest.raises(TuningError):
        TuneConfig(epoch_policy="sideways")
    for bad in (dict(epoch_size=0), dict(max_epochs=-1), dict(seed=-1),
                dict(epoch_policy="samples", epoch_size=13, batch_size=14)):
        with pytest.raises(TuningError):
            TuneConfig(**bad)
    assert TuneConfig(max_epochs=0).max_epochs == 0
    for name in ("batch_size", "epoch_size", "idle_epochs_to_stop", "max_epochs", "seed"):
        for value in (True, 4.5, 4.0, "4", None):
            with pytest.raises(TuningError, match=f"{name} must be an integer, not {value!r}"):
                TuneConfig.from_dict({name: value})
        assert getattr(TuneConfig.from_dict({name: np.int64(4)}), name) == 4
    # a new run's L or Q schedule must reach the last step: 3 epochs x 5 batches
    # end at step 14. A config alone is not checked, so a recorded run still loads.
    short = dict(epoch_size=5, max_epochs=3)
    for bad in (dict(short, scheduler=SchedulerSpec("L", total_steps=13)),
                dict(short, scheduler=SchedulerSpec("Q", total_steps=8)),
                dict(scheduler=SchedulerSpec("L", total_steps=999998))):
        cfg = TuneConfig(**bad)
        with pytest.raises(OptimError, match="beyond total_steps"):
            cfg.check_schedule()
    cfg = TuneConfig(**short, scheduler=SchedulerSpec("L", total_steps=14))
    assert cfg.check_schedule() is cfg
    assert TuneConfig(scheduler=SchedulerSpec("Q", total_steps=999999)).check_schedule()


def test_config_dict_roundtrip():
    cfg = small_config(scheduler=SchedulerSpec("E", gamma=0.9))
    again = TuneConfig.from_dict(asdict(cfg))
    assert again == cfg


# --- validate --------------------------------------------------------------------

def test_validate_zero_errors_when_positive_equals_anchor():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    samples = [TripletSample(words([3, 4]), [words([3, 4])], [words([9, 10])])
               for _ in range(5)]
    _, errors = validate_samples(model, samples, VOCAB)
    assert errors == 0


def test_validate_all_errors_when_negative_equals_anchor():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    samples = [TripletSample(words([3, 4]), [words([9, 10])], [words([3, 4])])
               for _ in range(5)]
    _, errors = validate_samples(model, samples, VOCAB)
    assert errors == 5


def test_validate_matches_brute_force_recount():
    from duotune.encoder import encode
    model = DualEncoder.twin_init(CFG, T.Rng(3))
    samples = topic_triplets(30, seed=5)
    loss, errors = validate_samples(model, samples, VOCAB)

    recount = 0
    for s in samples:
        a = encode(model.query_params, VOCAB.encode(s.query, 64), CFG)
        p = encode(model.text_params, VOCAB.encode(s.positives[0], 64), CFG)
        n = encode(model.text_params, VOCAB.encode(s.negatives[0], 64), CFG)
        if np.linalg.norm(a - p) >= np.linalg.norm(a - n):
            recount += 1
    assert errors == recount
    assert loss >= 0.0


def test_validate_empty_set_rejected():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    with pytest.raises(TuningError):
        validate(model, [], LossSpec())


def test_tokenize_takes_first_positive_and_negative():
    s = TripletSample(words([2]), [words([3]), words([4])], [words([5]), words([6])])
    toks = _tokenize_triplets([s], VOCAB, 64)
    assert toks == [(VOCAB.encode(words([2])), VOCAB.encode(words([3])),
                     VOCAB.encode(words([5])))]


# --- tune -------------------------------------------------------------------------

def test_lr_zero_run_is_a_no_op_and_stops_on_idle():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train = topic_triplets(20)
    valid = topic_triplets(10, seed=1)
    cfg = small_config(optimizer=OptimizerSpec(kind="adamw", lr=0.0))
    best, record = tune(model, train, valid, cfg, VOCAB)

    assert all(not e.accepted for e in record.epochs)
    assert len(record.epochs) == cfg.idle_epochs_to_stop
    assert record.best_epoch == 0
    assert trees_equal(best.query_params, model.query_params)
    assert trees_equal(best.text_params, model.text_params)


def test_freeze_contract_embeddings_untouched_after_tuning():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train = topic_triplets(40)
    valid = topic_triplets(12, seed=1)
    cfg = small_config(max_epochs=3, idle_epochs_to_stop=2)
    best, _ = tune(model, train, valid, cfg, VOCAB)
    for name in model.query_params:
        if name.startswith("embeddings."):
            assert np.array_equal(best.query_params[name], model.query_params[name]), name
    # text side untouched in query-only mode
    assert trees_equal(best.text_params, model.text_params)


def test_tuning_reduces_validation_errors_on_separable_topics():
    model = DualEncoder.twin_init(CFG, T.Rng(1))
    train = topic_triplets(200, seed=2)
    valid = topic_triplets(60, seed=3)
    cfg = small_config(epoch_size=10, max_epochs=10, idle_epochs_to_stop=3,
                       optimizer=OptimizerSpec(kind="adamw", lr=1e-3))
    best, record = tune(model, train, valid, cfg, VOCAB)
    _, best_errors = validate_samples(best, valid, VOCAB)
    assert best_errors <= record.initial_errors


def test_same_seed_gives_bit_identical_runs():
    train = topic_triplets(30)
    valid = topic_triplets(10, seed=1)
    cfg = small_config(max_epochs=2, idle_epochs_to_stop=2)
    runs = []
    for _ in range(2):
        model = DualEncoder.twin_init(CFG, T.Rng(0))
        best, record = tune(model, train, valid, cfg, VOCAB)
        runs.append((best, record))
    assert trees_equal(runs[0][0].query_params, runs[1][0].query_params)
    assert runs[0][1] == runs[1][1]


def test_a_literal_pad_word_tunes_and_evaluates_like_an_unknown_word():
    assert VOCAB.encode("<pad> w001") == VOCAB.encode("<unk> w001") == [encoder.UNK_ID, 3]

    def holding(word, samples):
        return [TripletSample(f"{word} {s.query}", [f"{s.positives[0]} {word}"], s.negatives)
                for s in samples]

    runs = []
    for word in ("<pad>", "<unk>"):
        train, valid = holding(word, topic_triplets(20)), holding(word, topic_triplets(8, 1))
        model = DualEncoder.twin_init(CFG, T.Rng(0))
        best, record = tune(model, train, valid, small_config(max_epochs=2), VOCAB)
        runs.append((best, record, evaluate_triplets(best, valid, VOCAB)))
    (a, ra, ea), (b, rb, eb) = runs
    assert trees_equal(a.query_params, b.query_params) and ra == rb
    assert ea == eb


def test_acceptance_requires_both_loss_and_errors_to_drop():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train = topic_triplets(20)
    valid = topic_triplets(8, seed=1)
    # loss keeps dropping, error count never does -> nothing is accepted
    seq = iter([(1.0, 5), (0.9, 5), (0.8, 5), (0.7, 6), (0.6, 5)])
    cfg = small_config(idle_epochs_to_stop=4)
    best, record = tune(model, train, valid, cfg, VOCAB,
                        validate_fn=lambda m: next(seq))
    assert all(not e.accepted for e in record.epochs)
    assert record.best_epoch == 0
    assert trees_equal(best.query_params, model.query_params)


def test_best_checkpoint_is_from_last_accepted_epoch():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train = topic_triplets(20)
    valid = topic_triplets(8, seed=1)
    # epoch 2 improves on both axes, later epochs never do
    seq = iter([(1.0, 10), (1.1, 12), (0.5, 4), (0.6, 4), (0.4, 5), (0.7, 9)])
    cfg = small_config(idle_epochs_to_stop=3)
    best, record = tune(model, train, valid, cfg, VOCAB,
                        validate_fn=lambda m: next(seq))
    assert record.best_epoch == 2
    assert [e.accepted for e in record.epochs] == [False, True, False, False, False]
    assert record.stop_reason.startswith("3 consecutive idle")
    # the checkpoint differs from the initial model (training did act)
    assert not trees_equal(best.query_params, model.query_params)


def test_run_aborts_on_empty_inputs():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    with pytest.raises(TuningError):
        tune(model, [], topic_triplets(5), small_config(), VOCAB)
    with pytest.raises(TuningError):
        tune(model, topic_triplets(5), [], small_config(), VOCAB)


def test_both_tuned_mode_changes_the_text_encoder():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train = topic_triplets(40, seed=4)
    valid = topic_triplets(12, seed=5)
    cfg = small_config(mode="both-tuned", max_epochs=2, idle_epochs_to_stop=2,
                       optimizer=OptimizerSpec(kind="sgd", lr=1e-2))
    # force acceptance of the first epoch so the tuned tree is returned
    seq = iter([(1.0, 10), (0.5, 5), (0.6, 6), (0.7, 7)])
    best, _ = tune(model, train, valid, cfg, VOCAB, validate_fn=lambda m: next(seq))
    assert not trees_equal(best.text_params, model.text_params)


def assert_frozen_kept_rest_moved(before, after, frozen, moved):
    """Names under the `frozen` prefixes are bit-identical; some name under
    the `moved` prefix changed."""
    for name in before:
        if name.startswith(frozen):
            assert np.array_equal(after[name], before[name]), name
    assert any(not np.array_equal(after[n], before[n]) for n in before if n.startswith(moved))


def _accepted_once(model, cfg):
    # force acceptance of the first epoch so the tuned tree is returned
    seq = iter([(1.0, 10), (0.5, 5), (0.6, 6)])
    best, record = tune(model, topic_triplets(40, seed=4), topic_triplets(12, seed=5), cfg,
                        VOCAB, validate_fn=lambda m: next(seq))
    assert record.best_epoch == 1
    return best


def test_both_tuned_partial_freeze_keeps_the_frozen_text_prefix():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    cfg = small_config(mode="both-tuned", freeze="emb, B0", max_epochs=2,
                       idle_epochs_to_stop=2, optimizer=OptimizerSpec(kind="sgd", lr=1e-2))
    best = _accepted_once(model, cfg)
    for side in ("text_params", "query_params"):
        assert_frozen_kept_rest_moved(getattr(model, side), getattr(best, side),
                                      ("embeddings.", "encoder.layer.0."), "encoder.layer.1.")


def test_query_only_block_prefix_freeze_keeps_the_frozen_query_blocks():
    config = EncoderConfig(vocab_size=32, hidden=16, n_blocks=3, n_heads=2,
                           intermediate=32, max_positions=16)
    model = DualEncoder.twin_init(config, T.Rng(0))
    cfg = small_config(freeze="emb, B0-1", max_epochs=2, idle_epochs_to_stop=2,
                       optimizer=OptimizerSpec(kind="sgd", lr=1e-2))
    best = _accepted_once(model, cfg)
    assert_frozen_kept_rest_moved(model.query_params, best.query_params,
                                  ("embeddings.", "encoder.layer.0.", "encoder.layer.1."),
                                  "encoder.layer.2.")
    assert trees_equal(best.text_params, model.text_params)


# --- steps on two threads ---------------------------------------------------------

CFG3 = EncoderConfig(vocab_size=32, hidden=16, n_blocks=3, n_heads=2,
                     intermediate=32, max_positions=16)


def _both_tuned(**kw):
    cfg = small_config(mode="both-tuned", max_epochs=2, idle_epochs_to_stop=2,
                       optimizer=OptimizerSpec(kind="adamw", lr=1e-2), **kw)
    model = DualEncoder.twin_init(CFG3, T.Rng(0), mode="both-tuned")
    return model, lambda: tune(model, topic_triplets(40, seed=4), topic_triplets(12, seed=5),
                               cfg, VOCAB)


def _validated(monkeypatch):
    """Copies of the models that `tune` validates from now on, in order."""
    real, seen = tuning.validate, []
    monkeypatch.setattr(tuning, "validate", lambda m, *a: seen.append(m.copy()) or real(m, *a))
    return seen


@pytest.mark.parametrize("kw", [dict(freeze="-"), dict(freeze="emb, B0-1"),
                                dict(scheduler=SchedulerSpec("L", total_steps=6))],
                         ids=["-", "emb, B0-1", "L"])
def test_both_tuned_steps_on_two_threads_give_the_serial_bits(monkeypatch, kw):
    model, run = _both_tuned(**kw)
    validated = _validated(monkeypatch)
    monkeypatch.setattr(encoder, "_workers", lambda: 1)
    serial = run()
    # the first step's two forwards must meet, so each tower runs on its own thread
    real, meet, threads = tuning.encode_batch, threading.Barrier(2, timeout=10), []

    def forward(*args, **kwargs):
        threads.append(threading.current_thread())
        if len(threads) <= 2:
            meet.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    monkeypatch.setattr(tuning, "encode_batch", forward)
    threaded = run()
    assert len(set(threads[:2])) == 2 and len(threads) == 2 * threaded[1].total_steps
    assert threaded[1] == serial[1] and len(validated) == 2 * 3
    for side in ("query_params", "text_params"):
        assert trees_equal(getattr(threaded[0], side), getattr(serial[0], side))
        for a, b in zip(validated[:3], validated[3:], strict=True):
            assert trees_equal(getattr(a, side), getattr(b, side))
        assert not trees_equal(getattr(validated[-1], side), getattr(model, side))


def test_both_tuned_steps_keep_their_bits_under_frequent_thread_switches(monkeypatch):
    _, run = _both_tuned(freeze="-")
    validated = _validated(monkeypatch)
    monkeypatch.setattr(encoder, "_workers", lambda: 1)
    want, serial = run()[1], list(validated)
    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            validated.clear()
            assert run()[1] == want
            for a, b in zip(validated, serial, strict=True):
                assert trees_equal(a.query_params, b.query_params)
                assert trees_equal(a.text_params, b.text_params)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("poisoned", [("query",), ("text",), ("query", "text")])
def test_a_non_finite_gradient_in_either_tower_raises_the_serial_message(monkeypatch,
                                                                        poisoned):
    made = []

    class Poisoning(Optimizer):
        def __init__(self, spec):
            super().__init__(spec)
            self.side = ("query", "text")[len(made) % 2]    # tune makes the query's first
            made.append(self)

        def step(self, params, grads, lr=None):
            super().step(params, {k: g * np.nan if self.side in poisoned else g
                                  for k, g in grads.items()}, lr)

    monkeypatch.setattr(tuning, "Optimizer", Poisoning)
    model, run = _both_tuned(freeze="-")
    first = next(iter(model.query_params))
    for workers in (1, 2):
        monkeypatch.setattr(encoder, "_workers", lambda: workers)
        with pytest.raises(OptimError) as err:
            run()
        assert str(err.value) == f"{poisoned[0]} tower: non-finite gradient for {first}"


def test_a_query_only_step_starts_no_thread(monkeypatch):
    real, sizes = tuning._run_chunks, []
    monkeypatch.setattr(encoder, "_workers", lambda: 2)
    monkeypatch.setattr(tuning, "_run_chunks", lambda tasks: sizes.append(len(tasks))
                        or real(tasks))
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    _, record = tune(model, topic_triplets(20), topic_triplets(8, seed=1),
                     small_config(max_epochs=2, idle_epochs_to_stop=2), VOCAB)
    assert record.total_steps == 6 and sizes == [1] * 2 * record.total_steps

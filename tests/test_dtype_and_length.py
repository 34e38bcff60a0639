"""Boundary contracts: activations and gradients keep the parameter dtype,
and text longer than the model's position table is truncated to fit."""

import numpy as np
import pytest

from duotune import tensor as T
from duotune.tensor import slice_rows
from duotune.data import TripletSample
from duotune.encoder import (DualEncoder, EncoderConfig, Vocab, encode_batch,
                             init_params, pad_batch, wrap_params)
from duotune.grid import PairCorpus, grid_eval
from duotune.lab import evaluate_triplets
from duotune.optim import LossSpec, OptimizerSpec, triplet_margin_loss
from duotune.tuning import TuneConfig, tune

CFG = EncoderConfig(vocab_size=32, hidden=16, n_blocks=2, n_heads=2,
                    intermediate=32, max_positions=16)
VOCAB = Vocab([f"w{i:03d}" for i in range(30)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_and_gradients_keep_the_parameter_dtype(dtype):
    tree = init_params(CFG, T.Rng(0), dtype=dtype)
    tape = T.Tape()
    leaves = wrap_params(tape, tree, trainable=tree)
    ids = pad_batch([[3, 4, 5], [6, 7], [8, 9, 10, 11], [12], [2, 13, 14], [15, 16]])
    out = encode_batch(leaves, ids, CFG)
    assert out.dtype == dtype
    loss = triplet_margin_loss(slice_rows(out, 0, 2), slice_rows(out, 2, 4), slice_rows(out, 4, 6),
                               LossSpec(margin=0.5))
    assert loss.dtype == dtype
    assert all(node.dtype == dtype for node in tape.nodes)
    tape.backward(loss)
    for name, leaf in leaves.items():
        assert leaf.grad is not None, name
        assert leaf.grad.dtype == dtype, name


def words(idx):
    return " ".join(f"w{i % 30:03d}" for i in idx)


def long_samples(n, length=20, seed=0):
    rng = np.random.default_rng(seed)
    return [TripletSample(words(rng.integers(0, 30, length)),
                          [words(rng.integers(0, 30, length))],
                          [words(rng.integers(0, 30, length))]) for _ in range(n)]


def truncated(samples, n=16):
    cut = lambda t: " ".join(t.split()[:n])
    return [TripletSample(cut(s.query), [cut(p) for p in s.positives],
                          [cut(x) for x in s.negatives]) for s in samples]


def long_pair_corpus(length=20):
    records = []
    for k, lbl in enumerate(("entailment", "neutral", "contradiction")):
        for i in range(2):
            for lang in ("l0", "l1"):
                base = 7 * k + 3 * i + (lang == "l1")
                records.append({"pair_id": f"{lbl}{i}", "label": lbl, "language": lang,
                                "sentence1": words(range(base, base + length)),
                                "sentence2": words(range(base + 1, base + 1 + length))})
    return PairCorpus.from_records(records)


def test_text_longer_than_max_positions_is_truncated_to_fit():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train, valid = long_samples(12), long_samples(6, seed=1)
    cfg = TuneConfig(batch_size=4, epoch_size=2, max_epochs=2, idle_epochs_to_stop=2,
                     optimizer=OptimizerSpec(kind="adamw", lr=1e-3))
    tuned, record = tune(model, train, valid, cfg, VOCAB)
    again, again_record = tune(model, truncated(train), truncated(valid), cfg, VOCAB)
    assert record == again_record

    reports = evaluate_triplets(tuned, valid, VOCAB)
    reference = evaluate_triplets(tuned, truncated(valid), VOCAB)
    for m, rep in reports.items():
        assert (rep.errors, rep.total) == (reference[m].errors, reference[m].total)

    report = grid_eval(tuned, long_pair_corpus(), "cosine", VOCAB)
    reference = grid_eval(tuned, long_pair_corpus(length=16), "cosine", VOCAB)
    for c, cells in report.errors.items():
        assert np.array_equal(cells, reference.errors[c])

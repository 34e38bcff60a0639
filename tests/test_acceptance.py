"""Acceptance suite: one test per release criterion, in order.

Each test is self-contained and pins its own tolerances; `pytest -v` gives a
single pass/fail line per criterion.
"""

import json
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from duotune import tensor as T
from duotune.tensor import slice_rows
from duotune.cli import main as cli_main
from duotune.data import (ArxivRecord, SynthCorpusSpec, TripletSample,
                          expand_eval, gen_synth_corpus, js_distance,
                          mine_arxiv_negatives, split_msmarco, token_histogram,
                          read_triplets)
from duotune.encoder import (DualEncoder, EncoderConfig, Vocab, encode,
                             encode_batch, init_params, param_shapes,
                             similarity, trees_equal, wrap_params)
from duotune.grid import CONTRAST_LABELS, PairCorpus, PairGridReport, grid_compare, grid_eval
from duotune.lab import evaluate_triplets
from duotune.metrics import QueryJudgments, pnd, z_test
from duotune.optim import (LossSpec, Optimizer, OptimizerSpec, SchedulerSpec,
                           scale_lr, scheduler_value, triplet_margin_loss)
from duotune.tuning import TuneConfig, tune, validate_samples


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# --- 1: gradient fidelity ---------------------------------------------------------

def test_c01_autodiff_matches_finite_differences_on_full_encoder_loss():
    config = EncoderConfig(vocab_size=32, hidden=16, n_blocks=2, n_heads=2,
                           intermediate=32, max_positions=16)
    # a well-scaled random parameter point: unit LayerNorm weights, zero
    # biases, N(0, 0.3^2) everywhere else, so activations keep O(1) variance
    # and the finite-difference quotient stays well conditioned
    rng = T.Rng(1)
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("LayerNorm.weight"):
            params[name] = np.ones(shape, dtype=np.float64)
        elif name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            params[name] = rng.normal(shape, sigma=0.3, dtype=np.float64)

    ids = np.array([[3, 4, 5, 6], [3, 4, 7, 6], [9, 10, 11, 12]])
    spec = LossSpec(margin=1.0)

    def f(leaves):
        out = encode_batch(leaves, ids, config)
        return triplet_margin_loss(slice_rows(out, 0, 1), slice_rows(out, 1, 2),
                                   slice_rows(out, 2, 3), spec)

    start = time.time()
    err, worst = T.grad_check(f, params, eps=1e-3)
    elapsed = time.time() - start
    assert err < 1e-4, f"max relative error {err:.3g} at {worst}"
    assert elapsed < 60.0


# --- 2: PND oracle ---------------------------------------------------------------

def test_c02_pnd_equals_brute_force_double_loop_for_both_measures():
    rng = np.random.default_rng(42)
    judgments = []
    for _ in range(100):
        n = int(rng.integers(2, 11))
        labels = np.zeros(n, dtype=bool)
        labels[rng.integers(0, n)] = True
        labels |= rng.integers(0, 2, size=n).astype(bool)
        if labels.all():
            labels[0] = False
        cands = np.stack([random_unit(rng, 6) for _ in range(n)])
        judgments.append(QueryJudgments(random_unit(rng, 6), cands, labels))

    for measure in ("cosine", "euclidean"):
        errors = total = 0
        fractions = []
        for q in judgments:
            e = n = 0
            for i in range(len(q.candidates)):
                if not q.is_positive[i]:
                    continue
                sp = similarity(q.query, q.candidates[i], measure)
                for j in range(len(q.candidates)):
                    if q.is_positive[j]:
                        continue
                    n += 1
                    if sp <= similarity(q.query, q.candidates[j], measure):
                        e += 1
            errors += e
            total += n
            fractions.append(e / n)
        rep = pnd(judgments, measure)
        assert rep.errors == errors
        assert rep.total == total
        assert rep.pnd == pytest.approx(float(np.mean(fractions)), abs=1e-12)


# --- 3: Z-test --------------------------------------------------------------------

def test_c03_z_test_matches_independent_oracle_and_uses_1_96_gate():
    def oracle(n0, n1, total, variant):
        p0, p1 = n0 / total, n1 / total
        P = (n0 + n1) / (2 * total)
        if P <= 0 or P >= 1:
            return None
        if variant == "paper":
            return (p1 - p0) / math.sqrt(0.5 * P * (1 - P) * total)
        return (p1 - p0) / math.sqrt(2 * P * (1 - P) / total)

    rng = np.random.default_rng(7)
    for variant in ("paper", "textbook"):
        for _ in range(1000):
            total = int(rng.integers(1, 100000))
            n0 = int(rng.integers(0, total + 1))
            n1 = int(rng.integers(0, total + 1))
            got = z_test(n0, n1, total, variant=variant)
            expect = oracle(n0, n1, total, variant)
            if expect is None:
                assert got.z is None
            else:
                assert got.z == pytest.approx(expect, abs=1e-12, rel=1e-12)

    assert z_test(37, 37, 500).z == 0.0
    a, b = z_test(60, 40, 1000), z_test(40, 60, 1000)
    assert a.z == pytest.approx(-b.z, rel=1e-15)
    r = z_test(300, 200, 1000, variant="textbook")
    assert r.z_critical == 1.96
    assert r.significant == (abs(r.z) > 1.96) and r.significant
    r = z_test(210, 200, 1000, variant="textbook")
    assert not r.significant


# --- 4: freeze contract -----------------------------------------------------------

def test_c04_frozen_tensors_stay_bit_identical_over_100_optimizer_steps():
    from duotune.freeze import parse_freeze_spec, trainable_names

    config = EncoderConfig(vocab_size=32, hidden=16, n_blocks=4, n_heads=2,
                           intermediate=32, max_positions=16)
    names = list(param_shapes(config))

    def run(freeze_text):
        params = init_params(config, T.Rng(0))
        initial = {k: v.copy() for k, v in params.items()}
        trainable = trainable_names(parse_freeze_spec(freeze_text), names)
        opt = Optimizer(OptimizerSpec(kind="adamw", lr=1e-3))
        grng = np.random.default_rng(5)
        for _ in range(100):
            grads = {n: grng.standard_normal(params[n].shape) for n in trainable}
            opt.step({n: params[n] for n in trainable}, grads)
        changed = {n for n in names if not np.array_equal(params[n], initial[n])}
        return set(trainable), changed

    trainable, changed = run("emb")
    assert not any(n.startswith("embeddings.") for n in changed)
    assert changed == trainable

    trainable, changed = run("emb, B0-2")
    assert changed == {n for n in names if n.startswith("encoder.layer.3.")}
    assert changed == trainable

    trainable, changed = run("suffix:output.dense.weight")
    for i in range(4):
        assert f"encoder.layer.{i}.output.dense.weight" not in changed
    assert changed == trainable


# --- 5: LR scaling rules ----------------------------------------------------------

def test_c05_scale_lr_reproduces_reference_columns():
    base = (14, 5e-8)
    for batch, expect in ((7, 3.54e-8), (28, 7.07e-8), (56, 1.00e-7), (112, 1.41e-7)):
        got = scale_lr(*base, batch, "sqrt")
        assert float(f"{got:.3g}") == expect, (batch, got)
    for batch, expect in ((28, 1.0e-7), (56, 2.0e-7), (112, 4.0e-7)):
        assert scale_lr(*base, batch, "linear") == pytest.approx(expect, rel=1e-12)


# --- 6: schedulers ----------------------------------------------------------------

def test_c06_schedulers_match_closed_forms_and_never_increase():
    lr0, total = 1e-7, 40
    closed = {
        "L": lambda t: lr0 * (1 - t / total),
        "Q": lambda t: lr0 * (1 - (t / total) ** 2),
    }
    for kind, form in closed.items():
        spec = SchedulerSpec(kind, lr0=lr0, total_steps=total)
        for t in (0, 1, 10, total):
            assert scheduler_value(spec, t) == pytest.approx(form(t), rel=1e-12,
                                                             abs=1e-24)
        values = [scheduler_value(spec, t) for t in range(total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
    for gamma in (0.95, 0.98):
        spec = SchedulerSpec("E", lr0=lr0, gamma=gamma)
        for t in (0, 1, 10, total):
            assert scheduler_value(spec, t) == pytest.approx(lr0 * gamma ** t,
                                                             rel=1e-12)
        values = [scheduler_value(spec, t) for t in range(total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


# --- 7: split arithmetic ----------------------------------------------------------

def test_c07_reference_split_sizes_and_eval_expansion():
    shared = TripletSample("q", ["p"], ["n"])
    train, valid, evals = split_msmarco([shared] * 499184)
    assert (len(train), len(valid), len(evals)) == (487983, 4200, 7000)

    sample = TripletSample("q", ["p1", "p2"], ["n1", "n2", "n3"])
    assert len(expand_eval([sample])) == 6

    real = os.environ.get("MSMARCO_TRIPLES")
    if not real or not Path(real).exists():
        return  # conditional check: requires the real corpus file
    samples = read_triplets(real)
    _, _, evals = split_msmarco(samples)
    assert len(expand_eval(evals)) == 357642


# --- 8: miner oracle --------------------------------------------------------------

def test_c08_miner_matches_brute_force_sort_on_50_record_corpus():
    rng = np.random.default_rng(4)
    cats = ["m.a", "m.b", "m.c", "m.d"]
    words = [f"tok{i}" for i in range(40)]
    records = []
    for i in range(50):
        chosen = list(rng.choice(cats, size=int(rng.integers(1, 4)), replace=False))
        records.append(ArxivRecord(f"id{i:03d}", f"title {i}",
                                   " ".join(rng.choice(words, size=12)), chosen))

    entries, stats = mine_arxiv_negatives(records, seed=7)
    again, _ = mine_arxiv_negatives(records, seed=7)
    assert [e.to_json() for e in entries] == [e.to_json() for e in again]
    assert stats.kept_records == 50

    census = Counter(c for r in records for c in r.categories)
    hists = {r.id: token_histogram(r.abstract) for r in records}
    sorted_cats = {r.id: sorted(r.categories, key=lambda c: (census[c], c))
                   for r in records}

    def prefix_len(a, b):
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        return n

    for e in entries:
        mine = sorted_cats[e.record.id]
        best, cands = 0, []
        for other in records:
            if other.id == e.record.id:
                continue
            L = prefix_len(mine, sorted_cats[other.id])
            if L > best:
                best, cands = L, [other.id]
            elif L == best and L > 0:
                cands.append(other.id)
        ranked = sorted(cands, key=lambda cid: (js_distance(hists[e.record.id],
                                                            hists[cid]), cid))
        expect = ranked[:20]
        while len(expect) < 20:
            expect.append(expect[-1])
        assert e.neighbor_ids[:20] == expect, e.record.id
        dists = [js_distance(hists[e.record.id], hists[c])
                 for c in e.neighbor_ids[:20]]
        assert all(a <= b for a, b in zip(dists, dists[1:]))
        assert e.neighbor_ids[20] != e.record.id


# --- 9: grid eval -----------------------------------------------------------------

def test_c09_grid_cells_match_cross_product_counts_and_hand_tallies():
    spec = SynthCorpusSpec(n_languages=3, vocab_size=36, n_topics=4,
                           n_pretrain=2, n_tune=2, n_heldout=2,
                           n_pairs_per_label=5, seed=0)
    corpus = gen_synth_corpus(spec)
    pairs = PairCorpus.from_records(corpus.pair_records)
    vocab = Vocab(corpus.vocab_tokens)
    config = EncoderConfig(vocab_size=len(vocab), hidden=16, n_blocks=2,
                           n_heads=2, intermediate=32, max_positions=16)
    model = DualEncoder.twin_init(config, T.Rng(1))
    report = grid_eval(model, pairs, "cosine", vocab)

    def emb(text, side):
        params = model.query_params if side == "q" else model.text_params
        return encode(params, vocab.encode(text, 16), config)

    for qi, lq in enumerate(pairs.languages):
        for ti, lt in enumerate(pairs.languages):
            ent = [similarity(emb(p[lq][0], "q"), emb(p[lt][1], "t"), "cosine")
                   for p in pairs.pairs["entailment"]]
            for contrast in CONTRAST_LABELS:
                other = [similarity(emb(p[lq][0], "q"), emb(p[lt][1], "t"), "cosine")
                         for p in pairs.pairs[contrast]]
                count = sum(1 for e in ent for x in other if e <= x)
                assert report.errors[contrast][qi, ti] == count, (lq, lt, contrast)

    # hand-derived verdicts on constructed counts: halving 4000/10000 errors
    # is significant in every cell, a flat grid is significant nowhere
    langs = ["l0", "l1"]
    full = {c: np.full((2, 2), 4000, dtype=np.int64) for c in CONTRAST_LABELS}
    half = {c: np.full((2, 2), 2000, dtype=np.int64) for c in CONTRAST_LABELS}
    before = PairGridReport(langs, "cosine", 100, full)
    after = PairGridReport(langs, "cosine", 100, half)
    cmp_ = grid_compare(before, after, variant="textbook")
    for c in CONTRAST_LABELS:
        assert cmp_.improved[c] == 4 and cmp_.worsened[c] == 0
    cmp_ = grid_compare(before, before, variant="textbook")
    for c in CONTRAST_LABELS:
        assert cmp_.not_significant[c] == 4


# --- 10: the adiabatic phenomenon at desk scale -------------------------------------

def test_c10_low_lr_query_tuning_preserves_other_languages_high_lr_does_not():
    start = time.time()
    spec = SynthCorpusSpec(n_languages=4, vocab_size=64, n_topics=8,
                           sentence_len=8, n_pretrain=60, n_tune=150,
                           n_heldout=60, n_pairs_per_label=10, seed=7)
    corpus = gen_synth_corpus(spec)
    vocab = Vocab(corpus.vocab_tokens)
    config = EncoderConfig(vocab_size=len(vocab), hidden=32, n_blocks=4,
                           n_heads=4, intermediate=64, max_positions=16)
    model = DualEncoder.twin_init(config, T.Rng(0), mode="both-tuned")

    pre_cfg = TuneConfig(batch_size=16, epoch_policy="batches", epoch_size=14,
                         idle_epochs_to_stop=6, max_epochs=40, freeze="-",
                         optimizer=OptimizerSpec(kind="adamw", lr=2e-3),
                         loss=LossSpec(margin=0.2), seed=0, mode="both-tuned")
    pretrained, _ = tune(model, corpus.pretrain[24:], corpus.pretrain[:24],
                         pre_cfg, vocab)
    for k in range(4):
        rep = evaluate_triplets(pretrained, corpus.heldout[k], vocab, ("cosine",))
        assert rep["cosine"].pnd < 0.25, f"pretraining left lang{k} at {rep['cosine'].pnd}"

    pairs = PairCorpus.from_records(corpus.pair_records)
    base_grid = grid_eval(pretrained, pairs, "cosine", vocab)
    base_pnd = {k: evaluate_triplets(pretrained, corpus.heldout[k], vocab,
                                     ("cosine",))["cosine"].pnd for k in (1, 2, 3)}

    def query_tune(lr):
        cfg = TuneConfig(batch_size=14, epoch_policy="batches", epoch_size=8,
                         idle_epochs_to_stop=4, max_epochs=30, freeze="emb",
                         optimizer=OptimizerSpec(kind="adamw", lr=lr),
                         loss=LossSpec(margin=0.2), seed=1, mode="query-only")
        tuned, record = tune(pretrained, corpus.tune_lang0, corpus.heldout[0],
                             cfg, vocab)
        accepted = [e for e in record.epochs if e.accepted]
        final_errors = accepted[-1].val_errors if accepted else record.initial_errors
        err_drop = (record.initial_errors - final_errors) / record.initial_errors
        worsened = sum(grid_compare(base_grid,
                                    grid_eval(tuned, pairs, "cosine", vocab),
                                    variant="textbook").worsened[c]
                       for c in CONTRAST_LABELS)
        return tuned, err_drop, worsened

    low_lr, high_lr = 2e-4, 1e-2
    assert high_lr >= 50 * low_lr

    tuned_low, err_drop, low_worsened = query_tune(low_lr)
    assert err_drop >= 0.02
    improvements = []
    for k in (1, 2, 3):
        after = evaluate_triplets(tuned_low, corpus.heldout[k], vocab,
                                  ("cosine",))["cosine"].pnd
        improvements.append(-(after - base_pnd[k]) / base_pnd[k])
    assert float(np.mean(improvements)) >= 0.0

    _, _, high_worsened = query_tune(high_lr)
    assert high_worsened > low_worsened
    assert time.time() - start < 600.0


# --- 11: stopping rule ------------------------------------------------------------

def test_c11_idle_stopping_and_both_must_decrease_acceptance():
    config = EncoderConfig(vocab_size=32, hidden=16, n_blocks=2, n_heads=2,
                           intermediate=32, max_positions=16)
    vocab = Vocab([f"w{i:03d}" for i in range(30)])
    rng = np.random.default_rng(0)

    def words(idx):
        return " ".join(f"w{i:03d}" for i in idx)

    triplets = [TripletSample(words(rng.integers(0, 15, size=4)),
                              [words(rng.integers(0, 15, size=4))],
                              [words(rng.integers(15, 30, size=4))])
                for _ in range(20)]
    model = DualEncoder.twin_init(config, T.Rng(0))
    cfg = TuneConfig(batch_size=4, epoch_policy="batches", epoch_size=2,
                     idle_epochs_to_stop=3, max_epochs=50, freeze="emb",
                     optimizer=OptimizerSpec(kind="adamw", lr=0.0), seed=0)
    best, record = tune(model, triplets[:12], triplets[12:], cfg, vocab)
    assert len(record.epochs) == 3
    assert sum(e.accepted for e in record.epochs) == 0
    assert record.best_epoch == 0
    assert trees_equal(best.query_params, model.query_params)

    # loss keeps decreasing while the error count never does
    seq = iter([(1.0, 5), (0.9, 5), (0.8, 5), (0.7, 5), (0.6, 5)])
    cfg = TuneConfig(batch_size=4, epoch_policy="batches", epoch_size=2,
                     idle_epochs_to_stop=4, max_epochs=50, freeze="emb",
                     optimizer=OptimizerSpec(kind="adamw", lr=1e-3), seed=0)
    best, record = tune(model, triplets[:12], triplets[12:], cfg, vocab,
                        validate_fn=lambda m: next(seq))
    assert sum(e.accepted for e in record.epochs) == 0
    assert trees_equal(best.query_params, model.query_params)


# --- 12: reproducibility ----------------------------------------------------------

def test_c12_replaying_a_manifest_reproduces_outputs_byte_for_byte(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli_main(["gen-synth", "--out", str(corpus), "--seed", "3",
                     "--languages", "2", "--vocab-size", "48", "--topics", "4",
                     "--pretrain", "8", "--tune", "24", "--heldout", "8",
                     "--pairs-per-label", "3"]) == 0
    model = tmp_path / "model.ckpt"
    assert cli_main(["init-model", "--vocab", str(corpus / "vocab.txt"),
                     "--out", str(model), "--seed", "1", "--hidden", "16",
                     "--blocks", "2", "--heads", "2"]) == 0
    first = tmp_path / "first"
    assert cli_main(["tune", "--model", str(model),
                     "--train", str(corpus / "tune_lang0.jsonl"),
                     "--valid", str(corpus / "heldout_lang0.jsonl"),
                     "--vocab", str(corpus / "vocab.txt"), "--out", str(first),
                     "--lr", "1e-3", "--batch-size", "4", "--epoch-size", "2",
                     "--idle-epochs", "2", "--max-epochs", "3", "--seed", "0"]) == 0
    again = tmp_path / "again"
    assert cli_main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
    for name in ("model.ckpt", "run.json", "manifest.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name

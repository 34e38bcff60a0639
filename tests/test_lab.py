"""Orchestration layer: layer-change diagnostics, sweeps, and emission."""

import csv
import dataclasses
import io

import numpy as np
import pytest

from duotune import lab
from duotune import tensor as T
from duotune.data import TripletSample
from duotune.encoder import (DualEncoder, EncoderConfig, Vocab, copy_tree, encode_many,
                             init_params)
from duotune.freeze import FreezeSpecError
from duotune.grid import PairCorpus, PairGridReport
from duotune.lab import (LabError, SweepSpec, apply_axis_value, diagnose_layers,
                         eval_csv, evaluate_triplets, file_digest,
                         grid_matrix_csv, judgments_from_triplets, manifest_json,
                         plot_data, run_sweep, sweep_csv, SWEEP_CSV_HEADER)
from duotune.optim import OptimizerSpec, SchedulerSpec
from duotune.tuning import TuneConfig
from tests.test_tuning import CFG, VOCAB, topic_triplets, words


# --- diagnostics ----------------------------------------------------------------

def test_diagnose_no_changes():
    tree = init_params(CFG, T.Rng(0))
    report = diagnose_layers(tree, copy_tree(tree))
    assert all(not l.changed for l in report.layers)
    assert all(l.max_abs_after is None for l in report.layers)
    assert report.by_max_abs == []


def test_diagnose_single_perturbed_layer_tops_both_rankings():
    before = init_params(CFG, T.Rng(0))
    after = copy_tree(before)
    name = "encoder.layer.1.output.dense.weight"
    after[name] = after[name] + 1.0
    report = diagnose_layers(before, after)
    assert report.by_max_abs == [name]
    assert report.by_relative_shift[0] == name
    assert report.top(1, "relative_shift") == [name]


def test_diagnose_relative_shift_is_antisymmetric():
    before = init_params(CFG, T.Rng(1))
    after = copy_tree(before)
    for name in after:
        after[name] = after[name] * 1.25
    fwd = {l.name: l.relative_shift for l in diagnose_layers(before, after).layers}
    rev = {l.name: l.relative_shift for l in diagnose_layers(after, before).layers}
    for name in fwd:
        if fwd[name] is None:
            assert rev[name] is None
        else:
            assert fwd[name] == pytest.approx(-rev[name], abs=1e-12)


def test_diagnose_rejects_mismatched_trees():
    tree = init_params(CFG, T.Rng(0))
    smaller = {k: v for k, v in tree.items() if not k.startswith("embeddings.")}
    with pytest.raises(LabError):
        diagnose_layers(tree, smaller)


def test_diagnose_metric_values():
    before = {"w": np.array([0.5, -2.0])}
    after = {"w": np.array([0.5, -3.0])}
    layer = diagnose_layers(before, after).layers[0]
    assert layer.w_before == 2.0 and layer.w_after == 3.0
    assert layer.changed and layer.max_abs_after == 3.0
    assert layer.relative_shift == pytest.approx((3.0 - 2.0) / (3.0 + 2.0))


# --- sweep -------------------------------------------------------------------------

def base_cfg(**kw):
    d = dict(batch_size=4, epoch_policy="batches", epoch_size=2,
             idle_epochs_to_stop=2, max_epochs=3, freeze="emb",
             optimizer=OptimizerSpec(kind="adamw", lr=1e-3), seed=0)
    d.update(kw)
    return TuneConfig(**d)


def test_apply_axis_value_covers_every_axis():
    cfg = base_cfg()
    assert apply_axis_value(cfg, "learning_rate", 1e-5).optimizer.lr == 1e-5
    assert apply_axis_value(cfg, "batch_size", 7).batch_size == 7
    assert apply_axis_value(cfg, "margin", 0.3).loss.margin == 0.3
    assert apply_axis_value(cfg, "freeze", "-").freeze == "-"
    sched = SchedulerSpec("E", lr0=1e-3)
    assert apply_axis_value(cfg, "scheduler", sched).scheduler == sched
    opt = OptimizerSpec(kind="sgd", lr=1e-3)
    assert apply_axis_value(cfg, "optimizer", opt).optimizer == opt
    assert apply_axis_value(cfg, "weight_decay", 0.1).optimizer.weight_decay == 0.1
    assert apply_axis_value(cfg, "stopping", 5).idle_epochs_to_stop == 5
    with pytest.raises(LabError):
        apply_axis_value(cfg, "unknown", 1)


def test_sweep_spec_validation():
    with pytest.raises(LabError):
        SweepSpec(axis="nope", values=[1], base=base_cfg(), eval_sets={})
    with pytest.raises(LabError):
        SweepSpec(axis="learning_rate", values=[], base=base_cfg(), eval_sets={})


def sweep_fixture(values, **base_kw):
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    train = topic_triplets(24, seed=1)
    valid = topic_triplets(8, seed=2)
    eval_sets = {"topics": topic_triplets(10, seed=3)}
    spec = SweepSpec(axis="learning_rate", values=values, base=base_cfg(**base_kw),
                     eval_sets=eval_sets, ztest_variant="textbook")
    return model, train, valid, spec


def test_sweep_rejects_a_bad_freeze_value_before_any_point_is_tuned(monkeypatch):
    model, train, valid, spec = sweep_fixture(["emb", "B9"])
    spec = dataclasses.replace(spec, axis="freeze")
    calls = []
    monkeypatch.setattr(lab, "tune", lambda *a: calls.append("tune"))
    monkeypatch.setattr(lab, "evaluate_triplets", lambda *a: calls.append("evaluate"))
    with pytest.raises(FreezeSpecError, match="B9"):
        run_sweep(model, train, valid, VOCAB, spec)
    assert calls == []


def test_zero_lr_sweep_point_has_zero_improvement():
    model, train, valid, spec = sweep_fixture([0.0])
    report = run_sweep(model, train, valid, VOCAB, spec)
    assert len(report.points) == 1
    for row in report.points[0].rows:
        assert row.improvement_pct == 0.0
        assert row.errors_before == row.errors_after
        assert not row.significant


def test_sweep_has_one_row_per_value_dataset_measure():
    model, train, valid, spec = sweep_fixture([0.0, 1e-3])
    report = run_sweep(model, train, valid, VOCAB, spec)
    assert len(report.points) == 2
    for pt in report.points:
        keys = {(r.dataset, r.measure) for r in pt.rows}
        assert keys == {("topics", "cosine"), ("topics", "euclidean")}


def test_single_value_sweep_equals_a_single_run():
    from duotune.tuning import tune
    model, train, valid, spec = sweep_fixture([1e-3])
    report = run_sweep(model, train, valid, VOCAB, spec)
    cfg = apply_axis_value(spec.base, "learning_rate", 1e-3)
    tuned, record = tune(model, train, valid, cfg, VOCAB)
    after = evaluate_triplets(tuned, spec.eval_sets["topics"], VOCAB)
    row = next(r for r in report.points[0].rows if r.measure == "cosine")
    assert row.pnd_after == pytest.approx(after["cosine"].pnd, abs=1e-12)
    assert report.points[0].record.to_dict() == record.to_dict()


# --- emission ------------------------------------------------------------------------

def test_sweep_csv_layout():
    model, train, valid, spec = sweep_fixture([0.0])
    report = run_sweep(model, train, valid, VOCAB, spec)
    lines = sweep_csv(report).splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + 2  # one value x one dataset x two measures
    assert all(len(l.split(",")) == len(SWEEP_CSV_HEADER.split(",")) for l in lines[1:])
    plot = plot_data(report).splitlines()
    assert plot[0] == "value,dataset,measure,improvement_pct,significant"
    assert len(plot) == 3


def test_grid_matrix_csv_has_a_cell_per_language_pair():
    from duotune.grid import grid_eval
    from tests.test_grid import CFG as GRID_CFG, synth_corpus_and_vocab
    corpus, vocab = synth_corpus_and_vocab(n_languages=3)
    model = DualEncoder.twin_init(GRID_CFG, T.Rng(0))
    report = grid_eval(model, corpus, "cosine", vocab)
    lines = grid_matrix_csv(report, "neutral").splitlines()
    assert len(lines) == 4  # header + 3 language rows
    assert all(len(l.split(",")) == 4 for l in lines)


def test_grid_matrix_csv_quotes_language_names_with_commas():
    errors = {"neutral": np.array([[1, 2], [3, 4]], dtype=np.int64)}
    report = PairGridReport(["en,US", "de"], "cosine", 3, errors)
    rows = list(csv.reader(io.StringIO(grid_matrix_csv(report, "neutral"))))
    assert rows == [["qlang\\tlang", "en,US", "de"], ["en,US", "1", "2"], ["de", "3", "4"]]


def uneven_samples():
    """Positive/negative counts 1/3, 2/1, 3/2, with texts of differing lengths."""
    rng = np.random.default_rng(5)
    text = lambda: words(rng.integers(0, 30, size=int(rng.integers(2, 9))))
    return [TripletSample(text(), [text() for _ in range(p)], [text() for _ in range(n)])
            for p, n in ((1, 3), (2, 1), (3, 2))]


def test_judgments_match_per_sample_encodes():
    model = DualEncoder.twin_init(CFG, T.Rng(3))
    samples = uneven_samples()
    judgments = judgments_from_triplets(model, samples, VOCAB)
    assert len(judgments) == len(samples)
    for s, j in zip(samples, judgments):
        texts = s.positives + s.negatives
        reference = encode_many(model.text_params, [VOCAB.encode(t) for t in texts], CFG)
        assert j.candidates.shape == reference.shape
        assert np.max(np.abs(j.candidates - reference)) <= 1e-6
        assert j.is_positive.tolist() == [True] * len(s.positives) + [False] * len(s.negatives)


def test_judgments_encode_once_per_tower(monkeypatch):
    calls = []

    def counting(params, token_lists, config):
        calls.append(len(token_lists))
        return encode_many(params, token_lists, config)

    monkeypatch.setattr(lab, "encode_many", counting)
    judgments_from_triplets(DualEncoder.twin_init(CFG, T.Rng(3)), uneven_samples(), VOCAB)
    assert calls == [3, 12]


def test_eval_csv_rows():
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    reports = evaluate_triplets(model, topic_triplets(6), VOCAB)
    lines = eval_csv(reports).splitlines()
    assert lines[0].startswith("measure,")
    assert len(lines) == 3


def test_manifest_is_byte_stable(tmp_path):
    a = manifest_json("tune", {"x": 1, "a": [2, 3]}, 7, {"train": "ab"}, ["out.ckpt"])
    b = manifest_json("tune", {"a": [2, 3], "x": 1}, 7, {"train": "ab"}, ["out.ckpt"])
    assert a == b


def test_file_digest_tracks_content(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("hello\n")
    d1 = file_digest(p)
    p.write_text("hello!\n")
    assert file_digest(p) != d1

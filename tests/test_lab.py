"""Orchestration layer: layer-change diagnostics, sweeps, and emission."""

import csv
import dataclasses
import io

import numpy as np
import pytest

from duotune import encoder, grid, lab
from duotune import tensor as T
from duotune.data import TripletSample
from duotune.encoder import (DualEncoder, EncoderConfig, Vocab, copy_tree, encode_many,
                             init_params, trees_equal)
from duotune.freeze import FreezeSpecError
from duotune.grid import PairCorpus, PairGridReport, grid_reports
from duotune.lab import (LabError, SweepSpec, apply_axis_value, diagnose_layers,
                         eval_csv, evaluate_triplets, file_digest,
                         grid_matrix_csv, judgments_from_triplets, manifest_json,
                         plot_data, run_sweep, sweep_csv, SWEEP_CSV_HEADER)
from duotune.optim import OptimError, OptimizerSpec, SchedulerSpec
from duotune.metrics import full_reports
from duotune.tuning import TuneConfig, tune
from tests.test_grid import mixed_length_pairs
from tests.test_tuning import CFG, VOCAB, topic_triplets, words


# --- diagnostics ----------------------------------------------------------------

def test_diagnose_no_changes():
    tree = init_params(CFG, T.Rng(0))
    report = diagnose_layers(tree, copy_tree(tree))
    assert all(not l.changed for l in report.layers)
    assert report.by_max_abs == []


def test_diagnose_single_perturbed_layer_tops_both_rankings():
    before = init_params(CFG, T.Rng(0))
    after = copy_tree(before)
    name = "encoder.layer.1.output.dense.weight"
    after[name] = after[name] + 1.0
    report = diagnose_layers(before, after)
    assert report.by_max_abs == [name]
    assert report.by_relative_shift[0] == name


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
    assert layer.changed
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
    sched = SchedulerSpec("E", lr0=5e-8)     # lr0 follows the optimizer's lr
    assert apply_axis_value(cfg, "scheduler", sched).scheduler == SchedulerSpec("E", lr0=1e-3)
    assert apply_axis_value(cfg, "optimizer", "sgd").optimizer == OptimizerSpec("sgd", lr=1e-3)
    assert apply_axis_value(cfg, "weight_decay", 0.1).optimizer.weight_decay == 0.1
    assert apply_axis_value(cfg, "stopping", 5).idle_epochs_to_stop == 5
    for axis, value in (("unknown", 1), ("scheduler", "E:0.9")):
        with pytest.raises(LabError):
            apply_axis_value(cfg, axis, value)
    with pytest.raises(OptimError):
        apply_axis_value(cfg, "optimizer", "adamww")


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
    monkeypatch.setattr(lab, "run_plans", lambda *a: calls.append("evaluate"))
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


def mixed_triplets(n, seed):
    """Like topic_triplets, with texts of 2..8 words, so encoded batches carry padding."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lo, other = (0, 15) if rng.integers(0, 2) == 0 else (15, 0)
        text = lambda start: words(rng.integers(start, start + 15, size=int(rng.integers(2, 9))))
        out.append(TripletSample(text(lo), [text(lo)], [text(other)]))
    return out


def mixed_sweep(axis, values, **base_kw):
    """A twin model and mixed-length triplets and grid pairs, where lr 1e-3
    accepts no epoch and lr 1e-2 and 3e-2 do."""
    corpus, _ = mixed_length_pairs(n_languages=2, n_pairs=3)
    spec = SweepSpec(axis=axis, values=values, base=base_cfg(**base_kw),
                     eval_sets={"mixed": mixed_triplets(10, seed=3)}, grid_corpus=corpus)
    return DualEncoder.twin_init(CFG, T.Rng(0)), mixed_triplets(24, 1), mixed_triplets(16, 2), spec


def record_calls(monkeypatch, module, name, sink):
    """Append each result of `module.name` to `sink`."""
    real = getattr(module, name)

    def recording(*args, **kwargs):
        sink.append(real(*args, **kwargs))
        return sink[-1]

    monkeypatch.setattr(module, name, recording)


def record_finishes(monkeypatch, module, name, sink):
    """Append to `sink` what the finish of each (groups, finish) plan that
    `module.name` returns builds."""
    real = getattr(module, name)

    def planning(*args, **kwargs):
        groups, finish = real(*args, **kwargs)
        return groups, lambda encodes: sink.append(finish(encodes)) or sink[-1]

    monkeypatch.setattr(module, name, planning)


def count_encodes(monkeypatch, module):
    """Rows of each chunk that the `run_plans` calls made through `module`
    encode, on either thread (memo hits are not encoded)."""
    rows, inside = [], []
    real_plans, real_forward = module.run_plans, encoder._forward

    def plans(*args, **kwargs):
        inside.append(1)
        try:
            return real_plans(*args, **kwargs)
        finally:
            inside.pop()

    def forward(tree, token_lists, *args):
        if inside:
            rows.append(len(token_lists))
        return real_forward(tree, token_lists, *args)

    monkeypatch.setattr(module, "run_plans", plans)
    monkeypatch.setattr(encoder, "_forward", forward)
    return rows


def test_grid_sweep_encodes_the_base_grid_and_each_moved_query_tower_once(monkeypatch):
    model, train, valid, spec = mixed_sweep("learning_rate", [1e-3, 1e-2])
    spec = dataclasses.replace(spec, grid_corpus=mixed_length_pairs(n_languages=3, n_pairs=2)[0])
    tunes = []
    calls = count_encodes(monkeypatch, lab)
    record_calls(monkeypatch, lab, "tune", tunes)
    report = run_sweep(model, train, valid, VOCAB, spec)
    moved = [not trees_equal(tuned.query_params, model.query_params) for tuned, _ in tunes]
    assert moved == [False, True]
    # the base: 3 labels x 3 languages x 2 sides, whatever the measures, and the
    # eval set's 10 queries and 20 texts; then the query side of each point whose
    # query tower moved (the text tower is frozen)
    assert sorted(calls) == sorted([2] * (3 * 3 * 2 + 3 * 3 * sum(moved))
                                   + [10, 20] + [10] * sum(moved))
    assert all(set(pt.grid) == set(spec.measures) for pt in report.points)


SWEEPS = {
    "query-only lr": ("learning_rate", [1e-3, 1e-2, 3e-2], {}),
    "freeze": ("freeze", ["emb", "emb, B0"], {"optimizer": OptimizerSpec(kind="adamw", lr=1e-2)}),
    "both-tuned lr": ("learning_rate", [1e-3, 1e-2], {"mode": "both-tuned"}),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_each_sweep_point_equals_an_independent_run_without_a_memo(monkeypatch, sweep):
    axis, values, base_kw = SWEEPS[sweep]
    model, train, valid, spec = mixed_sweep(axis, values, **base_kw)
    samples, measures = spec.eval_sets["mixed"], spec.measures
    runs = [tune(model, train, valid, apply_axis_value(spec.base, axis, v), VOCAB)
            for v in values]
    models = [model] + [tuned for tuned, _ in runs]
    judgments = [judgments_from_triplets(m, samples, VOCAB) for m in models]
    grids = [grid_reports(m, spec.grid_corpus, measures, VOCAB) for m in models]
    assert any(r.best_epoch == 0 for _, r in runs) == (sweep == "query-only lr")
    assert any(r.best_epoch > 0 for _, r in runs)

    seen = {"tune": [], "triplet_plan": [], "grid_plan": []}
    record_calls(monkeypatch, lab, "tune", seen["tune"])
    for name in ("triplet_plan", "grid_plan"):
        record_finishes(monkeypatch, lab, name, seen[name])
    report = run_sweep(model, train, valid, VOCAB, spec)

    for (tuned, record), (got, got_record), pt in zip(runs, seen["tune"], report.points):
        assert got_record == record == pt.record
        assert trees_equal(got.query_params, tuned.query_params)
        assert trees_equal(got.text_params, tuned.text_params)
    for want, got in zip(judgments, seen["triplet_plan"], strict=True):
        for a, b in zip(want, got, strict=True):
            for field in ("query", "candidates", "is_positive"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
    for want, got in zip(grids, seen["grid_plan"], strict=True):
        for m in measures:
            for c in grid.CONTRAST_LABELS:
                assert np.array_equal(want[m].errors[c], got[m].errors[c])
    before = full_reports(judgments[0], measures)
    for j, g, pt in zip(judgments[1:], grids[1:], report.points):
        after = full_reports(j, measures)
        assert [(r.dataset, r.measure, r.pnd_before, r.pnd_after, r.errors_before,
                 r.errors_after) for r in pt.rows] == \
            [("mixed", m, before[m].pnd, after[m].pnd, before[m].errors, after[m].errors)
             for m in measures]
        for m in measures:
            want = grid.grid_compare(grids[0][m], g[m], spec.ztest_variant)
            assert (pt.grid[m].improved, pt.grid[m].worsened) == (want.improved, want.worsened)


def test_each_sweep_encodes_its_base_model(monkeypatch):
    model, train, valid, spec = mixed_sweep("learning_rate", [1e-3])   # accepts no epoch
    calls = count_encodes(monkeypatch, lab)
    counts = []
    for _ in range(2):
        calls.clear()
        run_sweep(model, train, valid, VOCAB, spec)
        counts.append(sorted(calls))
    # the base's 10 queries, 20 texts and 2 x 3 x 2 grid groups of 3 pairs each
    # time; the point's evaluation is all hits
    assert counts == [sorted([10, 20] + [3] * 12)] * 2


def test_a_tower_changed_in_place_is_encoded_again(monkeypatch):
    model = DualEncoder.twin_init(CFG, T.Rng(3))
    samples, memo = mixed_triplets(6, seed=4), {}
    calls = count_encodes(monkeypatch, lab)

    def judged(dual):
        return lab.run_plans([lab.triplet_plan(dual, samples, VOCAB)], CFG, memo)[0]

    first = judged(model)
    judged(model.copy())
    assert sorted(calls) == [6, 12]                         # a copy is all hits
    model.query_params["encoder.layer.0.output.dense.bias"] += 0.5
    again = judged(model)
    assert calls[2:] == [6]                                 # the query tower only
    fresh = judgments_from_triplets(model, samples, VOCAB)
    assert all(np.array_equal(a.query, b.query) and np.array_equal(a.candidates, b.candidates)
               for a, b in zip(again, fresh))
    assert not np.array_equal(again[0].query, first[0].query)


def test_learning_rate_points_under_a_scheduler_differ():
    model, train, valid, spec = sweep_fixture([1e-4, 1e-1],
                                              scheduler=SchedulerSpec("E", gamma=0.9))
    cfgs = [apply_axis_value(spec.base, "learning_rate", v) for v in spec.values]
    assert [c.scheduler.lr0 for c in cfgs] == [1e-4, 1e-1]
    low, high = (pt.record for pt in run_sweep(model, train, valid, VOCAB, spec).points)
    assert low != high


def test_single_value_sweep_equals_a_single_run():
    model, train, valid, spec = sweep_fixture([1e-3])
    report = run_sweep(model, train, valid, VOCAB, spec)
    cfg = apply_axis_value(spec.base, "learning_rate", 1e-3)
    tuned, record = tune(model, train, valid, cfg, VOCAB)
    after = evaluate_triplets(tuned, spec.eval_sets["topics"], VOCAB)
    row = next(r for r in report.points[0].rows if r.measure == "cosine")
    assert row.pnd_after == pytest.approx(after["cosine"].pnd, abs=1e-12)
    assert report.points[0].record == record


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
    model, calls = DualEncoder.twin_init(CFG, T.Rng(3)), []
    real = lab.run_plans

    def counting(plans, config, memo=None):
        calls.append([(tree is model.text_params, len(toks))
                      for groups, _ in plans for tree, toks in groups])
        return real(plans, config, memo)

    monkeypatch.setattr(lab, "run_plans", counting)
    judgments_from_triplets(model, uneven_samples(), VOCAB)
    assert calls == [[(False, 3), (True, 12)]]              # one call, each tower once


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

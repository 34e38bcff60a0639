"""Tests of the benchmark itself (not of the lab).

    python3 -m pytest -q perfbench/selftest.py

They run the workloads at a reduced Scale, so they take seconds.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as W
from tracer import Tracer

TINY = W.Scale(n_pretrain=20, n_tune=20, n_heldout=10, n_pairs_per_label=4,
               epochs=2, batches_per_epoch=2)


def _first(name, seed=3):
    wl = W.WORKLOADS[name](TINY)
    inp = wl.setup(seed)
    outcome, extra = wl.run_checked(inp)
    return wl, inp, outcome, extra


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(W.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == W.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    for m in doc["end_to_end"]:
        assert (m["better"] == "higher") == (m["name"] in run.HIGHER_IS_BETTER)


def test_tracer_restores_every_wrapped_function():
    inp = W.WORKLOADS["tune-query"](TINY).setup(0)
    tracer = Tracer(inp.model.config)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracer.targets()]
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for owner, attr, original in originals:
                assert owner.__dict__[attr] is not original
                assert owner.__dict__[attr].__wrapped__ is original
            raise RuntimeError("leave the block early")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert tracer.unrestored() == []


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    wl = W.WORKLOADS[name](TINY)
    assert wl.setup(5).digest == wl.setup(5).digest
    assert wl.setup(5).digest != wl.setup(6).digest


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tracing_does_not_change_results(name):
    wl, inp, outcome, _ = _first(name)
    tracer = Tracer(inp.model.config)
    tracer.register_model(inp.model)
    with tracer.installed():
        samples, ops, failed, problems = run.closed_loop(wl, inp, 0.0, outcome.digest,
                                                         tracer.span)
    assert (ops, failed, problems) == (run.MIN_OPS, 0, [])
    layer = run.layer_metrics(tracer, {"data.gen_synth": [1.0], "encoder.init": [1.0]})
    assert set(layer) | {"bench.trace_overhead_frac"} == set(run.PER_LAYER)


def test_closed_loop_counts_a_result_that_differs():
    wl, inp, outcome, _ = _first("evaluate")
    _, ops, failed, problems = run.closed_loop(wl, inp, 0.0, "not-the-digest")
    assert failed == ops == run.MIN_OPS and len(problems) == ops


def test_tune_query_checks_catch_corruption():
    wl, inp, outcome, extra = _first("tune-query")
    assert wl.check(inp, outcome, extra) == []
    best, record = outcome.result

    text = copy.deepcopy(best)
    text.text_params["encoder.layer.0.output.dense.bias"] += 1e-3
    assert wl.check(inp, W.Outcome({}, "", (text, record)))

    emb = copy.deepcopy(best)
    emb.query_params["embeddings.word_embeddings.weight"][2, 0] += 1e-3
    assert wl.check(inp, W.Outcome({}, "", (emb, record)))

    short = copy.deepcopy(record)
    short.total_steps -= 1
    assert wl.check(inp, W.Outcome({}, "", (best, short)))

    nan = copy.deepcopy(record)
    nan.initial_loss = float("nan")
    assert wl.check(inp, W.Outcome({}, "", (best, nan)))


def test_tune_both_checks_catch_corruption():
    wl, inp, outcome, extra = _first("tune-both")
    assert wl.check(inp, outcome, extra) == []
    best, record = outcome.result
    bad = copy.deepcopy(best)
    if record.best_epoch > 0:           # a trained run whose text tower did not move
        bad.text_params = {k: v.copy() for k, v in inp.model.text_params.items()}
    else:                               # an untrained run that still changed weights
        bad.text_params["encoder.layer.3.output.dense.bias"] += 1e-3
    assert wl.check(inp, W.Outcome({}, "", (bad, record)))


def test_evaluate_checks_catch_corruption():
    wl, inp, outcome, extra = _first("evaluate")
    assert wl.check(inp, outcome, extra) == []
    reports, grids = outcome.result

    bad_reports = copy.deepcopy(reports)
    bad_reports[1]["euclidean"].errors += 1
    assert wl.check(inp, W.Outcome({}, "", (bad_reports, grids)))

    bad_grids = copy.deepcopy(grids)
    bad_grids["cosine"].errors["neutral"][2, 1] += 1
    assert wl.check(inp, W.Outcome({}, "", (reports, bad_grids)))


def test_sweep_checks_catch_corruption():
    wl, inp, outcome, tunes = _first("sweep-freeze")
    assert len(tunes) == 3
    assert wl.check(inp, outcome, tunes) == []

    report = copy.deepcopy(outcome.result)
    report.points[1].rows[0].errors_before += 1
    assert wl.check(inp, W.Outcome({}, "", report), tunes)

    cfg, tuned, record = tunes[2]
    bad = copy.deepcopy(tuned)
    bad.query_params["encoder.layer.2.attention.self.key.weight"][0, 0] += 1e-3
    assert wl.check(inp, outcome, tunes[:2] + [(cfg, bad, record)])

    moved_text = copy.deepcopy(tuned)
    moved_text.text_params["encoder.layer.3.output.LayerNorm.bias"] += np.float32(1e-3)
    assert wl.check(inp, outcome, tunes[:2] + [(cfg, moved_text, record)])


def test_recounts_agree_with_brute_force_on_a_tie():
    q = W.metrics.QueryJudgments(np.array([1.0, 0.0]),
                                 np.array([[0.6, 0.8], [0.6, -0.8], [0.0, 1.0]]),
                                 np.array([True, False, False]))
    # the positive ties the first negative (a tie is an error) and beats the second
    assert W.pnd_recount([q]) == (1, 2)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19)), False).startswith("no percentile")
    assert run.tail(list(range(20)), False).startswith("p50 ")
    assert run.tail([float(v) for v in range(100)], False).startswith("p90 ")

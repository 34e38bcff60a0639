"""The benchmark's workloads: inputs generated from a seed, one closed-loop
operation through the lab's library API, and the checks on its outputs.

All workloads share the model size (hidden 64, 4 blocks, 4 heads,
intermediate 256) and a twin-initialized model drawn from the workload seed.
Per-step cost does not depend on weight values, so nothing is pretrained.
Inputs come from `gen_synth_corpus` with its defaults unless a workload says
otherwise. Idle-epoch stopping is off, so every tune() call takes the same
number of steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import duotune  # noqa: E402

if Path(duotune.__file__).resolve().parent != (SRC / "duotune").resolve():
    raise ImportError(f"duotune was imported from {duotune.__file__}, not from {SRC}")

from duotune import data, encoder, grid, lab, metrics, optim, tensor, tuning  # noqa: E402


HIDDEN, BLOCKS, HEADS, INTERMEDIATE = 64, 4, 4, 256
MEASURES = ("cosine", "euclidean")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes. The defaults are the benchmark's; the self-tests shrink them."""
    n_pretrain: int = 400               # triplets per language
    n_tune: int = 400
    n_heldout: int = 200                # per language
    n_pairs_per_label: int = 30
    epochs: int = 2
    batches_per_epoch: int = 25


@dataclasses.dataclass
class Inputs:
    seed: int
    corpus: data.SynthCorpus
    vocab: encoder.Vocab
    model: encoder.DualEncoder
    pairs: grid.PairCorpus
    digest: str                         # tokens and initial parameters


@dataclasses.dataclass
class Outcome:
    """One operation: timing samples by metric, an output digest, raw output."""
    samples: Dict[str, List[float]]
    digest: str
    result: object


def _no_span(name: str):
    return nullcontext()


def tree_digest(model: encoder.DualEncoder) -> str:
    h = hashlib.sha256()
    for side, tree in (("query", model.query_params), ("text", model.text_params)):
        for name in sorted(tree):
            h.update(f"{side}.{name}:{tree[name].dtype.str}{tree[name].shape}".encode())
            h.update(np.ascontiguousarray(tree[name]).tobytes())
    return h.hexdigest()


def _canon(obj):
    """JSON-able form of results (dataclasses, arrays, floats kept exact)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, list(obj.shape), obj.tobytes().hex()]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def result_digest(*parts) -> str:
    return hashlib.sha256(json.dumps(_canon(list(parts)), sort_keys=True).encode()).hexdigest()


def build_inputs(seed: int, sentence_len: int, mode: str, scale: Scale,
                 span: Callable = _no_span) -> Inputs:
    """Corpus generation, model init and tokenization: the timed set-up."""
    spec = data.SynthCorpusSpec(sentence_len=sentence_len, n_pretrain=scale.n_pretrain,
                                n_tune=scale.n_tune, n_heldout=scale.n_heldout,
                                n_pairs_per_label=scale.n_pairs_per_label, seed=seed)
    with span("data.gen_synth"):
        corpus = data.gen_synth_corpus(spec)
    vocab = encoder.Vocab(corpus.vocab_tokens)
    config = encoder.EncoderConfig(vocab_size=len(vocab), hidden=HIDDEN, n_blocks=BLOCKS,
                                   n_heads=HEADS, intermediate=INTERMEDIATE)
    with span("encoder.init"):
        model = encoder.DualEncoder.twin_init(config, tensor.Rng(seed), mode=mode)
    with span("encoder.tokenize"):
        texts = [t for s in corpus.pretrain + corpus.tune_lang0 +
                 [x for k in sorted(corpus.heldout) for x in corpus.heldout[k]]
                 for t in [s.query] + s.positives + s.negatives]
        texts += [r[f] for r in corpus.pair_records for f in ("sentence1", "sentence2")]
        tokens = [vocab.encode(t, config.max_positions) for t in texts]
    pairs = grid.PairCorpus.from_records(corpus.pair_records)
    h = hashlib.sha256(json.dumps(tokens).encode())
    h.update(tree_digest(model).encode())
    return Inputs(seed, corpus, vocab, model, pairs, h.hexdigest())


def _record_problems(record: tuning.RunRecord, steps: int) -> List[str]:
    out = []
    if record.total_steps != steps:
        out.append(f"total_steps {record.total_steps} != configured {steps}")
    losses = [record.initial_loss] + [e.val_loss for e in record.epochs]
    if not all(math.isfinite(v) for v in losses):
        out.append(f"non-finite validation loss in {losses}")
    return out


def _changed(a: encoder.ParamTree, b: encoder.ParamTree, names) -> List[str]:
    """Names whose arrays differ between the two trees."""
    return [n for n in names if not np.array_equal(a[n], b[n])]


class Workload:
    name = ""
    why = ""
    # what the end-to-end metrics triplets_per_s and op_ms measure here
    labels = {"triplets_per_s": "", "op_ms": ""}
    sentence_len = 8
    mode = "query-only"

    def __init__(self, scale: Scale = Scale()):
        self.scale = scale

    def setup(self, seed: int, span: Callable = _no_span) -> Inputs:
        return build_inputs(seed, self.sentence_len, self.mode, self.scale, span)

    def run(self, inp: Inputs) -> Outcome:
        raise NotImplementedError

    def run_checked(self, inp: Inputs) -> tuple:
        """run() plus whatever check() needs beyond the outcome."""
        return self.run(inp), None

    def check(self, inp: Inputs, outcome: Outcome, extra=None) -> List[str]:
        """Invariants of one operation's output; returns the problems found."""
        raise NotImplementedError


class TuneWorkload(Workload):
    """One tune() call per operation; tune_triplets_per_s counts training
    triplets over the wall time of the call, validation included."""
    labels = {"triplets_per_s": "tune_triplets_per_s", "op_ms": "tune_call_ms"}
    freeze = "emb"
    lr = 2e-4

    def tune_config(self, seed: int) -> tuning.TuneConfig:
        s = self.scale
        return tuning.TuneConfig(
            batch_size=14, epoch_size=s.batches_per_epoch, max_epochs=s.epochs,
            idle_epochs_to_stop=s.epochs + 1, freeze=self.freeze,
            optimizer=optim.OptimizerSpec(kind="adamw", lr=self.lr),
            loss=optim.LossSpec(margin=0.2), seed=seed, mode=self.mode)

    @property
    def steps(self) -> int:
        return self.scale.epochs * self.scale.batches_per_epoch

    def train_set(self, inp: Inputs):
        return inp.corpus.tune_lang0

    def run(self, inp: Inputs) -> Outcome:
        cfg = self.tune_config(inp.seed)
        t0 = perf_counter()
        best, record = tuning.tune(inp.model, self.train_set(inp), inp.corpus.heldout[0],
                                   cfg, inp.vocab)
        dt = perf_counter() - t0
        triplets = self.steps * cfg.batch_size
        return Outcome({"triplets_per_s": [triplets / dt], "op_ms": [1e3 * dt]},
                       result_digest(tree_digest(best), record), (best, record))


class TuneQuery(TuneWorkload):
    name = "tune-query"
    why = ("README quick-tour step: query-only tune() with emb frozen at lr 2e-4, "
           "L8; the frozen text tower is re-encoded every step and validation")

    def check(self, inp, outcome, extra=None):
        best, record = outcome.result
        problems = _record_problems(record, self.steps)
        if _changed(best.text_params, inp.model.text_params, inp.model.text_params):
            problems.append("query-only tuning changed the text tower")
        emb = [n for n in inp.model.query_params if n.startswith("embeddings.")]
        if _changed(best.query_params, inp.model.query_params, emb):
            problems.append("frozen query embeddings changed")
        moved = _changed(best.query_params, inp.model.query_params, best.query_params)
        if bool(moved) != (record.best_epoch > 0):
            problems.append(f"best_epoch {record.best_epoch} but {len(moved)} query "
                            "tensors changed")
        return problems


class TuneBoth(TuneWorkload):
    name = "tune-both"
    why = ("both towers train (freeze -, lr 2e-3) on the mixed-language pretrain set at "
           "L16: live embedding grads, twice the optimizer work, peak memory")
    sentence_len = 16
    mode = "both-tuned"
    freeze = "-"
    lr = 2e-3

    def train_set(self, inp):
        return inp.corpus.pretrain

    def check(self, inp, outcome, extra=None):
        best, record = outcome.result
        problems = _record_problems(record, self.steps)
        text_moved = _changed(best.text_params, inp.model.text_params, best.text_params)
        if record.best_epoch > 0 and not text_moved:
            problems.append("both-tuned run accepted an epoch but the text tower is unchanged")
        if record.best_epoch == 0 and tree_digest(best) != tree_digest(inp.model):
            problems.append("no epoch accepted but the returned model differs from the input")
        return problems


def pnd_recount(judgments) -> tuple:
    """(errors, total) by a double loop over every (positive, negative) pair."""
    errors = total = 0
    for q in judgments:
        qv = q.query.astype(np.float64)
        sims = [float(np.dot(qv, c.astype(np.float64))) for c in q.candidates]
        pos = [s for s, p in zip(sims, q.is_positive) if p]
        neg = [s for s, p in zip(sims, q.is_positive) if not p]
        for sp in pos:
            for sn in neg:
                errors += sp <= sn          # ties count as errors
                total += 1
    return errors, total


def grid_recount(model, corpus: grid.PairCorpus, vocab) -> Dict[str, np.ndarray]:
    """Cell error counts by a double loop over entailment x contrast pairs,
    from embeddings encoded exactly as grid_eval encodes them (the euclidean
    measure orders pairs as the dot product does, so one count serves both)."""
    emb = {}
    for lbl in grid.LABELS:
        for lang in corpus.languages:
            for side, params, col in (("q", model.query_params, 0),
                                      ("t", model.text_params, 1)):
                toks = [vocab.encode(p[lang][col], 64) for p in corpus.pairs[lbl]]
                emb[(side, lbl, lang)] = encoder.encode_many(params, toks, model.config)
    K = len(corpus.languages)
    out = {c: np.zeros((K, K), dtype=np.int64) for c in grid.CONTRAST_LABELS}
    for qi, lq in enumerate(corpus.languages):
        for ti, lt in enumerate(corpus.languages):
            def sims(lbl):
                return [float(np.dot(a.astype(np.float64), b.astype(np.float64)))
                        for a, b in zip(emb[("q", lbl, lq)], emb[("t", lbl, lt)])]
            ent = sims("entailment")
            for c in grid.CONTRAST_LABELS:
                other = sims(c)
                out[c][qi, ti] = sum(1 for e in ent for o in other if e <= o)
    return out


class Evaluate(Workload):
    """One operation: evaluate_triplets on heldout_lang0..3, then grid_eval
    once per measure. eval_triplets_per_s counts heldout triplets over the
    summed evaluate_triplets time; op_ms is the time of one grid_eval call."""
    name = "evaluate"
    labels = {"triplets_per_s": "eval_triplets_per_s", "op_ms": "grid_eval_ms"}
    why = ("inference only: evaluate_triplets on 4 heldout sets and grid_eval per "
           "measure; per-call encode overhead and the PND/grid counting loops")

    def run(self, inp):
        reports, grids, eval_s, grid_ms = {}, {}, 0.0, []
        for k in sorted(inp.corpus.heldout):
            t0 = perf_counter()
            reports[k] = lab.evaluate_triplets(inp.model, inp.corpus.heldout[k],
                                               inp.vocab, MEASURES)
            eval_s += perf_counter() - t0
        for m in MEASURES:
            t0 = perf_counter()
            grids[m] = grid.grid_eval(inp.model, inp.pairs, m, inp.vocab)
            grid_ms.append(1e3 * (perf_counter() - t0))
        n = sum(len(v) for v in inp.corpus.heldout.values())
        return Outcome({"triplets_per_s": [n / eval_s], "op_ms": grid_ms},
                       result_digest(reports, grids), (reports, grids))

    def check(self, inp, outcome, extra=None):
        reports, grids = outcome.result
        problems = []
        for k, samples in sorted(inp.corpus.heldout.items()):
            judg = lab.judgments_from_triplets(inp.model, samples, inp.vocab)
            errors, total = pnd_recount(judg)
            for m in MEASURES:
                rep = reports[k][m]
                if (rep.errors, rep.total) != (errors, total):
                    problems.append(f"heldout_lang{k} {m}: PND {rep.errors}/{rep.total}, "
                                    f"recount {errors}/{total}")
        cells = grid_recount(inp.model, inp.pairs, inp.vocab)
        for m in MEASURES:
            for c in grid.CONTRAST_LABELS:
                if not np.array_equal(grids[m].errors[c], cells[c]):
                    problems.append(f"grid {m}/{c}: cells differ from the recount")
        return problems


# Frozen-name prefixes per swept value, written out independently of the
# freeze grammar so the check does not trust the code it checks.
SWEEP_FROZEN = {
    "emb": ("embeddings.",),
    "emb, B0-1": ("embeddings.", "encoder.layer.0.", "encoder.layer.1."),
    "emb, B0-2": ("embeddings.", "encoder.layer.0.", "encoder.layer.1.",
                  "encoder.layer.2."),
}


@contextmanager
def capture_tunes(sink: list):
    """Record (config, tuned model, record) of every tune() run_sweep makes."""
    original = lab.tune

    def recording(model, train, valid, cfg, vocab, *args, **kwargs):
        tuned, record = original(model, train, valid, cfg, vocab, *args, **kwargs)
        sink.append((cfg, tuned, record))
        return tuned, record

    lab.tune = recording
    try:
        yield sink
    finally:
        lab.tune = original


class SweepFreeze(TuneQuery):
    """One operation is one run_sweep over three freeze values; op_ms is its
    wall time per point (sweep_point_s), triplets_per_s the training triplets
    of a point over that time."""
    name = "sweep-freeze"
    labels = {"triplets_per_s": "sweep_point_triplets_per_s", "op_ms": "sweep_point_ms"}
    why = ("run_sweep over freeze emb / emb,B0-1 / emb,B0-2 with evals and grid: deep "
           "frozen prefixes and the same frozen text tower re-encoded per point")

    def spec(self, inp) -> lab.SweepSpec:
        return lab.SweepSpec("freeze", list(SWEEP_FROZEN), self.tune_config(inp.seed),
                             {"heldout_lang0": inp.corpus.heldout[0],
                              "heldout_lang1": inp.corpus.heldout[1]},
                             grid_corpus=inp.pairs, measures=MEASURES)

    def run(self, inp):
        spec = self.spec(inp)
        t0 = perf_counter()
        report = lab.run_sweep(inp.model, inp.corpus.tune_lang0, inp.corpus.heldout[0],
                               inp.vocab, spec)
        point_s = (perf_counter() - t0) / len(spec.values)
        return Outcome({"triplets_per_s": [self.steps * 14 / point_s],
                        "op_ms": [1e3 * point_s]},
                       result_digest(report), report)

    def run_checked(self, inp) -> tuple:
        """run() with every point's tuned model captured for check()."""
        with capture_tunes([]) as tunes:
            outcome = self.run(inp)
        return outcome, tunes

    def check(self, inp, outcome, extra=None):
        report, tunes = outcome.result, extra
        problems = []
        if [p.value for p in report.points] != list(SWEEP_FROZEN):
            problems.append(f"sweep points {[p.value for p in report.points]}")
        before = {(r.dataset, r.measure): (r.pnd_before, r.errors_before, r.total)
                  for r in report.points[0].rows}
        for p in report.points:
            problems += _record_problems(p.record, self.steps)
            if {(r.dataset, r.measure): (r.pnd_before, r.errors_before, r.total)
                    for r in p.rows} != before:
                problems.append(f"point {p.value}: 'before' rows differ from point "
                                f"{report.points[0].value}")
        for cfg, tuned, _ in tunes or []:
            frozen = [n for n in tuned.query_params
                      if n.startswith(SWEEP_FROZEN[cfg.freeze])]
            if _changed(tuned.query_params, inp.model.query_params, frozen):
                problems.append(f"point {cfg.freeze}: a frozen query tensor changed")
            if _changed(tuned.text_params, inp.model.text_params, tuned.text_params):
                problems.append(f"point {cfg.freeze}: the text tower changed")
        if tunes is not None and len(tunes) != len(SWEEP_FROZEN):
            problems.append(f"{len(tunes)} tune() calls for {len(SWEEP_FROZEN)} points")
        return problems


WORKLOADS = {w.name: w for w in (TuneQuery, TuneBoth, Evaluate, SweepFreeze)}

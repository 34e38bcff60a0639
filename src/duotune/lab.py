"""Experiment orchestration: layer-change diagnostics, sweeps over a single
tuning axis, run manifests, and CSV/plot-data emission.

Plots are emitted as data files (x = swept value, y = improvement,
marker = significance); rendering is left to external tools.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import freeze
from .data import TripletSample
from .encoder import MEASURES, DualEncoder, ParamTree, Vocab, encode_many, token_limit
from .grid import GridComparison, PairCorpus, PairGridReport, grid_compare, grid_eval
from .metrics import EvalReport, QueryJudgments, full_report, improvement, z_test
from .optim import OptimizerSpec, SchedulerSpec
from .tuning import RunRecord, TuneConfig, tune

SWEEP_AXES = ("learning_rate", "batch_size", "margin", "freeze", "scheduler",
              "optimizer", "weight_decay", "stopping")


class LabError(ValueError):
    pass


# --- layer-change diagnostics ----------------------------------------------

@dataclass
class LayerChange:
    name: str
    w_before: float              # max |weight| before tuning
    w_after: float               # max |weight| after tuning
    changed: bool
    max_abs_after: Optional[float]   # w_after if changed, else None
    relative_shift: Optional[float]  # (w_after - w_before) / (w_after + w_before)


@dataclass
class LayerChangeReport:
    layers: List[LayerChange]
    by_max_abs: List[str]            # changed layers, descending max |weight| after
    by_relative_shift: List[str]     # all layers, descending relative shift

    def top(self, k: int, metric: str = "max_abs") -> List[str]:
        ranked = self.by_max_abs if metric == "max_abs" else self.by_relative_shift
        return ranked[:k]


def diagnose_layers(before: ParamTree, after: ParamTree) -> LayerChangeReport:
    """Per named tensor: max-absolute-weight before/after, changed flag, and
    the relative shift (w_after - w_before) / (w_after + w_before)."""
    if set(before) != set(after):
        raise LabError("parameter name sets differ")
    layers = []
    for name in before:
        w_o = float(np.max(np.abs(before[name])))
        w_t = float(np.max(np.abs(after[name])))
        changed = not np.array_equal(before[name], after[name])
        denom = w_t + w_o
        shift = (w_t - w_o) / denom if denom > 0 else None
        layers.append(LayerChange(name, w_o, w_t, changed,
                                  w_t if changed else None, shift))
    by_a = sorted((l for l in layers if l.changed),
                  key=lambda l: (-l.max_abs_after, l.name))
    by_b = sorted((l for l in layers if l.relative_shift is not None),
                  key=lambda l: (-l.relative_shift, l.name))
    return LayerChangeReport(layers, [l.name for l in by_a], [l.name for l in by_b])


# --- evaluation over triplet datasets ----------------------------------------

def judgments_from_triplets(model: DualEncoder, samples: Sequence[TripletSample],
                            vocab: Vocab, max_len: int = 64) -> List[QueryJudgments]:
    max_len = token_limit(max_len, model.config)
    queries = encode_many(model.query_params,
                          [vocab.encode(s.query, max_len) for s in samples], model.config)
    texts = encode_many(model.text_params,
                        [vocab.encode(t, max_len) for s in samples
                         for t in s.positives + s.negatives], model.config)
    sizes = [len(s.positives) + len(s.negatives) for s in samples]
    return [QueryJudgments(q, emb, np.arange(len(emb)) < len(s.positives))
            for s, q, emb in zip(samples, queries, np.split(texts, np.cumsum(sizes)[:-1]))]


def evaluate_triplets(model: DualEncoder, samples: Sequence[TripletSample],
                      vocab: Vocab, measures: Sequence[str] = MEASURES,
                      max_len: int = 64) -> Dict[str, EvalReport]:
    judgments = judgments_from_triplets(model, samples, vocab, max_len)
    return {m: full_report(judgments, m) for m in measures}


# --- sweeps -------------------------------------------------------------------

@dataclass
class SweepSpec:
    axis: str
    values: List
    base: TuneConfig
    eval_sets: Dict[str, List[TripletSample]]   # dataset name -> eval triplets
    grid_corpus: Optional[PairCorpus] = None
    ztest_variant: str = "paper"
    measures: Tuple[str, ...] = MEASURES

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise LabError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise LabError("sweep needs at least one value")


def apply_axis_value(cfg: TuneConfig, axis: str, value) -> TuneConfig:
    if axis == "learning_rate":
        return replace(cfg, optimizer=replace(cfg.optimizer, lr=float(value)))
    if axis == "batch_size":
        return replace(cfg, batch_size=int(value))
    if axis == "margin":
        return replace(cfg, loss=replace(cfg.loss, margin=float(value)))
    if axis == "freeze":
        return replace(cfg, freeze=str(value))
    if axis == "scheduler":
        if not isinstance(value, SchedulerSpec):
            raise LabError("scheduler axis values must be SchedulerSpec")
        return replace(cfg, scheduler=value)
    if axis == "optimizer":
        if not isinstance(value, OptimizerSpec):
            raise LabError("optimizer axis values must be OptimizerSpec")
        return replace(cfg, optimizer=value)
    if axis == "weight_decay":
        return replace(cfg, optimizer=replace(cfg.optimizer, weight_decay=float(value)))
    if axis == "stopping":
        return replace(cfg, idle_epochs_to_stop=int(value))
    raise LabError(f"unknown sweep axis {axis!r}")


@dataclass
class SweepRow:
    value: str
    dataset: str
    measure: str
    pnd_before: float
    pnd_after: float
    improvement_pct: float
    errors_before: int
    errors_after: int
    total: int
    z: Optional[float]
    significant: bool


@dataclass
class SweepPointResult:
    value: str
    rows: List[SweepRow]
    grid: Optional[Dict[str, GridComparison]]   # measure -> comparison
    record: RunRecord


@dataclass
class SweepReport:
    spec_axis: str
    points: List[SweepPointResult]


def run_sweep(model: DualEncoder, train: Sequence[TripletSample],
              valid: Sequence[TripletSample], vocab: Vocab,
              spec: SweepSpec) -> SweepReport:
    """One tune+eval per swept value against the same starting model."""
    configs = [apply_axis_value(spec.base, spec.axis, v) for v in spec.values]
    for cfg in configs:   # a bad freeze spec fails before any point is tuned
        frozen = freeze.parse_freeze_spec(cfg.freeze)
        trained = [model.query_params] + ([model.text_params] if cfg.mode == "both-tuned" else [])
        for tree in trained:
            freeze.resolve(frozen, tree)
    base_reports = {name: evaluate_triplets(model, samples, vocab, spec.measures)
                    for name, samples in spec.eval_sets.items()}
    base_grids = None
    if spec.grid_corpus is not None:
        base_grids = {m: grid_eval(model, spec.grid_corpus, m, vocab)
                      for m in spec.measures}

    points: List[SweepPointResult] = []
    for value, cfg in zip(spec.values, configs):
        tuned, record = tune(model, train, valid, cfg, vocab)
        rows: List[SweepRow] = []
        for name, samples in spec.eval_sets.items():
            after = evaluate_triplets(tuned, samples, vocab, spec.measures)
            for m in spec.measures:
                before_rep = base_reports[name][m]
                after_rep = after[m]
                imp = (improvement(before_rep.pnd, after_rep.pnd, -1)
                       if before_rep.pnd != 0 else 0.0)
                zt = z_test(before_rep.errors, after_rep.errors, before_rep.total,
                            spec.ztest_variant)
                rows.append(SweepRow(str(value), name, m, before_rep.pnd, after_rep.pnd,
                                     100.0 * imp, before_rep.errors, after_rep.errors,
                                     before_rep.total, zt.z, zt.significant))
        grid_cmp = None
        if base_grids is not None:
            grid_cmp = {}
            for m in spec.measures:
                tuned_grid = grid_eval(tuned, spec.grid_corpus, m, vocab)
                grid_cmp[m] = grid_compare(base_grids[m], tuned_grid, spec.ztest_variant)
        points.append(SweepPointResult(str(value), rows, grid_cmp, record))
    return SweepReport(spec.axis, points)


# --- emission -----------------------------------------------------------------

SWEEP_CSV_HEADER = ("value,dataset,measure,pnd_before,pnd_after,improvement_pct,"
                    "errors_before,errors_after,total,z,significant")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with newline line ends; a field holding a comma (a freeze spec,
    a language name from a pairs file) is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def sweep_csv(report: SweepReport) -> str:
    return csv_text(SWEEP_CSV_HEADER.split(","), (
        [r.value, r.dataset, r.measure, f"{r.pnd_before:.12g}", f"{r.pnd_after:.12g}",
         f"{r.improvement_pct:.12g}", r.errors_before, r.errors_after, r.total,
         "" if r.z is None else f"{r.z:.12g}", int(r.significant)]
        for pt in report.points for r in pt.rows))


def plot_data(report: SweepReport) -> str:
    """x = swept value, y = improvement %, marker = 1 if significant."""
    return csv_text(["value", "dataset", "measure", "improvement_pct", "significant"], (
        [r.value, r.dataset, r.measure, f"{r.improvement_pct:.12g}", int(r.significant)]
        for pt in report.points for r in pt.rows))


def grid_matrix_csv(report: PairGridReport, contrast: str) -> str:
    rows = zip(report.languages, report.errors[contrast])
    return csv_text(["qlang\\tlang", *report.languages], ([lq, *map(int, r)] for lq, r in rows))


def eval_csv(reports: Dict[str, EvalReport]) -> str:
    return csv_text(["measure", "errors", "total", "pnd", "mrr", "map", "p_at_1"],
                    (reports[m].csv_row() for m in sorted(reports)))


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_json(command: str, config: dict, seed: int,
                  inputs: Dict[str, str], outputs: Sequence[str]) -> str:
    """Byte-stable manifest sufficient to replay the run."""
    doc = {
        "tool": "duotune",
        "command": command,
        "config": config,
        "seed": seed,
        "input_digests": inputs,
        "outputs": sorted(outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

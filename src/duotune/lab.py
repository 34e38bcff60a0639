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
from dataclasses import dataclass, is_dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import freeze
from .data import TripletSample
from .encoder import MEASURES, DualEncoder, ParamTree, Plan, Vocab, run_plans
from .encoder import encode_many  # unused here: perfbench/tracer.py wraps lab.encode_many
from .grid import GridComparison, PairCorpus, PairGridReport, grid_compare, grid_plan
from .grid import grid_eval  # unused here: perfbench/tracer.py wraps lab.grid_eval
from .metrics import EvalReport, QueryJudgments, full_reports, improvement, z_test
from .tuning import RunRecord, TuneConfig, tune

# sweep axis -> the TuneConfig field it sets: a field, or a field of a spec
SWEEP_AXES = {"learning_rate": "optimizer.lr", "batch_size": "batch_size",
              "margin": "loss.margin", "freeze": "freeze", "scheduler": "scheduler",
              "optimizer": "optimizer.kind", "weight_decay": "optimizer.weight_decay",
              "stopping": "idle_epochs_to_stop"}


class LabError(ValueError):
    pass


# --- layer-change diagnostics ----------------------------------------------

@dataclass
class LayerChange:
    name: str
    w_before: float              # max |weight| before tuning
    w_after: float               # max |weight| after tuning
    changed: bool
    relative_shift: Optional[float]  # (w_after - w_before) / (w_after + w_before)


@dataclass
class LayerChangeReport:
    layers: List[LayerChange]
    by_max_abs: List[str]            # changed layers, descending max |weight| after
    by_relative_shift: List[str]     # all layers, descending relative shift


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
        layers.append(LayerChange(name, w_o, w_t, changed, shift))
    by_a = sorted((l for l in layers if l.changed), key=lambda l: (-l.w_after, l.name))
    by_b = sorted((l for l in layers if l.relative_shift is not None),
                  key=lambda l: (-l.relative_shift, l.name))
    return LayerChangeReport(layers, [l.name for l in by_a], [l.name for l in by_b])


# --- evaluation over triplet datasets ----------------------------------------

def triplet_plan(model: DualEncoder, samples: Sequence[TripletSample], vocab: Vocab) -> Plan:
    """`judgments_from_triplets` as a plan (see `run_plans`): the queries, and
    every sample's candidates."""
    max_len = model.config.max_positions
    groups = [(model.query_params, [vocab.encode(s.query, max_len) for s in samples]),
              (model.text_params, [vocab.encode(t, max_len)
                                   for s in samples for t in s.positives + s.negatives])]

    def finish(encodes: List[np.ndarray]) -> List[QueryJudgments]:
        queries, texts = encodes
        sizes = [len(s.positives) + len(s.negatives) for s in samples]
        return [QueryJudgments(q, emb, np.arange(len(emb)) < len(s.positives))
                for s, q, emb in zip(samples, queries, np.split(texts, np.cumsum(sizes)[:-1]))]
    return groups, finish


def judgments_from_triplets(model: DualEncoder, samples: Sequence[TripletSample],
                            vocab: Vocab) -> List[QueryJudgments]:
    return run_plans([triplet_plan(model, samples, vocab)], model.config)[0]


def evaluate_triplets(model: DualEncoder, samples: Sequence[TripletSample],
                      vocab: Vocab, measures: Sequence[str] = MEASURES) -> Dict[str, EvalReport]:
    return full_reports(judgments_from_triplets(model, samples, vocab), measures)


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
    """`cfg` with the field `axis` names in SWEEP_AXES set to `value`: a scalar
    converted by the field's type, or a spec that must be of the field's class."""
    if axis not in SWEEP_AXES:
        raise LabError(f"unknown sweep axis {axis!r}")
    spec, _, name = SWEEP_AXES[axis].rpartition(".")
    owner = getattr(cfg, spec) if spec else cfg
    kind = get_type_hints(type(owner))[name]
    if is_dataclass(kind) and not isinstance(value, kind):
        raise LabError(f"{axis} axis values must be {kind.__name__}, not {value!r}")
    new = replace(owner, **{name: value if is_dataclass(kind) else kind(value)})
    return replace(cfg, **{spec: new}) if spec else new


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
    memo: dict = {}     # every encode and prefix table of this call, kept by content
    for cfg in configs:   # a bad spec fails before any point is tuned; the towers share names
        freeze.resolve(freeze.parse_freeze_spec(cfg.freeze), model.query_params)

    def evaluate(dual: DualEncoder):
        """Every eval set's reports and, with a grid corpus, each measure's grid,
        from one `run_plans` call."""
        plans = [triplet_plan(dual, samples, vocab) for samples in spec.eval_sets.values()]
        if spec.grid_corpus is not None:
            plans.append(grid_plan(dual, spec.grid_corpus, spec.measures, vocab))
        done = run_plans(plans, dual.config, memo)
        reports = {name: full_reports(j, spec.measures) for name, j in zip(spec.eval_sets, done)}
        return reports, (done[-1] if spec.grid_corpus is not None else None)

    base_reports, base_grids = evaluate(model)
    points: List[SweepPointResult] = []
    for value, cfg in zip(spec.values, configs):
        tuned, record = tune(model, train, valid, cfg, vocab, memo=memo)
        after, grids = evaluate(tuned)
        rows: List[SweepRow] = []
        for name in spec.eval_sets:
            for m in spec.measures:
                before_rep = base_reports[name][m]
                after_rep = after[name][m]
                imp = (improvement(before_rep.pnd, after_rep.pnd, -1)
                       if before_rep.pnd != 0 else 0.0)
                zt = z_test(before_rep.errors, after_rep.errors, before_rep.total,
                            spec.ztest_variant)
                rows.append(SweepRow(str(value), name, m, before_rep.pnd, after_rep.pnd,
                                     100.0 * imp, before_rep.errors, after_rep.errors,
                                     before_rep.total, zt.z, zt.significant))
        grid_cmp = None if grids is None else {
            m: grid_compare(base_grids[m], grids[m], spec.ztest_variant) for m in spec.measures}
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

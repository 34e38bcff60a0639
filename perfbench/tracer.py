"""Span recorder for the traced benchmark run.

`Tracer.installed()` swaps wrappers in for the public functions the lab's
layers call each other through (module globals and class attributes), so no
library source changes. Each wrapper records a span (name, start, end,
parent, attributes) in memory; the spans are summarised into the per-layer
metrics after the run and can be written out as JSON lines.

Time the tracer spends on its own bookkeeping inside a span is charged to
that span's `book` field and excluded from self time, so the wrappers do not
inflate the self time of the layer that called them.
"""

from __future__ import annotations

import functools
import json
import statistics
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from workloads import encoder, grid, lab, metrics, optim, tensor, tuning

OP = "bench.op"
STEP = "tuning.step"
ENCODE = "encoder.encode_batch"
EVAL_SPANS = ("lab.evaluate_triplets", "grid.grid_eval")


class Span:
    __slots__ = ("idx", "name", "start", "end", "parent", "op", "attrs", "child", "book")

    def __init__(self, idx: int, name: str, start: float, parent: int, op: int):
        self.idx = idx
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: Optional[dict] = None
        self.child = 0.0            # summed duration of direct children
        self.book = 0.0             # tracer bookkeeping inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child - self.book


class _Towers:
    """Which tower (side, content version) a parameter array belongs to.

    Content versions follow the arrays: a `DualEncoder.copy` inherits the
    source tower's version and an optimizer update gives the tower a new one,
    so "encoded earlier by the same frozen tower" means identical weights,
    not the same Python object. Arrays are held weakly.
    """

    def __init__(self):
        self._by_id: Dict[int, tuple] = {}
        self._versions = 0

    def new_version(self) -> int:
        self._versions += 1
        return self._versions

    def register(self, tree, side: str, version: Optional[int] = None) -> None:
        rec = [side, self.new_version() if version is None else version]
        for arr in tree.values():
            self._by_id[id(arr)] = (weakref.ref(arr), rec)

    def lookup(self, arr) -> Optional[list]:
        entry = self._by_id.get(id(arr))
        if entry is not None and entry[0]() is arr:
            return entry[1]
        return None

    def prune(self) -> None:
        self._by_id = {k: v for k, v in self._by_id.items() if v[0]() is not None}


def _word_emb(tree) -> np.ndarray:
    arr = tree["embeddings.word_embeddings.weight"]
    return getattr(arr, "data", arr)      # tape leaf or raw array


class Tracer:
    def __init__(self, config):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1
        self._seen: set = set()
        self._towers = _Towers()
        self._sizes = {n: int(np.prod(s)) for n, s in encoder.param_shapes(config).items()}
        self._originals: list = []

    # --- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), name, perf_counter(), parent, self._op)
        self._stack.append(span.idx)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        # spans still open above this one were cut short by an exception
        while self._stack and self._stack[-1] != span.idx:
            self._close(self.spans[self._stack[-1]])
        if self._stack:
            self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.duration

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].book += seconds

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    @contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark itself."""
        if name == OP:
            self._op += 1
            self._seen.clear()
            self._towers.prune()
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def register_model(self, model) -> None:
        self._towers.register(model.query_params, "query")
        self._towers.register(model.text_params, "text")

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b0 = perf_counter()
            ctx = before(args) if before is not None else None
            b1 = perf_counter()
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, out, ctx)
            tracer._charge((b1 - b0) + (perf_counter() - span.end))
            return out

        return wrapper

    def _encode_before(self, via_tuning: bool):
        def before(args):
            params, ids = args[0], np.asarray(args[1])
            rec = self._towers.lookup(_word_emb(params))
            side = rec[0] if rec is not None else "unknown"
            training = via_tuning and not self._inside("tuning.validate")
            if training and side == "query":
                self._open(STEP)
            reenc = 0
            if side == "text":
                for row in ids:
                    key = (rec[1], row[row != 0].tobytes())
                    if key in self._seen:
                        reenc += 1
                    else:
                        self._seen.add(key)
            return {"side": side, "training": training, "rows": int(ids.shape[0]),
                    "reencoded": reenc}
        return before

    def _encode_after(self, span, args, out, ctx):
        ctx["f64"] = out.data.dtype != _word_emb(args[0]).dtype
        span.attrs = ctx

    def _backward_after(self, span, args, out, ctx):
        tape = args[0]
        held = 0
        for n in tape.nodes:
            if n._parents:                  # parameter leaves share the model's arrays
                held += n.data.nbytes
            if n.grad is not None:
                held += n.grad.nbytes
        span.attrs = {"nodes": len(tape.nodes), "bytes": held}

    def _step_after(self, span, args, out, ctx):
        params, grads = args[1], args[2]
        bumped = set()
        for key in grads:
            rec = self._towers.lookup(params[key])
            if rec is not None and id(rec) not in bumped:
                rec[1] = self._towers.new_version()
                bumped.add(id(rec))
        if self._stack and self.spans[self._stack[-1]].name == STEP:
            self._close(self.spans[self._stack[-1]])

    def _copy_after(self, span, args, out, ctx):
        src = args[0]
        for side, s_tree, d_tree in (("query", src.query_params, out.query_params),
                                     ("text", src.text_params, out.text_params)):
            rec = self._towers.lookup(_word_emb(s_tree))
            self._towers.register(d_tree, side, rec[1] if rec is not None else None)

    def _trainable_after(self, span, args, out, ctx):
        span.attrs = {"tensors": len(out), "elems": sum(self._sizes.get(n, 0) for n in out)}

    def targets(self):
        """(owner, attribute, span name, before, after) for every wrapped callable."""
        enc_after = self._encode_after
        return [
            (tuning, "encode_batch", ENCODE, self._encode_before(True), enc_after),
            (encoder, "encode_batch", ENCODE, self._encode_before(False), enc_after),
            (tuning, "triplet_margin_loss", "optim.loss", None, None),
            (tuning, "validate", "tuning.validate", None, None),
            (tuning, "trainable_names", "freeze.trainable_names", None,
             self._trainable_after),
            (tuning, "tune", "tuning.tune", None, None),
            (tensor.Tape, "backward", "tensor.backward", None, self._backward_after),
            (optim.Optimizer, "step", "optim.step", None, self._step_after),
            (encoder.DualEncoder, "copy", "tuning.copy", None, self._copy_after),
            (lab, "encode_many", "encoder.encode_many", None, None),
            (grid, "encode_many", "encoder.encode_many", None, None),
            (metrics, "pnd", "metrics.pnd", None, None),
            (metrics, "rank_metrics", "metrics.rank_metrics", None, None),
            (lab, "judgments_from_triplets", "lab.judgments", None, None),
            (lab, "evaluate_triplets", "lab.evaluate_triplets", None, None),
            (lab, "tune", "tuning.tune", None, None),
            (lab, "grid_eval", "grid.grid_eval", None, None),
            (grid, "grid_eval", "grid.grid_eval", None, None),
        ]

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        self._originals = []
        for owner, attr, name, before, after in self.targets():
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, before, after))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._originals):
                setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Wrapped attributes that do not hold their original value now."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._originals
                if owner.__dict__[attr] is not original]

    # --- output -----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "attrs": s.attrs}, default=str) + "\n")


def _mean_ms(spans: List[Span], self_time: bool = False) -> float:
    if not spans:
        return 0.0
    return 1e3 * sum(s.self_time if self_time else s.duration for s in spans) / len(spans)


def layer_metrics(tracer: Tracer, setup_spans: Dict[str, List[float]]) -> Dict[str, float]:
    """The per-layer metrics, from the spans of the traced ops.

    Counts are per benchmark op; times are per call (mean), self times exclude
    child spans and tracer bookkeeping.
    """
    by: Dict[str, List[Span]] = {}
    for s in tracer.spans:
        if s.op >= 0:
            by.setdefault(s.name, []).append(s)
    n_ops = max(len(by.get(OP, [])), 1)
    encodes = by.get(ENCODE, [])
    train_enc = [s for s in encodes if s.attrs and s.attrs["training"]]
    text_enc = [s for s in encodes if s.attrs and s.attrs["side"] == "text"]
    text_rows = sum(s.attrs["rows"] for s in text_enc)
    tapes = by.get("tensor.backward", [])
    tunes = by.get("tuning.tune", [])
    trainable = by.get("freeze.trainable_names", [])
    n_tunes = max(len(tunes), 1)
    tune_time = sum(s.duration for s in tunes)
    validate = by.get("tuning.validate", [])

    # sweep split: eval spans directly under an op, before/after its first tune
    base_eval, point_eval, n_sweeps = 0.0, 0.0, 0
    for op in sorted({s.op for s in by.get(OP, [])}):
        op_tunes = [s for s in tunes if s.op == op]
        if not op_tunes:
            continue
        n_sweeps += 1
        first = min(s.start for s in op_tunes)
        for name in EVAL_SPANS:
            for s in by.get(name, []):
                if s.op == op and tracer.spans[s.parent].name == OP:
                    if s.start < first:
                        base_eval += s.duration
                    else:
                        point_eval += s.duration

    return {
        "encoder.encode_batch_query_ms": _mean_ms(
            [s for s in train_enc if s.attrs["side"] == "query"]),
        "encoder.encode_batch_text_ms": _mean_ms(
            [s for s in train_enc if s.attrs["side"] == "text"]),
        "encoder.text_rows_reencoded_frac":
            sum(s.attrs["reencoded"] for s in text_enc) / text_rows if text_rows else 0.0,
        "encoder.encode_many_calls": len(by.get("encoder.encode_many", [])) / n_ops,
        "encoder.encode_many_ms": _mean_ms(by.get("encoder.encode_many", [])),
        "encoder.rows_encoded": sum(s.attrs["rows"] for s in encodes if s.attrs) / n_ops,
        "encoder.f64_outputs": sum(1 for s in encodes if s.attrs and s.attrs["f64"]) / n_ops,
        "tensor.backward_ms": _mean_ms(tapes),
        "tensor.tape_nodes": statistics.fmean(s.attrs["nodes"] for s in tapes) if tapes else 0.0,
        "tensor.tape_mb": statistics.fmean(s.attrs["bytes"] for s in tapes) / 2**20
        if tapes else 0.0,
        "optim.step_ms": _mean_ms(by.get("optim.step", [])),
        "optim.loss_ms": _mean_ms(by.get("optim.loss", [])),
        "freeze.trainable_tensors": sum(s.attrs["tensors"] for s in trainable) / n_tunes
        if tunes else 0.0,
        "freeze.trainable_elems": sum(s.attrs["elems"] for s in trainable) / n_tunes
        if tunes else 0.0,
        "tuning.step_ms": _mean_ms(by.get(STEP, [])),
        "tuning.self_ms": _mean_ms(by.get(STEP, []), self_time=True),
        "tuning.validate_ms": _mean_ms(validate),
        "tuning.validate_share": sum(s.duration for s in validate) / tune_time
        if tune_time else 0.0,
        "tuning.copy_ms": _mean_ms(by.get("tuning.copy", [])),
        "metrics.pnd_ms": _mean_ms(by.get("metrics.pnd", [])),
        "metrics.rank_metrics_ms": _mean_ms(by.get("metrics.rank_metrics", [])),
        "grid.grid_eval_self_ms": _mean_ms(by.get("grid.grid_eval", []), self_time=True),
        "lab.judgments_self_ms": _mean_ms(by.get("lab.judgments", []), self_time=True),
        "lab.sweep_base_eval_ms": 1e3 * base_eval / n_sweeps if n_sweeps else 0.0,
        "lab.sweep_point_eval_ms": 1e3 * point_eval / len(tunes) if n_sweeps else 0.0,
        "data.gen_synth_s": statistics.median(setup_spans["data.gen_synth"]),
        "encoder.init_s": statistics.median(setup_spans["encoder.init"]),
    }


def step_split(tracer: Tracer) -> Dict[str, float]:
    """Share of training-step time per phase (query fwd, text fwd, loss,
    backward, optimizer, step self time), summed over all steps."""
    steps = [i for i, s in enumerate(tracer.spans) if s.name == STEP and s.op >= 0]
    total = sum(tracer.spans[i].duration for i in steps)
    if not total:
        return {}
    parts = {"query_fwd": 0.0, "text_fwd": 0.0, "loss": 0.0, "backward": 0.0,
             "optimizer": 0.0}
    step_ids = set(steps)
    for s in tracer.spans:
        if s.parent not in step_ids:
            continue
        if s.name == ENCODE:
            parts["query_fwd" if s.attrs["side"] == "query" else "text_fwd"] += s.duration
        elif s.name == "optim.loss":
            parts["loss"] += s.duration
        elif s.name == "tensor.backward":
            parts["backward"] += s.duration
        elif s.name == "optim.step":
            parts["optimizer"] += s.duration
    parts["self"] = sum(tracer.spans[i].self_time for i in steps)
    return {k: v / total for k, v in parts.items()}

#!/usr/bin/env python3
"""Benchmark of the duotune lab's library API.

    python3 perfbench/run.py --workload tune-query --seed 1 --seconds 20 --trace 0

One process, BLAS pinned to one thread, one caller in a closed loop: each
operation starts when the previous one has returned. The run builds its
inputs from --seed (set-up is repeated and its median reported), runs one
untimed operation whose outputs are checked against independent recounts,
then repeats the operation for --seconds and checks that every repetition
reproduces it bit for bit. Python's GC keeps its default thresholds and is
never forced between operations.

--trace 0 prints the end-to-end metrics; --trace 1 measures untraced for
half the time and traced for the other half, and prints the per-layer
metrics, the traced/untraced overhead and the training-step split. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads as W  # noqa: E402  (imports duotune from ../src or fails)
from tracer import OP, Tracer, layer_metrics, step_split  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7
MIN_OPS = 2

END_TO_END = {"triplets_per_s": "1/s", "op_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
HIGHER_IS_BETTER = {"triplets_per_s"}
PER_LAYER = {
    "encoder.encode_batch_query_ms": "ms", "encoder.encode_batch_text_ms": "ms",
    "encoder.text_rows_reencoded_frac": "ratio", "encoder.encode_many_calls": "count",
    "encoder.encode_many_ms": "ms", "encoder.rows_encoded": "count",
    "encoder.f64_outputs": "count", "tensor.backward_ms": "ms", "tensor.tape_nodes": "count",
    "tensor.tape_mb": "MB", "optim.step_ms": "ms", "optim.loss_ms": "ms",
    "freeze.trainable_tensors": "count", "freeze.trainable_elems": "count",
    "tuning.step_ms": "ms", "tuning.self_ms": "ms", "tuning.validate_ms": "ms",
    "tuning.validate_share": "ratio", "tuning.copy_ms": "ms", "metrics.pnd_ms": "ms",
    "metrics.rank_metrics_ms": "ms", "grid.grid_eval_self_ms": "ms",
    "lab.judgments_self_ms": "ms", "lab.sweep_base_eval_ms": "ms",
    "lab.sweep_point_eval_ms": "ms", "data.gen_synth_s": "s", "encoder.init_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def _blas_threads():
    """OpenBLAS's own thread count, read from the library NumPy loaded."""
    for path in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "gc_thresholds": list(gc.get_threshold()), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def tail(values, higher_is_better: bool) -> str:
    """The highest percentile with at least ten samples beyond it (worse side)."""
    s = sorted(values, reverse=higher_is_better)
    n = len(s)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return f"p{p:g} {s[rank - 1]:.6g} ({n - rank} beyond)"
    return "no percentile has 10 samples beyond it"


@contextmanager
def _timed(store: dict, name: str):
    t0 = perf_counter()
    yield
    store.setdefault(name, []).append(perf_counter() - t0)


def setup(workload, seed: int):
    """Set up SETUPS times; returns (inputs, total times, per-phase times, problems)."""
    totals, phases, digests = [], {}, set()
    for _ in range(SETUPS):
        t0 = perf_counter()
        inp = workload.setup(seed, lambda name: _timed(phases, name))
        totals.append(perf_counter() - t0)
        digests.add(inp.digest)
    problems = [] if len(digests) == 1 else ["set-up is not deterministic in its seed"]
    return inp, totals, phases, problems


def closed_loop(workload, inp, seconds: float, reference: str, span=None):
    """Repeat the operation for `seconds`; returns (samples, ops, failed, problems)."""
    span = span or (lambda name: nullcontext())
    samples, problems = {}, []
    ops = failed = 0
    last = 0.0
    deadline = perf_counter() + seconds
    while ops < MIN_OPS or perf_counter() + last <= deadline:
        t0 = perf_counter()
        ops += 1
        try:
            with span(OP):
                out = workload.run(inp)
        except Exception as exc:    # a failed op is counted and the loop goes on
            failed += 1
            problems.append(f"op {ops}: {type(exc).__name__}: {exc}")
            last = perf_counter() - t0
            continue
        last = perf_counter() - t0
        if out.digest != reference:
            failed += 1
            problems.append(f"op {ops}: output differs from the first operation's")
        for k, v in out.samples.items():
            samples.setdefault(k, []).extend(v)
    return samples, ops, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = W.WORKLOADS[args.workload]()

    print("env " + json.dumps(environment(args), sort_keys=True))
    inp, setup_times, phases, problems = setup(workload, args.seed)
    print(f"setup_s: median {statistics.median(setup_times):.6g} over {SETUPS} set-ups "
          f"(gen_synth {statistics.median(phases['data.gen_synth']):.6g}, "
          f"init {statistics.median(phases['encoder.init']):.6g}, "
          f"tokenize {statistics.median(phases['encoder.tokenize']):.6g})")

    # first operation: untimed, checked against the independent recounts
    attempted, failed = 1, 0
    try:
        first, extra = workload.run_checked(inp)
        problems += workload.check(inp, first, extra)
        reference = first.digest
        del first, extra
    except Exception as exc:
        problems.append(f"first op: {type(exc).__name__}: {exc}")
        reference = None
    failed += bool(problems)

    if args.trace == 0:
        samples, ops, bad, more = closed_loop(workload, inp, args.seconds, reference)
    else:
        untraced, u_ops, u_bad, u_more = closed_loop(workload, inp, args.seconds / 2,
                                                     reference)
        tracer = Tracer(inp.model.config)
        tracer.register_model(inp.model)
        with tracer.installed():
            samples, ops, bad, more = closed_loop(workload, inp, args.seconds / 2,
                                                  reference, tracer.span)
        unrestored = tracer.unrestored()
        ops += u_ops
        bad += u_bad + bool(unrestored)
        more = u_more + more + [f"{name} was not restored" for name in unrestored]
    attempted += ops
    failed += bad
    problems += more

    for key, label in workload.labels.items():
        if key in samples:
            print(f"{label}: median {statistics.median(samples[key]):.6g} "
                  f"{END_TO_END[key]}, {tail(samples[key], key in HIGHER_IS_BETTER)}, "
                  f"n={len(samples[key])}")
    print(f"failed_frac: {failed}/{attempted}")
    for p in problems[:20]:
        print(f"problem: {p}")
    if not samples or (args.trace == 1 and not untraced):
        print("no operation completed", file=sys.stderr)
        return 1

    if args.trace == 0:
        values = {k: statistics.median(samples[k]) for k in workload.labels}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setup_times)
        metrics = {k: metric(values[k], END_TO_END[k]) for k in END_TO_END}
    else:
        layer = layer_metrics(tracer, phases)
        traced_ms = statistics.median(samples["op_ms"])
        untraced_ms = statistics.median(untraced["op_ms"])
        layer["bench.trace_overhead_frac"] = traced_ms / untraced_ms - 1.0
        print(f"trace overhead: {workload.labels['op_ms']} traced {traced_ms:.6g} ms, "
              f"untraced {untraced_ms:.6g} ms ({100 * (traced_ms / untraced_ms - 1):+.2f}%)")
        split = step_split(tracer)
        if split:
            print("step split: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in split.items()))
        out_dir = ROOT / "perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for k in PER_LAYER:
            print(f"{k}: {layer[k]:.6g} {PER_LAYER[k]}")
        metrics = {k: metric(layer[k], PER_LAYER[k]) for k in PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

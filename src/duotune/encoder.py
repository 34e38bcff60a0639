"""A small BERT-layout text encoder with HuggingFace-style parameter names.

The parameter tree is a plain ordered dict of numpy arrays keyed by names
like `encoder.layer.3.output.dense.weight`, so freezing specs and layer
diagnostics can address the exact entries they talk about. Forward passes
run through the autodiff tape in `tensor.py`; evaluation passes just never
call backward.
"""

from __future__ import annotations

import base64
import ctypes
import glob
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from functools import lru_cache, partial
from itertools import groupby, islice
from threading import Lock
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T

PAD_ID = 0
UNK_ID = 1
ATTENTION_MASK_BIAS = -1e9

ParamTree = Dict[str, np.ndarray]
MEASURES = ("cosine", "euclidean")


class EncoderError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 512
    hidden: int = 64
    n_blocks: int = 4
    n_heads: int = 4
    intermediate: int = 256
    max_positions: int = 64
    n_token_types: int = 2

    def __post_init__(self):
        small = [k for k, v in asdict(self).items() if v < 1]
        if small:
            raise EncoderError(f"sizes must be >= 1: {', '.join(small)}")
        if self.hidden % self.n_heads != 0:
            raise EncoderError("hidden must be divisible by n_heads")


def param_shapes(config: EncoderConfig) -> Dict[str, tuple]:
    """Name -> shape, in stable iteration order."""
    h, inter = config.hidden, config.intermediate
    shapes: Dict[str, tuple] = {
        "embeddings.word_embeddings.weight": (config.vocab_size, h),
        "embeddings.position_embeddings.weight": (config.max_positions, h),
        "embeddings.token_type_embeddings.weight": (config.n_token_types, h),
        "embeddings.LayerNorm.weight": (h,),
        "embeddings.LayerNorm.bias": (h,),
    }
    for i in range(config.n_blocks):
        p = f"encoder.layer.{i}."
        for proj in ("query", "key", "value"):
            shapes[p + f"attention.self.{proj}.weight"] = (h, h)
            shapes[p + f"attention.self.{proj}.bias"] = (h,)
        shapes[p + "attention.output.dense.weight"] = (h, h)
        shapes[p + "attention.output.dense.bias"] = (h,)
        shapes[p + "attention.output.LayerNorm.weight"] = (h,)
        shapes[p + "attention.output.LayerNorm.bias"] = (h,)
        shapes[p + "intermediate.dense.weight"] = (inter, h)
        shapes[p + "intermediate.dense.bias"] = (inter,)
        shapes[p + "output.dense.weight"] = (h, inter)
        shapes[p + "output.dense.bias"] = (h,)
        shapes[p + "output.LayerNorm.weight"] = (h,)
        shapes[p + "output.LayerNorm.bias"] = (h,)
    return shapes


def init_params(config: EncoderConfig, rng: T.Rng, dtype=np.float32) -> ParamTree:
    """Truncated-normal weights (sigma 0.02), zero biases, identity LayerNorm."""
    tree: ParamTree = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("LayerNorm.weight"):
            tree[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(".bias"):
            tree[name] = np.zeros(shape, dtype=dtype)
        else:
            tree[name] = rng.truncated_normal(shape, sigma=0.02, dtype=dtype)
    return tree


def copy_tree(tree: ParamTree) -> ParamTree:
    return {k: v.copy() for k, v in tree.items()}


def trees_equal(a: ParamTree, b: ParamTree) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _stages(params: Dict[str, T.Tensor], ids: np.ndarray, config: EncoderConfig,
            x: Optional[T.Tensor], start: int, stop: int) -> T.Tensor:
    """Check the (B, L) `ids`, then run stages start..stop-1 on `x`: stage 0
    is the embeddings (which ignore `x`), stage i + 1 is block i."""
    if ids.ndim != 2:
        raise EncoderError("token_ids must be (batch, length)")
    B, L = ids.shape
    if L > config.max_positions:
        raise EncoderError(f"sequence length {L} exceeds max_positions {config.max_positions}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise EncoderError("token id out of vocabulary range")
    mask = (ids != PAD_ID)
    if not mask.any(axis=1).all():
        raise EncoderError("a sequence with no non-pad tokens cannot be encoded")
    dtype = params["embeddings.LayerNorm.weight"].dtype
    att_bias = np.where(mask, 0.0, ATTENTION_MASK_BIAS).astype(dtype)[:, None, None, :]
    # Outside a tape nothing else holds an op's output, so each temporary is
    # a call argument or deleted after use: it is freed once it has been read.
    for stage in range(start, stop):
        if stage == 0:
            x = T.add_layer_norm(
                T.add(T.embedding(params["embeddings.word_embeddings.weight"], ids),
                      T.embedding(params["embeddings.position_embeddings.weight"],
                                  np.broadcast_to(np.arange(L), (B, L)))),
                T.embedding(params["embeddings.token_type_embeddings.weight"],
                            np.zeros((B, L), dtype=np.int64)),
                params["embeddings.LayerNorm.weight"], params["embeddings.LayerNorm.bias"])
            continue
        p = f"encoder.layer.{stage - 1}."

        def wb(name: str) -> tuple:
            return params[p + name + ".weight"], params[p + name + ".bias"]

        ctx = T.attention(T.linear(x, *wb("attention.self.query")),
                          T.linear(x, *wb("attention.self.key")),
                          T.linear(x, *wb("attention.self.value")), att_bias, config.n_heads)
        x = T.add_layer_norm(x, T.linear(ctx, *wb("attention.output.dense")),
                             *wb("attention.output.LayerNorm"))
        del ctx
        x = T.add_layer_norm(x, T.linear(T.gelu(T.linear(x, *wb("intermediate.dense"))),
                                         *wb("output.dense")), *wb("output.LayerNorm"))
    return x


# sequences per forward in evaluation-mode batch encodes
ENCODE_BATCH = 256

# (boundary stage, token sequence -> (own length, hidden) activations there)
PrefixTable = Tuple[int, Dict[Tuple[int, ...], np.ndarray]]


def encode_batch(params: Dict[str, T.Tensor], token_ids: np.ndarray,
                 config: EncoderConfig, prefix: Optional[PrefixTable] = None) -> T.Tensor:
    """Encode a (B, L) batch of token ids into unit-norm (B, hidden) embeddings.

    `params` holds tape leaves (see `wrap_params`). Pad positions (id 0) are
    masked out of attention keys and excluded from mean pooling.

    With a `prefix` (see `encode_prefix`) the forward starts from its rows,
    zero-padded; pad rows cannot reach non-pad outputs (masked softmax weights
    are exactly 0 and every other op works row by row).
    """
    ids = np.asarray(token_ids)
    dtype = next(iter(params.values())).dtype
    mask = (ids != PAD_ID)
    start, x = 0, None
    if prefix is not None:
        start, rows = prefix
        acts = np.zeros(ids.shape + (config.hidden,), dtype=dtype)
        for r, n in enumerate(mask.sum(axis=1)):
            acts[r, :n] = rows[tuple(ids[r, :n].tolist())]
        x = T.Tensor(acts, None, requires_grad=False)
    x = _stages(params, ids, config, x, start, config.n_blocks + 1)

    # mean over non-pad positions, then L2 normalize
    fmask = T.Tensor(mask[:, :, None].astype(dtype), None, requires_grad=False)
    inv_counts = (1.0 / mask.sum(axis=1, keepdims=True)).astype(dtype)
    pooled = T.tsum(T.mul(x, fmask), axis=1)
    pooled = T.mul(pooled, T.Tensor(inv_counts, None, requires_grad=False))
    return T.l2_normalize(pooled)


# Chunk forwards call this name, which a wrapper swapped in for the module's
# `encode_batch` (perfbench/tracer.py: one span stack, not thread-safe) misses.
_encode_batch = encode_batch


def frozen_stages(trainable: Iterable[str], config: EncoderConfig) -> int:
    """How many leading stages (0 = embeddings, i + 1 = block i) hold none of
    the `trainable` parameter names; n_blocks + 1 when none trains."""
    return min((0 if n.startswith("embeddings.") else int(n.split(".")[2]) + 1
                for n in trainable), default=config.n_blocks + 1)


def _workers() -> int:
    """2 (the caller and one helper thread) when this process may use 2+ CPUs, else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cpus or 1)


@lru_cache(maxsize=None)
def _openblas() -> Optional[tuple]:
    """(get, set) of the thread count of the OpenBLAS that NumPy's wheels
    bundle, or None under another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _run_chunks(tasks: Sequence[Callable[[], np.ndarray]]) -> list:
    """Each task's result, in order, from the caller and (for 2+ tasks, with
    NumPy's OpenBLAS held to one thread meanwhile) one helper thread taking
    tasks by a shared index; NumPy, SciPy and BLAS drop the GIL in each. After a
    failure no task starts, and once the helper has stopped the lowest-index
    failure is raised, as a serial loop raises it."""
    results, errors, order, lock = [None] * len(tasks), {}, iter(range(len(tasks))), Lock()

    def work():
        while not errors:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except BaseException as e:      # raised on the caller, below
                errors[i] = e

    blas = _openblas() if len(tasks) > 1 and _workers() > 1 else None
    if blas is None:        # one task, one CPU, or a BLAS whose threads cannot be held to one
        work()
    else:
        threads = blas[0]()
        blas[1](1)          # two callers into a 2-thread OpenBLAS ran evaluation 20% slower
        try:
            with ThreadPoolExecutor(1) as helper:   # left once the helper has stopped
                helping = helper.submit(work)
                work()
                helping.result()
        finally:
            blas[1](threads)
    if errors:
        raise errors[min(errors)]
    return results


def encode_prefix(params: ParamTree, token_lists: Iterable[Sequence[int]],
                  config: EncoderConfig, stages: int) -> PrefixTable:
    """Evaluation-mode activations after the first `stages` stages (see
    `frozen_stages`) of each distinct sequence in `token_lists`, at its own
    length; valid while those stages hold no trainable parameter."""
    chunks = []     # up to ENCODE_BATCH sequences of one length
    for _, same_len in groupby(sorted({tuple(s) for s in token_lists}, key=len), key=len):
        seqs = list(same_len)
        chunks += [seqs[i:i + ENCODE_BATCH] for i in range(0, len(seqs), ENCODE_BATCH)]
    acts = _run_chunks([lambda c=c: _stages(wrap_params(T.Tape(), params), np.array(c), config,
                                            None, 0, stages).data for c in chunks])
    return stages, {seq: row for chunk, a in zip(chunks, acts) for seq, row in zip(chunk, a)}


def wrap_params(tape: T.Tape, tree: ParamTree,
                trainable: Iterable[str] = ()) -> Dict[str, T.Tensor]:
    """Wrap raw arrays into tape leaves; only `trainable` names get gradients."""
    train = set(trainable)
    return {name: tape.leaf(arr, param=name in train) for name, arr in tree.items()}


def encode(params: ParamTree, tokens: Sequence[int], config: EncoderConfig) -> np.ndarray:
    """Evaluation-mode encode of a single token sequence; returns (hidden,)."""
    return encode_many(params, [tokens], config)[0]


def pad_batch(token_lists: Sequence[Sequence[int]]) -> np.ndarray:
    """Right-pad token sequences with PAD_ID into a (N, longest) id array."""
    ids = np.full((len(token_lists), max(map(len, token_lists))), PAD_ID, dtype=np.int64)
    for r, toks in enumerate(token_lists):
        ids[r, :len(toks)] = toks
    return ids


def _forward(tree: ParamTree, token_lists, config: EncoderConfig, prefix) -> np.ndarray:
    return _encode_batch(wrap_params(T.Tape(), tree), pad_batch(token_lists), config,
                         prefix=prefix).data


def encode_groups(groups: Sequence[tuple], config: EncoderConfig,
                  memo: Optional[dict] = None) -> List[np.ndarray]:
    """Evaluation-mode encodes of (tower, token lists[, prefix]) groups: each
    group's (N, hidden) rows in order, right-padded per ENCODE_BATCH-row chunk,
    all chunks through one `_run_chunks`. A `memo` keeps groups without a prefix
    under ("many", the tower's `tree_digest`, config, token sequences): a hit or
    a repeat is not encoded again, and kept values are shared (write into none).
    With no memo nothing is hashed or kept."""
    out, digests, keys, pending, tasks, spans = [None] * len(groups), {}, {}, set(), [], []
    for g, (tree, toks, *prefix) in enumerate(groups):
        prefix = prefix[0] if prefix else None
        if memo is not None and prefix is None:
            digest = digests.get(id(tree)) or digests.setdefault(id(tree), tree_digest(tree))
            key = keys[g] = ("many", digest, config, tuple(map(tuple, toks)))
            if key in memo or key in pending:
                continue                    # taken from the memo below
            pending.add(key)
        if not toks:
            out[g] = np.zeros((0, config.hidden), dtype=next(iter(tree.values())).dtype)
            continue
        start = len(tasks)
        tasks += [partial(_forward, tree, toks[i:i + ENCODE_BATCH], config, prefix)
                  for i in range(0, len(toks), ENCODE_BATCH)]
        spans.append((g, start, len(tasks)))
    done = _run_chunks(tasks)
    for g, start, stop in spans:
        out[g] = np.concatenate(done[start:stop], axis=0)
    for g, key in keys.items():             # in group order: a repeat follows its first
        out[g] = memo.setdefault(key, out[g])
    return out


# (`encode_groups` groups, function of their encodes)
Plan = Tuple[List[tuple], Callable[[List[np.ndarray]], object]]


def run_plans(plans: Sequence[Plan], config: EncoderConfig, memo: Optional[dict] = None) -> list:
    """Each plan's function of its groups' encodes, from one `encode_groups` call."""
    encodes = iter(encode_groups([g for groups, _ in plans for g in groups], config, memo))
    return [finish(list(islice(encodes, len(groups)))) for groups, finish in plans]


def encode_many(params: ParamTree, token_lists: Sequence[Sequence[int]],
                config: EncoderConfig) -> np.ndarray:
    """Evaluation-mode batched encode with right-padding; returns (N, hidden)."""
    return encode_groups([(params, token_lists)], config)[0]


def tree_digest(tree: ParamTree) -> str:
    """Content digest of a parameter tree: names, dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for name in sorted(tree):
        h.update(f"{name}:{tree[name].dtype.str}{tree[name].shape}".encode())
        h.update(np.ascontiguousarray(tree[name]).tobytes())
    return h.hexdigest()


def similarity(a: np.ndarray, b: np.ndarray, measure: str) -> float:
    """Greater = more similar for both measures (euclidean is negated distance)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for v in (a, b):
        if abs(np.linalg.norm(v) - 1.0) > 1e-4:
            raise EncoderError("similarity expects unit-norm embeddings")
    if measure == "cosine":
        return float(a @ b)
    if measure == "euclidean":
        return -float(np.linalg.norm(a - b))
    raise EncoderError(f"unknown measure {measure!r}")


def measure_from_dots(dots: np.ndarray, measure: str) -> np.ndarray:
    """Similarities under `measure` from dot products of unit-norm rows;
    greater = more similar (euclidean is the negated distance)."""
    if measure == "cosine":
        return dots
    if measure == "euclidean":
        return -np.sqrt(np.maximum(2.0 - 2.0 * dots, 0.0))
    raise EncoderError(f"unknown measure {measure!r}")


def similarity_matrix(A: np.ndarray, B: np.ndarray, measure: str) -> np.ndarray:
    """Pairwise similarities for unit-norm rows; (len(A), len(B))."""
    return measure_from_dots(A.astype(np.float64) @ B.astype(np.float64).T, measure)


class Vocab:
    """Whitespace tokenizer over a fixed vocabulary with pad/unk slots."""

    PAD_TOKEN = "<pad>"
    UNK_TOKEN = "<unk>"

    def __init__(self, tokens: Sequence[str]):
        self.tokens = [self.PAD_TOKEN, self.UNK_TOKEN] + [
            t for t in tokens if t not in (self.PAD_TOKEN, self.UNK_TOKEN)]
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, text: str, max_len: Optional[int] = None) -> list[int]:
        ids = [self.index.get(tok, UNK_ID) for tok in text.split()]
        if max_len is not None:
            ids = ids[:max_len]
        if not ids:
            raise EncoderError("cannot tokenize empty text")
        return ids

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for t in self.tokens[2:]:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.strip()])


@dataclass
class DualEncoder:
    """Query/text twin: identical name sets, optionally divergent values."""

    config: EncoderConfig
    query_params: ParamTree
    text_params: ParamTree
    mode: str = "query-only"  # or "both-tuned"

    @classmethod
    def twin_init(cls, config: EncoderConfig, rng: T.Rng, mode: str = "query-only") -> "DualEncoder":
        base = init_params(config, rng)
        return cls(config, copy_tree(base), copy_tree(base), mode)

    def copy(self) -> "DualEncoder":
        return DualEncoder(self.config, copy_tree(self.query_params),
                           copy_tree(self.text_params), self.mode)


# --- checkpoint container ------------------------------------------------
#
# Line-oriented text format, byte-stable across runs:
#   line 1: JSON header (sorted keys) with format tag, config, dtype, mode
#   then one line per tensor: "<section>.<name>\t<shape json>\t<base64 raw LE bytes>"

CHECKPOINT_FORMAT = "duotune-dual-encoder"
CHECKPOINT_VERSION = 1


def _tensor_line(name: str, arr: np.ndarray) -> str:
    raw = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return "\t".join([name, json.dumps(list(arr.shape)), base64.b64encode(raw).decode("ascii")])


def save_dual(model: DualEncoder, path) -> None:
    dtype = next(iter(model.query_params.values())).dtype
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": dtype.name,
        "mode": model.mode,
        "config": asdict(model.config),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for section, tree in (("query", model.query_params), ("text", model.text_params)):
        for name, arr in tree.items():
            lines.append(_tensor_line(f"{section}.{name}", arr))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dual(path) -> DualEncoder:
    """Read a `save_dual` checkpoint. A wrong format tag or version, a tensor
    count, name or shape other than the config's, a duplicated tensor or
    truncated data raises EncoderError naming `path`."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EncoderError(f"{path}: empty checkpoint")
    try:
        header = json.loads(lines[0])
    except ValueError as e:
        raise EncoderError(f"{path}: unreadable checkpoint header") from e
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise EncoderError(f"{path}: not a dual-encoder checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise EncoderError(f"{path}: checkpoint version {header.get('version')!r}, "
                           f"expected {CHECKPOINT_VERSION}")
    try:
        dtype = np.dtype(header["dtype"])
        config = EncoderConfig(**header["config"])
        mode = header["mode"]
    except (KeyError, TypeError) as e:
        raise EncoderError(f"{path}: bad checkpoint header field {e}") from e
    shapes = param_shapes(config)
    trees: dict[str, ParamTree] = {"query": {}, "text": {}}
    if len(lines) - 1 != len(trees) * len(shapes):
        raise EncoderError(f"{path}: {len(lines) - 1} tensor lines, its config "
                           f"needs {len(trees) * len(shapes)}")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        section, _, pname = fields[0].partition(".")
        where = f"{path}, line {lineno}"
        if len(fields) != 3 or section not in trees or pname not in shapes:
            raise EncoderError(f"{where}: not a tensor line of this config")
        if pname in trees[section]:
            raise EncoderError(f"{where}: duplicate tensor {fields[0]}")
        try:
            shape = tuple(json.loads(fields[1]))
            arr = np.frombuffer(base64.b64decode(fields[2], validate=True),
                                dtype=dtype.newbyteorder("<"))
        except (ValueError, TypeError) as e:
            raise EncoderError(f"{where}: unreadable tensor {fields[0]}") from e
        if shape != shapes[pname]:
            raise EncoderError(f"{where}: {fields[0]} has shape {list(shape)}, "
                               f"its config says {list(shapes[pname])}")
        if arr.size != np.prod(shape):
            raise EncoderError(f"{where}: {fields[0]} holds {arr.size} values, "
                               f"its shape needs {int(np.prod(shape))}")
        trees[section][pname] = arr.astype(dtype).reshape(shape)
    return DualEncoder(config, trees["query"], trees["text"], mode)

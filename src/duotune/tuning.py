"""Contrastive tuning loop: epochs, validation-gated acceptance, idle-epoch
stopping, and best-checkpoint tracking.

An epoch is accepted only if both the validation loss and the validation
error count strictly decrease relative to the best accepted state so far.
The run stops after `idle_epochs_to_stop` consecutive non-improvements and
returns the checkpoint of the last accepted epoch (or the initial model if
none was accepted).

While no text-tower parameter is trainable (always in query-only mode),
each distinct positive and negative is encoded once per `tune` call and
steps and validation read those rows; in both-tuned mode the text tower is
re-encoded every step and every validation pass.

Likewise, each distinct query's activations after the query tower's frozen
prefix (its leading stages without a trainable parameter; see
`encode_prefix`) are computed once per `tune` call, and steps and
validation run only the later blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .tensor import slice_rows as _slice
from .data import TripletSample
from .encoder import (DualEncoder, EncoderConfig, PrefixTable, Vocab, encode_batch,
                      encode_many, encode_prefix, frozen_stages, pad_batch, token_limit,
                      wrap_params)
from .freeze import parse_freeze_spec, trainable_names
from .optim import (LossSpec, Optimizer, OptimizerSpec, SchedulerSpec,
                    scheduler_value, triplet_margin_loss, triplet_margin_loss_np)


class TuningError(RuntimeError):
    pass


@dataclass(frozen=True)
class TuneConfig:
    batch_size: int = 14
    epoch_policy: str = "batches"       # "batches" or "samples"
    epoch_size: int = 1000              # batches (or samples) per epoch
    idle_epochs_to_stop: int = 10
    max_epochs: int = 1000
    freeze: str = "emb"
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    scheduler: Optional[SchedulerSpec] = None
    loss: LossSpec = field(default_factory=LossSpec)
    seed: int = 0
    mode: str = "query-only"            # or "both-tuned"
    max_seq_len: int = 64

    def __post_init__(self):
        if self.batch_size < 1:
            raise TuningError("batch_size must be >= 1")
        if self.idle_epochs_to_stop < 1:
            raise TuningError("idle_epochs_to_stop must be >= 1")
        if self.epoch_policy not in ("batches", "samples"):
            raise TuningError(f"unknown epoch policy {self.epoch_policy!r}")
        if self.mode not in ("query-only", "both-tuned"):
            raise TuningError(f"unknown mode {self.mode!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.scheduler is None:
            d.pop("scheduler")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TuneConfig":
        d = dict(d)
        d["optimizer"] = OptimizerSpec(**d.get("optimizer", {}))
        if "scheduler" in d and d["scheduler"] is not None:
            d["scheduler"] = SchedulerSpec(**d["scheduler"])
        else:
            d["scheduler"] = None
        d["loss"] = LossSpec(**d.get("loss", {}))
        return cls(**d)

    @property
    def batches_per_epoch(self) -> int:
        if self.epoch_policy == "batches":
            return self.epoch_size
        n = self.epoch_size // self.batch_size
        if n < 1:
            raise TuningError("epoch_size smaller than one batch")
        return n


@dataclass
class EpochRecord:
    epoch: int
    val_loss: float
    val_errors: int
    accepted: bool


@dataclass
class RunRecord:
    initial_loss: float
    initial_errors: int
    epochs: List[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0                 # 0 = initial model
    total_steps: int = 0
    stop_reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _tokenize_triplets(samples: Sequence[TripletSample], vocab: Vocab,
                       max_len: int) -> List[Tuple[list, list, list]]:
    """Take the first positive and first negative of each sample."""
    out = []
    for s in samples:
        if not s.positives or not s.negatives:
            raise TuningError("tuning triplets need >=1 positive and >=1 negative")
        out.append((vocab.encode(s.query, max_len),
                    vocab.encode(s.positives[0], max_len),
                    vocab.encode(s.negatives[0], max_len)))
    return out


TextTable = Dict[Tuple[int, ...], np.ndarray]


def _text_table(model: DualEncoder, token_triplets) -> TextTable:
    """Token sequence -> text-tower row, for every distinct positive and
    negative in `token_triplets`. Valid only while the text tower is frozen."""
    seqs = list(dict.fromkeys(tuple(s) for t in token_triplets for s in t[1:]))
    return dict(zip(seqs, encode_many(model.text_params, seqs, model.config)))


def _text_rows(leaves: Optional[Dict[str, T.Tensor]], seqs: Sequence[Sequence[int]],
               config: EncoderConfig, table: Optional[TextTable]) -> T.Tensor:
    """Text-tower embeddings of `seqs`: tape-free constant rows of `table`
    when one is given (`leaves` unused), else a fresh encode through `leaves`."""
    if table is None:
        return encode_batch(leaves, pad_batch(seqs), config)
    return T.Tensor(np.stack([table[tuple(s)] for s in seqs]), None, requires_grad=False)


def validate(model: DualEncoder, valid_tokens: Sequence[Tuple[list, list, list]],
             loss_spec: LossSpec, table: Optional[TextTable] = None,
             prefix: Optional[PrefixTable] = None) -> Tuple[float, int]:
    """(mean triplet loss, count of triplets where the positive is not
    strictly closer than the negative to the anchor). Text rows come from
    `table` when given (see `_text_rows`), anchors start from `prefix`."""
    if not valid_tokens:
        raise TuningError("validation set is empty")
    anchors = encode_many(model.query_params, [t[0] for t in valid_tokens], model.config,
                          prefix=prefix)
    texts = _text_rows(wrap_params(T.Tape(), model.text_params),
                       [t[1] for t in valid_tokens] + [t[2] for t in valid_tokens],
                       model.config, table).data
    pos, neg = np.split(texts, 2)
    losses = triplet_margin_loss_np(anchors, pos, neg, loss_spec.margin)
    dp = np.linalg.norm(anchors - pos, axis=-1)
    dn = np.linalg.norm(anchors - neg, axis=-1)
    errors = int(np.sum(dp >= dn))
    return float(losses.mean()), errors


def validate_samples(model: DualEncoder, samples: Sequence[TripletSample],
                     vocab: Vocab, loss_spec: LossSpec = LossSpec(),
                     max_len: int = 64) -> Tuple[float, int]:
    tokens = _tokenize_triplets(samples, vocab, token_limit(max_len, model.config))
    return validate(model, tokens, loss_spec)


def _epoch_index_stream(n_samples: int, needed: int, rng: T.Rng) -> np.ndarray:
    """Fresh permutations, concatenated until `needed` indices are available."""
    chunks = []
    got = 0
    while got < needed:
        perm = rng.permutation(n_samples)
        chunks.append(perm)
        got += n_samples
    return np.concatenate(chunks)[:needed]


def tune(model: DualEncoder, train: Sequence[TripletSample],
         valid: Sequence[TripletSample], cfg: TuneConfig, vocab: Vocab,
         validate_fn: Optional[Callable[[DualEncoder], Tuple[float, int]]] = None,
         ) -> Tuple[DualEncoder, RunRecord]:
    """Tune `model` in place-free fashion; returns (best checkpoint, record).

    `validate_fn` defaults to the real validation pass; tests may inject a
    stub to exercise the acceptance rule.
    """
    if not valid and validate_fn is None:
        raise TuningError("validation set is empty")
    if not train:
        raise TuningError("training set is empty")

    work = model.copy()
    spec = parse_freeze_spec(cfg.freeze)
    towers = {"query": work.query_params}
    if cfg.mode == "both-tuned":
        towers["text"] = work.text_params
    # side -> trainable names in tree order; the optimizer steps "side.name"
    # keys. Optimizer steps update the arrays in place, so `params` stays valid.
    trainable = {side: trainable_names(spec, tree.keys()) for side, tree in towers.items()}
    params = {f"{side}.{n}": towers[side][n] for side, names in trainable.items() for n in names}

    max_len = token_limit(cfg.max_seq_len, model.config)
    train_tok = _tokenize_triplets(train, vocab, max_len)
    valid_tok = _tokenize_triplets(valid, vocab, max_len) if valid else []
    table = None if trainable.get("text") else _text_table(work, train_tok + valid_tok)
    # steps wrap the text tower only while it trains; else its rows come from `table`
    wrapped = list(towers) if table is None else ["query"]
    stages = frozen_stages(trainable["query"], work.config)
    prefix = None if stages == 0 else encode_prefix(
        work.query_params, [t[0] for t in train_tok + valid_tok], work.config, stages)

    if validate_fn is None:
        validate_fn = lambda m: validate(m, valid_tok, cfg.loss, table, prefix)

    optimizer = Optimizer(cfg.optimizer)
    rng = T.Rng(cfg.seed).spawn(1)

    init_loss, init_errors = validate_fn(work)
    record = RunRecord(initial_loss=init_loss, initial_errors=init_errors)
    best_loss, best_errors = init_loss, init_errors
    best = work.copy()
    idle = 0
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = _epoch_index_stream(len(train_tok), cfg.batches_per_epoch * cfg.batch_size, rng)
        for b in range(cfg.batches_per_epoch):
            batch = [train_tok[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            tape = T.Tape()
            leaves = {side: wrap_params(tape, towers[side], trainable[side]) for side in wrapped}
            anchors = encode_batch(leaves["query"], pad_batch([t[0] for t in batch]),
                                   work.config, prefix=prefix)
            texts = _text_rows(leaves.get("text"), [t[1] for t in batch] + [t[2] for t in batch],
                               work.config, table)
            n = len(batch)
            pos = _slice(texts, 0, n)
            neg = _slice(texts, n, 2 * n)
            loss = triplet_margin_loss(anchors, pos, neg, cfg.loss)
            if not np.isfinite(loss.item()):
                raise TuningError(f"non-finite loss at epoch {epoch}, batch {b}")
            tape.backward(loss)

            lr = None
            if cfg.scheduler is not None:
                lr = scheduler_value(cfg.scheduler, step)
            grads = {f"{side}.{n}": leaves[side][n].grad
                     for side, names in trainable.items() for n in names
                     if leaves[side][n].grad is not None}
            optimizer.step(params, grads, lr=lr)
            step += 1

        val_loss, val_errors = validate_fn(work)
        accepted = val_loss < best_loss and val_errors < best_errors
        record.epochs.append(EpochRecord(epoch, val_loss, int(val_errors), accepted))
        if accepted:
            best_loss, best_errors = val_loss, val_errors
            best = work.copy()
            record.best_epoch = epoch
            idle = 0
        else:
            idle += 1
            if idle >= cfg.idle_epochs_to_stop:
                record.stop_reason = f"{cfg.idle_epochs_to_stop} consecutive idle epochs"
                break
    else:
        record.stop_reason = f"max_epochs ({cfg.max_epochs}) reached"

    record.total_steps = step
    return best, record

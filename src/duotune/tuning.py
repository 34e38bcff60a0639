"""Contrastive tuning loop: epochs, validation-gated acceptance, idle-epoch
stopping, and best-checkpoint tracking.

An epoch is accepted only if both the validation loss and the validation
error count strictly decrease relative to the best accepted state so far.
The run stops after `idle_epochs_to_stop` consecutive non-improvements and
returns the checkpoint of the last accepted epoch (or the initial model if
none was accepted).

Each tower's frozen prefix (its leading stages without a trainable
parameter; see `frozen_stages`) is computed once per `tune` call for each
distinct sequence the tower reads (see `encode_prefix`), and steps and
validation run only the later stages. A tower where nothing trains (the
text tower in query-only mode) is thus encoded once per call, and each
step only pools its rows.

The towers share no array until the loss, so each trained tower's forward,
and then its backward and optimizer update, is one task of `_run_chunks`
(one per core, up to 2); the loss runs on the caller and seeds each tower's
backward. A tower where nothing trains runs on the caller, so a query-only
step starts no thread. Each tower runs the same ops in the same order either
way, so the bits do not depend on the thread count.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .data import TripletSample
from .encoder import (DualEncoder, PrefixTable, Vocab, _run_chunks, encode_batch,
                      encode_groups, encode_prefix, frozen_stages, pad_batch, wrap_params)
from .freeze import parse_freeze_spec, trainable_names
from .optim import (FIXED, LossSpec, OptimError, Optimizer, OptimizerSpec, SchedulerSpec,
                    scheduler_value, triplet_margin_loss)


class TuningError(ValueError):
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
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    loss: LossSpec = field(default_factory=LossSpec)
    seed: int = 0
    mode: str = "query-only"            # or "both-tuned"

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epoch_size", 1), ("idle_epochs_to_stop", 1),
                          ("max_epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TuningError(f"{name} must be an integer, not {value!r}")
            if value < low:
                raise TuningError(f"{name} must be >= {low}")
        if self.epoch_policy not in ("batches", "samples"):
            raise TuningError(f"unknown epoch policy {self.epoch_policy!r}")
        if self.epoch_policy == "samples" and self.epoch_size < self.batch_size:
            raise TuningError(f"epoch_size {self.epoch_size} is smaller than one batch "
                              f"of {self.batch_size} under the samples epoch policy")
        if self.mode not in ("query-only", "both-tuned"):
            raise TuningError(f"unknown mode {self.mode!r}")
        # a schedule starts from the optimizer's lr
        object.__setattr__(self, "scheduler", replace(self.scheduler, lr0=self.optimizer.lr))

    def check_schedule(self) -> "TuneConfig":
        """self, once the schedule reaches the run's last step (else OptimError). Only
        new runs are checked: idle epochs may end a recorded run before its schedule."""
        scheduler_value(self.scheduler, max(0, self.max_epochs * self.batches_per_epoch - 1))
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "TuneConfig":
        d = dict(d)
        d.pop("max_seq_len", None)      # written before truncation came from the model
        opt = dict(d.get("optimizer", {}))
        for key, value in FIXED.items():    # written while they were OptimizerSpec fields
            if opt.pop(key, value) != value:
                raise TuningError(f"optimizer {key} is fixed at {value}: cannot reproduce")
        d["optimizer"] = OptimizerSpec(**opt)
        d["scheduler"] = SchedulerSpec(**(d.get("scheduler") or {}))    # null: no schedule
        d["loss"] = LossSpec(**d.get("loss", {}))
        return cls(**d)

    @property
    def batches_per_epoch(self) -> int:
        if self.epoch_policy == "batches":
            return self.epoch_size
        return self.epoch_size // self.batch_size


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


def validate(model: DualEncoder, valid_tokens: Sequence[Tuple[list, list, list]],
             loss_spec: LossSpec,
             prefixes: Optional[Dict[str, PrefixTable]] = None) -> Tuple[float, int]:
    """(mean triplet loss, count of triplets where the positive is not
    strictly closer than the negative to the anchor). Each tower's forward
    starts from its entry of `prefixes` ("query", "text"), when it has one."""
    if not valid_tokens:
        raise TuningError("validation set is empty")
    prefixes = prefixes or {}
    anchors, texts = encode_groups(
        [(model.query_params, [t[0] for t in valid_tokens], prefixes.get("query")),
         (model.text_params, [t[1] for t in valid_tokens] + [t[2] for t in valid_tokens],
          prefixes.get("text"))], model.config)
    pos, neg = np.split(texts, 2)
    dp = np.linalg.norm(anchors - pos, axis=-1)
    dn = np.linalg.norm(anchors - neg, axis=-1)
    losses = np.maximum(0.0, dp - dn + loss_spec.margin)
    return float(losses.mean()), int(np.sum(dp >= dn))


def validate_samples(model: DualEncoder, samples: Sequence[TripletSample],
                     vocab: Vocab, loss_spec: LossSpec = LossSpec()) -> Tuple[float, int]:
    tokens = _tokenize_triplets(samples, vocab, model.config.max_positions)
    return validate(model, tokens, loss_spec)


def _epoch_index_stream(n_samples: int, needed: int, rng: T.Rng) -> np.ndarray:
    """Fresh permutations, concatenated until `needed` indices are available."""
    n_perms = -(-needed // n_samples)
    return np.concatenate([rng.permutation(n_samples) for _ in range(n_perms)])[:needed]


def tune(model: DualEncoder, train: Sequence[TripletSample],
         valid: Sequence[TripletSample], cfg: TuneConfig, vocab: Vocab,
         validate_fn: Optional[Callable[[DualEncoder], Tuple[float, int]]] = None,
         memo: Optional[dict] = None) -> Tuple[DualEncoder, RunRecord]:
    """Tune `model` in place-free fashion; returns (best checkpoint, record).

    `validate_fn` defaults to the real validation pass; tests may inject a
    stub to exercise the acceptance rule. `encode_prefix` keeps tables in `memo`.
    """
    if not valid and validate_fn is None:
        raise TuningError("validation set is empty")
    if not train:
        raise TuningError("training set is empty")

    work = model.copy()
    spec = parse_freeze_spec(cfg.freeze)
    towers = {"query": work.query_params, "text": work.text_params}
    trained = list(towers) if cfg.mode == "both-tuned" else ["query"]
    # side -> trainable names in tree order; each tower's optimizer steps its own tree
    trainable = {side: trainable_names(spec, towers[side].keys()) for side in trained}

    train_tok = _tokenize_triplets(train, vocab, model.config.max_positions)
    valid_tok = _tokenize_triplets(valid, vocab, model.config.max_positions)
    seqs = {"query": [t[0] for t in train_tok + valid_tok],
            "text": [s for t in train_tok + valid_tok for s in t[1:]]}
    prefixes = {side: encode_prefix(tree, seqs[side], work.config, stages, memo)
                for side, tree in towers.items()
                if (stages := frozen_stages(trainable.get(side, ()), work.config))}

    if validate_fn is None:
        validate_fn = lambda m: validate(m, valid_tok, cfg.loss, prefixes)

    optimizers = {side: Optimizer(cfg.optimizer) for side in trained}     # each counts every step
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
            n = len(batch)
            ids = {"query": pad_batch([t[0] for t in batch]),
                   "text": pad_batch([t[1] for t in batch] + [t[2] for t in batch])}
            tapes = {side: T.Tape() for side in towers}
            leaves = {side: wrap_params(tapes[side], tree, trainable.get(side, ()))
                      for side, tree in towers.items()}
            forward = lambda side: encode_batch(leaves[side], ids[side], work.config,
                                                prefix=prefixes.get(side))
            outs = dict(zip(trained, _run_chunks([lambda s=side: forward(s) for side in trained])))
            outs.update((side, forward(side)) for side in towers if side not in outs)
            head = T.Tape()     # the loss, on leaves holding the towers' outputs
            anchors, texts = (head.leaf(outs[side].data, param=side in trainable)
                              for side in ("query", "text"))
            loss = triplet_margin_loss(anchors, T.slice_rows(texts, 0, n),
                                       T.slice_rows(texts, n, 2 * n), cfg.loss)
            if not np.isfinite(loss.item()):
                raise TuningError(f"non-finite loss at epoch {epoch}, batch {b}")
            head.backward(loss)
            seeds = {"query": anchors.grad, "text": texts.grad}
            lr = scheduler_value(cfg.scheduler, step)

            def update(side):
                tapes[side].backward(outs[side], seeds[side])
                grads = {name: leaves[side][name].grad for name in trainable[side]
                         if leaves[side][name].grad is not None}
                try:
                    optimizers[side].step(towers[side], grads, lr=lr)
                except OptimError as e:     # name the tower: both trees share their names
                    raise OptimError(f"{side} tower: {e}") from None

            _run_chunks([lambda s=side: update(s) for side in trained])
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

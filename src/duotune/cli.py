"""Command-line surface: dataset generation, mining, tuning, evaluation,
grids, sweeps, diagnostics, and manifest replay.

Every tuning run writes a manifest (config echo + seed + input digests)
that `duotune replay` can reproduce byte-for-byte.

The tune flags of `tune` and `sweep` default to TuneConfig's values. A
`--config` INI file's [tune] section sets their defaults (flags given win):
keys are flag names with `_` for `-`, each value is checked by its flag, and
an unknown key is a usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import typing
from pathlib import Path

from . import data as D
from . import lab
from .encoder import MEASURES, DualEncoder, EncoderConfig, Vocab, load_dual, save_dual
from .freeze import FreezeSpecError, parse_freeze_spec
from .grid import CONTRAST_LABELS, PairCorpus, grid_reports
from .optim import LossSpec, OptimError, OptimizerSpec, parse_scheduler, scale_lr
from .tensor import Rng
from .tuning import EpochRecord, RunRecord, TuneConfig, TuningError, tune

TUNE_INPUTS = ("model", "train", "valid", "vocab")
# an unreadable file, a lab error (each is a ValueError), a missing key, a wrong type
REFUSALS = (OSError, ValueError, KeyError, TypeError)
# the JSON types a run record field may hold: a loss is a number, and only `accepted` a bool
RECORD_TYPES = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}


def _checked(flag: str, call, *args, refuse=REFUSALS, **kwargs):
    """call(*args, **kwargs) at the boundary. One of `refuse` it raises is a
    usage error naming `flag`, which `main` turns into exit status 2."""
    try:
        return call(*args, **kwargs)
    except refuse as e:
        raise argparse.ArgumentError(None, f"argument {flag}: {type(e).__name__}: {e}") from None


def _apply_config(path, flags) -> None:
    """Make the [tune] section of an INI file the tune flags' defaults. A key
    must be the dest of a value-taking tune flag, and a value one of that
    flag's choices; argparse converts the rest with the flag's own type."""
    def items(path):
        cp = configparser.ConfigParser()
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        return cp.items("tune") if cp.has_section("tune") else []
    for key, raw in _checked(f"--config: {path}", items, path,
                             refuse=(*REFUSALS, configparser.Error)):
        flag = flags.get(key)
        if flag is None:
            raise argparse.ArgumentError(None, f"argument --config: {path}: "
                                         f"[tune] has unknown key {key!r}")
        if flag.choices and raw not in flag.choices:
            raise argparse.ArgumentError(flag, f"{path}: [tune] {key} = {raw!r} is not one "
                                         f"of {', '.join(flag.choices)}")
        flag.default = raw


def _at_least(kind, low, high=float("inf")):
    """An argparse type: `kind(text)`, finite and in low..high (NaN is not)."""
    def arg(text: str):
        v = kind(text)
        if v == float("inf"):
            raise argparse.ArgumentTypeError(f"{v} is not finite")
        if not low <= v <= high:
            raise argparse.ArgumentTypeError(f"{v} is not <= {high}" if v > high
                                             else f"{v} is not >= {low}")
        return v
    arg.__name__ = kind.__name__    # argparse's "invalid int value: 'x'"
    return arg


def _parses(check):
    """An argparse type: the text, unchanged, once `check(text)` raised no
    ValueError (a FreezeSpecError or OptimError, say)."""
    def arg(text: str) -> str:
        try:
            check(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return text
    return arg


def _named_path(text: str):
    """An argparse type: `name=path` as (name, path)."""
    name, sep, path = text.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"{text!r} is not name=path")
    return name, path


def _scheduler(args, text: str):
    """The SchedulerSpec a --scheduler value names; L and Q need --scheduler-steps."""
    try:
        return parse_scheduler(text, args.scheduler_steps)
    except OptimError as e:
        raise argparse.ArgumentError(args.tune_flags["scheduler"],
                                     f"{e}; set --scheduler-steps >= 1") from None


def _read(flag: str, path, load):
    """load(path). A file that `load` cannot read, or that holds no records, is
    a usage error naming `flag` and `path`."""
    records = _checked(f"{flag}: {path}", load, path)
    if not records:
        raise argparse.ArgumentError(None, f"argument {flag}: {path} holds no records")
    return records


def _read_model_and_vocab(model_path, vocab_path):
    """--model and --vocab, refusing a vocab with more tokens than the model's vocab_size."""
    model = _read("--model", model_path, load_dual)
    vocab = _read("--vocab", vocab_path, Vocab.load)
    if len(vocab) > model.config.vocab_size:
        raise argparse.ArgumentError(None, f"--vocab {vocab_path} has {len(vocab)} tokens; "
                                     f"--model {model_path} takes {model.config.vocab_size}")
    return model, vocab


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _measures(arg: str):
    return MEASURES if arg == "both" else (arg,)


# --- subcommand implementations ----------------------------------------------

def cmd_gen_synth(args) -> int:
    # the flag types leave only the vocab/topics check
    spec = _checked(f"--vocab-size {args.vocab_size} with --topics {args.topics}",
                    D.SynthCorpusSpec, n_languages=args.languages, vocab_size=args.vocab_size,
                    n_topics=args.topics, sentence_len=args.sentence_len,
                    n_pretrain=args.pretrain, n_tune=args.tune, n_heldout=args.heldout,
                    n_pairs_per_label=args.pairs_per_label, seed=args.seed)
    corpus = D.gen_synth_corpus(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    Vocab(corpus.vocab_tokens).save(out / "vocab.txt")
    D.write_triplets(corpus.pretrain, out / "pretrain.jsonl")
    D.write_triplets(corpus.tune_lang0, out / "tune_lang0.jsonl")
    for k, triplets in corpus.heldout.items():
        D.write_triplets(triplets, out / f"heldout_lang{k}.jsonl")
    _write(out / "pairs.jsonl", "".join(json.dumps(rec, ensure_ascii=False) + "\n"
                                        for rec in corpus.pair_records))
    _write(out / "spec.json", json.dumps(dataclasses.asdict(spec), sort_keys=True,
                                         indent=2) + "\n")
    print(f"wrote synthetic corpus ({spec.n_languages} languages) to {out}")
    return 0


def cmd_init_model(args) -> int:
    vocab = _read("--vocab", args.vocab, Vocab.load)
    # the flag types leave only the hidden/heads check
    config = _checked(f"--hidden {args.hidden} with --heads {args.heads}", EncoderConfig,
                      vocab_size=len(vocab), hidden=args.hidden, n_blocks=args.blocks,
                      n_heads=args.heads, intermediate=4 * args.hidden,
                      max_positions=args.max_positions)
    model = DualEncoder.twin_init(config, Rng(args.seed))
    save_dual(model, args.out)
    print(f"initialized twin dual encoder at {args.out}")
    return 0


def cmd_split(args) -> int:
    def load(path):
        samples = D.read_triplets(path)
        return samples, D.split_msmarco(samples)
    samples, (train, valid, evals) = _read("--input", args.input, load)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    D.write_triplets(train, out / "train.jsonl")
    D.write_triplets(valid, out / "valid.jsonl")
    D.write_triplets(evals, out / "eval.jsonl")
    print(f"split {len(samples)} -> train {len(train)}, valid {len(valid)}, "
          f"eval {len(evals)}")
    return 0


def cmd_mine_arxiv(args) -> int:
    entries, stats = _read("--input", args.input, lambda path: D.mine_arxiv_negatives(
        D.read_jsonl(path, D.ArxivRecord.from_json), args.max_category_size, args.seed))
    _write(Path(args.out), "".join(e.to_json() + "\n" for e in entries))
    frac = stats.all_distinct_top20 / max(1, len(entries))
    print(f"mined {len(entries)} entries; {stats.all_distinct_top20} "
          f"({100 * frac:.1f}%) with 20 distinct negatives; "
          f"{stats.empty_candidate_sets} without category matches")
    return 0


def cmd_make_triplets(args) -> int:
    entries = _read("--negatives", args.negatives,
                    lambda path: D.read_jsonl(path, D.NegativesEntry.from_json))
    triplets = _checked(f"--negatives: {args.negatives}", D.make_arxiv_triplets,
                        entries, args.flavor, args.difficulty)
    if not triplets:
        raise argparse.ArgumentError(None, f"--negatives {args.negatives} gives no triplets "
                                     f"at --flavor {args.flavor} --difficulty {args.difficulty}")
    D.write_triplets(triplets, args.out)
    print(f"wrote {len(triplets)} {args.flavor} triplets (difficulty {args.difficulty})")
    return 0


def _tune_config_from_args(args) -> TuneConfig:
    lr = args.lr
    if args.scaling_rule != "none":
        lr = scale_lr(args.base_batch, lr, args.batch_size, args.scaling_rule)
    optimizer = _checked(f"--lr {args.lr} with --scaling-rule {args.scaling_rule}",
                         OptimizerSpec, kind=args.optimizer, lr=lr,
                         weight_decay=args.weight_decay, momentum=not args.no_momentum)
    try:
        return TuneConfig(
            batch_size=args.batch_size, epoch_policy=args.epoch_policy,
            epoch_size=args.epoch_size, idle_epochs_to_stop=args.idle_epochs,
            max_epochs=args.max_epochs, freeze=args.freeze, optimizer=optimizer,
            scheduler=_scheduler(args, args.scheduler), loss=LossSpec(margin=args.margin),
            seed=args.seed, mode=args.mode).check_schedule()
    except OptimError as e:     # the flag types leave only the schedule's length
        raise argparse.ArgumentError(args.tune_flags["scheduler_steps"],
                                     f"the run's last {e}") from None
    except TuningError as e:    # and the samples-policy check
        raise argparse.ArgumentError(args.tune_flags["epoch_size"], str(e)) from None


def _run_tune(paths: dict, cfg: TuneConfig, out_dir: Path, freeze_flag: str) -> None:
    """Tune the model of `paths` (keys TUNE_INPUTS) and write its checkpoint,
    run record and a manifest of `paths` and their digests. A freeze spec the
    model cannot take, refused before the first step, names `freeze_flag`."""
    model, vocab = _read_model_and_vocab(paths["model"], paths["vocab"])
    train = _read("--train", paths["train"], D.read_triplets)
    valid = _read("--valid", paths["valid"], D.read_triplets)
    best, record = _checked(freeze_flag, tune, model, train, valid, cfg, vocab,
                            refuse=(FreezeSpecError,))

    out_dir.mkdir(parents=True, exist_ok=True)
    save_dual(best, out_dir / "model.ckpt")
    _write(out_dir / "run.json",
           json.dumps(dataclasses.asdict(record), sort_keys=True, indent=2) + "\n")
    config = {"tune": dataclasses.asdict(cfg), "paths": {k: str(p) for k, p in paths.items()}}
    inputs = {k: lab.file_digest(p) for k, p in paths.items()}
    _write(out_dir / "manifest.json",
           lab.manifest_json("tune", config, cfg.seed, inputs, ["model.ckpt", "run.json"]))


def cmd_tune(args) -> int:
    cfg = _tune_config_from_args(args)
    _run_tune({k: getattr(args, k) for k in TUNE_INPUTS}, cfg, Path(args.out), "--freeze")
    print(f"tuned model written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    def load(path):
        """The manifest's tune inputs, each unchanged since the run, and its TuneConfig."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc["command"] != "tune":
            raise ValueError(f"command {doc['command']!r}: only tune manifests can be replayed")
        config, digests = doc["config"], doc["input_digests"]
        paths = {k: str(config["paths"][k]) for k in TUNE_INPUTS}
        if sorted(digests) != sorted(paths):
            raise ValueError(f"input_digests must give one digest for each of {', '.join(paths)}")
        cfg = TuneConfig.from_dict(config["tune"])
        for key, p in paths.items():
            if _read(f"--manifest input {key}", p, lab.file_digest) != digests[key]:
                raise argparse.ArgumentError(
                    None, f"argument --manifest input {key}: {p} changed since the original run")
        return paths, cfg
    paths, cfg = _read("--manifest", args.manifest, load)
    _run_tune(paths, cfg, Path(args.out), "--manifest")
    print(f"replayed run into {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, vocab = _read_model_and_vocab(args.model, args.vocab)
    samples = _read("--data", args.data, D.read_triplets)
    reports = lab.evaluate_triplets(model, samples, vocab, _measures(args.measure))
    csv = lab.eval_csv(reports)
    if args.out:
        _write(Path(args.out), csv)
    sys.stdout.write(csv)
    return 0


def cmd_grid_eval(args) -> int:
    model, vocab = _read_model_and_vocab(args.model, args.vocab)
    corpus = _read("--pairs", args.pairs, PairCorpus.load)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m, report in grid_reports(model, corpus, _measures(args.measure), vocab).items():
        for contrast in CONTRAST_LABELS:
            _write(out / f"grid_{m}_{contrast}.csv", lab.grid_matrix_csv(report, contrast))
        print(f"{m}: averaged PND ent-vs-neutral "
              f"{report.averaged_pnd('neutral'):.4f}, ent-vs-contradiction "
              f"{report.averaged_pnd('contradiction'):.4f}")
    return 0


def _sweep_values(args, base: TuneConfig) -> list:
    """The --values of the swept axis, each converted and checked by the type
    and choices of the matching tune flag. Freeze specs contain commas, so
    that axis separates values with ';'."""
    dest = {"learning_rate": "lr", "stopping": "idle_epochs"}.get(args.axis, args.axis)
    flag = args.tune_flags[dest]
    check = argparse.ArgumentParser(exit_on_error=False)
    check.add_argument(flag.option_strings[0], dest="v", type=flag.type, choices=flag.choices)
    values = [check.parse_args([f"{flag.option_strings[0]}={v.strip()}"]).v
              for v in args.values.split(";" if args.axis == "freeze" else ",")]
    if args.axis == "scheduler":
        values = [_scheduler(args, v) for v in values]
    for v in values:
        try:
            lab.apply_axis_value(base, args.axis, v).check_schedule()
        except OptimError as e:     # a schedule shorter than the point's run
            raise argparse.ArgumentError(args.tune_flags["scheduler_steps"],
                                         f"{flag.option_strings[0]} {v}: last {e}") from None
        except TuningError as e:    # a batch size against the samples epoch policy
            raise argparse.ArgumentError(flag, f"{v}: {e}") from None
    return values


def cmd_sweep(args) -> int:
    if args.scaling_rule != "none" and args.axis in ("batch_size", "learning_rate"):
        raise argparse.ArgumentError(
            args.tune_flags["scaling_rule"], f"{args.scaling_rule} cannot be used with "
            f"--axis {args.axis}: a sweep point cannot carry its own scaled lr")
    base = _tune_config_from_args(args)
    values = _sweep_values(args, base)
    model, vocab = _read_model_and_vocab(args.model, args.vocab)
    train = _read("--train", args.train, D.read_triplets)
    valid = _read("--valid", args.valid, D.read_triplets)
    eval_sets = {}
    for name, path in args.eval:
        if name in eval_sets:
            raise argparse.ArgumentError(None, f"argument --eval: name {name!r} given twice")
        eval_sets[name] = _read("--eval", path, D.read_triplets)
    grid_corpus = _read("--pairs", args.pairs, PairCorpus.load) if args.pairs else None
    spec = lab.SweepSpec(axis=args.axis, values=values, base=base,
                         eval_sets=eval_sets, grid_corpus=grid_corpus,
                         ztest_variant=args.ztest_variant)
    report = _checked("--values" if args.axis == "freeze" else "--freeze", lab.run_sweep,
                      model, train, valid, vocab, spec, refuse=(FreezeSpecError,))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "sweep.csv", lab.sweep_csv(report))
    _write(out / "plot_data.csv", lab.plot_data(report))
    if grid_corpus is not None:
        rows = [[pt.value, m, contrast, cmp.improved[contrast], cmp.worsened[contrast]]
                for pt in report.points for m, cmp in (pt.grid or {}).items()
                for contrast in CONTRAST_LABELS]
        _write(out / "grid_counts.csv",
               lab.csv_text(["value", "measure", "contrast", "improved", "worsened"], rows))
    print(f"sweep over {args.axis} written to {out}")
    return 0


def cmd_diagnose(args) -> int:
    before = _read("--before", args.before, load_dual)
    after = _read("--after", args.after, load_dual)
    report = _checked(f"--before {args.before} and --after {args.after}", lab.diagnose_layers,
                      before.query_params, after.query_params)
    csv = lab.csv_text(
        ["name", "w_before", "w_after", "changed", "max_abs_after", "relative_shift"],
        ([l.name, l.w_before, l.w_after, int(l.changed), l.w_after if l.changed else None,
          l.relative_shift] for l in report.layers))
    if args.out:
        _write(Path(args.out), csv)
    print("top by max |weight| after tuning (changed layers):")
    for name in report.by_max_abs[:args.top]:
        print(f"  {name}")
    print("top by relative shift:")
    for name in report.by_relative_shift[:args.top]:
        print(f"  {name}")
    return 0


def cmd_report(args) -> int:
    def load(path):
        record = json.loads(path.read_text(encoding="utf-8"))
        run = RunRecord(**{**record, "epochs": [EpochRecord(**e) for e in record["epochs"]]})
        for rec in (run, *run.epochs):
            for name, kind in typing.get_type_hints(type(rec)).items():
                value = getattr(rec, name)
                if kind in RECORD_TYPES and type(value) not in RECORD_TYPES[kind]:
                    raise TypeError(f"{name} must be {kind.__name__}, not {value!r}")
        return run
    record = _read("--run", Path(args.run) / "run.json", load)
    accepted = [e for e in record.epochs if e.accepted]
    print(f"epochs: {len(record.epochs)}, accepted: {len(accepted)}, "
          f"best epoch: {record.best_epoch}, steps: {record.total_steps}")
    print(f"initial loss {record.initial_loss:.6g}, errors {record.initial_errors}")
    if accepted:
        print(f"best loss {accepted[-1].val_loss:.6g}, errors {accepted[-1].val_errors}")
    print(f"stop reason: {record.stop_reason}")
    return 0


# --- argument wiring -----------------------------------------------------------

def _add_tune_flags(p: argparse.ArgumentParser) -> None:
    """The tune settings, defaulting to TuneConfig's; `args.tune_flags` maps
    each value-taking flag's dest, a key a --config file may set, to its action."""
    d = TuneConfig()
    p.add_argument("--config", help="INI file whose [tune] section sets flag defaults")
    p.add_argument("--no-momentum", action="store_true")
    flags = [
        p.add_argument("--freeze", type=_parses(parse_freeze_spec), default=d.freeze,
                       help="freeze spec, e.g. 'emb, B0-5'"),
        p.add_argument("--lr", type=_at_least(float, 0), default=d.optimizer.lr),
        p.add_argument("--batch-size", type=_at_least(int, 1), default=d.batch_size),
        p.add_argument("--margin", type=_at_least(float, 0), default=d.loss.margin),
        p.add_argument("--optimizer", choices=["adamw", "adamax", "adadelta", "sgd"],
                       default=d.optimizer.kind),
        p.add_argument("--scheduler", type=_parses(lambda t: parse_scheduler(t, 1)),
                       default=str(d.scheduler), help="none | L | Q | E | E:{gamma}"),
        p.add_argument("--scheduler-steps", type=int, default=d.scheduler.total_steps),
        p.add_argument("--weight-decay", type=_at_least(float, 0),
                       default=d.optimizer.weight_decay),
        p.add_argument("--scaling-rule", choices=["none", "linear", "sqrt"], default="none"),
        p.add_argument("--base-batch", type=_at_least(int, 1), default=14),
        p.add_argument("--epoch-policy", choices=["batches", "samples"],
                       default=d.epoch_policy),
        p.add_argument("--epoch-size", type=_at_least(int, 1), default=d.epoch_size),
        p.add_argument("--idle-epochs", type=_at_least(int, 1), default=d.idle_epochs_to_stop),
        p.add_argument("--max-epochs", type=_at_least(int, 0), default=d.max_epochs),
        p.add_argument("--seed", type=_at_least(int, 0), default=d.seed),
        p.add_argument("--mode", choices=["query-only", "both-tuned"], default=d.mode),
    ]
    p.set_defaults(tune_flags={a.dest: a for a in flags})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duotune",
                                     description="dual-encoder tuning lab")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic cipher-language corpus")
    s = D.SynthCorpusSpec()
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_at_least(int, 0), default=s.seed)
    p.add_argument("--languages", type=_at_least(int, 1), default=s.n_languages)
    p.add_argument("--vocab-size", type=_at_least(int, 1), default=s.vocab_size)
    p.add_argument("--topics", type=_at_least(int, 2), default=s.n_topics)
    p.add_argument("--sentence-len", type=_at_least(int, 1), default=s.sentence_len)
    p.add_argument("--pretrain", type=_at_least(int, 0), default=s.n_pretrain)
    p.add_argument("--tune", type=_at_least(int, 0), default=s.n_tune)
    p.add_argument("--heldout", type=_at_least(int, 0), default=s.n_heldout)
    p.add_argument("--pairs-per-label", type=_at_least(int, 0), default=s.n_pairs_per_label)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("init-model", help="initialize a twin dual encoder")
    e = EncoderConfig()
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--hidden", type=_at_least(int, 1), default=e.hidden)
    p.add_argument("--blocks", type=_at_least(int, 1), default=e.n_blocks)
    p.add_argument("--heads", type=_at_least(int, 1), default=e.n_heads)
    p.add_argument("--max-positions", type=_at_least(int, 1), default=e.max_positions)
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("split", help="split triplets into train/valid/eval")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("mine-arxiv", help="mine graded hard negatives")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-category-size", type=int, default=10000,
                   dest="max_category_size")
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.set_defaults(func=cmd_mine_arxiv)

    p = sub.add_parser("make-triplets", help="triplets from mined negatives")
    p.add_argument("--negatives", required=True)
    p.add_argument("--flavor", choices=["title", "first"], required=True)
    p.add_argument("--difficulty", type=_at_least(int, 1, high=21), default=21)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_triplets)

    p = sub.add_parser("tune", help="tune the query encoder")
    for flag in ("--model", "--train", "--valid", "--vocab", "--out"):
        p.add_argument(flag, required=True)
    _add_tune_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("replay", help="replay a tune manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval", help="evaluate triplets")
    for flag in ("--model", "--data", "--vocab"):
        p.add_argument(flag, required=True)
    p.add_argument("--measure", choices=[*MEASURES, "both"], default="both")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid-eval", help="language-pair grid evaluation")
    for flag in ("--model", "--pairs", "--vocab"):
        p.add_argument(flag, required=True)
    p.add_argument("--measure", choices=[*MEASURES, "both"], default="both")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid_eval)

    p = sub.add_parser("sweep", help="sweep one tuning axis")
    for flag in ("--model", "--train", "--valid", "--vocab"):
        p.add_argument(flag, required=True)
    p.add_argument("--axis", choices=list(lab.SWEEP_AXES), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated; ';'-separated for --axis freeze; write "
                        "--values=-1e-3,0 when the first value starts with '-'")
    p.add_argument("--eval", action="append", type=_named_path, required=True,
                   help="name=path, repeatable")
    p.add_argument("--pairs", help="optional grid corpus")
    p.add_argument("--ztest-variant", choices=["paper", "textbook"],
                   default="paper", dest="ztest_variant")
    p.add_argument("--out", required=True)
    _add_tune_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="layer-change diagnostics")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--top", type=_at_least(int, 1), default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", help="summarize a persisted run")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args.config, args.tune_flags)
            args = parser.parse_args(argv)   # with the file's defaults; flags given win
        return args.func(args)
    except argparse.ArgumentError as e:     # every refused input
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())

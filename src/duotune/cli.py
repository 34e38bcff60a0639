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
from pathlib import Path

from . import data as D
from . import lab
from .encoder import MEASURES, DualEncoder, EncoderConfig, Vocab, load_dual, save_dual
from .freeze import parse_freeze_spec
from .grid import CONTRAST_LABELS, PairCorpus, grid_eval
from .optim import LossSpec, OptimizerSpec, parse_scheduler, scale_lr
from .tensor import Rng
from .tuning import TuneConfig, tune


def _apply_config(path, flags, error) -> None:
    """Make the [tune] section of an INI file the tune flags' defaults. A key
    must be the dest of a value-taking tune flag, and a value one of that
    flag's choices; argparse converts the rest with the flag's own type."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    for key, raw in cp.items("tune") if cp.has_section("tune") else []:
        flag = flags.get(key)
        if flag is None:
            error(f"{path}: [tune] has unknown key {key!r}")
        if flag.choices and raw not in flag.choices:
            error(f"{path}: [tune] {key} = {raw!r} is not one of {', '.join(flag.choices)}")
        flag.default = raw


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not >= 1")
    return n


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


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _measures(arg: str):
    return MEASURES if arg == "both" else (arg,)


# --- subcommand implementations ----------------------------------------------

def cmd_gen_synth(args) -> int:
    spec = D.SynthCorpusSpec(
        n_languages=args.languages, vocab_size=args.vocab_size,
        n_topics=args.topics, sentence_len=args.sentence_len,
        n_pretrain=args.pretrain, n_tune=args.tune, n_heldout=args.heldout,
        n_pairs_per_label=args.pairs_per_label, seed=args.seed)
    corpus = D.gen_synth_corpus(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "vocab.txt", "\n".join(corpus.vocab_tokens) + "\n")
    D.write_triplets(corpus.pretrain, out / "pretrain.jsonl")
    D.write_triplets(corpus.tune_lang0, out / "tune_lang0.jsonl")
    for k, triplets in corpus.heldout.items():
        D.write_triplets(triplets, out / f"heldout_lang{k}.jsonl")
    with open(out / "pairs.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for rec in corpus.pair_records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    _write(out / "spec.json", json.dumps(dataclasses.asdict(spec), sort_keys=True,
                                         indent=2) + "\n")
    print(f"wrote synthetic corpus ({spec.n_languages} languages) to {out}")
    return 0


def cmd_init_model(args) -> int:
    vocab = Vocab.load(args.vocab)
    config = EncoderConfig(vocab_size=len(vocab), hidden=args.hidden,
                           n_blocks=args.blocks, n_heads=args.heads,
                           intermediate=4 * args.hidden,
                           max_positions=args.max_positions)
    model = DualEncoder.twin_init(config, Rng(args.seed))
    save_dual(model, args.out)
    print(f"initialized twin dual encoder at {args.out}")
    return 0


def cmd_split(args) -> int:
    samples = D.read_triplets(args.input)
    train, valid, evals = D.split_msmarco(samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    D.write_triplets(train, out / "train.jsonl")
    D.write_triplets(valid, out / "valid.jsonl")
    D.write_triplets(evals, out / "eval.jsonl")
    print(f"split {len(samples)} -> train {len(train)}, valid {len(valid)}, "
          f"eval {len(evals)}")
    return 0


def cmd_mine_arxiv(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        records = [D.ArxivRecord.from_json(line) for line in fh if line.strip()]
    entries, stats = D.mine_arxiv_negatives(records, args.max_category_size, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for e in entries:
            fh.write(e.to_json() + "\n")
    frac = stats.all_distinct_top20 / max(1, len(entries))
    print(f"mined {len(entries)} entries; {stats.all_distinct_top20} "
          f"({100 * frac:.1f}%) with 20 distinct negatives; "
          f"{stats.empty_candidate_sets} without category matches")
    return 0


def cmd_make_triplets(args) -> int:
    with open(args.negatives, encoding="utf-8") as fh:
        entries = [D.NegativesEntry.from_json(line) for line in fh if line.strip()]
    triplets = D.make_arxiv_triplets(entries, args.flavor, args.difficulty)
    D.write_triplets(triplets, args.out)
    print(f"wrote {len(triplets)} {args.flavor} triplets (difficulty {args.difficulty})")
    return 0


def _tune_config_from_args(args) -> TuneConfig:
    lr = args.lr
    if args.scaling_rule != "none":
        lr = scale_lr(args.base_batch, lr, args.batch_size, args.scaling_rule)
    sched = None
    if args.scheduler not in ("none", "-", ""):
        sched = parse_scheduler(args.scheduler, lr, args.scheduler_steps)
    return TuneConfig(
        batch_size=args.batch_size, epoch_policy=args.epoch_policy,
        epoch_size=args.epoch_size, idle_epochs_to_stop=args.idle_epochs,
        max_epochs=args.max_epochs, freeze=args.freeze,
        optimizer=OptimizerSpec(kind=args.optimizer, lr=lr, weight_decay=args.weight_decay,
                                momentum=not args.no_momentum),
        scheduler=sched, loss=LossSpec(margin=args.margin), seed=args.seed, mode=args.mode)


def _run_tune(model_path, train_path, valid_path, vocab_path, cfg: TuneConfig,
              out_dir: Path) -> None:
    model = load_dual(model_path)
    vocab = Vocab.load(vocab_path)
    train = D.read_triplets(train_path)
    valid = D.read_triplets(valid_path)
    best, record = tune(model, train, valid, cfg, vocab)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_dual(best, out_dir / "model.ckpt")
    _write(out_dir / "run.json",
           json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n")
    inputs = {
        "model": lab.file_digest(model_path),
        "train": lab.file_digest(train_path),
        "valid": lab.file_digest(valid_path),
        "vocab": lab.file_digest(vocab_path),
    }
    config = {
        "tune": cfg.to_dict(),
        "paths": {"model": str(model_path), "train": str(train_path),
                  "valid": str(valid_path), "vocab": str(vocab_path)},
    }
    _write(out_dir / "manifest.json",
           lab.manifest_json("tune", config, cfg.seed, inputs,
                             ["model.ckpt", "run.json"]))


def cmd_tune(args) -> int:
    cfg = _tune_config_from_args(args)
    _run_tune(args.model, args.train, args.valid, args.vocab, cfg, Path(args.out))
    print(f"tuned model written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("command") != "tune":
        raise SystemExit("only tune manifests can be replayed")
    paths = doc["config"]["paths"]
    for key, digest in doc["input_digests"].items():
        actual = lab.file_digest(paths[key])
        if actual != digest:
            raise SystemExit(f"input {key} changed since the original run")
    cfg = TuneConfig.from_dict(doc["config"]["tune"])
    _run_tune(paths["model"], paths["train"], paths["valid"], paths["vocab"],
              cfg, Path(args.out))
    print(f"replayed run into {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_dual(args.model)
    vocab = Vocab.load(args.vocab)
    samples = D.read_triplets(args.data)
    reports = lab.evaluate_triplets(model, samples, vocab, _measures(args.measure))
    csv = lab.eval_csv(reports)
    if args.out:
        _write(Path(args.out), csv)
    sys.stdout.write(csv)
    return 0


def cmd_grid_eval(args) -> int:
    model = load_dual(args.model)
    vocab = Vocab.load(args.vocab)
    corpus = PairCorpus.load(args.pairs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m in _measures(args.measure):
        report = grid_eval(model, corpus, m, vocab)
        for contrast in CONTRAST_LABELS:
            _write(out / f"grid_{m}_{contrast}.csv",
                   lab.grid_matrix_csv(report, contrast))
        print(f"{m}: averaged PND ent-vs-neutral "
              f"{report.averaged_pnd('neutral'):.4f}, ent-vs-contradiction "
              f"{report.averaged_pnd('contradiction'):.4f}")
    return 0


def _sweep_values(args, base: TuneConfig) -> list:
    """The --values of the swept axis, built as the matching tune flag would
    be. Freeze specs contain commas, so that axis separates values with ';'."""
    raw = [v.strip() for v in args.values.split(";" if args.axis == "freeze" else ",")]
    if args.axis in ("learning_rate", "margin", "weight_decay"):
        return [float(v) for v in raw]
    if args.axis in ("batch_size", "stopping"):
        return [int(float(v)) for v in raw]
    if args.axis == "optimizer":
        return [dataclasses.replace(base.optimizer, kind=v) for v in raw]
    if args.axis == "scheduler":
        return [parse_scheduler(v, base.optimizer.lr, args.scheduler_steps) for v in raw]
    return raw


def cmd_sweep(args) -> int:
    base = _tune_config_from_args(args)
    values = _sweep_values(args, base)
    model = load_dual(args.model)
    vocab = Vocab.load(args.vocab)
    train = D.read_triplets(args.train)
    valid = D.read_triplets(args.valid)
    eval_sets = {}
    for item in args.eval or []:
        name, path = item.split("=", 1)
        eval_sets[name] = D.read_triplets(path)
    if not eval_sets:
        raise SystemExit("sweep needs at least one --eval name=path")
    grid_corpus = PairCorpus.load(args.pairs) if args.pairs else None
    spec = lab.SweepSpec(axis=args.axis, values=values, base=base,
                         eval_sets=eval_sets, grid_corpus=grid_corpus,
                         ztest_variant=args.ztest_variant)
    report = lab.run_sweep(model, train, valid, vocab, spec)
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
    before = load_dual(args.before)
    after = load_dual(args.after)
    report = lab.diagnose_layers(before.query_params, after.query_params)
    csv = lab.csv_text(
        ["name", "w_before", "w_after", "changed", "max_abs_after", "relative_shift"],
        ([l.name, f"{l.w_before:.12g}", f"{l.w_after:.12g}", int(l.changed),
          "" if l.max_abs_after is None else f"{l.max_abs_after:.12g}",
          "" if l.relative_shift is None else f"{l.relative_shift:.12g}"]
         for l in report.layers))
    if args.out:
        _write(Path(args.out), csv)
    print("top by max |weight| after tuning (changed layers):")
    for name in report.top(args.top, "max_abs"):
        print(f"  {name}")
    print("top by relative shift:")
    for name in report.top(args.top, "relative_shift"):
        print(f"  {name}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    with open(run_dir / "run.json", encoding="utf-8") as fh:
        record = json.load(fh)
    accepted = [e for e in record["epochs"] if e["accepted"]]
    print(f"epochs: {len(record['epochs'])}, accepted: {len(accepted)}, "
          f"best epoch: {record['best_epoch']}, steps: {record['total_steps']}")
    print(f"initial loss {record['initial_loss']:.6g}, "
          f"errors {record['initial_errors']}")
    if accepted:
        last = accepted[-1]
        print(f"best loss {last['val_loss']:.6g}, errors {last['val_errors']}")
    print(f"stop reason: {record['stop_reason']}")
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
        p.add_argument("--lr", type=float, default=d.optimizer.lr),
        p.add_argument("--batch-size", type=_positive_int, default=d.batch_size),
        p.add_argument("--margin", type=float, default=d.loss.margin),
        p.add_argument("--optimizer", choices=["adamw", "adamax", "adadelta", "sgd"],
                       default=d.optimizer.kind),
        p.add_argument("--scheduler", type=_parses(lambda t: parse_scheduler(t, 0.0, 1)),
                       default="none", help="none | L | Q | E | E:{gamma}"),
        p.add_argument("--scheduler-steps", type=int, default=0),
        p.add_argument("--weight-decay", type=float, default=d.optimizer.weight_decay),
        p.add_argument("--scaling-rule", choices=["none", "linear", "sqrt"], default="none"),
        p.add_argument("--base-batch", type=int, default=14),
        p.add_argument("--epoch-policy", choices=["batches", "samples"],
                       default=d.epoch_policy),
        p.add_argument("--epoch-size", type=int, default=d.epoch_size),
        p.add_argument("--idle-epochs", type=_positive_int, default=d.idle_epochs_to_stop),
        p.add_argument("--max-epochs", type=int, default=d.max_epochs),
        p.add_argument("--seed", type=int, default=d.seed),
        p.add_argument("--mode", choices=["query-only", "both-tuned"], default=d.mode),
    ]
    p.set_defaults(tune_flags={a.dest: a for a in flags})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duotune",
                                     description="dual-encoder tuning lab")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic cipher-language corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--languages", type=int, default=4)
    p.add_argument("--vocab-size", type=int, default=96, dest="vocab_size")
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--sentence-len", type=int, default=8, dest="sentence_len")
    p.add_argument("--pretrain", type=int, default=400)
    p.add_argument("--tune", type=int, default=400)
    p.add_argument("--heldout", type=int, default=200)
    p.add_argument("--pairs-per-label", type=int, default=30, dest="pairs_per_label")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("init-model", help="initialize a twin dual encoder")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--max-positions", type=int, default=64, dest="max_positions")
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mine_arxiv)

    p = sub.add_parser("make-triplets", help="triplets from mined negatives")
    p.add_argument("--negatives", required=True)
    p.add_argument("--flavor", choices=["title", "first"], required=True)
    p.add_argument("--difficulty", type=int, default=21)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_triplets)

    p = sub.add_parser("tune", help="tune the query encoder")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    _add_tune_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("replay", help="replay a tune manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval", help="evaluate triplets")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--measure", choices=[*MEASURES, "both"],
                   default="both")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid-eval", help="language-pair grid evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--measure", choices=[*MEASURES, "both"],
                   default="both")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid_eval)

    p = sub.add_parser("sweep", help="sweep one tuning axis")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--axis", choices=list(lab.SWEEP_AXES), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated; ';'-separated for --axis freeze")
    p.add_argument("--eval", action="append", help="name=path, repeatable")
    p.add_argument("--pairs", help="optional grid corpus")
    p.add_argument("--ztest-variant", choices=["paper", "textbook"],
                   default="paper", dest="ztest_variant")
    p.add_argument("--out", required=True)
    _add_tune_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="layer-change diagnostics")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", help="summarize a persisted run")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config(args.config, args.tune_flags, parser.error)
        args = parser.parse_args(argv)   # with the file's defaults; flags given win
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

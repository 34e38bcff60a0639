"""Command-line surface: dataset generation, mining, tuning, evaluation,
grids, sweeps, diagnostics, and manifest replay.

Every tuning run writes a manifest (config echo + seed + input digests)
that `duotune replay` can reproduce byte-for-byte.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data as D
from . import lab
from .encoder import MEASURES, DualEncoder, EncoderConfig, Vocab, load_dual, save_dual
from .grid import CONTRAST_LABELS, PairCorpus, grid_eval
from .optim import OptimizerSpec, parse_scheduler, scale_lr
from .tensor import Rng
from .tuning import TuneConfig, tune


_CONFIG_TYPES = {
    "lr": float, "batch_size": int, "margin": float, "weight_decay": float,
    "base_batch": int, "epoch_size": int, "idle_epochs": int, "max_epochs": int,
    "seed": int, "scheduler_steps": int,
}


def _load_config_file(path):
    """INI file; values in known numeric keys are coerced."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    out = {}
    for section in cp.sections():
        vals = {}
        for key, raw in cp.items(section):
            conv = _CONFIG_TYPES.get(key)
            vals[key] = conv(raw) if conv else raw
        out[section] = vals
    return out


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
    model = DualEncoder.twin_init(config, Rng(args.seed), mode=args.mode)
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


def _picker(args):
    """pick(flag, key, default): the flag if given, else the [tune] section
    of the --config file, else the default."""
    base = _load_config_file(args.config).get("tune", {}) if args.config else {}

    def pick(flag, key, default):
        return flag if flag is not None else base.get(key, default)

    return pick


def _tune_config_from_args(args) -> TuneConfig:
    pick = _picker(args)
    lr = pick(args.lr, "lr", 5e-8)
    batch_size = pick(args.batch_size, "batch_size", 14)
    rule = pick(args.scaling_rule, "scaling_rule", "none")
    base_batch = pick(args.base_batch, "base_batch", 14)
    if rule != "none":
        lr = scale_lr(base_batch, lr, batch_size, rule)
    epoch_size = pick(args.epoch_size, "epoch_size", 1000)
    opt = OptimizerSpec(kind=pick(args.optimizer, "optimizer", "adamw"), lr=lr,
                        weight_decay=pick(args.weight_decay, "weight_decay", 0.0),
                        momentum=not args.no_momentum)
    sched_name = pick(args.scheduler, "scheduler", "none")
    total = pick(args.scheduler_steps, "scheduler_steps", 0)
    sched = None
    if sched_name not in ("none", "-", ""):
        sched = parse_scheduler(sched_name, lr, total)
    from .optim import LossSpec
    return TuneConfig(
        batch_size=batch_size,
        epoch_policy=pick(args.epoch_policy, "epoch_policy", "batches"),
        epoch_size=epoch_size,
        idle_epochs_to_stop=pick(args.idle_epochs, "idle_epochs", 10),
        max_epochs=pick(args.max_epochs, "max_epochs", 1000),
        freeze=pick(args.freeze, "freeze", "emb"),
        optimizer=opt, scheduler=sched,
        loss=LossSpec(margin=pick(args.margin, "margin", 0.1)),
        seed=pick(args.seed, "seed", 0),
        mode=pick(args.mode, "mode", "query-only"))


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
        steps = _picker(args)(args.scheduler_steps, "scheduler_steps", 0)
        return [parse_scheduler(v, base.optimizer.lr, steps) for v in raw]
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
    lines = ["name,w_before,w_after,changed,max_abs_after,relative_shift"]
    for l in report.layers:
        lines.append(",".join([
            l.name, f"{l.w_before:.12g}", f"{l.w_after:.12g}", str(int(l.changed)),
            "" if l.max_abs_after is None else f"{l.max_abs_after:.12g}",
            "" if l.relative_shift is None else f"{l.relative_shift:.12g}"]))
    csv = "\n".join(lines) + "\n"
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
    p.add_argument("--config", help="INI config file with a [tune] section")
    p.add_argument("--freeze", help="freeze spec, e.g. 'emb, B0-5'")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--margin", type=float)
    p.add_argument("--optimizer", choices=["adamw", "adamax", "adadelta", "sgd"])
    p.add_argument("--no-momentum", action="store_true")
    p.add_argument("--scheduler", help="none | L | Q | E | E:{gamma}")
    p.add_argument("--scheduler-steps", type=int, dest="scheduler_steps")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--scaling-rule", choices=["none", "linear", "sqrt"],
                   dest="scaling_rule")
    p.add_argument("--base-batch", type=int, dest="base_batch")
    p.add_argument("--epoch-policy", choices=["batches", "samples"],
                   dest="epoch_policy")
    p.add_argument("--epoch-size", type=int, dest="epoch_size")
    p.add_argument("--idle-epochs", type=int, dest="idle_epochs")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["query-only", "both-tuned"])


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
    p.add_argument("--mode", choices=["query-only", "both-tuned"],
                   default="query-only")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

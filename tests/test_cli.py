"""End-to-end CLI flows on a tiny synthetic corpus, including manifest
replay reproducibility."""

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from duotune import cli, data, grid, lab
from duotune.cli import _tune_config_from_args, build_parser, main
from duotune.data import ArxivRecord, NegativesEntry, read_triplets
from duotune.encoder import EncoderConfig, load_dual, save_dual
from duotune.tuning import EpochRecord, RunRecord, TuneConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus plus an initialized model, shared by the flows."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["gen-synth", "--out", str(corpus), "--seed", "3",
                 "--languages", "2", "--vocab-size", "48", "--topics", "4",
                 "--pretrain", "8", "--tune", "24", "--heldout", "8",
                 "--pairs-per-label", "3"]) == 0
    model = root / "model.ckpt"
    assert main(["init-model", "--vocab", str(corpus / "vocab.txt"),
                 "--out", str(model), "--seed", "1", "--hidden", "16",
                 "--blocks", "2", "--heads", "2"]) == 0
    return root


def corpus_paths(workspace):
    c = workspace / "corpus"
    return {
        "vocab": c / "vocab.txt",
        "train": c / "tune_lang0.jsonl",
        "valid": c / "heldout_lang0.jsonl",
        "evals": c / "heldout_lang1.jsonl",
        "pairs": c / "pairs.jsonl",
        "model": workspace / "model.ckpt",
    }


def test_gen_synth_writes_the_expected_files(workspace):
    c = workspace / "corpus"
    for name in ("vocab.txt", "pretrain.jsonl", "tune_lang0.jsonl",
                 "heldout_lang0.jsonl", "heldout_lang1.jsonl", "pairs.jsonl",
                 "spec.json"):
        assert (c / name).exists(), name
    assert len(read_triplets(c / "tune_lang0.jsonl")) == 24


# SHA-256 of every file `gen-synth` writes for the spec below: a change to a
# file writer or to the generator's random streams shows here.
GEN_SYNTH_DIGESTS = {
    "heldout_lang0.jsonl": "0a6e23c7169a87df5f0fdc838873a8a70ff492654adc37e620a1ab6dac629da2",
    "heldout_lang1.jsonl": "ece46cfc07febf47eb48a6c24745e69297108573f7af2c400ceb68c9e0ac01b3",
    "pairs.jsonl": "75dc1f2e51decc6a25f3bea19f72d18a219b59c492a23eb5f0b6be360503a59e",
    "pretrain.jsonl": "9d75e3d4059902da66b54036e6f43885ed4eaa399bc385f0647317ec43bb3516",
    "spec.json": "f62d36a852e2250c7ef9eb962467677245c895373d5d490e00397f1cfad88701",
    "tune_lang0.jsonl": "7de4830dfb74d3fb74e9e64981dfa2c4fc2d95c67afed55c4ce111fddcbe3eaa",
    "vocab.txt": "04fbb5cb4cb03644f171ec06118b096785fb62a775b84477578c56d146b4c941",
}


def test_gen_synth_writes_the_same_bytes(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen-synth", "--out", str(out), "--languages", "2", "--vocab-size", "48",
                 "--topics", "4", "--pretrain", "4", "--tune", "4", "--heldout", "3",
                 "--pairs-per-label", "2", "--seed", "7"]) == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == GEN_SYNTH_DIGESTS


def test_split_round_trip(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "splits"
    assert main(["split", "--input", str(p["train"]), "--out", str(out)]) == 0
    sizes = [len(read_triplets(out / f"{n}.jsonl")) for n in ("train", "valid", "eval")]
    assert sum(sizes) == 24
    assert all(s >= 1 for s in sizes)


def run_tune(p, out, *extra):
    return main(["tune", "--model", str(p["model"]), "--train", str(p["train"]),
                 "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
                 "--out", str(out), "--batch-size", "4", "--epoch-size", "2",
                 "--idle-epochs", "2", "--max-epochs", "3", "--seed", "0",
                 *extra])


def test_tune_writes_checkpoint_run_record_and_manifest(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "run"
    assert run_tune(p, out, "--lr", "1e-3") == 0
    assert (out / "model.ckpt").exists()
    record = json.loads((out / "run.json").read_text())
    assert record["epochs"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "tune"
    assert set(manifest["input_digests"]) == {"model", "train", "valid", "vocab"}
    assert manifest["config"]["tune"]["optimizer"]["lr"] == 1e-3
    assert manifest["config"]["tune"]["scheduler"]["kind"] == "none"


def test_replay_reproduces_outputs_byte_for_byte(workspace, tmp_path):
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_tune(p, first, "--lr", "1e-3") == 0
    assert main(["replay", "--manifest", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    for name in ("model.ckpt", "run.json", "manifest.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


# what the CLI wrote before: a max_seq_len, the optimizer constants as fields,
# and no scheduler key when there was no schedule
OLDER_MANIFEST_EDITS = {
    "max_seq_len": lambda tune: tune.update(max_seq_len=64),
    "optimizer constants": lambda tune: tune["optimizer"].update(
        beta1=0.9, beta2=0.999, eps=1e-8, rho=0.9, adadelta_eps=1e-6),
    "no scheduler": lambda tune: tune.pop("scheduler"),
}


@pytest.mark.parametrize("edit", OLDER_MANIFEST_EDITS)
def test_replay_reads_an_older_manifest(workspace, tmp_path, edit):
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    assert run_tune(p, first, "--lr", "1e-3") == 0
    manifest = json.loads((first / "manifest.json").read_text())
    OLDER_MANIFEST_EDITS[edit](manifest["config"]["tune"])
    older = tmp_path / "older-manifest.json"
    older.write_text(json.dumps(manifest))
    again = tmp_path / "again"
    assert main(["replay", "--manifest", str(older), "--out", str(again)]) == 0
    for name in ("model.ckpt", "run.json", "manifest.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_replay_reads_a_schedule_that_ends_before_max_epochs(workspace, tmp_path):
    # an L schedule shorter than max_epochs x batches was valid when idle-epoch
    # stopping ended the run first; only a new run is held to the longer bound
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    assert run_tune(p, first, "--lr", "1e-3", "--idle-epochs", "1", "--max-epochs", "20",
                    "--scheduler", "L", "--scheduler-steps", "39") == 0
    record = json.loads((first / "run.json").read_text())
    assert record["stop_reason"] == "1 consecutive idle epochs"
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["tune"]["max_epochs"] = 1000     # last step 1999, past the schedule
    older = tmp_path / "older-manifest.json"
    older.write_text(json.dumps(manifest))
    again = tmp_path / "again"
    assert main(["replay", "--manifest", str(older), "--out", str(again)]) == 0
    for name in ("model.ckpt", "run.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_replay_refuses_an_optimizer_constant_it_cannot_reproduce(workspace, tmp_path,
                                                                   capsys):
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    assert run_tune(p, first, "--lr", "1e-3") == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["tune"]["optimizer"]["beta1"] = 0.8
    bad = tmp_path / "bad-manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--manifest", str(bad), "--out", str(tmp_path / "again")])
    assert exc.value.code == 2
    assert "beta1" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_replay_rejects_changed_inputs(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "r"
    assert run_tune(p, out, "--lr", "0") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["input_digests"]["train"] = "0" * 64
    bad = tmp_path / "bad-manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit):
        main(["replay", "--manifest", str(bad), "--out", str(tmp_path / "x")])


def test_replay_with_a_missing_input_is_a_usage_error(workspace, tmp_path, capsys):
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    assert run_tune(p, first, "--lr", "0") == 0
    manifest = json.loads((first / "manifest.json").read_text())
    gone = tmp_path / "gone.jsonl"
    manifest["config"]["paths"]["train"] = str(gone)
    bad = tmp_path / "bad-manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--manifest", str(bad), "--out", str(tmp_path / "again")])
    assert exc.value.code == 2
    assert f"input train: {gone}: FileNotFoundError" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_replay_reads_a_manifest_path_that_is_a_number_as_a_file_name(workspace, tmp_path,
                                                                       capsys, monkeypatch):
    # not as a file descriptor: open(0) would read standard input
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    assert run_tune(p, first, "--lr", "0") == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["paths"]["train"] = 0
    bad = tmp_path / "bad-manifest.json"
    bad.write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--manifest", str(bad), "--out", str(tmp_path / "again")])
    assert exc.value.code == 2
    assert "argument --manifest input train: 0: FileNotFoundError" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("cmd", ["tune", "sweep"])
@pytest.mark.parametrize("content, named", [(None, "FileNotFoundError"),
                                            ("lr = 1e-3\n", "MissingSectionHeaderError")])
def test_a_config_file_that_cannot_be_read_is_a_usage_error(workspace, tmp_path, capsys,
                                                            cmd, content, named):
    p = corpus_paths(workspace)
    cfg = tmp_path / "tune.ini"
    if content is not None:
        cfg.write_text(content)
    args = ["--model", str(p["model"]), "--train", str(p["train"]), "--valid", str(p["valid"]),
            "--vocab", str(p["vocab"]), "--out", str(tmp_path / "run"), "--config", str(cfg)]
    if cmd == "sweep":
        args += ["--eval", f"heldout={p['evals']}", "--axis", "learning_rate", "--values", "0"]
    with pytest.raises(SystemExit) as exc:
        main([cmd, *args])
    assert exc.value.code == 2
    assert f"argument --config: {cfg}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_with_flag_override(workspace, tmp_path):
    p = corpus_paths(workspace)
    cfg = tmp_path / "tune.ini"
    cfg.write_text("[tune]\nlr = 1e-3\nbatch_size = 4\nepoch_size = 2\n"
                   "idle_epochs = 2\nmax_epochs = 2\nfreeze = emb\n")
    out = tmp_path / "run"
    assert main(["tune", "--model", str(p["model"]), "--train", str(p["train"]),
                 "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
                 "--out", str(out), "--config", str(cfg), "--lr", "0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    tune_cfg = manifest["config"]["tune"]
    assert tune_cfg["optimizer"]["lr"] == 0.0  # flag wins over config file
    assert tune_cfg["batch_size"] == 4         # config file fills the rest


def test_tune_flag_defaults_are_tune_configs():
    args = build_parser().parse_args(["tune", "--model", "m", "--train", "t", "--valid", "v",
                                      "--vocab", "w", "--out", "o"])
    assert _tune_config_from_args(args) == TuneConfig()


def test_gen_synth_and_init_model_flags_default_to_their_dataclasses(monkeypatch):
    spec = data.SynthCorpusSpec(n_languages=3, vocab_size=90, n_topics=7, sentence_len=6,
                                n_pretrain=11, n_tune=12, n_heldout=13, n_pairs_per_label=14,
                                seed=5)
    config = EncoderConfig(hidden=32, n_blocks=3, n_heads=2, max_positions=40)
    monkeypatch.setattr(data, "SynthCorpusSpec", lambda: spec)     # the defaults, changed
    monkeypatch.setattr(cli, "EncoderConfig", lambda: config)
    parse = build_parser().parse_args
    gen = vars(parse(["gen-synth", "--out", "o"]))
    assert {f: gen[flag] for flag, f in [
        ("seed", "seed"), ("languages", "n_languages"), ("vocab_size", "vocab_size"),
        ("topics", "n_topics"), ("sentence_len", "sentence_len"), ("pretrain", "n_pretrain"),
        ("tune", "n_tune"), ("heldout", "n_heldout"), ("pairs_per_label", "n_pairs_per_label"),
    ]} == {f: v for f, v in dataclasses.asdict(spec).items() if f != "topic_purity"}
    init = vars(parse(["init-model", "--vocab", "v", "--out", "o"]))
    assert (init["hidden"], init["blocks"], init["heads"], init["max_positions"]) == \
        (config.hidden, config.n_blocks, config.n_heads, config.max_positions)


@pytest.mark.parametrize("line, named", [
    ("learning_rate = 1e-3", "'learning_rate'"),  # not a flag: lr is
    ("no_momentum = true", "'no_momentum'"),      # a flag that takes no value
    ("config = other.ini", "'config'"),
    ("model = other.ckpt", "'model'"),            # not a tune setting
    ("batch_size = four", "--batch-size"),
    ("seed = 1.5", "--seed"),
    ("optimizer = adamww", "optimizer = 'adamww'"),
    ("mode = both", "mode = 'both'"),
])
def test_config_file_rejects_unknown_keys_and_bad_values(workspace, tmp_path, capsys,
                                                         line, named):
    p = corpus_paths(workspace)
    cfg = tmp_path / "tune.ini"
    cfg.write_text(f"[tune]\nepoch_size = 2\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--model", str(p["model"]), "--train", str(p["train"]),
              "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
              "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value", [
    ("--scheduler", "X"),
    ("--scheduler", "E:abc"),
    ("--freeze", "wat"),
    ("--batch-size", "0"),
    ("--idle-epochs", "0"),
    ("--scheduler", "L"),                           # without --scheduler-steps
    ("--scheduler", "Q"),
    ("--lr", "-1"),
    ("--margin", "-1"),
    ("--base-batch", "0"),
    ("--epoch-size", "0"),
    ("--max-epochs", "-2"),
    ("--seed", "-1"),
    ("--weight-decay", "-1"),
])
@pytest.mark.parametrize("source", ["command line", "config file"])
def test_bad_tune_values_are_usage_errors(workspace, tmp_path, capsys, flag, value, source):
    p = corpus_paths(workspace)
    extra = [flag, value]
    if source == "config file":
        cfg = tmp_path / "tune.ini"
        cfg.write_text(f"[tune]\n{flag[2:].replace('-', '_')} = {value}\n")
        extra = ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--model", str(p["model"]), "--train", str(p["train"]),
              "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
              "--out", str(tmp_path / "run"), *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    if value in ("L", "Q"):
        assert "--scheduler-steps" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("settings, named", [
    # a samples epoch shorter than one batch
    ({"epoch_policy": "samples", "epoch_size": "3"}, "argument --epoch-size"),
    # a schedule that ends before the run's last step: 3 epochs x 5 batches
    ({"scheduler": "L", "scheduler_steps": "8", "epoch_size": "5", "max_epochs": "3",
      "batch_size": "4"}, "argument --scheduler-steps"),
    # the default run's last step is 1000 x 1000 - 1
    ({"scheduler": "Q", "scheduler_steps": "999998"}, "argument --scheduler-steps"),
])
@pytest.mark.parametrize("source", ["command line", "config file"])
def test_tune_settings_at_odds_are_usage_errors(workspace, tmp_path, capsys, settings, named,
                                                source):
    p = corpus_paths(workspace)
    extra = [x for k, v in settings.items() for x in (f"--{k.replace('_', '-')}", v)]
    if source == "config file":
        cfg = tmp_path / "tune.ini"
        cfg.write_text("[tune]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        extra = ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--model", str(p["model"]), "--train", str(p["train"]),
              "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
              "--out", str(tmp_path / "run"), *extra])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cmd, args", [
    ("gen-synth", []),
    ("init-model", ["--vocab", "vocab.txt"]),
    ("mine-arxiv", ["--input", "arxiv.jsonl"]),
])
def test_negative_seeds_are_usage_errors(tmp_path, capsys, cmd, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([cmd, *args, "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd, args, named", [
    ("gen-synth", ["--languages", "0"], ["argument --languages"]),
    ("gen-synth", ["--pretrain", "-1"], ["argument --pretrain"]),
    ("gen-synth", ["--vocab-size", "4"], ["--vocab-size 4", "--topics 8"]),
    ("init-model", ["--hidden", "0"], ["argument --hidden"]),
    ("init-model", ["--hidden", "16", "--heads", "3"], ["--hidden 16", "--heads 3"]),
])
def test_bad_sizes_are_usage_errors(workspace, tmp_path, capsys, cmd, args, named):
    out = tmp_path / "out"
    if cmd == "init-model":
        args = ["--vocab", str(corpus_paths(workspace)["vocab"]), *args]
    with pytest.raises(SystemExit) as exc:
        main([cmd, *args, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(n in err for n in named), err
    assert not out.exists()


def test_scaling_rule_applies_to_the_configured_lr(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "run"
    assert run_tune(p, out, "--lr", "5e-8", "--scaling-rule", "linear",
                    "--base-batch", "2") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tune"]["optimizer"]["lr"] == pytest.approx(1e-7)


@pytest.fixture(scope="module")
def empty_files(tmp_path_factory):
    """A heldout triplet file and a pairs file with no records, as gen-synth
    writes them for --heldout 0 and --pairs-per-label 0."""
    out = tmp_path_factory.mktemp("empty") / "corpus"
    assert main(["gen-synth", "--out", str(out), "--languages", "2", "--vocab-size", "48",
                 "--topics", "4", "--pretrain", "4", "--tune", "4", "--heldout", "0",
                 "--pairs-per-label", "0"]) == 0
    return {"triplets": out / "heldout_lang0.jsonl", "pairs": out / "pairs.jsonl"}


@pytest.mark.parametrize("cmd, flag", [
    ("eval", "--data"), ("tune", "--train"), ("tune", "--valid"), ("sweep", "--train"),
    ("sweep", "--valid"), ("sweep", "--eval"), ("sweep", "--pairs"), ("grid-eval", "--pairs"),
])
def test_empty_input_files_are_usage_errors(workspace, empty_files, tmp_path, capsys,
                                            cmd, flag):
    p = corpus_paths(workspace)
    empty = empty_files["pairs" if flag == "--pairs" else "triplets"]
    files = {"--model": p["model"], "--vocab": p["vocab"], "--data": p["evals"],
             "--train": p["train"], "--valid": p["valid"], "--pairs": p["pairs"]}
    files[flag] = empty
    names = {"eval": ["--model", "--vocab", "--data"],
             "tune": ["--model", "--vocab", "--train", "--valid"],
             "sweep": ["--model", "--vocab", "--train", "--valid", "--pairs"],
             "grid-eval": ["--model", "--vocab", "--pairs"]}[cmd]
    args = [x for name in names for x in (name, str(files[name]))]
    if cmd == "sweep":
        evals = empty if flag == "--eval" else p["evals"]
        args += ["--eval", f"heldout={evals}", "--axis", "learning_rate", "--values", "0"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([cmd, *args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: {empty} holds no records" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd, flag, content", [
    ("split", "--input", "two triplets"),
    ("mine-arxiv", "--input", ""),
    ("make-triplets", "--negatives", ""),
    ("eval", "--data", None),                                   # no such file
    ("eval", "--data", "not json\n"),
    ("eval", "--data", '{"query": "w010", "pos": ["w011"]}\n'),   # no "neg"
    ("grid-eval", "--pairs", "triplets"),
    ("eval", "--model", "triplets"),
    ("tune", "--vocab", None),
    ("diagnose", "--after", "not a checkpoint\n"),
    ("replay", "--manifest", None),
])
def test_unreadable_input_files_are_usage_errors(workspace, tmp_path, capsys, cmd, flag,
                                                 content):
    p = corpus_paths(workspace)
    bad = tmp_path / "bad.jsonl"
    triplets = p["evals"].read_text().splitlines(keepends=True)
    if content is not None:
        bad.write_text({"triplets": "".join(triplets),
                        "two triplets": "".join(triplets[:2])}.get(content, content))
    files = {"--model": p["model"], "--vocab": p["vocab"], "--data": p["evals"],
             "--train": p["train"], "--valid": p["valid"], "--pairs": p["pairs"],
             "--before": p["model"], "--after": p["model"], flag: bad}
    names = {"split": ["--input"], "mine-arxiv": ["--input"], "make-triplets": ["--negatives"],
             "eval": ["--model", "--vocab", "--data"],
             "grid-eval": ["--model", "--vocab", "--pairs"],
             "tune": ["--model", "--vocab", "--train", "--valid"],
             "diagnose": ["--before", "--after"], "replay": ["--manifest"]}[cmd]
    args = [x for name in names for x in (name, str(files[name]))]
    if cmd == "make-triplets":
        args += ["--flavor", "title"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([cmd, *args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: {bad}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_emits_csv(workspace, tmp_path, capsys):
    p = corpus_paths(workspace)
    out = tmp_path / "eval.csv"
    assert main(["eval", "--model", str(p["model"]), "--data", str(p["evals"]),
                 "--vocab", str(p["vocab"]), "--measure", "both",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("measure,")
    assert len(lines) == 3


def test_grid_eval_emits_matrices(workspace, tmp_path, capsys):
    p = corpus_paths(workspace)
    out = tmp_path / "grid"
    assert main(["grid-eval", "--model", str(p["model"]), "--pairs", str(p["pairs"]),
                 "--vocab", str(p["vocab"]), "--measure", "cosine",
                 "--out", str(out)]) == 0
    for contrast in ("neutral", "contradiction"):
        csv = (out / f"grid_cosine_{contrast}.csv").read_text().splitlines()
        assert len(csv) == 3  # header + 2 languages
    assert "averaged PND" in capsys.readouterr().out


def test_grid_eval_of_both_measures_encodes_once_for_both(workspace, tmp_path, monkeypatch):
    p = corpus_paths(workspace)
    calls = []

    def counting(plans, config, memo=None):
        calls.append(sum(len(groups) for groups, _ in plans))
        return run_plans(plans, config, memo)

    run_plans = grid.run_plans
    monkeypatch.setattr(grid, "run_plans", counting)
    counts = {}
    for measure in ("both", "cosine", "euclidean"):
        calls.clear()
        assert main(["grid-eval", "--model", str(p["model"]), "--pairs", str(p["pairs"]),
                     "--vocab", str(p["vocab"]), "--measure", measure,
                     "--out", str(tmp_path / measure)]) == 0
        counts[measure] = calls[:]
    # one call: 3 labels x 2 languages x 2 sides
    assert counts == {"both": [3 * 2 * 2], "cosine": [3 * 2 * 2], "euclidean": [3 * 2 * 2]}
    for m in ("cosine", "euclidean"):
        for contrast in ("neutral", "contradiction"):
            name = f"grid_{m}_{contrast}.csv"
            assert (tmp_path / "both" / name).read_text() == (tmp_path / m / name).read_text()
    assert len(list((tmp_path / "both").iterdir())) == 4


def test_sweep_emits_reports(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "sweep"
    assert main(["sweep", "--model", str(p["model"]), "--train", str(p["train"]),
                 "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
                 "--axis", "learning_rate", "--values", "0,1e-3",
                 "--eval", f"heldout={p['evals']}", "--pairs", str(p["pairs"]),
                 "--ztest-variant", "textbook", "--out", str(out),
                 "--batch-size", "4", "--epoch-size", "2", "--idle-epochs", "2",
                 "--max-epochs", "2", "--seed", "0"]) == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 1 + 2 * 2  # 2 values x 1 dataset x 2 measures
    assert (out / "plot_data.csv").exists()
    counts = (out / "grid_counts.csv").read_text().splitlines()
    assert counts[0] == "value,measure,contrast,improved,worsened"
    assert len(counts) == 1 + 2 * 2 * 2


def sweep(p, out, axis, values, *extra):
    # --values=…, the form that also takes a first value starting with '-'
    return main(["sweep", "--model", str(p["model"]), "--train", str(p["train"]),
                 "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
                 "--axis", axis, f"--values={values}", "--eval", f"heldout={p['evals']}",
                 "--out", str(out), "--batch-size", "4", "--epoch-size", "2",
                 "--idle-epochs", "2", "--max-epochs", "2", "--seed", "0", *extra])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_sweep_over_freeze_separates_values_with_semicolons(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "sweep"
    assert sweep(p, out, "freeze", "emb;emb, B0-1", "--pairs", str(p["pairs"])) == 0
    for name in ("sweep.csv", "plot_data.csv", "grid_counts.csv"):
        header, *rows = read_csv(out / name)
        assert rows and all(len(r) == len(header) for r in rows), name
        assert list(dict.fromkeys(r[0] for r in rows)) == ["emb", "emb, B0-1"], name


@pytest.mark.parametrize("axis, values, extra", [
    ("optimizer", "sgd,adamax", ()),
    ("scheduler", "L,E:0.9", ("--scheduler-steps", "100")),
])
def test_sweep_over_optimizer_and_scheduler(workspace, tmp_path, axis, values, extra):
    p = corpus_paths(workspace)
    out = tmp_path / "sweep"
    assert sweep(p, out, axis, values, *extra, "--pairs", str(p["pairs"])) == 0
    header, *rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2 * 2  # 2 values x 1 dataset x 2 measures
    assert all(len(r) == len(header) for r in rows)
    for name in ("sweep.csv", "plot_data.csv", "grid_counts.csv"):
        labels = list(dict.fromkeys(r[0] for r in read_csv(out / name)[1:]))
        assert labels == values.split(","), name


def assert_sweep_usage_error(workspace, tmp_path, capsys, monkeypatch, axis, values, named,
                             *extra):
    def no_load(path):
        raise AssertionError("an input was loaded")

    monkeypatch.setattr(cli, "load_dual", no_load)
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        sweep(corpus_paths(workspace), out, axis, values, *extra)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, named", [
    ("batch_size", "4,0", "argument --batch-size"),
    ("scheduler", "X", "argument --scheduler"),
    ("scheduler", "L", "--scheduler-steps"),
    ("stopping", "2,0", "argument --idle-epochs"),
    ("learning_rate", "1e-3,abc", "argument --lr"),
    ("optimizer", "sgd,adamww", "argument --optimizer"),
    ("freeze", "emb;wat", "argument --freeze"),
    ("learning_rate", "-1e-3,0", "argument --lr"),
    ("margin", "-0.1", "argument --margin"),
    ("weight_decay", "-1e-2", "argument --weight-decay"),
])
def test_bad_sweep_values_are_usage_errors(workspace, tmp_path, capsys, monkeypatch,
                                           axis, values, named):
    assert_sweep_usage_error(workspace, tmp_path, capsys, monkeypatch, axis, values, named)


@pytest.mark.parametrize("axis, values, extra, named", [
    ("batch_size", "7,28", ["--scaling-rule", "linear"],
     "argument --scaling-rule: linear cannot be used with --axis batch_size"),
    ("learning_rate", "1e-3", ["--scaling-rule", "sqrt"],
     "argument --scaling-rule: sqrt cannot be used with --axis learning_rate"),
    ("batch_size", "4,28", ["--epoch-policy", "samples", "--epoch-size", "20"],
     "argument --batch-size: 28"),
    # batch 2 makes 4 samples-policy batches per epoch: last step 7, past the schedule
    ("batch_size", "4,2", ["--epoch-policy", "samples", "--epoch-size", "8",
                           "--scheduler", "L", "--scheduler-steps", "5"],
     "argument --scheduler-steps: --batch-size 2: last step 7 beyond total_steps 5"),
    ("scheduler", "E:0.9,L", ["--scheduler-steps", "2"],
     "argument --scheduler-steps: --scheduler L: last step 3 beyond total_steps 2"),
])
def test_sweep_values_against_other_flags_are_usage_errors(workspace, tmp_path, capsys,
                                                           monkeypatch, axis, values,
                                                           extra, named):
    assert_sweep_usage_error(workspace, tmp_path, capsys, monkeypatch, axis, values, named,
                             *extra)


def test_diagnose_and_report(workspace, tmp_path, capsys):
    p = corpus_paths(workspace)
    run = tmp_path / "run"
    assert run_tune(p, run, "--lr", "1e-3", "--freeze", "emb") == 0
    out = tmp_path / "diag.csv"
    assert main(["diagnose", "--before", str(p["model"]),
                 "--after", str(run / "model.ckpt"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,")
    # frozen embedding entries must never be flagged as changed
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0].startswith("embeddings."):
            assert fields[3] == "0", line
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    assert "stop reason" in capsys.readouterr().out


def test_mine_and_make_triplets(tmp_path):
    records = []
    rng = np.random.default_rng(0)
    words = [f"tok{i}" for i in range(30)]
    for i in range(12):
        cat = "m.a" if i % 2 == 0 else "m.b"
        abstract = " ".join(rng.choice(words, size=10)) + ". " + \
                   " ".join(rng.choice(words, size=8)) + "."
        records.append(ArxivRecord(f"id{i:02d}", f"title {i}", abstract, [cat]))
    inp = tmp_path / "arxiv.jsonl"
    inp.write_text("\n".join(r.to_json() for r in records) + "\n")
    mined = tmp_path / "negatives.jsonl"
    assert main(["mine-arxiv", "--input", str(inp), "--out", str(mined),
                 "--seed", "4"]) == 0
    assert len(mined.read_text().splitlines()) == 12

    out = tmp_path / "triplets.jsonl"
    assert main(["make-triplets", "--negatives", str(mined), "--flavor", "title",
                 "--difficulty", "21", "--out", str(out)]) == 0
    triplets = read_triplets(out)
    assert len(triplets) == 12
    assert all(t.query.startswith("title ") for t in triplets)


def test_make_triplets_that_yields_none_is_a_usage_error(tmp_path, capsys):
    ids = [f"id{i}" for i in range(3)]
    negatives = tmp_path / "negatives.jsonl"
    negatives.write_text("".join(
        NegativesEntry(ArxivRecord(i, "", f"abstract {i}. more words.", ["m.a"]),
                       [j for j in ids if j != i] * 10 + [ids[0]]).to_json() + "\n"
        for i in ids))
    out = tmp_path / "triplets.jsonl"
    with pytest.raises(SystemExit) as exc:      # no record has a title
        main(["make-triplets", "--negatives", str(negatives), "--flavor", "title",
              "--out", str(out)])
    assert exc.value.code == 2
    assert (f"--negatives {negatives} gives no triplets at --flavor title --difficulty 21"
            in capsys.readouterr().err)
    assert not out.exists()
    assert main(["make-triplets", "--negatives", str(negatives), "--flavor", "first",
                 "--out", str(out)]) == 0
    assert len(read_triplets(out)) == 3


def negatives_file(path, neighbors=21):
    """Mined negatives for 3 records, each listing `neighbors` neighbours."""
    ids = [f"id{i}" for i in range(3)]
    path.write_text("".join(
        NegativesEntry(ArxivRecord(i, f"title {i}", f"abstract {i}. more words.", ["m.a"]),
                       ([j for j in ids if j != i] * 11)[:neighbors]).to_json() + "\n"
        for i in ids))
    return path


def refused(case, workspace, tmp_path):
    """The argv of one refused command, and the path it must not write."""
    p = {k: str(v) for k, v in corpus_paths(workspace).items()}
    out = tmp_path / "out"
    # one token ahead of the corpus's: every id moves up by one, past the model's vocab_size
    big_vocab = tmp_path / "big_vocab.txt"
    big_vocab.write_text("extra\n" + Path(p["vocab"]).read_text())
    model = ["--model", p["model"]]
    tune_args = ["--train", p["train"], "--valid", p["valid"], "--batch-size", "4",
                 "--epoch-size", "2", "--idle-epochs", "2", "--max-epochs", "2"]
    sweep_args = ["sweep", *model, "--vocab", p["vocab"], *tune_args, "--axis", "learning_rate",
                  "--values", "0", "--out", str(out)]
    negatives = ["make-triplets", "--flavor", "first", "--out", str(out), "--negatives"]
    manifest = tmp_path / "manifest.json"
    replay = ["replay", "--manifest", str(manifest), "--out", str(out)]
    if case == "report without run.json":
        return ["report", "--run", str(tmp_path)], tmp_path / "run.json"
    if case.startswith("difficulty"):
        return [*negatives, str(negatives_file(tmp_path / "neg.jsonl")),
                "--difficulty", case.split()[1]], out
    if case == "short neighbour list":
        return [*negatives, str(negatives_file(tmp_path / "neg.jsonl", neighbors=20))], out
    if case in ("manifest command only", "manifest without input_digests"):
        doc = {"command": "tune", "config": {"tune": {}, "paths": {}}}
        manifest.write_text(json.dumps({"command": "tune"} if case == "manifest command only"
                                       else doc))
        return replay, out
    if case.startswith(("manifest", "replay")):     # a valid manifest, then the case's edit
        paths = {"model": p["model"], "train": p["train"], "valid": p["valid"],
                 "vocab": str(big_vocab) if case == "replay vocab" else p["vocab"]}
        cfg = TuneConfig(batch_size=4, epoch_size=2, idle_epochs_to_stop=2, max_epochs=2)
        doc = json.loads(lab.manifest_json(
            "tune", {"tune": dataclasses.asdict(cfg), "paths": paths}, cfg.seed,
            {k: lab.file_digest(v) for k, v in paths.items()}, ["model.ckpt", "run.json"]))
        tune, digests = doc["config"]["tune"], doc["input_digests"]
        {"replay vocab": lambda: None,
         "manifest paths without vocab": lambda: doc["config"]["paths"].pop("vocab"),
         "manifest digest without a path": lambda: digests.update(extra="0" * 64),
         "manifest digests not an object": lambda: doc.update(input_digests=["0" * 64]),
         "manifest command eval": lambda: doc.update(command="eval"),
         "manifest batch_size big": lambda: tune.update(batch_size="big"),
         "manifest batch_size 4.5": lambda: tune.update(batch_size=4.5),
         "manifest seed true": lambda: tune.update(seed=True),
         "manifest unknown tune key": lambda: tune.update(epochs=3),
         "manifest changed input": lambda: digests.update(train="0" * 64),
         "manifest optimizer constant": lambda: tune["optimizer"].update(beta1=0.8),
         "manifest freeze B5": lambda: tune.update(freeze="B5")}[case]()
        manifest.write_text(json.dumps(doc))
        return replay, out
    if case.startswith("freeze"):
        _, where, spec = case.split(" ", 2)
        tune = ["tune", *model, "--vocab", p["vocab"], *tune_args, "--out", str(out)]
        if where == "config":
            ini = tmp_path / "tune.ini"
            ini.write_text(f"[tune]\nfreeze = {spec}\n")
            return [*tune, "--config", str(ini)], out
        if where == "sweep":
            return [*sweep_args, "--axis", "freeze", "--values", spec,   # the later flags win
                    "--eval", f"h={p['evals']}"], out
        return [*tune, "--freeze", spec, *(["--mode", "both-tuned"] * (where == "both"))], out
    if case.startswith("run "):       # a valid run record, then the case's edit
        record = dataclasses.asdict(RunRecord(1.0, 3, [EpochRecord(1, 0.5, 2, True)], 1, 2, "x"))
        epoch = record["epochs"][0]
        {"run epoch without accepted": lambda: epoch.pop("accepted"),
         "run epoch with an extra field": lambda: epoch.update(lr=1e-3),
         "run initial_loss x": lambda: record.update(initial_loss="x"),
         "run initial_errors true": lambda: record.update(initial_errors=True),
         "run total_steps 2.0": lambda: record.update(total_steps=2.0),
         "run stop_reason 3": lambda: record.update(stop_reason=3),
         "run epoch val_loss null": lambda: epoch.update(val_loss=None),
         "run epoch accepted 1": lambda: epoch.update(accepted=1)}[case]()
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.json").write_text(json.dumps(record))
        return ["report", "--run", str(run)], out
    if case.endswith(" vocab"):
        data = {"eval": ["--data", p["evals"]], "grid-eval": ["--pairs", p["pairs"]],
                "tune": tune_args, "sweep": [*tune_args, "--eval", f"h={p['evals']}",
                                             "--axis", "learning_rate", "--values", "0"]}
        cmd = case.split()[0]
        return [cmd, *model, "--vocab", str(big_vocab), *data[cmd], "--out", str(out)], out
    if case == "sweep --eval without =":
        return [*sweep_args, "--eval", p["evals"]], out
    if case == "sweep without --eval":
        return sweep_args, out
    if case.startswith("diagnose --top"):
        return ["diagnose", "--before", p["model"], "--after", p["model"], "--out", str(out),
                "--top", case.split()[-1]], out
    if case == "gen-synth --topics 1":
        return ["gen-synth", "--out", str(out), "--topics", "1"], out
    if case.startswith("one-sided triplet"):
        bad = tmp_path / "one_sided.jsonl"
        pos, neg = (["w011"], []) if case.endswith("no negative") else ([], ["w012"])
        bad.write_text(json.dumps({"query": "w010", "pos": pos, "neg": neg}) + "\n")
        argv = {"--data": ["eval", *model, "--vocab", p["vocab"], "--data", str(bad)],
                "--train": ["tune", *model, "--vocab", p["vocab"],
                            *(str(bad) if a == p["train"] else a for a in tune_args)],
                "--input": ["split", "--input", str(bad)]}[case.split()[2]]
        return [*argv, "--out", str(out)], out
    if case.startswith(("text field", "blank text")):
        flag, field = case.split()[2:]
        record = {"query": "w010", "pos": ["w011"], "neg": ["w012"]}
        record[field] = ({"pos": "w011 w012", "neg": ["w012", 3], "query": 7}
                         if case.startswith("text") else
                         {"pos": ["w011", " "], "neg": [""], "query": " \t"})[field]
        bad = tmp_path / "text_field.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        argv = {"--data": ["eval", *model, "--vocab", p["vocab"], "--data", str(bad)],
                "--train": ["tune", *model, "--vocab", p["vocab"],
                            *(str(bad) if a == p["train"] else a for a in tune_args)],
                "--valid": ["tune", *model, "--vocab", p["vocab"],
                            *(str(bad) if a == p["valid"] else a for a in tune_args)],
                "--eval": [*sweep_args, "--eval", f"h={bad}"],
                "--input": ["split", "--input", str(bad)]}[flag]
        return [*argv, "--out", str(out)], out
    if case.startswith("arxiv field"):
        flag, field = case.split()[2:]
        record = {"id": "a1", "title": "t", "abstract": "a. b.", "categories": ["cs.CL"]}
        entry = {"record": record, "neighbors": ["a2"] * 21}
        if field == "categories":
            record["categories"] = "cs.CL"
        elif field in ("abstract", "title"):
            record[field] = {"abstract": " \n ", "title": 7}[field]
        else:
            entry["neighbors"] = "a" * 21
        bad = tmp_path / "arxiv_field.jsonl"
        bad.write_text(json.dumps(entry if flag == "--negatives" else record) + "\n")
        if flag == "--negatives":
            return [*negatives, str(bad)], out
        return ["mine-arxiv", "--input", str(bad), "--out", str(out)], out
    if case.startswith("arxiv repeated id"):
        bad = tmp_path / "arxiv_ids.jsonl"
        bad.write_text("".join(json.dumps({"id": i, "abstract": "a. b.", "categories": ["c"]})
                               + "\n" for i in ("a1", "a2", "a1")))
        return ["mine-arxiv", "--input", str(bad), "--out", str(out)], out
    if case == "sweep --eval name twice":
        return [*sweep_args, "--eval", f"h={p['evals']}", "--eval", f"h={p['evals']}"], out
    if case.startswith("pair "):
        field, cmd, value = case.split()[1:]
        records = [json.loads(line) for line in Path(p["pairs"]).read_text().splitlines()]
        if field == "sentence":
            records[1]["sentence2"] = {"blank": "  ", "number": 7}[value]
        elif field == "label":
            records[1]["label"] = value
        else:                   # records[1], the pair's second language, given twice
            records.append(records[1])
        bad = tmp_path / "pair_field.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = {"grid-eval": ["grid-eval", *model, "--vocab", p["vocab"], "--out", str(out)],
                "sweep": [*sweep_args, "--eval", f"h={p['evals']}"]}[cmd]
        return [*argv, "--pairs", str(bad)], out
    if case.startswith(("non-finite", "int32")):
        cmd, flag = case.split()[1:]
        if case.startswith("int32"):        # the model's float32 bytes, read as int32
            bad = tmp_path / "int32.ckpt"
            header, *lines = Path(p["model"]).read_text().splitlines(keepends=True)
            header = json.dumps(json.loads(header) | {"dtype": "int32"}, sort_keys=True)
            bad.write_text(header + "\n" + "".join(lines))
        else:
            bad, ckpt = tmp_path / "nan.ckpt", load_dual(p["model"])
            tree = ckpt.text_params if flag == "--after" else ckpt.query_params
            tree["encoder.layer.0.output.dense.bias"][3] = np.inf if cmd == "tune" else np.nan
            save_dual(ckpt, bad)
        before, after = (bad, p["model"]) if flag == "--before" else (p["model"], bad)
        argv = {"eval": ["eval", "--model", str(bad), "--vocab", p["vocab"], "--data", p["evals"]],
                "grid-eval": ["grid-eval", "--model", str(bad), "--vocab", p["vocab"],
                              "--pairs", p["pairs"]],
                "tune": ["tune", "--model", str(bad), "--vocab", p["vocab"], *tune_args],
                "diagnose": ["diagnose", "--before", str(before), "--after", str(after)]}[cmd]
        return [*argv, "--out", str(out)], out
    if case == "diagnose across depths":
        deep = tmp_path / "deep.ckpt"
        assert main(["init-model", "--vocab", p["vocab"], "--out", str(deep), "--seed", "1",
                     "--hidden", "16", "--blocks", "3", "--heads", "2"]) == 0
        return ["diagnose", "--before", p["model"], "--after", str(deep), "--out", str(out)], out
    raise AssertionError(case)


@pytest.mark.parametrize("case, named", [
    ("report without run.json", ["argument --run", "run.json"]),
    ("difficulty 0", ["argument --difficulty: 0 is not >= 1"]),
    ("difficulty 22", ["argument --difficulty: 22 is not <= 21"]),
    ("short neighbour list", ["argument --negatives", "record id0: 20 neighbors, not 21"]),
    ("manifest command only", ["argument --manifest", "KeyError: 'config'"]),
    ("manifest without input_digests", ["argument --manifest", "KeyError: 'input_digests'"]),
    ("eval vocab", ["--vocab", "has 51 tokens; --model", "takes 50"]),
    ("grid-eval vocab", ["--vocab", "has 51 tokens; --model", "takes 50"]),
    ("tune vocab", ["--vocab", "has 51 tokens; --model", "takes 50"]),
    ("sweep vocab", ["--vocab", "has 51 tokens; --model", "takes 50"]),
    ("replay vocab", ["--vocab", "has 51 tokens; --model", "takes 50"]),
    ("sweep --eval without =", ["argument --eval", "is not name=path"]),
    ("sweep without --eval", ["the following arguments are required: --eval"]),
    ("diagnose --top -1", ["argument --top: -1 is not >= 1"]),
    ("diagnose --top 0", ["argument --top: 0 is not >= 1"]),
    ("gen-synth --topics 1", ["argument --topics: 1 is not >= 2"]),
    ("one-sided triplet --data no negative", ["argument --data", "one_sided.jsonl",
                                              "1 positives, 0 negatives"]),
    ("one-sided triplet --train no positive", ["argument --train", "one_sided.jsonl",
                                               "0 positives, 1 negatives"]),
    ("one-sided triplet --input no negative", ["argument --input", "one_sided.jsonl",
                                               "1 positives, 0 negatives"]),
    ("diagnose across depths", ["--before", "--after", "deep.ckpt",
                                "parameter name sets differ"]),
    ("text field --data pos", ["argument --data", "text_field.jsonl", "query 'w010'",
                               "pos 'w011 w012' is not a list of strings"]),
    ("text field --train neg", ["argument --train", "text_field.jsonl", "query 'w010'",
                                "neg ['w012', 3] is not a list of strings"]),
    ("text field --valid query", ["argument --valid", "text_field.jsonl",
                                  "query 7: query is not a string"]),
    ("text field --eval pos", ["argument --eval", "text_field.jsonl", "query 'w010'",
                               "pos 'w011 w012' is not a list of strings"]),
    ("text field --input query", ["argument --input", "text_field.jsonl",
                                  "query 7: query is not a string"]),
    ("arxiv field --input categories", ["argument --input", "arxiv_field.jsonl", "record a1",
                                        "categories 'cs.CL' is not a list of strings"]),
    ("arxiv field --negatives categories", ["argument --negatives", "arxiv_field.jsonl",
                                            "record a1", "categories 'cs.CL'"]),
    ("arxiv field --negatives neighbors", ["argument --negatives", "arxiv_field.jsonl",
                                           "record a1", "neighbors 'aaaaaaaaaaaaaaaaaaaaa'"]),
    ("blank text --data query", ["argument --data", "text_field.jsonl",
                                 "query ' \\t': query holds a blank text"]),
    ("blank text --train pos", ["argument --train", "text_field.jsonl",
                                "query 'w010': pos holds a blank text"]),
    ("blank text --valid neg", ["argument --valid", "text_field.jsonl",
                                "query 'w010': neg holds a blank text"]),
    ("blank text --eval query", ["argument --eval", "text_field.jsonl",
                                 "query ' \\t': query holds a blank text"]),
    ("blank text --input pos", ["argument --input", "text_field.jsonl",
                                "query 'w010': pos holds a blank text"]),
    ("pair sentence grid-eval blank", ["argument --pairs", "pair_field.jsonl",
                                       "pair 'p00000', language 'lang1'", "'  '"]),
    ("pair sentence grid-eval number", ["argument --pairs", "pair_field.jsonl",
                                        "pair 'p00000', language 'lang1'", ", 7]"]),
    ("pair sentence sweep blank", ["argument --pairs", "pair_field.jsonl",
                                   "pair 'p00000', language 'lang1'", "non-blank strings"]),
    ("pair label grid-eval neutral", ["argument --pairs", "pair_field.jsonl",
                                      "pair 'p00000': label 'neutral', first given as "
                                      "'entailment'"]),
    ("pair label sweep contradiction", ["argument --pairs", "pair_field.jsonl",
                                        "pair 'p00000': label 'contradiction'"]),
    ("pair record grid-eval twice", ["argument --pairs", "pair_field.jsonl",
                                     "pair 'p00000', language 'lang1': given twice"]),
    ("pair record sweep twice", ["argument --pairs", "pair_field.jsonl",
                                 "pair 'p00000', language 'lang1': given twice"]),
    ("arxiv repeated id --input", ["argument --input", "arxiv_ids.jsonl",
                                   "record a1: id repeated"]),
    ("sweep --eval name twice", ["argument --eval: name 'h' given twice"]),
    ("non-finite eval --model", ["argument --model", "nan.ckpt, line 20",
                                 "query.encoder.layer.0.output.dense.bias holds a NaN or inf"]),
    ("non-finite grid-eval --model", ["argument --model", "nan.ckpt, line 20",
                                      "query.encoder.layer.0.output.dense.bias"]),
    ("non-finite tune --model", ["argument --model", "nan.ckpt, line 20",
                                 "query.encoder.layer.0.output.dense.bias"]),
    ("non-finite diagnose --before", ["argument --before", "nan.ckpt, line 20",
                                      "query.encoder.layer.0.output.dense.bias"]),
    ("non-finite diagnose --after", ["argument --after", "nan.ckpt, line 57",
                                     "text.encoder.layer.0.output.dense.bias"]),
    ("int32 eval --model", ["argument --model", "int32.ckpt: checkpoint dtype int32, "
                            "expected float32 or float64"]),
    ("int32 grid-eval --model", ["argument --model", "int32.ckpt: checkpoint dtype int32"]),
    ("int32 tune --model", ["argument --model", "int32.ckpt: checkpoint dtype int32"]),
    ("int32 diagnose --before", ["argument --before", "int32.ckpt: checkpoint dtype int32"]),
    ("int32 diagnose --after", ["argument --after", "int32.ckpt: checkpoint dtype int32"]),
    ("arxiv field --input abstract", ["argument --input", "arxiv_field.jsonl",
                                      "record a1: abstract ' \\n ' is blank or not a string"]),
    ("arxiv field --negatives abstract", ["argument --negatives", "arxiv_field.jsonl",
                                          "record a1: abstract ' \\n ' is blank"]),
    ("arxiv field --negatives title", ["argument --negatives", "arxiv_field.jsonl",
                                       "record a1: title 7 is not a string"]),
    ("manifest paths without vocab", ["argument --manifest", "KeyError: 'vocab'"]),
    ("manifest digest without a path", ["argument --manifest", "input_digests must give one "
                                        "digest for each of model, train, valid, vocab"]),
    ("manifest digests not an object", ["argument --manifest", "input_digests must give"]),
    ("manifest command eval", ["argument --manifest", "command 'eval': only tune manifests"]),
    ("manifest batch_size big", ["argument --manifest",
                                 "TuningError: batch_size must be an integer, not 'big'"]),
    ("manifest unknown tune key", ["argument --manifest", "unexpected keyword argument 'epochs'"]),
    ("manifest changed input", ["argument --manifest input train", "tune_lang0.jsonl changed "
                                "since the original run"]),
    ("manifest optimizer constant", ["argument --manifest", "optimizer beta1 is fixed at 0.9"]),
    ("manifest freeze B5", ["argument --manifest", "'B5': the model has no block 5"]),
    ("freeze tune B5", ["argument --freeze", "'B5': the model has no block 5"]),
    ("freeze config B5", ["argument --freeze", "'B5': the model has no block 5"]),
    ("freeze sweep emb;B5", ["argument --values", "'B5': the model has no block 5"]),
    ("freeze both emb, B0-5", ["argument --freeze", "'B0-5': the model has no block 2"]),
    ("run epoch without accepted", ["argument --run", "run.json", "'accepted'"]),
    ("run epoch with an extra field", ["argument --run", "run.json",
                                       "unexpected keyword argument 'lr'"]),
    ("manifest batch_size 4.5", ["argument --manifest", "batch_size must be an integer, not 4.5"]),
    ("manifest seed true", ["argument --manifest", "seed must be an integer, not True"]),
    ("run initial_loss x", ["argument --run", "run.json", "initial_loss must be float, not 'x'"]),
    ("run initial_errors true", ["argument --run", "initial_errors must be int, not True"]),
    ("run total_steps 2.0", ["argument --run", "total_steps must be int, not 2.0"]),
    ("run stop_reason 3", ["argument --run", "stop_reason must be str, not 3"]),
    ("run epoch val_loss null", ["argument --run", "val_loss must be float, not None"]),
    ("run epoch accepted 1", ["argument --run", "accepted must be bool, not 1"]),
])
def test_refused_flag_values_are_usage_errors(workspace, tmp_path, capsys, case, named):
    argv, out = refused(case, workspace, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(n in err for n in named), err
    assert not out.exists()


def test_diagnose_prints_the_top_layers_and_writes_max_abs_after(workspace, tmp_path, capsys):
    p = corpus_paths(workspace)
    model = load_dual(p["model"])
    moved = ["encoder.layer.1.output.dense.weight", "encoder.layer.0.output.dense.weight"]
    for name, shift in zip(moved, (4.0, 1.0)):
        model.query_params[name] = model.query_params[name] + shift
    after, out = tmp_path / "after.ckpt", tmp_path / "diag.csv"
    save_dual(model, after)
    assert main(["diagnose", "--before", str(p["model"]), "--after", str(after),
                 "--top", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "top by max |weight| after tuning (changed layers):", f"  {moved[0]}",
        "top by relative shift:", f"  {moved[0]}"]
    header, *rows = read_csv(out)
    assert header[2:5] == ["w_after", "changed", "max_abs_after"]
    assert [r[0] for r in rows if r[3] == "1"] == sorted(moved)
    # max_abs_after is w_after on a changed layer and empty on the others
    assert all(r[4] == (r[2] if r[3] == "1" else "") for r in rows)

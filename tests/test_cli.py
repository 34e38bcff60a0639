"""End-to-end CLI flows on a tiny synthetic corpus, including manifest
replay reproducibility."""

import csv
import json

import numpy as np
import pytest

from duotune.cli import _tune_config_from_args, build_parser, main
from duotune.data import ArxivRecord, read_triplets
from duotune.tuning import TuneConfig


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


def test_replay_reproduces_outputs_byte_for_byte(workspace, tmp_path):
    p = corpus_paths(workspace)
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_tune(p, first, "--lr", "1e-3") == 0
    assert main(["replay", "--manifest", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    for name in ("model.ckpt", "run.json", "manifest.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


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
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_scaling_rule_applies_to_the_configured_lr(workspace, tmp_path):
    p = corpus_paths(workspace)
    out = tmp_path / "run"
    assert run_tune(p, out, "--lr", "5e-8", "--scaling-rule", "linear",
                    "--base-batch", "2") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tune"]["optimizer"]["lr"] == pytest.approx(1e-7)


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
    return main(["sweep", "--model", str(p["model"]), "--train", str(p["train"]),
                 "--valid", str(p["valid"]), "--vocab", str(p["vocab"]),
                 "--axis", axis, "--values", values, "--eval", f"heldout={p['evals']}",
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

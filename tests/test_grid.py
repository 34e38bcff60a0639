"""Language-pair grid: cell counting against a double-loop oracle and
significance verdicts on constructed counts."""

import numpy as np
import pytest

from duotune import tensor as T
from duotune.cli import main
from duotune.data import SynthCorpusSpec, gen_synth_corpus
from duotune.encoder import (MEASURES, DualEncoder, EncoderConfig, Vocab, encode,
                             measure_from_dots, similarity)
from duotune.grid import (CONTRAST_LABELS, LABELS, GridError, PairCorpus,
                          PairGridReport, grid_compare, grid_eval, grid_plan, grid_reports)
from duotune.metrics import MetricsError

CFG = EncoderConfig(vocab_size=40, hidden=16, n_blocks=2, n_heads=2,
                    intermediate=32, max_positions=16)


def synth_corpus_and_vocab(n_languages=3, n_pairs=5, seed=0):
    spec = SynthCorpusSpec(n_languages=n_languages, vocab_size=36, n_topics=4,
                           n_pretrain=2, n_tune=2, n_heldout=2,
                           n_pairs_per_label=n_pairs, seed=seed)
    corpus = gen_synth_corpus(spec)
    pair_corpus = PairCorpus.from_records(corpus.pair_records)
    vocab = Vocab(corpus.vocab_tokens)
    return pair_corpus, vocab


def make_report(languages, errors_by_contrast, n_per_label, measure="cosine"):
    errors = {c: np.array(errors_by_contrast[c], dtype=np.int64)
              for c in CONTRAST_LABELS}
    return PairGridReport(list(languages), measure, n_per_label, errors)


# --- corpus validation ------------------------------------------------------------

def test_pair_corpus_requires_equal_label_counts():
    records = [{"pair_id": "e0", "label": "entailment", "language": "l0",
                "sentence1": "a", "sentence2": "b"}]
    with pytest.raises(GridError):
        PairCorpus.from_records(records)


def test_pair_corpus_requires_full_translation_coverage():
    records = []
    for lbl in ("entailment", "neutral", "contradiction"):
        records.append({"pair_id": lbl[:1], "label": lbl, "language": "l0",
                        "sentence1": "a", "sentence2": "b"})
    # second language present for only one pair
    records.append({"pair_id": "e", "label": "entailment", "language": "l1",
                    "sentence1": "a", "sentence2": "b"})
    with pytest.raises(GridError):
        PairCorpus.from_records(records)


@pytest.mark.parametrize("edit, message", [
    (lambda rs: rs[3].update(label="contradiction"),
     "pair 'n': label 'contradiction', first given as 'neutral'"),
    (lambda rs: rs.append(dict(rs[0], sentence2="c")), "pair 'e', language 'l0': given twice"),
], ids=["relabelled", "repeated"])
def test_pair_corpus_refuses_a_relabelled_or_repeated_pair_record(edit, message):
    records = [{"pair_id": lbl[:1], "label": lbl, "language": lang,
                "sentence1": "a", "sentence2": "b"}
               for lbl in ("entailment", "neutral", "contradiction") for lang in ("l0", "l1")]
    assert len(PairCorpus.from_records(records)) == 1
    edit(records)
    with pytest.raises(GridError) as err:
        PairCorpus.from_records(records)
    assert str(err.value) == message


def test_pair_corpus_loads_what_gen_synth_wrote(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen-synth", "--out", str(out), "--languages", "3", "--vocab-size", "36",
                 "--topics", "4", "--pretrain", "2", "--tune", "2", "--heldout", "2",
                 "--pairs-per-label", "5"]) == 0
    corpus, _ = synth_corpus_and_vocab()
    again = PairCorpus.load(out / "pairs.jsonl")
    assert again.languages == corpus.languages
    assert again.pairs == corpus.pairs


# --- grid_eval ----------------------------------------------------------------------

def test_grid_shape_and_totals():
    corpus, vocab = synth_corpus_and_vocab(n_languages=3, n_pairs=5)
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    report = grid_eval(model, corpus, "cosine", vocab)
    for contrast in CONTRAST_LABELS:
        assert report.errors[contrast].shape == (3, 3)
    assert report.cell_total == 25
    assert report.averaged_pnd("neutral") == pytest.approx(
        report.errors["neutral"].mean() / 25)


@pytest.mark.parametrize("measure", ["cosine", "euclidean"])
def test_grid_cells_match_double_loop_oracle(measure):
    corpus, vocab = synth_corpus_and_vocab(n_languages=3, n_pairs=5)
    model = DualEncoder.twin_init(CFG, T.Rng(1))
    report = grid_eval(model, corpus, measure, vocab)

    def emb(text, side):
        params = model.query_params if side == "q" else model.text_params
        return encode(params, vocab.encode(text, 16), CFG)

    for qi, lq in enumerate(corpus.languages):
        for ti, lt in enumerate(corpus.languages):
            ent = [similarity(emb(p[lq][0], "q"), emb(p[lt][1], "t"), measure)
                   for p in corpus.pairs["entailment"]]
            for contrast in CONTRAST_LABELS:
                other = [similarity(emb(p[lq][0], "q"), emb(p[lt][1], "t"), measure)
                         for p in corpus.pairs[contrast]]
                count = sum(1 for e in ent for x in other if e <= x)
                assert report.errors[contrast][qi, ti] == count, (measure, lq, lt)


def mixed_length_pairs(n_languages=3, n_pairs=4):
    """Pairs over the words w000..w029 whose sentences run 1..6 tokens, so
    rows are padded within each encoded group."""
    records = []
    for k, lbl in enumerate(LABELS):
        for i in range(n_pairs):
            for j in range(n_languages):
                start = (5 * k + 3 * i + j) % 30
                s1 = [(start + t) % 30 for t in range(1 + (i + j) % 6)]
                s2 = [(start + 2 * t) % 30 for t in range(1 + (i + 2 * j + k) % 6)]
                records.append({"pair_id": f"{lbl}{i}", "label": lbl, "language": f"l{j}",
                                "sentence1": " ".join(f"w{w:03d}" for w in s1),
                                "sentence2": " ".join(f"w{w:03d}" for w in s2)})
    return PairCorpus.from_records(records), Vocab([f"w{i:03d}" for i in range(30)])


def test_grid_reports_equal_one_grid_eval_per_measure():
    corpus, vocab = mixed_length_pairs()
    model = DualEncoder.twin_init(CFG, T.Rng(5))
    reports = grid_reports(model, corpus, MEASURES, vocab)
    assert list(reports) == list(MEASURES)
    for m in MEASURES:
        single = grid_eval(model, corpus, m, vocab)
        assert (reports[m].languages, reports[m].measure, reports[m].n_per_label) == \
            (single.languages, m, 4)
        for contrast in CONTRAST_LABELS:
            assert np.array_equal(reports[m].errors[contrast], single.errors[contrast])


def pool_encodes(corpus, rng, dim=6):
    """Encodes for `grid_plan`'s groups, in its order (label, language, side),
    drawn from a pool of four float32 unit rows so that similarities often tie."""
    pool = rng.normal(size=(4, dim)).astype(np.float32)
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    index = [(side, lbl, lang) for lbl in LABELS for lang in corpus.languages for side in (0, 1)]
    return index, [pool[rng.integers(0, 4, size=len(corpus))] for _ in index]


@pytest.mark.parametrize("seed", range(4))
def test_grid_finish_equals_a_loop_over_cells(seed):
    corpus, vocab = mixed_length_pairs()
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    _, finish = grid_plan(model, corpus, MEASURES, vocab)
    index, encodes = pool_encodes(corpus, np.random.default_rng(seed))
    emb = {k: e.astype(np.float64) for k, e in zip(index, encodes)}
    reports = finish(encodes)
    for m in MEASURES:
        for qi, lq in enumerate(corpus.languages):
            for ti, lt in enumerate(corpus.languages):
                sims = {lbl: measure_from_dots(np.sum(emb[(0, lbl, lq)] * emb[(1, lbl, lt)],
                                                      axis=1), m) for lbl in LABELS}
                for contrast in CONTRAST_LABELS:
                    count = sum(1 for e in sims["entailment"] for x in sims[contrast] if e <= x)
                    assert reports[m].errors[contrast][qi, ti] == count, (m, lq, lt)


@pytest.mark.parametrize("measure", MEASURES)
def test_grid_refuses_a_nan_similarity_naming_the_cell(measure):
    corpus, vocab = mixed_length_pairs()
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    _, finish = grid_plan(model, corpus, (measure,), vocab)
    index, encodes = pool_encodes(corpus, np.random.default_rng(0))
    encodes[index.index((0, "entailment", "l1"))][2] = np.nan
    with pytest.raises(MetricsError, match=r"non-finite similarity in grid cell "
                                           r"\(query l1, text l0\)"):
        finish(encodes)


def test_separable_corpus_has_zero_errors():
    # entailment pairs repeat the same sentence; contrast pairs use disjoint
    # token sets, so every entailment similarity is maximal
    langs = ["l0", "l1"]
    sents = {"l0": ("w000 w001", "w002 w003", "w004 w005"),
             "l1": ("w010 w011", "w012 w013", "w014 w015")}
    records = []
    for i in range(2):
        for lang in langs:
            same, n1, n2 = sents[lang]
            records.append({"pair_id": f"e{i}", "label": "entailment",
                            "language": lang, "sentence1": same, "sentence2": same})
            records.append({"pair_id": f"n{i}", "label": "neutral",
                            "language": lang, "sentence1": n1, "sentence2": n2})
            records.append({"pair_id": f"c{i}", "label": "contradiction",
                            "language": lang, "sentence1": n2, "sentence2": n1})
    corpus = PairCorpus.from_records(records)
    vocab = Vocab([f"w{i:03d}" for i in range(20)])
    model = DualEncoder.twin_init(CFG, T.Rng(2))
    report = grid_eval(model, corpus, "cosine", vocab)
    # identical sentences give cosine 1.0 in the diagonal cells; ties with a
    # contrast pair would count, so only require the diagonal to be clean
    for contrast in CONTRAST_LABELS:
        assert report.errors[contrast][0, 0] == 0
        assert report.errors[contrast][1, 1] == 0


def test_language_relabeling_permutes_the_grid():
    corpus, vocab = synth_corpus_and_vocab(n_languages=3, n_pairs=4, seed=4)
    model = DualEncoder.twin_init(CFG, T.Rng(3))
    base = grid_eval(model, corpus, "cosine", vocab)

    perm = [2, 0, 1]
    permuted = PairCorpus([corpus.languages[i] for i in perm], corpus.pairs)
    report = grid_eval(model, permuted, "cosine", vocab)
    for contrast in CONTRAST_LABELS:
        expect = base.errors[contrast][np.ix_(perm, perm)]
        assert np.array_equal(report.errors[contrast], expect)


# --- grid_compare ---------------------------------------------------------------------

def test_compare_identical_reports_is_all_neutral():
    corpus, vocab = synth_corpus_and_vocab()
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    report = grid_eval(model, corpus, "cosine", vocab)
    cmp = grid_compare(report, report)
    for contrast in CONTRAST_LABELS:
        assert cmp.improved[contrast] == 0
        assert cmp.worsened[contrast] == 0
        assert cmp.not_significant[contrast] == 9
        assert np.all(cmp.verdicts[contrast] == 0)


def test_compare_constructed_counts_with_textbook_variant():
    # halving large error counts at N=10000 is significant everywhere under
    # the textbook statistic
    langs = ["l0", "l1"]
    full = [[4000, 4000], [4000, 4000]]
    half = [[2000, 2000], [2000, 2000]]
    base = make_report(langs, {"neutral": full, "contradiction": full}, 100)
    tuned = make_report(langs, {"neutral": half, "contradiction": half}, 100)
    cmp = grid_compare(base, tuned, variant="textbook")
    for contrast in CONTRAST_LABELS:
        assert cmp.improved[contrast] == 4
        assert cmp.worsened[contrast] == 0


def test_compare_single_worsened_cell():
    langs = ["l0", "l1"]
    flat = [[100, 100], [100, 100]]
    worse = [[100, 100], [100, 200]]
    base = make_report(langs, {"neutral": flat, "contradiction": flat}, 50)
    tuned = make_report(langs, {"neutral": worse, "contradiction": flat}, 50)
    cmp = grid_compare(base, tuned, variant="textbook")
    assert cmp.worsened["neutral"] == 1
    assert cmp.improved["neutral"] == 0
    assert cmp.verdicts["neutral"][1, 1] == -1
    assert cmp.worsened["contradiction"] == 0


def test_compare_verdict_counts_partition_the_grid():
    corpus, vocab = synth_corpus_and_vocab(n_languages=3)
    model = DualEncoder.twin_init(CFG, T.Rng(0))
    other = DualEncoder.twin_init(CFG, T.Rng(9))
    a = grid_eval(model, corpus, "cosine", vocab)
    b = grid_eval(other, corpus, "cosine", vocab)
    cmp = grid_compare(a, b, variant="textbook")
    for contrast in CONTRAST_LABELS:
        assert (cmp.improved[contrast] + cmp.worsened[contrast] +
                cmp.not_significant[contrast]) == 9


def test_compare_rejects_mismatched_grids():
    a = make_report(["l0"], {"neutral": [[1]], "contradiction": [[1]]}, 10)
    b = make_report(["l0", "l1"], {"neutral": [[1, 1], [1, 1]],
                                   "contradiction": [[1, 1], [1, 1]]}, 10)
    with pytest.raises(GridError):
        grid_compare(a, b)


def test_paper_variant_can_fire_at_tiny_cell_totals():
    # with one pair per label the cell total is 1 and the as-printed
    # denominator is small enough for a full flip to clear the gate
    langs = ["l0"]
    base = make_report(langs, {"neutral": [[1]], "contradiction": [[1]]}, 1)
    tuned = make_report(langs, {"neutral": [[0]], "contradiction": [[0]]}, 1)
    cmp = grid_compare(base, tuned, variant="paper")
    assert cmp.improved["neutral"] == 1

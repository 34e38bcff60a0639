"""Data pipeline: splits, triplet expansion, JS distance, the hard-negative
miner, and the synthetic cipher-language corpus."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duotune import data
from duotune.data import (ArxivRecord, DataError, MiningStats, NegativesEntry,
                          SynthCorpusSpec, TripletSample, expand_eval,
                          gen_synth_corpus, js_distance,
                          make_arxiv_triplets, mine_arxiv_negatives,
                          read_triplets, split_msmarco, split_sentences,
                          token_histogram, write_triplets, MSMARCO_TOTAL)
from duotune.tensor import Rng


def sample(i=0, n_pos=1, n_neg=1):
    return TripletSample(f"q{i}", [f"p{i}.{j}" for j in range(n_pos)],
                         [f"n{i}.{j}" for j in range(n_neg)])


# --- formats ---------------------------------------------------------------------

def test_triplet_jsonl_roundtrip(tmp_path):
    samples = [sample(i, 2, 3) for i in range(4)]
    path = tmp_path / "t.jsonl"
    write_triplets(samples, path)
    again = read_triplets(path)
    assert [s.to_json() for s in again] == [s.to_json() for s in samples]
    rec = json.loads(samples[0].to_json())
    assert set(rec) == {"query", "pos", "neg"}


# --- splits -----------------------------------------------------------------------

def test_split_exact_sizes_at_the_reference_total():
    shared = sample()
    samples = [shared] * MSMARCO_TOTAL
    train, valid, evals = split_msmarco(samples)
    assert (len(train), len(valid), len(evals)) == (487983, 4200, 7000)


def test_split_small_input_partitions_in_order():
    samples = [sample(i) for i in range(1000)]
    train, valid, evals = split_msmarco(samples)
    assert len(train) + len(valid) + len(evals) == 1000
    assert train + valid + evals == samples


def test_split_rejects_fewer_than_three():
    with pytest.raises(DataError):
        split_msmarco([sample(), sample()])


def test_expand_eval_cross_product():
    assert len(expand_eval([sample(0, 1, 1)])) == 1
    out = expand_eval([sample(0, 2, 3)])
    assert len(out) == 6
    assert all(len(t.positives) == len(t.negatives) == 1 for t in out)
    # every (pos, neg) combination appears exactly once
    combos = {(t.positives[0], t.negatives[0]) for t in out}
    assert len(combos) == 6


# --- Jensen-Shannon distance --------------------------------------------------------

def test_js_identity_and_disjoint_bounds():
    a = Counter({"x": 2, "y": 1})
    assert js_distance(a, a) == 0.0
    assert js_distance(Counter({"x": 3}), Counter({"y": 5})) == pytest.approx(1.0)


def test_js_hand_computed_value():
    # (1/2, 1/2, 0) vs (0, 1/2, 1/2): divergence is 1/2, distance sqrt(1/2)
    a = Counter({"u": 1, "v": 1})
    b = Counter({"v": 1, "w": 1})
    assert js_distance(a, b) == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_js_symmetry_and_empty_error():
    a, b = Counter({"x": 2}), Counter({"x": 1, "y": 3})
    assert js_distance(a, b) == js_distance(b, a)
    with pytest.raises(DataError):
        js_distance(a, Counter())


def test_js_triangle_inequality_spot_check():
    rng = np.random.default_rng(0)
    tokens = [f"t{i}" for i in range(6)]
    def rand_hist():
        return Counter({t: int(c) for t, c in zip(tokens, rng.integers(0, 5, 6)) if c})
    for _ in range(1000):
        a, b, c = rand_hist(), rand_hist(), rand_hist()
        if not (a and b and c):
            continue
        assert js_distance(a, c) <= js_distance(a, b) + js_distance(b, c) + 1e-12


def test_token_histogram_lowercases_and_counts():
    assert token_histogram("Foo foo BAR") == Counter({"foo": 2, "bar": 1})


# --- miner -------------------------------------------------------------------------

def rec(i, cats, abstract, title=""):
    return ArxivRecord(f"id{i:03d}", title or f"title {i}", abstract, cats)


def test_mutual_nearest_for_identical_categories():
    records = [rec(0, ["a.x"], "one common words here"),
               rec(1, ["a.x"], "two common words here")] + [
               rec(i, ["b.y"], f"filler text {i}") for i in range(2, 10)]
    entries, _ = mine_arxiv_negatives(records, seed=0)
    by_id = {e.record.id: e for e in entries}
    assert by_id["id000"].neighbor_ids[0] == "id001"
    assert by_id["id001"].neighbor_ids[0] == "id000"


def build_toy_corpus(n=50, seed=4):
    rng = np.random.default_rng(seed)
    cats = ["m.a", "m.b", "m.c", "m.d"]
    words = [f"tok{i}" for i in range(40)]
    records = []
    for i in range(n):
        k = int(rng.integers(1, 4))
        chosen = list(rng.choice(cats, size=k, replace=False))
        abstract = " ".join(rng.choice(words, size=12))
        records.append(rec(i, chosen, abstract))
    return records


def test_miner_matches_brute_force_sort_on_toy_corpus():
    records = build_toy_corpus()
    entries, stats = mine_arxiv_negatives(records, seed=7)
    assert stats.kept_records == len(records)

    census = Counter(c for r in records for c in r.categories)
    hists = {r.id: token_histogram(r.abstract) for r in records}
    sorted_cats = {r.id: sorted(r.categories, key=lambda c: (census[c], c))
                   for r in records}

    def prefix_len(a, b):
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        return n

    for e in entries:
        mine = sorted_cats[e.record.id]
        best = 0
        cands = []
        for other in records:
            if other.id == e.record.id:
                continue
            L = prefix_len(mine, sorted_cats[other.id])
            if L > best:
                best, cands = L, [other.id]
            elif L == best and L > 0:
                cands.append(other.id)
        assert best > 0  # toy corpus always shares a first category somewhere
        ranked = sorted(cands, key=lambda cid: (js_distance(hists[e.record.id],
                                                            hists[cid]), cid))
        expect = ranked[:20]
        while len(expect) < 20:
            expect.append(expect[-1])
        assert e.neighbor_ids[:20] == expect, e.record.id

        dists = [js_distance(hists[e.record.id], hists[c]) for c in e.neighbor_ids[:20]]
        assert all(a <= b + 1e-15 for a, b in zip(dists, dists[1:]))
        assert len(e.neighbor_ids) == 21
        assert e.neighbor_ids[20] != e.record.id


def test_miner_deterministic_across_runs():
    records = build_toy_corpus(30, seed=9)
    a, _ = mine_arxiv_negatives(records, seed=11)
    b, _ = mine_arxiv_negatives(records, seed=11)
    assert [e.to_json() for e in a] == [e.to_json() for e in b]
    c, _ = mine_arxiv_negatives(records, seed=12)
    assert [e.neighbor_ids[20] for e in a] != [e.neighbor_ids[20] for e in c]


def test_miner_census_filter_drops_big_categories():
    # one category over the limit, its exclusive members are dropped
    records = [rec(i, ["big.cat"], f"text {i}") for i in range(5)]
    records += [rec(10 + i, ["small.cat"], f"other text {i}") for i in range(3)]
    entries, stats = mine_arxiv_negatives(records, max_category_size=4, seed=0)
    assert stats.kept_records == 3
    assert all(e.record.categories == ["small.cat"] for e in entries)


def test_negatives_entry_jsonl_roundtrip():
    records = build_toy_corpus(10, seed=1)
    entries, _ = mine_arxiv_negatives(records, seed=0)
    line = entries[0].to_json()
    again = NegativesEntry.from_json(line)
    assert again.to_json() == line


def scan_mine(records, max_category_size=10000, seed=0):
    """The all-pairs scan the prefix index replaced, kept as its reference: each
    record's candidates are the others with its longest shared sorted-category prefix."""
    census = Counter(c for r in records for c in r.categories)
    small = {c for c, n in census.items() if n <= max_category_size}
    kept = [r for r in records if any(c in small for c in r.categories)]
    if len(kept) < 2:
        raise DataError("need at least 2 records after category filtering")

    def prefix_len(a, b):
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        return n

    sorted_cats = {r.id: sorted(r.categories, key=lambda c: (census[c], c)) for r in kept}
    hists = {r.id: token_histogram(r.abstract) for r in kept}
    all_ids = [r.id for r in kept]
    stats = MiningStats(kept_records=len(kept))
    entries = []
    for idx, r in enumerate(kept):
        best, cands = 0, []
        for other in kept:
            if other.id == r.id:
                continue
            L = prefix_len(sorted_cats[r.id], sorted_cats[other.id])
            if L > best:
                best, cands = L, [other.id]
            elif L == best and L > 0:
                cands.append(other.id)
        rng = Rng(seed).spawn(2, idx)
        if best == 0:
            stats.empty_candidate_sets += 1
            top20 = [data._random_other_id(all_ids, r.id, rng)] * 20
        else:
            top20 = sorted(cands, key=lambda c: (js_distance(hists[r.id], hists[c]), c))[:20]
            top20 += top20[-1:] * (20 - len(top20))
        extra = data._random_other_id(all_ids, r.id, rng)
        stats.all_distinct_top20 += len(set(top20)) == 20
        entries.append(NegativesEntry(r, top20 + [extra]))
    return entries, stats


# a record: (category indices, abstract word indices); a category may repeat in one record
record_specs = st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=5),
                                  st.lists(st.integers(0, 7), min_size=1, max_size=6)),
                        min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(record_specs, st.integers(1, 6), st.integers(0, 3))
@example([([0, 1, 2], [0]), ([0, 1, 2], [1]), ([0, 1], [2]), ([0, 1], [3]), ([3], [4]),
          ([3], [5])], 6, 0)                                  # shared prefixes of 3, 2 and 1
@example([([0], [0]), ([1], [1]), ([2], [2])], 6, 1)          # no shared first category
@example([([0, 0], [0]), ([0, 0, 0], [1]), ([0], [2])], 6, 2)  # one category repeated
@example([([0], [0]), ([0], [1]), ([0], [2]), ([1], [3]), ([0, 1], [4]), ([1], [5])],
         3, 3)                                                # c0 is over the size limit
def test_indexed_miner_matches_the_all_pairs_scan(specs, max_category_size, seed):
    records = [ArxivRecord(f"r{i}", "", " ".join(f"w{w}" for w in words),
                           [f"c{c}" for c in cats])
               for i, (cats, words) in enumerate(specs)]
    try:
        want = scan_mine(records, max_category_size, seed)
    except DataError as e:
        with pytest.raises(DataError, match=str(e)):
            mine_arxiv_negatives(records, max_category_size, seed)
        return
    got = mine_arxiv_negatives(records, max_category_size, seed)
    assert [e.to_json() for e in got[0]] == [e.to_json() for e in want[0]]
    assert got[1] == want[1]


def test_the_miner_refuses_a_repeated_record_id():
    records = [rec(0, ["a.x"], "first text"), rec(1, ["a.x"], "second text"),
               rec(0, ["b.y"], "third text")]
    with pytest.raises(DataError, match="record id000: id repeated"):
        mine_arxiv_negatives(records)


# --- triplets from mined negatives ----------------------------------------------------

def abstracts_entry(i, neighbor, sentences, title="paper title"):
    abstract = " ".join(sentences)
    return NegativesEntry(rec(i, ["a.x"], abstract, title=title),
                          [neighbor] * 20 + [neighbor])


def test_title_flavor_triplets():
    e0 = abstracts_entry(0, "id001", ["First zero.", "Second zero."])
    e1 = abstracts_entry(1, "id000", ["First one.", "Second one."])
    out = make_arxiv_triplets([e0, e1], "title", difficulty=1)
    assert out[0].query == "paper title"
    assert out[0].positives == [e0.record.abstract]
    assert out[0].negatives == [e1.record.abstract]


def test_title_flavor_skips_blank_titles():
    e0 = abstracts_entry(0, "id001", ["First zero.", "Second zero."], title=" \t ")
    e1 = abstracts_entry(1, "id000", ["First one.", "Second one."], title="kept")
    out = make_arxiv_triplets([e0, e1], "title", difficulty=1)
    assert [t.query for t in out] == ["kept"]


def test_an_arxiv_record_refuses_a_blank_abstract_and_a_non_string_title():
    for abstract in (" \n ", 7):
        message = f"record id007: abstract {abstract!r} is blank or not a string"
        with pytest.raises(DataError, match=re.escape(message)):
            rec(7, ["a.x"], abstract)
    with pytest.raises(DataError, match="record id007: title 7 is not a string"):
        rec(7, ["a.x"], "text", title=7)


def test_first_flavor_splits_off_the_first_sentence():
    e0 = abstracts_entry(0, "id001", ["Lead sentence.", "Body one.", "Body two."])
    e1 = abstracts_entry(1, "id000", ["Other lead.", "Other body."])
    out = make_arxiv_triplets([e0, e1], "first", difficulty=1)
    t = next(t for t in out if t.query == "Lead sentence.")
    assert t.positives == ["Body one. Body two."]
    assert t.negatives == ["Other body."]


def test_first_flavor_skips_single_sentence_abstracts():
    e0 = abstracts_entry(0, "id001", ["Only one sentence."])
    e1 = abstracts_entry(1, "id000", ["Two here.", "Yes two."])
    out = make_arxiv_triplets([e0, e1], "first", difficulty=1)
    assert all(t.query != "Only one sentence." for t in out)


def test_difficulty_indexes_into_the_neighbor_list():
    neighbors = [f"id{j:03d}" for j in range(1, 22)]
    records = {j: rec(j, ["a.x"], f"Sentence one {j}. Sentence two {j}.")
               for j in range(22)}
    entries = [NegativesEntry(records[0], neighbors)]
    entries += [NegativesEntry(records[j], [records[0].id] * 21) for j in range(1, 22)]
    for d in (1, 14, 21):
        out = make_arxiv_triplets(entries, "title", difficulty=d)
        t = next(t for t in out if t.query == records[0].title)
        assert t.negatives == [records[d].abstract]


def test_triplet_maker_validates_arguments():
    e = abstracts_entry(0, "id001", ["A b.", "C d."])
    with pytest.raises(DataError):
        make_arxiv_triplets([e], "bogus", 1)
    with pytest.raises(DataError):
        make_arxiv_triplets([e], "title", 0)
    with pytest.raises(DataError):
        make_arxiv_triplets([e], "title", 22)


# --- sentence splitting ------------------------------------------------------------

def test_split_sentences_spans_cover_the_text():
    text = "One two. Three four! Five six? Seven"
    sents = split_sentences(text)
    assert [s for s, _, _ in sents] == ["One two.", "Three four!", "Five six?", "Seven"]
    for s, a, b in sents:
        assert text[a:b] == s


# --- synthetic corpus ---------------------------------------------------------------

def test_synth_corpus_single_language_grid():
    spec = SynthCorpusSpec(n_languages=1, vocab_size=32, n_topics=4,
                           n_pretrain=10, n_tune=10, n_heldout=5,
                           n_pairs_per_label=3, seed=0)
    corpus = gen_synth_corpus(spec)
    assert {r["language"] for r in corpus.pair_records} == {"lang0"}


def test_synth_corpus_deterministic():
    spec = SynthCorpusSpec(n_pretrain=20, n_tune=20, n_heldout=10,
                           n_pairs_per_label=4, seed=5)
    a = gen_synth_corpus(spec)
    b = gen_synth_corpus(spec)
    assert [t.to_json() for t in a.pretrain] == [t.to_json() for t in b.pretrain]
    assert a.pair_records == b.pair_records
    assert all(np.array_equal(x, y) for x, y in zip(a.language_maps, b.language_maps))


def test_language_maps_are_bijections_with_identity_first():
    spec = SynthCorpusSpec(n_pretrain=5, n_tune=5, n_heldout=5,
                           n_pairs_per_label=2, seed=1)
    corpus = gen_synth_corpus(spec)
    assert np.array_equal(corpus.language_maps[0], np.arange(spec.vocab_size))
    for m in corpus.language_maps:
        assert sorted(m.tolist()) == list(range(spec.vocab_size))


def test_cipher_round_trip_through_inverse_map():
    spec = SynthCorpusSpec(n_pretrain=5, n_tune=5, n_heldout=5,
                           n_pairs_per_label=2, seed=2)
    corpus = gen_synth_corpus(spec)
    tok_index = {t: i for i, t in enumerate(corpus.vocab_tokens)}
    m = corpus.language_maps[2]
    inv = np.argsort(m)
    sent0 = corpus.tune_lang0[0].query
    idx0 = [tok_index[t] for t in sent0.split()]
    ciphered = [corpus.vocab_tokens[m[i]] for i in idx0]
    back = [corpus.vocab_tokens[inv[tok_index[t]]] for t in ciphered]
    assert " ".join(back) == sent0


def test_synth_corpus_shapes_and_parallel_pairs():
    spec = SynthCorpusSpec(n_languages=3, n_pretrain=7, n_tune=9, n_heldout=4,
                           n_pairs_per_label=5, seed=3)
    corpus = gen_synth_corpus(spec)
    assert len(corpus.pretrain) == 7 * 3
    assert len(corpus.tune_lang0) == 9
    assert set(corpus.heldout) == {0, 1, 2}
    assert all(len(v) == 4 for v in corpus.heldout.values())
    # every pair appears once per language
    per_pair = Counter(r["pair_id"] for r in corpus.pair_records)
    assert set(per_pair.values()) == {3}
    assert len(per_pair) == 3 * 5


def test_synth_spec_validation():
    with pytest.raises(DataError):
        SynthCorpusSpec(n_languages=0)
    with pytest.raises(DataError):
        SynthCorpusSpec(vocab_size=8, n_topics=8)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 400))
def test_split_is_always_a_partition(n):
    samples = [sample(i) for i in range(n)]
    train, valid, evals = split_msmarco(samples)
    assert train + valid + evals == samples
    assert len(train) >= 1 and len(valid) >= 1 and len(evals) >= 1

"""Dataset plumbing: triplet formats, split arithmetic, the hard-negative
miner with Jensen-Shannon ranking and its arxiv triplets, and the synthetic
cipher-language corpus generator for desk-scale experiments.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .tensor import Rng

# Exact boundaries of the 499184-sample tuning corpus; other sizes are split
# proportionally by the same boundaries.
MSMARCO_TOTAL = 499184
MSMARCO_TRAIN = 487983
MSMARCO_VALID = 4200
MSMARCO_EVAL = 7000


class DataError(ValueError):
    pass


@dataclass
class TripletSample:
    query: str
    positives: List[str]
    negatives: List[str]

    def to_json(self) -> str:
        return json.dumps({"query": self.query, "pos": self.positives,
                           "neg": self.negatives}, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "TripletSample":
        d = json.loads(line)
        where = f"query {d['query']!r}"
        if not isinstance(d["query"], str):
            raise DataError(f"{where}: query is not a string")
        pos, neg = _strings(d, "pos", where), _strings(d, "neg", where)
        if not (pos and neg):
            raise DataError(f"{where}: {len(pos)} positives, {len(neg)} negatives; "
                            "a triplet needs one of each")
        for field, texts in (("query", [d["query"]]), ("pos", pos), ("neg", neg)):
            if not all(t.strip() for t in texts):      # no token to encode
                raise DataError(f"{where}: {field} holds a blank text")
        return cls(d["query"], pos, neg)


def _strings(d: dict, field: str, where: str) -> List[str]:
    """d[field] when it is a list of strings, else a DataError naming `where`
    and the field (`list()` would split a string into its characters)."""
    value = d[field]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise DataError(f"{where}: {field} {value!r} is not a list of strings")
    return value


def write_triplets(samples: Iterable[TripletSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            fh.write(s.to_json() + "\n")


def read_jsonl(path, from_json) -> list:
    """`from_json(line)` for each non-blank line of `path`."""
    with open(path, encoding="utf-8") as fh:
        return [from_json(line) for line in fh if line.strip()]


def read_triplets(path) -> List[TripletSample]:
    return read_jsonl(path, TripletSample.from_json)


# --- split / expansion ----------------------------------------------------

def split_msmarco(samples: Sequence[TripletSample]
                  ) -> Tuple[List[TripletSample], List[TripletSample], List[TripletSample]]:
    """Contiguous (train, valid, eval) slices in original order.

    At the reference corpus size the slice sizes are exactly (487983, 4200,
    7000); those sum to one less than the total, so the single sample between
    the validation and evaluation slices is dropped ("the last 7000"). Other
    sizes are split proportionally with no samples dropped.
    """
    n = len(samples)
    if n < 3:
        raise DataError("need at least 3 samples to split three ways")
    if n == MSMARCO_TOTAL:
        train = list(samples[:MSMARCO_TRAIN])
        valid = list(samples[MSMARCO_TRAIN:MSMARCO_TRAIN + MSMARCO_VALID])
        evals = list(samples[n - MSMARCO_EVAL:])
        return train, valid, evals
    t = max(1, math.floor(n * MSMARCO_TRAIN / MSMARCO_TOTAL))
    v = max(1, math.floor(n * MSMARCO_VALID / MSMARCO_TOTAL))
    if t + v >= n:
        t, v = n - 2, 1
    return list(samples[:t]), list(samples[t:t + v]), list(samples[t + v:])


def expand_eval(samples: Sequence[TripletSample]) -> List[TripletSample]:
    """All (positive, negative) cross-product triplets; empty-sided samples
    are dropped (count available via the returned length difference)."""
    out: List[TripletSample] = []
    for s in samples:
        for p in s.positives:
            for ng in s.negatives:
                out.append(TripletSample(s.query, [p], [ng]))
    return out


# --- Jensen-Shannon distance and the arxiv-negatives miner -----------------

def token_histogram(text: str) -> Counter:
    """Lowercased whitespace token counts."""
    return Counter(text.lower().split())


def js_distance(a: Counter, b: Counter) -> float:
    """sqrt of the base-2 Jensen-Shannon divergence; a metric in [0, 1]."""
    na, nb = sum(a.values()), sum(b.values())
    if na == 0 or nb == 0:
        raise DataError("js_distance of an empty histogram")
    div = 0.0
    for token in sorted(a.keys() | b.keys()):
        # accumulate the two per-token terms smaller-first so the result is
        # exactly symmetric in (a, b)
        lo, hi = sorted((a.get(token, 0) / na, b.get(token, 0) / nb))
        m = 0.5 * (lo + hi)
        if lo > 0:
            div += 0.5 * lo * math.log2(lo / m)
        if hi > 0:
            div += 0.5 * hi * math.log2(hi / m)
    return math.sqrt(max(0.0, min(1.0, div)))


@dataclass
class ArxivRecord:
    id: str
    title: str
    abstract: str
    categories: List[str]

    def __post_init__(self):
        if not self.id or not self.abstract or not self.categories:
            raise DataError("arxiv record needs id, abstract and categories")
        if not (isinstance(self.abstract, str) and self.abstract.strip()):
            raise DataError(f"record {self.id}: abstract {self.abstract!r} is blank or "
                            "not a string")
        if not isinstance(self.title, str):
            raise DataError(f"record {self.id}: title {self.title!r} is not a string")

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "title": self.title,
                           "abstract": self.abstract, "categories": self.categories},
                          ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "ArxivRecord":
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, d: dict) -> "ArxivRecord":
        return cls(d["id"], d.get("title", ""), d["abstract"],
                   _strings(d, "categories", f"record {d['id']}"))


@dataclass
class NegativesEntry:
    record: ArxivRecord
    neighbor_ids: List[str]     # 20 nearest (ascending JS distance) + 1 random

    def to_json(self) -> str:
        return json.dumps({"record": json.loads(self.record.to_json()),
                           "neighbors": self.neighbor_ids}, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "NegativesEntry":
        d = json.loads(line)
        record = ArxivRecord.from_dict(d["record"])
        neighbors = _strings(d, "neighbors", f"record {record.id}")
        if len(neighbors) != 21:
            raise DataError(f"record {record.id}: {len(neighbors)} neighbors, not 21")
        return cls(record, neighbors)


@dataclass
class MiningStats:
    kept_records: int = 0
    empty_candidate_sets: int = 0
    all_distinct_top20: int = 0


def mine_arxiv_negatives(records: Sequence[ArxivRecord], max_category_size: int = 10000,
                         seed: int = 0) -> Tuple[List[NegativesEntry], MiningStats]:
    """Per record: 20 nearest prefix-matching papers by JS distance over
    abstract token histograms (padded by the last if fewer), plus one random
    distinct 21st. Deterministic in `seed`, including the random slot.
    """
    repeated = next((i for i, n in Counter(r.id for r in records).items() if n > 1), None)
    if repeated is not None:
        raise DataError(f"record {repeated}: id repeated")
    census = Counter(c for r in records for c in r.categories)
    small = {c for c, n in census.items() if n <= max_category_size}
    kept = [r for r in records if any(c in small for c in r.categories)]
    if len(kept) < 2:
        raise DataError("need at least 2 records after category filtering")

    cats = [tuple(sorted(r.categories, key=lambda c: (census[c], c))) for r in kept]
    hists = {r.id: token_histogram(r.abstract) for r in kept}
    all_ids = [r.id for r in kept]
    # sorted-category prefix -> ids of the kept records whose sorted list starts with it
    under: Dict[tuple, List[str]] = {}
    for rec, mine in zip(kept, cats):
        for n in range(1, len(mine) + 1):
            under.setdefault(mine[:n], []).append(rec.id)

    stats = MiningStats(kept_records=len(kept))
    entries: List[NegativesEntry] = []
    for idx, (rec, mine) in enumerate(zip(kept, cats)):
        # ids under the longest own prefix another shares: none shares a longer one
        shared = next((ids for n in range(len(mine), 0, -1)
                       if len(ids := under[mine[:n]]) > 1), [])
        candidates = [cid for cid in shared if cid != rec.id]

        rng = Rng(seed).spawn(2, idx)
        if not candidates:
            # no shared first category anywhere: fill from the random stage
            stats.empty_candidate_sets += 1
            rand_id = _random_other_id(all_ids, rec.id, rng)
            top20 = [rand_id] * 20
        else:
            ranked = sorted(candidates, key=lambda cid: (js_distance(hists[rec.id],
                                                                     hists[cid]), cid))
            top20 = ranked[:20]
            while len(top20) < 20:
                top20.append(top20[-1])
        extra = _random_other_id(all_ids, rec.id, rng)
        if len(set(top20)) == 20:
            stats.all_distinct_top20 += 1
        entries.append(NegativesEntry(rec, top20 + [extra]))
    return entries, stats


def _random_other_id(ids: Sequence[str], own: str, rng: Rng) -> str:
    while True:
        pick = ids[int(rng.integers(0, len(ids)))]
        if pick != own:
            return pick


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> List[Tuple[str, int, int]]:
    """(sentence, char_start, char_end) spans; split on ./!/? + whitespace."""
    out = []
    start = 0
    for m in _SENTENCE_RE.finditer(text):
        out.append((text[start:m.start()], start, m.start()))
        start = m.end()
    if start < len(text):
        out.append((text[start:], start, len(text)))
    return [(s, a, b) for s, a, b in out if s.strip()]


def make_arxiv_triplets(entries: Sequence[NegativesEntry], flavor: str,
                        difficulty: int) -> List[TripletSample]:
    """flavor "title": (title, abstract, other abstract); none from a blank title.
    flavor "first": (first sentence, rest of abstract, other abstract minus
    its first sentence). difficulty 1 = hardest neighbor, 21 = random.
    """
    if flavor not in ("title", "first"):
        raise DataError(f"unknown flavor {flavor!r}")
    if not (1 <= difficulty <= 21):
        raise DataError("difficulty must lie in 1..21")
    by_id = {e.record.id: e.record for e in entries}
    out: List[TripletSample] = []
    for e in entries:
        neg_rec = by_id.get(e.neighbor_ids[difficulty - 1])
        if neg_rec is None:
            continue
        if flavor == "title":
            if not e.record.title.strip():
                continue
            out.append(TripletSample(e.record.title, [e.record.abstract],
                                     [neg_rec.abstract]))
        else:
            q_sents = split_sentences(e.record.abstract)
            n_sents = split_sentences(neg_rec.abstract)
            if len(q_sents) < 2 or len(n_sents) < 2:
                continue
            first = q_sents[0][0]
            rest = e.record.abstract[q_sents[1][1]:]
            neg_rest = neg_rec.abstract[n_sents[1][1]:]
            out.append(TripletSample(first, [rest], [neg_rest]))
    return out


# --- synthetic cipher-language corpus ---------------------------------------

@dataclass(frozen=True)
class SynthCorpusSpec:
    n_languages: int = 4
    vocab_size: int = 96
    n_topics: int = 8
    sentence_len: int = 8
    topic_purity: float = 0.85       # fraction of tokens drawn from the topic slice
    n_pretrain: int = 400            # triplets per language
    n_tune: int = 400                # language-0 tuning triplets
    n_heldout: int = 200             # evaluation triplets per language
    n_pairs_per_label: int = 30      # grid pairs per label
    seed: int = 0

    def __post_init__(self):
        if self.n_languages < 1:
            raise DataError("need at least one language")
        if self.n_topics < 2:
            raise DataError("need at least two topics: a negative takes another topic")
        if self.vocab_size < 2 * self.n_topics:
            raise DataError("vocab too small for the requested topic count")


@dataclass
class SynthCorpus:
    spec: SynthCorpusSpec
    vocab_tokens: List[str]
    language_maps: List[np.ndarray]          # index permutations; map[0] = identity
    pretrain: List[TripletSample]            # all languages mixed
    tune_lang0: List[TripletSample]
    heldout: Dict[int, List[TripletSample]]  # language -> triplets
    pair_records: List[dict]                 # line records for the grid corpus


def _render(token_indices: Sequence[int], lang_tokens: Sequence[str]) -> str:
    return " ".join(lang_tokens[i] for i in token_indices)


def gen_synth_corpus(spec: SynthCorpusSpec) -> SynthCorpus:
    """Topic-conditioned token-bag sentences rendered through per-language
    bijective token maps. Deterministic in spec.seed."""
    rng = Rng(spec.seed)
    vocab_tokens = [f"w{i:03d}" for i in range(spec.vocab_size)]

    maps = [np.arange(spec.vocab_size)]
    for k in range(1, spec.n_languages):
        maps.append(rng.spawn(10, k).permutation(spec.vocab_size))

    # each language's surface form of every token index
    lang_tokens = [[vocab_tokens[j] for j in m] for m in maps]
    slice_size = spec.vocab_size // spec.n_topics
    # tested in float32: a float64 test would flip rare draws and so the corpus
    purity = np.float32(spec.topic_purity)

    def sentence(topic: int, r: Rng) -> List[int]:
        idx = []
        for _ in range(spec.sentence_len):
            if np.float32(r.random()) < purity:
                idx.append(topic * slice_size + int(r.integers(0, slice_size)))
            else:
                idx.append(int(r.integers(0, spec.vocab_size)))
        return idx

    def triplet(lang: int, r: Rng) -> TripletSample:
        t = int(r.integers(0, spec.n_topics))
        t_neg = int(r.integers(0, spec.n_topics - 1))
        if t_neg >= t:
            t_neg += 1
        m = lang_tokens[lang]
        return TripletSample(_render(sentence(t, r), m), [_render(sentence(t, r), m)],
                             [_render(sentence(t_neg, r), m)])

    r_pre = rng.spawn(20)
    pretrain = [triplet(k % spec.n_languages, r_pre) for k in range(
        spec.n_pretrain * spec.n_languages)]

    r_tune = rng.spawn(21)
    tune_lang0 = [triplet(0, r_tune) for _ in range(spec.n_tune)]

    heldout: Dict[int, List[TripletSample]] = {}
    for k in range(spec.n_languages):
        r_h = rng.spawn(22, k)
        heldout[k] = [triplet(k, r_h) for _ in range(spec.n_heldout)]

    # grid pairs: entailment shares a topic; neutral overlaps (half/half mix);
    # contradiction uses disjoint topics
    r_pair = rng.spawn(23)
    pair_records: List[dict] = []

    def mixed_sentence(t1: int, t2: int, r: Rng) -> List[int]:
        half = spec.sentence_len // 2
        return sentence(t1, r)[:half] + sentence(t2, r)[:spec.sentence_len - half]

    pid = 0
    for label in ("entailment", "neutral", "contradiction"):
        for _ in range(spec.n_pairs_per_label):
            t1 = int(r_pair.integers(0, spec.n_topics))
            t2 = int(r_pair.integers(0, spec.n_topics - 1))
            if t2 >= t1:
                t2 += 1
            s1 = sentence(t1, r_pair)
            if label == "entailment":
                s2 = sentence(t1, r_pair)
            elif label == "neutral":
                s2 = mixed_sentence(t1, t2, r_pair)
            else:
                s2 = sentence(t2, r_pair)
            for k in range(spec.n_languages):
                pair_records.append({
                    "pair_id": f"p{pid:05d}",
                    "label": label,
                    "language": f"lang{k}",
                    "sentence1": _render(s1, lang_tokens[k]),
                    "sentence2": _render(s2, lang_tokens[k]),
                })
            pid += 1

    return SynthCorpus(spec, vocab_tokens, maps, pretrain, tune_lang0,
                       heldout, pair_records)

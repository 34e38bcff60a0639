"""Language-pair grid evaluation: entailment pairs should be closer than
neutral or contradiction pairs, counted per (query-language, text-language)
cell with per-cell significance verdicts against a baseline grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .encoder import DualEncoder, Vocab, encode_many, measure_from_dots, token_limit
from .metrics import count_errors, z_test

LABELS = ("entailment", "neutral", "contradiction")
CONTRAST_LABELS = ("neutral", "contradiction")


class GridError(ValueError):
    pass


@dataclass
class PairCorpus:
    """Sentence pairs per label, with every sentence in every language."""

    languages: List[str]
    # label -> list of pairs; each pair is {language: (sentence1, sentence2)}
    pairs: Dict[str, List[Dict[str, Tuple[str, str]]]]

    def __post_init__(self):
        counts = {lbl: len(self.pairs.get(lbl, [])) for lbl in LABELS}
        if len(set(counts.values())) != 1:
            raise GridError(f"unequal pair counts per label: {counts}")
        for lbl in LABELS:
            for i, pair in enumerate(self.pairs[lbl]):
                missing = [l for l in self.languages if l not in pair]
                if missing:
                    raise GridError(f"{lbl} pair {i} missing translations: {missing}")

    @property
    def n_per_label(self) -> int:
        return len(self.pairs[LABELS[0]])

    @classmethod
    def from_records(cls, records: Sequence[dict]) -> "PairCorpus":
        """Records: {pair_id, label, language, sentence1, sentence2}."""
        languages: List[str] = []
        by_pair: Dict[str, Dict[str, Tuple[str, str]]] = {}
        label_of: Dict[str, str] = {}
        order: Dict[str, List[str]] = {lbl: [] for lbl in LABELS}
        for r in records:
            lang = r["language"]
            if lang not in languages:
                languages.append(lang)
            pid, lbl = r["pair_id"], r["label"]
            if lbl not in LABELS:
                raise GridError(f"unknown label {lbl!r}")
            if pid not in by_pair:
                by_pair[pid] = {}
                label_of[pid] = lbl
                order[lbl].append(pid)
            by_pair[pid][lang] = (r["sentence1"], r["sentence2"])
        pairs = {lbl: [by_pair[pid] for pid in order[lbl]] for lbl in LABELS}
        return cls(languages, pairs)

    @classmethod
    def load(cls, path) -> "PairCorpus":
        with open(path, encoding="utf-8") as fh:
            return cls.from_records([json.loads(line) for line in fh if line.strip()])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for lbl in LABELS:
                for i, pair in enumerate(self.pairs[lbl]):
                    for lang in self.languages:
                        s1, s2 = pair[lang]
                        fh.write(json.dumps({"pair_id": f"{lbl[:3]}{i:05d}", "label": lbl,
                                             "language": lang, "sentence1": s1,
                                             "sentence2": s2}, ensure_ascii=False) + "\n")


@dataclass
class PairGridReport:
    languages: List[str]
    measure: str
    n_per_label: int
    # contrast label -> (K, K) integer error counts, rows = query language
    errors: Dict[str, np.ndarray]

    @property
    def cell_total(self) -> int:
        return self.n_per_label * self.n_per_label

    def averaged_pnd(self, contrast: str) -> float:
        """Mean cell error count over all K*K cells, as a fraction of the
        per-cell total."""
        return float(self.errors[contrast].mean() / self.cell_total)


def grid_eval(model: DualEncoder, corpus: PairCorpus, measure: str,
              vocab: Vocab, max_len: int = 64) -> PairGridReport:
    """Error counts per language-pair cell, full cross product of entailment
    vs contrast pairs. sentence1 goes through the query encoder."""
    K = len(corpus.languages)
    n = corpus.n_per_label
    max_len = token_limit(max_len, model.config)

    # each sentence is encoded once per (language, side)
    emb_q: Dict[Tuple[str, str], np.ndarray] = {}
    emb_t: Dict[Tuple[str, str], np.ndarray] = {}
    for lbl in LABELS:
        for lang in corpus.languages:
            s1 = [pair[lang][0] for pair in corpus.pairs[lbl]]
            s2 = [pair[lang][1] for pair in corpus.pairs[lbl]]
            emb_q[(lbl, lang)] = encode_many(
                model.query_params, [vocab.encode(t, max_len) for t in s1], model.config)
            emb_t[(lbl, lang)] = encode_many(
                model.text_params, [vocab.encode(t, max_len) for t in s2], model.config)

    def pair_sims(lbl: str, lq: str, lt: str) -> np.ndarray:
        a = emb_q[(lbl, lq)].astype(np.float64)
        b = emb_t[(lbl, lt)].astype(np.float64)
        return measure_from_dots(np.sum(a * b, axis=1), measure)

    errors = {c: np.zeros((K, K), dtype=np.int64) for c in CONTRAST_LABELS}
    for qi, lq in enumerate(corpus.languages):
        for ti, lt in enumerate(corpus.languages):
            ent = pair_sims("entailment", lq, lt)
            for contrast in CONTRAST_LABELS:
                errors[contrast][qi, ti] = count_errors(ent, pair_sims(contrast, lq, lt))
    return PairGridReport(list(corpus.languages), measure, n, errors)


@dataclass
class GridComparison:
    improved: Dict[str, int]
    worsened: Dict[str, int]
    not_significant: Dict[str, int]
    # contrast -> (K, K) verdict matrix: +1 improved, -1 worsened, 0 neither
    verdicts: Dict[str, np.ndarray]


def grid_compare(base: PairGridReport, tuned: PairGridReport,
                 variant: str = "paper") -> GridComparison:
    """Per-cell Z-test on (base errors, tuned errors); a cell improves when
    the change is significant and errors went down."""
    if base.languages != tuned.languages or base.measure != tuned.measure \
            or base.n_per_label != tuned.n_per_label:
        raise GridError("grid reports are not comparable")
    K = len(base.languages)
    total = base.cell_total
    improved = {c: 0 for c in CONTRAST_LABELS}
    worsened = {c: 0 for c in CONTRAST_LABELS}
    neither = {c: 0 for c in CONTRAST_LABELS}
    verdicts = {c: np.zeros((K, K), dtype=np.int64) for c in CONTRAST_LABELS}
    for contrast in CONTRAST_LABELS:
        for qi in range(K):
            for ti in range(K):
                n0 = int(base.errors[contrast][qi, ti])
                n1 = int(tuned.errors[contrast][qi, ti])
                zt = z_test(n0, n1, total, variant)
                if zt.significant and n1 < n0:
                    improved[contrast] += 1
                    verdicts[contrast][qi, ti] = 1
                elif zt.significant and n1 > n0:
                    worsened[contrast] += 1
                    verdicts[contrast][qi, ti] = -1
                else:
                    neither[contrast] += 1
    return GridComparison(improved, worsened, neither, verdicts)

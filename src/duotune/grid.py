"""Language-pair grid evaluation: entailment pairs should be closer than
neutral or contradiction pairs, counted per (query-language, text-language)
cell with per-cell significance verdicts against a baseline grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .data import read_jsonl
from .encoder import DualEncoder, Plan, Vocab, measure_from_dots, run_plans
from .encoder import encode_many  # unused here: perfbench/tracer.py wraps grid.encode_many
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

    def __len__(self) -> int:       # pairs per label
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
            elif label_of[pid] != lbl:
                raise GridError(f"pair {pid!r}: label {lbl!r}, first given as {label_of[pid]!r}")
            if lang in by_pair[pid]:
                raise GridError(f"pair {pid!r}, language {lang!r}: given twice")
            pair = by_pair[pid][lang] = (r["sentence1"], r["sentence2"])
            if not all(isinstance(t, str) and t.strip() for t in pair):
                raise GridError(f"pair {pid!r}, language {lang!r}: sentences {list(pair)!r} "
                                "must be non-blank strings")
        pairs = {lbl: [by_pair[pid] for pid in order[lbl]] for lbl in LABELS}
        return cls(languages, pairs)

    @classmethod
    def load(cls, path) -> "PairCorpus":
        return cls.from_records(read_jsonl(path, json.loads))


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


def grid_plan(model: DualEncoder, corpus: PairCorpus, measures: Sequence[str],
              vocab: Vocab) -> Plan:
    """`grid_reports` as a plan (see `run_plans`): one group per (label,
    language, side), kept apart, as padding a row into a longer batch can change it."""
    langs, max_len = corpus.languages, model.config.max_positions
    towers = (model.query_params, model.text_params)
    index = [(side, lbl, lang) for lbl in LABELS for lang in langs for side in (0, 1)]
    groups = [(towers[side], [vocab.encode(pair[lang][side], max_len)
                              for pair in corpus.pairs[lbl]]) for side, lbl, lang in index]

    def finish(encodes: List[np.ndarray]) -> Dict[str, PairGridReport]:
        emb = dict(zip(index, encodes))
        query, text = ({lbl: np.stack([emb[(side, lbl, lang)] for lang in langs])
                        .astype(np.float64) for lbl in LABELS} for side in (0, 1))
        # per label, (K, K, n) row-wise dot products: query language, text language, pair
        dots = {lbl: np.sum(query[lbl][:, None] * text[lbl][None], axis=-1) for lbl in LABELS}

        def cell(i):
            return f"grid cell (query {langs[i[0]]}, text {langs[i[1]]})"
        reports = {}
        for m in measures:
            ent = measure_from_dots(dots["entailment"], m)
            reports[m] = PairGridReport(list(langs), m, len(corpus), {
                c: count_errors(ent, measure_from_dots(dots[c], m), cell) for c in CONTRAST_LABELS})
        return reports
    return groups, finish


def grid_reports(model: DualEncoder, corpus: PairCorpus, measures: Sequence[str],
                 vocab: Vocab) -> Dict[str, PairGridReport]:
    """Per-cell error counts under each of `measures`: the full cross product of
    entailment vs contrast pairs, sentence1 through the query encoder, from one
    encode of each group for every measure."""
    return run_plans([grid_plan(model, corpus, measures, vocab)], model.config)[0]


def grid_eval(model: DualEncoder, corpus: PairCorpus, measure: str,
              vocab: Vocab) -> PairGridReport:
    """`grid_reports` under one measure."""
    return grid_reports(model, corpus, (measure,), vocab)[measure]


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

    def verdict(n0, n1) -> int:
        n0, n1 = int(n0), int(n1)
        return ((n0 > n1) - (n0 < n1)) * z_test(n0, n1, base.cell_total, variant).significant

    verdicts = {c: np.vectorize(verdict, otypes=[np.int64])(base.errors[c], tuned.errors[c])
                for c in CONTRAST_LABELS}
    counts = ({c: int(np.sum(v == k)) for c, v in verdicts.items()} for k in (1, -1, 0))
    return GridComparison(*counts, verdicts)

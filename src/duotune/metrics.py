"""Retrieval quality measures: PND, MRR/MAP/P@1, relative improvement,
and the pooled two-proportion Z-test used to flag significant changes.

The Z statistic is computed, by default, exactly as the formula we follow
is printed: Z = (p1 - p0) / sqrt(1/2 * P * (1 - P) * N). That denominator
differs from the textbook pooled two-proportion statistic
sqrt(2 * P * (1 - P) / N); the `variant` switch selects between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .encoder import measure_from_dots, similarity_matrix

Z_CRITICAL = 1.96


class MetricsError(ValueError):
    pass


@dataclass
class QueryJudgments:
    """One query embedding plus labeled candidate embeddings."""

    query: np.ndarray
    candidates: np.ndarray          # (n, hidden)
    is_positive: np.ndarray         # (n,) bool

    def __post_init__(self):
        self.is_positive = np.asarray(self.is_positive, dtype=bool)
        if len(self.candidates) != len(self.is_positive):
            raise MetricsError("candidates and labels differ in length")


@dataclass
class EvalReport:
    measure: str
    errors: int                     # total (positive, negative) error pairs
    total: int                      # total (positive, negative) pairs
    pnd: float                      # per-query PND averaged over queries
    mrr: float
    map: float
    p_at_1: float

    def csv_row(self) -> List[str]:
        return [self.measure, str(self.errors), str(self.total),
                *(f"{v:.10g}" for v in (self.pnd, self.mrr, self.map, self.p_at_1))]


def count_errors(pos_sims: np.ndarray, neg_sims: np.ndarray,
                 where: Callable[[tuple], str] = lambda i: f"row {i}") -> np.ndarray:
    """Per row of the last axis (leading axes are kept), the (positive, negative)
    pairs where the positive is not strictly more similar; ties count as errors.
    A stable argsort puts each positive before the negatives it ties with, and it
    errs against every negative after it. A NaN or inf names `where(row index)`."""
    both = np.concatenate([pos_sims, neg_sims], axis=-1)
    bad = np.argwhere(~np.isfinite(both).all(axis=-1))
    if len(bad):
        raise MetricsError(f"non-finite similarity in {where(tuple(bad[0].tolist()))}")
    is_neg = np.argsort(both, axis=-1, kind="stable") >= np.shape(pos_sims)[-1]
    return np.where(is_neg, 0, np.shape(neg_sims)[-1] - np.cumsum(is_neg, axis=-1)).sum(-1)


def full_reports(judgments: Sequence[QueryJudgments],
                 measures: Sequence[str]) -> Dict[str, EvalReport]:
    """PND, MRR, MAP and P@1 under each measure, with one product, argsort and
    `count_errors` call per candidate shape (candidate count, positive count).

    A pair errs when the positive is not strictly more similar to the query than
    the negative; ties count as errors. Ranks are by descending similarity with
    stable tie order.
    """
    if not judgments:
        raise MetricsError("scoring needs at least one query")
    shapes = np.array([(len(q.is_positive), np.count_nonzero(q.is_positive)) for q in judgments])
    n_cand, n_pos = shapes.T
    if ((n_pos == 0) | (n_pos == n_cand)).any():
        raise MetricsError("scoring needs >=1 positive and >=1 negative per query")
    # per measure and query: errors, RR, AP, P@1
    rows = {m: (np.empty(len(shapes), dtype=np.int64), *np.empty((3, len(shapes))))
            for m in measures}
    for n, p in np.unique(shapes, axis=0):
        idx = np.flatnonzero((shapes == (n, p)).all(axis=1))
        query, cands, labels = (np.stack([getattr(judgments[i], f) for i in idx])
                                for f in ("query", "candidates", "is_positive"))
        dots = similarity_matrix(query[:, None], cands, "cosine")[:, 0]
        for m, (errors, rr, ap, p1) in rows.items():
            sims = measure_from_dots(dots, m)
            errors[idx] = count_errors(sims[labels].reshape(-1, p),
                                       sims[~labels].reshape(-1, n - p),
                                       lambda i: f"query {idx[i[0]]}")
            hits = np.take_along_axis(labels, np.argsort(-sims, axis=-1, kind="stable"), -1)
            ranks = np.nonzero(hits)[1].reshape(-1, p) + 1
            rr[idx], p1[idx] = 1.0 / ranks[:, 0], hits[:, 0]
            ap[idx] = np.mean(np.arange(1, p + 1) / ranks, axis=-1)
    pairs = n_pos * (n_cand - n_pos)
    return {m: EvalReport(m, int(errors.sum()), int(pairs.sum()),
                          float(np.mean(errors / pairs)), float(np.mean(rr)),
                          float(np.mean(ap)), float(np.mean(p1)))
            for m, (errors, rr, ap, p1) in rows.items()}


def pnd(judgments: Sequence[QueryJudgments], measure: str) -> EvalReport:
    """`full_reports` under one measure: PND with the rank metrics."""
    return full_reports(judgments, (measure,))[measure]


def rank_metrics(judgments: Sequence[QueryJudgments], measure: str) -> Tuple[float, float, float]:
    """(MRR, MAP, P@1) with descending similarity and stable tie order."""
    rep = pnd(judgments, measure)
    return rep.mrr, rep.map, rep.p_at_1


def improvement(m_before: float, m_after: float, sign: int) -> float:
    """Relative change; sign=-1 for error-like measures (smaller is better)."""
    if m_before == 0:
        raise MetricsError("relative improvement undefined for a zero baseline")
    if sign not in (-1, 1):
        raise MetricsError("sign must be +1 or -1")
    return sign * (m_after - m_before) / m_before


@dataclass
class ZTestResult:
    p0: float
    p1: float
    pooled: float
    z: Optional[float]
    z_critical: float
    significant: bool


def z_test(n0: int, n1: int, total: int, variant: str = "paper") -> ZTestResult:
    """Pooled two-proportion Z-test for error counts n0 (before) and n1 (after).

    variant="paper" uses sqrt(1/2 * P(1-P) * N) in the denominator as printed
    in the formula this lab follows; variant="textbook" uses the standard
    sqrt(2 * P(1-P) / N). A degenerate pooled proportion (P in {0, 1}) is
    reported as not significant with z undefined.
    """
    if total <= 0:
        raise MetricsError("total must be > 0")
    if not (0 <= n0 <= total and 0 <= n1 <= total):
        raise MetricsError("counts must lie in [0, total]")
    if variant not in ("paper", "textbook"):
        raise MetricsError(f"unknown z-test variant {variant!r}")
    p0 = n0 / total
    p1 = n1 / total
    pooled = 0.5 * (n0 + n1) / total
    if pooled <= 0.0 or pooled >= 1.0:
        return ZTestResult(p0, p1, pooled, None, Z_CRITICAL, False)
    if variant == "paper":
        denom = math.sqrt(0.5 * pooled * (1.0 - pooled) * total)
    else:
        denom = math.sqrt(2.0 * pooled * (1.0 - pooled) / total)
    z = (p1 - p0) / denom
    return ZTestResult(p0, p1, pooled, z, Z_CRITICAL, abs(z) > Z_CRITICAL)

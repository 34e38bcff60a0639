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
from typing import Dict, List, Optional, Sequence, Tuple

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
    n_queries: int
    errors: int                     # total (positive, negative) error pairs
    total: int                      # total (positive, negative) pairs
    pnd: float                      # per-query PND averaged over queries
    mrr: float
    map: float
    p_at_1: float

    def csv_row(self) -> List[str]:
        return [self.measure, str(self.errors), str(self.total),
                *(f"{v:.10g}" for v in (self.pnd, self.mrr, self.map, self.p_at_1))]


def count_errors(pos_sims: np.ndarray, neg_sims: np.ndarray) -> int:
    """Number of (positive, negative) pairs where the positive is not strictly
    more similar than the negative; ties count as errors."""
    neg = np.sort(neg_sims)
    return int(len(pos_sims) * len(neg) - np.searchsorted(neg, pos_sims, side="left").sum())


def full_reports(judgments: Sequence[QueryJudgments],
                 measures: Sequence[str]) -> Dict[str, EvalReport]:
    """PND, MRR, MAP and P@1 under each measure, from one product per query.

    A pair errs when the positive is not strictly more similar to the query
    than the negative; ties count as errors. Ranks are by descending
    similarity with stable tie order.
    """
    if not judgments:
        raise MetricsError("scoring needs at least one query")
    rows: Dict[str, list] = {m: [] for m in measures}   # per query: errors, pairs, RR, AP, P@1
    for q in judgments:
        if q.is_positive.all() or not q.is_positive.any():
            raise MetricsError("scoring needs >=1 positive and >=1 negative per query")
        dots = similarity_matrix(q.query[None, :], q.candidates, "cosine")[0]  # unit rows
        for m in measures:
            sims = measure_from_dots(dots, m)
            labels = q.is_positive[np.argsort(-sims, kind="stable")]
            ranks = np.nonzero(labels)[0] + 1
            rows[m].append((count_errors(sims[q.is_positive], sims[~q.is_positive]),
                            len(ranks) * (len(labels) - len(ranks)), 1.0 / ranks[0],
                            float(np.mean(np.arange(1, len(ranks) + 1) / ranks)),
                            float(labels[0])))
    reports = {}
    for m, per_query in rows.items():
        errors, pairs, rr, ap, p1 = zip(*per_query)
        reports[m] = EvalReport(m, len(judgments), sum(errors), sum(pairs),
                                float(np.mean([e / n for e, n in zip(errors, pairs)])),
                                float(np.mean(rr)), float(np.mean(ap)), float(np.mean(p1)))
    return reports


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

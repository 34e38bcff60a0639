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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .encoder import similarity_matrix

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
    mrr: Optional[float] = None
    map: Optional[float] = None
    p_at_1: Optional[float] = None

    def csv_row(self) -> List[str]:
        opt = lambda v: "" if v is None else f"{v:.10g}"
        return [self.measure, str(self.errors), str(self.total),
                f"{self.pnd:.10g}", opt(self.mrr), opt(self.map), opt(self.p_at_1)]


def count_errors(pos_sims: np.ndarray, neg_sims: np.ndarray) -> int:
    """Number of (positive, negative) pairs where the positive is not strictly
    more similar than the negative; ties count as errors."""
    neg = np.sort(neg_sims)
    return int(len(pos_sims) * len(neg) - np.searchsorted(neg, pos_sims, side="left").sum())


def pnd(judgments: Sequence[QueryJudgments], measure: str) -> EvalReport:
    """Positive-negative discrepancy, averaged over queries.

    A pair errs when the positive is not strictly more similar to the query
    than the negative; ties count as errors.
    """
    if not judgments:
        raise MetricsError("pnd needs at least one query")
    errors = total = 0
    per_query = []
    for q in judgments:
        sims = similarity_matrix(q.query[None, :], q.candidates, measure)[0]
        pos, neg = sims[q.is_positive], sims[~q.is_positive]
        if len(pos) == 0 or len(neg) == 0:
            raise MetricsError("pnd needs >=1 positive and >=1 negative per query")
        e, n = count_errors(pos, neg), len(pos) * len(neg)
        errors += e
        total += n
        per_query.append(e / n)
    return EvalReport(measure, len(judgments), errors, total, float(np.mean(per_query)))


def rank_metrics(judgments: Sequence[QueryJudgments], measure: str) -> Tuple[float, float, float]:
    """(MRR, MAP, P@1) with descending similarity and stable tie order."""
    if not judgments:
        raise MetricsError("rank_metrics needs at least one query")
    rr, ap, p1 = [], [], []
    for q in judgments:
        if not q.is_positive.any():
            raise MetricsError("rank_metrics needs >=1 positive per query")
        sims = similarity_matrix(q.query[None, :], q.candidates, measure)[0]
        order = np.argsort(-sims, kind="stable")
        labels = q.is_positive[order]
        ranks = np.nonzero(labels)[0] + 1
        rr.append(1.0 / ranks[0])
        hits = np.arange(1, len(ranks) + 1)
        ap.append(float(np.mean(hits / ranks)))
        p1.append(1.0 if labels[0] else 0.0)
    return float(np.mean(rr)), float(np.mean(ap)), float(np.mean(p1))


def full_report(judgments: Sequence[QueryJudgments], measure: str) -> EvalReport:
    rep = pnd(judgments, measure)
    rep.mrr, rep.map, rep.p_at_1 = rank_metrics(judgments, measure)
    return rep


def improvement(m_before: float, m_after: float, sign: int) -> float:
    """Relative change; sign=-1 for error-like measures (smaller is better)."""
    if m_before == 0:
        raise MetricsError("relative improvement undefined for a zero baseline")
    if sign not in (-1, 1):
        raise MetricsError("sign must be +1 or -1")
    return sign * (m_after - m_before) / m_before


@dataclass
class ZTestResult:
    n0: int
    n1: int
    total: int
    p0: float
    p1: float
    pooled: float
    z: Optional[float]
    z_critical: float
    significant: bool
    variant: str


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
        return ZTestResult(n0, n1, total, p0, p1, pooled, None, Z_CRITICAL, False, variant)
    if variant == "paper":
        denom = math.sqrt(0.5 * pooled * (1.0 - pooled) * total)
    else:
        denom = math.sqrt(2.0 * pooled * (1.0 - pooled) / total)
    z = (p1 - p0) / denom
    return ZTestResult(n0, n1, total, p0, p1, pooled, z, Z_CRITICAL,
                       abs(z) > Z_CRITICAL, variant)

"""PND, ranking metrics, the improvement measure, and the Z-test against
independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotune.encoder import similarity
from duotune.metrics import (EvalReport, MetricsError, QueryJudgments,
                             count_errors, full_report, improvement, pnd,
                             rank_metrics, z_test)
from tests.conftest import random_unit


def judgments_from(rng, n_queries, max_candidates=10, dim=6):
    out = []
    for _ in range(n_queries):
        n = int(rng.integers(2, max_candidates + 1))
        labels = np.zeros(n, dtype=bool)
        labels[rng.integers(0, n)] = True
        extra = rng.integers(0, 2, size=n).astype(bool)
        labels |= extra
        if labels.all():
            labels[0] = False
        cands = np.stack([random_unit(rng, dim) for _ in range(n)])
        out.append(QueryJudgments(random_unit(rng, dim), cands, labels))
    return out


def brute_force_pnd(judgments, measure):
    """Independent double-loop count with the tie-as-error convention."""
    errors = 0
    total = 0
    fractions = []
    for q in judgments:
        e = n = 0
        for i in range(len(q.candidates)):
            if not q.is_positive[i]:
                continue
            sp = similarity(q.query, q.candidates[i], measure)
            for j in range(len(q.candidates)):
                if q.is_positive[j]:
                    continue
                sn = similarity(q.query, q.candidates[j], measure)
                n += 1
                if sp <= sn:
                    e += 1
        errors += e
        total += n
        fractions.append(e / n)
    return errors, total, float(np.mean(fractions))


# --- PND ---------------------------------------------------------------------

def test_pnd_zero_when_all_positives_strictly_closer():
    q = np.array([1.0, 0.0])
    pos = np.array([[1.0, 0.0]])
    neg = np.array([[0.0, 1.0]])
    j = [QueryJudgments(q, np.vstack([pos, neg]), np.array([True, False]))]
    rep = pnd(j, "cosine")
    assert rep.errors == 0 and rep.pnd == 0.0


def test_pnd_one_when_roles_are_swapped():
    q = np.array([1.0, 0.0])
    j = [QueryJudgments(q, np.array([[0.0, 1.0], [1.0, 0.0]]),
                        np.array([True, False]))]
    rep = pnd(j, "cosine")
    assert rep.errors == rep.total == 1 and rep.pnd == 1.0


def test_ties_count_as_errors():
    q = np.array([1.0, 0.0])
    same = np.array([[0.0, 1.0], [0.0, 1.0]])
    j = [QueryJudgments(q, same, np.array([True, False]))]
    assert pnd(j, "cosine").errors == 1


@pytest.mark.parametrize("measure", ["cosine", "euclidean"])
def test_pnd_matches_brute_force_double_loop(measure):
    rng = np.random.default_rng(10)
    judgments = judgments_from(rng, 40)
    rep = pnd(judgments, measure)
    errors, total, averaged = brute_force_pnd(judgments, measure)
    assert rep.errors == errors
    assert rep.total == total
    assert rep.pnd == pytest.approx(averaged, abs=1e-12)


# small integer values, so positives and negatives often tie
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=8), st.lists(st.integers(-3, 3), max_size=8))
def test_count_errors_matches_double_loop(pos, neg):
    expected = sum(1 for p in pos for n in neg if p <= n)
    assert count_errors(np.array(pos, dtype=np.float64),
                        np.array(neg, dtype=np.float64)) == expected


def test_pnd_invariant_under_monotone_similarity_transform():
    # scaling all embeddings' similarities monotonically cannot change PND;
    # exercised via the euclidean/cosine pair, which are monotone transforms
    # of each other on unit vectors
    rng = np.random.default_rng(1)
    judgments = judgments_from(rng, 30)
    assert pnd(judgments, "cosine").errors == pnd(judgments, "euclidean").errors


def test_pnd_requires_both_sides():
    q = np.array([1.0, 0.0])
    j = [QueryJudgments(q, np.array([[0.0, 1.0]]), np.array([True]))]
    with pytest.raises(MetricsError):
        pnd(j, "cosine")


# --- ranking metrics ------------------------------------------------------------

def _single(query, ordered_cands, labels):
    return [QueryJudgments(query, np.stack(ordered_cands), np.array(labels))]


def test_rank_metrics_positive_first():
    q = np.array([1.0, 0.0])
    cands = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    mrr, map_, p1 = rank_metrics(_single(q, cands, [True, False]), "cosine")
    assert (mrr, map_, p1) == (1.0, 1.0, 1.0)


def test_rank_metrics_positive_fourth_of_five():
    q = np.array([1.0, 0.0])
    # descending similarity by construction
    angles = [0.1, 0.2, 0.3, 0.4, 0.5]
    cands = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    labels = [False, False, False, True, False]
    mrr, map_, p1 = rank_metrics(_single(q, cands, labels), "cosine")
    assert mrr == pytest.approx(0.25)
    assert p1 == 0.0


def test_rank_metrics_ap_matches_hand_enumeration():
    rng = np.random.default_rng(8)
    q = random_unit(rng)
    cands = [random_unit(rng) for _ in range(8)]
    labels = [True, False, True, False, False, True, False, False]
    j = _single(q, cands, labels)
    _, map_, _ = rank_metrics(j, "cosine")

    sims = [similarity(q, c, "cosine") for c in cands]
    order = sorted(range(8), key=lambda i: -sims[i])
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            precisions.append(hits / rank)
    assert map_ == pytest.approx(float(np.mean(precisions)), abs=1e-12)


def test_rank_metrics_need_a_positive():
    q = np.array([1.0, 0.0])
    with pytest.raises(MetricsError):
        rank_metrics(_single(q, [np.array([0.0, 1.0])], [False]), "cosine")


def test_full_report_csv_row_shape():
    rng = np.random.default_rng(4)
    rep = full_report(judgments_from(rng, 5), "cosine")
    assert isinstance(rep, EvalReport)
    assert len(rep.csv_row()) == 7


# --- improvement -----------------------------------------------------------------

def test_improvement_zero_when_unchanged():
    assert improvement(0.3, 0.3, -1) == 0.0


def test_improvement_error_like_measure():
    assert improvement(0.048, 0.0438, -1) == pytest.approx(0.0875, rel=1e-12)


def test_improvement_gain_like_measure():
    assert improvement(0.50, 0.51, 1) == pytest.approx(0.02, rel=1e-12)


def test_improvement_sign_semantics():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, m2 = rng.uniform(0.01, 1.0, size=2)
        s = int(rng.choice([-1, 1]))
        assert (improvement(m, m2, s) > 0) == (s * (m2 - m) > 0) or m == m2


def test_improvement_rejects_zero_baseline():
    with pytest.raises(MetricsError):
        improvement(0.0, 0.1, -1)


# --- Z-test -----------------------------------------------------------------------

def z_oracle(n0, n1, total, variant):
    """Independently coded evaluation of the pooled two-proportion statistic."""
    p0, p1 = n0 / total, n1 / total
    P = (n0 + n1) / (2 * total)
    if P <= 0 or P >= 1:
        return None
    if variant == "paper":
        return (p1 - p0) / math.sqrt(0.5 * P * (1 - P) * total)
    return (p1 - p0) / math.sqrt(2 * P * (1 - P) / total)


def test_z_is_zero_for_equal_counts():
    r = z_test(25, 25, 100)
    assert r.z == 0.0 and not r.significant


def test_z_antisymmetry():
    a = z_test(60, 40, 1000)
    b = z_test(40, 60, 1000)
    assert a.z == pytest.approx(-b.z, rel=1e-15)


def test_z_worked_example():
    r = z_test(60, 40, 1000)
    assert (r.p0, r.p1, r.pooled) == (0.06, 0.04, 0.05)
    expect = -0.02 / math.sqrt(0.5 * 0.05 * 0.95 * 1000)
    assert r.z == pytest.approx(expect, rel=1e-12)
    assert not r.significant


def test_z_degenerate_pooled_proportion():
    r = z_test(0, 0, 50)
    assert r.z is None and not r.significant
    r = z_test(50, 50, 50)
    assert r.z is None and not r.significant


def test_z_significance_gate_uses_1_96():
    # textbook variant with a large effect at moderate N clears the gate
    r = z_test(300, 200, 1000, variant="textbook")
    assert abs(r.z) > 1.96 and r.significant
    r = z_test(210, 200, 1000, variant="textbook")
    assert abs(r.z) <= 1.96 and not r.significant


@pytest.mark.parametrize("variant", ["paper", "textbook"])
def test_z_matches_independent_oracle_on_random_counts(variant):
    rng = np.random.default_rng(123)
    for _ in range(1000):
        total = int(rng.integers(1, 100000))
        n0 = int(rng.integers(0, total + 1))
        n1 = int(rng.integers(0, total + 1))
        got = z_test(n0, n1, total, variant=variant)
        expect = z_oracle(n0, n1, total, variant)
        if expect is None:
            assert got.z is None
        else:
            assert got.z == pytest.approx(expect, abs=1e-12, rel=1e-12)


def test_z_input_validation():
    with pytest.raises(MetricsError):
        z_test(1, 1, 0)
    with pytest.raises(MetricsError):
        z_test(5, 1, 4)
    with pytest.raises(MetricsError):
        z_test(1, 1, 10, variant="bogus")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1000), st.integers(0, 1000), st.integers(0, 1000))
def test_z_significant_iff_beyond_critical(total, n0, n1):
    n0, n1 = min(n0, total), min(n1, total)
    r = z_test(n0, n1, total)
    if r.z is None:
        assert not r.significant
    else:
        assert r.significant == (abs(r.z) > r.z_critical)

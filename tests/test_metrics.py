"""PND, ranking metrics, the improvement measure, and the Z-test against
independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duotune import metrics
from duotune.data import SynthCorpusSpec, gen_synth_corpus
from duotune.encoder import MEASURES, Vocab, measure_from_dots, similarity
from duotune.lab import judgments_from_triplets
from duotune.metrics import (EvalReport, MetricsError, QueryJudgments,
                             count_errors, full_reports, improvement, pnd,
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
    rep = pnd(judgments_from(rng, 5), "cosine")
    assert isinstance(rep, EvalReport)
    assert len(rep.csv_row()) == 7


def test_full_reports_score_each_query_once_for_every_measure(monkeypatch):
    judgments = judgments_from(np.random.default_rng(5), 30, max_candidates=4)
    shapes = {(len(q.is_positive), int(q.is_positive.sum())) for q in judgments}
    assert len(shapes) < len(judgments)
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return similarity_matrix(*args)

    similarity_matrix = metrics.similarity_matrix
    monkeypatch.setattr(metrics, "similarity_matrix", counting)
    reports = full_reports(judgments, MEASURES)
    # one batched product per candidate shape, covering every query once
    assert len(calls) == len(shapes) and sum(calls) == len(judgments)
    for m in MEASURES:
        assert reports[m] == pnd(judgments, m)
        assert (reports[m].mrr, reports[m].map, reports[m].p_at_1) == rank_metrics(judgments, m)


# --- batched scoring against the per-query loop it replaced ----------------------

def per_query_reports(judgments, measures):
    """`full_reports` as it was before scoring went to arrays: one query at a
    time, with a sort and a binary search for the error count."""
    rows = {m: [] for m in measures}
    for q in judgments:
        dots = metrics.similarity_matrix(q.query[None, :], q.candidates, "cosine")[0]
        for m in measures:
            sims = measure_from_dots(dots, m)
            labels = q.is_positive[np.argsort(-sims, kind="stable")]
            ranks = np.nonzero(labels)[0] + 1
            neg = np.sort(sims[~q.is_positive])
            errors = len(ranks) * len(neg) - np.searchsorted(neg, sims[q.is_positive]).sum()
            rows[m].append((int(errors), len(ranks) * (len(labels) - len(ranks)),
                            1.0 / ranks[0], float(np.mean(np.arange(1, len(ranks) + 1) / ranks)),
                            float(labels[0])))
    reports = {}
    for m, per_query in rows.items():
        errors, pairs, rr, ap, p1 = zip(*per_query)
        reports[m] = EvalReport(m, len(judgments), sum(errors), sum(pairs),
                                float(np.mean([e / n for e, n in zip(errors, pairs)])),
                                float(np.mean(rr)), float(np.mean(ap)), float(np.mean(p1)))
    return reports


def hex_fields(report):
    return [v.hex() if isinstance(v, float) else v for v in vars(report).values()]


def tied_judgments(rng, n_queries, dim=5, dtype=np.float32):
    """Judgments of mixed shapes (1-7 candidates, positives anywhere) whose
    candidates come from a pool of four vectors, so similarities often tie."""
    pool = np.stack([random_unit(rng, dim) for _ in range(4)]).astype(dtype)
    out = []
    for _ in range(n_queries):
        n = int(rng.integers(2, 8))
        labels = rng.permutation(np.arange(n) < rng.integers(1, n))
        out.append(QueryJudgments(random_unit(rng, dim).astype(dtype),
                                  pool[rng.integers(0, 4, size=n)], labels))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_full_reports_equal_the_per_query_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    judgments = tied_judgments(rng, 60, dim=int(rng.integers(2, 40)),
                               dtype=(np.float32, np.float64)[seed % 2])
    got, want = full_reports(judgments, MEASURES), per_query_reports(judgments, MEASURES)
    for m in MEASURES:
        assert hex_fields(got[m]) == hex_fields(want[m]), m


def test_full_reports_equal_the_per_query_loop_on_a_heldout_set(tiny_model, tiny_vocab):
    spec = SynthCorpusSpec(n_languages=1, vocab_size=30, n_topics=4, n_pretrain=0,
                           n_tune=0, n_heldout=200, n_pairs_per_label=0, seed=3)
    corpus = gen_synth_corpus(spec)
    vocab = Vocab(corpus.vocab_tokens)
    judgments = judgments_from_triplets(tiny_model, corpus.heldout[0], vocab)
    assert len(judgments) == 200
    got, want = full_reports(judgments, MEASURES), per_query_reports(judgments, MEASURES)
    for m in MEASURES:
        assert hex_fields(got[m]) == hex_fields(want[m]), m


# few distinct values, so positives and negatives often tie
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_count_errors_matches_double_loop(data):
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="leading axes"))
    p, n = data.draw(st.integers(0, 6), label="p"), data.draw(st.integers(0, 6), label="n")
    values = st.sampled_from([-1.0, 0.0, 0.25, 1.0])
    pos = data.draw(arrays(np.float64, (*lead, p), elements=values), label="pos")
    neg = data.draw(arrays(np.float64, (*lead, n), elements=values), label="neg")
    if p and n:     # force a tie in every row
        neg[..., 0] = pos[..., 0]
    got = count_errors(pos, neg)
    assert np.shape(got) == lead
    for i in np.ndindex(*lead):
        assert got[i] == sum(1 for a in pos[i] for b in neg[i] if a <= b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_count_errors_refuses_a_non_finite_similarity_naming_its_row(bad):
    pos, neg = np.zeros((2, 3, 2)), np.ones((2, 3, 4))
    neg[1, 2, 3] = bad
    with pytest.raises(MetricsError, match=r"non-finite similarity in row \(1, 2\)"):
        count_errors(pos, neg)


@pytest.mark.parametrize("measure", MEASURES)
def test_full_reports_refuse_a_nan_similarity_naming_the_query(measure):
    # before: errors 0 while MRR ranked the NaN positive second
    q = np.array([1.0, 0.0])
    judgments = [QueryJudgments(q, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                                [True, False, False]),
                 QueryJudgments(q, np.array([[np.nan, 0.0], [0.0, 1.0]]), [True, False])]
    with pytest.raises(MetricsError, match="non-finite similarity in query 1"):
        full_reports(judgments, (measure,))


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjfit.metrics import (
    RankedPrediction,
    UndefinedMetricError,
    ap,
    auc,
    gauc,
    ndcg,
)
from pjfit.numerics import seeded_rng

from oracles import ap_threshold_sweep, auc_pair_counting, gauc_weighted_by_hand, ndcg_scalar_loop


def preds_from(scores, labels, job="j1"):
    return [RankedPrediction(f"c{i}", job, s, y) for i, (s, y) in enumerate(zip(scores, labels))]


def random_preds(rng, n, n_jobs=1):
    scores = rng.normal(size=n)
    # quantize some scores to force ties
    tie_mask = rng.random(n) < 0.3
    scores[tie_mask] = np.round(scores[tie_mask], 1)
    labels = (rng.random(n) < 0.4).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    jobs = rng.integers(0, n_jobs, size=n)
    return [RankedPrediction(f"c{i}", f"j{jobs[i]}", float(scores[i]), int(labels[i])) for i in range(n)]


# ------------------------------------------------------------------ auc


def test_auc_perfect_separation():
    assert auc(preds_from([0.9, 0.2, 0.7], [1, 0, 0])) == 1.0


def test_auc_all_tied_scores_is_half():
    assert auc(preds_from([0.5, 0.5], [1, 0])) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        auc(preds_from([0.5, 0.2], [1, 1]))


def test_auc_matches_pair_counting_oracle_on_random_instances():
    rng = seeded_rng(0)
    for _ in range(30):
        preds = random_preds(rng, int(rng.integers(2, 200)))
        scores = [p.score for p in preds]
        labels = [p.label for p in preds]
        assert abs(auc(preds) - auc_pair_counting(scores, labels)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_auc_invariant_under_monotone_transform_and_label_flip(data):
    n = data.draw(st.integers(2, 30))
    # coarse grid keeps the affine transform collision-free in float64
    scores = [k / 1000 for k in data.draw(st.lists(st.integers(-5000, 5000), min_size=n, max_size=n))]
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if set(labels) != {0, 1}:
        labels[0], labels[-1] = 0, 1
    base = auc(preds_from(scores, labels))
    transformed = auc(preds_from([3.0 * s + 1.0 for s in scores], labels))
    assert abs(base - transformed) < 1e-12
    if len(set(scores)) == len(scores):  # flip identity needs tie-free scores
        flipped = auc(preds_from(scores, [1 - y for y in labels]))
        assert abs(flipped - (1.0 - base)) < 1e-12


# ------------------------------------------------------------------ gauc


def test_gauc_single_group_equals_auc():
    preds = preds_from([0.9, 0.1, 0.4, 0.6], [1, 0, 0, 1])
    assert gauc(preds) == auc(preds)


def test_gauc_hand_weighted_example():
    # group A: 4 samples, AUC 1.0; group B: 6 samples, AUC 0.5
    a = preds_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], job="a")
    b = preds_from([0.5] * 6, [1, 1, 1, 0, 0, 0], job="b")
    assert abs(gauc(a + b) - (4 * 1.0 + 6 * 0.5) / 10) < 1e-12


def test_gauc_excludes_single_class_groups():
    mixed = preds_from([0.9, 0.1], [1, 0], job="ok")
    pure = preds_from([0.7, 0.6], [1, 1], job="onlypos")
    assert gauc(mixed + pure) == gauc(mixed)


def test_gauc_no_valid_group_raises():
    with pytest.raises(UndefinedMetricError):
        gauc(preds_from([0.7, 0.6], [1, 1], job="onlypos") + preds_from([0.1], [0], job="onlyneg"))


def test_gauc_matches_hand_oracle_on_random_instances():
    rng = seeded_rng(7)
    for _ in range(20):
        preds = random_preds(rng, int(rng.integers(4, 150)), n_jobs=5)
        try:
            expected = gauc_weighted_by_hand(preds)
        except ValueError:
            continue
        assert abs(gauc(preds) - expected) < 1e-9


# ------------------------------------------------------------------ ndcg


def test_ndcg_perfect_ranking_is_one():
    assert ndcg(preds_from([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0


def test_ndcg_hand_derived_example():
    # predicted order labels [1,0,1]: DCG = 1 + 0 + 1/2; IDCG = 1 + 1/log2(3)
    got = ndcg(preds_from([0.9, 0.5, 0.1], [1, 0, 1]))
    assert abs(got - 0.91972) < 1e-4
    assert abs(got - 1.5 / (1.0 + 1.0 / np.log2(3.0))) < 1e-12


def test_ndcg_all_positives_is_one_regardless_of_scores():
    assert ndcg(preds_from([0.1, 0.9, 0.5], [1, 1, 1])) == 1.0


def test_ndcg_zero_positives_raises():
    with pytest.raises(UndefinedMetricError):
        ndcg(preds_from([0.4, 0.2], [0, 0]))


def test_ndcg_matches_scalar_loop_oracle_and_stays_in_unit_interval():
    rng = seeded_rng(11)
    for _ in range(30):
        preds = random_preds(rng, int(rng.integers(2, 200)))
        scores = [p.score for p in preds]
        labels = [p.label for p in preds]
        got = ndcg(preds)
        assert abs(got - ndcg_scalar_loop(scores, labels)) < 1e-9
        assert 0.0 <= got <= 1.0


def test_ndcg_is_one_iff_positives_precede_negatives():
    assert ndcg(preds_from([3.0, 2.0, 1.0], [1, 1, 0])) == 1.0
    assert ndcg(preds_from([3.0, 2.0, 1.0], [1, 0, 1])) < 1.0


# ------------------------------------------------------------------ ap


def test_ap_perfect_separation_is_one():
    assert ap(preds_from([0.9, 0.8, 0.1, 0.05], [1, 1, 0, 0])) == 1.0


def test_ap_hand_enumerated_thresholds():
    # thresholds .9/.8/.7: precisions (1, 1/2, 2/3), recall steps (1/2, 0, 1/2)
    got = ap(preds_from([0.9, 0.8, 0.7], [1, 0, 1]))
    assert abs(got - (0.5 * 1.0 + 0.0 * 0.5 + 0.5 * (2.0 / 3.0))) < 1e-12
    assert abs(got - 0.8333) < 1e-4


def test_ap_matches_threshold_sweep_oracle_on_random_instances():
    rng = seeded_rng(23)
    for _ in range(30):
        preds = random_preds(rng, int(rng.integers(2, 200)))
        scores = [p.score for p in preds]
        labels = [p.label for p in preds]
        assert abs(ap(preds) - ap_threshold_sweep(scores, labels)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ap_invariant_under_monotone_transform(data):
    n = data.draw(st.integers(2, 25))
    # coarse grid keeps tanh collision-free in float64: on arbitrary floats it
    # maps neighbours such as 3.0 and 3.0 - 4e-16 to one value, creating a tie
    scores = [k / 1000 for k in data.draw(st.lists(st.integers(-3000, 3000), min_size=n, max_size=n))]
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if sum(labels) == 0:
        labels[0] = 1
    base = ap(preds_from(scores, labels))
    squashed = ap(preds_from([np.tanh(s) for s in scores], labels))
    assert abs(base - squashed) < 1e-9

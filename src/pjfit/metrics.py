"""Ranking metrics over scored candidate-job pairs.

Definitions, with labels y in {0,1} and N scored samples:

* AUC: probability a uniformly random positive outranks a uniformly random
  negative; score ties count 1/2.
* GAUC: per-job AUCs averaged with weights proportional to each job's
  sample count. Jobs whose samples are single-class have no AUC; they are
  excluded and the weights renormalized over the remaining jobs.
* NDCG: DCG = sum_i y_i / log2(i+1) over the list sorted by descending
  score (ties keep input order), divided by the same sum over the ideal
  label-sorted order.
* AP: sum over descending score thresholds of (recall step) x precision.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. single-class labels)."""


@dataclass(frozen=True)
class RankedPrediction:
    """A scored pair; job_id is the grouping key for GAUC."""

    candidate_id: str
    job_id: str
    score: float
    label: int


def _scores_labels(preds: Sequence[RankedPrediction]) -> tuple[np.ndarray, np.ndarray]:
    if not preds:
        raise UndefinedMetricError("no predictions")
    scores = np.array([p.score for p in preds], dtype=np.float64)
    labels = np.array([p.label for p in preds], dtype=np.int64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if set(np.unique(labels)) - {0, 1}:
        raise ValueError("labels must be 0 or 1")
    return scores, labels


def auc(preds: Sequence[RankedPrediction]) -> float:
    scores, labels = _scores_labels(preds)
    return _auc_arrays(scores, labels)


def _auc_arrays(scores: np.ndarray, labels: np.ndarray) -> float:
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    # rank-based Mann-Whitney with mid-ranks for ties: a tie block's
    # mid-rank is the average of its 1-based ranks, ending at ``ends``
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[inv]
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def gauc(preds: Sequence[RankedPrediction]) -> float:
    _scores_labels(preds)  # validate
    groups: dict[str, list[RankedPrediction]] = defaultdict(list)
    for p in preds:
        groups[p.job_id].append(p)
    weighted = 0.0
    total_weight = 0
    for members in groups.values():
        labels = {p.label for p in members}
        if labels != {0, 1}:
            continue  # single-class job: AUC undefined, excluded
        scores = np.array([p.score for p in members])
        y = np.array([p.label for p in members])
        weighted += len(members) * _auc_arrays(scores, y)
        total_weight += len(members)
    if total_weight == 0:
        raise UndefinedMetricError("GAUC: no job group contains both classes")
    return weighted / total_weight


def ndcg(preds: Sequence[RankedPrediction]) -> float:
    scores, labels = _scores_labels(preds)
    if labels.sum() == 0:
        raise UndefinedMetricError("NDCG needs at least one positive")
    order = np.argsort(-scores, kind="mergesort")  # stable: ties keep input order
    discounts = 1.0 / np.log2(np.arange(2, labels.size + 2))
    dcg = float((labels[order] * discounts).sum())
    ideal = np.sort(labels)[::-1]
    idcg = float((ideal * discounts).sum())
    return dcg / idcg


def ap(preds: Sequence[RankedPrediction]) -> float:
    scores, labels = _scores_labels(preds)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("AP needs at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    tp = np.cumsum(y)
    pred_pos = np.arange(1, y.size + 1)
    # thresholds are the distinct scores; evaluate at the last index of each tie block
    block_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    precision = tp[block_end] / pred_pos[block_end]
    recall = tp[block_end] / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())

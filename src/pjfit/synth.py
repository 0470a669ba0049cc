"""Seeded synthetic dataset generator.

Builds a category-structured corpus where ranking quality is measurable at
desk scale: each category owns a unit prototype vector, entity embeddings
are noisy normalized copies of their prototype, and configured category
pairs ("confusable" ones, e.g. Data vs Technology) share their prototype on
half the dimensions so their entities sit close in embedding space while
differing in category. Positives pair same-category entities; hard
negatives come from the confusable partner. Interaction histories are
replayed from train-period events only, so no test-period information
leaks into model inputs, and the pair timeline is interleaved across jobs
so every job has both train and test activity.

Texts are templated word-sample stubs: long enough structure for the
augmentation pipeline's length and keyword mechanics, not natural language.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pjfit.config import STAGES, _checked_fields
from pjfit.domain import CategoryVocab, Dataset, EntityRecord, Pair
from pjfit.domain.vocab import DEFAULT_CATEGORIES
from pjfit.metrics import RankedPrediction, UndefinedMetricError, auc
from pjfit.numerics import seeded_rng

_WORDS = (
    "analysis pipelines stakeholder delivery roadmap experiments metrics tooling "
    "automation reporting modelling deployment reviews architecture quality strategy "
    "optimization collaboration forecasting segmentation monitoring integration "
    "documentation prototyping budgeting scheduling procurement negotiation campaigns "
    "creative retention onboarding compliance governance incident playbooks capacity "
    "localization accessibility benchmarks instrumentation telemetry warehousing "
    "routing inventory merchandising copywriting community moderation research"
).split()


@dataclass(frozen=True)
class SynthConfig:
    n_candidates: int = 300
    n_jobs: int = 60
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    confusable_pairs: tuple[tuple[str, str], ...] = (("Data", "Technology"),)
    prototype_noise: float = 0.3
    short_jd_fraction: float = 0.25
    embedding_dim: int = 1024
    positives_per_job: float = 4.0
    hard_negative_fraction: float = 0.5
    test_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name in ("short_jd_fraction", "hard_negative_fraction", "test_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        vocab = set(self.categories)
        for a, b in self.confusable_pairs:
            if a not in vocab or b not in vocab:
                raise ValueError(f"confusable pair ({a!r}, {b!r}) references unknown category")
            if a == b:
                raise ValueError("confusable pair must name two distinct categories")
        if len(self.categories) < 2:
            raise ValueError("need at least two categories to draw negatives")
        if self.n_candidates < len(self.categories):
            raise ValueError("need at least one candidate per category")
        if self.n_jobs < 1 or self.embedding_dim < 2:
            raise ValueError("n_jobs and embedding_dim must be meaningful")
        for name in ("prototype_noise", "positives_per_job"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN too
                raise ValueError(f"{name} must be >= 0 and finite")


def _string_list(value, key: str, length: int | None = None) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and length in (None, len(value))):
        shape = f"{length} strings" if length else "strings"
        raise TypeError(f"synth config key {key!r} must be a JSON list of {shape}, got {value!r}")
    return tuple(value)


def synth_config_from_dict(d: dict) -> SynthConfig:
    """A SynthConfig from a JSON document. An unknown key raises ValueError;
    a value of the wrong type raises TypeError: ``categories`` must be a
    list of names and ``confusable_pairs`` a list of two-name lists."""
    d = _checked_fields(SynthConfig, d, "synth")
    if "categories" in d:
        d["categories"] = _string_list(d["categories"], "categories")
    if "confusable_pairs" in d:
        pairs = d["confusable_pairs"]
        if not isinstance(pairs, list):
            raise TypeError(f"synth config key 'confusable_pairs' must be a JSON list, got {pairs!r}")
        d["confusable_pairs"] = tuple(_string_list(p, "confusable_pairs", 2) for p in pairs)
    return SynthConfig(**d)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def _prototypes(cfg: SynthConfig, rng) -> dict[str, np.ndarray]:
    protos = {name: _unit(rng.normal(size=cfg.embedding_dim)) for name in cfg.categories}
    half = cfg.embedding_dim // 2
    for a, b in cfg.confusable_pairs:
        merged = protos[b].copy()
        merged[:half] = protos[a][:half]
        protos[b] = _unit(merged)
    return protos


def _text(rng, category: str, target_len: int, role: str) -> str:
    lead = f"{category} {role}: "
    words = []
    while len(lead) + sum(len(w) + 1 for w in words) < target_len:
        words.append(_WORDS[int(rng.integers(len(_WORDS)))])
    text = lead + " ".join(words)
    return text[:target_len] if len(text) > target_len else text


def _embedding(cfg: SynthConfig, rng, proto: np.ndarray) -> np.ndarray:
    if cfg.prototype_noise == 0.0:
        return proto.copy()
    return _unit(proto + cfg.prototype_noise * rng.normal(size=cfg.embedding_dim))


def generate_dataset(cfg: SynthConfig) -> tuple[Dataset, dict]:
    """Deterministic dataset plus metadata describing its composition."""
    rng = seeded_rng(cfg.seed)
    vocab = CategoryVocab(cfg.categories)
    protos = _prototypes(cfg, rng)
    n_cat = len(cfg.categories)
    partner = {}
    for a, b in cfg.confusable_pairs:
        partner[a] = b
        partner[b] = a

    cand_category = {f"c{i:05d}": cfg.categories[i % n_cat] for i in range(cfg.n_candidates)}
    job_category = {f"j{i:05d}": cfg.categories[i % n_cat] for i in range(cfg.n_jobs)}
    by_category: dict[str, list[str]] = {name: [] for name in cfg.categories}
    for cid, cat in cand_category.items():
        by_category[cat].append(cid)

    cand_embedding = {cid: _embedding(cfg, rng, protos[cat]) for cid, cat in cand_category.items()}
    job_embedding = {jid: _embedding(cfg, rng, protos[cat]) for jid, cat in job_category.items()}

    # per-job event streams: positives from the job's category, negatives
    # hard (confusable partner) or easy (any other category)
    per_job_events: dict[str, list[tuple[str, int]]] = {}
    n_hard = 0
    for jid, cat in job_category.items():
        k_pos = 1 + int(rng.poisson(max(cfg.positives_per_job - 1.0, 0.0)))
        pool = by_category[cat]
        chosen = [pool[int(rng.integers(len(pool)))] for _ in range(k_pos)]
        events: list[tuple[str, int]] = []
        seen = set()
        for cid in chosen:
            if cid in seen:
                continue
            seen.add(cid)
            events.append((cid, 1))
            hard = rng.random() < cfg.hard_negative_fraction and cat in partner
            easy_cats = [c for c in cfg.categories if c != cat and partner.get(cat) != c]
            if hard or not easy_cats:
                neg_cat = partner[cat]
                hard = True
            else:
                neg_cat = easy_cats[int(rng.integers(len(easy_cats)))]
            neg_pool = by_category[neg_cat]
            events.append((neg_pool[int(rng.integers(len(neg_pool)))], 0))
            n_hard += int(hard)
        per_job_events[jid] = events

    # interleave across jobs so each job spans the whole timeline
    pairs: list[Pair] = []
    ts = 1_000_000
    cursors = {jid: 0 for jid in per_job_events}
    remaining = sum(len(v) for v in per_job_events.values())
    while remaining:
        for jid, events in per_job_events.items():
            i = cursors[jid]
            if i >= len(events):
                continue
            cid, label = events[i]
            pairs.append(Pair(cid, jid, label, ts))
            ts += 10
            cursors[jid] += 1
            remaining -= 1

    split_index = max(1, math.floor(len(pairs) * (1.0 - cfg.test_fraction)))
    split_ts = pairs[split_index].ts if split_index < len(pairs) else pairs[-1].ts + 10

    # histories replay only pre-split events, one list per stage in STAGES
    # order; label 1 walks the stage funnel, label 0 stops at evaluated
    # (sometimes passed_eval)
    hists = {eid: [[] for _ in STAGES] for eid in list(cand_category) + list(job_category)}
    for p in pairs:
        if p.ts >= split_ts:
            continue
        reached = 1
        if p.label == 1:
            if rng.random() < 0.9:
                reached = 2
                if rng.random() < 0.8:
                    reached = 3
        elif rng.random() < 0.3:
            reached = 2
        for stage in range(reached):
            hists[p.candidate_id][stage].append(p.job_id)
            hists[p.job_id][stage].append(p.candidate_id)

    n_short_target = round(cfg.n_jobs * cfg.short_jd_fraction)
    short_jobs = set(list(job_category)[:n_short_target])

    candidates = {}
    for cid, cat in cand_category.items():
        candidates[cid] = EntityRecord(
            id=cid, kind="candidate",
            text=_text(rng, cat, int(rng.integers(240, 420)), "profile"),
            category_id=vocab.id_of(cat), embedding=cand_embedding[cid],
            histories=tuple(map(tuple, hists[cid])),
        )
    jobs = {}
    for jid, cat in job_category.items():
        target = int(rng.integers(80, 190)) if jid in short_jobs else int(rng.integers(260, 440))
        jobs[jid] = EntityRecord(
            id=jid, kind="job",
            text=_text(rng, cat, target, "opening"),
            category_id=vocab.id_of(cat), embedding=job_embedding[jid],
            histories=tuple(map(tuple, hists[jid])),
        )

    dataset = Dataset(vocab, candidates, jobs, pairs, cfg.embedding_dim)

    n_pos = sum(1 for p in pairs if p.label == 1)
    test_pairs = [p for p in pairs if p.ts >= split_ts]
    meta = {
        "generator": "synthetic-v1",
        "seed": cfg.seed,
        "categories": list(cfg.categories),
        "confusable_pairs": [list(p) for p in cfg.confusable_pairs],
        "embedding_dim": cfg.embedding_dim,
        "prototype_noise": cfg.prototype_noise,
        "n_candidates": cfg.n_candidates,
        "n_jobs": cfg.n_jobs,
        "n_pairs": len(pairs),
        "n_positive": n_pos,
        "n_negative": len(pairs) - n_pos,
        "n_hard_negative": n_hard,
        "hard_negative_fraction_config": cfg.hard_negative_fraction,
        "n_short_jd": len(short_jobs),
        "short_jd_share": len(short_jobs) / cfg.n_jobs,
        "split_ts": split_ts,
        "n_train_pairs": len(pairs) - len(test_pairs),
        "n_test_pairs": len(test_pairs),
        "baseline_cosine_auc": _cosine_baseline(dataset, test_pairs),
    }
    return dataset, meta


def _cosine_baseline(dataset: Dataset, test_pairs: list[Pair]) -> float | None:
    """Raw embedding-similarity AUC on the test split; the calibration
    reference for prototype_noise."""
    preds = []
    for p in test_pairs:
        c = dataset.candidates[p.candidate_id].embedding
        j = dataset.jobs[p.job_id].embedding
        preds.append(RankedPrediction(p.candidate_id, p.job_id, float(c @ j), p.label))
    try:
        return auc(preds)
    except UndefinedMetricError:
        return None

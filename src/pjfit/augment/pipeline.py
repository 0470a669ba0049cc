"""Batch JD augmentation.

Short job descriptions are selected, prompted against their historically
hired resumes, completed by a pluggable client, and validated: a rewrite is
accepted only if it retains at least 70% of the original keywords and does
not shrink. Anything else (rejection, client failure) keeps the original
text. Accepted records carry a marker field so reruns are no-ops.
"""

from __future__ import annotations

import dataclasses
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from pjfit.augment.client import CompletionClient, CompletionError
from pjfit.augment.template import Prompt, PromptTemplate, TemplateLibrary
from pjfit.domain import Dataset, EntityRecord

RETENTION_THRESHOLD = 0.7

# minimal English stopword list; the templated corpus is English-like
STOPWORDS = frozenset(
    "a an and are as at be but by for from has have in is it its of on or "
    "that the their this to was we will with you your our they them he she "
    "i me my no not so if then than too very can could should would about "
    "into over under after before between both each few more most other "
    "some such only own same s t don just now".split()
)

_TOKEN = re.compile(r"\w+", re.UNICODE)


def keywords(text: str) -> set[str]:
    """Deduplicated lowercase word tokens minus stopwords."""
    return {t for t in (m.group(0).lower() for m in _TOKEN.finditer(text))
            if t not in STOPWORDS}


@dataclass(frozen=True)
class RewriteVerdict:
    accepted: bool
    retention: float
    reason: str


def validate_rewrite(original: str, rewritten: str) -> RewriteVerdict:
    """Keyword-retention and length checks.

    Retention is |keywords(original) ∩ keywords(rewritten)| over
    |keywords(original)|. Accepted rewrites must retain at least 70% and
    must not be shorter than the original, since the pipeline targets
    under-specified descriptions.
    """
    original_kw = keywords(original)
    if not original_kw:
        return RewriteVerdict(False, 0.0, "original text has no keywords")
    retention = len(original_kw & keywords(rewritten)) / len(original_kw)
    if retention < RETENTION_THRESHOLD:
        return RewriteVerdict(False, retention,
                              f"keyword retention {retention:.3f} below {RETENTION_THRESHOLD}")
    if len(rewritten) < len(original):
        return RewriteVerdict(False, retention, "rewrite is shorter than the original")
    return RewriteVerdict(True, retention, "accepted")


def select_low_quality(jobs, threshold: int) -> list[EntityRecord]:
    """Jobs whose text length in Unicode scalar values is strictly below
    the threshold, in id order (input order never matters)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return sorted((j for j in jobs if len(j.text) < threshold), key=lambda j: j.id)


def build_prompt(jd: EntityRecord, matched_resumes, template: PromptTemplate,
                 max_resumes: int = 5) -> Prompt:
    """Fill the template for one JD.

    ``matched_resumes`` is ordered most recent first; at most
    ``max_resumes`` are included. With no resumes the block is replaced by
    the template's expert-knowledge branch.
    """
    kept = list(matched_resumes)[:max_resumes]
    if kept:
        block = "\n\n".join(f"Resume {i}:\n{text}" for i, text in enumerate(kept, start=1))
    else:
        block = template.no_resume_branch
    user = template.user_body.format(original_jd=jd.text, matched_resumes=block)
    return Prompt(system=template.system, user=user)


@dataclass(frozen=True)
class AugmentationRecord:
    job_id: str
    original_text: str
    prompt: str
    completion: str
    accepted: bool
    retention: float
    reason: str


def augment_batch(dataset: Dataset, client: CompletionClient,
                  templates: TemplateLibrary, threshold: int = 200,
                  parallelism: int = 4) -> tuple[Dataset, list[AugmentationRecord]]:
    """Augment every short, not-yet-augmented JD in the dataset.

    At most ``parallelism`` completion requests are in flight. Results are
    applied after all requests finish and the log is ordered by job id, so
    the outcome does not depend on scheduling. Client failures keep the
    original text and the batch continues.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    selected = [j for j in select_low_quality(dataset.jobs.values(), threshold)
                if not j.augmented]
    prompts: dict[str, Prompt] = {}
    for job in selected:
        resumes = [dataset.candidates[cid].text
                   for cid in reversed(job.history("passed_interview"))]
        template = templates.for_category(dataset.vocab.name_of(job.category_id))
        prompts[job.id] = build_prompt(job, resumes, template)

    def request(job_id: str):
        p = prompts[job_id]
        try:
            return job_id, client.complete(p.system, p.user), None
        except CompletionError as exc:
            return job_id, None, str(exc)

    outcomes: dict[str, tuple[str | None, str | None]] = {}
    if selected:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            for job_id, completion, error in pool.map(request, [j.id for j in selected]):
                outcomes[job_id] = (completion, error)

    records: list[AugmentationRecord] = []
    replacements: dict[str, EntityRecord] = {}
    for job in selected:
        completion, error = outcomes[job.id]
        prompt_text = prompts[job.id].text
        if error is not None:
            records.append(AugmentationRecord(
                job.id, job.text, prompt_text, "", False, 0.0, f"client error: {error}"))
            continue
        verdict = validate_rewrite(job.text, completion)
        records.append(AugmentationRecord(
            job.id, job.text, prompt_text, completion,
            verdict.accepted, verdict.retention, verdict.reason))
        if verdict.accepted:
            replacements[job.id] = dataclasses.replace(
                job, text=completion, augmented=True, text_original=job.text)

    updated = dataset.with_entities(replacements) if replacements else dataset
    return updated, records


def original_jd_texts(dataset: Dataset) -> Dataset:
    """The dataset with every augmented JD back at its pre-augmentation
    text; embeddings are untouched."""
    return dataset.with_entities({
        j.id: dataclasses.replace(j, text=j.text_original, augmented=False, text_original=None)
        for j in dataset.jobs.values() if j.augmented})

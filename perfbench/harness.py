"""One workload run: generate inputs, then set up, train, checkpoint,
evaluate and rank through the public API of ``pjfit``.

Every call into the program goes through a module attribute looked up at
call time (``training.train``, ``cli.rank_candidates``, ...), so the traced
mode can wrap the same names the program itself looks up.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pjfit import augment, checkpoint, cli, domain, training
from pjfit.config import ModelConfig, TrainConfig
from pjfit.domain.records import save_data_dir
from pjfit.metrics import RankedPrediction, auc
from pjfit.numerics import spawn_rngs
from pjfit.synth import SynthConfig, generate_dataset

from checks import Checks
from workloads import SHORT_JD_THRESHOLD, Workload

# Set-up is repeated and its median reported, so that one slow disk write
# does not decide setup_s.
SETUP_REPEATS = 3
# Rank requests per ranked job at least; the median over them is reported.
RANK_PASSES = 3


@dataclass
class Inputs:
    """Everything one seed fixes, generated before any timing starts."""

    workload: Workload
    seed: int
    data_dir: Path
    checkpoint_path: Path
    train_config: TrainConfig
    split_ts: int
    train_pairs: list             # the trained positives
    eval_pairs: list              # test pairs that are evaluated
    rank_requests: list           # (job id, candidate ids)
    partner: dict                 # category name -> confusable partner
    parallelism: int
    makeup: dict


@dataclass
class Round:
    """Timings and outputs of one run's phases, in call order."""

    setup_load_s: list = field(default_factory=list)
    setup_checkpoint_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    train_losses: list = field(default_factory=list)
    train_pairs: int = 0
    train_steps: int = 0
    eval_s: list = field(default_factory=list)
    eval_metrics: list = field(default_factory=list)
    eval_preds: list = field(default_factory=list)
    rank_s: list = field(default_factory=list)
    rank_sizes: list = field(default_factory=list)
    rankings: list = field(default_factory=list)
    augment_records: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0
    # kept for the checks
    dataset: object = None
    store: object = None
    model_config: object = None


def prepare(workload: Workload, seed: int, work_dir: Path, parallelism: int) -> Inputs:
    """Generate the data directory and fix every seeded choice. Untimed."""
    synth = SynthConfig(seed=seed, **workload.synth)
    dataset, meta = generate_dataset(synth)
    data_dir = work_dir / "data"
    save_data_dir(dataset, meta, data_dir)

    model = ModelConfig(n_categories=len(synth.categories), **workload.model)
    if model.d_model != synth.embedding_dim:
        raise ValueError(f"{workload.name}: d_model {model.d_model} != embedding dim {synth.embedding_dim}")
    train_config = TrainConfig(seed=seed, short_jd_threshold=SHORT_JD_THRESHOLD, model=model,
                               **workload.train)
    rng = np.random.default_rng([seed, 7])
    train_split, test_split = dataset.split_temporal(int(meta["split_ts"]))

    positives = [p for p in train_split.pairs if p.label == 1]
    keep = sorted(rng.choice(len(positives), workload.train_positives, replace=False))
    train_pairs = [positives[i] for i in keep]

    test_jobs = sorted({p.job_id for p in test_split.pairs})
    if workload.eval_jobs is not None:
        test_jobs = sorted(rng.choice(test_jobs, workload.eval_jobs, replace=False).tolist())
    chosen = set(test_jobs)
    eval_pairs = [p for p in test_split.pairs if p.job_id in chosen]

    # ranked jobs come from the evaluated ones, and each list starts with the
    # job's evaluated candidates, so rank and eval scores can be compared
    all_candidates = sorted(dataset.candidates)
    size = workload.rank_candidates or len(all_candidates)
    rank_requests = []
    for job_id in rng.choice(test_jobs, workload.rank_jobs, replace=False).tolist():
        evaluated = sorted({p.candidate_id for p in eval_pairs if p.job_id == job_id})[:size]
        others = [c for c in all_candidates if c not in set(evaluated)]
        fill = rng.choice(others, size - len(evaluated), replace=False).tolist()
        rank_requests.append((job_id, evaluated + sorted(fill)))

    partner = {}
    for a, b in synth.confusable_pairs:
        partner[a], partner[b] = b, a
    inputs = Inputs(workload, seed, data_dir, work_dir / "model.ckpt", train_config,
                    int(meta["split_ts"]), train_pairs, eval_pairs, rank_requests, partner, parallelism, {})
    inputs.makeup = input_makeup(dataset, meta, inputs)
    return inputs


def hard_slice(preds, dataset, partner: dict) -> list:
    """Test pairs of confusable-category jobs: their positives, and their
    negatives whose candidate is of the partner category."""
    name = dataset.vocab.name_of
    out = []
    for p in preds:
        job_category = name(dataset.jobs[p.job_id].category_id)
        if job_category not in partner:
            continue
        if p.label == 1 or name(dataset.candidates[p.candidate_id].category_id) == partner[job_category]:
            out.append(p)
    return out


def _first_epoch(train_ds, config: TrainConfig):
    """The batches train() draws first, from the same seeded stream."""
    return domain.sample_training_pairs(
        train_ds, spawn_rngs(config.seed, 2)[1],
        per_positive_negatives=config.negatives_per_positive,
        batch_size=config.batch_size)


def _train_dataset(dataset, inputs: Inputs):
    """The train split (capped to the chosen positives) and the evaluated pairs."""
    train_ds, test_ds = dataset.split_temporal(inputs.split_ts)
    return (dataclasses.replace(train_ds, pairs=list(inputs.train_pairs)),
            dataclasses.replace(test_ds, pairs=list(inputs.eval_pairs)))


def input_makeup(dataset, meta, inputs: Inputs) -> dict:
    """What the inputs are made of: the properties the layers' costs depend on."""
    cfg = inputs.train_config.model
    blocks = rows = empty = 0
    for record in list(dataset.candidates.values()) + list(dataset.jobs.values()):
        for stage in cfg.stages:
            n = len(record.history(stage))
            blocks += 1
            rows += min(n, cfg.seq_len)
            empty += n == 0
    train_ds, _ = _train_dataset(dataset, inputs)
    shares = []
    for batch in _first_epoch(train_ds, inputs.train_config).batches:
        entities = {("job", p.job_id) for p, _ in batch.entries}
        entities |= {("candidate", p.candidate_id) for pair in batch.entries for p in pair}
        shares.append(len(entities) / (4 * len(batch)))
    test_preds = [RankedPrediction(p.candidate_id, p.job_id, 0.0, p.label) for p in inputs.eval_pairs]
    return {
        "pairs": meta["n_pairs"],
        "train_pairs_scored_per_epoch": 2 * sum(1 for p in train_ds.pairs if p.label == 1),
        "eval_pairs": len(inputs.eval_pairs),
        "padded_row_share": round(1.0 - rows / (blocks * cfg.seq_len), 4),
        "empty_stage_histories": f"{empty}/{blocks}",
        "hard_slice_pairs": len(hard_slice(test_preds, dataset, inputs.partner)),
        "unique_entity_share_per_batch": round(statistics.mean(shares), 4),
        "baseline_cosine_auc": round(meta["baseline_cosine_auc"], 4),
        "parameters": sum(r * c for _, r, c in training.param_spec(cfg)),
    }


@contextmanager
def capturing(module, name: str):
    """Collect the return values of ``module.name`` while the block runs."""
    original = getattr(module, name)
    box = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        box.append(out)
        return out

    setattr(module, name, wrapper)
    try:
        yield box
    finally:
        setattr(module, name, original)


def run_round(inputs: Inputs, seconds: float, setup_repeats: int, checks: Checks,
              repeat: bool = True) -> Round:
    """One pass of every phase: set-up, train, checkpoint, eval, rank.

    Peak memory is read after that pass, so that the repeats that follow
    cannot move it. With ``repeat``, train and eval then run again up to the
    workload's call counts, rank up to ``RANK_PASSES`` requests per job and
    then for as long as the timed calls together have not filled
    ``seconds``. The counts of train and eval calls are fixed, so that their
    medians do not change make-up with the program's speed.
    """
    r = Round()
    started = perf_counter()
    cfg = inputs.train_config.model

    for _ in range(setup_repeats):
        t0 = perf_counter()
        loaded, _ = domain.load_data_dir(inputs.data_dir)
        library = augment.default_library(loaded.vocab.names)
        client = augment.MockCompletionClient(seed=inputs.seed)
        dataset, records = augment.augment_batch(loaded, client, library,
                                                 threshold=SHORT_JD_THRESHOLD,
                                                 parallelism=inputs.parallelism)
        r.setup_load_s.append(perf_counter() - t0)
        r.augment_records.append((list(loaded.jobs.values()), records))
    train_ds, eval_ds = _train_dataset(dataset, inputs)
    n_positive = sum(1 for p in train_ds.pairs if p.label == 1)

    def train_unit():
        t0 = perf_counter()
        result = training.train(train_ds, inputs.train_config)
        r.train_s.append(perf_counter() - t0)
        r.train_losses.append(list(result.losses))
        r.train_steps = result.steps
        r.train_pairs = 2 * (n_positive * inputs.train_config.epochs - result.skipped_positives)
        return result

    result = train_unit()
    store = model_config = None
    for _ in range(setup_repeats):
        store = None
        t0 = perf_counter()
        checkpoint.save_checkpoint(result.store, cfg, inputs.checkpoint_path)
        store, model_config = checkpoint.load_checkpoint(inputs.checkpoint_path)
        r.setup_checkpoint_s.append(perf_counter() - t0)
    checks.checkpoint_roundtrip(result.store, store)
    result = None

    def eval_unit():
        with capturing(training, "score_all") as scored:
            t0 = perf_counter()
            metrics = training.evaluate(eval_ds, store, model_config)
            r.eval_s.append(perf_counter() - t0)
        r.eval_metrics.append(metrics)
        r.eval_preds.append(scored[-1])

    def rank_unit(i):
        job_id, candidate_ids = inputs.rank_requests[i % len(inputs.rank_requests)]
        t0 = perf_counter()
        ranking = cli.rank_candidates(job_id, candidate_ids, store, model_config, dataset)
        r.rank_s.append(perf_counter() - t0)
        r.rank_sizes.append(len(candidate_ids))
        r.rankings.append(ranking)

    eval_unit()
    for i in range(len(inputs.rank_requests)):
        rank_unit(i)
    r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if repeat:
        while len(r.train_s) < inputs.workload.train_calls:
            train_unit()
        while len(r.eval_s) < inputs.workload.eval_calls:
            eval_unit()
        while len(r.rank_s) < RANK_PASSES * len(inputs.rank_requests):
            rank_unit(len(r.rank_s))
        while sum(r.train_s) + sum(r.eval_s) + sum(r.rank_s) + r.rank_s[-1] <= seconds:
            rank_unit(len(r.rank_s))
    r.wall_s = perf_counter() - started
    r.dataset, r.store, r.model_config = dataset, store, model_config
    return r


def verify(inputs: Inputs, r: Round, checks: Checks) -> None:
    """Run every correctness check on one round's outputs."""
    w = inputs.workload
    cfg = r.model_config
    dataset = r.dataset
    rng = np.random.default_rng([inputs.seed, 11])

    for jobs, records in r.augment_records:
        checks.augmentation(jobs, SHORT_JD_THRESHOLD, records)

    train_ds, _ = _train_dataset(dataset, inputs)
    first_batch = _first_epoch(train_ds, inputs.train_config).batches[0].entries
    init_store = training.init_params(cfg, spawn_rngs(inputs.train_config.seed, 2)[0])
    checks.first_step_loss(first_batch, init_store, cfg, dataset,
                           inputs.train_config.lambda_reg, r.train_losses[0][0])
    del init_store
    checks.repeats_identical("train loss trace", r.train_losses)
    if w.loss_must_fall:
        checks.loss_falls(r.train_losses[0], inputs.train_config.epochs)

    preds = r.eval_preds[0]
    checks.repeats_identical("evaluate() metrics", r.eval_metrics)
    checks.repeats_identical("eval scores", [[p.score for p in ps] for ps in r.eval_preds])
    sample = rng.choice(len(preds), min(w.oracle_samples, len(preds)), replace=False)
    checks.scores_match_oracle("eval", [(preds[i].candidate_id, preds[i].job_id, preds[i].score)
                                        for i in sorted(sample)], r.store, cfg, dataset)
    hard = hard_slice(preds, dataset, inputs.partner)
    checks.metrics_match_bruteforce(preds, r.eval_metrics[0], hard, auc(hard))

    n = len(inputs.rank_requests)
    for k, (job_id, candidate_ids) in enumerate(inputs.rank_requests):
        ranking = r.rankings[k]
        checks.repeats_identical(f"ranking of {job_id}", r.rankings[k::n])
        eval_scores = {p.candidate_id: p.score for p in preds if p.job_id == job_id}
        checks.ranking(candidate_ids, ranking, eval_scores)
        picks = rng.choice(len(ranking), min(w.oracle_samples, len(ranking)), replace=False)
        checks.scores_match_oracle("rank", [(ranking[i][0], job_id, ranking[i][1]) for i in sorted(picks)],
                                   r.store, cfg, dataset)


"""The benchmark's workloads: synthetic inputs, model width and phase sizes.

Each workload is closed-loop: one process, one caller, each call waits for
the previous one. ``--seed`` seeds the synthetic data, the model
initialisation, the training sampler and the choice of evaluated and ranked
jobs, so one seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Every category gets a confusable partner so that the hard-negative slice
# (positives of a job against candidates of the partner category) holds a
# fair share of every test split. With the generator's single default pair
# the slice is a handful of pairs, and on some seeds it is empty.
CONFUSABLE_PAIRS = (
    ("Data", "Technology"),
    ("Product", "Project management"),
    ("Supply Chain", "Logistics"),
    ("Marketing", "Advertising"),
    ("Content", "Design"),
    ("Customer Experience", "Sales"),
    ("Operations", "General"),
    ("Gaming", "Risk management"),
)

SHORT_JD_THRESHOLD = 200


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``synth``, ``model`` and ``train`` override fields of ``SynthConfig``,
    ``ModelConfig`` and ``TrainConfig``. ``train()`` sees a seeded choice of
    ``train_positives`` positives from the train split. ``eval_jobs``
    restricts evaluation to that many test jobs; ``None`` evaluates the
    whole test split. Each rank request orders ``rank_candidates``
    candidates (``None``: all of them) for one of ``rank_jobs`` evaluated
    jobs.
    """

    name: str
    synth: dict
    train: dict
    train_positives: int
    model: dict = field(default_factory=dict)
    eval_jobs: int | None = None
    # train() and evaluate() calls per run; the rates reported are medians
    train_calls: int = 1
    eval_calls: int = 1
    rank_jobs: int = 2
    rank_candidates: int | None = None
    # scores per path (eval, rank) compared against the numpy oracle
    oracle_samples: int = 4
    # the final epoch's mean loss must be below the first epoch's
    loss_must_fall: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sparse-d1024",
            # the default generator's densities at four times its size, so the
            # evaluated test split holds ~470 pairs instead of ~105
            synth=dict(n_candidates=1200, n_jobs=240, confusable_pairs=CONFUSABLE_PAIRS),
            train=dict(batch_size=4, learning_rate=1e-4),
            train_positives=8,
            train_calls=2,
            rank_candidates=16,
        ),
        Workload(
            name="converge-d64",
            synth=dict(n_candidates=224, n_jobs=320, positives_per_job=30.0, embedding_dim=64,
                       prototype_noise=0.1, confusable_pairs=CONFUSABLE_PAIRS),
            model=dict(d_model=64),
            train=dict(batch_size=16, learning_rate=3e-3, epochs=3),
            train_positives=160,
            eval_jobs=100,
            eval_calls=3,
            rank_jobs=4,
            oracle_samples=8,
            loss_must_fall=True,
        ),
    )
}

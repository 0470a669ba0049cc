"""Dataclass configs for model architecture and training runs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

STAGES = ("evaluated", "passed_eval", "passed_interview")

ABLATIONS = (
    "none",
    "no_moe",
    "no_category",
    "simple_match",
    "no_jd_aug",
    "no_fine_interaction",
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    Defaults are the production-scale settings; tests shrink every width
    through the same fields. ``ablation`` swaps whole sub-networks:

    * ``no_moe``: single feed-forward head instead of gated experts.
    * ``no_category``: gate input zeroed, experts kept.
    * ``simple_match``: single head on the joint vector plus a binary
      same-category feature.
    * ``no_jd_aug``: identical architecture; a data-pipeline tag only.
    * ``no_fine_interaction``: only the passed-resume-evaluation stage
      feeds the encoders.
    """

    d_model: int = 1024
    heads: int = 2
    seq_len: int = 20
    fusion_hidden: int = 1024
    fusion_out: int = 256
    n_categories: int = 16
    category_dim: int = 8
    gate_hidden: int = 32
    n_experts: int = 5
    expert_hidden: tuple[int, int] = (256, 64)
    ablation: str = "none"

    def __post_init__(self) -> None:
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        for name in ("d_model", "heads", "seq_len", "fusion_hidden", "fusion_out",
                     "n_categories", "category_dim", "gate_hidden", "n_experts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        hidden = self.expert_hidden
        if not (isinstance(hidden, tuple) and len(hidden) == 2 and all(
                isinstance(h, int) and not isinstance(h, bool) and h > 0 for h in hidden)):
            raise ValueError(f"expert_hidden must be two positive ints, got {hidden!r}")

    @property
    def head_dim(self) -> int:
        # d_k == d_v == d_model / heads
        return self.d_model // self.heads

    @property
    def stages(self) -> tuple[str, ...]:
        if self.ablation == "no_fine_interaction":
            return ("passed_eval",)
        return STAGES

    @property
    def fusion_in(self) -> int:
        # internal + external attention output per active stage
        return 2 * len(self.stages) * self.d_model

    @property
    def gate_in(self) -> int:
        # candidate and job category embeddings, concatenated
        return 2 * self.category_dim

    @property
    def joint_dim(self) -> int:
        d = 2 * self.fusion_out + 2 * self.d_model
        if self.ablation == "simple_match":
            d += 1  # binary same-category feature
        return d

    @property
    def gated_head(self) -> bool:
        return self.ablation in ("none", "no_category", "no_jd_aug")


@dataclass(frozen=True)
class TrainConfig:
    """One training run: optimizer settings, sampling, seed, tags."""

    batch_size: int = 256
    learning_rate: float = 1e-4
    lambda_reg: float = 0.1
    epochs: int = 1
    seed: int = 0
    negatives_per_positive: int = 1
    short_jd_threshold: int = 200
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be >= 0")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


def model_config_to_dict(cfg: ModelConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["expert_hidden"] = list(cfg.expert_hidden)
    return d


def _checked_fields(cls, d: dict, what: str) -> dict:
    """A copy of ``d`` after checking its keys and scalar value types against ``cls``.

    An unknown key raises ValueError; a value whose type does not match an
    int, float or str field (bool is not an int here) raises TypeError.
    """
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} config keys: " + ", ".join(map(repr, unknown)))
    for name, value in d.items():
        want = type(known[name].default)
        allowed = {int: (int,), float: (int, float), str: (str,)}.get(want)
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise TypeError(f"{what} config key {name!r} must be {want.__name__}, got {value!r}")
    return dict(d)


def model_config_from_dict(d: dict) -> ModelConfig:
    d = _checked_fields(ModelConfig, d, "model")
    if isinstance(d.get("expert_hidden"), list):
        d["expert_hidden"] = tuple(d["expert_hidden"])
    return ModelConfig(**d)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["model"] = model_config_to_dict(cfg.model)
    return d


def train_config_from_dict(d: dict) -> TrainConfig:
    d = _checked_fields(TrainConfig, d, "train")
    if "model" in d:
        d["model"] = model_config_from_dict(d["model"])
    return TrainConfig(**d)

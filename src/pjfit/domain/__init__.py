"""Data model: categories, candidate/job records, pairs, sampling."""

from pjfit.domain.vocab import DEFAULT_CATEGORIES, CategoryVocab
from pjfit.domain.records import (
    Dataset,
    DatasetError,
    DatasetReport,
    EntityRecord,
    Pair,
    load_data_dir,
    validate_records,
)
from pjfit.domain.sampling import (
    COUNTERPART,
    PairBatch,
    SampledEpoch,
    SequenceCache,
    first_seen,
    sample_training_pairs,
)

__all__ = [
    "DEFAULT_CATEGORIES",
    "CategoryVocab",
    "Dataset",
    "DatasetError",
    "DatasetReport",
    "EntityRecord",
    "Pair",
    "load_data_dir",
    "validate_records",
    "COUNTERPART",
    "PairBatch",
    "SampledEpoch",
    "SequenceCache",
    "first_seen",
    "sample_training_pairs",
]

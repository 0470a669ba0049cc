"""Data model: categories, candidate/job records, pairs, sampling."""

from pjfit.domain.vocab import DEFAULT_CATEGORIES, CategoryVocab
from pjfit.domain.records import (
    Dataset,
    DatasetError,
    DatasetReport,
    EntityRecord,
    Pair,
    load_dataset,
    load_data_dir,
    save_dataset,
    validate_records,
)
from pjfit.domain.sampling import (
    PairBatch,
    SampledEpoch,
    SequenceCache,
    distinct_records,
    pad_sequence,
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
    "load_dataset",
    "load_data_dir",
    "save_dataset",
    "validate_records",
    "PairBatch",
    "SampledEpoch",
    "SequenceCache",
    "distinct_records",
    "pad_sequence",
    "sample_training_pairs",
]

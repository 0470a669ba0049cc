"""Job-description augmentation: triage, prompting, completion, validation."""

from pjfit.augment.template import (
    Prompt,
    PromptTemplate,
    TemplateError,
    TemplateLibrary,
    default_library,
    default_template,
    load_template_dir,
)
from pjfit.augment.client import (
    CompletionClient,
    CompletionError,
    HttpCompletionClient,
    MockCompletionClient,
)
from pjfit.augment.pipeline import (
    AugmentationRecord,
    RewriteVerdict,
    augment_batch,
    build_prompt,
    keywords,
    original_jd_texts,
    select_low_quality,
    validate_rewrite,
)

__all__ = [
    "Prompt",
    "PromptTemplate",
    "TemplateError",
    "TemplateLibrary",
    "default_library",
    "default_template",
    "load_template_dir",
    "CompletionClient",
    "CompletionError",
    "HttpCompletionClient",
    "MockCompletionClient",
    "AugmentationRecord",
    "RewriteVerdict",
    "augment_batch",
    "build_prompt",
    "keywords",
    "original_jd_texts",
    "select_low_quality",
    "validate_rewrite",
]

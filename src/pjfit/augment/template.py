"""Prompt templates for the JD rewriting task.

A template is a system instruction plus a user body carrying the
placeholders ``{original_jd}`` and ``{matched_resumes}``, each exactly
once. The user body walks the model through explicit steps: judge
completeness, extract the information that must survive, summarize
reference resumes (or fall back to the model's own hiring knowledge when
there are none), then integrate.

Template files are plain text: the system instruction, a line containing
only ``---``, then the user body. Per-category variants live next to the
default as ``<category-slug>.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class TemplateError(ValueError):
    pass


NO_RESUME_BRANCH = (
    "(no matched resumes available; rely on established hiring expertise "
    "for this job category)"
)

_DEFAULT_SYSTEM = (
    "You are a senior HR expert with hiring experience across many "
    "industries, skilled at resume analysis and person-job matching. "
    "You improve job descriptions so they read as complete, specific and "
    "professional."
)

_DEFAULT_STEPS = (
    "Judge how complete the current description is; note missing sections "
    "such as responsibilities, required skills or seniority.",
    "Extract the key information that must survive unchanged: position "
    "name, core responsibilities, required skills and qualifications.",
    "If reference resumes are listed below, summarize the industry "
    "background and professional requirements they share, and fold those "
    "findings in. If none are listed, rely on your own cross-industry "
    "hiring knowledge instead.",
    "Integrate everything into a single improved job description.",
)

_DEFAULT_CONSTRAINTS = (
    "Keep at least 70% of the original description's keywords.",
    "Do not add vague or inflated claims.",
    "Write clearly and concisely, in a professional tone.",
)


@dataclass(frozen=True)
class Prompt:
    """An assembled request: system instruction plus user message."""

    system: str
    user: str

    @property
    def text(self) -> str:
        return self.system + "\n\n" + self.user


@dataclass(frozen=True)
class PromptTemplate:
    system: str
    user_body: str
    no_resume_branch: str = NO_RESUME_BRANCH

    def __post_init__(self):
        for placeholder in ("{original_jd}", "{matched_resumes}"):
            count = self.user_body.count(placeholder)
            if count != 1:
                raise TemplateError(
                    f"template must contain {placeholder} exactly once, found {count}")


def default_template() -> PromptTemplate:
    steps = "\n".join(f"{i}. {step}" for i, step in enumerate(_DEFAULT_STEPS, start=1))
    constraints = "\n".join(f"- {c}" for c in _DEFAULT_CONSTRAINTS)
    body = (
        "Rewrite the job description below.\n\n"
        f"Requirements:\n{steps}\n\n"
        f"Constraints:\n{constraints}\n\n"
        "Original job description:\n<<<\n{original_jd}\n>>>\n\n"
        "Reference resumes from previously hired candidates:\n{matched_resumes}\n"
    )
    return PromptTemplate(system=_DEFAULT_SYSTEM, user_body=body)


@dataclass
class TemplateLibrary:
    """Default template plus per-category variants."""

    default: PromptTemplate
    by_category: dict[str, PromptTemplate] = field(default_factory=dict)

    def for_category(self, category_name: str) -> PromptTemplate:
        return self.by_category.get(category_name, self.default)


def default_library(category_names=()) -> TemplateLibrary:
    """Built-in library: the default template specialized per category by a
    focus line in the system instruction."""
    base = default_template()
    variants = {
        name: PromptTemplate(
            system=base.system + f" Pay particular attention to what distinguishes strong {name} hires.",
            user_body=base.user_body,
        )
        for name in category_names
    }
    return TemplateLibrary(default=base, by_category=variants)


def category_slug(name: str) -> str:
    return name.lower().replace(" ", "_")


def load_template_dir(path, category_names=()) -> TemplateLibrary:
    """Load ``default.txt`` and per-category ``<slug>.txt`` overrides."""
    path = Path(path)
    default_file = path / "default.txt"
    if not default_file.exists():
        raise TemplateError(f"missing template file {default_file}")
    library = TemplateLibrary(default=_parse_template_file(default_file))
    for name in category_names:
        f = path / f"{category_slug(name)}.txt"
        if f.exists():
            library.by_category[name] = _parse_template_file(f)
    return library


def _parse_template_file(path: Path) -> PromptTemplate:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TemplateError(f"{path}: not valid UTF-8 ({exc})") from None
    if "\n---\n" not in text:
        raise TemplateError(f"{path}: expected a '---' line between system and user sections")
    system, body = text.split("\n---\n", 1)
    return PromptTemplate(system=system.strip(), user_body=body.lstrip("\n"))

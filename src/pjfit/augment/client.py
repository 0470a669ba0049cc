"""Completion clients: a deterministic mock and a generic HTTP client."""

from __future__ import annotations

import hashlib
import json as jsonlib
import os
import time
from typing import Protocol

import numpy as np


class CompletionError(RuntimeError):
    """The client could not produce a completion."""


class CompletionClient(Protocol):
    def complete(self, system: str, user: str) -> str: ...


_FILLER_SENTENCES = (
    "The role involves close collaboration with cross-functional partners.",
    "Strong written and verbal communication skills are expected.",
    "Candidates should demonstrate ownership of outcomes end to end.",
    "Experience mentoring colleagues is considered a plus.",
    "Comfort working with ambiguous requirements is important.",
    "The team values clear documentation and reproducible work.",
    "Familiarity with industry best practices is expected.",
    "A track record of delivering projects on schedule is valued.",
)


class MockCompletionClient:
    """Seeded template-echo mock.

    Recovers the original JD from the fenced ``<<< >>>`` block of the
    default template and returns it extended with canned professional
    filler, so rewrites keep every original keyword and grow in length.
    The per-call stream is derived from (seed, prompt), making the same
    prompt + seed produce the same completion in any process.

    ``failure_rate`` raises CompletionError on a seeded coin flip;
    ``keyword_drop_rate`` returns a rewrite missing about half the original
    words, exercising the rejection path.
    """

    def __init__(self, seed: int = 0, failure_rate: float = 0.0,
                 keyword_drop_rate: float = 0.0):
        for name, rate in (("failure_rate", failure_rate), ("keyword_drop_rate", keyword_drop_rate)):
            if not 0.0 <= rate <= 1.0:  # also false for NaN
                raise ValueError(f"mock {name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.failure_rate = failure_rate
        self.keyword_drop_rate = keyword_drop_rate

    def _rng(self, system: str, user: str) -> np.random.Generator:
        digest = hashlib.sha256(f"{self.seed}\x00{system}\x00{user}".encode()).digest()
        return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))

    def complete(self, system: str, user: str) -> str:
        rng = self._rng(system, user)
        if rng.random() < self.failure_rate:
            raise CompletionError("injected mock failure")
        original = _extract_fenced(user)
        if original is None:
            return "Unable to locate the job description to rewrite."
        if rng.random() < self.keyword_drop_rate:
            words = original.split()
            kept = " ".join(words[::2])
            return kept + " " + _FILLER_SENTENCES[int(rng.integers(len(_FILLER_SENTENCES)))]
        extra = []
        target = len(original) + 80
        while len(original) + sum(len(s) + 1 for s in extra) < target:
            extra.append(_FILLER_SENTENCES[int(rng.integers(len(_FILLER_SENTENCES)))])
        return original + " " + " ".join(extra)


def _extract_fenced(user: str) -> str | None:
    start = user.find("<<<\n")
    if start < 0:
        return None
    end = user.find("\n>>>", start)
    if end < 0:
        return None
    return user[start + 4:end]


class _UrllibResponse:
    def __init__(self, status_code: int, body: bytes):
        self.status_code = status_code
        self._body = body

    def json(self):
        return jsonlib.loads(self._body)


def _urllib_post(url: str, json=None, headers=None, timeout=None) -> _UrllibResponse:
    """POST ``json`` as a JSON body with the standard library.

    Returns an object with ``status_code`` and ``json()``, whatever the
    status; only connection-level failures raise.
    """
    import urllib.error
    import urllib.request  # imported here: only HTTP completions need it

    request = urllib.request.Request(url, data=jsonlib.dumps(json).encode("utf-8"),
                                     headers=dict(headers or {}), method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return _UrllibResponse(response.status, response.read())
    except urllib.error.HTTPError as exc:
        return _UrllibResponse(exc.code, exc.read())


class HttpCompletionClient:
    """Chat-completion style HTTP client.

    Endpoint, model name and API key come from arguments or the
    ``PJFIT_LLM_ENDPOINT``, ``PJFIT_LLM_MODEL`` and ``PJFIT_LLM_API_KEY``
    environment variables. Retries transient failures with exponential
    backoff, bounded by ``max_attempts``. ``transport(url, json=, headers=,
    timeout=)`` sends the request; by default the standard library
    ``urllib.request`` does.
    """

    def __init__(self, endpoint: str | None = None, model: str | None = None,
                 api_key: str | None = None, timeout: float = 60.0,
                 max_attempts: int = 3, backoff: float = 1.0, transport=None):
        self.endpoint = endpoint or os.environ.get("PJFIT_LLM_ENDPOINT")
        self.model = model or os.environ.get("PJFIT_LLM_MODEL", "")
        self.api_key = api_key or os.environ.get("PJFIT_LLM_API_KEY")
        if not self.endpoint:
            raise CompletionError("no completion endpoint configured (PJFIT_LLM_ENDPOINT)")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self._post = transport or _urllib_post

    def complete(self, system: str, user: str) -> str:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                response = self._post(self.endpoint, json=payload,
                                      headers=headers, timeout=self.timeout)
            except Exception as exc:  # connection-level failure, retry
                last_error = exc
                continue
            if response.status_code >= 500:
                last_error = CompletionError(f"server error {response.status_code}")
                continue
            if response.status_code != 200:
                raise CompletionError(f"completion request failed: {response.status_code}")
            try:
                return response.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, ValueError) as exc:
                raise CompletionError(f"malformed completion response: {exc}") from exc
        raise CompletionError(f"no completion after {self.max_attempts} attempts: {last_error}")

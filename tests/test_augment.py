import dataclasses
import json
from pathlib import Path

import pytest

from pjfit.augment import (
    CompletionError,
    HttpCompletionClient,
    MockCompletionClient,
    TemplateError,
    augment_batch,
    build_prompt,
    default_library,
    default_template,
    keywords,
    load_template_dir,
    select_low_quality,
    validate_rewrite,
)
from pjfit.synth import SynthConfig, generate_dataset

from conftest import TOY_VOCAB_NAMES, DatasetBuilder

GOLDEN = Path(__file__).parent / "data" / "golden_prompt.txt"


def corpus(seed=0, n_jobs=50):
    cfg = SynthConfig(
        n_candidates=60, n_jobs=n_jobs, categories=TOY_VOCAB_NAMES,
        confusable_pairs=(("Data", "Technology"),), embedding_dim=8,
        short_jd_fraction=0.5, positives_per_job=3.0, seed=seed,
    )
    dataset, _ = generate_dataset(cfg)
    return dataset


# ------------------------------------------------------------- selection


def test_threshold_boundary_is_strict(builder):
    for n, chars in (("a", 199), ("b", 200), ("c", 201)):
        builder.entity(f"j{n}", "job", text="x" * chars)
    ds = builder.build()
    picked = {j.id for j in select_low_quality(ds.jobs.values(), threshold=200)}
    assert picked == {"ja"}


def test_selection_is_idempotent_and_order_independent(builder):
    for i, chars in enumerate((50, 300, 150, 500, 190)):
        builder.entity(f"j{i}", "job", text="y" * chars)
    jobs = list(builder.build().jobs.values())
    forward = select_low_quality(jobs, 200)
    backward = select_low_quality(list(reversed(jobs)), 200)
    assert [j.id for j in forward] == [j.id for j in backward] == ["j0", "j2", "j4"]
    assert select_low_quality(forward, 200) == forward


def test_unicode_scalar_length(builder):
    builder.entity("j1", "job", text="数" * 199)  # 199 scalars, more bytes
    ds = builder.build()
    assert select_low_quality(ds.jobs.values(), 200)


# ------------------------------------------------------------- prompts


def test_prompt_without_resumes_uses_expert_branch(builder):
    builder.entity("j1", "job", text="short description")
    jd = builder.build().jobs["j1"]
    prompt = build_prompt(jd, [], default_template())
    assert "no matched resumes available" in prompt.user
    assert "Resume 1:" not in prompt.user


def test_prompt_caps_resumes_at_five_most_recent(builder):
    builder.entity("j1", "job", text="short description")
    jd = builder.build().jobs["j1"]
    resumes = [f"resume {i}" for i in range(8)]  # already most recent first
    prompt = build_prompt(jd, resumes, default_template())
    assert "Resume 5:" in prompt.user and "Resume 6:" not in prompt.user
    assert prompt.user.index("resume 0") < prompt.user.index("resume 4")


def test_prompt_matches_golden_file(builder):
    builder.entity("j1", "job", category="Data", text="Data opening: analysis reporting dashboards")
    jd = builder.build().jobs["j1"]
    prompt = build_prompt(jd, ["Data profile: analysis pipelines reporting"], default_template())
    assert prompt.text == GOLDEN.read_text(encoding="utf-8")


def test_template_placeholders_validated():
    with pytest.raises(TemplateError, match="original_jd"):
        load_template_dir_missing = default_template()
        dataclasses.replace(load_template_dir_missing, user_body="no placeholders here")


def test_template_dir_with_category_override(tmp_path):
    (tmp_path / "default.txt").write_text(
        "SYSTEM BASE\n---\nJD: {original_jd}\nREFS: {matched_resumes}\n", encoding="utf-8")
    (tmp_path / "data.txt").write_text(
        "SYSTEM DATA VARIANT\n---\nJD: {original_jd}\nREFS: {matched_resumes}\n", encoding="utf-8")
    lib = load_template_dir(tmp_path, category_names=("Data", "Sales"))
    assert lib.for_category("Data").system == "SYSTEM DATA VARIANT"
    assert lib.for_category("Sales").system == "SYSTEM BASE"


# ------------------------------------------------------------- validation


def test_identical_rewrite_accepted_with_full_retention():
    verdict = validate_rewrite("python services deployment", "python services deployment")
    assert verdict.accepted and verdict.retention == 1.0


def test_three_of_five_keywords_rejected():
    original = "alpha beta gamma delta epsilon"
    rewritten = "alpha beta gamma unrelated words entirely"
    verdict = validate_rewrite(original, rewritten)
    assert not verdict.accepted
    assert abs(verdict.retention - 0.6) < 1e-12


def test_shrinking_rewrite_rejected_despite_retention():
    original = "alpha beta gamma delta epsilon zeta"
    verdict = validate_rewrite(original, "alpha beta gamma delta epsilon")
    assert not verdict.accepted
    assert "shorter" in verdict.reason


def test_zero_keyword_original_auto_rejected():
    verdict = validate_rewrite("the and of", "anything at all")
    assert not verdict.accepted
    assert "no keywords" in verdict.reason


def test_keywords_filter_stopwords():
    assert keywords("the quick brown fox and the dog") == {"quick", "brown", "fox", "dog"}


# ------------------------------------------------------------- batch


def test_augment_batch_mock_is_sound_and_deterministic():
    dataset = corpus()
    client = MockCompletionClient(seed=0, keyword_drop_rate=0.25)
    lib = default_library(dataset.vocab.names)
    runs = [augment_batch(dataset, client, lib, threshold=200) for _ in range(2)]
    (ds_a, log_a), (ds_b, log_b) = runs
    assert log_a == log_b  # byte-identical log content across runs
    assert any(r.accepted for r in log_a) and any(not r.accepted for r in log_a)
    for record in log_a:
        job = ds_a.jobs[record.job_id]
        if record.accepted:
            assert record.retention >= 0.7
            assert job.text == record.completion
            assert job.augmented and job.text_original == record.original_text
        else:
            assert job.text == record.original_text
            assert not job.augmented
    for jid, job in ds_a.jobs.items():
        assert job.text == ds_b.jobs[jid].text


def test_augmented_jds_either_original_or_validated():
    dataset = corpus(seed=3)
    client = MockCompletionClient(seed=1)
    updated, _ = augment_batch(dataset, client, default_library(), threshold=200)
    for jid, job in updated.jobs.items():
        original = dataset.jobs[jid]
        if job.text != original.text:
            assert validate_rewrite(original.text, job.text).accepted


def test_failure_injection_keeps_originals_and_continues():
    dataset = corpus(seed=5)
    client = MockCompletionClient(seed=2, failure_rate=0.3)
    updated, log = augment_batch(dataset, client, default_library(), threshold=200)
    failed = [r for r in log if r.reason.startswith("client error")]
    assert failed, "expected some injected failures"
    for record in failed:
        assert updated.jobs[record.job_id].text == record.original_text
    for record in log:
        if record.accepted:
            assert validate_rewrite(record.original_text, record.completion).accepted


def test_parallelism_does_not_change_the_result():
    dataset = corpus(seed=7)
    lib = default_library()
    outcomes = []
    for workers in (1, 8):
        client = MockCompletionClient(seed=3, keyword_drop_rate=0.2)
        updated, log = augment_batch(dataset, client, lib, threshold=200, parallelism=workers)
        outcomes.append((sorted((j.id, j.text) for j in updated.jobs.values()), log))
    assert outcomes[0] == outcomes[1]


def test_rerun_is_idempotent():
    dataset = corpus(seed=9)
    client = MockCompletionClient(seed=4)
    lib = default_library()
    once, log_once = augment_batch(dataset, client, lib, threshold=200)
    twice, log_twice = augment_batch(once, client, lib, threshold=200)
    accepted_ids = {r.job_id for r in log_once if r.accepted}
    assert accepted_ids.isdisjoint({r.job_id for r in log_twice})
    for jid in twice.jobs:
        assert twice.jobs[jid].text == once.jobs[jid].text


def test_pipeline_never_touches_resumes():
    dataset = corpus(seed=11)
    updated, _ = augment_batch(dataset, MockCompletionClient(), default_library(), threshold=200)
    for cid, cand in updated.candidates.items():
        assert cand.text == dataset.candidates[cid].text
        assert not cand.augmented


# ------------------------------------------------------------- http client


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


def test_http_client_sends_chat_messages_and_parses_choice(monkeypatch):
    calls = []

    def transport(url, json=None, headers=None, timeout=None):
        calls.append((url, json, headers))
        return FakeResponse(payload={"choices": [{"message": {"content": "rewritten"}}]})

    client = HttpCompletionClient(endpoint="http://llm.internal/v1/chat",
                                  model="rewriter-v1", api_key="k", transport=transport)
    assert client.complete("sys", "usr") == "rewritten"
    url, payload, headers = calls[0]
    assert payload["model"] == "rewriter-v1"
    assert payload["messages"] == [{"role": "system", "content": "sys"},
                                   {"role": "user", "content": "usr"}]
    assert headers["Authorization"] == "Bearer k"


def test_http_client_retries_transient_errors_then_succeeds():
    responses = [FakeResponse(status_code=503), FakeResponse(status_code=500),
                 FakeResponse(payload={"choices": [{"message": {"content": "ok"}}]})]

    def transport(url, **kwargs):
        return responses.pop(0)

    client = HttpCompletionClient(endpoint="http://x", max_attempts=3, backoff=0.0,
                                  transport=transport)
    assert client.complete("s", "u") == "ok"


def test_http_client_gives_up_after_bounded_attempts():
    def transport(url, **kwargs):
        return FakeResponse(status_code=500)

    client = HttpCompletionClient(endpoint="http://x", max_attempts=2, backoff=0.0,
                                  transport=transport)
    with pytest.raises(CompletionError, match="after 2 attempts"):
        client.complete("s", "u")


def test_http_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv("PJFIT_LLM_ENDPOINT", raising=False)
    with pytest.raises(CompletionError, match="endpoint"):
        HttpCompletionClient()


class FakeUrlopenResponse:
    def __init__(self, body, status=200):
        self.status = status
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def fake_urlopen(monkeypatch, outcomes):
    """Patch urllib.request.urlopen to play ``outcomes`` in order: a status
    code raises HTTPError with it, a dict is a 200 response with that body."""
    import io
    import urllib.error
    import urllib.request

    sent = []

    def urlopen(request, timeout=None):
        sent.append((request, timeout))
        outcome = outcomes.pop(0)
        if isinstance(outcome, int):
            raise urllib.error.HTTPError(request.full_url, outcome, "error", {}, io.BytesIO(b"{}"))
        return FakeUrlopenResponse(json.dumps(outcome).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return sent


def chat_reply(content):
    return {"choices": [{"message": {"content": content}}]}


def test_default_transport_posts_json_with_urllib(monkeypatch):
    sent = fake_urlopen(monkeypatch, [chat_reply("rewritten")])
    client = HttpCompletionClient(endpoint="http://llm.internal/v1/chat", model="m",
                                  api_key="k", timeout=7.0)
    assert client.complete("sys", "usr") == "rewritten"
    (request, timeout), = sent
    assert request.get_method() == "POST"
    assert request.full_url == "http://llm.internal/v1/chat"
    assert timeout == 7.0
    assert json.loads(request.data)["messages"][1] == {"role": "user", "content": "usr"}
    assert request.get_header("Authorization") == "Bearer k"
    assert request.get_header("Content-type") == "application/json"


def test_default_transport_retries_server_error_then_succeeds(monkeypatch):
    sent = fake_urlopen(monkeypatch, [503, chat_reply("ok")])
    client = HttpCompletionClient(endpoint="http://x", max_attempts=3, backoff=0.0)
    assert client.complete("s", "u") == "ok"
    assert len(sent) == 2


def test_default_transport_fails_on_client_error_without_retry(monkeypatch):
    sent = fake_urlopen(monkeypatch, [400, chat_reply("never read")])
    client = HttpCompletionClient(endpoint="http://x", max_attempts=3, backoff=0.0)
    with pytest.raises(CompletionError, match="failed: 400"):
        client.complete("s", "u")
    assert len(sent) == 1


def test_cli_import_does_not_load_requests():
    import os
    import subprocess
    import sys

    import pjfit

    src = str(Path(pjfit.__file__).resolve().parent.parent)
    code = "import sys, pjfit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

import knight.gateway as gateway_mod
from knight.errors import AuthError, EmptyResponseError, RetriesExhaustedError
from knight.gateway import (
    ChatGateway,
    ChatRequest,
    ChatResponse,
    MockChatBackend,
    MockOverride,
    OpenAiCompatBackend,
    TokenLedger,
)
from knight.prompts import GLOSS_SYSTEM, TRIPLES_SYSTEM, gloss_user, triples_user

from conftest import http_response


def _request(tag="gloss", user="hello", temperature=0.4):
    return ChatRequest(system_prompt="sys", user_prompt=user, temperature=temperature, task_tag=tag)


def test_request_validation():
    with pytest.raises(ValueError):
        _request(temperature=1.5)
    with pytest.raises(ValueError):
        _request(tag="mystery")


def test_mock_determinism(world):
    backend = MockChatBackend(world, rng_seed=7)
    req = ChatRequest(
        system_prompt=GLOSS_SYSTEM,
        user_prompt=gloss_user("Biology", [], None),
        temperature=0.4,
        task_tag="gloss",
    )
    first = backend.complete(req)
    second = backend.complete(req)
    assert first == second
    assert first.text.encode("utf-8") == second.text.encode("utf-8")


def test_mock_seed_changes_mcq_shape(world):
    user = (
        'Path: "A --[links_to]--> B"\nStart Node: "Genetics"\nDescription: "d"\n'
        'End Node: "Heredity"\nDescription: "d"'
    )
    req = ChatRequest(system_prompt="s", user_prompt=user, temperature=0.4, task_tag="mcq_forward")
    texts = {MockChatBackend(world, rng_seed=s).complete(req).text for s in range(6)}
    assert len(texts) > 1  # seed reshuffles distractors/key letter


def test_mock_triples_for_hafez_gloss(world):
    """A gloss about Hafez that mentions Shiraz must yield the fixture's
    born_in triple."""
    backend = MockChatBackend(world, rng_seed=7)
    gloss = backend.complete(
        ChatRequest(
            system_prompt=GLOSS_SYSTEM,
            user_prompt=gloss_user(
                "Hafez", ["Hafez was a Persian poet. He was born in Shiraz."], None
            ),
            temperature=0.4,
            task_tag="gloss",
        )
    )
    assert "Shiraz" in gloss.text
    triples_resp = backend.complete(
        ChatRequest(
            system_prompt=TRIPLES_SYSTEM,
            user_prompt=triples_user(gloss.text),
            temperature=0.1,
            task_tag="triples",
        )
    )
    doc = json.loads(triples_resp.text)
    rows = {(t["head"], t["relation"], t["tail"]) for t in doc["triplets"]}
    assert ("Hafez", "born_in", "Shiraz") in rows


def test_mock_override_wins(world):
    backend = MockChatBackend(
        world,
        rng_seed=7,
        overrides=[MockOverride(task_tag="title_check", substring="Biology", response="Maybe")],
    )
    resp = backend.complete(
        ChatRequest(
            system_prompt="s",
            user_prompt='Term to define: "Biology".\nCandidate page title: "Biology".',
            temperature=0.0,
            task_tag="title_check",
        )
    )
    assert resp.text == "Maybe"


def test_ledger_starts_empty_and_adds():
    ledger = TokenLedger()
    assert ledger.totals() == {}
    assert ledger.grand_total() == (0, 0)
    ledger.record("gloss", 10, 5)
    ledger.record("gloss", 10, 5)
    assert ledger.totals() == {"gloss": (20, 10)}
    ledger.record("triples", 1, 2)
    assert ledger.grand_total() == (21, 12)


def test_gateway_records_ledger(world):
    gw = ChatGateway(MockChatBackend(world, rng_seed=1))
    req = _request(tag="title_check", user='Term to define: "X".\nCandidate page title: "X".')
    resp = gw.complete(req)
    totals = gw.ledger.totals()
    assert totals["title_check"] == (resp.prompt_tokens, resp.completion_tokens)
    assert gw.ledger.tags_seen() == {"title_check"}


def test_per_item_token_average():
    # Arithmetic oracle over a ledger fixture: 3 calls, 2 kept items.
    ledger = TokenLedger()
    for prompt_tokens, completion in ((100, 40), (80, 20), (120, 40)):
        ledger.record("mcq_forward", prompt_tokens, completion)
    prompt_total, completion_total = ledger.grand_total()
    assert (prompt_total + completion_total) / 2 == 200.0


class _FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


def test_network_auth_error_no_retry(monkeypatch):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return _FakeResponse(401)

    backend = OpenAiCompatBackend("https://api.example/v1", "bad-key", "model-x")
    monkeypatch.setattr(backend.session, "post", fake_post)
    with pytest.raises(AuthError):
        backend.complete(_request())
    assert len(calls) == 1


def test_network_retries_then_succeeds(monkeypatch):
    calls = []
    payload = {
        "choices": [{"message": {"content": "ok"}}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 1},
    }

    def fake_post(url, **kwargs):
        calls.append(url)
        if len(calls) < 3:
            return _FakeResponse(500)
        return _FakeResponse(200, payload)

    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x", retry_attempts=3)
    monkeypatch.setattr(backend.session, "post", fake_post)
    monkeypatch.setattr(gateway_mod.time, "sleep", lambda _s: None)
    resp = backend.complete(_request())
    assert resp == ChatResponse(text="ok", prompt_tokens=3, completion_tokens=1)
    assert len(calls) == 3


def test_network_retries_exhausted(monkeypatch):
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x", retry_attempts=2)
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _FakeResponse(503))
    monkeypatch.setattr(gateway_mod.time, "sleep", lambda _s: None)
    with pytest.raises(RetriesExhaustedError):
        backend.complete(_request())


def test_network_empty_response(monkeypatch):
    payload = {"choices": [{"message": {"content": "   "}}]}
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _FakeResponse(200, payload))
    with pytest.raises(EmptyResponseError):
        backend.complete(_request())


def _html_response():
    return http_response(200, b"<html><body>502 Bad Gateway</body></html>")


def test_network_non_json_reply_is_not_retried(monkeypatch):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return _html_response()

    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x", retry_attempts=3)
    monkeypatch.setattr(backend.session, "post", fake_post)
    with pytest.raises(EmptyResponseError):
        backend.complete(_request())
    assert len(calls) == 1


def test_map_returns_non_json_reply_as_gateway_error(monkeypatch):
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _html_response())
    gw = ChatGateway(backend)
    results, error = gw.map(gw.complete, [_request()])
    assert results == []
    assert isinstance(error, EmptyResponseError)


def test_missing_key_rejected_up_front():
    with pytest.raises(AuthError):
        OpenAiCompatBackend("https://api.example/v1", "", "model-x")


def test_map_keeps_input_order(world):
    gw = ChatGateway(MockChatBackend(world), max_inflight=4)

    def slow_first(n):
        time.sleep(0.002 * (8 - n))
        return n * n

    assert gw.map(slow_first, list(range(8))) == ([n * n for n in range(8)], None)


def test_map_raises_first_exception_in_input_order(world):
    gw = ChatGateway(MockChatBackend(world), max_inflight=4)

    def fail(n):
        if n == 1:
            time.sleep(0.02)
            raise ValueError("first in input order")
        if n == 3:
            raise KeyError("finishes first")
        return n

    with pytest.raises(ValueError, match="first in input order"):
        gw.map(fail, [0, 1, 2, 3])


class _StartRecorder:
    """``fn`` for ``ChatGateway.map``: records which items start, raises
    ``error`` at once on item ``k`` and lets every other item take 20 ms, so
    the failure is recorded while its neighbours are still in flight."""

    def __init__(self, k, error):
        self.k = k
        self.error = error
        self.lock = threading.Lock()
        self.started = []

    def __call__(self, n):
        with self.lock:
            self.started.append(n)
        if n == self.k:
            raise self.error
        time.sleep(0.02)
        return n * n


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_map_gateway_error_returns_finished_prefix(world, max_inflight):
    gw = ChatGateway(MockChatBackend(world), max_inflight=max_inflight)
    k = 3
    fn = _StartRecorder(k, AuthError("key revoked"))
    results, error = gw.map(fn, list(range(20)))
    assert results == [n * n for n in range(k)]
    assert isinstance(error, AuthError) and str(error) == "key revoked"
    # Items after k are not started once its failure is recorded; only
    # those already in flight beside it ran.
    assert set(range(k + 1)) <= set(fn.started)
    assert max(fn.started) < k + max_inflight


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_map_non_gateway_error_propagates(world, max_inflight):
    gw = ChatGateway(MockChatBackend(world), max_inflight=max_inflight)
    fn = _StartRecorder(2, KeyError("not a backend failure"))
    with pytest.raises(KeyError, match="not a backend failure"):
        gw.map(fn, list(range(20)))
    assert max(fn.started) < 2 + max_inflight


def test_map_is_serial_under_bound_one(world):
    gw = ChatGateway(MockChatBackend(world), max_inflight=1)
    main = threading.get_ident()
    assert gw.map(lambda _: threading.get_ident(), [1, 2, 3]) == ([main] * 3, None)
    assert gw.map(lambda n: n, []) == ([], None)


def _tree_then(calls, size):
    """``then`` for ``ChatGateway.map``: records (thread, item) and appends
    item n's children 2n + 1 and 2n + 2 while they are below ``size``."""

    def then(item, result):
        assert result == item * item
        calls.append((threading.get_ident(), item))
        return [child for child in (2 * item + 1, 2 * item + 2) if child < size]

    return then


def _square_after(n):
    time.sleep(0.001 * (n % 3))
    return n * n


@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_map_then_runs_in_queue_order_on_caller_and_maps_appended(world, max_inflight):
    gw = ChatGateway(MockChatBackend(world), max_inflight=max_inflight)
    calls = []
    results, error = gw.map(_square_after, [0], then=_tree_then(calls, 15))
    assert (results, error) == ([n * n for n in range(15)], None)
    assert calls == [(threading.get_ident(), n) for n in range(15)]


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_map_then_gateway_error_in_appended_item_returns_prefix(world, max_inflight):
    gw = ChatGateway(MockChatBackend(world), max_inflight=max_inflight)
    fn = _StartRecorder(9, AuthError("key revoked"))
    calls = []
    results, error = gw.map(fn, [0], then=_tree_then(calls, 31))
    assert results == [n * n for n in range(9)]
    assert isinstance(error, AuthError)
    assert [item for _, item in calls] == list(range(9))


class _ActiveCounter:
    """Wraps ``fn`` and counts the calls running at once."""

    def __init__(self, fn):
        self.fn = fn
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def __call__(self, item):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            return self.fn(item)
        finally:
            with self.lock:
                self.active -= 1


@pytest.mark.parametrize("max_inflight", [1, 4])
@pytest.mark.parametrize("where", ["fn", "then"])
def test_map_then_non_gateway_error_propagates_after_join(world, max_inflight, where):
    gw = ChatGateway(MockChatBackend(world), max_inflight=max_inflight)
    threads_before = threading.active_count()
    fn = _ActiveCounter(_StartRecorder(9 if where == "fn" else -1, KeyError("fn broke")))
    tree = _tree_then([], 63)

    def then(item, result):
        if where == "then" and item == 5:
            raise ValueError("then broke")
        return tree(item, result)

    with pytest.raises(KeyError if where == "fn" else ValueError):
        gw.map(fn, [0], then=then)
    assert fn.active == 0
    assert threading.active_count() == threads_before


def test_map_then_is_serial_under_bound_one(world):
    gw = ChatGateway(MockChatBackend(world), max_inflight=1)
    threads_before = threading.active_count()
    seen = []

    def fn(n):
        seen.append((threading.get_ident(), threading.active_count()))
        return n * n

    results, _ = gw.map(fn, [0], then=_tree_then([], 7))
    assert len(results) == 7
    assert seen == [(threading.get_ident(), threads_before)] * 7


class _ConcurrencyBackend:
    """Counts the calls in flight at once; each takes ``delay`` seconds."""

    def __init__(self, delay):
        self.counter = _ActiveCounter(lambda request: time.sleep(delay))

    def complete(self, request):
        self.counter(request)
        return ChatResponse(text="ok", prompt_tokens=1, completion_tokens=1)


@pytest.mark.parametrize("max_inflight", [2, 3])
def test_map_spare_worker_keeps_calls_within_bound(max_inflight):
    backend = _ConcurrencyBackend(0.01)
    gw = ChatGateway(backend, max_inflight=max_inflight)
    request = ChatRequest("s", "u", 0.0, "gloss")
    fn = _ActiveCounter(lambda n: gw.complete(request).text)
    assert gw.map(fn, range(8 * max_inflight)) == (["ok"] * 8 * max_inflight, None)
    assert fn.peak == max_inflight + 1
    assert backend.counter.peak == max_inflight


def test_map_then_under_frequent_thread_switches(world):
    gw = ChatGateway(MockChatBackend(world), max_inflight=8)

    def fn(n):
        if n == 150:
            raise AuthError("key revoked")
        return n * n

    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results, error = gw.map(fn, [0], then=_tree_then(calls, 400))
    finally:
        sys.setswitchinterval(interval)
    assert results == [n * n for n in range(150)]
    assert isinstance(error, AuthError)
    assert [item for _, item in calls] == list(range(150))

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys
import threading
import time

import pytest

import knight.gateway as gateway_mod
from knight.errors import AuthError, EmptyResponseError, GatewayError, RetriesExhaustedError
from knight.fixture_world import load_world, packaged_fixture_dir
from knight.gateway import (
    ChatGateway,
    ChatRequest,
    ChatResponse,
    MockChatBackend,
    MockOverride,
    OpenAiCompatBackend,
    TokenLedger,
)
from knight.graph import KnowledgeGraph
from knight.prompts import (
    GLOSS_SYSTEM,
    MCQ_FORWARD_SYSTEM,
    TITLE_CHECK_SYSTEM,
    TRIPLES_SYSTEM,
    VALIDATE_LABELS,
    VALIDATE_SYSTEM,
    batches,
    gloss_user,
    numbered_prompt,
    parse_mcq_output,
    path_mcq_user,
    split_items,
    title_check_user,
    triples_user,
)

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
        user_prompt=gloss_user([("Biology", None, [])]),
        temperature=0.4,
        task_tag="gloss",
    )
    first = backend.complete(req)
    second = backend.complete(req)
    assert first == second
    assert first.text.encode("utf-8") == second.text.encode("utf-8")


def test_mock_seed_changes_mcq_shape(world):
    user = (
        'Item 1\nPath: "A --[links_to]--> B"\nStart Node: "Genetics"\nDescription: "d"\n'
        'End Node: "Heredity"\nDescription: "d"'
    )
    req = ChatRequest(system_prompt="s", user_prompt=user, temperature=0.4, task_tag="mcq_forward")
    texts = {MockChatBackend(world, rng_seed=s).complete(req).text for s in range(6)}
    assert len(texts) > 1  # seed reshuffles distractors/key letter


def test_a_path_call_whose_description_names_a_topic_gets_a_path_reply(world):
    """Generation calls are routed by their system prompt: a node description
    that holds the direct prompt's topic phrase leaves a path call a path
    call, keyed on its end node."""
    graph = KnowledgeGraph("Genetics")
    seed = graph.nodes[graph.seed_id]
    seed.gloss = 'Genetics: a field most often written about the topic "Biology".'
    child = graph.add_node("Heredity", depth=1)
    user = path_mcq_user(
        "forward", "Biology", [("Genetics --[studies]--> Heredity", seed, child, 0)]
    )
    assert 'about the topic "Biology"' in user
    request = ChatRequest(MCQ_FORWARD_SYSTEM, user, 0.4, "mcq_forward")
    [(_, block)] = split_items(MockChatBackend(world, rng_seed=7).complete(request).text)[1]
    question, options, key = parse_mcq_output(block)
    assert question.startswith("Which of the following is reached from Genetics")
    assert options[key] == "Heredity"


def test_mock_pads_the_distractors_of_a_small_world(tmp_path):
    """A ``fixture_dir`` world with one name besides the path's ends still
    gets three distractors: the spare name and unrelated fillers."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(packaged_fixture_dir(), fixtures)
    terms = {name.lower(): {"name": name} for name in ("Genetics", "Heredity", "Ecology")}
    (fixtures / "world.json").write_text(json.dumps({"version": 1, "terms": terms}))
    user = (
        'Item 1\nPath: "A --[links_to]--> B"\nStart Node: "Genetics"\nDescription: "d"\n'
        'End Node: "Heredity"\nDescription: "d"'
    )
    req = ChatRequest(system_prompt="s", user_prompt=user, temperature=0.4, task_tag="mcq_forward")
    text = MockChatBackend(load_world(fixtures), rng_seed=7).complete(req).text
    options = re.findall(r"^[A-D]\) (.+)$", text, re.MULTILINE)
    fillers = {"Ecology"} | {f"Unrelated concept {i}" for i in range(1, 4)}
    assert len(options) == 4 and "Heredity" in options
    assert set(options) - {"Heredity"} <= fillers and "Genetics" not in options


def test_mock_triples_for_hafez_gloss(world):
    """A gloss about Hafez that mentions Shiraz must yield the fixture's
    born_in triple."""
    backend = MockChatBackend(world, rng_seed=7)
    gloss = backend.complete(
        ChatRequest(
            system_prompt=GLOSS_SYSTEM,
            user_prompt=gloss_user(
                [("Hafez", None, ["Hafez was a Persian poet. He was born in Shiraz."])]
            ),
            temperature=0.4,
            task_tag="gloss",
        )
    )
    [(_, gloss_text)] = split_items(gloss.text)[1]
    assert "Shiraz" in gloss_text
    triples_resp = backend.complete(
        ChatRequest(
            system_prompt=TRIPLES_SYSTEM,
            user_prompt=triples_user([gloss_text.strip()]),
            temperature=0.1,
            task_tag="triples",
        )
    )
    [(_, block)] = split_items(triples_resp.text)[1]
    doc = json.loads(block)
    rows = {(t["head"], t["relation"], t["tail"]) for t in doc["triplets"]}
    assert ("Hafez", "born_in", "Shiraz") in rows


@pytest.mark.parametrize(
    "tag, system, slots",
    [
        ("title_check", TITLE_CHECK_SYSTEM,
         lambda: title_check_user([("Life", "Biology", "Biology"),
                                   ("Heredity", "Genetics", "Ecology")])),
        ("gloss", GLOSS_SYSTEM,
         lambda: gloss_user([("Genetics", "Biology", ["Genetics studies genes."]),
                             ("Ecology", "Life", [])])),
        pytest.param(
            "title_check", TITLE_CHECK_SYSTEM,
            lambda: title_check_user([("Life", "Biology", "Biology"),
                                      ("Life", "Genetics", "Ecology")]),
            id="title_check-shared-hint",
        ),
        pytest.param(
            "gloss", GLOSS_SYSTEM,
            lambda: gloss_user([("Genetics", "Biology", ["Genetics studies genes."]),
                                ("Ecology", "Biology", [])]),
            id="gloss-shared-parent",
        ),
        ("triples", TRIPLES_SYSTEM,
         lambda: triples_user(["1. Definition and Scope - Hafez: poet.", "free text on Biology"])),
    ],
)
def test_mock_answers_each_build_slot_as_it_would_alone(world, tag, system, slots):
    backend = MockChatBackend(world, rng_seed=7)
    head, both = split_items(slots())
    together = backend.complete(ChatRequest(system, slots(), 0.0, tag)).text
    alone = [
        backend.complete(ChatRequest(system, numbered_prompt(head.strip(), [body.strip()]), 0.0, tag))
        .text.removeprefix("Item 1\n")
        for _, body in both
    ]
    assert together == "\n\n".join(f"Item {n}\n{text}" for n, text in enumerate(alone, 1))


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


def test_numbered_prompt_numbers_slots_and_leaves_out_empty_parts():
    assert numbered_prompt("head", ["a", "b\nc"], "tail") == (
        "head\n\nItem 1\na\n\nItem 2\nb\nc\n\ntail"
    )
    assert numbered_prompt("", ["a"]) == "Item 1\na"
    head, slots = split_items(numbered_prompt("head", ["x", "y"]))
    assert head == "head\n\n" and [n for n, _ in slots] == [1, 2]


def test_batches_end_at_batch_size_only(monkeypatch):
    monkeypatch.setattr("knight.prompts.BATCH", 3)
    assert batches(range(7)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert batches("aaaabba") == [["a"] * 3, ["a", "b", "b"], ["a"]]
    assert batches([]) == []


def test_critic_reply_lines_follow_the_labels(world):
    reply_format = VALIDATE_SYSTEM.splitlines()[-len(VALIDATE_LABELS):]
    assert [line.split(":")[0] for line in reply_format] == list(VALIDATE_LABELS)
    slots = ['Topic (optional): ""', 'Topic (optional): "T"']
    text = MockChatBackend(world).complete(_request("validate", numbered_prompt("ctx", slots))).text
    blocks = [block.strip().splitlines() for _, block in split_items(text)[1]]
    labels = [[line.split(":")[0] for line in block] for block in blocks]
    assert labels == [list(VALIDATE_LABELS)] * 2
    assert [block[-1].split(": ")[1] for block in blocks] == ["N/A", "YES"]


def test_complete_items_parses_one_outcome_per_slot(world):
    class Rejected(Exception):
        pass

    def parse(block):
        if "bad" in block:
            raise Rejected(block.strip())
        return block.strip()

    class Fixed:
        def complete(self, request):
            return ChatResponse("Item 1\nfine\nItem 2\nbad\nItem 2\nagain", 3, 4)

    gateway = ChatGateway(Fixed())
    first, second, third = gateway.complete_items(_request("validate"), [parse] * 3, Rejected)
    assert first == "fine"
    assert isinstance(second, Rejected) and "2 blocks" in str(second)
    assert isinstance(third, Rejected) and "0 blocks" in str(third)
    assert gateway.ledger.totals() == {"validate": (3, 4)}


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


@pytest.mark.parametrize("status", [500, 429, 408])
def test_network_retries_then_succeeds(monkeypatch, status):
    calls = []
    payload = {
        "choices": [{"message": {"content": "ok"}}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 1},
    }

    def fake_post(url, **kwargs):
        calls.append(url)
        if len(calls) < 3:
            return _FakeResponse(status)
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


@pytest.mark.parametrize("status", [400, 404, 422])
def test_network_client_error_is_not_retried(monkeypatch, status):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return _FakeResponse(status)

    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x", retry_attempts=3)
    monkeypatch.setattr(backend.session, "post", fake_post)
    monkeypatch.setattr(gateway_mod.time, "sleep", lambda _s: pytest.fail("backed off"))
    with pytest.raises(GatewayError, match=str(status)) as info:
        backend.complete(_request())
    assert not isinstance(info.value, RetriesExhaustedError)
    assert len(calls) == 1


@pytest.mark.parametrize("max_tokens", [None, 120])
def test_network_payload_carries_max_tokens_only_when_set(monkeypatch, max_tokens):
    payloads = []

    def fake_post(url, **kwargs):
        payloads.append(kwargs["json"])
        return _FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", fake_post)
    request = dataclasses.replace(_request(tag="triples"), max_tokens=max_tokens)
    backend.complete(request)
    [payload] = payloads
    assert payload.get("max_tokens", "absent") == (max_tokens or "absent")


def test_network_request_exception_is_retried(monkeypatch):
    import requests

    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        if len(calls) == 1:
            raise requests.ConnectionError("connection reset")
        return _FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x", retry_attempts=2)
    monkeypatch.setattr(backend.session, "post", fake_post)
    monkeypatch.setattr(gateway_mod.time, "sleep", lambda _s: None)
    assert backend.complete(_request()).text == "ok"
    assert len(calls) == 2


def test_network_reply_without_choices(monkeypatch):
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _FakeResponse(200, {"id": "x"}))
    with pytest.raises(EmptyResponseError, match="unexpected response shape"):
        backend.complete(_request())


def test_network_empty_response(monkeypatch):
    payload = {"choices": [{"message": {"content": "   "}}]}
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _FakeResponse(200, payload))
    with pytest.raises(EmptyResponseError):
        backend.complete(_request())


@pytest.mark.parametrize(
    "usage, tokens",
    [
        (None, (0, 0)),
        ({"prompt_tokens": None, "completion_tokens": 2}, (0, 2)),
        ({"prompt_tokens": "many", "completion_tokens": 2}, (0, 2)),
    ],
    ids=["usage-null", "prompt-tokens-null", "prompt-tokens-unreadable"],
)
def test_network_unreadable_usage_counts_as_zero_tokens(monkeypatch, usage, tokens):
    payload = {"choices": [{"message": {"content": "ok"}}], "usage": usage}
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _FakeResponse(200, payload))
    assert backend.complete(_request()) == ChatResponse("ok", *tokens)


def test_map_returns_content_that_is_not_text_as_gateway_error(monkeypatch):
    payload = {"choices": [{"message": {"content": [{"type": "text", "text": "ok"}]}}]}
    backend = OpenAiCompatBackend("https://api.example/v1", "key", "model-x")
    monkeypatch.setattr(backend.session, "post", lambda url, **kw: _FakeResponse(200, payload))
    gw = ChatGateway(backend)
    results, error = gw.map(gw.complete, [_request()])
    assert results == []
    assert isinstance(error, EmptyResponseError)


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
    # Every item runs on the caller's thread, and no thread is started.
    seen = (threading.get_ident(), threading.active_count())
    assert gw.map(
        lambda _: (threading.get_ident(), threading.active_count()), [1, 2, 3]
    ) == ([seen] * 3, None)
    assert gw.map(lambda n: n, []) == ([], None)


def test_map_then_is_serial_under_bound_one(world):
    # One map per level of a binary tree, as build_kg maps each depth in
    # turn: every level runs on the caller's thread and starts no thread.
    gw = ChatGateway(MockChatBackend(world), max_inflight=1)
    threads_before = threading.active_count()
    seen = []

    def fn(n):
        seen.append((threading.get_ident(), threading.active_count()))
        return n * n

    level, results = [0], []
    while level:
        squares, error = gw.map(fn, level)
        assert error is None
        results += squares
        level = [c for n in level for c in (2 * n + 1, 2 * n + 2) if c < 7]
    assert results == [n * n for n in range(7)]
    assert seen == [(threading.get_ident(), threads_before)] * 7


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
def test_map_non_gateway_error_propagates_after_join(world, max_inflight):
    gw = ChatGateway(MockChatBackend(world), max_inflight=max_inflight)
    threads_before = threading.active_count()
    fn = _ActiveCounter(_StartRecorder(9, KeyError("fn broke")))
    with pytest.raises(KeyError):
        gw.map(fn, list(range(63)))
    assert fn.active == 0
    assert threading.active_count() == threads_before


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


def test_map_under_frequent_thread_switches(world):
    gw = ChatGateway(MockChatBackend(world), max_inflight=8)

    def fn(n):
        if n == 150:
            raise AuthError("key revoked")
        return n * n

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results, error = gw.map(fn, list(range(400)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [n * n for n in range(150)]
    assert isinstance(error, AuthError)

from __future__ import annotations

import contextlib
import sys
import types

import pytest

from knight.adapters import AdapterSuite
from knight.config import PipelineConfig
from knight.errors import RetrievalError
from knight.fixture_world import load_world
from knight.gateway import ChatGateway, ChatRequest, ChatResponse, MockChatBackend
from knight.graph import KnowledgeGraph, Triple


@pytest.fixture(scope="session")
def world():
    return load_world()


@pytest.fixture()
def config():
    return PipelineConfig(rng_seed=7).validate()


def critic_order(sources: list[str]) -> list[int]:
    """Item positions in the critic's group order, given each item's
    source: stably by the first appearance of the source."""
    return sorted(range(len(sources)), key=lambda index: sources.index(sources[index]))


class RecordingBackend:
    """Wraps a backend and keeps every request for prompt assertions."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        return self.inner.complete(request)


def http_response(status_code, body):
    """A real ``requests`` response with the given status and raw body."""
    import requests

    resp = requests.models.Response()
    resp.status_code = status_code
    resp._content = body
    return resp


class FailingSource:
    """Wraps a wiki source; calls to the ``failing`` method raise
    ``RetrievalError``, as a network source does when the wiki is down."""

    def __init__(self, inner, failing="search"):
        self.inner = inner
        self.failing = failing

    def _call(self, method, *args):
        if method == self.failing:
            raise RetrievalError(f"{method} unavailable")
        return getattr(self.inner, method)(*args)

    def search(self, term, limit):
        return self._call("search", term, limit)

    def summary(self, title, max_chars):
        return self._call("summary", title, max_chars)

    def page_text(self, title):
        return self._call("page_text", title)


class StubDriver:
    """Stands in for ``neo4j.GraphDatabase.driver``'s result: keeps what the
    mirror asks of it in ``log``. ``refuse`` fails the connectivity check;
    ``fail_run`` is the 1-based ``run`` call that raises, as a driver does
    when a write fails."""

    def __init__(self, log, uri, auth, refuse=False, fail_run=None):
        self.log, self.refuse, self.fail_run = log, refuse, fail_run
        self.runs = 0
        log.append(("driver", uri, auth))

    def verify_connectivity(self):
        self.log.append(("verify",))
        if self.refuse:
            raise OSError("connection refused")

    def session(self):
        self.log.append(("session",))
        return contextlib.nullcontext(self)

    def run(self, statement, **params):
        self.log.append(("run", statement, params))
        self.runs += 1
        if self.runs == self.fail_run:
            raise RuntimeError("write failed")
        return iter([])

    def close(self):
        self.log.append(("close",))


def stub_neo4j(monkeypatch, refuse=False, fail_run=None) -> list:
    """Installs a stub ``neo4j`` module; returns the log its drivers write."""
    log: list = []
    module = types.ModuleType("neo4j")
    module.GraphDatabase = types.SimpleNamespace(
        driver=lambda uri, auth: StubDriver(log, uri, auth, refuse, fail_run)
    )
    monkeypatch.setitem(sys.modules, "neo4j", module)
    return log


@pytest.fixture()
def mock_backend(world, config):
    return MockChatBackend(world, rng_seed=config.rng_seed)


@pytest.fixture()
def gateway(mock_backend):
    return ChatGateway(mock_backend)


@pytest.fixture()
def recording_gateway(world, config):
    backend = RecordingBackend(MockChatBackend(world, rng_seed=config.rng_seed))
    gw = ChatGateway(backend)
    gw.requests = backend.requests
    return gw


@pytest.fixture()
def adapters(world, config):
    return AdapterSuite.fixture_suite(world, rng_seed=config.rng_seed)


def make_chain(*names: str, relation: str = "links_to") -> KnowledgeGraph:
    """seed -> n1 -> n2 ... helper used across graph tests."""
    graph = KnowledgeGraph(names[0])
    parent = graph.nodes[graph.seed_id]
    for name in names[1:]:
        child = graph.add_node(name, depth=parent.depth + 1)
        graph.add_edge(parent.id, relation, child.id)
        parent = child
    return graph


@pytest.fixture()
def hafez_triple():
    return Triple(head="Hafez", relation="born_in", tail="Shiraz")

from __future__ import annotations

import json
import threading
import time
from collections import deque

import pytest

from knight.adapters import AdapterSuite
from knight.builder import build_kg
from knight.config import PipelineConfig
from knight.errors import AuthError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import Topic
from knight.storage import snapshot_document

from conftest import FailingSource, RecordingBackend


def _services(world, seed=7, overrides=None, backend=None, **config_overrides):
    config = PipelineConfig(rng_seed=seed, **config_overrides).validate()
    backend = backend or MockChatBackend(world, rng_seed=seed, overrides=overrides or [])
    gateway = ChatGateway(backend, max_inflight=config.max_inflight)
    adapters = AdapterSuite.fixture_suite(world, rng_seed=seed)
    from knight.retrieval import FixtureWikiSource

    source = FixtureWikiSource(world)
    return config, gateway, source, adapters


def _build(
    world, topic="Biology", seed=7, rejects=None, overrides=None, backend=None, **config_overrides
):
    config, gateway, source, adapters = _services(
        world, seed, overrides, backend, **config_overrides
    )
    graph, report = build_kg(Topic(topic), config, gateway, source, adapters, rejects=rejects)
    return graph, report, config, gateway


def test_depth_one_bounds(world):
    graph, report, config, _ = _build(world, d_max=1)
    assert len(graph.nodes) <= 3  # 1 + max_branches
    assert all(n.depth <= 1 for n in graph.nodes.values())
    assert report.nodes_added == len(graph.nodes) - 1


def test_depth_two_bounds(world):
    # Oracle: geometric bound 1 + 2 + 4.
    graph, report, _, _ = _build(world, d_max=2)
    assert len(graph.nodes) <= 7
    assert all(n.depth <= 2 for n in graph.nodes.values())
    assert set(report.per_depth_counts) <= {0, 1, 2}


def test_build_deterministic_snapshots(world):
    graph_a, report_a, config, _ = _build(world, seed=7)
    graph_b, report_b, _, _ = _build(world, seed=7)
    doc_a = snapshot_document(graph_a, "Biology", report=report_a)
    doc_b = snapshot_document(graph_b, "Biology", report=report_b)
    assert doc_a == doc_b


def test_level_sync_parallel_equals_sequential(world):
    graph_seq, report_seq, _, _ = _build(world, seed=7, max_inflight=1)
    graph_par, report_par, _, _ = _build(world, seed=7, max_inflight=4)
    assert snapshot_document(graph_seq, report=report_seq) == snapshot_document(
        graph_par, report=report_par
    )


def test_every_node_reaches_seed(world):
    graph, _, _, _ = _build(world, d_max=3)
    reachable = {graph.seed_id}
    frontier = deque([graph.seed_id])
    adjacency = graph.adjacency()
    while frontier:
        nid = frontier.popleft()
        for tail, _rel in adjacency[nid]:
            if tail not in reachable:
                reachable.add(tail)
                frontier.append(tail)
    assert reachable == set(graph.nodes)


def test_branch_limit_two_children(world):
    # Biology's fixture expansion offers 4 candidates; only 2 survive the
    # branch limit.
    graph, _, _, _ = _build(world, d_max=1, max_branches=2)
    depth_one = [n for n in graph.nodes.values() if n.depth == 1]
    assert len(depth_one) == 2


def test_gamma_rejection_counts_and_stops_children(world):
    # Planted gloss that shares no vocabulary with the retrieved passages.
    override = MockOverride(
        task_tag="gloss",
        substring='Explain the term: "Biology"',
        response="zq wv xk yj unrelated blather entirely",
    )
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7, overrides=[override]))
    graph, report, _, _ = _build(world, backend=backend)
    assert report.glosses_rejected_by_gamma == 1
    assert len(graph.nodes) == 1  # seed contributed no children
    assert graph.nodes[graph.seed_id].gamma_failed is True
    # The gate runs before extraction, so a rejected gloss costs no triples call.
    assert [r.task_tag for r in backend.requests if r.task_tag == "triples"] == []


def _node_fields(node):
    return (*_gloss_fields(node), node.gamma_failed)


@pytest.mark.parametrize("d_max", [1, 2, 3])
def test_nodes_at_d_max_are_glossed_but_not_expanded(world, d_max):
    # The deepest evidence-backed node within d_max gets a gloss that fails
    # the gamma gate (Biology has one at depths 1 and 2, none at 3).
    plain, _, _, _ = _build(world, d_max=d_max)
    failing = [n for n in plain.nodes.values() if not n.parametric_fallback][-1]
    assert failing.depth == min(d_max, 2)
    override = MockOverride(
        task_tag="gloss",
        substring=f'Explain the term: "{failing.name}"',
        response="zq wv xk yj unrelated blather entirely",
    )
    # The same build one level deeper glosses the d_max nodes as inner nodes.
    deeper, _, _, _ = _build(world, d_max=d_max + 1, overrides=[override])
    snapshots = []
    for max_inflight in (1, 4):
        backend = RecordingBackend(MockChatBackend(world, rng_seed=7, overrides=[override]))
        graph, report, _, _ = _build(
            world, d_max=d_max, backend=backend, max_inflight=max_inflight
        )
        nodes = list(graph.nodes.values())
        expanded = [n for n in nodes if n.depth < d_max and not n.gamma_failed]
        leaves = [n for n in nodes if n.depth == d_max]
        triples = [r.user_prompt for r in backend.requests if r.task_tag == "triples"]
        assert len(triples) == len(expanded)
        assert [n.id for n in nodes if any(n.gloss in prompt for prompt in triples)] == [
            n.id for n in expanded
        ]
        assert sum(r.task_tag == "gloss" for r in backend.requests) == len(nodes)
        assert graph.nodes[failing.id].gamma_failed
        assert report.glosses_rejected_by_gamma == 1
        assert list(graph.nodes) == [n.id for n in deeper.nodes.values() if n.depth <= d_max]
        for node in leaves:
            assert node.gloss
            assert _node_fields(node) == _node_fields(deeper.nodes[node.id])
        snapshots.append(snapshot_document(graph, "Biology", report=report))
    assert snapshots[0] == snapshots[1]


def test_build_aborts_on_auth_error(world):
    class ExplodingBackend:
        def __init__(self, inner, after):
            self.inner = inner
            self.after = after
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            if self.calls > self.after:
                raise AuthError("key revoked")
            return self.inner.complete(request)

    config = PipelineConfig(rng_seed=7).validate()
    backend = ExplodingBackend(MockChatBackend(world, rng_seed=7), after=4)
    gateway = ChatGateway(backend)
    adapters = AdapterSuite.fixture_suite(world, rng_seed=7)
    from knight.retrieval import FixtureWikiSource

    graph, report = build_kg(
        Topic("Biology"), config, gateway, FixtureWikiSource(world), adapters
    )
    assert report.aborted_reason is not None
    assert "AuthError" in report.aborted_reason
    assert graph.nodes  # partial graph survives


class _GlossFailsFor:
    """Raises ``AuthError`` on the gloss call for ``term``, after ``delay``
    seconds."""

    def __init__(self, inner, term, delay=0.0):
        self.inner = inner
        self.marker = f'Explain the term: "{term}"'
        self.delay = delay

    def complete(self, request):
        if request.task_tag == "gloss" and self.marker in request.user_prompt:
            time.sleep(self.delay)
            raise AuthError("key revoked")
        return self.inner.complete(request)


def _gloss_fields(node):
    return node.gloss, node.provenance, node.parametric_fallback, node.retrieval_weights


# At d_max 2, each node of the last level fails in turn. At d_max 3, a
# depth-1 node fails 50 ms late, so at max_inflight 4 the depth-2 children of
# the depth-1 nodes before it have started by then.
@pytest.mark.parametrize(
    "d_max, depth, k, delay",
    [pytest.param(2, 2, k, 0.0, id=str(k)) for k in range(4)]
    + [pytest.param(3, 1, k, 0.05, id=f"d3-depth1-{k}") for k in range(2)],
)
def test_build_abort_keeps_finished_prefix_of_level(world, d_max, depth, k, delay):
    baseline, _, _, _ = _build(world, d_max=d_max)
    # Nodes are stored in the order they are enqueued, so this is queue order.
    queue = list(baseline.nodes.values())
    level = [n for n in queue if n.depth == depth]
    failed = queue.index(level[k])
    snapshots = []
    for max_inflight in (1, 4):
        backend = _GlossFailsFor(MockChatBackend(world, rng_seed=7), level[k].name, delay)
        graph, report, _, _ = _build(
            world, d_max=d_max, backend=backend, max_inflight=max_inflight
        )
        assert report.aborted_reason == "AuthError: key revoked"
        assert list(graph.nodes) == [n.id for n in queue[: len(graph.nodes)]]
        for node in queue[:failed]:
            assert node.gloss
            assert _gloss_fields(graph.nodes[node.id]) == _gloss_fields(node)
        for node in list(graph.nodes.values())[failed:]:
            assert node.gloss is None
        snapshots.append(snapshot_document(graph, "Biology", report=report))
    assert snapshots[0] == snapshots[1]


class _HoldTriplesUntilTitleCheck:
    """Holds the triples call for ``held`` until a title check for one of
    ``awaited`` arrives, or ``timeout`` seconds pass."""

    def __init__(self, inner, held, awaited, timeout=2.0):
        self.inner = inner
        self.held = f"Definition and Scope - {held}:"
        self.awaited = [f'Term to define: "{term}"' for term in awaited]
        self.timeout = timeout
        self.arrived = threading.Event()
        self.timed_out = False

    def complete(self, request):
        if request.task_tag == "title_check" and any(
            marker in request.user_prompt for marker in self.awaited
        ):
            self.arrived.set()
        if request.task_tag == "triples" and self.held in request.user_prompt:
            self.timed_out = not self.arrived.wait(self.timeout)
        return self.inner.complete(request)


def test_children_start_before_their_parents_level_finishes(world):
    baseline, report, _, _ = _build(world, d_max=2)
    level_one = [n for n in baseline.nodes.values() if n.depth == 1]
    level_two = [n.name for n in baseline.nodes.values() if n.depth == 2]
    backend = _HoldTriplesUntilTitleCheck(
        MockChatBackend(world, rng_seed=7), level_one[-1].name, level_two
    )
    graph, held_report, _, _ = _build(world, d_max=2, backend=backend, max_inflight=2)
    assert not backend.timed_out, "a depth-2 stage waited for the whole of depth 1"
    assert snapshot_document(graph, report=held_report) == snapshot_document(
        baseline, report=report
    )


def test_unknown_head_is_rejected_and_build_completes(world):
    triples = [
        {"head": "Biology", "relation": "includes", "tail": "Genetics"},
        {"head": "Cell Theory", "relation": "explains", "tail": "Mitosis"},
        {"head": "Biology", "relation": "studies", "tail": "Life"},
    ]
    override = MockOverride(
        task_tag="triples",
        substring="Definition and Scope - Biology:",
        response=json.dumps({"triplets": triples}),
    )
    rejects: list = []
    graph, report, _, _ = _build(world, d_max=1, rejects=rejects, overrides=[override])
    assert report.aborted_reason is None
    assert {n.name for n in graph.nodes.values() if n.depth == 1} == {"Genetics", "Life"}
    assert "mitosis" not in graph.nodes
    unknown = [r for r in rejects if r.reason == "unknown_head"]
    assert [(r.head, r.tail) for r in unknown] == [("Cell Theory", "Mitosis")]
    assert report.candidates_rejected == len(rejects)
    assert report.curation_prune_rate == pytest.approx(len(rejects) / report.candidates_seen)


def test_rejects_collected(world):
    rejects: list = []
    graph, report, _, _ = _build(world, d_max=3, rejects=rejects)
    assert len(rejects) == report.candidates_rejected
    for rejected in rejects:
        assert rejected.reason in ("duplicate", "alias", "type_fail", "nli_fail", "policy_fail")


def test_seed_gloss_attached_with_provenance(world):
    graph, _, _, _ = _build(world)
    seed = graph.nodes[graph.seed_id]
    assert seed.gloss and "Definition and Scope" in seed.gloss
    assert seed.provenance, "evidence-backed seed must carry passage ids"
    assert seed.parametric_fallback is False
    assert len(seed.retrieval_weights) == len(seed.provenance)


def test_lookup_failure_gives_parametric_gloss(world):
    config, gateway, source, adapters = _services(world, d_max=1)
    graph, report = build_kg(
        Topic("Biology"), config, gateway, FailingSource(source, "search"), adapters
    )
    seed = graph.nodes[graph.seed_id]
    assert seed.gloss and "Definition and Scope" in seed.gloss
    assert seed.parametric_fallback is True
    assert seed.provenance == []
    assert report.aborted_reason is None


def test_unknown_children_get_parametric_gloss(world):
    graph, _, _, _ = _build(world, d_max=2)
    fallbacks = [n for n in graph.nodes.values() if n.parametric_fallback]
    for node in fallbacks:
        assert node.provenance == []
        assert node.gloss

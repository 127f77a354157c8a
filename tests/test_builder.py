from __future__ import annotations

import itertools
import json
import re
import threading
import time
from collections import deque

import pytest

from knight import builder, prompts
from knight.adapters import AdapterSuite
from knight.builder import build_kg
from knight.config import PipelineConfig
from knight.errors import AuthError, GatewayError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import Topic, normalize_name
from knight.retrieval import (
    FixtureWikiSource, NetworkWikiSource, Passage, RetrievalResult, choose_titles, mixture_weights,
    retrieve_evidence,
)
from knight.storage import snapshot_document

from conftest import FailingSource, RecordingBackend, http_response


def _services(world, seed=7, overrides=None, backend=None, **config_overrides):
    config = PipelineConfig(rng_seed=seed, **config_overrides).validate()
    backend = backend or MockChatBackend(world, rng_seed=seed, overrides=overrides or [])
    gateway = ChatGateway(backend, max_inflight=config.max_inflight)
    adapters = AdapterSuite.fixture_suite(world, rng_seed=seed)
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


def _level_runs(graph):
    """The build's runs as lists of nodes: each depth's nodes, in the order
    they were added, in runs of up to ``BATCH``. Nodes are stored in the
    order they are added, which is the order they are applied."""
    levels = {}
    for node in graph.nodes.values():
        levels.setdefault(node.depth, []).append(node)
    return [run for level in levels.values() for run in prompts.batches(level)]


def _parents(graph):
    """Each node's parent name, by id. With the mock every triple's head is
    the node being expanded, so a node was added by the first node in apply
    order with an edge to it from the level above."""
    order = {node_id: index for index, node_id in enumerate(graph.nodes)}
    added_by = {}
    for edge in graph.edges:
        if graph.nodes[edge.head].depth + 1 == graph.nodes[edge.tail].depth:
            earlier = added_by.get(edge.tail, edge.head)
            added_by[edge.tail] = min(earlier, edge.head, key=order.__getitem__)
    return {node_id: graph.nodes[head].name for node_id, head in added_by.items()}


_TERM = re.compile(r'(?:Explain the term|Term to define): "([^"]+)"')
_TITLE_SLOT = re.compile(r'Term to define: "([^"]+)"\.\nCandidate page title: "([^"]+)"')
_CONTEXT = re.compile(r'(?:parent term|information related to) "([^"]+)"')


def _slot_contexts(prompt):
    """Each slot's term and its parent or context hint, read from the slot
    or else from the shared head ("" when neither names one)."""
    head, slots = prompts.split_items(prompt)
    shared = _CONTEXT.search(head)
    out = []
    for _, slot in slots:
        own = _CONTEXT.search(slot) or shared
        out.append((_TERM.search(slot).group(1), own.group(1) if own else ""))
    return out


def _terms_per_call(backend, tag):
    return [_TERM.findall(r.user_prompt) for r in backend.requests if r.task_tag == tag]


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


@pytest.mark.parametrize(
    "d_max, batch",
    [pytest.param(d_max, 10, id=str(d_max)) for d_max in (1, 2, 3)]
    + [pytest.param(d_max, 2, id=f"batch2-{d_max}") for d_max in (1, 2, 3)],
)
def test_nodes_at_d_max_are_glossed_but_not_expanded(world, monkeypatch, d_max, batch):
    monkeypatch.setattr(prompts, "BATCH", batch)
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
        runs = _level_runs(graph)
        assert len(triples) == sum(any(n in expanded for n in run) for run in runs)
        assert [n.id for n in nodes if any(n.gloss in prompt for prompt in triples)] == [
            n.id for n in expanded
        ]
        assert sum(r.task_tag == "gloss" for r in backend.requests) == len(runs)
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
# node fails 50 ms late; at BATCH 2 and max_inflight 4, when it lies in the
# first depth-2 run, the second runs beside it and is not applied even if
# it finishes. A failed gloss call costs the node's whole run and the rest
# of its level.
@pytest.mark.parametrize(
    "batch, d_max, depth, k, delay",
    [pytest.param(10, 2, 2, k, 0.0, id=str(k)) for k in range(4)]
    + [pytest.param(10, 3, 1, k, 0.05, id=f"d3-depth1-{k}") for k in range(2)]
    + [pytest.param(2, 2, 2, k, 0.0, id=f"batch2-{k}") for k in range(4)]
    + [pytest.param(2, 3, 2, k, 0.05, id=f"batch2-d3-depth2-{k}") for k in range(4)],
)
def test_build_abort_keeps_finished_prefix_of_level(
    world, monkeypatch, batch, d_max, depth, k, delay
):
    monkeypatch.setattr(prompts, "BATCH", batch)
    baseline, _, _, _ = _build(world, d_max=d_max)
    # Nodes are stored in the order they are added, so this is apply order.
    queue = list(baseline.nodes.values())
    level = [n for n in queue if n.depth == depth]
    [failed_run] = [run for run in _level_runs(baseline) if level[k] in run]
    failed = queue.index(failed_run[0])
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


class _TitleCheckFailsFor(RecordingBackend):
    """Records every request and raises ``error`` on a title check that
    asks about any of ``terms``."""

    def __init__(self, inner, terms, error):
        super().__init__(inner)
        self.markers = [f'Term to define: "{term}"' for term in terms]
        self.error = error

    def complete(self, request):
        if request.task_tag == "title_check" and any(
            marker in request.user_prompt for marker in self.markers
        ):
            self.requests.append(request)
            raise self.error
        return super().complete(request)


# A level's title check is one call, so its failure costs the whole level:
# every node of it is present but unglossed, and the build ends there.
@pytest.mark.parametrize("error", [AuthError("key revoked"), GatewayError("backend down")])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_failed_title_check_costs_its_whole_level(world, depth, error):
    def build(backend=None, max_inflight=1):
        config, gateway, source, adapters = _services(
            world, backend=backend, d_max=3, max_inflight=max_inflight
        )
        # Every term is searched, so every level has a title check.
        return build_kg(Topic("Biology"), config, gateway, _EveryTermSearched(source), adapters)

    clean, _ = build()
    level = [n for n in clean.nodes.values() if n.depth == depth]
    snapshots = []
    for max_inflight in (1, 4):
        backend = _TitleCheckFailsFor(
            MockChatBackend(world, rng_seed=7), [n.name for n in level], error
        )
        graph, report = build(backend, max_inflight)
        assert report.aborted_reason == f"{type(error).__name__}: {error}"
        assert list(graph.nodes) == [n.id for n in clean.nodes.values() if n.depth <= depth]
        for node in graph.nodes.values():
            if node.depth < depth:
                assert _node_fields(node) == _node_fields(clean.nodes[node.id])
            else:
                assert node.gloss is None and not node.provenance
        # The failed title check is the last call: no gloss or triples call
        # is made for its level.
        assert backend.requests[-1].task_tag == "title_check"
        glossed = {term for terms in _terms_per_call(backend, "gloss") for term in terms}
        assert glossed == {n.name for n in clean.nodes.values() if n.depth < depth}
        snapshots.append(snapshot_document(graph, "Biology", report=report))
    assert snapshots[0] == snapshots[1]


# At max_branches 3 and BATCH 3, depth 3 is cut into full runs, one of
# them across two parents, then the remainder.
@pytest.mark.parametrize("batch", [2, 3, 10])
def test_one_gloss_call_per_level_run(world, monkeypatch, batch):
    monkeypatch.setattr(prompts, "BATCH", batch)
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    graph, _, config, _ = _build(world, d_max=3, backend=backend, max_branches=3)
    runs = [[n.name for n in run] for run in _level_runs(graph)]
    assert len(runs) < len(graph.nodes)
    assert all(len(run) <= batch for run in runs)
    assert _terms_per_call(backend, "gloss") == runs
    # Each title-check call asks about a subset of one level, in level
    # order, with at most TITLE_BATCH slots.
    levels = {}
    for node in graph.nodes.values():
        levels.setdefault(node.depth, []).append(node.name)
    for asked in _terms_per_call(backend, "title_check"):
        assert len(asked) <= prompts.TITLE_BATCH
        assert any(asked == [name for name in level if name in asked] for level in levels.values())
    # A level makes one title-check call per round, even when it spans
    # several runs: each call checks candidate k of its terms, for one k,
    # and no two calls share a level and a k.
    depth = {node.name: node.depth for node in graph.nodes.values()}
    source = FixtureWikiSource(world)
    rounds = [
        {
            (depth[term], source.search(term, config.search_limit).index(title))
            for term, title in _TITLE_SLOT.findall(request.user_prompt)
        }
        for request in backend.requests
        if request.task_tag == "title_check"
    ]
    assert all(len(level_round) == 1 for level_round in rounds)
    assert len({min(level_round) for level_round in rounds}) == len(rounds)
    if batch == 2:
        assert max(map(len, levels.values())) > batch
    # A triples call budgets max_tokens_triples per slot.
    triples = [r for r in backend.requests if r.task_tag == "triples"]
    assert triples
    for request in triples:
        slots = request.user_prompt.count("--- Text ---")
        assert request.max_tokens == config.max_tokens_triples * slots


class _EveryTermSearched:
    """A source whose search offers each term its own name, so every node
    gets a title-check slot; pages come from ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def search(self, term, limit):
        return [term]

    def summary(self, title, max_chars):
        return self.inner.summary(title, max_chars)

    def page_text(self, title):
        return self.inner.page_text(title)


def test_each_slot_of_a_mixed_parent_run_names_its_own_parent(world, monkeypatch):
    monkeypatch.setattr(prompts, "BATCH", 2)
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    config, gateway, source, adapters = _services(
        world, backend=backend, d_max=3, max_branches=3
    )
    graph, _ = build_kg(Topic("Biology"), config, gateway, _EveryTermSearched(source), adapters)
    parents = {graph.nodes[node_id].name: name for node_id, name in _parents(graph).items()}
    calls = {"gloss": [], "title_check": []}
    for request in backend.requests:
        if request.task_tag in calls:
            slots = _slot_contexts(request.user_prompt)
            calls[request.task_tag].append(slots)
            # A parent or hint every slot shares is written once, in the
            # head; a call that mixes them writes one in each slot.
            contexts = {context for _, context in slots}
            written = len(_CONTEXT.findall(request.user_prompt))
            assert written == (len(contexts - {""}) if len(contexts) == 1 else len(slots))
    # Every node has one slot of each, under its own parent, or under the
    # default hint and no parent line for the seed; some calls mix parents,
    # and some share one parent over several slots.
    for tag, seed_parent in (("gloss", ""), ("title_check", "general knowledge")):
        slots = [slot for call in calls[tag] for slot in call]
        assert sorted(slots) == sorted(
            (node.name, parents.get(node.name, seed_parent)) for node in graph.nodes.values()
        )
        assert any(len({parent for _, parent in call}) > 1 for call in calls[tag])
        assert any(len(call) > 1 and len({p for _, p in call}) == 1 for call in calls[tag])
    # Each reply block, and so each node's gloss, names its own parent.
    for node in graph.nodes.values():
        if node.name in parents:
            assert node.gloss.endswith(
                f"Relationship to parent: {node.name} sits within {parents[node.name]}."
            )


@pytest.mark.parametrize("max_branches", [2, 3])
def test_level_run_build_is_the_same_at_any_max_inflight_and_batch(
    world, monkeypatch, max_branches
):
    runs = {}
    for batch, title_batch, max_inflight in itertools.product((2, 10), (1, 2, 50), (1, 4)):
        monkeypatch.setattr(prompts, "BATCH", batch)
        monkeypatch.setattr(prompts, "TITLE_BATCH", title_batch)
        backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
        graph, report, _, _ = _build(
            world, d_max=3, backend=backend, max_inflight=max_inflight, max_branches=max_branches
        )
        for request in backend.requests:
            if request.task_tag == "title_check":
                assert len(prompts.split_items(request.user_prompt)[1]) <= title_batch
        requests = sorted((r.task_tag, r.user_prompt) for r in backend.requests)
        snapshot = json.dumps(snapshot_document(graph, report=report), sort_keys=True)
        runs[batch, title_batch, max_inflight] = (snapshot, requests)
    # The requests depend on the batch sizes, the graph does not.
    assert len({snapshot for snapshot, _ in runs.values()}) == 1
    for (batch, title_batch, max_inflight), run in runs.items():
        assert run == runs[batch, title_batch, 1]
    assert runs[2, 50, 1][1] != runs[10, 50, 1][1] != runs[10, 1, 1][1] != runs[10, 2, 1][1]


class _PairedSearches(FixtureWikiSource):
    """Every search but the seed's waits for a second search to run beside
    it, so a level's searches must run concurrently."""

    def __init__(self, world, seed):
        super().__init__(world)
        self.seed = seed
        self.barrier = threading.Barrier(2, timeout=2)

    def search(self, term, limit):
        if term != self.seed:
            self.barrier.wait()
        return super().search(term, limit)


def test_a_levels_searches_run_concurrently(world):
    # At max_branches 2 every level below the seed has an even number of
    # nodes (2, 4, 4), so every search finds a partner.
    config, gateway, _, adapters = _services(world, d_max=3, max_branches=2, max_inflight=2)
    clean, clean_report, _, _ = _build(world, d_max=3, max_branches=2)
    graph, report = build_kg(
        Topic("Biology"), config, gateway, _PairedSearches(world, "Biology"), adapters
    )
    assert report.aborted_reason is None
    assert [n.depth for n in graph.nodes.values()].count(3) == 4
    assert snapshot_document(graph, report=report) == snapshot_document(clean, report=clean_report)


def _baseline_and_planted(world, override):
    baseline, base_report, _, _ = _build(world, d_max=2)
    graph, report, _, _ = _build(world, d_max=2, overrides=[override])
    assert report.aborted_reason is None
    assert base_report.aborted_reason is None
    return baseline, graph


def test_bad_title_block_costs_its_node_only(world, caplog):
    override = MockOverride("title_check", 'Term to define: "Genetics"', "Perhaps")
    with caplog.at_level("WARNING", logger="knight.retrieval"):
        baseline, graph = _baseline_and_planted(world, override)
    assert any("treating as no" in r.getMessage() for r in caplog.records)
    genetics, ecology = (n for n in graph.nodes.values() if n.depth == 1)
    assert genetics.name == "Genetics" and baseline.nodes[genetics.id].provenance
    assert genetics.parametric_fallback and genetics.provenance == []
    assert _node_fields(ecology) == _node_fields(baseline.nodes[ecology.id])


def test_bad_gloss_block_costs_its_node_only(world, caplog):
    override = MockOverride("gloss", 'Explain the term: "Genetics"', "")
    with caplog.at_level("WARNING", logger="knight.builder"):
        baseline, graph = _baseline_and_planted(world, override)
    assert any("left unglossed" in r.getMessage() for r in caplog.records)
    genetics = graph.nodes[normalize_name("Genetics")]
    assert genetics.gloss is None and not genetics.gamma_failed
    assert genetics.provenance == baseline.nodes[genetics.id].provenance
    assert [e for e in graph.edges if e.head == genetics.id] == []
    # Only the children Genetics would have added are missing.
    lost = {e.tail for e in baseline.edges if e.head == genetics.id}
    assert lost
    assert list(graph.nodes) == [n for n in baseline.nodes if n not in lost]
    for node in graph.nodes.values():
        if node is not genetics:
            assert _node_fields(node) == _node_fields(baseline.nodes[node.id])


def test_bad_triples_block_costs_its_node_only(world, caplog):
    override = MockOverride("triples", "Definition and Scope - Genetics:", "no payload")
    with caplog.at_level("WARNING", logger="knight.builder"):
        baseline, graph = _baseline_and_planted(world, override)
    assert any("zero children" in r.getMessage() for r in caplog.records)
    genetics = normalize_name("Genetics")
    assert [e for e in graph.edges if e.head == genetics] == []
    lost = {e.tail for e in baseline.edges if e.head == genetics}
    assert lost
    assert list(graph.nodes) == [n for n in baseline.nodes if n not in lost]
    for node in graph.nodes.values():
        assert _node_fields(node) == _node_fields(baseline.nodes[node.id])


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
    graph, _, config, _ = _build(world)
    seed = graph.nodes[graph.seed_id]
    assert seed.gloss and "Definition and Scope" in seed.gloss
    assert seed.provenance, "evidence-backed seed must carry passage ids"
    assert seed.parametric_fallback is False
    # The seed's evidence is what retrieval returns for it, in its order.
    _, gateway, source, _ = _services(world)
    [(_, retrieval)] = choose_titles(
        ["Biology"], source, gateway, config, [None],
        lambda term, title: retrieve_evidence(term, title, source, config),
    )
    assert seed.provenance == retrieval.ids()
    assert seed.retrieval_weights == mixture_weights(retrieval.scores())


def test_provenance_keeps_retrieval_order_on_tied_scores(world, monkeypatch):
    # Sorting by id would put "#chunk10" before "#chunk2".
    tied = RetrievalResult([
        Passage(id="Biology#chunk2", text="Second chunk text.", score=0.5),
        Passage(id="Biology#chunk10", text="Tenth chunk text.", score=0.5),
    ])
    monkeypatch.setattr(builder, "retrieve_evidence", lambda *args: tied)
    graph, _, _, _ = _build(world, d_max=1)
    seed = graph.nodes[graph.seed_id]
    assert seed.provenance == ["Biology#chunk2", "Biology#chunk10"]
    assert seed.retrieval_weights == [0.5, 0.5]


def test_lookup_failure_gives_parametric_gloss(world):
    config, gateway, source, adapters = _services(world, d_max=1)
    graph, report = build_kg(
        Topic("Biology"), config, gateway, FailingSource(source, "search"), adapters
    )
    seed = graph.nodes[graph.seed_id]
    assert seed.gloss and "Definition and Scope" in seed.gloss
    assert seed.parametric_fallback is True
    assert seed.provenance == []
    assert seed.retrieval_weights == []
    assert report.aborted_reason is None


def test_malformed_search_replies_cost_each_term_its_evidence_only(world, monkeypatch):
    # Each search reply is malformed in one of four ways; every term falls
    # back to the model's own knowledge and the build goes on.
    replies = itertools.cycle(
        [b"[]", b'{"pages": null}', b'{"pages": "Cell"}', b'{"pages": [{"key": "Cell"}]}']
    )
    urls = []

    def get(url, **kwargs):
        urls.append(url)
        return http_response(200, next(replies))

    config, gateway, _, adapters = _services(world, d_max=2)
    source = NetworkWikiSource()
    monkeypatch.setattr(source.session, "get", get)
    graph, report = build_kg(Topic("Biology"), config, gateway, source, adapters)
    assert report.aborted_reason is None
    assert len(graph.nodes) > 4
    assert all(node.parametric_fallback for node in graph.nodes.values())
    assert len(urls) > 4 and all(url.endswith("/search/page") for url in urls)


def test_unknown_children_get_parametric_gloss(world):
    graph, _, _, _ = _build(world, d_max=2)
    fallbacks = [n for n in graph.nodes.values() if n.parametric_fallback]
    assert fallbacks
    for node in fallbacks:
        assert node.provenance == []
        assert node.retrieval_weights == []
        assert node.gloss

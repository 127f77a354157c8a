from __future__ import annotations

import dataclasses
import random

import pytest

import knight.builder as builder_mod
from knight.adapters import AdapterSuite
from knight.config import PipelineConfig
from knight.curation import content_filter, curate
from knight.errors import AdapterError, GraphError
from knight.gateway import ChatGateway, MockChatBackend
from knight.graph import Edge, KnowledgeGraph, Topic, Triple, add_curated
from knight.retrieval import FixtureWikiSource
from knight.storage import snapshot_document


class _FailingEmbedding:
    def cosine(self, a, b):
        raise AdapterError("endpoint down")


class _FailingNli:
    def entailment(self, premise, hypothesis):
        raise AdapterError("endpoint down")


# -- content_filter -----------------------------------------------------------


def test_content_filter_all_pass(adapters):
    triple = Triple("Hafez", "born_in", "Shiraz")
    ok, reason = content_filter(triple, "Hafez was a poet born in Shiraz.", adapters)
    assert (ok, reason) == (True, None)


def test_content_filter_nli_failure(adapters):
    triple = Triple("Hafez", "made_of", "Implausible Claim")
    ok, reason = content_filter(triple, "Hafez was a Persian poet.", adapters)
    assert (ok, reason) == (False, "nli_fail")


def test_content_filter_type_failure(adapters):
    # born_in admits city/country/place; the fixture types photosynthesis
    # as a process.
    triple = Triple("Hafez", "born_in", "Photosynthesis")
    ok, reason = content_filter(triple, "Hafez was a Persian poet.", adapters)
    assert (ok, reason) == (False, "type_fail")


def test_content_filter_policy_failure(adapters):
    triple = Triple("Topic", "mentions", "forbidden test term")
    ok, reason = content_filter(triple, "Some gloss.", adapters)
    assert (ok, reason) == (False, "policy_fail")


def test_content_filter_outage_skips_by_default(adapters, caplog):
    suite = AdapterSuite(
        embedding=adapters.embedding,
        nli=_FailingNli(),
        ontology=adapters.ontology,
        policy=adapters.policy,
        grammar=adapters.grammar,
        probe=adapters.probe,
    )
    with caplog.at_level("WARNING"):
        ok, reason = content_filter(Triple("a", "rel", "b"), "gloss", suite)
    assert (ok, reason) == (True, None)
    assert any("outage" in r.message for r in caplog.records)


def test_content_filter_outage_strict_fails(adapters):
    suite = AdapterSuite(
        embedding=adapters.embedding,
        nli=_FailingNli(),
        ontology=adapters.ontology,
        policy=adapters.policy,
        grammar=adapters.grammar,
        probe=adapters.probe,
    )
    ok, reason = content_filter(Triple("a", "rel", "b"), "gloss", suite, strict=True)
    assert (ok, reason) == (False, "nli_fail")


# -- curate -------------------------------------------------------------------


def _history_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph("World History")
    node = graph.add_node("World War II", depth=1)
    graph.add_edge(graph.seed_id, "includes", node.id)
    return graph


# -- the alias scan -----------------------------------------------------------


class _RecordingEmbedding:
    def __init__(self, inner):
        self.inner = inner
        self.pairs: list[tuple[str, str]] = []

    def cosine(self, a, b):
        self.pairs.append((a, b))
        return self.inner.cosine(a, b)


def _scan(adapters, config, tail, embedding=None):
    """Curate one candidate tail under World History's seed; returns the
    outcome and the pairs the embedding scored."""
    graph = _history_graph()
    recording = _RecordingEmbedding(embedding or adapters.embedding)
    suite = dataclasses.replace(adapters, embedding=recording)
    triple = Triple("World History", "includes", tail)
    outcome = curate(graph, graph.seed_id, [triple], suite, config)
    return outcome, recording.pairs


def test_alias_by_normalization(adapters, config):
    # A tail equal to a node's name after normalization is a duplicate
    # before the alias scan starts; the embedding is never asked.
    outcome, pairs = _scan(adapters, config, "world war ii")
    assert [reason for _, reason in outcome.rejected] == ["duplicate"]
    assert outcome.merged == [] and pairs == []


def test_alias_by_embedding_fixture(adapters, config):
    outcome, pairs = _scan(adapters, config, "Second World War")
    assert [target for _, target in outcome.merged] == ["world war ii"]
    assert ("Second World War", "World War II") in pairs


def test_not_alias_low_cosine(adapters, config):
    assert adapters.embedding.cosine("Cold War", "World War II") < config.tau_alias
    outcome, pairs = _scan(adapters, config, "Cold War")
    assert outcome.merged == []
    assert [t.tail for t in outcome.accepted] == ["Cold War"]
    assert sorted(pairs) == [("Cold War", "World History"), ("Cold War", "World War II")]


def test_alias_adapter_failure_degrades(adapters, config, caplog):
    with caplog.at_level("WARNING"):
        outcome, _ = _scan(adapters, config, "Second World War", _FailingEmbedding())
        duplicate, _ = _scan(adapters, config, "world war ii", _FailingEmbedding())
    # No merge under an outage; the candidate goes on to the content checks.
    assert outcome.merged == [] and [t.tail for t in outcome.accepted] == ["Second World War"]
    assert [reason for _, reason in duplicate.rejected] == ["duplicate"]
    assert sum("embedding adapter failed" in r.message for r in caplog.records) == 1


def test_curate_empty(adapters, config):
    graph = _history_graph()
    outcome = curate(graph, graph.seed_id, [], adapters, config)
    assert (outcome.accepted, outcome.merged, outcome.rejected) == ([], [], [])


def test_curate_unknown_parent(adapters, config):
    graph = _history_graph()
    with pytest.raises(GraphError):
        curate(graph, "ghost", [], adapters, config)


def test_curate_duplicate_readds_edge(adapters, config):
    graph = _history_graph()
    edges_before = len(graph.edges)
    triple = Triple("World History", "remembers", "World War II")
    outcome = curate(graph, graph.seed_id, [triple], adapters, config)
    assert outcome.rejected == [(triple, "duplicate")]
    # relation re-attributed to the existing node, no new node
    assert len(graph.nodes) == 2
    assert len(graph.edges) == edges_before + 1


def test_curate_head_rule(adapters, config):
    graph = _history_graph()
    candidates = [
        Triple("World History", "includes", "Cold War"),
        Triple("Cold War", "includes", "Berlin Blockade"),  # head accepted just above
        Triple("Atlantis", "includes", "Lost Fleet"),  # head names nothing known
        Triple("Cold War", "follows", "World War II"),  # pending head: no node for the edge yet
    ]
    edges_before = set(graph.edges)
    outcome = curate(graph, graph.seed_id, candidates, adapters, config)
    assert outcome.accepted == candidates[:2]
    assert outcome.rejected == [(candidates[2], "unknown_head"), (candidates[3], "duplicate")]
    assert graph.edges == edges_before
    add_curated(graph, graph.seed_id, outcome.accepted)
    assert Edge("cold war", "includes", "berlin blockade") in graph.edges
    assert "lost fleet" not in graph.nodes


def test_curate_alias_merges_without_relation_loss(adapters, config):
    graph = _history_graph()
    nodes_before = len(graph.nodes)
    edges_before = len(graph.edges)
    triple = Triple("World History", "commemorates", "Second World War")
    outcome = curate(graph, graph.seed_id, [triple], adapters, config)
    assert outcome.merged == [(triple, "world war ii")]
    assert outcome.rejected == []
    assert len(graph.nodes) == nodes_before  # no new node
    # zero relation loss: same edge count a fresh node would have produced
    assert len(graph.edges) == edges_before + 1
    merged_edge = [e for e in graph.edges if e.relation == "commemorates"]
    assert merged_edge and merged_edge[0].tail == "world war ii"


def test_curate_thirteen_candidate_fixture(adapters, config):
    # One planted near-alias among 13 candidates, no filter failures:
    # 1 merged, 12 accepted (echoes the curator's documented prune scale).
    graph = _history_graph()
    tails = [f"Battle {i}" for i in range(12)] + ["Second World War"]
    candidates = [Triple("World History", "includes", t) for t in tails]
    outcome = curate(graph, graph.seed_id, candidates, adapters, config)
    assert len(outcome.merged) == 1
    assert len(outcome.accepted) == 12
    assert outcome.rejected == []


def test_curate_partition_and_batch_duplicates(adapters, config):
    graph = _history_graph()
    candidates = [
        Triple("World History", "includes", "Cold War"),
        Triple("World History", "includes", "cold war"),  # in-batch duplicate
        Triple("World History", "mentions", "Implausible Claim"),  # nli_fail
        Triple("World History", "cites", "forbidden test term"),  # policy_fail
    ]
    outcome = curate(graph, graph.seed_id, candidates, adapters, config)
    assert len(outcome.accepted) + len(outcome.merged) + len(outcome.rejected) == len(candidates)
    reasons = sorted(reason for _, reason in outcome.rejected)
    assert reasons == ["duplicate", "nli_fail", "policy_fail"]


def test_curate_permutation_invariant_surviving_names(adapters, config):
    base = [
        Triple("World History", "includes", "Cold War"),
        Triple("World History", "includes", "cold war"),
        Triple("World History", "includes", "Space Race"),
        Triple("World History", "commemorates", "Second World War"),
        Triple("World History", "mentions", "Implausible Claim"),
    ]
    from knight.graph import add_curated

    rng = random.Random(5)
    reference: set[str] | None = None
    for _ in range(12):
        candidates = list(base)
        rng.shuffle(candidates)
        graph = _history_graph()
        outcome = curate(graph, graph.seed_id, candidates, adapters, config)
        add_curated(graph, graph.seed_id, outcome.accepted)
        surviving = {n.normalized_name for n in graph.nodes.values()}
        if reference is None:
            reference = surviving
        assert surviving == reference


def test_curate_deterministic(adapters, config):
    graph_a = _history_graph()
    graph_b = _history_graph()
    candidates = [
        Triple("World History", "includes", "Cold War"),
        Triple("World History", "commemorates", "Second World War"),
    ]
    first = curate(graph_a, graph_a.seed_id, candidates, adapters, config)
    second = curate(graph_b, graph_b.seed_id, candidates, adapters, config)
    assert first.accepted == second.accepted
    assert first.merged == second.merged
    assert first.rejected == second.rejected


class _CountingFailingEmbedding:
    def __init__(self):
        self.calls = 0

    def cosine(self, a, b):
        self.calls += 1
        raise AdapterError("endpoint down")


class _NeverAlias:
    def cosine(self, a, b):
        return 0.0


def _build_with_embedding(world, embedding, monkeypatch):
    """Biology at ``d_max`` 2 with ``embedding``; returns the snapshot, the
    rejects and how many ``curate`` calls the build made."""
    curate_calls = []

    def counting_curate(*args, **kwargs):
        curate_calls.append(args[1])
        return curate(*args, **kwargs)

    monkeypatch.setattr(builder_mod, "curate", counting_curate)
    config = PipelineConfig(rng_seed=7, d_max=2).validate()
    suite = dataclasses.replace(AdapterSuite.fixture_suite(world, rng_seed=7), embedding=embedding)
    rejects: list = []
    graph, report = builder_mod.build_kg(
        Topic("Biology"), config, ChatGateway(MockChatBackend(world, rng_seed=7)),
        FixtureWikiSource(world), suite, rejects=rejects,
    )
    return snapshot_document(graph, "Biology", report=report), rejects, len(curate_calls)


def test_embedding_outage_costs_one_call_and_warning_per_curate(world, caplog, monkeypatch):
    expected, expected_rejects, _ = _build_with_embedding(world, _NeverAlias(), monkeypatch)
    failing = _CountingFailingEmbedding()
    with caplog.at_level("WARNING"):
        doc, rejects, curate_calls = _build_with_embedding(world, failing, monkeypatch)
    warnings = [r for r in caplog.records if "embedding adapter failed" in r.message]
    # The outage changes no outcome: nothing merges, as with an embedding
    # that never clears the threshold.
    assert doc == expected
    assert [r.to_dict() for r in rejects] == [r.to_dict() for r in expected_rejects]
    # One failed call and one warning per curate call that scanned for an
    # alias (5 here); without the per-call memory this build made 63 of each.
    assert 1 <= failing.calls <= curate_calls
    assert len(warnings) == failing.calls


def test_curate_stops_calling_a_failed_embedding(adapters, config, caplog):
    graph = KnowledgeGraph("Biology")
    add_curated(graph, graph.seed_id, [Triple("Biology", "includes", n) for n in ("Genetics", "Ecology")])
    failing = _CountingFailingEmbedding()
    suite = dataclasses.replace(adapters, embedding=failing)
    candidates = [Triple("Biology", "studies", name) for name in ("Cells", "Ecosystems", "Life")]
    with caplog.at_level("WARNING"):
        outcome = curate(graph, graph.seed_id, candidates, suite, config)
    assert failing.calls == 1
    assert sum("embedding adapter failed" in r.message for r in caplog.records) == 1
    assert outcome.merged == []
    # The next call tries the embedding again.
    curate(graph, graph.seed_id, candidates[:1], suite, config)
    assert failing.calls == 2

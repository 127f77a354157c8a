from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knight.errors import GraphError
from knight.graph import (
    Edge,
    KnowledgeGraph,
    PathSample,
    Topic,
    Triple,
    add_curated,
    enumerate_paths,
    normalize_name,
)

from conftest import make_chain


# -- normalize_name -----------------------------------------------------------


def test_normalize_case_and_whitespace():
    assert normalize_name("  World War II ") == "world war ii"


def test_normalize_plural_stripped():
    assert normalize_name("cells") == "cell"


def test_normalize_leading_article():
    # Oracle: apply the stated rule by hand - lowercase, collapse, drop the
    # article, no plural strip ("empire" has no trailing s).
    assert normalize_name("The Ottoman Empire") == "ottoman empire"


def test_normalize_empty_and_short_plurals():
    assert normalize_name("") == ""
    assert normalize_name("   ") == ""
    assert normalize_name("gas") == "gas"  # singular "ga" too short to strip
    assert normalize_name("as") == "as"


def test_normalize_article_only_single_word_kept():
    assert normalize_name("The") == "the"


def test_normalize_fixed_point_on_former_counterexamples():
    # Each of these used to change again on a second pass.
    assert normalize_name("000SS") == "000ss"  # "ss" ending is not a plural
    assert normalize_name("class") == "class"
    assert normalize_name("The the atoms") == "atom"  # every leading article goes
    assert normalize_name("ab s") == "ab s"  # a lone "s" word is not a plural suffix
    for raw in ("000SS", "The the atoms", "ab s"):
        once = normalize_name(raw)
        assert normalize_name(once) == once


@given(st.text(max_size=60))
def test_normalize_idempotent(raw):
    once = normalize_name(raw)
    assert normalize_name(once) == once


# -- Topic / Triple -----------------------------------------------------------


def test_topic_requires_name():
    with pytest.raises(ValueError):
        Topic("   ")
    assert Topic(" Biology ").name == "Biology"


def test_triple_field_validation():
    with pytest.raises(ValueError):
        Triple(head="a", relation="Bad Relation", tail="b")
    with pytest.raises(ValueError):
        Triple(head="", relation="rel", tail="b")
    assert Triple("a", "born_in", "b").verbalize() == "a born in b."


# -- add_curated --------------------------------------------------------------


def test_add_curated_empty_noop():
    graph = KnowledgeGraph("Hafez")
    before = (dict(graph.nodes), set(graph.edges))
    add_curated(graph, graph.seed_id, [])
    assert (dict(graph.nodes), set(graph.edges)) == before


def test_add_curated_seed_child(hafez_triple):
    graph = KnowledgeGraph("Hafez")
    add_curated(graph, graph.seed_id, [hafez_triple])
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1
    child = graph.nodes.get(normalize_name("Shiraz"))
    assert child is not None and child.depth == 1


def test_add_curated_same_child_two_parents():
    # Oracle: set-union semantics on normalized names - one node, two edges.
    graph = KnowledgeGraph("seed")
    add_curated(graph, graph.seed_id, [Triple("seed", "links_to", "Alpha")])
    add_curated(graph, graph.seed_id, [Triple("seed", "links_to", "Beta")])
    add_curated(graph, "alpha", [Triple("Alpha", "points_at", "Gamma")])
    add_curated(graph, "beta", [Triple("Beta", "points_at", "Gamma")])
    assert len(graph.nodes) == 4
    gammas = [e for e in graph.edges if e.tail == "gamma"]
    assert len(gammas) == 2
    assert graph.nodes[normalize_name("Gamma")].depth == 2  # first-add depth retained


def test_add_curated_duplicate_names_idempotent():
    graph = KnowledgeGraph("seed")
    add_curated(graph, graph.seed_id, [Triple("seed", "has", "Cells")])
    add_curated(graph, graph.seed_id, [Triple("seed", "studies", "cell")])
    assert len(graph.nodes) == 2  # "Cells" and "cell" share a normalized name
    assert len(graph.edges) == 2


def test_add_curated_unknown_parent():
    graph = KnowledgeGraph("seed")
    with pytest.raises(GraphError):
        add_curated(graph, "ghost", [Triple("ghost", "has", "x")])


def test_add_curated_unresolvable_head():
    graph = KnowledgeGraph("seed")
    with pytest.raises(GraphError):
        add_curated(graph, graph.seed_id, [Triple("stranger", "has", "x")])


def test_uniqueness_invariant_after_adds():
    rng = random.Random(3)
    graph = KnowledgeGraph("seed")
    names = ["Alpha", "alpha", "The Alpha", "Beta", "betas", "Gamma"]
    for _ in range(40):
        tail = rng.choice(names)
        add_curated(graph, graph.seed_id, [Triple("seed", "links_to", tail)])
        normalized = {n.normalized_name for n in graph.nodes.values()}
        assert len(normalized) == len(graph.nodes)
    graph.check_invariants()


# -- enumerate_paths ----------------------------------------------------------


def _random_graph(rng: random.Random, n_nodes: int, n_edges: int) -> KnowledgeGraph:
    graph = KnowledgeGraph("n0")
    for i in range(1, n_nodes):
        graph.add_node(f"n{i}", depth=1)
    ids = sorted(graph.nodes)
    for _ in range(n_edges):
        head, tail = rng.choice(ids), rng.choice(ids)
        if head != tail:
            graph.add_edge(head, rng.choice(["r1", "r2"]), tail)
    return graph


def _dfs_oracle(graph: KnowledgeGraph, start: str, d: int) -> list[tuple[tuple, tuple]]:
    """Exhaustive recursive enumeration, independent of the implementation."""
    adjacency: dict[str, list[tuple[str, str]]] = {nid: [] for nid in graph.nodes}
    for edge in graph.edges:
        adjacency[edge.head].append((edge.tail, edge.relation))
    results: list[tuple[tuple, tuple]] = []

    def recurse(nodes, relations):
        if len(relations) == d:
            results.append((tuple(nodes), tuple(relations)))
            return
        for tail, relation in adjacency[nodes[-1]]:
            if tail not in nodes:
                recurse(nodes + [tail], relations + [relation])

    recurse([start], [])
    return sorted(results)


def test_enumerate_paths_isolated():
    graph = KnowledgeGraph("v0")
    assert enumerate_paths(graph, graph.seed_id, 1) == []


def test_enumerate_paths_chain():
    graph = make_chain("a", "b", "c")
    paths = enumerate_paths(graph, "a", 2)
    assert len(paths) == 1
    assert paths[0].node_ids == ["a", "b", "c"]
    assert paths[0].relations == ["links_to", "links_to"]


def test_enumerate_paths_matches_dfs_oracle():
    rng = random.Random(23)
    for _ in range(60):
        graph = _random_graph(rng, rng.randint(3, 12), rng.randint(3, 30))
        for d in (1, 2, 3):
            got = [(tuple(p.node_ids), tuple(p.relations)) for p in enumerate_paths(graph, "n0", d)]
            assert got == _dfs_oracle(graph, "n0", d)


def test_enumerate_paths_simple_and_flippable():
    rng = random.Random(29)
    graph = _random_graph(rng, 8, 20)
    for path in enumerate_paths(graph, "n0", 3):
        assert len(set(path.node_ids)) == len(path.node_ids)
        hops = zip(path.node_ids, path.relations, path.node_ids[1:])
        assert all(Edge(head, relation, tail) in graph.edges for head, relation, tail in hops)
        reverse = PathSample(path.node_ids, path.relations, "reverse")
        assert (reverse.node_ids, reverse.relations) == (path.node_ids, path.relations)


def test_path_sample_shape_checks():
    with pytest.raises(GraphError):
        PathSample(["a", "b"], [])
    with pytest.raises(GraphError):
        PathSample(["a", "b"], ["rel"], orientation="sideways")


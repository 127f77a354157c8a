from __future__ import annotations

import random

import pytest

from knight.config import PipelineConfig
from knight.errors import GenerationRejected, GraphError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import KnowledgeGraph, PathSample
from knight.prompts import (
    PathContext, number_passages, parse_citation, parse_mcq_output, path_source, read_passages,
    read_path_context,
)
from knight.qgen import (
    McqItem,
    generate_mcq,
    mcq_item,
    path_repr,
    sample_paths,
    verbalize,
)

from conftest import make_chain


def _bio_l1_graph(world) -> KnowledgeGraph:
    graph = KnowledgeGraph("Medicine & Biology")
    seed = graph.nodes[graph.seed_id]
    seed.gloss = "1. Definition and Scope - Medicine & Biology: a combined overview."
    child = graph.add_node("Pharmacology", depth=1)
    child.gloss = "1. Definition and Scope - Pharmacology: the study of drug effects."
    graph.add_edge(seed.id, "includes", child.id)
    return graph


def _ottoman_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph("Ottoman Empire")
    names = ["World War I", "Central Powers", "Allied Powers"]
    relations = ["entered", "on_the_side_of", "opposed"]
    parent = graph.nodes[graph.seed_id]
    for name, relation in zip(names, relations):
        child = graph.add_node(name, depth=parent.depth + 1)
        graph.add_edge(parent.id, relation, child.id)
        parent = child
    return graph


# -- verbalize ----------------------------------------------------------------


def test_verbalize_one_hop_names_nodes_and_relation(world):
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"], ["includes"])
    context = verbalize(path, graph)
    assert "Medicine & Biology" in context
    assert "Pharmacology" in context
    assert "includes" in context
    assert 'Start Node: "Medicine & Biology"' in context
    assert 'End Node: "Pharmacology"' in context


def test_verbalize_three_hop_order(world):
    graph = _ottoman_graph()
    path = PathSample(
        ["ottoman empire", "world war i", "central power", "allied power"],
        ["entered", "on_the_side_of", "opposed"],
    )
    context = verbalize(path, graph)
    names = ["Ottoman Empire", "World War I", "Central Powers", "Allied Powers"]
    positions = [context.index(n) for n in names]
    assert positions == sorted(positions)


def test_verbalize_missing_gloss_lists_names(world, caplog):
    graph = make_chain("Alpha", "Beta")
    path = PathSample(["alpha", "beta"], ["links_to"])
    with caplog.at_level("WARNING"):
        context = verbalize(path, graph)
    assert "- Alpha" in context and "- Beta" in context
    assert any("no gloss" in r.message for r in caplog.records)


def test_verbalize_round_trips_through_the_reader():
    """``read_path_context`` gives back each node's excerpt line and the
    start and end descriptions, whatever quotes, newlines or colons they
    hold; a node with no gloss has a name-only line and its name as its
    description."""
    graph = make_chain("Alpha", "Beta", "Gamma: the sequel")
    alpha, beta, gamma = sorted(graph.nodes.values(), key=lambda node: node.depth)
    alpha.gloss = (
        '1. Scope - Alpha: "quoted" start.\n2. More - a "quote" and\n\nthen a blank line."'
    )
    gamma.gloss = 'Gamma: said "Node: Beta"\nEnd Node: "Alpha"'
    for ids, relations in (
        ([alpha.id, beta.id, gamma.id], ["links_to", "links_to"]),
        ([alpha.id, beta.id], ["links_to"]),
    ):
        path = PathSample(ids, relations)
        source = verbalize(path, graph)
        context = read_path_context(source)
        lines = {
            "Alpha": '- Alpha: 1. Scope - Alpha: "quoted" start.',
            "Beta": "- Beta",
            "Gamma: the sequel": '- Gamma: the sequel: Gamma: said "Node: Beta"',
        }
        end = graph.nodes[ids[-1]]
        assert context == PathContext(
            path_repr(path, graph),
            {name: lines[name] for name in (graph.nodes[i].name for i in ids)},
            {"Alpha": alpha.gloss, end.name: end.gloss or end.name},
        )
        assert path_source(context.path, context.lines.get, context.descriptions.get) == source


@pytest.mark.parametrize(
    "source",
    [
        f'Path: A --[r]--> B\n{lines}Start Node: "A"\nDescription: "a"\n'
        f'End Node: "B"\nDescription: "b{end}'
        for lines, end in (
            ("- A: a\n- B: b\nNote: edited\n", '"'),  # a line added
            ("- A: a\n", '"'),  # a line dropped
            ("- A: a\n- B: b\n", ""),  # the last quote lost
            ("- A: a\n- C: b\n", '"'),  # an excerpt line that names another node
        )
    ]
    + [
        "Path: a --[rel]--> b",
        "Evidence passages:\nSome text.",
        "No source information provided.",
    ],
)
def test_the_reader_rejects_what_verbalize_does_not_write(source):
    assert read_path_context(source) is None


def test_path_repr_format(world):
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"], ["includes"])
    assert path_repr(path, graph) == "Medicine & Biology --[includes]--> Pharmacology"


# -- parse_mcq_output ---------------------------------------------------------

CANONICAL = (
    "Question: Which field studies drug effects?\n"
    "A) Toxicology\n"
    "B) Microbiology\n"
    "C) Pharmacology\n"
    "D) Immunology\n"
    "Correct Answer: C"
)


def test_parse_canonical_block():
    question, options, key = parse_mcq_output(CANONICAL)
    assert question == "Which field studies drug effects?"
    assert options == {
        "A": "Toxicology",
        "B": "Microbiology",
        "C": "Pharmacology",
        "D": "Immunology",
    }
    assert key == "C"


def test_parse_with_preamble_and_postscript():
    text = "Sure, here is your item:\n\n" + CANONICAL + "\n\nHope that helps!"
    question, options, key = parse_mcq_output(text)
    assert key == "C" and len(options) == 4


# What an item carries besides the parsed question, options and key.
DIRECT_FIELDS = dict(
    id="x", topic="t", level=1, orientation="forward", path=None, source_context=""
)


def test_parse_three_options_rejected():
    # The parse keeps the lines it found; the item's contract rejects them.
    text = "Question: q?\nA) one\nB) two\nC) three\nCorrect Answer: A"
    assert sorted(parse_mcq_output(text)[1]) == ["A", "B", "C"]
    with pytest.raises(GenerationRejected, match="four options"):
        mcq_item(text, **DIRECT_FIELDS)


def test_parse_duplicate_letter_rejected():
    text = "Question: q?\nA) one\nA) dup\nB) two\nC) three\nD) four\nCorrect Answer: A"
    with pytest.raises(GenerationRejected):
        parse_mcq_output(text)


def test_parse_bad_key_rejected():
    text = "Question: q?\nA) one\nB) two\nC) three\nD) four\nCorrect Answer: E"
    with pytest.raises(GenerationRejected, match="has no option"):
        mcq_item(text, **DIRECT_FIELDS)


def test_item_contract_breaks_are_rejections():
    text = "Question: q?\nA) one\nB) two\nC) three\nD) four\nCorrect Answer: B"
    assert mcq_item(text, **DIRECT_FIELDS).answer_key == "B"
    with pytest.raises(GenerationRejected, match="orientation"):
        mcq_item(text, **{**DIRECT_FIELDS, "orientation": "sideways"})


def test_parse_missing_question_rejected():
    text = "A) one\nB) two\nC) three\nD) four\nCorrect Answer: A"
    with pytest.raises(GenerationRejected):
        parse_mcq_output(text)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("Question:   \nA)  \nB) Beta\nC) Gamma\nD) Delta\nCorrect Answer: B",
         "no Question line"),
        ("Question: q?\nA) \t\nB) Beta\nC) Gamma\nD) Delta\nCorrect Answer: B",
         "four options"),
    ],
    ids=["blank-question", "blank-option"],
)
def test_blank_question_or_option_is_rejected(text, reason):
    with pytest.raises(GenerationRejected, match=reason):
        mcq_item(text, **DIRECT_FIELDS)


BLOCK = "Question: q?\nA) Alpha\nB) Beta\nC) Gamma\nD) Delta\nCorrect Answer: B"


@pytest.mark.parametrize(
    "line, cited",
    [
        ("Evidence: [2]", 2),
        ("Evidence: [3]", 3),
        ("evidence:  [ 1 ].", 1),
        ("Evidence: 2", 2),
        (None, None),
        ("Evidence: [0]", None),
        ("Evidence: [4]", None),
        ("Evidence: [two]", None),
        ("Evidence: [1], [2]", None),
        ("Evidence:", None),
    ],
    ids=["valid", "last", "loose", "bare", "missing", "zero", "out-of-range",
         "non-numeric", "two-passages", "empty"],
)
def test_parse_citation_reads_one_passage_in_range(line, cited):
    block = BLOCK if line is None else f"{BLOCK}\n{line}"
    assert parse_citation(block, 3) == cited
    assert parse_mcq_output(block) == parse_mcq_output(BLOCK)


@pytest.mark.parametrize(
    "passages",
    [["one"], ["first\n\nstill first", "second [3] ", ""], ["a\n\n[9] b", "c"]],
    ids=["one", "blank-lines", "marker-like-text"],
)
def test_numbered_passages_read_back_without_their_numbers(passages):
    """The reader cuts at the next number's marker, never at a passage's
    own blank lines or at a marker out of sequence."""
    text = number_passages(passages)
    assert text.startswith("[1] ")
    assert read_passages(text) == passages


@pytest.mark.parametrize("text", ["", "plain text", "[2] starts late", "[1]no space"])
def test_the_passage_reader_rejects_unnumbered_text(text):
    assert read_passages(text) is None


def test_parse_format_roundtrip():
    # parse(format(item)) is the identity on 100 shuffled canonical blocks.
    rng = random.Random(3)
    letters = "ABCD"
    pool = ["Pharmacology", "Toxicology", "Ecology", "Genetics", "Heredity", "Evolution"]
    for i in range(100):
        options = rng.sample(pool, 4)
        key = letters[rng.randrange(4)]
        stem = f"Question number {i}, which one?"
        block = "Question: " + stem + "\n"
        block += "\n".join(f"{letter}) {text}" for letter, text in zip(letters, options))
        block += f"\nCorrect Answer: {key}"
        question, parsed_options, parsed_key = parse_mcq_output(block)
        assert question == stem
        assert parsed_key == key
        assert [parsed_options[letter] for letter in letters] == options


# -- generate_mcq -------------------------------------------------------------


def test_forward_item_key_is_pharmacology(world, gateway, config):
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"], ["includes"])
    [item] = generate_mcq(gateway, [(path, "t1", 0)], "forward", "Biology", graph, config)
    assert item.options[item.answer_key] == "Pharmacology"
    assert item.level == 1
    assert item.orientation == "forward"


def test_reverse_item_key_contains_start(world, gateway, config):
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"], ["includes"])
    [item] = generate_mcq(gateway, [(path, "t2", 0)], "reverse", "Biology", graph, config)
    assert "medicine & biology" in item.options[item.answer_key].lower()
    assert item.orientation == "reverse"


def test_both_orientations_share_path(world, gateway, config):
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"], ["includes"])
    [fwd] = generate_mcq(gateway, [(path, "f", 0)], "forward", "Biology", graph, config)
    [rev] = generate_mcq(gateway, [(path, "r", 0)], "reverse", "Biology", graph, config)
    assert fwd.path.node_ids == rev.path.node_ids
    assert fwd.question != rev.question


def test_orientation_violation_rejected(world, config):
    bad = (
        "Question: which?\nA) Wrong One\nB) Also Wrong\nC) Still Wrong\nD) Nope\n"
        "Correct Answer: A"
    )
    # The head's node block names Pharmacology too; only the slot names it
    # as an end node, so the override replaces that slot's block alone.
    override = MockOverride("mcq_forward", 'End Node: "Pharmacology"', bad)
    backend = MockChatBackend(world, rng_seed=7, overrides=[override])
    gateway = ChatGateway(backend)
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"], ["includes"])
    [outcome] = generate_mcq(gateway, [(path, "bad", 0)], "forward", "Biology", graph, config)
    assert isinstance(outcome, GenerationRejected)
    assert "does not contain the answer node name" in str(outcome)


@pytest.mark.parametrize(
    "hops, orientation", [(1, "sideways"), (0, "forward")], ids=["bad-orientation", "zero-hops"]
)
def test_generate_mcq_refuses_a_bad_call_before_any_backend_call(
    world, recording_gateway, config, hops, orientation
):
    # McqItem would reject each item of a bad orientation only after the
    # call, and it accepts the level-0 item of a 0-hop path.
    graph = _bio_l1_graph(world)
    path = PathSample([graph.seed_id, "pharmacology"][: hops + 1], ["includes"][:hops])
    with pytest.raises(ValueError):
        generate_mcq(recording_gateway, [(path, "x", 0)], orientation, "Biology", graph, config)
    assert recording_gateway.requests == []


def test_item_invariants():
    with pytest.raises(ValueError):
        McqItem(
            id="x",
            question="q",
            options={"A": "1", "B": "2", "C": "3"},
            answer_key="A",
            topic="t",
            level=1,
            orientation="forward",
            path=None,
            source_context="",
        )
    with pytest.raises(ValueError):
        McqItem(
            id="x",
            question="q",
            options={"A": "1", "B": "2", "C": "3", "D": "4"},
            answer_key="A",
            topic="t",
            level=3,
            orientation="forward",
            path=PathSample(["a", "b"], ["rel"]),
            source_context="",
        )


@pytest.mark.parametrize("path", [None, PathSample(["a", "b"], ["rel"])])
def test_item_rejects_unknown_orientation(path):
    with pytest.raises(ValueError, match="orientation"):
        McqItem(
            id="x",
            question="q",
            options={"A": "1", "B": "2", "C": "3", "D": "4"},
            answer_key="A",
            topic="t",
            level=1,
            orientation="sideways",
            path=path,
            source_context="",
        )


# -- sample_paths -------------------------------------------------------------


def test_sample_paths_single_path_both_orientations():
    graph = make_chain("a", "b", "c")
    pairs = sample_paths(graph, "a", 2, 2, rng_seed=1)
    assert [(p.node_ids, o) for p, o in pairs] == [
        (["a", "b", "c"], "forward"),
        (["a", "b", "c"], "reverse"),
    ]
    assert pairs[0][0] is pairs[1][0]


def test_sample_paths_cycles_when_scarce():
    graph = make_chain("a", "b")
    pairs = sample_paths(graph, "a", 1, 5, rng_seed=1)
    assert len(pairs) == 5
    orientations = [o for _, o in pairs]
    assert orientations[:2] == ["forward", "reverse"]


def test_sample_paths_seeded_subsample_reproducible():
    graph = KnowledgeGraph("hub")
    for i in range(10):
        node = graph.add_node(f"spoke {i}", depth=1)
        graph.add_edge(graph.seed_id, "links_to", node.id)
    first = sample_paths(graph, graph.seed_id, 1, 4, rng_seed=9)
    second = sample_paths(graph, graph.seed_id, 1, 4, rng_seed=9)
    assert [(p.node_ids, o) for p, o in first] == [(p.node_ids, o) for p, o in second]
    assert len(first) == 4
    other_seed = sample_paths(graph, graph.seed_id, 1, 4, rng_seed=10)
    assert [(p.node_ids, o) for p, o in first] != [(p.node_ids, o) for p, o in other_seed]


def test_sample_paths_too_deep_returns_empty():
    graph = make_chain("a", "b", "c")  # depth 2 graph
    assert sample_paths(graph, "a", 3, 5, rng_seed=1) == []


def test_sample_paths_requires_positive_num_q():
    graph = make_chain("a", "b")
    with pytest.raises(ValueError):
        sample_paths(graph, "a", 1, 0, rng_seed=1)


def test_sample_paths_rejects_a_start_outside_the_graph():
    graph = make_chain("a", "b")
    with pytest.raises(GraphError, match="unknown node 'ghost'"):
        sample_paths(graph, "ghost", 1, 4, rng_seed=1)


def test_sample_paths_rejects_a_level_below_one():
    graph = make_chain("a", "b")
    with pytest.raises(GraphError, match="path length must be at least 1"):
        sample_paths(graph, "a", 0, 4, rng_seed=1)

from __future__ import annotations

import itertools
import re

import pytest

from knight.config import PipelineConfig
from knight.errors import ValidationParseError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import KnowledgeGraph, PathSample
from knight.prompts import (
    critic_sources, parse_critic_response, read_path_context, split_items, validate_user,
)
from knight.qgen import McqItem, verbalize
from knight.storage import item_to_record, record_to_item
from knight.validation import (
    ValidationReport,
    keep,
    llm_validate,
    rule_checks,
    token_jaccard,
    validate_item,
)

from conftest import RecordingBackend


def _item(options=None, answer_key="A", topic="Biology", question="Which one?"):
    return McqItem(
        id="t",
        question=question,
        options=options
        or {"A": "New York City", "B": "Los Angeles", "C": "Chicago", "D": "Houston"},
        answer_key=answer_key,
        topic=topic,
        level=1,
        orientation="forward",
        path=PathSample(["a", "b"], ["rel"]),
        source_context="Path: a --[rel]--> b",
    )


# -- rule_checks --------------------------------------------------------------


def test_rules_pass_on_distinct_city_names(config):
    report = rule_checks(_item(), config.delta_option)
    assert report.rule_four_options and report.rule_one_key and report.rule_options_distinct


def test_rules_flag_identical_options(config):
    item = _item(options={"A": "Paris", "B": "Paris", "C": "Rome", "D": "Oslo"})
    report = rule_checks(item, config.delta_option)
    assert report.rule_options_distinct is False
    assert report.rule_four_options is True


def test_rules_near_duplicate_above_delta(config):
    item = _item(
        options={
            "A": "the treaty of versailles",
            "B": "treaty of versailles",
            "C": "Rome",
            "D": "Oslo",
        }
    )
    # Jaccard {the,treaty,of,versailles} vs {treaty,of,versailles} = 3/4
    assert token_jaccard(item.options["A"], item.options["B"]) == pytest.approx(0.75)
    assert rule_checks(item, 0.85).rule_options_distinct is True
    assert rule_checks(item, 0.70).rule_options_distinct is False


def test_rules_abbreviation_pairs_not_caught_lexically(config):
    # Documented limitation: "NYC" shares no tokens with "New York City";
    # only the critic can flag that pair.
    item = _item(options={"A": "New York City", "B": "NYC", "C": "Chicago", "D": "Houston"})
    assert rule_checks(item, config.delta_option).rule_options_distinct is True


def test_rules_on_a_record_with_whitespace_only_options(config):
    """Only a dataset record can carry a blank option: the reply parser
    refuses one. Two blank options are duplicates; one is distinct, but
    an option without a word fails the four-options rule either way."""
    record = item_to_record(_item())
    record["options"] = {"A": " ", "B": "\t", "C": "Chicago", "D": "Houston"}

    def rules():
        report = rule_checks(record_to_item(record), config.delta_option)
        return report.rule_four_options, report.rule_one_key, report.rule_options_distinct

    assert rules() == (False, True, False)
    record["options"]["B"] = "Los Angeles"
    assert rules() == (False, True, True)
    record["options"]["A"] = "Denver"
    assert rules() == (True, True, True)


def test_rules_permutation_invariant(config):
    base = {"A": "one", "B": "two", "C": "three", "D": "four"}
    reports = []
    for perm in itertools.permutations(base.values()):
        options = dict(zip("ABCD", perm))
        reports.append(rule_checks(_item(options=options), config.delta_option))
    assert {r.rule_options_distinct for r in reports} == {True}
    assert {r.rule_four_options for r in reports} == {True}


# -- critic parsing -----------------------------------------------------------

ALL_YES = (
    "Grammar_Fluency: YES\nSingle_Correct_Key: YES\nOption_Uniqueness: YES\n"
    "Answerable_From_Source: YES\nTopic_Relevant: YES"
)


def test_parse_all_yes():
    flags = parse_critic_response(ALL_YES)
    assert all(v is True for v in flags.values())


def test_parse_topic_na():
    text = ALL_YES.replace("Topic_Relevant: YES", "Topic_Relevant: N/A")
    flags = parse_critic_response(text)
    assert flags["Topic_Relevant"] is None


def test_parse_wrong_line_count():
    four_lines = "\n".join(ALL_YES.splitlines()[:4])
    with pytest.raises(ValidationParseError):
        parse_critic_response(four_lines)


def test_parse_na_on_wrong_line():
    text = ALL_YES.replace("Grammar_Fluency: YES", "Grammar_Fluency: N/A")
    with pytest.raises(ValidationParseError):
        parse_critic_response(text)


def test_parse_wrong_label_order():
    lines = ALL_YES.splitlines()
    swapped = "\n".join([lines[1], lines[0]] + lines[2:])
    with pytest.raises(ValidationParseError):
        parse_critic_response(swapped)


def test_llm_validate_topic_na_when_absent(world, config):
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    (flags,) = llm_validate(gateway, [_item(topic="")], config)
    assert flags["Topic_Relevant"] is None
    assert flags["Answerable_From_Source"] is True


def test_llm_validate_block_faults_cost_their_item_alone(world, config):
    no = ALL_YES.replace("Answerable_From_Source: YES", "Answerable_From_Source: NO")
    reply = "\n".join(
        [
            "Here are the verdicts.",
            "Item 1", ALL_YES,
            "Item 2", ALL_YES,
            "Item 2", ALL_YES,  # item 2 twice
            "Item 3", "Grammar_Fluency: YES",  # item 3 does not parse
            # no block for item 4
            "**Item 5:**", no,
            "Item 9", ALL_YES,  # no such item
        ]
    )
    backend = MockChatBackend(world, rng_seed=1, overrides=[MockOverride("validate", "", reply)])
    items = [_item(question=f"Which one, {n}?") for n in range(1, 6)]
    outcomes = llm_validate(ChatGateway(backend), items, config)
    assert outcomes[0] == parse_critic_response(ALL_YES)
    assert all(isinstance(outcomes[i], ValidationParseError) for i in (1, 2, 3))
    assert "2 blocks" in str(outcomes[1]) and "0 blocks" in str(outcomes[3])
    assert outcomes[4]["Answerable_From_Source"] is False


def test_llm_validate_numbers_items_after_the_source_block(world, config):
    backend = RecordingBackend(MockChatBackend(world, rng_seed=1))
    items = [_item(question="First?"), _item(question="Second?", topic="")]
    outcomes = llm_validate(ChatGateway(backend), items, config)
    assert [flags["Topic_Relevant"] for flags in outcomes] == [True, None]
    (request,) = backend.requests
    prompt = request.user_prompt
    assert prompt.startswith("Source Information\nPath: a --[rel]--> b\n\n")
    assert prompt.index("Item 1\nQuestion: \"First?\"") < prompt.index("Item 2\nQuestion: \"Second?\"")
    assert "Item 3" not in prompt


def test_mixed_group_judges_each_slot_on_its_own_source(world, config):
    """A group on several sources writes each once at its head, numbered in
    order of first use, and each slot's first line names its own item's
    source; a NO planted in one slot drops that item alone."""
    sources = ["Path: a --[rel]--> b", "Path: c --[rel]--> d", "Path: e --[rel]--> f"]
    items = [_item(question=f"Which one, {n}?") for n in range(6)]
    for item, source in zip(items, [0, 0, 1, 2, 1, 0]):
        item.source_context = sources[source]
    no = ALL_YES.replace("Answerable_From_Source: YES", "Answerable_From_Source: NO")
    backend = RecordingBackend(
        MockChatBackend(world, rng_seed=1, overrides=[MockOverride("validate", "Which one, 4?", no)])
    )
    reports = validate_item(ChatGateway(backend), items, config)
    assert [r.kept for r in reports] == [True, True, True, True, False, True]
    assert reports[4].answerable_from_source is False and not reports[4].parse_failed
    (request,) = backend.requests
    head, slots = split_items(request.user_prompt)
    assert [request.user_prompt.count(source) for source in sources] == [1, 1, 1]
    assert head.startswith(f"Source Information 1\n{sources[0]}\n\nSource Information 2\n")
    assert len(slots) == len(items)
    for item, (_, slot) in zip(items, slots):
        number = re.match(r"\nSource Information: (\d+)\nQuestion: ", slot).group(1)
        assert f"Source Information {number}\n{item.source_context}\n\n" in head
    # A group on one source keeps the unnumbered layout, and writes the
    # topic its slots share once, after the source.
    assert validate_user(items[:2]).startswith(
        f'Source Information\n{sources[0]}\n\nTopic (optional): "Biology"\n\n'
        "Evaluate each item below based only on the Source Information.\n\n"
        'Item 1\nQuestion: "Which one, 0?"\nA) New York City\nB) Los Angeles\nC) Chicago\n'
        'D) Houston\nCorrect Answer: "A"\n\nItem 2\n'
    )


def _path_items(alpha_gloss="1. Scope - Alpha: the seed.\n2. More - about Alpha."):
    """Six items on three path sources of one small graph, in source order
    0, 0, 1, 2, 1, 0; every path starts at Alpha, and two end at Delta."""
    graph = KnowledgeGraph("Alpha")
    alpha = graph.nodes[graph.seed_id]
    alpha.gloss = alpha_gloss
    beta, gamma = graph.add_node("Beta", depth=1), graph.add_node("Gamma", depth=1)
    delta = graph.add_node("Delta", depth=2)
    beta.gloss = '1. Scope - Beta: a "quoted" child.\n2. More - Beta lines.'
    delta.gloss = "1. Scope - Delta: a leaf.\n\n2. More - after a blank line."
    paths = [
        PathSample([alpha.id, beta.id, delta.id], ["has", "holds"]),
        PathSample([alpha.id, gamma.id, delta.id], ["has", "feeds"]),
        PathSample([alpha.id, gamma.id], ["has"]),
    ]
    items = [_item(question=f"Which one, {n}?") for n in range(6)]
    for item, path in zip(items, [0, 0, 1, 2, 1, 0]):
        item.path = paths[path]
        item.level = paths[path].hops
        item.source_context = verbalize(paths[path], graph)
    return graph, items


def test_group_on_path_sources_writes_each_node_once(world, config):
    """The head opens with a node block holding each start or end
    description once, and each excerpt line once unless a description there
    implies it; each numbered source block holds only its path and end
    names, and rebuilds its source byte for byte."""
    graph, items = _path_items()
    backend = RecordingBackend(MockChatBackend(world, rng_seed=1))
    reports = validate_item(ChatGateway(backend), items, config)
    assert all(r.kept for r in reports)
    (request,) = backend.requests
    head, slots = split_items(request.user_prompt)
    # Alpha's and Delta's lines are their descriptions' first lines; Gamma,
    # with no gloss, is described by its name, which implies no line.
    assert head.startswith(
        'Node Information\n- Beta: 1. Scope - Beta: a "quoted" child.\n- Gamma\nNode: "Alpha"\n'
    )
    lines = request.user_prompt.split("\n")
    assert {
        node.name: sum(line.startswith(f"- {node.name}") for line in lines)
        for node in graph.nodes.values()
    } == {"Alpha": 0, "Beta": 1, "Gamma": 1, "Delta": 0}
    for gloss in (graph.nodes["alpha"].gloss, graph.nodes["delta"].gloss, "Gamma"):
        assert request.user_prompt.count(f'Description: "{gloss}"') == 1
    sources = list(dict.fromkeys(item.source_context for item in items))
    assert critic_sources(head) == {1: sources[0], 2: sources[1], 3: sources[2]}
    assert (
        'Source Information 3\nPath: Alpha --[has]--> Gamma\nStart Node: "Alpha"\nEnd Node: "Gamma"\n'
        in head
    )
    for item, (_, slot) in zip(items, slots):
        number = int(re.match(r"\nSource Information: (\d+)\nQuestion: ", slot).group(1))
        assert critic_sources(head)[number] == item.source_context
    # A node block that lacks a node's excerpt line, or an end node's
    # description, gives None for each source that needs it.
    assert "\n- Beta: " in head and '\nNode: "Gamma"\nDescription: "Gamma"\n' in head
    no_line = re.sub(r"\n- Beta: [^\n]*", "", head)
    assert critic_sources(no_line) == {1: None, 2: sources[1], 3: sources[2]}
    no_description = head.replace('\nNode: "Gamma"\nDescription: "Gamma"', "")
    assert critic_sources(no_description) == {1: sources[0], 2: sources[1], 3: None}
    # A group on one path source keeps the unnumbered layout.
    assert validate_user(items[:2]).startswith(
        f'Source Information\n{sources[0]}\n\nTopic (optional): "Biology"\n\nEvaluate'
    )


def test_node_block_restores_a_line_from_any_description_it_gives(world, config):
    """An intermediate node's excerpt line is left out when another source
    gives that node as an end, and is rebuilt from that description; a first
    gloss line longer than 220 characters is cut the same way on both sides.
    A block without the description gives None for each source needing it."""
    graph = KnowledgeGraph("Alpha")
    alpha = graph.nodes[graph.seed_id]
    alpha.gloss = "  Alpha " + " ".join(f"word{i}" for i in range(60)) + "\n2. More - Alpha."
    beta, gamma = graph.add_node("Beta", depth=1), graph.add_node("Gamma", depth=1)
    delta = graph.add_node("Delta", depth=2)
    beta.gloss = "Beta: an end of one path.\nMore about Beta."
    delta.gloss = "Delta: a leaf."
    paths = [
        PathSample([alpha.id, beta.id], ["has"]),
        PathSample([alpha.id, beta.id, delta.id], ["has", "holds"]),
        PathSample([alpha.id, gamma.id, delta.id], ["has", "feeds"]),
    ]
    items = [_item(question=f"Which one, {n}?") for n in range(3)]
    for item, path in zip(items, paths):
        item.path, item.source_context = path, verbalize(path, graph)
    sources = {n: item.source_context for n, item in enumerate(items, start=1)}
    excerpt = read_path_context(sources[1]).lines["Alpha"]
    assert 200 < len(excerpt) - len("- Alpha: ") <= 220 < len(alpha.gloss.splitlines()[0])
    head = split_items(validate_user(items))[0]
    node_block = head[: head.index("\nSource Information 1\n")]
    assert [line for line in node_block.split("\n") if line.startswith("- ")] == ["- Gamma"]
    assert excerpt not in head and critic_sources(head) == sources
    no_beta = re.sub(r'\nNode: "Beta"\nDescription: "[^"]*"', "", head)
    assert "Beta:" not in no_beta
    assert critic_sources(no_beta) == {1: None, 2: None, 3: sources[3]}


def test_node_block_finds_a_line_after_that_of_a_longer_name(world, config):
    """A node's excerpt line is found past the line of a longer name that
    starts with its own ("Beta cell" before "Beta")."""
    graph = KnowledgeGraph("Alpha")
    alpha = graph.nodes[graph.seed_id]
    beta_cell, beta = graph.add_node("Beta cell", depth=1), graph.add_node("Beta", depth=1)
    delta = graph.add_node("Delta", depth=2)
    for node in (alpha, beta_cell, beta, delta):
        node.gloss = f"1. Scope - {node.name}: a glossed node."
    paths = [
        PathSample([alpha.id, beta_cell.id, delta.id], ["has", "holds"]),
        PathSample([alpha.id, beta.id, delta.id], ["has", "holds"]),
    ]
    items = [_item(question=f"Which one, {n}?") for n in range(2)]
    for item, path in zip(items, paths):
        item.path, item.source_context = path, verbalize(path, graph)
    assert [item.source_context.split("\n")[0] for item in items] == [
        "Path: Alpha --[has]--> Beta cell --[holds]--> Delta",
        "Path: Alpha --[has]--> Beta --[holds]--> Delta",
    ]
    head = split_items(validate_user(items))[0]
    assert head.startswith("Node Information\n- Beta cell: 1. Scope - Beta cell: a glossed node."
                           "\n- Beta: 1. Scope - Beta: a glossed node.\n")
    assert critic_sources(head) == {1: items[0].source_context, 2: items[1].source_context}


@pytest.mark.parametrize(
    "other",
    [
        "Path: a --[rel]--> b",
        "Evidence passages:\nSome text.",
        "path source",  # a gloss that breaks the node block's reader
        "gloss bullet",  # a gloss line the node block's reader takes for Delta's line
    ],
)
def test_group_with_a_source_the_reader_rejects_writes_each_source_whole(world, config, other):
    """One source that cannot be rebuilt from a node block keeps the
    numbered layout for the whole group; a NO planted in one slot drops that
    item alone."""
    glosses = {
        "path source": 'Alpha: "a"\nNode: "Beta"\nDescription: "b"',
        "gloss bullet": "Alpha: a list\n- Delta: not its line",
    }
    if other in glosses:
        _, items = _path_items(alpha_gloss=glosses[other])
    else:
        _, items = _path_items()
        for item in items[2:4]:
            item.source_context = other
    no = ALL_YES.replace("Answerable_From_Source: YES", "Answerable_From_Source: NO")
    override = MockOverride("validate", "Which one, 4?", no)
    backend = RecordingBackend(MockChatBackend(world, rng_seed=1, overrides=[override]))
    reports = validate_item(ChatGateway(backend), items, config)
    assert [r.kept for r in reports] == [True, True, True, True, False, True]
    assert reports[4].answerable_from_source is False and not reports[4].parse_failed
    (request,) = backend.requests
    head, slots = split_items(request.user_prompt)
    assert "Node Information" not in head and critic_sources(head) == {}
    sources = list(dict.fromkeys(item.source_context for item in items))
    assert head.startswith(f"Source Information 1\n{sources[0]}\n\nSource Information 2\n")
    for n, source in enumerate(sources, start=1):
        assert f"Source Information {n}\n{source}\n\n" in head
    for item, (_, slot) in zip(items, slots):
        number = re.match(r"\nSource Information: (\d+)\nQuestion: ", slot).group(1)
        assert f"Source Information {number}\n{item.source_context}\n\n" in head


@pytest.mark.parametrize("topic, verdict", [("Biology", True), ("", None)])
def test_topic_shared_by_a_group_on_several_sources_is_written_once(world, config, topic, verdict):
    _, items = _path_items()
    for item in items:
        item.topic = topic
    backend = RecordingBackend(MockChatBackend(world, rng_seed=1))
    outcomes = llm_validate(ChatGateway(backend), items, config)
    assert [flags["Topic_Relevant"] for flags in outcomes] == [verdict] * len(items)
    (request,) = backend.requests
    head, slots = split_items(request.user_prompt)
    assert request.user_prompt.count("Topic (optional)") == 1
    assert head.endswith(f'Topic (optional): "{topic}"\n\nEvaluate each item below based only on '
                         "the Source Information its first line names and the Node Information "
                         "of its nodes.\n\n")
    # Mixed topics stay in each slot.
    items[0].topic = "Chemistry"
    head, slots = split_items(validate_user(items))
    assert "Topic" not in head
    assert [re.search(r'Topic \(optional\): "(.*)"', s).group(1) for _, s in slots] == [
        "Chemistry", *[topic] * 5
    ]


# -- keep ---------------------------------------------------------------------


def test_keep_truth_table_exhaustive():
    # Oracle: truth-table enumeration over the five criteria and three rules.
    for bits in itertools.product([True, False], repeat=8):
        report = ValidationReport(
            grammar_fluency=bits[0],
            single_correct_key=bits[1],
            option_uniqueness=bits[2],
            answerable_from_source=bits[3],
            topic_relevant=bits[4],
            rule_four_options=bits[5],
            rule_one_key=bits[6],
            rule_options_distinct=bits[7],
        )
        assert keep(report) is all(bits)


def test_keep_not_applicable_topic_excluded():
    report = ValidationReport(
        grammar_fluency=True,
        single_correct_key=True,
        option_uniqueness=True,
        answerable_from_source=True,
        topic_relevant=None,
        rule_four_options=True,
        rule_one_key=True,
        rule_options_distinct=True,
    )
    assert keep(report) is True


def test_keep_monotone():
    base = dict(
        grammar_fluency=True,
        single_correct_key=True,
        option_uniqueness=True,
        answerable_from_source=True,
        topic_relevant=True,
        rule_four_options=True,
        rule_one_key=True,
        rule_options_distinct=True,
    )
    for name in base:
        flipped = dict(base)
        flipped[name] = False
        assert keep(ValidationReport(**flipped)) is False


# -- validate_item ------------------------------------------------------------


def test_validate_item_full_pass(world, config):
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    (report,) = validate_item(gateway, [_item()], config)
    assert report.kept is True


def test_validate_item_rule_failure_skips_critic(world, config):
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    item = _item(options={"A": "same", "B": "same", "C": "x", "D": "y"})
    (report,) = validate_item(gateway, [item], config)
    assert report.kept is False
    assert "validate" not in gateway.ledger.tags_seen()


def test_validate_item_critic_parse_failure_rejects(world, config):
    backend = MockChatBackend(
        world, rng_seed=1, overrides=[MockOverride("validate", "Which one?", "YES YES YES")]
    )
    gateway = ChatGateway(backend)
    (report,) = validate_item(gateway, [_item()], config)
    assert report.parse_failed is True
    assert report.kept is False


def test_validate_item_critic_no_rejects(world, config):
    bad = ALL_YES.replace("Answerable_From_Source: YES", "Answerable_From_Source: NO")
    backend = MockChatBackend(
        world, rng_seed=1, overrides=[MockOverride("validate", "Which one?", bad)]
    )
    gateway = ChatGateway(backend)
    (report,) = validate_item(gateway, [_item()], config)
    assert report.answerable_from_source is False
    assert report.kept is False


def test_override_inside_one_slot_answers_for_that_item_alone(world, config):
    """An override whose substring occurs in one item's slot only replaces
    that item's reply block; the mock still answers the others."""
    bad = ALL_YES.replace("Answerable_From_Source: YES", "Answerable_From_Source: NO")
    backend = MockChatBackend(
        world, rng_seed=1, overrides=[MockOverride("validate", "Which one, 3?", bad)]
    )
    items = [_item(question=f"Which one, {n}?") for n in range(1, 6)]
    reports = validate_item(ChatGateway(backend), items, config)
    assert [r.kept for r in reports] == [True, True, False, True, True]
    assert reports[2].answerable_from_source is False and not reports[2].parse_failed


def test_validate_item_sends_the_group_in_one_call(world, config):
    backend = RecordingBackend(MockChatBackend(world, rng_seed=1))
    broken = _item(question="Broken?", options={"A": "same", "B": "same", "C": "x", "D": "y"})
    items = [_item(question="First?"), broken, _item(question="Third?", topic="")]
    reports = validate_item(ChatGateway(backend), items, config)
    assert [r.kept for r in reports] == [True, False, True]
    assert reports[1].rule_options_distinct is False and reports[1].grammar_fluency is False
    assert reports[2].topic_relevant is None
    (request,) = backend.requests
    assert "Broken?" not in request.user_prompt
    assert '"Third?"' in request.user_prompt.split("Item 2\n")[1]

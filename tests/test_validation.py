from __future__ import annotations

import itertools

import pytest

from knight.config import PipelineConfig
from knight.errors import ValidationParseError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import PathSample
from knight.qgen import McqItem
from knight.validation import (
    ValidationReport,
    keep,
    llm_validate,
    parse_critic_response,
    rule_checks,
    sample_gate,
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


# -- sample_gate --------------------------------------------------------------


def test_sample_gate_extremes():
    assert all(sample_gate(1.0, i, 7) for i in range(50))
    assert not any(sample_gate(0.0, i, 7) for i in range(50))


def test_sample_gate_concentration():
    n = 10000
    hits = sum(sample_gate(0.5, i, 123) for i in range(n))
    assert abs(hits / n - 0.5) < 0.02


def test_sample_gate_deterministic_per_seed():
    draws_a = [sample_gate(0.5, i, 9) for i in range(100)]
    draws_b = [sample_gate(0.5, i, 9) for i in range(100)]
    assert draws_a == draws_b


def test_sample_gate_bad_rate():
    with pytest.raises(ValueError):
        sample_gate(1.5, 0, 1)


# -- validate_item ------------------------------------------------------------


def test_validate_item_full_pass(world, config):
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    (report,) = validate_item(gateway, [_item()], config)
    assert report.kept is True
    assert report.llm_skipped is False


def test_validate_item_rule_failure_skips_critic(world, config):
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    item = _item(options={"A": "same", "B": "same", "C": "x", "D": "y"})
    (report,) = validate_item(gateway, [item], config)
    assert report.kept is False
    assert "validate" not in gateway.ledger.tags_seen()


def test_validate_item_sampled_out_marked(world):
    config = PipelineConfig(validation_sample_rate=0.0).validate()
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    (report,) = validate_item(gateway, [_item()], config)
    assert report.llm_skipped is True
    assert report.kept is True
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
        world, rng_seed=1, overrides=[MockOverride("validate", "Which one?", f"Item 1\n{bad}")]
    )
    gateway = ChatGateway(backend)
    (report,) = validate_item(gateway, [_item()], config)
    assert report.answerable_from_source is False
    assert report.kept is False


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


def test_validate_item_gate_draws_on_the_item_id(world):
    config = PipelineConfig(rng_seed=7, validation_sample_rate=0.5).validate()
    items = [_item(question=f"Which one, {n}?") for n in range(8)]
    for n, item in enumerate(items):
        item.id = f"item-{n}"
    gateway = ChatGateway(MockChatBackend(world, rng_seed=1))
    skipped = [r.llm_skipped for r in validate_item(gateway, items, config)]
    assert skipped == [not sample_gate(0.5, item.id, 7) for item in items]
    assert set(skipped) == {True, False}
    tail = [r.llm_skipped for r in validate_item(gateway, items[3:], config)]
    assert tail == skipped[3:]

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knight import synthesis
from knight.errors import ExtractionError
from knight.gateway import ChatGateway, ChatResponse
from knight.prompts import GLOSS_HEADINGS, count_sections, parse_triples_json, split_items
from knight.synthesis import (
    Triple,
    dedup_triples,
    extract_triples,
    gate_gloss,
    generate_gloss,
    levenshtein,
    normalized_edit_distance,
    overlap,
)

# -- generate_gloss -----------------------------------------------------------


def test_gloss_parametric_fallback(recording_gateway, config):
    [gloss] = generate_gloss(recording_gateway, [("Gleeb Zorp", None, [])], config)
    assert gloss.strip()
    assert "--- Context ---" not in recording_gateway.requests[-1].user_prompt


def test_gloss_contains_all_headings(gateway, config):
    [gloss] = generate_gloss(
        gateway, [("Biology", None, ["Biology is the scientific study of life."])], config
    )
    for heading in GLOSS_HEADINGS:
        assert heading in gloss
    assert count_sections(gloss) == 8


def test_gloss_parent_sentence_in_prompt(recording_gateway, config):
    generate_gloss(
        recording_gateway,
        [("Pharmacology", "Medicine", ["Pharmacology studies drugs."]),
         ("Toxicology", "Chemistry", []), ("Biology", None, [])],
        config,
    )
    prompt = recording_gateway.requests[-1].user_prompt
    # Each slot names its own parent, right after its term; a term without
    # a parent gets no parent line. The head holds only the context rule.
    assert prompt.startswith("Use an item's context, when given, as its primary source.\n\nItem 1\n")
    assert prompt.count("parent term") == 2
    assert ('Explain the term: "Pharmacology". Also describe its relationship to the parent '
            'term "Medicine".\n\n') in prompt
    assert ('Item 2\nExplain the term: "Toxicology". Also describe its relationship to the '
            'parent term "Chemistry".\n\nItem 3') in prompt
    assert prompt.endswith('Item 3\nExplain the term: "Biology".')


def test_gloss_shared_parent_is_named_once_in_the_head(recording_gateway, config):
    generate_gloss(
        recording_gateway,
        [("Pharmacology", "Medicine", ["Pharmacology studies drugs."]),
         ("Toxicology", "Medicine", [])],
        config,
    )
    prompt = recording_gateway.requests[-1].user_prompt
    assert prompt.count("parent term") == 1
    assert prompt.startswith(
        'Also describe each term\'s relationship to the parent term "Medicine".\n'
        "Use an item's context, when given, as its primary source.\n\nItem 1\n"
        'Explain the term: "Pharmacology".\n\n--- Context ---\nPharmacology studies drugs.\n'
        "--- End Context ---\n\nItem 2\n"
    )
    assert prompt.endswith('Item 2\nExplain the term: "Toxicology".')


def test_gloss_context_rule_is_written_once_per_call(recording_gateway, config):
    # One rule in the head however many slots give context, none when no
    # slot does; every slot with passages keeps its own context block.
    terms = [("Pharmacology", None, ["Pharmacology studies drugs."]), ("Biology", None, []),
             ("Toxicology", None, ["Toxicology studies poisons.", "Doses matter."])]
    generate_gloss(recording_gateway, terms, config)
    prompt = recording_gateway.requests[-1].user_prompt
    head, slots = split_items(prompt)
    assert head == "Use an item's context, when given, as its primary source.\n\n"
    assert prompt.count("context") == 1 and prompt.count("--- Context ---") == 2
    assert slots[2][1].endswith(
        "\n--- Context ---\nToxicology studies poisons.\n\nDoses matter.\n--- End Context ---"
    )
    generate_gloss(recording_gateway, [(term, "Life", []) for term, _, _ in terms], config)
    prompt = recording_gateway.requests[-1].user_prompt
    assert "context" not in prompt.lower()
    assert split_items(prompt)[0] == 'Also describe each term\'s relationship to the parent term "Life".\n\n'


def test_gloss_uses_desc_temperature(recording_gateway, config):
    generate_gloss(recording_gateway, [("Biology", None, ["Life science."])], config)
    request = recording_gateway.requests[-1]
    assert request.temperature == config.temp_desc == 0.4
    assert request.task_tag == "gloss"


def test_gloss_prompt_keeps_retrieval_order_on_tied_scores(recording_gateway, config):
    # The passages of a tie, in retrieval order: "#chunk2" before "#chunk10".
    passages = ["Second chunk text.", "Tenth chunk text."]
    generate_gloss(recording_gateway, [("Biology", None, passages)], config)
    prompt = recording_gateway.requests[-1].user_prompt
    assert prompt.index("Second chunk text.") < prompt.index("Tenth chunk text.")


class _Reply:
    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return ChatResponse(self.text, 1, 1)


def test_gloss_block_missing_or_empty_costs_its_term_only(config):
    gateway = ChatGateway(_Reply("Item 1\n1. Definition and Scope - A: a.\nItem 2\n   \n"))
    terms = [("A", None, []), ("B", "A", []), ("C", "A", [])]
    first, second, third = generate_gloss(gateway, terms, config)
    assert first == "1. Definition and Scope - A: a."
    assert isinstance(second, ExtractionError) and "empty gloss" in str(second)
    assert isinstance(third, ExtractionError) and "0 blocks" in str(third)


# -- overlap ------------------------------------------------------------------


def test_overlap_identical():
    assert overlap("mitochondria make energy", "mitochondria make energy") == 1.0


def test_overlap_disjoint():
    assert overlap("alpha beta gamma", "delta epsilon zeta") == 0.0


def test_overlap_half():
    # Oracle: set arithmetic by hand - gloss tokens {mitochondria, energy,
    # cell, organelle}, passage holds two of the four.
    gloss = "mitochondria energy cell organelle"
    passage = "the mitochondria of a cell"
    assert overlap(passage, gloss) == 0.5


def test_overlap_empty_gloss():
    assert overlap("anything", "") == 0.0
    assert overlap("anything", "the of and") == 0.0  # stopwords only


# -- gate_gloss ---------------------------------------------------------------


def test_gate_boundary():
    gloss_tokens = [f"tok{i}" for i in range(100)]
    gloss = " ".join(gloss_tokens)
    passage_36 = " ".join(gloss_tokens[:36])
    passage_34 = " ".join(gloss_tokens[:34])
    assert gate_gloss(gloss, [passage_36], eta=0.35) is True  # 0.36 >= 0.35
    assert gate_gloss(gloss, [passage_34], eta=0.35) is False  # 0.34 < 0.35
    assert gate_gloss(gloss, [passage_34]) is False  # the default is the config's 0.35


def test_gate_parametric_bypass():
    assert gate_gloss("anything", [], eta=0.35) is True


def test_gate_monotone_in_eta():
    gloss_tokens = [f"tok{i}" for i in range(100)]
    gloss = " ".join(gloss_tokens)
    passage = " ".join(gloss_tokens[:50])
    for eta in (0.5, 0.4, 0.3, 0.1):
        assert gate_gloss(gloss, [passage], eta=eta) is True
    assert gate_gloss(gloss, [passage], eta=0.51) is False


# -- extract_triples ----------------------------------------------------------


def test_parse_triples_empty_list():
    assert parse_triples_json('{"triplets":[]}') == []


def test_parse_triples_drops_incomplete_entries():
    text = (
        '{"triplets":['
        '{"head":"a","relation":"has","tail":"b"},'
        '{"head":"c","relation":"knows","tail":"d"},'
        '{"head":"e","relation":"misses","tail":""},'
        '"g has h",["i","knows","j"],null'
        "]}"
    )
    triples = parse_triples_json(text)
    assert triples == [Triple("a", "has", "b"), Triple("c", "knows", "d")]


def test_parse_triples_relation_normalized():
    text = '{"triplets":[{"head":"a","relation":"Notable Relation","tail":"b"}]}'
    assert parse_triples_json(text)[0].relation == "notable_relation"


def test_parse_triples_tolerates_surrounding_prose():
    text = 'Sure! Here is the JSON:\n{"triplets":[{"head":"a","relation":"r","tail":"b"}]}\nDone.'
    assert parse_triples_json(text) == [Triple("a", "r", "b")]


def test_parse_triples_no_json():
    with pytest.raises(ExtractionError):
        parse_triples_json("no structured payload here")
    with pytest.raises(ExtractionError):
        parse_triples_json('{"other": 1}')


def test_parse_triples_skips_braces_in_prose_before_the_payload():
    text = 'Note {see below}: {"triplets":[{"head":"a","relation":"r","tail":"b"}]}'
    assert parse_triples_json(text) == [Triple("a", "r", "b")]


def test_parse_triples_truncated_payload_is_an_extraction_error():
    with pytest.raises(ExtractionError):
        parse_triples_json('{"triplets":[{"head":"a","relation":"r","tail":"b"},{"head":"c","rel')


def test_extract_triples_via_mock(gateway, config):
    glosses = [
        "1. Definition and Scope - Hafez: a Persian poet born in Shiraz.",
        "no structured payload",
    ]
    hafez, other = extract_triples(gateway, glosses, config)
    assert Triple("Hafez", "born_in", "Shiraz") in hafez
    assert other == []


def test_extract_triples_budget_is_per_gloss(recording_gateway, config):
    glosses = [f"1. Definition and Scope - Hafez: poet {i}." for i in range(3)]
    extract_triples(recording_gateway, glosses, config)
    [request] = recording_gateway.requests
    assert request.task_tag == "triples"
    assert request.max_tokens == config.max_tokens_triples * 3


def test_extract_triples_bad_block_costs_its_gloss_only(config):
    reply = 'Item 1\n{"triplets": [{"head": "a", "relation": "r", "tail": "b"}]}\nItem 2\nnone'
    good, bad = extract_triples(ChatGateway(_Reply(reply)), ["x", "y"], config)
    assert good == [Triple("a", "r", "b")]
    assert isinstance(bad, ExtractionError)


# -- dedup_triples ------------------------------------------------------------


def test_dedup_exact_duplicates():
    t = Triple("ww2", "started_in", "1939")
    assert dedup_triples([t, t, t], 0.15) == [t]


def test_dedup_distant_pair_kept():
    a = Triple("ww2", "started_in", "1939")
    b = Triple("biology", "studies", "life")
    assert dedup_triples([a, b], 0.15) == [a, b]


def test_dedup_near_duplicate_dropped():
    # Oracle: DP edit distance - one insertion over the serialized strings.
    a = Triple("hafez", "born_in", "shiraz")
    b = Triple("hafez", "born_in", "shiraaz")
    distance = normalized_edit_distance(a.key(), b.key())
    assert distance == pytest.approx(1 / 21, abs=1e-9)
    assert dedup_triples([a, b], 0.1) == [a]
    assert dedup_triples([b, a], 0.1) == [b]  # input order wins


def test_dedup_cap_at_float_boundary(monkeypatch):
    # 29 / 100 <= 0.29 holds, though int(0.29 * 100) is 28.
    a = Triple("h", "r", "x" * 96)
    b = Triple("h", "r", "y" * 29 + "x" * 67)
    c = Triple("h", "r", "y" * 30 + "x" * 66)
    assert len(a.key()) == len(b.key()) == len(c.key()) == 100
    caps = []
    monkeypatch.setattr(
        synthesis, "levenshtein", lambda x, y, k=None: caps.append(k) or levenshtein(x, y, k)
    )
    assert normalized_edit_distance(a.key(), b.key(), 0.29) == 0.29
    assert caps == [29]
    assert normalized_edit_distance(a.key(), c.key(), 0.29) > 0.29
    assert dedup_triples([a, b], 0.29) == [a]
    assert dedup_triples([a, c], 0.29) == [a, c]


def test_dedup_rejects_bad_lambda():
    with pytest.raises(ValueError):
        dedup_triples([], 1.5)


@functools.cache
def _naive_distance(a: str, b: str) -> int:
    """Independent oracle: the textbook recursive definition, memoized."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[-1] == b[-1] else 1
    return min(
        _naive_distance(a[:-1], b) + 1,
        _naive_distance(a, b[:-1]) + 1,
        _naive_distance(a[:-1], b[:-1]) + cost,
    )


def test_levenshtein_matches_naive_oracle():
    rng = random.Random(13)
    alphabet = "abcdef|_"

    def word(longest):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))

    for _ in range(300):
        prefix, suffix = word(3), word(3)
        a = prefix + word(12) + suffix
        b = prefix + word(12) + suffix
        distance = _naive_distance(a, b)
        assert levenshtein(a, b) == distance
        # With a cap k the result is exact up to k, and k + 1 above it.
        for cap in range(20):
            assert levenshtein(a, b, cap) == min(distance, cap + 1)


def test_normalized_edit_distance_of_two_empty_names_is_zero():
    assert normalized_edit_distance("", "") == 0.0
    assert normalized_edit_distance("", "", at_most=0.0) == 0.0


def test_dedup_idempotent_and_order_stable():
    rng = random.Random(17)
    words = ["hafez", "hafes", "shiraz", "shiraaz", "iran", "poet"]
    triples = [
        Triple(rng.choice(words), "born_in", rng.choice(words)) for _ in range(30)
    ]
    once = dedup_triples(triples, 0.2)
    assert dedup_triples(once, 0.2) == once
    # order-stable subsequence of the input
    it = iter(triples)
    assert all(any(t is u or t == u for u in it) for t in once)


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["aaa", "aab", "abb", "zzz"]), max_size=8))
def test_dedup_output_is_subset(tails):
    triples = [Triple("h", "r", t) for t in tails]
    kept = dedup_triples(triples, 0.34)
    assert all(t in triples for t in kept)
    assert len(kept) <= len(triples)

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knight import synthesis
from knight.errors import ExtractionError
from knight.prompts import GLOSS_HEADINGS
from knight.retrieval import Passage, RetrievalResult
from knight.synthesis import (
    Gloss,
    Triple,
    dedup_triples,
    extract_triples,
    gate_gloss,
    generate_gloss,
    levenshtein,
    normalized_edit_distance,
    overlap,
    parse_triples_json,
)


def _retrieval(texts, title="Biology"):
    passages = [
        Passage(id=f"{title}#p{i}", text=t, score=0.9 - 0.1 * i)
        for i, t in enumerate(texts)
    ]
    return RetrievalResult(passages=passages, fallback=not passages)


# -- generate_gloss -----------------------------------------------------------


def test_gloss_parametric_fallback(gateway, config):
    gloss = generate_gloss(gateway, "Gleeb Zorp", _retrieval([]), config)
    assert gloss.parametric_fallback is True
    assert gloss.supported_by == []
    assert gloss.mixture == []


def test_gloss_contains_all_headings(gateway, config):
    retrieval = _retrieval(["Biology is the scientific study of life."])
    gloss = generate_gloss(gateway, "Biology", retrieval, config)
    for heading in GLOSS_HEADINGS:
        assert heading in gloss.text
    assert gloss.sections_present == 8
    assert gloss.supported_by == ["Biology#p0"]


def test_gloss_parent_sentence_in_prompt(recording_gateway, config):
    generate_gloss(
        recording_gateway,
        "Pharmacology",
        _retrieval(["Pharmacology studies drugs."]),
        config,
        parent_term="medicine",
    )
    prompt = recording_gateway.requests[-1].user_prompt
    assert 'parent term "medicine"' in prompt


def test_gloss_uses_desc_temperature(recording_gateway, config):
    generate_gloss(recording_gateway, "Biology", _retrieval(["Life science."]), config)
    request = recording_gateway.requests[-1]
    assert request.temperature == config.temp_desc == 0.4
    assert request.task_tag == "gloss"


def test_gloss_prompt_keeps_retrieval_order_on_tied_scores(recording_gateway, config):
    # Sorting by id would put "#chunk10" before "#chunk2".
    passages = [
        Passage(id="Biology#chunk2", text="Second chunk text.", score=0.5),
        Passage(id="Biology#chunk10", text="Tenth chunk text.", score=0.5),
    ]
    gloss = generate_gloss(recording_gateway, "Biology", RetrievalResult(passages), config)
    prompt = recording_gateway.requests[-1].user_prompt
    assert gloss.supported_by == ["Biology#chunk2", "Biology#chunk10"]
    assert prompt.index("Second chunk text.") < prompt.index("Tenth chunk text.")


def test_gloss_invariant():
    with pytest.raises(ValueError):
        Gloss(term="x", text="t", sections_present=0, supported_by=[], parametric_fallback=False)


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


def _gloss_with(tokens: list[str]) -> Gloss:
    return Gloss(
        term="t",
        text=" ".join(tokens),
        sections_present=8,
        supported_by=["p0"],
        parametric_fallback=False,
    )


def test_gate_boundary():
    gloss_tokens = [f"tok{i}" for i in range(100)]
    gloss = _gloss_with(gloss_tokens)
    passage_36 = " ".join(gloss_tokens[:36])
    passage_34 = " ".join(gloss_tokens[:34])
    assert gate_gloss(gloss, [passage_36], eta=0.35) is True  # 0.36 >= 0.35
    assert gate_gloss(gloss, [passage_34], eta=0.35) is False  # 0.34 < 0.35


def test_gate_parametric_bypass():
    gloss = Gloss(term="t", text="anything", sections_present=8,
                  supported_by=[], parametric_fallback=True)
    assert gate_gloss(gloss, [], eta=0.35) is True


def test_gate_monotone_in_eta():
    gloss_tokens = [f"tok{i}" for i in range(100)]
    gloss = _gloss_with(gloss_tokens)
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
        '{"head":"e","relation":"misses","tail":""}'
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


def test_extract_triples_via_mock(gateway, config):
    gloss = Gloss(
        term="Hafez",
        text='1. Definition and Scope - Hafez: a Persian poet born in Shiraz.',
        sections_present=1,
        supported_by=["p0"],
    )
    triples = extract_triples(gateway, gloss, config)
    assert Triple("Hafez", "born_in", "Shiraz") in triples


def test_extract_triples_empty_gloss(gateway, config):
    gloss = Gloss(term="x", text="  ", sections_present=0, supported_by=[], parametric_fallback=True)
    with pytest.raises(ExtractionError):
        extract_triples(gateway, gloss, config)


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

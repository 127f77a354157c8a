"""Round trips through each reply format's writer and reader in ``prompts``:
what a writer lays out, its reader gives back field for field."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knight.errors import ValidationParseError
from knight.graph import Triple
from knight.prompts import (
    CITATION,
    MCQ_LINES,
    OPTION_LETTERS,
    VALIDATE_LABELS,
    mcq_reply,
    parse_citation,
    parse_critic_response,
    parse_mcq_output,
    parse_triples_json,
    triples_reply,
    verdict_lines,
)

# Every character ``str.splitlines`` splits on, so a drawn text stays one line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# Stripped, non-empty, one-line text, as a reply line's field.
text = (
    st.text(st.characters(blacklist_characters=LINE_BREAKS), min_size=1)
    .map(str.strip)
    .filter(bool)
)
# A relation as the reader leaves it, [a-z0-9]+(_[a-z0-9]+)*: it collapses
# repeated underscores.
word = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1)
relation = st.lists(word, min_size=1, max_size=3).map("_".join)


@settings(max_examples=200)
@given(text, st.lists(text, min_size=4, max_size=4), st.sampled_from(OPTION_LETTERS))
def test_mcq_reply_round_trips(question, options, key):
    expected = (question, dict(zip(OPTION_LETTERS, options)), key)
    assert parse_mcq_output(mcq_reply(question, options, key)) == expected


def test_mcq_lines_are_the_writer_applied_to_placeholders():
    assert MCQ_LINES.splitlines() == [
        "Question: [single-sentence question]",
        "A) [option]",
        "B) [option]",
        "C) [option]",
        "D) [option]",
        "Correct Answer: [A, B, C, or D]",
    ]


@given(st.integers(min_value=-3, max_value=30), st.integers(min_value=0, max_value=20))
def test_citation_round_trips_within_the_passage_count(number, count):
    cited = parse_citation(CITATION.format(number), count)
    assert cited == (number if 1 <= number <= count else None)


@given(st.lists(st.sampled_from(["YES", "NO", "N/A"]), min_size=5, max_size=5))
def test_verdict_lines_round_trip_with_n_a_only_last(verdicts):
    block = verdict_lines(verdicts)
    if "N/A" in verdicts[:-1]:
        with pytest.raises(ValidationParseError):
            parse_critic_response(block)
        return
    expected = {"YES": True, "NO": False, "N/A": None}
    assert parse_critic_response(block) == {
        label: expected[verdict] for label, verdict in zip(VALIDATE_LABELS, verdicts)
    }


@given(st.lists(st.tuples(text, relation, text), max_size=5))
def test_triples_reply_round_trips(triples):
    assert parse_triples_json(triples_reply(triples)) == [Triple(*t) for t in triples]


def test_an_empty_triples_reply_stays_on_one_line():
    assert triples_reply([]) == '{"triplets": []}'

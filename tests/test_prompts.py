"""Round trips through each reply format's writer and reader in ``prompts``,
and through each request writer and ``read_field``: what a writer lays out,
its reader gives back field for field. A block field's reader is also
checked against a reference pattern on random marker and newline text."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knight.errors import ValidationParseError
from knight.graph import Node, Triple
from knight.prompts import (
    CITATION,
    MCQ_LINES,
    OPTION_LETTERS,
    VALIDATE_LABELS,
    direct_mcq_user,
    gloss_user,
    mcq_reply,
    parse_citation,
    parse_critic_response,
    parse_mcq_output,
    parse_triples_json,
    path_mcq_user,
    read_field,
    read_passages,
    split_items,
    title_check_user,
    triples_reply,
    validate_user,
    verdict_lines,
)
from knight.qgen import McqItem

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


# The gloss writer's clause after a term: the one text a name may not hold,
# since "T". Also ... "P". reads the same whether T holds it or P is T's parent.
PARENT_CLAUSE = '". Also describe its relationship to the parent term "'
# Text the request writers put around a quoted name.
WRITERS_TEXT = ['"', '".', '". Also describe', 'parent term "', ' about the topic "',
                '" at difficulty level 1 for each', ' overall topic: "', 'Explain the term: "',
                'Also describe each term\'s relationship to the parent term "', 'Term to define: "',
                'Candidate page title: "', 'Start Node: "', 'End Node: "', 'Variation tag: 1',
                'Topic (optional): "']
# A name or topic as a request writer quotes it: no line break, but it may
# hold quotes and the writers' own text, the parent clause apart.
name = (
    st.lists(st.sampled_from(WRITERS_TEXT) | st.text(st.characters(blacklist_characters=LINE_BREAKS)),
             min_size=1, max_size=4)
    .map("".join)
    .filter(lambda t: t and PARENT_CLAUSE not in t)
)
# A passage on one line of its own, which neither reads as an "Item N"
# header nor holds a block marker.
passage = st.text(st.characters(blacklist_characters=LINE_BREAKS)).filter(
    lambda t: "---" not in t and not split_items(t)[1]
)
variant = st.integers(min_value=1, max_value=10_000)


def _slots(prompt):
    head, slots = split_items(prompt)
    return head, [slot for _, slot in slots]


@given(st.lists(st.tuples(name, st.lists(passage, max_size=3)), min_size=1, max_size=4), name)
def test_gloss_fields_round_trip_with_a_shared_parent(terms, parent):
    head, slots = _slots(gloss_user([(term, parent, passages) for term, passages in terms]))
    assert read_field("shared_parent", head) == parent
    for (term, passages), slot in zip(terms, slots, strict=True):
        assert read_field("term", slot) == term
        assert read_field("parent", slot) is None
        assert read_field("context", slot) == ("\n\n".join(passages) if passages else None)


@given(
    st.lists(st.tuples(name, st.none() | name, st.lists(passage, max_size=3)), min_size=2, max_size=4)
    .filter(lambda terms: len({parent for _, parent, _ in terms}) == len(terms))
)
def test_gloss_fields_round_trip_with_a_parent_per_slot(terms):
    head, slots = _slots(gloss_user(terms))
    assert read_field("shared_parent", head) is None
    for (term, parent, passages), slot in zip(terms, slots, strict=True):
        assert read_field("term", slot) == term
        assert read_field("parent", slot) == parent
        assert read_field("context", slot) == ("\n\n".join(passages) if passages else None)


@pytest.mark.parametrize(
    "term, parent",
    [('The "Great" War', 'The "Big" One'), ('A". Also describe B', 'parent term "C".'),
     ('x parent term "y".', 'D". Also describe it'), ('E', 'F' + PARENT_CLAUSE + 'G')],
)
def test_a_quoted_field_reads_up_to_the_quote_that_ends_it(term, parent):
    head, [slot] = _slots(gloss_user([(term, parent, [])]))
    assert (read_field("term", slot), read_field("parent", slot)) == (term, None)
    assert read_field("shared_parent", head) == parent
    _, [slot, _] = _slots(gloss_user([(term, parent, []), ("other", None, [])]))
    assert (read_field("term", slot), read_field("parent", slot)) == (term, parent)


@given(st.lists(st.tuples(name, name, name), min_size=1, max_size=4))
def test_title_check_fields_round_trip(checks):
    for (_, term, title), slot in zip(checks, _slots(title_check_user(checks))[1], strict=True):
        assert read_field("check_term", slot) == term
        assert read_field("check_title", slot) == title


@given(
    st.sampled_from(["forward", "reverse"]),
    name,
    st.lists(st.tuples(name, name, name, variant), min_size=1, max_size=4),
)
def test_path_fields_round_trip(orientation, topic, paths):
    slots = [(path, Node(start, start, 0), Node(end, end, 1), v) for path, start, end, v in paths]
    prompt = path_mcq_user(orientation, topic, slots)
    assert read_field("path_topic", prompt.partition("\n")[0]) == topic
    for (path, start, end, v), slot in zip(paths, _slots(prompt)[1], strict=True):
        assert read_field("path", slot) == path
        assert read_field("start", slot) == start
        assert read_field("end", slot) == end
        assert read_field("variant", slot) == str(v)


@given(
    name,
    st.integers(min_value=0, max_value=100),
    st.lists(passage, max_size=4),
    st.lists(variant, min_size=1, max_size=4),
)
def test_direct_fields_round_trip(topic, level, passages, variants):
    head, slots = _slots(direct_mcq_user(topic, level, passages, variants))
    assert read_field("direct_topic", head) == topic
    assert read_field("level", head) == str(level)
    evidence = read_field("evidence", head)
    assert (read_passages(evidence) if passages else evidence) == (passages or None)
    assert [read_field("variant", slot) for slot in slots] == [str(v) for v in variants]


def _audited(topic):
    options = dict(zip(OPTION_LETTERS, ["one", "two", "three", "four"]))
    return McqItem("m", "Which one?", options, "A", topic, 1, "forward", None, "a source")


@given(st.just("") | name, st.integers(min_value=1, max_value=4))
def test_a_shared_critic_topic_round_trips_from_the_head(topic, count):
    head, slots = _slots(validate_user([_audited(topic)] * count))
    assert read_field("val_topic", head) == topic
    assert [read_field("val_topic", slot) for slot in slots] == [None] * count


@given(st.lists(st.just("") | name, min_size=2, max_size=4, unique=True))
def test_a_critic_topic_per_slot_round_trips_from_its_slot(topics):
    head, slots = _slots(validate_user([_audited(topic) for topic in topics]))
    assert read_field("val_topic", head) is None
    assert [read_field("val_topic", slot) for slot in slots] == topics


BLOCK_MARKERS = {
    "context": ("--- Context ---\n", "\n--- End Context ---"),
    "evidence": ("--- Evidence ---\n", "\n--- End Evidence ---"),
}


@settings(max_examples=500)
@given(
    st.lists(
        st.sampled_from(
            [*(marker for pair in BLOCK_MARKERS.values() for marker in pair),
             "--- Context ---", "--- End Evidence", "\n", "\n\n", "\r", "a", "b c", "---"]
        ),
        max_size=14,
    ).map("".join)
)
def test_a_block_field_runs_from_its_first_opener_to_the_first_closer_after_it(text):
    for name, (opener, closer) in BLOCK_MARKERS.items():
        match = re.search(f"{re.escape(opener)}(.*?){re.escape(closer)}", text, re.DOTALL)
        assert read_field(name, text) == (match.group(1) if match else None)

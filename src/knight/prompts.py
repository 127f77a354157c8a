"""Prompt templates for every LLM-backed stage.

The output-format blocks here are load-bearing: the parsers in
``synthesis``, ``qgen``, and ``validation`` expect exactly these shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .qgen import McqItem

GLOSS_HEADINGS = (
    "Definition and Scope",
    "Domains of Use",
    "Subfields and Disciplines",
    "Key Concepts and Mechanisms",
    "Real-World Applications",
    "Case Studies and Examples",
    "Related and Overlapping Terms",
    "Current Research and Trends",
)

GLOSS_SYSTEM = (
    "You are a subject-matter expert writing structured reference entries. "
    "Explain the term the user supplies, exhaustively and accurately, using "
    "exactly these eight numbered sections in order:\n"
    + "\n".join(f"{i}. {h}" for i, h in enumerate(GLOSS_HEADINGS, start=1))
    + "\nKeep the section headings verbatim and fill each with clear, "
    "well-organized prose a newcomer can follow."
)


def gloss_user(term: str, passages: list[str], parent_term: str | None) -> str:
    parts = [f'Explain the term: "{term}".']
    if passages:
        parts.append(
            "Use the following context as the primary source for your explanation:\n"
            "--- Context ---\n" + "\n\n".join(passages) + "\n--- End Context ---"
        )
    if parent_term:
        parts.append(f'Also describe its relationship to the parent term "{parent_term}".')
    return "\n\n".join(parts)


TITLE_CHECK_SYSTEM = (
    "You decide whether a wiki page title is a suitable definition source for "
    "a term, given its context. Answer Yes only when the title directly "
    "denotes the term and fits the context; if it is ambiguous, tangential, "
    "or unrelated, answer No. Respond with only one word: \"Yes\" or \"No\"."
)


def title_check_user(term: str, candidate_title: str, context_hint: str) -> str:
    return (
        f'Context: information related to "{context_hint}".\n'
        f'Term to define: "{term}".\n'
        f'Candidate page title: "{candidate_title}".\n'
        'Respond with only "Yes" or "No".'
    )


TRIPLES_SYSTEM = (
    "You are an information-extraction specialist. Extract only the most "
    "significant subject-predicate-object facts from the text you receive: "
    "concrete entities, defining characteristics, major relationships and "
    "contributions. Skip pronouns, articles, and generic filler. Write every "
    "relation in lowercase with underscores.\n"
    "Return strictly one JSON object in this shape:\n"
    '{\n  "triplets": [\n    {"head": "entity", "relation": "lowercase_relation", '
    '"tail": "entity"}\n  ]\n}'
)


def triples_user(gloss_text: str) -> str:
    return (
        "Extract subject-predicate-object triplets from the text below.\n"
        "--- Text ---\n" + gloss_text + "\n--- End Text ---"
    )


MCQ_FORMAT_BLOCK = (
    "Output exactly:\n"
    "Question: [single-sentence question]\n"
    "A) [option]\n"
    "B) [option]\n"
    "C) [option]\n"
    "D) [option]\n"
    "Correct Answer: [A, B, C, or D]"
)

MCQ_FORWARD_SYSTEM = (
    "You are a structured question generation system. Given a multi-hop path "
    "from a knowledge graph plus node descriptions, write one multiple-choice "
    "question whose answer is the path's end node. The question must require "
    "reasoning across the hops, and the answer must be implied by the path "
    "and descriptions."
)

MCQ_REVERSE_SYSTEM = (
    "You are a reasoning assistant that writes reverse questions from "
    "knowledge graph paths: the correct answer is the path's start node. "
    "Frame the question from the end node's perspective, reasoning backward "
    "along the hops."
)


def mcq_user(
    orientation: str,
    path_repr: str,
    start_node: str,
    start_desc: str,
    end_node: str,
    end_desc: str,
    topic: str | None,
    variant: int = 0,
) -> str:
    answer_node = end_node if orientation == "forward" else start_node
    parts = []
    if topic:
        parts.append(
            f'IMPORTANT: the question and options must stay on the overall topic: "{topic}".'
        )
    parts.append(
        "Generate for the following:\n"
        f'Path: "{path_repr}"\n'
        f'Start Node: "{start_node}"\n'
        f'Description: "{start_desc}"\n'
        f'End Node: "{end_node}"\n'
        f'Description: "{end_desc}"'
    )
    parts.append(
        "You MUST produce exactly four options (A, B, C, D) with a single "
        f'correct answer key, and the correct option must contain the text "{answer_node}".'
    )
    if variant:
        parts.append(f"Variation tag: {variant} (phrase this item differently from earlier ones).")
    parts.append(MCQ_FORMAT_BLOCK)
    return "\n\n".join(parts)


def direct_mcq_user(topic: str, level: int, passages: list[str], variant: int = 0) -> str:
    """Prompt for the KG-free modes: question from topic (and optional evidence)."""
    parts = [
        f'Write one four-option multiple-choice question about the topic "{topic}" '
        f"at difficulty level {level}."
    ]
    if passages:
        parts.append(
            "Base the question solely on this evidence:\n"
            "--- Evidence ---\n" + "\n\n".join(passages) + "\n--- End Evidence ---"
        )
    if variant:
        parts.append(f"Variation tag: {variant} (cover a different aspect than earlier items).")
    parts.append(MCQ_FORMAT_BLOCK)
    return "\n\n".join(parts)


VALIDATE_LABELS = (
    "Grammar_Fluency",
    "Single_Correct_Key",
    "Option_Uniqueness",
    "Answerable_From_Source",
    "Topic_Relevant",
)

VALIDATE_SYSTEM = (
    "You audit four-option multiple-choice questions using only the supplied "
    "Source Information block. The user numbers the items; evaluate five checks "
    "for each:\n"
    "1. Grammar_Fluency - is the question spelled and phrased correctly and clearly?\n"
    "2. Single_Correct_Key - is exactly one option marked correct?\n"
    "3. Option_Uniqueness - are all four options distinct, with no near-duplicates?\n"
    "4. Answerable_From_Source - does the keyed option follow solely from the "
    "source block, without outside knowledge?\n"
    "5. Topic_Relevant - if a topic is given, is the question clearly about it? "
    "Use N/A when no topic is given.\n"
    "Answer with one numbered block per item, in item order: a line \"Item N\" "
    "with the item's number, then five lines, in exactly this order and casing:\n"
    "Grammar_Fluency: YES|NO\n"
    "Single_Correct_Key: YES|NO\n"
    "Option_Uniqueness: YES|NO\n"
    "Answerable_From_Source: YES|NO\n"
    "Topic_Relevant: YES|NO|N/A"
)


def validate_user(items: list[McqItem], source_context: str) -> str:
    """The source block first, so calls on the same source share a prompt
    prefix, then one block per item headed "Item N", numbered from 1."""
    blocks = []
    for number, item in enumerate(items, start=1):
        option_lines = "\n".join(f"{k}) {item.options[k]}" for k in sorted(item.options))
        blocks.append(
            f"Item {number}\n"
            f'Question: "{item.question}"\n'
            f"{option_lines}\n"
            f'Correct Answer: "{item.answer_key}"\n'
            f'Topic (optional): "{item.topic or ""}"'
        )
    return (
        "Source Information\n"
        f"{source_context}\n\n"
        "Evaluate each item below based only on the Source Information.\n\n"
        + "\n\n".join(blocks)
        + "\n\nRespond with one numbered block of the five check lines per item."
    )

"""Prompt templates for every LLM-backed stage, and the reply formats they ask for.

Each reply format's instruction, writer and reader live here side by side.
The instructions and the mock backend write each reply block through one
writer; the stage modules import the readers and keep only their per-slot
policy. The request side lives here too: each ``*_user`` writer lays out its
call's fields, and ``read_field`` is the one reader the mock backend has of
them. Every call shares one numbered-block format: the prompt holds
one slot per item (a title check, a term to gloss, a text to extract from,
an item to write or to audit) headed by an "Item N" line, and the reply one
block per item under the same header, as ``numbered_reply`` asks.
``numbered_prompt`` is the one writer of the slots; ``split_items`` and
``parse_item_blocks`` are the one place the format is read, by the mock
backend and by ``ChatGateway.complete_items``.

A path item's source lives here too: ``path_source`` is the one writer of
its layout, and ``read_path_context`` and ``critic_sources`` read it back.

Text that several slots of one call share is written once, in the head.
A path-generation call (``path_mcq_user``) opens with the topic line and
a node block that describes each distinct start or end node once, the
seed first, since every path starts there; each slot gives its path,
names its start and end nodes, and says which one the key must contain.
A critic call on several path sources (``_node_head``) opens with a node
block too. Both write a node's entry with ``_node_entry``.

A direct-generation call (``direct_mcq_user``) opens with the topic line
and, in a direct mode with evidence, every retrieved passage, numbered
``[1]``, ``[2]``, ... by ``number_passages``; ``read_passages`` reads them
back. Right after that block, such a call, and only such a call, asks each
reply block to end with an ``Evidence: [n]`` line (``CITATION``) that cites
the one passage its key rests on, and a direct item's source is that
passage alone under the ``CITED_SOURCE`` header. A reply that cites no
passage keeps the whole evidence block (``evidence_source``). No user
prompt repeats its system prompt's reply instruction.
"""

from __future__ import annotations

import contextlib
import json
import re
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, TypeVar

from .errors import ExtractionError, GenerationRejected, ValidationParseError
from .graph import KnowledgeGraph, Node, PathSample, Triple

if TYPE_CHECKING:
    from .qgen import McqItem

T = TypeVar("T")
E = TypeVar("E", bound=Exception)

# Slots per numbered call: glosses and triple extractions of one run of one
# level, items to write, items to audit. Batch prompting (Cheng, Kasai and
# Yu, EMNLP 2023, arXiv 2301.08721) cuts calls and tokens near-linearly in
# the batch size, but a real model's answers lose some accuracy as it grows.
BATCH = 10
# Slots per title-check call. A slot is about 19 prompt tokens with a
# one-word reply, so 50 slots come to about 1,000 prompt tokens, close to
# one BATCH-slot item call; a level only needs cutting past that.
TITLE_BATCH = 50


def batches(items: Iterable[T], size: int | None = None) -> list[list[T]]:
    """The items in order, in runs of up to ``size`` (default ``BATCH``)."""
    size = size or BATCH
    run = list(items)
    return [run[start : start + size] for start in range(0, len(run), size)]


_ITEM_HEADER = re.compile(r"^[^\w\n]*Item\s+(\d+)[^\w\n]*$", re.IGNORECASE | re.MULTILINE)


def split_items(text: str) -> tuple[str, list[tuple[int, str]]]:
    """The text before the first "Item N" header line, then each header's
    number and the block under it, in order."""
    parts = _ITEM_HEADER.split(text)
    return parts[0], [(int(number), block) for number, block in zip(parts[1::2], parts[2::2])]


def parse_item_blocks(
    text: str, parsers: list[Callable[[str], T]], error: type[E]
) -> list[T | E]:
    """Parse block N of a numbered reply with ``parsers[N - 1]``. A slot
    whose block is missing, appears twice or raises ``error`` gets that
    error in its place."""
    blocks = split_items(text)[1]
    found = Counter(number for number, _ in blocks)
    bodies = dict(blocks)
    out: list[T | E] = []
    for number, parse in enumerate(parsers, start=1):
        if found[number] != 1:
            out.append(error(f"reply has {found[number]} blocks for item {number}"))
            continue
        try:
            out.append(parse(bodies[number]))
        except error as exc:
            out.append(exc)
    return out


def numbered_prompt(head: str, slots: list[str]) -> str:
    """``head``, then each slot body under its "Item N" line (numbered from
    1), joined by blank lines; an empty head is left out. Nothing follows the
    last slot: calls with one head share their prompt up to the first slot."""
    items = [f"Item {number}\n{body}" for number, body in enumerate(slots, start=1)]
    return "\n\n".join(part for part in (head, *items) if part)


def _shared(values: Iterable[T]) -> T | None:
    """The one value all of ``values`` share, or None when they differ."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else None


def numbered_reply(slot: str, lines: str) -> str:
    """The one instruction for a numbered reply: a block per item, each
    under an "Item N" line with its ``slot``'s number, then ``lines``."""
    return (
        'Answer with one numbered block per item, in item order: a line "Item N" '
        f"with the {slot}'s number, then {lines}:\n"
    )


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
    "Explain each term the user supplies in a numbered item slot, exhaustively "
    "and accurately. "
    + numbered_reply("slot", "exactly these eight numbered sections in order")
    + "\n".join(f"{i}. {h}" for i, h in enumerate(GLOSS_HEADINGS, start=1))
    + "\nKeep the section headings verbatim and fill each with clear, "
    "well-organized prose a newcomer can follow."
)


def count_sections(text: str) -> int:
    return sum(1 for heading in GLOSS_HEADINGS if heading in text)


def gloss_user(terms: list[tuple[str, str | None, list[str]]]) -> str:
    """Prompt for one run of one level: one slot per (term, its parent term
    or None, evidence passages). A parent every slot shares is named once,
    in the head; otherwise each slot names its own. A slot with passages
    gives them in a context block, and the head, when any slot has one,
    says once how to use them."""
    shared = _shared(parent for _, parent, _ in terms)
    head = []
    if shared:
        head.append(f'Also describe each term\'s relationship to the parent term "{shared}".')
    if any(passages for _, _, passages in terms):
        head.append("Use an item's context, when given, as its primary source.")
    bodies = []
    for term, parent, passages in terms:
        body = f'Explain the term: "{term}".'
        if parent and not shared:
            body += f' Also describe its relationship to the parent term "{parent}".'
        if passages:
            body += "\n\n--- Context ---\n" + "\n\n".join(passages) + "\n--- End Context ---"
        bodies.append(body)
    return numbered_prompt("\n".join(head), bodies)


TITLE_CHECK_SYSTEM = (
    "You decide whether a wiki page title is a suitable definition source for "
    "a term, given its context. Each numbered item slot pairs a term with a "
    "candidate title. Answer Yes only when the title directly denotes the term "
    "and fits the context; if it is ambiguous, tangential, or unrelated, answer "
    "No. " + numbered_reply("slot", "only one word") + '"Yes" or "No"'
)

# What may wrap a title-check answer's one word: a live model may write
# "Yes.", "**No**" or "'yes'" for the bare word.
_ANSWER_NOISE = " \t\r\n*\"'\u201c\u201d\u2018\u2019"


def parse_title_answer(block: str) -> bool:
    """True for a "yes" block and False for a "no" one, ignoring case,
    emphasis, quotes and a trailing period; anything else raises
    ``ValueError``."""
    answer = block.strip(_ANSWER_NOISE).rstrip(".").strip(_ANSWER_NOISE).lower()
    if answer not in ("yes", "no"):
        raise ValueError(f"answered {block.strip()!r}")
    return answer == "yes"


def title_check_user(slots: list[tuple[str, str, str]]) -> str:
    """Prompt for one title-check call: one slot per (context hint, term,
    candidate title). A hint every slot shares is written once, in the head;
    otherwise each slot opens with its own."""
    shared = _shared(hint for hint, _, _ in slots)
    bodies = []
    for hint, term, title in slots:
        body = f'Term to define: "{term}".\nCandidate page title: "{title}".'
        bodies.append(body if shared else f'Context: information related to "{hint}".\n{body}')
    return numbered_prompt(f'Context: information related to "{shared}".' if shared else "", bodies)


TRIPLES_SYSTEM = (
    "You are an information-extraction specialist. Extract only the most "
    "significant subject-predicate-object facts from each text you receive in "
    "a numbered item slot: concrete entities, defining characteristics, major "
    "relationships and contributions. Skip pronouns, articles, and generic "
    "filler. Write every relation in lowercase with underscores.\n"
    + numbered_reply("slot", "strictly one JSON object in this shape")
    + '{\n  "triplets": [\n    {"head": "entity", "relation": "lowercase_relation", '
    '"tail": "entity"}\n  ]\n}'
)


def triples_reply(triples: Iterable[tuple[str, str, str]]) -> str:
    """A triples reply block: the {"triplets": [...]} object of the
    (head, relation, tail) ``triples``, indented, or on one line when empty."""
    payload = [{"head": h, "relation": r, "tail": t} for h, r, t in triples]
    return json.dumps({"triplets": payload}, indent=2 if payload else None)


_RELATION_CLEAN = re.compile(r"[^a-z0-9]+")
_JSON = json.JSONDecoder()


def parse_triples_json(text: str) -> list[Triple]:
    """Strict parse of the {"triplets": [...]} payload: the first JSON object
    that decodes from a "{" of ``text``, so prose around it, braces
    included, is skipped. Entries with missing or empty fields are dropped,
    relations are normalized to lowercase_underscore."""
    for match in re.finditer(r"\{", text):
        with contextlib.suppress(json.JSONDecodeError):
            doc = _JSON.raw_decode(text, match.start())[0]
            break
    else:
        raise ExtractionError("no JSON object in response")
    if not isinstance(doc.get("triplets"), list):
        raise ExtractionError('payload must be an object with a "triplets" list')
    out: list[Triple] = []
    for raw in doc["triplets"]:
        if not isinstance(raw, dict):
            continue
        head = str(raw.get("head") or "").strip()
        tail = str(raw.get("tail") or "").strip()
        relation = _RELATION_CLEAN.sub("_", str(raw.get("relation") or "").lower()).strip("_")
        if not (head and relation and tail):
            continue
        out.append(Triple(head=head, relation=relation, tail=tail))
    return out


def triples_user(glosses: list[str]) -> str:
    """Prompt for one run's extraction: one slot per gloss."""
    return numbered_prompt(
        "Extract subject-predicate-object triplets from each text below.",
        ["--- Text ---\n" + gloss + "\n--- End Text ---" for gloss in glosses],
    )


OPTION_LETTERS = ("A", "B", "C", "D")


def mcq_reply(question: str, options: list[str], key: str) -> str:
    """An item's six reply lines: the question, its options lettered A to D, and the key."""
    lines = [f"Question: {question}"]
    lines += [f"{letter}) {text}" for letter, text in zip(OPTION_LETTERS, options)]
    lines.append(f"Correct Answer: {key}")
    return "\n".join(lines)


MCQ_LINES = mcq_reply("[single-sentence question]", ["[option]"] * 4, "[A, B, C, or D]")
MCQ_REPLY = numbered_reply("slot", "exactly these six lines") + MCQ_LINES

_QUESTION_RE = re.compile(r"^\s*Question:\s*(\S.*?)\s*$")
_OPTION_RE = re.compile(r"^\s*([A-D])[).]\s*(\S.*?)\s*$")
_KEY_RE = re.compile(r"^\s*Correct Answer:\s*\[?\s*([A-Za-z]+)\s*\]?\s*\.?\s*$")


def parse_mcq_output(text: str) -> tuple[str, dict[str, str], str]:
    """Pull the six expected lines out of the response, ignoring any
    surrounding prose. A question or option line with nothing after its
    label is not read. A missing question or key line, or a repeated option
    letter, rejects the generation; ``McqItem`` checks the options and the
    key."""
    question: str | None = None
    options: dict[str, str] = {}
    answer_key: str | None = None
    for line in text.splitlines():
        if question is None:
            match = _QUESTION_RE.match(line)
            if match:
                question = match.group(1)
                continue
        match = _OPTION_RE.match(line)
        if match:
            letter, body = match.group(1), match.group(2)
            if letter in options:
                raise GenerationRejected(f"duplicate option letter {letter}")
            options[letter] = body
            continue
        match = _KEY_RE.match(line)
        if match and answer_key is None:
            answer_key = match.group(1).upper()
    if question is None:
        raise GenerationRejected("no Question line found")
    if answer_key is None:
        raise GenerationRejected("no Correct Answer line found")
    return question, options, answer_key


# Where a path call's node descriptions are: in its head, once per node.
_PATH_NODES = "the Node Information block describes each start and end node once"

MCQ_FORWARD_SYSTEM = (
    "You are a structured question generation system. Each numbered item slot "
    "gives a multi-hop path from a knowledge graph; " + _PATH_NODES + ". For "
    "each slot, write one four-option (A-D) multiple-choice question whose single "
    "correct option is the path's end node. The question must require reasoning "
    "across the hops, and the answer must be implied by the path and "
    "descriptions.\n" + MCQ_REPLY
)

MCQ_REVERSE_SYSTEM = (
    "You are a reasoning assistant that writes reverse questions from "
    "knowledge graph paths, one per numbered item slot: a four-option (A-D) "
    "multiple-choice question whose single correct option is the path's start "
    "node; " + _PATH_NODES + ". Frame each question from the end node's "
    "perspective, reasoning backward along the hops.\n" + MCQ_REPLY
)


def _node_entry(name: str, description: str) -> str:
    """A node's entry in a node block: its name, then its description."""
    return f'Node: "{name}"\nDescription: "{description}"\n'


def _endpoints(start: str, start_description: str, end: str, end_description: str) -> str:
    return (
        f'Start Node: "{start}"\nDescription: "{start_description}"\n'
        f'End Node: "{end}"\nDescription: "{end_description}"'
    )


# One hop of a chain; ``HOP.split`` of a chain gives its names and relations in turn.
HOP = re.compile(r" --\[([^\]\n]*)\]--> ")


def path_repr(path: PathSample, graph: KnowledgeGraph) -> str:
    """A path's hop chain: its node names joined by " --[relation]--> "."""
    parts = [graph.nodes[path.node_ids[0]].name]
    for relation, node_id in zip(path.relations, path.node_ids[1:]):
        parts.append(f"--[{relation}]-->")
        parts.append(graph.nodes[node_id].name)
    return " ".join(parts)


def truncate_at_word(text: str, max_chars: int) -> str:
    """Cut at the last whitespace at or before ``max_chars``; never mid-word."""
    text = text.strip()
    if len(text) <= max_chars:
        return text
    head = text[:max_chars]
    cut = head.rsplit(None, 1)
    return cut[0] if len(cut) == 2 else head


def excerpt_line(name: str, gloss: str) -> str:
    """A node's excerpt line: "- Name: " and the first line of its gloss,
    cut at a word to at most 220 characters, or "- Name" for a blank gloss."""
    first = gloss.strip().splitlines()[:1]
    return f"- {name}: {truncate_at_word(first[0], 220)}" if first else f"- {name}"


def path_source(
    path: str, line: Callable[[str], str | None], description: Callable[[str], str | None]
) -> str | None:
    """A path item's source: "Path: " and the hop chain ``path``, then the
    excerpt ``line`` of each node on it, then its start and end nodes, each
    with its ``description``. None when a part is missing."""
    names = HOP.split(path)[::2]
    parts = [*map(line, names), description(names[0]), description(names[-1])]
    if None in parts:
        return None
    *lines, first, last = parts
    return "\n".join([f"Path: {path}", *lines, _endpoints(names[0], first, names[-1], last)])


class PathContext(NamedTuple):
    """A path source as parts: the hop chain, each node's excerpt line by
    name, and the start and end nodes' descriptions by name."""

    path: str
    lines: dict[str, str]
    descriptions: dict[str, str]


def _names(name: str, line: str) -> bool:
    return line == f"- {name}" or line.startswith(f"- {name}: ")


def read_path_context(source: str) -> PathContext | None:
    """``path_source``'s layout read back into its parts; None unless the
    parts give ``source`` back byte for byte."""
    path, _, rest = source.partition("\n")
    if not path.startswith("Path: "):
        return None
    path = path[len("Path: "):]
    names = HOP.split(path)[::2]
    *lines, endpoints = rest.split("\n", len(names))
    start, end = names[0], names[-1]
    opener = f'Start Node: "{start}"\nDescription: "'
    middle = f'"\nEnd Node: "{end}"\nDescription: "'
    cut = endpoints.find(middle)
    if not endpoints.startswith(opener) or cut < 0 or not all(map(_names, names, lines)):
        return None
    descriptions = {start: endpoints[len(opener) : cut], end: endpoints[cut + len(middle) : -1]}
    context = PathContext(path, dict(zip(names, lines)), descriptions)
    return context if path_source(path, context.lines.get, descriptions.get) == source else None


def path_mcq_user(
    orientation: str, topic: str | None, slots: list[tuple[str, Node, Node, int]]
) -> str:
    """Prompt for the path modes: the topic line, then a node block with the
    description (its gloss, or else its name) of each distinct start or end
    node, in order of first use, so the seed that starts every path comes
    first; then one slot per (path, start node, end node, variant) that
    names its start and end nodes."""
    descriptions: dict[str, str] = {}
    bodies = []
    for path, start, end, variant in slots:
        for node in (start, end):
            descriptions.setdefault(node.name, node.gloss or node.name)
        answer = end if orientation == "forward" else start
        body = (
            f'Path: "{path}"\nStart Node: "{start.name}"\nEnd Node: "{end.name}"\n'
            f'The correct option must contain the text "{answer.name}".'
        )
        if variant:
            body += f"\nVariation tag: {variant} (phrase this item differently from earlier ones)."
        bodies.append(body)
    head = "Node Information\n" + "".join(map(_node_entry, descriptions, descriptions.values()))
    if topic:
        head = (
            f'IMPORTANT: the questions and options must stay on the overall topic: "{topic}".'
            f"\n\n{head}"
        )
    return numbered_prompt(head.rstrip("\n"), bodies)


# A direct reply block's last line: the number of the passage its key rests on.
CITATION = "Evidence: [{}]"
_EVIDENCE_RE = re.compile(r"^\s*Evidence:\s*(.*?)\s*$", re.IGNORECASE | re.MULTILINE)
_CITATION_RE = re.compile(r"\[?\s*(\d+)\s*\]?\.?")


def parse_citation(block: str, count: int) -> int | None:
    """The passage number, 1 to ``count``, that a direct reply block's
    ``Evidence: [n]`` line cites; None for a block with no such line, or one
    that cites [0], a number past ``count`` or no number."""
    line = _EVIDENCE_RE.search(block)
    cited = _CITATION_RE.fullmatch(line.group(1)) if line else None
    number = int(cited.group(1)) if cited else 0
    return number if 1 <= number <= count else None


DIRECT_MCQ_SYSTEM = (
    "You are a structured question generation system. The user gives a topic, "
    "a difficulty level, optionally an evidence block of numbered passages, and "
    "numbered item slots. Write one four-option multiple-choice question about "
    "the topic for each slot, each with a single correct option; when evidence "
    "is given, every question and key must follow from it alone. Each slot's "
    "variation tag asks for an aspect the other items do not cover.\n" + MCQ_REPLY
)

# The header of a direct item's source: the whole evidence block, or the one
# passage its reply cites.
EVIDENCE_SOURCE = "Evidence passages:\n"
CITED_SOURCE = "Evidence passage:\n"


def evidence_source(passages: list[str]) -> str:
    """The source of a direct item whose reply cites no passage: every
    passage, or a note that there is none."""
    if not passages:
        return "No source information provided."
    return EVIDENCE_SOURCE + "\n\n".join(passages)


def number_passages(passages: list[str]) -> str:
    """The passages as one evidence text, each opened by its number
    ("[1] ", "[2] ", ...) and separated by blank lines."""
    return "\n\n".join(f"[{n}] {text}" for n, text in enumerate(passages, start=1))


def read_passages(text: str) -> list[str] | None:
    """``number_passages``'s text read back into its passages. It cuts at
    each next number's marker in turn, never at a bare blank line, since a
    passage may hold blank lines of its own. None unless the passages give
    ``text`` back byte for byte."""
    passages: list[str] = []
    start = 0
    while text.startswith(marker := f"[{len(passages) + 1}] ", start):
        start += len(marker)
        cut = text.find(f"\n\n[{len(passages) + 2}] ", start)
        stop = cut if cut >= 0 else len(text)
        passages.append(text[start:stop])
        start = stop + 2
    return passages if passages and number_passages(passages) == text else None


def direct_mcq_user(topic: str, level: int, passages: list[str], variants: list[int]) -> str:
    """Prompt for the KG-free modes: the topic line and any evidence, its
    passages numbered, then one slot per variant. With evidence, the head
    asks, right after the evidence block, for each block to end with its
    ``CITATION`` line; without, no prompt asks for one."""
    head = (
        f'Write one four-option multiple-choice question about the topic "{topic}" '
        f"at difficulty level {level} for each numbered item below."
    )
    if passages:
        head += (
            "\n\nBase the questions solely on this evidence:\n"
            "--- Evidence ---\n" + number_passages(passages) + "\n--- End Evidence ---\n"
            "End each item's block with this line:\n"
            + CITATION.format("number of the one passage the correct option rests on")
        )
    return numbered_prompt(
        head, [f"Variation tag: {v} (cover a different aspect than earlier items)." for v in variants]
    )


VALIDATE_CHECKS = (
    ("Grammar_Fluency", "is the question spelled and phrased correctly and clearly?"),
    ("Single_Correct_Key", "is exactly one option marked correct?"),
    ("Option_Uniqueness", "are all four options distinct, with no near-duplicates?"),
    ("Answerable_From_Source", "does the keyed option follow solely from the "
     "source block, without outside knowledge?"),
    ("Topic_Relevant", "if a topic is given, is the question clearly about it? "
     "Use N/A when no topic is given."),
)
VALIDATE_LABELS = tuple(label for label, _ in VALIDATE_CHECKS)


def verdict_lines(verdicts: Iterable[str]) -> str:
    """An item's critic reply block: each check's label and its verdict, in order."""
    return "\n".join(f"{label}: {verdict}" for label, verdict in zip(VALIDATE_LABELS, verdicts))


VALIDATE_SYSTEM = (
    "You audit four-option multiple-choice questions using only the supplied "
    "Source Information block. The user numbers the items; evaluate five checks "
    "for each:\n"
    + "".join(f"{i}. {label} - {q}\n" for i, (label, q) in enumerate(VALIDATE_CHECKS, start=1))
    + numbered_reply("item", "five lines, in exactly this order and casing")
    # Only the last label, Topic_Relevant, may also be N/A.
    + verdict_lines(["YES|NO"] * len(VALIDATE_LABELS))
    + "|N/A"
)

Verdicts = dict[str, bool | None]

_LINE_RE = re.compile(r"^\s*([A-Za-z_]+)\s*:\s*(YES|NO|N/A)\s*$", re.IGNORECASE)


def parse_critic_response(text: str) -> Verdicts:
    """Parse exactly the five labeled lines, in order. YES -> True,
    NO -> False, N/A -> None (allowed only on the topic line)."""
    found: list[tuple[str, str]] = []
    for line in text.splitlines():
        match = _LINE_RE.match(line)
        if match:
            found.append((match.group(1), match.group(2).upper()))
    labels = [label for label, _ in found]
    if labels != list(VALIDATE_LABELS):
        raise ValidationParseError(
            f"expected the five check lines {VALIDATE_LABELS}, got {labels}"
        )
    out: Verdicts = {}
    for label, verdict in found:
        if verdict == "N/A":
            if label != "Topic_Relevant":
                raise ValidationParseError(f"N/A is only valid for Topic_Relevant, not {label}")
            out[label] = None
        else:
            out[label] = verdict == "YES"
    return out


_SOURCE_BLOCK = re.compile(
    r'\nSource Information (\d+)\nPath: (.*)\nStart Node: ".*"\nEnd Node: ".*"\n'
)


def _line(nodes: str, name: str) -> str | None:
    """The first line of the node block ``nodes`` that names ``name``, else
    the excerpt line its description there implies; None without either."""
    at = nodes.find(f"\n- {name}")
    while at >= 0:
        line = nodes[at + 1 : nodes.index("\n", at + 1)]
        if _names(name, line):
            return line
        at = nodes.find(f"\n- {name}", at + 1)
    description = _description(nodes, name)
    return None if description is None else excerpt_line(name, description)


def _description(nodes: str, name: str) -> str | None:
    """The description the node block ``nodes`` gives ``name``: it runs to
    the next "Node:" line or to the block's last quote."""
    opener = f'\nNode: "{name}"\nDescription: "'
    start = nodes.find(opener)
    if start < 0:
        return None
    start += len(opener)
    stop = nodes.find('"\nNode: "', start)
    return nodes[start : stop if stop >= 0 else len(nodes.rstrip("\n")) - 1]


def critic_sources(head: str) -> dict[int, str | None]:
    """The sources a critic head with a node block gives, by number. Each is
    rebuilt by ``path_source`` from its block's path and, from the
    node block, the description of its start and end nodes and the excerpt
    line of each node on it: the first line naming the node, or else the
    line the node's description implies. A node's description counts
    wherever the block gives it, since the end node of one source is often
    an intermediate of another. A source is None when the node block lacks
    a part it needs. Empty for a head without source blocks of that
    shape."""
    blocks = list(_SOURCE_BLOCK.finditer(head))
    if not blocks:
        return {}
    nodes = head[: blocks[0].start() + 1]
    parts = partial(_line, nodes), partial(_description, nodes)
    return {int(block[1]): path_source(block[2], *parts) for block in blocks}


def _node_head(sources: list[str]) -> str | None:
    """The head of a critic call on the path ``sources``, which writes each
    node's text once: a node block with each distinct excerpt line that no
    description in the block implies (``excerpt_line`` of that description
    rebuilds it byte for byte), then each distinct start or end description,
    in order of first use; then source blocks numbered 1 to k, each with its
    path and its start and end nodes' names. None unless every source is in
    ``path_source``'s layout and ``critic_sources`` gives each back from the
    head byte for byte."""
    contexts = [read_path_context(source) for source in sources]
    if None in contexts:
        return None
    lines: dict[str, str] = {}
    descriptions: dict[str, str] = {}
    blocks = []
    for number, context in enumerate(contexts, start=1):
        for name, line in context.lines.items():
            lines.setdefault(name, line)
        for name, text in context.descriptions.items():
            descriptions.setdefault(name, text)
        names = HOP.split(context.path)[::2]
        blocks.append(
            f'Source Information {number}\nPath: {context.path}\n'
            f'Start Node: "{names[0]}"\nEnd Node: "{names[-1]}"\n\n'
        )
    implied = {name: excerpt_line(name, text) for name, text in descriptions.items()}
    head = "".join(
        [
            "Node Information\n",
            *(f"{line}\n" for name, line in lines.items() if line != implied.get(name)),
            *map(_node_entry, descriptions, descriptions.values()),
            "\n",
            *blocks,
        ]
    )
    return head if critic_sources(head) == dict(enumerate(sources, start=1)) else None


def validate_user(items: list[McqItem]) -> str:
    """Each distinct source once, then one slot per item. A group on one
    source opens with its block, so calls on the same source share a prompt
    prefix. A group on k > 1 sources numbers them 1 to k in order of first
    use, and each slot's first line names its own. When every one is a path
    source that ``_node_head`` can factor, the call opens with a node block
    that writes each node's text once, and each source block gives only its
    path and the names of its start and end nodes; otherwise each source is
    written whole under its number. A topic every slot shares is written
    once, in the head after the sources; otherwise each slot gives its
    own."""
    sources = list(dict.fromkeys(item.source_context for item in items))
    number = {source: n for n, source in enumerate(sources, start=1)}
    numbered = len(sources) > 1
    topic = _shared(item.topic or "" for item in items)
    if not numbered:
        head, rule = f"Source Information\n{sources[0]}\n\n", "the Source Information."
    else:
        head = _node_head(sources)
        rule = "the Source Information its first line names"
        if head is None:
            head = "".join(f"Source Information {n}\n{source}\n\n" for source, n in number.items())
            rule += "."
        else:
            rule += " and the Node Information of its nodes."
    if topic is not None:
        head += f'Topic (optional): "{topic}"\n\n'
    bodies = []
    for item in items:
        option_lines = "\n".join(f"{k}) {item.options[k]}" for k in sorted(item.options))
        bodies.append(
            (f"Source Information: {number[item.source_context]}\n" if numbered else "")
            + f'Question: "{item.question}"\n'
            f"{option_lines}\n"
            f'Correct Answer: "{item.answer_key}"'
            + (f'\nTopic (optional): "{item.topic or ""}"' if topic is None else "")
        )
    return numbered_prompt(f"{head}Evaluate each item below based only on {rule}", bodies)


# Each request field the mock backend reads, by name: a reader of what the
# writer named beside it lays out, its value in group 1. A block is read a whole
# line at a time (``.*+`` keeps its line), never one character at a time.
_FIELDS = {
    "term": re.compile(r'Explain the term: "([^"]+)"'),  # gloss_user
    "parent": re.compile(r'parent term "([^"]+)"'),
    "context": re.compile(r"--- Context ---\n((?:.*+\n)*?.*+)\n--- End Context ---"),
    "check_term": re.compile(r'Term to define: "([^"]+)"'),  # title_check_user
    "check_title": re.compile(r'Candidate page title: "([^"]+)"'),
    "path": re.compile(r'Path: "([^"]+)"'),  # path_mcq_user
    "start": re.compile(r'Start Node: "([^"]+)"'),
    "end": re.compile(r'End Node: "([^"]+)"'),
    "path_topic": re.compile(r'overall topic: "([^"]+)"'),
    "variant": re.compile(r"Variation tag: (\d+)"),  # path_mcq_user, direct_mcq_user
    "direct_topic": re.compile(r'about the topic "([^"]+)"'),  # direct_mcq_user
    "level": re.compile(r"at difficulty level (\d+)"),
    "evidence": re.compile(r"--- Evidence ---\n((?:.*+\n)*?.*+)\n--- End Evidence ---"),
    "val_topic": re.compile(r'Topic \(optional\): "([^"]*)"'),  # validate_user
}


def read_field(name: str, text: str) -> str | None:
    """The first value of request field ``name`` in ``text``; None without one."""
    match = _FIELDS[name].search(text)
    return match.group(1) if match else None

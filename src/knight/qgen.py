"""The MCQ item: path sampling, context verbalization, path prompts, and
strict parsing of the generated six-line item format.

``request_mcq`` is the one place an item is made from a reply: it completes
a request, parses the reply and builds the ``McqItem``. Every mode's
attempts go through it, path modes by way of ``generate_mcq``."""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import PipelineConfig
from .errors import GenerationRejected
from .gateway import ChatGateway, ChatRequest
from .graph import KnowledgeGraph, PathSample, enumerate_paths
from .prompts import MCQ_FORWARD_SYSTEM, MCQ_REVERSE_SYSTEM, mcq_user

if TYPE_CHECKING:
    from .validation import ValidationReport

log = logging.getLogger(__name__)

OPTION_LETTERS = ("A", "B", "C", "D")


@dataclass
class McqItem:
    id: str
    question: str
    options: dict[str, str]
    answer_key: str
    topic: str
    level: int
    orientation: str
    path: PathSample | None
    source_context: str
    flags: "ValidationReport | None" = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if sorted(self.options) != list(OPTION_LETTERS):
            raise ValueError("an item carries exactly the four options A-D")
        if self.answer_key not in self.options:
            raise ValueError(f"answer key {self.answer_key!r} has no option")
        if self.path is not None and self.level != self.path.hops:
            raise ValueError("level must equal the path hop count")


def _gloss_excerpt(text: str | None, limit: int = 220) -> str:
    if not text:
        return ""
    first_line = text.strip().splitlines()[0].strip()
    if len(first_line) <= limit:
        return first_line
    head = first_line[:limit].rsplit(None, 1)
    return head[0] if len(head) == 2 else first_line[:limit]


def path_repr(path: PathSample, graph: KnowledgeGraph) -> str:
    parts = [graph.nodes[path.node_ids[0]].name]
    for relation, node_id in zip(path.relations, path.node_ids[1:]):
        parts.append(f"--[{relation}]-->")
        parts.append(graph.nodes[node_id].name)
    return " ".join(parts)


def verbalize(path: PathSample, graph: KnowledgeGraph) -> str:
    """Compact context for a path: the hop chain, a one-line excerpt per
    node, and full description blocks for the start and end nodes."""
    for node_id in path.node_ids:
        if node_id not in graph.nodes:
            raise GenerationRejected(f"path references unknown node {node_id!r}")
    nodes = [graph.nodes[nid] for nid in path.node_ids]
    lines = [f"Path: {path_repr(path, graph)}"]
    for node in nodes:
        excerpt = _gloss_excerpt(node.gloss)
        if excerpt:
            lines.append(f"- {node.name}: {excerpt}")
        else:
            log.warning("node %r has no gloss; context lists the name alone", node.id)
            lines.append(f"- {node.name}")
    start, end = nodes[0], nodes[-1]
    lines.append(f'Start Node: "{start.name}"')
    lines.append(f'Description: "{start.gloss or start.name}"')
    lines.append(f'End Node: "{end.name}"')
    lines.append(f'Description: "{end.gloss or end.name}"')
    return "\n".join(lines)


_QUESTION_RE = re.compile(r"^\s*Question:\s*(.+?)\s*$")
_OPTION_RE = re.compile(r"^\s*([A-D])[).]\s*(.+?)\s*$")
_KEY_RE = re.compile(r"^\s*Correct Answer:\s*\[?\s*([A-Za-z]+)\s*\]?\s*\.?\s*$")


def parse_mcq_output(text: str) -> tuple[str, dict[str, str], str]:
    """Pull the six expected lines out of the response, ignoring any
    surrounding prose. Missing lines, duplicate letters, or a key outside
    A-D reject the generation."""
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
    if sorted(options) != list(OPTION_LETTERS):
        raise GenerationRejected(f"expected options A-D, got {sorted(options)}")
    if answer_key is None:
        raise GenerationRejected("no Correct Answer line found")
    if answer_key not in OPTION_LETTERS:
        raise GenerationRejected(f"answer key {answer_key!r} outside A-D")
    return question, options, answer_key


def request_mcq(gateway: ChatGateway, request: ChatRequest, **fields) -> McqItem:
    """Complete ``request`` and build an item from the parsed reply; ``fields``
    are the item's fields other than the question, options and key. A reply
    that does not parse raises ``GenerationRejected``."""
    question, options, answer_key = parse_mcq_output(gateway.complete(request).text)
    return McqItem(question=question, options=options, answer_key=answer_key, **fields)


def generate_mcq(
    gateway: ChatGateway,
    path: PathSample,
    orientation: str,
    topic: str | None,
    graph: KnowledgeGraph,
    config: PipelineConfig,
    item_id: str,
    variant: int = 0,
) -> McqItem:
    """Prompt for one item over ``path`` and enforce the orientation rule:
    the keyed option must contain the answer node's name (end node when
    forward, start node when reverse); violations are rejected, not
    repaired."""
    if path.hops < 1:
        raise GenerationRejected("paths must have at least one hop")
    if orientation not in ("forward", "reverse"):
        raise GenerationRejected(f"unknown orientation {orientation!r}")

    start = graph.nodes[path.node_ids[0]]
    end = graph.nodes[path.node_ids[-1]]
    context = verbalize(path, graph)
    request = ChatRequest(
        system_prompt=MCQ_FORWARD_SYSTEM if orientation == "forward" else MCQ_REVERSE_SYSTEM,
        user_prompt=mcq_user(
            orientation,
            path_repr(path, graph),
            start.name,
            start.gloss or start.name,
            end.name,
            end.gloss or end.name,
            topic,
            variant,
        ),
        temperature=config.temp_desc,
        task_tag="mcq_forward" if orientation == "forward" else "mcq_reverse",
    )
    item = request_mcq(
        gateway,
        request,
        id=item_id,
        topic=topic or "",
        level=path.hops,
        orientation=orientation,
        path=PathSample(list(path.node_ids), list(path.relations), orientation),
        source_context=context,
        provenance={
            "seed_node": path.node_ids[0],
            "passage_ids": list(start.provenance),
            "mixture_weights": list(start.retrieval_weights),
            "parametric_fallback": start.parametric_fallback,
        },
    )

    answer_node = end if orientation == "forward" else start
    keyed = item.options[item.answer_key]
    if answer_node.name.lower() not in keyed.lower():
        raise GenerationRejected(
            f"{orientation} item key option {keyed!r} does not "
            f"contain the answer node name {answer_node.name!r}"
        )
    return item


def sample_paths(
    graph: KnowledgeGraph,
    v0: str,
    level: int,
    num_q: int,
    rng_seed: int,
) -> list[tuple[PathSample, str]]:
    """Forward/reverse pairs over all length-``level`` paths from ``v0``.

    Scarce paths cycle (the caller salts repeat prompts by occurrence);
    abundant ones are thinned by a seeded sample without replacement that
    preserves the deterministic (path, orientation) order.
    """
    if num_q < 1:
        raise ValueError("num_q must be >= 1")
    pairs: list[tuple[PathSample, str]] = []
    for path in enumerate_paths(graph, v0, level):
        pairs.append((PathSample(list(path.node_ids), list(path.relations), "forward"), "forward"))
        pairs.append((PathSample(list(path.node_ids), list(path.relations), "reverse"), "reverse"))
    if not pairs:
        return []
    if len(pairs) > num_q:
        rng = random.Random(rng_seed)
        picked = sorted(rng.sample(range(len(pairs)), num_q))
        return [pairs[i] for i in picked]
    out = list(pairs)
    index = 0
    while len(out) < num_q:
        out.append(pairs[index % len(pairs)])
        index += 1
    return out

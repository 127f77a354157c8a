"""The MCQ item: path sampling, path prompts, and the item a reply block makes.

``mcq_item`` is the one place an item is made from a reply block: it reads
the block's six lines with ``prompts.parse_mcq_output`` and builds the
``McqItem``. Every generation reply is a group: a path mode's
(``generate_mcq``, one orientation per call) and a direct mode's alike are
split on their "Item N" headers by ``ChatGateway.complete_items``, and each
block goes through ``mcq_item`` on its own; a direct block's
``Evidence: [n]`` line is read by ``prompts.parse_citation``. Orientation
lives on the ``McqItem`` only. ``provenance`` writes every item's
provenance record; a path item's is its start node's stored evidence."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .config import PipelineConfig
from .errors import GenerationRejected
from .gateway import ChatGateway, ChatRequest
from .graph import KnowledgeGraph, PathSample, enumerate_paths
from .prompts import (
    MCQ_FORWARD_SYSTEM,
    MCQ_REVERSE_SYSTEM,
    OPTION_LETTERS,
    excerpt_line,
    parse_mcq_output,
    path_mcq_user,
    path_repr,
    path_source,
)

if TYPE_CHECKING:
    from .validation import ValidationReport

log = logging.getLogger(__name__)

ORIENTATIONS = ("forward", "reverse")


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
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if self.path is not None and self.level != self.path.hops:
            raise ValueError("level must equal the path hop count")


def verbalize(path: PathSample, graph: KnowledgeGraph) -> str:
    """A path's source, as ``path_source`` writes it: each node's excerpt
    line from its gloss, and its start and end nodes' glosses, or their
    names when they have none."""
    glosses = {}
    for node in (graph.nodes[nid] for nid in path.node_ids):
        if not (node.gloss or "").strip():
            log.warning("node %r has no gloss; context lists the name alone", node.id)
        glosses[node.name] = node.gloss or ""
    # A name holding a hop's " --[r]--> " splits into parts with no gloss.
    return path_source(
        path_repr(path, graph),
        lambda name: excerpt_line(name, glosses.get(name, "")),
        lambda name: glosses.get(name) or name,
    )


def provenance(
    seed_node: str, passage_ids: list[str], weights: list[float], fallback: bool
) -> dict:
    """An item's provenance record: its seed node, the passages it rests on,
    their mixture weights, and whether it fell back on parametric knowledge."""
    return {
        "seed_node": seed_node,
        "passage_ids": list(passage_ids),
        "mixture_weights": list(weights),
        "parametric_fallback": fallback,
    }


def mcq_item(block: str, **fields) -> McqItem:
    """Build an item from one reply block; ``fields`` are the item's fields
    other than the question, options and key. A block that does not parse,
    or whose item breaks ``McqItem``'s contract, raises ``GenerationRejected``."""
    question, options, answer_key = parse_mcq_output(block)
    try:
        return McqItem(question=question, options=options, answer_key=answer_key, **fields)
    except ValueError as exc:
        raise GenerationRejected(str(exc)) from exc


def generate_mcq(
    gateway: ChatGateway,
    slots: list[tuple[PathSample, str, int]],
    orientation: str,
    topic: str | None,
    graph: KnowledgeGraph,
    config: PipelineConfig,
) -> list[McqItem | GenerationRejected]:
    """Prompt in one call for one item per (path, item id, variant) slot, all
    of one orientation, and return one outcome per slot. Each item must keep
    the orientation rule: the keyed option must contain the answer node's
    name (end node when forward, start node when reverse). A block that is
    missing, repeated, unparseable or breaks the rule is rejected, not
    repaired, and costs only its own item."""
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    if any(path.hops < 1 for path, _, _ in slots):
        raise ValueError("paths must have at least one hop")

    def parser(path: PathSample, item_id: str) -> Callable[[str], McqItem]:
        start = graph.nodes[path.node_ids[0]]
        answer = graph.nodes[path.node_ids[-1]] if orientation == "forward" else start
        fields = dict(
            id=item_id,
            topic=topic or "",
            level=path.hops,
            orientation=orientation,
            path=path,
            source_context=verbalize(path, graph),
            provenance=provenance(path.node_ids[0], start.provenance,
                                  start.retrieval_weights, start.parametric_fallback),
        )

        def parse(block: str) -> McqItem:
            item = mcq_item(block, **fields)
            keyed = item.options[item.answer_key]
            if answer.name.lower() not in keyed.lower():
                raise GenerationRejected(
                    f"{orientation} item key option {keyed!r} does not "
                    f"contain the answer node name {answer.name!r}"
                )
            return item

        return parse

    request = ChatRequest(
        system_prompt=MCQ_FORWARD_SYSTEM if orientation == "forward" else MCQ_REVERSE_SYSTEM,
        user_prompt=path_mcq_user(
            orientation,
            topic,
            [
                (path_repr(path, graph), graph.nodes[path.node_ids[0]],
                 graph.nodes[path.node_ids[-1]], variant)
                for path, _, variant in slots
            ],
        ),
        temperature=config.temp_desc,
        task_tag="mcq_forward" if orientation == "forward" else "mcq_reverse",
    )
    return gateway.complete_items(
        request, [parser(path, item_id) for path, item_id, _ in slots], GenerationRejected
    )


def sample_paths(
    graph: KnowledgeGraph,
    v0: str,
    level: int,
    num_q: int,
    rng_seed: int,
) -> list[tuple[PathSample, str]]:
    """Forward/reverse pairs over all length-``level`` paths from ``v0``; a
    path's two pairs share its ``PathSample``.

    Scarce paths cycle (the caller salts repeat prompts by occurrence);
    abundant ones are thinned by a seeded sample without replacement that
    preserves the deterministic (path, orientation) order.
    """
    if num_q < 1:
        raise ValueError("num_q must be >= 1")
    pairs: list[tuple[PathSample, str]] = []
    for path in enumerate_paths(graph, v0, level):
        pairs += [(path, "forward"), (path, "reverse")]
    if not pairs:
        return []
    if len(pairs) > num_q:
        rng = random.Random(rng_seed)
        picked = sorted(rng.sample(range(len(pairs)), num_q))
        return [pairs[i] for i in picked]
    return [pairs[i % len(pairs)] for i in range(num_q)]

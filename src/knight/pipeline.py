"""End-to-end orchestration of the five pipeline modes.

Stage sets per mode:

* ``plain``   - direct generation, no evidence.
* ``rag``     - retrieval-grounded generation.
* ``rag_kg``  - retrieval + graph construction + path-structured items, no critic.
* ``rag_val`` - retrieval-grounded generation + critic, no graph.
* ``knight``  - the full pipeline: graph, paths, critic.

``MODE_TASK_TAGS`` is the one table of these sets: the token ledger's task
tags are the observable contract, so a run logs exactly the tags of its
mode's stage set (plus ``validate`` when forced), and ``run_pipeline`` picks
its stages by reading the same table. ``triples`` is logged once per
run of one level above ``d_max`` that has a passing gloss (see
``builder``), so always for a seed whose gloss passes the gamma gate.

Per-item work fans out through ``ChatGateway.map``, which also decides what a
failed call costs (see ``gateway``). Every mode generates the same way: it
fixes a queue of attempts before the map, each making one call and carrying
the position in pair order and the id of each item it makes, and
``_generate_items`` maps the attempts, merges the finished outcomes back into
pair order, then counts attempts and rejects per item and drops repeated
questions. Only the attempts differ. A path mode cuts each orientation's
sampled (path, orientation) pairs, in pair order, into runs of up to
``BATCH``, one ``generate_mcq`` call each, and queues the runs by their first
pair's position, so a forward run and a reverse run start side by side. A
direct mode's attempt asks one call for a group of up to ``BATCH``
consecutive items over the topic and any retrieved evidence, which every
group's prompt shares, its passages numbered; its queue is already in pair
order. Each reply block cites the passage its key rests on, and the item
keeps only that passage as its ``source_context``, with that passage's id
and weight as its provenance; a block that cites no passage keeps the whole
evidence block and counts in ``PipelineResult.uncited``. In every mode
``qgen.provenance`` writes an item's provenance record. The critic
fixes its groups before the map too: it stably orders the items by the
first appearance of their ``source_context`` and cuts that order into runs
of up to ``BATCH``, so items on one source sit side by side and the calls
write at most one source block per distinct source plus one per cut between
runs; it maps ``validate_item`` over the runs and writes each report back to
its own item. In every grouped call a reply block that is missing, repeated
or unparseable, or in a path mode breaks the orientation rule, costs only
its own item. A ``GatewayError`` the map returns costs the whole group in
flight, each of whose items counts as an attempt, and ends its stage: the
stage keeps the groups queued before it (in a path mode, merged into pair
order; for the critic, in group order, their items returned in input
order), the error goes to ``PipelineResult.aborted_reason``, and later
stages go on with what was finished; a build cut short before any ``d_max``-hop path exists, or a
direct mode's failed title check on its topic, leaves no attempts at all.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .adapters import AdapterSuite
from .builder import BuildReport, RejectedCandidate, build_kg
from .config import PipelineConfig
from .errors import ConfigError, GatewayError, GenerationRejected, abort_label
from .fixture_world import FixtureWorld, load_world
from .gateway import ChatGateway, ChatRequest, MockChatBackend, OpenAiCompatBackend
from .graph import KnowledgeGraph, PathSample, Topic, normalize_name
from .metrics import DatasetStats, compute_dataset_stats
from .prompts import (
    CITED_SOURCE, DIRECT_MCQ_SYSTEM, EVIDENCE_SOURCE, batches, direct_mcq_user, evidence_source,
    parse_citation,
)
from .qgen import ORIENTATIONS, McqItem, generate_mcq, mcq_item, provenance, sample_paths
from .retrieval import (
    FixtureWikiSource, NetworkWikiSource, RetrievalResult, WikiSource, choose_titles,
    mixture_weights, retrieve_evidence,
)
from .validation import validate_item

log = logging.getLogger(__name__)

MODE_TASK_TAGS: dict[str, frozenset[str]] = {
    "plain": frozenset({"mcq_forward"}),
    "rag": frozenset({"title_check", "mcq_forward"}),
    "rag_kg": frozenset({"title_check", "gloss", "triples", "mcq_forward", "mcq_reverse"}),
    "rag_val": frozenset({"title_check", "mcq_forward", "validate"}),
    "knight": frozenset(
        {"title_check", "gloss", "triples", "mcq_forward", "mcq_reverse", "validate"}
    ),
}


@dataclass
class Services:
    """The wired backends one run shares."""

    gateway: ChatGateway
    source: WikiSource
    adapters: AdapterSuite
    world: FixtureWorld


def load_fixtures(config: PipelineConfig) -> tuple[FixtureWorld, AdapterSuite]:
    # Only fixture-backed scoring adapters exist, whatever the chat backend.
    world = load_world(config.fixture_dir or None)
    return world, AdapterSuite.fixture_suite(world, rng_seed=config.rng_seed)


def build_services(config: PipelineConfig) -> Services:
    world, adapters = load_fixtures(config)
    if config.backend == "mock":
        backend = MockChatBackend(world, rng_seed=config.rng_seed)
        source: WikiSource = FixtureWikiSource(world)
    else:
        backend = OpenAiCompatBackend(
            base_url=config.openai_base_url,
            api_key=config.openai_api_key,
            model=config.openai_model,
            retry_attempts=config.retry_attempts,
        )
        source = NetworkWikiSource()
        log.info("network chat backend active; auxiliary adapters remain fixture-backed")
    gateway = ChatGateway(backend, max_inflight=config.max_inflight)
    return Services(gateway=gateway, source=source, adapters=adapters, world=world)


@dataclass
class PipelineResult:
    topic: str
    mode: str
    items: list[McqItem] = field(default_factory=list)
    kept_items: list[McqItem] = field(default_factory=list)
    graph: KnowledgeGraph | None = None
    build_report: BuildReport | None = None
    rejects: list[RejectedCandidate] = field(default_factory=list)
    stats: DatasetStats | None = None
    metric_rows: list[dict] = field(default_factory=list)
    attempts: int = 0
    generation_rejected: int = 0
    duplicates_dropped: int = 0
    validation_dropped: int = 0
    # Direct items with evidence whose reply cites no passage of it.
    uncited: int = 0
    aborted_reason: str | None = None


def _slug(text: str) -> str:
    return normalize_name(text).replace(" ", "_") or "topic"


def _question_fingerprint(question: str) -> str:
    return " ".join(question.lower().split())


def _abort(result: PipelineResult, exc: GatewayError) -> None:
    if result.aborted_reason is None:
        result.aborted_reason = abort_label(exc)
        log.error("backend failure, stage cut short: %s", result.aborted_reason)


Outcome = McqItem | GenerationRejected
# An attempt: the (position in pair order, item id) of each item it makes,
# in its call's slot order, and the call that makes them.
Attempt = tuple[list[tuple[int, str]], Callable[[], list[Outcome]]]


def _generate_items(
    gateway: ChatGateway, attempts: list[Attempt], result: PipelineResult
) -> list[McqItem]:
    """Map the attempts in queue order, merge the outcomes of the finished
    prefix back into pair order, then count attempts and rejects and drop
    repeated questions, one outcome per item. A ``GatewayError`` costs its
    own attempt, each of whose items counts as an attempt, and ends the
    stage: only the attempts queued before it keep their items."""

    outcomes, error = gateway.map(lambda attempt: attempt[1](), attempts)
    finished = sorted(
        (
            (position, item_id, outcome)
            for (slots, _), group in zip(attempts, outcomes)
            for (position, item_id), outcome in zip(slots, group)
        ),
        key=lambda slot: slot[0],
    )
    items: list[McqItem] = []
    seen_questions: set[str] = set()
    for _, item_id, outcome in finished:
        result.attempts += 1
        if isinstance(outcome, GenerationRejected):
            result.generation_rejected += 1
            log.warning("generation rejected (%s): %s", item_id, outcome)
            continue
        fingerprint = _question_fingerprint(outcome.question)
        if fingerprint in seen_questions:
            result.duplicates_dropped += 1
            continue
        seen_questions.add(fingerprint)
        items.append(outcome)
    if error is not None:
        result.attempts += len(attempts[len(outcomes)][0])
        _abort(result, error)
    return items


def _path_attempts(
    topic: Topic, graph: KnowledgeGraph, config: PipelineConfig, services: Services, num_q: int
) -> list[Attempt]:
    """Each orientation's sampled (path, orientation) pairs, in pair order,
    in runs of up to ``BATCH``: one attempt, and one ``generate_mcq`` call,
    per run. The runs are queued by their first pair's position, so the
    first forward run and the first reverse run start together. A pair that
    recurs is salted by how often it came before. A ``GatewayError`` costs
    its own run and ends the stage; the runs queued before it keep their
    items, which ``_generate_items`` merges back into pair order."""
    occurrences: Counter = Counter()
    slug = _slug(topic.name)
    pairs: dict[str, list[tuple[int, tuple[PathSample, str, int]]]] = {o: [] for o in ORIENTATIONS}
    for index, (path, orientation) in enumerate(
        sample_paths(graph, graph.seed_id, config.d_max, num_q, config.rng_seed)
    ):
        key = (tuple(path.node_ids), orientation)
        item_id = f"{slug}-L{config.d_max}-{orientation[:3]}-{index:04d}"
        pairs[orientation].append((index, (path, item_id, occurrences[key])))
        occurrences[key] += 1
    attempts: list[Attempt] = [
        (
            [(index, item_id) for index, (_, item_id, _) in run],
            partial(
                generate_mcq, services.gateway, [slot for _, slot in run], orientation,
                topic.name, graph, config,
            ),
        )
        for orientation, own in pairs.items()
        for run in batches(own)
    ]
    return sorted(attempts, key=lambda attempt: attempt[0][0][0])


def _direct_attempts(
    topic: Topic, config: PipelineConfig, services: Services, num_q: int, with_evidence: bool
) -> list[Attempt]:
    """``num_q`` forward items on the topic, grounded in retrieved evidence
    when ``with_evidence``, each salted by its index: one attempt, and one
    call, per group of up to ``BATCH`` consecutive items. Every call's
    prompt carries all the passages; an item whose reply cites one of them
    keeps that passage alone as its source and provenance, and one whose
    reply cites none keeps them all. The evidence comes from
    ``choose_titles``, fetched, above bound 1, while the title check waits."""
    retrieval = RetrievalResult()
    if with_evidence:
        [(_, retrieval)] = choose_titles(
            [topic.name], services.source, services.gateway, config, [topic.optional_prompt],
            lambda term, title: retrieve_evidence(term, title, services.source, config),
        )
    passages = retrieval.texts()
    seed_node = normalize_name(topic.name)
    # (source, provenance) of an item by the passage its reply cites: index 0
    # for a reply that cites none, index n for passage n.
    sources = [
        (evidence_source(passages),
         provenance(seed_node, retrieval.ids(), retrieval.weights(), retrieval.fallback))
    ] + [
        (CITED_SOURCE + passage.text,
         provenance(seed_node, [passage.id], mixture_weights([passage.score]), False))
        for passage in retrieval.passages
    ]
    slug = _slug(topic.name)

    def parse(item_id: str, block: str) -> McqItem:
        number = parse_citation(block, len(retrieval.passages))
        source_context, record = sources[number or 0]
        item = mcq_item(
            block, id=item_id, topic=topic.name, level=config.d_max, orientation="forward",
            path=None, source_context=source_context, provenance=record,
        )
        if number is None and retrieval.passages:
            log.warning("%s cites no evidence passage; its source is all of them", item_id)
        return item

    def attempt(item_ids: list[str], variants: list[int]) -> list[Outcome]:
        request = ChatRequest(
            system_prompt=DIRECT_MCQ_SYSTEM,
            user_prompt=direct_mcq_user(topic.name, config.d_max, passages, variants),
            temperature=config.temp_desc,
            task_tag="mcq_forward",
        )
        return services.gateway.complete_items(
            request, [partial(parse, item_id) for item_id in item_ids], GenerationRejected
        )

    attempts: list[Attempt] = []
    for variants in batches(range(num_q)):
        ids = [f"{slug}-L{config.d_max}-dir-{index:04d}" for index in variants]
        attempts.append((list(zip(variants, ids)), partial(attempt, ids, variants)))
    return attempts


def validate_items(
    gateway: ChatGateway, items: list[McqItem], config: PipelineConfig
) -> tuple[list[McqItem], GatewayError | None]:
    """Run the critic over ``items`` and set the ``flags`` of those it
    finished. The items are stably ordered by the first appearance of their
    ``source_context``, so items on one source sit side by side, and
    ``batches`` cuts that order into runs of up to ``BATCH``; the gateway
    maps ``validate_item`` over the runs, and each report goes back to its
    own item. Returns the items of the finished groups, in input order, and
    the map's error; items of the failed group and of every group after it
    keep the flags they had."""
    rank: dict[str, int] = {}
    for item in items:
        rank.setdefault(item.source_context, len(rank))
    order = sorted(range(len(items)), key=lambda index: rank[items[index].source_context])
    groups = batches([items[index] for index in order])
    reports, error = gateway.map(lambda group: validate_item(gateway, group, config), groups)
    flags = [report for group in reports for report in group]
    for index, report in zip(order, flags):
        items[index].flags = report
    return [items[index] for index in sorted(order[: len(flags)])], error


def run_pipeline(
    topic: Topic,
    config: PipelineConfig,
    num_q: int,
    services: Services | None = None,
    force_critic: bool = False,
    graph: KnowledgeGraph | None = None,
) -> tuple[PipelineResult, Services]:
    """Execute the configured mode end to end. A pre-built ``graph`` skips
    construction (snapshot reuse). The critic runs when the mode's stage set
    has it or ``force_critic`` is set."""
    if num_q < 1:
        raise ConfigError("num_q must be >= 1")
    services = services or build_services(config)
    mode = config.pipeline_mode
    stage_tags = MODE_TASK_TAGS[mode]
    result = PipelineResult(topic=topic.name, mode=mode)

    if "triples" in stage_tags:
        if graph is None:
            graph, report = build_kg(
                topic, config, services.gateway, services.source, services.adapters,
                rejects=result.rejects,
            )
            result.build_report = report
            result.aborted_reason = report.aborted_reason
        result.graph = graph
        attempts = _path_attempts(topic, graph, config, services, num_q)
        if not attempts and result.aborted_reason is None:
            raise ConfigError(
                f"graph has no {config.d_max}-hop paths from the seed; "
                "increase --depth or loosen branching"
            )
    else:
        try:
            attempts = _direct_attempts(
                topic, config, services, num_q, with_evidence="title_check" in stage_tags
            )
        except GatewayError as exc:  # the topic's title check runs outside any map
            _abort(result, exc)
            attempts = []
    result.items = _generate_items(services.gateway, attempts, result)
    result.uncited = sum(item.source_context.startswith(EVIDENCE_SOURCE) for item in result.items)

    if force_critic or "validate" in stage_tags:
        validated, error = validate_items(services.gateway, result.items, config)
        result.kept_items = [item for item in validated if item.flags.kept]
        result.validation_dropped = len(validated) - len(result.kept_items)
        if error is not None:
            _abort(result, error)
    else:
        result.kept_items = list(result.items)

    if len(result.kept_items) < num_q:
        log.warning(
            "yield shortfall: %d of %d requested items delivered "
            "(generation_rejected=%d, duplicates_dropped=%d, validation_dropped=%d)",
            len(result.kept_items),
            num_q,
            result.generation_rejected,
            result.duplicates_dropped,
            result.validation_dropped,
        )

    stats, rows = compute_dataset_stats(result.kept_items, services.adapters, topic.name)
    result.stats = stats
    result.metric_rows = rows
    return result, services

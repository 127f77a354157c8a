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
its stages by reading the same table. ``triples`` is logged once for each
node above ``d_max`` whose gloss passes the gamma gate (see ``builder``),
so always for a seed that passes it.

Per-item work fans out through ``ChatGateway.map``, which also decides what a
failed call costs (see ``gateway``). Every mode generates the same way: it
fixes a list of ``(item id, attempt)`` pairs before the map, and
``_generate_items`` maps the attempts, then counts attempts and rejects and
drops repeated questions over the returned prefix. Only the attempts differ:
path modes call ``generate_mcq`` on sampled paths, direct modes prompt from
the topic and any retrieved evidence; each attempt builds its prompt when it
runs. The critic fixes groups of up to ``CRITIC_BATCH`` consecutive items
that share a ``source_context`` before the map, and maps ``validate_item``
over them: one critic call per group, where a reply block that does not
parse costs only its own item. A ``GatewayError`` the map returns ends its
stage with that prefix kept (for the critic, the groups before the failing
one), goes to ``PipelineResult.aborted_reason``, and later stages go on with
what was finished; a build cut short before any ``d_max``-hop path exists
leaves no attempts at all.
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
from .errors import ConfigError, GatewayError, GenerationRejected
from .fixture_world import FixtureWorld, load_world
from .gateway import ChatGateway, ChatRequest, MockChatBackend, OpenAiCompatBackend
from .graph import KnowledgeGraph, PathSample, Topic, normalize_name
from .metrics import DatasetStats, compute_dataset_stats
from .prompts import MCQ_FORWARD_SYSTEM, direct_mcq_user
from .qgen import McqItem, generate_mcq, request_mcq, sample_paths
from .retrieval import FixtureWikiSource, NetworkWikiSource, WikiSource, retrieve_evidence
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


def build_services(config: PipelineConfig) -> Services:
    world = load_world(config.fixture_dir or None)
    # Only fixture-backed scoring adapters exist, whatever the chat backend.
    adapters = AdapterSuite.fixture_suite(world, rng_seed=config.rng_seed)
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
    aborted_reason: str | None = None

    def tokens_per_kept_item(self, gateway: ChatGateway) -> float:
        prompt, completion = gateway.ledger.grand_total()
        if not self.kept_items:
            return 0.0
        return (prompt + completion) / len(self.kept_items)


def _slug(text: str) -> str:
    return normalize_name(text).replace(" ", "_") or "topic"


def _question_fingerprint(question: str) -> str:
    return " ".join(question.lower().split())


def _abort(result: PipelineResult, exc: GatewayError) -> None:
    if result.aborted_reason is None:
        result.aborted_reason = f"{type(exc).__name__}: {exc}"
        log.error("backend failure, stage cut short: %s", result.aborted_reason)


Attempt = tuple[str, Callable[[], McqItem]]


def _generate_items(
    gateway: ChatGateway, attempts: list[Attempt], result: PipelineResult
) -> list[McqItem]:
    """Map the attempts and apply the finished prefix of outcomes in input
    order: count attempts and rejects and drop repeated questions. The failed
    attempt, if any, counts as an attempt and ends the stage."""

    def generate(attempt: Attempt) -> McqItem | GenerationRejected:
        try:
            return attempt[1]()
        except GenerationRejected as exc:
            return exc

    outcomes, error = gateway.map(generate, attempts)
    items: list[McqItem] = []
    seen_questions: set[str] = set()
    for (item_id, _), outcome in zip(attempts, outcomes):
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
        result.attempts += 1
        _abort(result, error)
    return items


def _path_attempts(
    topic: Topic, graph: KnowledgeGraph, config: PipelineConfig, services: Services, num_q: int
) -> list[Attempt]:
    """One attempt per sampled (path, orientation) pair; a pair that recurs
    is salted by how often it came before."""

    def attempt(path: PathSample, orientation: str, item_id: str, variant: int) -> McqItem:
        return generate_mcq(
            services.gateway, path, orientation, topic.name, graph, config,
            item_id=item_id, variant=variant,
        )

    occurrences: Counter = Counter()
    slug = _slug(topic.name)
    attempts: list[Attempt] = []
    pairs = sample_paths(graph, graph.seed_id, config.d_max, num_q, config.rng_seed)
    for index, (path, orientation) in enumerate(pairs):
        key = (tuple(path.node_ids), orientation)
        item_id = f"{slug}-L{config.d_max}-{orientation[:3]}-{index:04d}"
        attempts.append((item_id, partial(attempt, path, orientation, item_id, occurrences[key])))
        occurrences[key] += 1
    return attempts


def _direct_attempts(
    topic: Topic, config: PipelineConfig, services: Services, num_q: int, with_evidence: bool
) -> list[Attempt]:
    """``num_q`` forward attempts on the topic, grounded in retrieved
    evidence when ``with_evidence``, each salted by its index."""
    passages: list[str] = []
    passage_ids: list[str] = []
    fallback = True
    if with_evidence:
        retrieval = retrieve_evidence(
            topic.name,
            services.source,
            services.gateway,
            config,
            context_hint=topic.optional_prompt or "general knowledge",
        )
        passages = retrieval.texts()
        passage_ids = retrieval.ids()
        fallback = retrieval.fallback
    source_context = (
        "Evidence passages:\n" + "\n\n".join(passages)
        if passages
        else "No source information provided."
    )
    slug = _slug(topic.name)

    def attempt(item_id: str, variant: int) -> McqItem:
        request = ChatRequest(
            system_prompt=MCQ_FORWARD_SYSTEM,
            user_prompt=direct_mcq_user(topic.name, config.d_max, passages, variant=variant),
            temperature=config.temp_desc,
            task_tag="mcq_forward",
        )
        return request_mcq(
            services.gateway,
            request,
            id=item_id,
            topic=topic.name,
            level=config.d_max,
            orientation="forward",
            path=None,
            source_context=source_context,
            provenance={
                "seed_node": slug,
                "passage_ids": passage_ids,
                "mixture_weights": [],
                "parametric_fallback": fallback,
            },
        )

    ids = [f"{slug}-L{config.d_max}-dir-{index:04d}" for index in range(num_q)]
    return [(item_id, partial(attempt, item_id, index)) for index, item_id in enumerate(ids)]


# Items per critic call. Batch prompting (Cheng, Kasai and Yu, EMNLP 2023,
# arXiv 2301.08721) cuts calls and tokens near-linearly in the batch size,
# but a real model's verdicts lose some accuracy as the batch grows.
CRITIC_BATCH = 10


def validate_items(
    gateway: ChatGateway, items: list[McqItem], config: PipelineConfig
) -> tuple[list[McqItem], GatewayError | None]:
    """Run the critic over ``items`` and set the ``flags`` of the finished
    prefix. The items are split, in order, into groups of up to
    ``CRITIC_BATCH`` consecutive items with the same ``source_context``, and
    the gateway maps ``validate_item`` over the groups. Returns the items of
    the finished groups and the map's error; items after them keep the
    flags they had."""
    groups: list[list[McqItem]] = []
    for item in items:
        group = groups[-1] if groups else None
        if group and len(group) < CRITIC_BATCH and group[0].source_context == item.source_context:
            group.append(item)
        else:
            groups.append([item])

    reports, error = gateway.map(lambda group: validate_item(gateway, group, config), groups)
    flags = [report for group in reports for report in group]
    for item, report in zip(items, flags):
        item.flags = report
    return items[: len(flags)], error


def run_pipeline(
    topic: Topic,
    config: PipelineConfig,
    num_q: int,
    services: Services | None = None,
    validate_flag: bool | None = None,
    graph: KnowledgeGraph | None = None,
) -> tuple[PipelineResult, Services]:
    """Execute the configured mode end to end. A pre-built ``graph`` skips
    construction (snapshot reuse). ``validate_flag`` overrides the mode's
    critic stage: True forces it on, False suppresses it, None leaves the
    mode's own stage set in charge."""
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
        attempts = _direct_attempts(
            topic, config, services, num_q, with_evidence="title_check" in stage_tags
        )
    result.items = _generate_items(services.gateway, attempts, result)

    run_critic = "validate" in stage_tags if validate_flag is None else validate_flag
    if run_critic:
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

"""Provider-agnostic chat adapter with per-task accounting.

Two backends ship: an OpenAI-compatible network client with retries, and a
deterministic mock whose replies are a pure function of (task tag, the
fields a prompt gives, rng seed) over the fixture tables. The gateway
wrapper owns the token ledger and the in-flight bound.

``ChatGateway.map`` is the one place in the package that starts threads and
the one rule for what a failed call costs: every fan-out goes through it.
It maps a fixed list in input order, returns the results of the longest
prefix that finished without a ``GatewayError`` with that error, and starts
nothing after the first failure in input order. Callers apply results in
input order, so a run's outputs are the same at any ``max_inflight``. That
bound counts backend calls, not threads: one spare thread keeps the CPU
work between calls off the call slots.
"""

from __future__ import annotations

import hashlib
import logging
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Protocol, TypeVar

from .errors import AuthError, EmptyResponseError, GatewayError, RetriesExhaustedError
from .fixture_world import FixtureWorld
from .graph import normalize_name
from .prompts import (
    CITATION,
    DIRECT_MCQ_SYSTEM,
    GLOSS_HEADINGS,
    HOP,
    OPTION_LETTERS,
    VALIDATE_LABELS,
    mcq_reply,
    parse_item_blocks,
    read_field,
    read_passages,
    split_items,
    triples_reply,
    verdict_lines,
)

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")
E = TypeVar("E", bound=Exception)

TASK_TAGS = ("gloss", "triples", "title_check", "mcq_forward", "mcq_reverse", "validate")


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    user_prompt: str
    temperature: float
    task_tag: str
    max_tokens: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 1]")
        if self.task_tag not in TASK_TAGS:
            raise ValueError(f"unknown task tag {self.task_tag!r}")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


class TokenLedger:
    """Cumulative (prompt, completion) token counters keyed by task tag."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, tuple[int, int]] = {}

    def record(self, tag: str, prompt_tokens: int, completion_tokens: int) -> None:
        with self._lock:
            prev = self._counts.get(tag, (0, 0))
            self._counts[tag] = (prev[0] + prompt_tokens, prev[1] + completion_tokens)

    def totals(self) -> dict[str, tuple[int, int]]:
        with self._lock:
            return dict(self._counts)

    def grand_total(self) -> tuple[int, int]:
        totals = self.totals()
        return (
            sum(p for p, _ in totals.values()),
            sum(c for _, c in totals.values()),
        )

    def tags_seen(self) -> set[str]:
        with self._lock:
            return set(self._counts)


class ChatGateway:
    """Shareable front door to a chat backend: ledger + bounded fan-out."""

    def __init__(self, backend: ChatBackend, max_inflight: int = 1):
        self.backend = backend
        self.max_inflight = max_inflight
        self.ledger = TokenLedger()
        self._slots = threading.Semaphore(max_inflight)

    def map(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> tuple[list[R], GatewayError | None]:
        """``[fn(item) for item in items]``, in input order. Serial at bound 1,
        else on ``max_inflight + 1`` threads: ``complete`` still holds calls
        to the bound, and the spare thread does CPU work while they wait,
        such as the evidence fetches ``choose_titles`` maps beside its checks.

        Returns the results of the longest prefix of ``items`` that finished
        without raising and None, or, when the first exception in input
        order is a ``GatewayError``, that prefix and the error. Any other
        first exception propagates. Nothing after a failure starts, apart
        from items already in flight, and every thread is joined before this
        returns."""
        items = list(items)
        lock = threading.Lock()
        stop = sys.maxsize

        def call(index: int) -> tuple[R | None, Exception | None] | None:
            nonlocal stop
            if index > stop:
                return None
            try:
                return fn(items[index]), None
            except Exception as exc:
                with lock:
                    stop = min(stop, index)
                return None, exc

        pool = ThreadPoolExecutor(self.max_inflight + 1) if self.max_inflight > 1 else None
        results: list[R] = []
        try:
            indices = range(len(items))
            # A skipped item (None) lies past a failure this loop stops at.
            for value, exc in map(call, indices) if pool is None else pool.map(call, indices):
                if isinstance(exc, GatewayError):
                    return results, exc
                if exc is not None:
                    raise exc
                results.append(value)
            return results, None
        finally:
            stop = -1  # start nothing more
            if pool is not None:
                pool.shutdown()

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._slots:
            response = self.backend.complete(request)
        self.ledger.record(request.task_tag, response.prompt_tokens, response.completion_tokens)
        return response

    def complete_items(
        self, request: ChatRequest, parsers: list[Callable[[str], T]], error: type[E]
    ) -> list[T | E]:
        """One call, its reply parsed by ``prompts.parse_item_blocks``."""
        return parse_item_blocks(self.complete(request).text, parsers, error)


class OpenAiCompatBackend:
    """Chat-completions client for any OpenAI-compatible endpoint. Calls go
    through one ``requests.Session``, so they reuse its pooled connections.

    Transient failures (timeouts, 408, 429, 5xx) are retried with jittered
    exponential backoff. Auth failures, any other 4xx, and a 200 reply that
    is not JSON or has no text are raised immediately. A token count that is
    missing or unreadable reads as 0.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str,
        model: str,
        retry_attempts: int = 3,
        timeout: float = 60.0,
    ):
        if not api_key:
            raise AuthError("no API key configured (set OPENAI_API_KEY)")
        import requests

        self.session = requests.Session()
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.model = model
        self.retry_attempts = retry_attempts
        self.timeout = timeout

    def complete(self, request: ChatRequest) -> ChatResponse:
        import requests

        payload: dict = {
            "model": self.model,
            "temperature": request.temperature,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
        }
        if request.max_tokens is not None:
            payload["max_tokens"] = request.max_tokens

        last_error: Exception | None = None
        for attempt in range(self.retry_attempts):
            try:
                resp = self.session.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code in (401, 403):
                    raise AuthError(f"backend rejected credentials ({resp.status_code})")
                if resp.status_code == 200:
                    try:
                        doc = resp.json()
                    except ValueError as exc:
                        raise EmptyResponseError(f"backend sent a non-JSON body: {exc}") from exc
                    return self._parse(doc)
                last_error = GatewayError(f"backend returned {resp.status_code}")
                if 400 <= resp.status_code < 500 and resp.status_code not in (408, 429):
                    raise last_error
            if attempt + 1 < self.retry_attempts:
                delay = (2**attempt) * 0.5 * (1.0 + random.random())
                log.warning("chat call failed (%s); retrying in %.1fs", last_error, delay)
                time.sleep(delay)
        raise RetriesExhaustedError(f"gave up after {self.retry_attempts} attempts: {last_error}")

    @staticmethod
    def _parse(doc: dict) -> ChatResponse:
        try:
            text = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EmptyResponseError(f"unexpected response shape: {exc}") from exc
        if not isinstance(text, str) or not text.strip():
            raise EmptyResponseError(f"backend returned no text: {text!r:.80}")
        usage = doc.get("usage")
        return ChatResponse(
            text=text,
            prompt_tokens=_token_count(usage, "prompt_tokens"),
            completion_tokens=_token_count(usage, "completion_tokens"),
        )


def _token_count(usage: object, key: str) -> int:
    """``usage[key]`` as an int; 0 when either is missing, null or unreadable."""
    try:
        return int(usage[key])
    except (LookupError, TypeError, ValueError, OverflowError):
        return 0


@dataclass
class MockOverride:
    """Exact-response override: fires when the tag matches and the substring
    occurs in either prompt. Used by tests to plant adversarial replies. In
    a prompt with "Item N" slots, a substring that occurs inside one slot
    only replaces that slot's reply block under the mock's own header; one
    in the shared head, in several slots or in a prompt without slots
    replaces the whole reply. A critic group on several sources writes them
    in its head, and a group on several path sources writes each node's
    description and each excerpt line no description implies once, in a
    node block in its head; so an override keyed on a source, or on node
    text in the node block, replaces the whole reply, as does one keyed on
    a topic that every slot of a critic group shares, which the head gives
    once. A build call writes a parent or context hint that all its slots
    share once in its head, and otherwise each term's own in the term's
    slot; either way an override keyed on a parent name shared by several
    slots of one call replaces the whole reply. A gloss call gives the rule
    for its context blocks once, in its head, so an override keyed on that
    rule replaces the whole reply; each block stays in its own slot. A
    path-generation call writes each start and end node's name and
    description once, in a node block in its head, so an override keyed on
    a node name or description replaces the whole reply; one keyed on text
    only its slot carries (its ``Path:`` line, or ``End Node: "X"``)
    replaces that slot's block. The mock's own replies are salted on the
    request's fields (see ``MockChatBackend``), so moving text between the
    head and a slot changes which override fires, not what the mock says.
    A direct-generation call writes its numbered evidence passages once, in
    its head, so an override keyed on a passage's text replaces the whole
    reply."""

    task_tag: str
    substring: str
    response: str


_FORWARD_STEMS = (
    "Which of the following is reached from {start} by following {rels}?",
    "Starting at {start} and tracing {rels}, which entity do you arrive at?",
    "If you follow {rels} outward from {start}, which of these do you reach?",
    "Which entity lies at the end of the chain from {start} through {rels}?",
    "Tracing the route {rels} away from {start} leads to which of the following?",
)

_REVERSE_STEMS = (
    "Which of the following reaches {end} by following {rels}?",
    "Which entity, tracing {rels}, ultimately connects to {end}?",
    "From which of these does the chain through {rels} arrive at {end}?",
    "Which starting point leads to {end} along {rels}?",
    "Working backward from {end} along {rels}, which entity do you reach?",
)

_DIRECT_STEMS = (
    "Which of the following is most closely associated with {topic} through {aspect}?",
    "In the study of {topic}, which of these is tied to {aspect}?",
    "Which option belongs to {topic}, particularly regarding {aspect}?",
    "Considering {aspect}, which of the following falls under {topic}?",
)


class MockChatBackend:
    """Deterministic, table-driven stand-in for the network backend.

    Every reply is derived from the fixture world plus a salt computed as
    sha256 of the seed and the fields the mock reads from the request: a
    path item's tag, topic, hop chain and variation tag; a direct item's
    topic, level, variation tag and evidence text. The evidence is read
    without its passage numbers (``prompts.read_passages``), so numbering
    the passages moves no question, option or key. The salt never reads the
    system prompt or a prompt's layout, so a request that gives the same
    fields in another order or spacing gets the same bytes, and different
    seeds explore different shapes. A prompt that loses a field still
    loses it from the reply. The fields a call's items share are read once
    per call, from its head. A generation call is answered as a direct one
    when its system prompt is ``DIRECT_MCQ_SYSTEM``, else as a path one. A
    direct reply cites, in an ``Evidence: [n]`` line, the first numbered
    passage that holds its keyed aspect, ignoring case; the passages are
    lowercased once per call. The mock reads every request field through
    ``prompts.read_field``, and writes each block by its ``prompts`` writer.
    """

    def __init__(
        self,
        world: FixtureWorld,
        rng_seed: int = 0,
        overrides: list[MockOverride] | None = None,
    ):
        self.world = world
        self.rng_seed = rng_seed
        self.overrides = list(overrides or [])
        names = world.sorted_names()
        self._names = list(zip(names, [name.lower() for name in names]))

    def complete(self, request: ChatRequest) -> ChatResponse:
        combined = request.system_prompt + "\n" + request.user_prompt
        text = self._dispatch(request, combined)
        return ChatResponse(
            text=text,
            prompt_tokens=len(combined.split()),
            completion_tokens=len(text.split()),
        )

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, request: ChatRequest, combined: str) -> str:
        head, slots = split_items(combined)
        planted: dict[int, str] = {}
        for override in self.overrides:
            if override.task_tag == request.task_tag and override.substring in combined:
                hits = [number for number, slot in slots if override.substring in slot]
                if override.substring in head or len(hits) != 1:
                    return override.response
                planted.setdefault(hits[0], override.response)
        # One block per slot, each read from the head and its own slot.
        replies = {
            "title_check": self._title_check,
            "gloss": partial(self._gloss, head),
            "triples": self._triples,
            "validate": partial(self._verdicts, head),
        }
        reply = replies.get(request.task_tag)
        # Generation calls are routed by their system prompt, never by text
        # that a node description in the head might also hold.
        if reply is None and request.system_prompt == DIRECT_MCQ_SYSTEM:
            topic = read_field("direct_topic", head) or "the subject"
            level = read_field("level", head) or ""
            evidence = read_field("evidence", head) or ""
            passages = read_passages(evidence)
            if passages is not None:  # salt on the passages without their numbers
                evidence = "\n\n".join(passages)
            lowered = [passage.lower() for passage in passages or ()]
            reply = partial(self._direct_mcq, topic, level, evidence, lowered)
        elif reply is None:
            # The topic line, when there is one, is the prompt's first line.
            topic = read_field("path_topic", request.user_prompt.partition("\n")[0]) or ""
            reply = partial(self._path_mcq, request.task_tag, topic)
        return "\n\n".join(
            f"Item {number}\n{planted[number] if number in planted else reply(slot)}"
            for number, slot in slots
        )

    def _salt(self, *parts: str) -> int:
        digest = hashlib.sha256(
            ":".join((str(self.rng_seed),) + parts).encode("utf-8")
        ).hexdigest()
        return int(digest[:16], 16)

    # -- per-task synthesis ------------------------------------------------

    def _title_check(self, slot: str) -> str:
        term = read_field("check_term", slot) or ""
        title = read_field("check_title", slot) or ""
        t_norm, title_norm = normalize_name(term), normalize_name(title)
        if t_norm and (t_norm == title_norm or t_norm in title_norm or title_norm in t_norm):
            return "Yes"
        return "No"

    def _gloss(self, head: str, slot: str) -> str:
        """One term's gloss: the term and its context, read from its own
        slot, and its parent, read from its slot or else the shared head."""
        term = read_field("term", slot) or "the subject"
        parent = read_field("parent", slot) or read_field("shared_parent", head)
        context = read_field("context", slot) or ""
        entry = self.world.lookup_term(term)
        hint = entry.hint if entry else f"a specialized notion encountered while studying {parent or 'its field'}"

        sentences = [s.strip() for s in re.split(r"(?<=[.!?])\s+", context.strip()) if s.strip()]
        related = ", ".join(t[2] for t in entry.triples) if entry and entry.triples else "adjacent concepts"

        def ctx(i: int, fallback: str) -> str:
            return sentences[i] if i < len(sentences) else fallback

        bodies = [
            f"{term}: {hint}. {ctx(0, '')}".rstrip(),
            ctx(1, f"{term} appears across research and teaching."),
            ctx(2, f"{term} divides into several named strands."),
            ctx(3, f"Central ideas organize how {term} works."),
            ctx(4, f"{term} informs practical decisions."),
            ctx(5, f"Worked examples illustrate {term} in use."),
            f"Closely related: {related}.",
            ctx(6, f"Active work continues to refine {term}."),
        ]
        lines = [f"{i}. {heading} - {body}"
                 for i, (heading, body) in enumerate(zip(GLOSS_HEADINGS, bodies), start=1)]
        if parent:
            lines.append(f"Relationship to parent: {term} sits within {parent}.")
        return "\n".join(lines)

    def _triples(self, slot: str) -> str:
        # A mock gloss names its subject in the first section header; text
        # without that header gets no triplets.
        header = re.search(rf"1\. {re.escape(GLOSS_HEADINGS[0])} - ([^:]+):", slot)
        entry = self.world.lookup_term(header.group(1).strip()) if header else None
        if entry is None or not entry.triples:
            return triples_reply([])
        triples = list(entry.triples)
        rotation = self._salt("triples", entry.name) % len(triples)
        return triples_reply(triples[rotation:] + triples[:rotation])

    def _mcq(self, stem: str, answer: str, avoid: list[str], salt: int) -> str:
        """An item's reply lines: ``answer`` at option ``salt % 4`` among three distractors."""
        avoid_low = [a.lower() for a in avoid if a]
        pool = [
            name
            for name, low in self._names
            if not any(a in low or low in a for a in avoid_low)
        ]
        rng = random.Random(salt)
        if len(pool) < 3:
            pool = pool + [f"Unrelated concept {i}" for i in range(1, 4)]
        options = rng.sample(pool, 3)
        options.insert(salt % 4, answer)
        return mcq_reply(stem, options, OPTION_LETTERS[salt % 4])

    def _path_mcq(self, tag: str, topic: str, slot: str) -> str:
        """One path item's reply, from the call's tag and topic and the
        slot's path, start and end nodes and variation tag, never from the
        slot's number, the group's size or the prompt's layout."""
        start = read_field("start", slot)
        end = read_field("end", slot)
        path = read_field("path", slot) or ""
        rels = HOP.split(path)[1::2]
        rels_text = " and then ".join(r.replace("_", " ") for r in rels) or "the linking relation"
        variant = int(read_field("variant", slot) or 0)
        if tag == "mcq_forward":
            stem = _FORWARD_STEMS[variant % len(_FORWARD_STEMS)].format(start=start, rels=rels_text)
            answer = end
        else:
            stem = _REVERSE_STEMS[variant % len(_REVERSE_STEMS)].format(end=end, rels=rels_text)
            answer = start
        salt = self._salt(tag, topic, path, str(variant))
        return self._mcq(stem, answer, [start, end], salt)

    def _direct_mcq(
        self, topic: str, level: str, evidence: str, passages: list[str], slot: str
    ) -> str:
        """One direct item's reply, from the call's topic, level and evidence
        text and the slot's variation tag, never from the slot's number, the
        group's size or the prompt's layout. It cites the first of the
        call's numbered ``passages`` (lowercased) that holds its keyed
        aspect, and none when no passage does."""
        variant = int(read_field("variant", slot) or 0)
        entry = self.world.lookup_term(topic)
        aspects = [t[2] for t in entry.triples] if entry and entry.triples else [f"{topic} fundamentals"]
        aspect = aspects[variant % len(aspects)]
        template = _DIRECT_STEMS[(variant // len(aspects)) % len(_DIRECT_STEMS)]
        stem = template.format(topic=topic, aspect=aspect.lower())
        salt = self._salt("direct", topic, level, str(variant), evidence)
        reply = self._mcq(stem, aspect, [aspect, topic], salt)
        needle = aspect.lower()
        cited = next((n for n, text in enumerate(passages, start=1) if needle in text), None)
        return reply if cited is None else f"{reply}\n{CITATION.format(cited)}"

    def _verdicts(self, head: str, slot: str) -> str:
        """One item's five check lines; its topic is read from its own slot,
        or else from the shared head."""
        topic = read_field("val_topic", slot)
        if topic is None:
            topic = read_field("val_topic", head) or ""
        topic_line = "YES" if topic.strip() else "N/A"  # the last label's verdict
        return verdict_lines(["YES"] * (len(VALIDATE_LABELS) - 1) + [topic_line])

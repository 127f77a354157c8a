"""Provider-agnostic chat adapter with per-task accounting.

Two backends ship: an OpenAI-compatible network client with retries, and a
deterministic mock whose replies are a pure function of
(task tag, prompt hash, rng seed) over the fixture tables. The gateway
wrapper owns the token ledger and the in-flight bound.

``ChatGateway.map`` is the one place in the package that starts threads and
the one rule for what a failed call costs: every fan-out goes through it.
It maps a FIFO queue that an ordered consumer may extend, returns the
results of the longest prefix that finished without a ``GatewayError``
with that error, and starts nothing after the first failure in queue
order. Results are applied in queue order, so a run's outputs are the same
at any ``max_inflight``. That bound counts backend calls, not threads: one
spare thread keeps the CPU work between calls off the call slots.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import re
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, TypeVar

from .errors import AuthError, EmptyResponseError, GatewayError, RetriesExhaustedError
from .fixture_world import FixtureWorld
from .graph import normalize_name

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

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
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        then: Callable[[T, R], Iterable[T]] | None = None,
    ) -> tuple[list[R], GatewayError | None]:
        """``[fn(item) for item in queue]``, the FIFO queue starting as
        ``items``. ``then(item, result)``, if given, runs on the caller's
        thread for each result in queue order once every earlier item has
        finished; the items it returns join the queue. Serial at bound 1, else
        on ``max_inflight + 1`` threads: ``complete`` still holds calls to the
        bound, and the spare thread does its CPU work between calls while a
        full bound of calls waits.

        Returns the results of the longest prefix of the queue that finished
        without raising and None, or, when the first exception in queue order
        is a ``GatewayError``, that prefix and the error; ``then`` is not
        called past it. Any other first exception, from ``fn`` or ``then``,
        propagates. Nothing after a failure starts, apart from items already
        in flight, and every thread is joined before this returns."""
        queue: list[T] = []
        futures: list[Future] = []
        lock = threading.Lock()
        stop = sys.maxsize

        def call(index: int) -> tuple[R | None, Exception | None] | None:
            nonlocal stop
            if index > stop:
                return None
            try:
                return fn(queue[index]), None
            except Exception as exc:
                with lock:
                    stop = min(stop, index)
                return None, exc

        pool = ThreadPoolExecutor(self.max_inflight + 1) if self.max_inflight > 1 else None

        def push(new: Iterable[T]) -> None:
            for item in new:
                queue.append(item)
                if pool is not None:
                    futures.append(pool.submit(call, len(queue) - 1))

        results: list[R] = []
        try:
            push(items)
            while len(results) < len(queue):
                index = len(results)
                # A skipped item (None) lies past a failure this loop stops at.
                value, exc = call(index) if pool is None else futures[index].result()
                if isinstance(exc, GatewayError):
                    return results, exc
                if exc is not None:
                    raise exc
                results.append(value)
                if then is not None:
                    push(then(queue[index], value))
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


class OpenAiCompatBackend:
    """Chat-completions client for any OpenAI-compatible endpoint. Calls go
    through one ``requests.Session``, so they reuse its pooled connections.

    Transient failures (timeouts, 429, 5xx) are retried with jittered
    exponential backoff; auth failures and a 200 reply that is not JSON or
    has no text are raised immediately.
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
        if not (text or "").strip():
            raise EmptyResponseError("backend returned empty text")
        usage = doc.get("usage", {})
        return ChatResponse(
            text=text,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
        )


@dataclass
class MockOverride:
    """Exact-response override: fires when the tag matches and the substring
    occurs in either prompt. Used by tests to plant adversarial replies."""

    task_tag: str
    substring: str
    response: str


_QUOTED = {
    "term": re.compile(r'Explain the term: "([^"]+)"'),
    "check_term": re.compile(r'Term to define: "([^"]+)"'),
    "check_title": re.compile(r'Candidate page title: "([^"]+)"'),
    "parent": re.compile(r'parent term "([^"]+)"'),
    "path": re.compile(r'Path: "([^"]+)"'),
    "start": re.compile(r'Start Node: "([^"]+)"'),
    "end": re.compile(r'End Node: "([^"]+)"'),
    "topic": re.compile(r'overall topic: "([^"]+)"'),
    "direct_topic": re.compile(r'about the topic "([^"]+)"'),
    "level": re.compile(r"at difficulty level (\d+)"),
    "variant": re.compile(r"Variation tag: (\d+)"),
    "val_topic": re.compile(r'Topic \(optional\): "([^"]*)"'),
}

_CRITIC_SLOT = re.compile(r"^Item (\d+)$", re.MULTILINE)
_CONTEXT_BLOCK = re.compile(r"--- (?:Context|Evidence) ---\n(.*?)\n--- End", re.DOTALL)
_PATH_RELS = re.compile(r"--\[([a-z0-9_]+)\]-->")

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
    sha256(seed, task tag, prompts), so identical requests always produce
    identical bytes and different seeds explore different shapes.
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
        for override in self.overrides:
            if override.task_tag == request.task_tag and override.substring in combined:
                return override.response
        if request.task_tag == "title_check":
            return self._title_check(combined)
        if request.task_tag == "gloss":
            return self._gloss(combined)
        if request.task_tag == "triples":
            return self._triples(combined)
        if request.task_tag in ("mcq_forward", "mcq_reverse"):
            return self._mcq(request.task_tag, combined)
        if request.task_tag == "validate":
            return self._validate(combined)
        raise GatewayError(f"mock cannot serve tag {request.task_tag!r}")

    def _salt(self, *parts: str) -> int:
        digest = hashlib.sha256(
            ":".join((str(self.rng_seed),) + parts).encode("utf-8")
        ).hexdigest()
        return int(digest[:16], 16)

    @staticmethod
    def _slot(name: str, text: str) -> str | None:
        match = _QUOTED[name].search(text)
        return match.group(1) if match else None

    # -- per-task synthesis ------------------------------------------------

    def _title_check(self, combined: str) -> str:
        term = self._slot("check_term", combined) or ""
        title = self._slot("check_title", combined) or ""
        t_norm, title_norm = normalize_name(term), normalize_name(title)
        if t_norm and (t_norm == title_norm or t_norm in title_norm or title_norm in t_norm):
            return "Yes"
        return "No"

    def _gloss(self, combined: str) -> str:
        term = self._slot("term", combined) or "the subject"
        parent = self._slot("parent", combined)
        context_match = _CONTEXT_BLOCK.search(combined)
        entry = self.world.lookup_term(term)
        hint = entry.hint if entry else f"a specialized notion encountered while studying {parent or 'its field'}"

        if context_match:
            sentences = [
                s.strip() for s in re.split(r"(?<=[.!?])\s+", context_match.group(1).strip()) if s.strip()
            ]
        else:
            sentences = []
        related = ", ".join(t[2] for t in entry.triples) if entry and entry.triples else "adjacent concepts"

        def ctx(i: int, fallback: str) -> str:
            return sentences[i] if i < len(sentences) else fallback

        lines = [
            f"1. Definition and Scope - {term}: {hint}. {ctx(0, '')}".rstrip(),
            f"2. Domains of Use - {ctx(1, f'{term} appears across research and teaching.')}",
            f"3. Subfields and Disciplines - {ctx(2, f'{term} divides into several named strands.')}",
            f"4. Key Concepts and Mechanisms - {ctx(3, f'Central ideas organize how {term} works.')}",
            f"5. Real-World Applications - {ctx(4, f'{term} informs practical decisions.')}",
            f"6. Case Studies and Examples - {ctx(5, f'Worked examples illustrate {term} in use.')}",
            f"7. Related and Overlapping Terms - Closely related: {related}.",
            f"8. Current Research and Trends - {ctx(6, f'Active work continues to refine {term}.')}",
        ]
        if parent:
            lines.append(f"Relationship to parent: {term} sits within {parent}.")
        return "\n".join(lines)

    def _triples(self, combined: str) -> str:
        # A mock gloss names its subject in the first section header; only
        # free-form text falls back to the longest fixture-term mention.
        header = re.search(r"1\. Definition and Scope - ([^:]+):", combined)
        if header:
            entry = self.world.lookup_term(header.group(1).strip())
        else:
            entry = self.world.find_term_in_text(combined)
        if entry is None or not entry.triples:
            return json.dumps({"triplets": []})
        triples = list(entry.triples)
        rotation = self._salt("triples", entry.name) % len(triples)
        triples = triples[rotation:] + triples[:rotation]
        payload = [
            {"head": h, "relation": r, "tail": t} for h, r, t in triples
        ]
        return json.dumps({"triplets": payload}, indent=2)

    def _distractors(self, avoid: list[str], salt: int) -> list[str]:
        avoid_low = [a.lower() for a in avoid if a]
        pool = [
            name
            for name, low in self._names
            if not any(a in low or low in a for a in avoid_low)
        ]
        rng = random.Random(salt)
        if len(pool) < 3:
            pool = pool + [f"Unrelated concept {i}" for i in range(1, 4)]
        return rng.sample(pool, 3)

    @staticmethod
    def _format_mcq(stem: str, answer: str, distractors: list[str], key_index: int) -> str:
        options = list(distractors)
        options.insert(key_index, answer)
        letters = ("A", "B", "C", "D")
        lines = [f"Question: {stem}"]
        lines += [f"{letter}) {text}" for letter, text in zip(letters, options)]
        lines.append(f"Correct Answer: {letters[key_index]}")
        return "\n".join(lines)

    def _mcq(self, tag: str, combined: str) -> str:
        start = self._slot("start", combined)
        end = self._slot("end", combined)
        if start and end:
            rels = _PATH_RELS.findall(self._slot("path", combined) or "")
            rels_text = " and then ".join(r.replace("_", " ") for r in rels) or "the linking relation"
            variant = int(self._slot("variant", combined) or 0)
            if tag == "mcq_forward":
                stem = _FORWARD_STEMS[variant % len(_FORWARD_STEMS)].format(start=start, rels=rels_text)
                answer = end
            else:
                stem = _REVERSE_STEMS[variant % len(_REVERSE_STEMS)].format(end=end, rels=rels_text)
                answer = start
            salt = self._salt(tag, combined)
            return self._format_mcq(stem, answer, self._distractors([start, end], salt), salt % 4)
        return self._direct_mcq(combined)

    def _direct_mcq(self, combined: str) -> str:
        topic = self._slot("direct_topic", combined) or "the subject"
        variant = int(self._slot("variant", combined) or 0)
        entry = self.world.lookup_term(topic)
        aspects = [t[2] for t in entry.triples] if entry and entry.triples else [f"{topic} fundamentals"]
        aspect = aspects[variant % len(aspects)]
        template = _DIRECT_STEMS[(variant // len(aspects)) % len(_DIRECT_STEMS)]
        stem = template.format(topic=topic, aspect=aspect.lower())
        salt = self._salt("direct", combined)
        return self._format_mcq(stem, aspect, self._distractors([aspect, topic], salt), salt % 4)

    def _validate(self, combined: str) -> str:
        """One block per "Item N" slot of the prompt; each reads only its
        slot's topic."""
        parts = _CRITIC_SLOT.split(combined)
        return "\n\n".join(
            f"Item {number}\n{self._verdicts(slot)}"
            for number, slot in zip(parts[1::2], parts[2::2])
        )

    def _verdicts(self, slot: str) -> str:
        topic = self._slot("val_topic", slot) or ""
        topic_line = "YES" if topic.strip() else "N/A"
        return (
            "Grammar_Fluency: YES\n"
            "Single_Correct_Key: YES\n"
            "Option_Uniqueness: YES\n"
            "Answerable_From_Source: YES\n"
            f"Topic_Relevant: {topic_line}"
        )

"""Evidence gathering and ranking: title search, relevance check, summary and
page fetch, chunking, two-stage scoring, and mixture weights.

Sources sit behind the ``WikiSource`` protocol; the fixture source reads a
directory of title -> text files so tests never touch the network.

Evidence comes with the title check. ``choose_titles`` searches each term
of a group, then asks title-check rounds, one call per ``TITLE_BATCH``
terms, each term under its own context hint (one level of the graph build,
or one topic); above bound 1 a round's ``gateway.map`` also runs the
caller's fetch of each asked candidate, kept if the check approves it.
``retrieve_evidence`` is that fetch. It names every candidate passage
``<title>#summary`` or ``<title>#chunk<i>`` and ``score_and_rerank`` ranks
those ``(id, text)`` pairs under the ids it is given: BM25 first cuts more
than ``FIRST_STAGE_CUT`` candidates down to that many, and both stages read
each text's ``Terms``. The same text is never sent twice: a chunk whose
text equals an earlier candidate's is dropped before ranking, and a ranked
passage whose text occurs inside a higher-ranked kept one, such as a page
summary inside its chunk 0, is dropped after the cut to ``search_limit``.

The two decide what a failed lookup costs: a search or fetch error logs a
warning and yields the parametric fallback, as a term with no relevant
title does; a ``GatewayError`` from a title check propagates, and nothing
fetched in its round is used.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Collection, NamedTuple, Protocol, Sequence
from urllib.parse import quote

from . import prompts
from .config import PipelineConfig
from .errors import AmbiguousTitleError, PageNotFoundError, RetrievalError
from .fixture_world import FixtureWorld
from .gateway import ChatGateway, ChatRequest
from .prompts import TITLE_CHECK_SYSTEM, parse_title_answer, title_check_user, truncate_at_word

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\S+")
# The end of a token that closes a sentence: ".", "!" or "?", then closing
# quotes or brackets.
_SENTENCE_END = re.compile(r"[.!?][\"')\]]*(?!\S)")
_LOOKUP_ERRORS = (RetrievalError, PageNotFoundError, AmbiguousTitleError)
FIRST_STAGE_CUT = 50


@dataclass(frozen=True)
class Passage:
    id: str
    text: str
    score: float

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("passage text must be non-empty")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"passage score {self.score} outside [0, 1]")


@dataclass
class RetrievalResult:
    """A term's evidence, best passage first. ``RetrievalResult()``, with no
    passage, is the parametric fallback: the model's own knowledge."""

    passages: list[Passage] = field(default_factory=list)

    @property
    def fallback(self) -> bool:
        return not self.passages

    def texts(self) -> list[str]:
        return [p.text for p in self.passages]

    def ids(self) -> list[str]:
        return [p.id for p in self.passages]

    def scores(self) -> list[float]:
        return [p.score for p in self.passages]

    def weights(self) -> list[float]:
        """Each passage's mixture weight; none for the fallback."""
        return mixture_weights(self.scores()) if self.passages else []


class WikiSource(Protocol):
    def search(self, term: str, limit: int) -> list[str]: ...

    def summary(self, title: str, max_chars: int) -> str: ...

    def page_text(self, title: str) -> str: ...


class FixtureWikiSource:
    """Offline source backed by the fixture corpus directory."""

    def __init__(self, world: FixtureWorld):
        self.world = world

    def search(self, term: str, limit: int) -> list[str]:
        key = " ".join(term.lower().split())
        return list(self.world.search.get(key, []))[:limit]

    def page_text(self, title: str) -> str:
        if title in self.world.disambiguation:
            raise AmbiguousTitleError(f"{title!r} is a disambiguation page")
        filename = self.world.title_files.get(title)
        if filename is None:
            raise PageNotFoundError(f"no fixture page for {title!r}")
        path = self.world.root / "corpus" / filename
        if not path.exists():
            raise PageNotFoundError(f"fixture file missing for {title!r}: {path}")
        return path.read_text(encoding="utf-8").strip()

    def summary(self, title: str, max_chars: int) -> str:
        first_para = self.page_text(title).split("\n\n", 1)[0]
        return truncate_at_word(first_para, max_chars)


class NetworkWikiSource:
    """Thin client for the Wikipedia REST endpoints; one ``requests.Session``
    keeps its connections open across calls."""

    def __init__(self, base_url: str = "https://en.wikipedia.org", timeout: float = 30.0):
        import requests

        self.session = requests.Session()
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, url: str, params: dict | None = None) -> dict:
        import requests

        try:
            resp = self.session.get(url, params=params, timeout=self.timeout)
        except requests.RequestException as exc:
            raise RetrievalError(f"wiki request failed: {exc}") from exc
        if resp.status_code == 404:
            raise PageNotFoundError(url)
        if resp.status_code != 200:
            raise RetrievalError(f"wiki returned {resp.status_code} for {url}")
        try:
            doc = resp.json()
        except ValueError as exc:
            raise RetrievalError(f"wiki returned a non-JSON body for {url}: {exc}") from exc
        if not isinstance(doc, dict):
            raise RetrievalError(f"wiki returned a JSON {type(doc).__name__}, not an object, for {url}")
        return doc

    def search(self, term: str, limit: int) -> list[str]:
        doc = self._get(
            f"{self.base_url}/w/rest.php/v1/search/page",
            params={"q": term, "limit": limit},
        )
        pages = _field(doc, "pages", list) or []
        titles = [page.get("title") if isinstance(page, dict) else None for page in pages]
        if not all(isinstance(title, str) for title in titles):
            raise RetrievalError(f"wiki search for {term!r} gave a page without a title")
        return titles[:limit]

    def summary(self, title: str, max_chars: int) -> str:
        page = quote(title.replace(" ", "_"), safe="")
        doc = self._get(f"{self.base_url}/api/rest_v1/page/summary/{page}")
        if doc.get("type") == "disambiguation":
            raise AmbiguousTitleError(f"{title!r} is a disambiguation page")
        return truncate_at_word(_field(doc, "extract", str) or "", max_chars)

    def page_text(self, title: str) -> str:
        doc = self._get(
            f"{self.base_url}/w/api.php",
            params={
                "action": "query",
                "prop": "extracts",
                "explaintext": 1,
                "format": "json",
                "titles": title,
            },
        )
        pages = _field(_field(doc, "query", dict) or {}, "pages", dict) or {}
        for page in pages.values():
            extract = _field(page, "extract", str) if isinstance(page, dict) else None
            if extract is not None:
                return extract
        raise PageNotFoundError(title)


def _field(doc: dict, key: str, kind: type) -> Any:
    """``doc[key]``; None when it is missing or null, an error when not a ``kind``."""
    value = doc.get(key)
    if value is not None and not isinstance(value, kind):
        raise RetrievalError(f"wiki reply field {key!r} is a {type(value).__name__}, not a {kind.__name__}")
    return value


def chunk_text(text: str, size: int, overlap: int) -> list[str]:
    """Split into chunks of at most ``size`` whitespace tokens, preferring
    paragraph then sentence boundaries, with consecutive chunks sharing at
    most ``overlap`` tokens.

    A chunk ends after one of its tokens ``fill = max(1, size // 2)`` to
    ``size``: the last of them followed by a blank line, else the last that
    ends a sentence, else token ``size``. One match from the chunk's start
    finds that window, and the next chunk starts ``overlap`` tokens before
    the end, one token after the chunk's start at least. A chunk scans at
    most ``size`` tokens, twice its own length, so the time is linear in
    the chunks' total length.
    """
    if not 0 <= overlap < size:
        raise ValueError("overlap must be >= 0 and smaller than size")
    fill = max(1, size // 2)
    # The first ``fill - 1`` tokens, then the window of tokens after which
    # a cut may fall, each token with the whitespace after it.
    window = re.compile(rf"(?:\S+\s+){{{fill - 1}}}((?:\S+\s+){{{size - fill + 1}}})")
    chunks: list[str] = []
    first = _WORD_RE.search(text)
    pos = first.start() if first else len(text)
    while pos < len(text):
        match = window.match(text, pos)
        # A window that reaches the end of the text leaves no token past
        # ``size``: the rest is the last chunk.
        if match is None or match.end() == len(text):
            chunks.append(text[pos:].rstrip())
            break
        lo, hi = match.span(1)
        cut = text.rfind("\n\n", lo, hi)
        if cut >= 0:
            chunk = text[pos:cut].rstrip()
        else:
            ends = [m.end() for m in _SENTENCE_END.finditer(text, lo, hi)]
            chunk = text[pos : ends[-1]] if ends else text[pos:hi].rstrip()
        chunks.append(chunk)
        pos = _WORD_RE.search(text, pos + len(chunk.rsplit(None, overlap)[0])).start()
    return chunks


class Terms(NamedTuple):
    """What ranking reads of a text: its token count, token counts, and their sum of squares."""

    length: int
    counts: dict[str, int]
    sq_norm: int


def term_counts(text: str, query: Collection[str] | None = None) -> Terms:
    """The ``Terms`` of ``text``, lower-cased; given ``query`` tokens, the
    counts keep those tokens only, so no full count outlives the call."""
    counts = Counter(_tokens(text))
    kept = counts if query is None else {t: counts[t] for t in query if t in counts}
    return Terms(sum(counts.values()), kept, sum(v * v for v in counts.values()))


def _tokens(text: str) -> list[str]:
    return re.findall(r"\w+", text.lower())


class Bm25:
    """Okapi BM25 over per-document ``Terms`` (``K1`` 1.2, ``B`` 0.75).
    Document frequencies are counted for the query's terms only."""

    K1 = 1.2
    B = 0.75

    def __init__(self, docs: Sequence[Terms]):
        self.docs = docs
        self.n = len(docs)
        self.avgdl = (sum(doc.length for doc in docs) / self.n) if self.n else 0.0

    def _idf(self, term: str) -> float:
        df = sum(term in doc.counts for doc in self.docs)
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def scores(self, query: str) -> list[float]:
        q_tokens = _tokens(query)
        idf = {t: self._idf(t) for t in q_tokens}
        out = []
        for dl, tf, _ in self.docs:
            norm = self.K1 * (1.0 - self.B + self.B * dl / self.avgdl) if self.avgdl else 0.0
            s = 0.0
            for token in q_tokens:
                f = tf.get(token, 0)
                if f:
                    s += idf[token] * f * (self.K1 + 1.0) / (f + norm)
            out.append(s)
        return out


class DenseScorer(Protocol):
    """Second-stage scorer over each chunk's ``Terms``; returns per-chunk
    scores already in [0, 1]."""

    def score(self, query: str, chunk_terms: Sequence[Terms]) -> list[float]: ...


class LexicalCosineScorer:
    """Deterministic mock reranker: cosine between term-frequency vectors."""

    def score(self, query: str, chunk_terms: Sequence[Terms]) -> list[float]:
        q = term_counts(query)
        q_norm = math.sqrt(q.sq_norm)
        out = []
        for c in chunk_terms:
            c_norm = math.sqrt(c.sq_norm)
            if not q_norm or not c_norm:
                out.append(0.0)
                continue
            dot = sum(n * c.counts.get(t, 0) for t, n in q.counts.items())
            out.append(dot / (q_norm * c_norm))
        return out


def score_and_rerank(
    query: str,
    candidates: Sequence[tuple[str, str]],
    scorer: DenseScorer,
    k: int = PipelineConfig.search_limit,
    score_floor: float = PipelineConfig.score_floor,
    first_stage_cut: int = FIRST_STAGE_CUT,
) -> RetrievalResult:
    """Two-stage ranking of ``(id, text)`` candidates: BM25 keeps the lexical
    top candidates, the dense scorer re-scores them, and only passages above
    the floor survive, under their given ids. Both stages read each text's
    ``Terms``, kept to the query's tokens. Ties keep input order."""
    if not candidates:
        return RetrievalResult()

    query_tokens = set(_tokens(query))
    terms = [term_counts(text, query_tokens) for _, text in candidates]
    kept = range(len(candidates))
    if len(candidates) > first_stage_cut:
        lexical = Bm25(terms).scores(query)
        kept = sorted(kept, key=lambda i: (-lexical[i], i))[:first_stage_cut]

    dense = scorer.score(query, [terms[i] for i in kept])
    scored = [(score, i) for i, score in zip(kept, dense) if score > score_floor]
    scored.sort(key=lambda row: (-row[0], row[1]))
    passages = [
        Passage(id=candidates[i][0], text=candidates[i][1], score=score) for score, i in scored[:k]
    ]
    return RetrievalResult(passages)


def mixture_weights(scores: Sequence[float]) -> list[float]:
    """Softmax over retrieval scores; the weight each passage carries."""
    if not scores:
        raise ValueError("mixture_weights requires at least one score")
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def choose_titles(
    terms: list[str],
    source: WikiSource,
    gateway: ChatGateway,
    config: PipelineConfig,
    hints: list[str | None],
    fetch: Callable[[str, str | None], RetrievalResult],
) -> list[tuple[str | None, RetrievalResult]]:
    """Each term's source title, its first search result that the title
    check approves or None, with ``fetch(term, title)``'s evidence. Round k
    asks about candidate k of every term still unresolved, in calls of up to
    ``TITLE_BATCH`` slots, so each term gets the title a check per
    candidate, in order, would give. The searches go through
    ``gateway.map``, and so does each round: its calls, then, at a bound
    above 1, a fetch per asked candidate that runs while the calls wait and
    is dropped if rejected; a term not fetched so is fetched at the end.
    A round's ``GatewayError`` propagates. Each term is checked under its
    own context hint from ``hints``, or the default hint below when that is
    empty; a hint every term of a call shares is written once. A failed
    search gives None; a reply block that is missing or that
    ``prompts.parse_title_answer`` reads as neither yes nor no reads as no."""
    hints = [hint or "general knowledge" for hint in hints]

    def search(term: str) -> list[str]:
        try:
            return source.search(term, config.search_limit)
        except _LOOKUP_ERRORS as exc:
            log.warning("search failed for %r: %s", term, exc)
            return []

    def check(slots: list[tuple[str, str, str]]) -> list[bool | ValueError]:
        request = ChatRequest(
            system_prompt=TITLE_CHECK_SYSTEM,
            user_prompt=title_check_user(slots),
            temperature=0.0,
            task_tag="title_check",
        )
        return gateway.complete_items(request, [parse_title_answer] * len(slots), ValueError)

    candidates, _ = gateway.map(search, terms)  # a search raises no GatewayError
    overlap = gateway.max_inflight > 1  # at bound 1 the map is serial: nothing would overlap
    chosen: list[tuple[str | None, RetrievalResult | None]] = [(None, None)] * len(terms)
    for k in range(max(map(len, candidates), default=0)):
        asked = [i for i, titles in enumerate(candidates)
                 if chosen[i][0] is None and k < len(titles)]
        slots = [(hints[i], terms[i], candidates[i][k]) for i in asked]
        checks = [partial(check, run) for run in prompts.batches(slots, prompts.TITLE_BATCH)]
        fetches = [partial(fetch, terms[i], candidates[i][k]) for i in asked] if overlap else []
        done, error = gateway.map(lambda job: job(), checks + fetches)
        if error is not None:
            raise error
        answers = itertools.chain.from_iterable(done[: len(checks)])
        for i, answer, evidence in itertools.zip_longest(asked, answers, done[len(checks):]):
            if isinstance(answer, ValueError):
                log.warning("title check on %r for %r: %s; treating as no",
                            candidates[i][k], terms[i], answer)
            elif answer:
                chosen[i] = (candidates[i][k], evidence)
    return [(title, fetch(term, title) if evidence is None else evidence)
            for term, (title, evidence) in zip(terms, chosen)]


def retrieve_evidence(
    term: str, title: str | None, source: WikiSource, config: PipelineConfig
) -> RetrievalResult:
    """Evidence for ``term`` from page ``title``: summary and page fetch,
    chunking, and two-stage reranking, less each passage whose text a
    higher-ranked kept passage contains; no other passage moves and none is
    pulled in past the cut. No title, a failed lookup and an empty ranking
    return the empty result, the parametric fallback, instead of raising.
    """
    if title is None:
        return RetrievalResult()
    # Text -> id; the first candidate with a given text keeps it.
    ids_by_text: dict[str, str] = {}
    try:
        summary = source.summary(title, config.summary_char_limit)
        if summary:
            ids_by_text[summary] = f"{title}#summary"
        page = source.page_text(title)
        for i, chunk in enumerate(chunk_text(page, config.chunk_size, config.chunk_overlap)):
            ids_by_text.setdefault(chunk, f"{title}#chunk{i}")
    except _LOOKUP_ERRORS as exc:
        log.warning("fetch failed for %r: %s", title, exc)

    ranked = score_and_rerank(
        term,
        [(pid, text) for text, pid in ids_by_text.items()],
        LexicalCosineScorer(),
        k=config.search_limit,
        score_floor=config.score_floor,
    )
    kept: list[Passage] = []
    for passage in ranked.passages:
        if not any(passage.text in other.text for other in kept):
            kept.append(passage)
    return RetrievalResult(kept)

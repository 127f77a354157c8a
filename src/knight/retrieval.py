"""Evidence gathering and ranking: title search, relevance check, summary and
page fetch, chunking, two-stage scoring, and mixture weights.

Sources sit behind the ``WikiSource`` protocol; the fixture source reads a
directory of title -> text files so tests never touch the network.

Evidence comes in two steps. ``choose_titles`` picks a title for each term
of a group that shares one context hint (a sibling set, or one topic):
it searches each term, then asks grouped title-check rounds, one call per
round. ``retrieve_evidence`` then fetches and ranks one term's chosen
title. It names every candidate passage ``<title>#summary`` or
``<title>#chunk<i>`` and ``score_and_rerank`` ranks those ``(id, text)``
pairs under the ids it is given: BM25 first cuts more than
``FIRST_STAGE_CUT`` candidates down to that many. A chunk whose text equals
an earlier candidate's is dropped, so the same passage is never sent twice.

The two decide what a failed lookup costs: a search or fetch error logs a
warning and yields the parametric fallback, as a term with no relevant
title does; a ``GatewayError`` from a title check propagates.
"""

from __future__ import annotations

import logging
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence
from urllib.parse import quote

from .config import PipelineConfig
from .errors import AmbiguousTitleError, PageNotFoundError, RetrievalError
from .fixture_world import FixtureWorld
from .gateway import ChatGateway, ChatRequest
from .prompts import TITLE_CHECK_SYSTEM, title_check_user

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


def truncate_at_word(text: str, max_chars: int) -> str:
    """Cut at the last whitespace at or before ``max_chars``; never mid-word."""
    text = text.strip()
    if len(text) <= max_chars:
        return text
    head = text[:max_chars]
    cut = head.rsplit(None, 1)
    return cut[0] if len(cut) == 2 else head


def chunk_text(text: str, size: int, overlap: int) -> list[str]:
    """Split into chunks of at most ``size`` whitespace tokens, preferring
    paragraph then sentence boundaries, with consecutive chunks sharing at
    most ``overlap`` tokens.

    The only per-token state is one ``array("q")`` of token start offsets,
    8 bytes a token; a chunk's end is found by matching the token at its
    last start offset. Linear in the text apart from one ``bisect`` per
    paragraph break, per sentence end and per chunk, so
    O(n + (p + s + c) log n) for n tokens, p paragraph breaks, s sentence
    ends and c chunks.
    """
    if not 0 <= overlap < size:
        raise ValueError("overlap must be >= 0 and smaller than size")
    starts = array("q", map(re.Match.start, _WORD_RE.finditer(text)))
    n = len(starts)
    if n == 0:
        return []
    if n <= size:
        return [text[starts[0]:_token_end(text, starts[-1])]]

    paragraph_cuts = [bisect_left(starts, m.end()) for m in re.finditer("\n\n", text)]
    # A sentence end's last character lies inside the token it closes, so
    # the cut falls after that token.
    sentence_cuts = [bisect_right(starts, m.end() - 1) for m in _SENTENCE_END.finditer(text)]

    chunks: list[str] = []
    start = 0
    while start < n:
        hard_end = min(start + size, n)
        if hard_end == n:
            end = n
        else:
            end = _best_cut(start, hard_end, paragraph_cuts, sentence_cuts)
        chunks.append(text[starts[start]:_token_end(text, starts[end - 1])])
        if end == n:
            break
        start = max(end - overlap, start + 1)
    return chunks


def _token_end(text: str, start: int) -> int:
    """End offset of the token that starts at ``start``."""
    return _WORD_RE.match(text, start).end()


def _best_cut(start: int, hard_end: int, paragraphs: list[int], sentences: list[int]) -> int:
    """The last paragraph cut, else the last sentence cut, in
    [floor, hard_end]; ``hard_end`` when there is neither. Cuts are sorted."""
    # Require a reasonable fill so boundary-seeking never degenerates.
    floor = start + max(1, (hard_end - start) // 2)
    for cuts in (paragraphs, sentences):
        i = bisect_right(cuts, hard_end) - 1
        if i >= 0 and cuts[i] >= floor:
            return cuts[i]
    return hard_end


def term_counts(text: str) -> Counter[str]:
    """Lower-cased ``\\w+`` token counts; both ranking stages read these."""
    return Counter(_tokens(text))


def _tokens(text: str) -> list[str]:
    return re.findall(r"\w+", text.lower())


class Bm25:
    """Okapi BM25 over per-document term counts (``K1`` 1.2, ``B`` 0.75).
    Document frequencies are counted for the query's terms only."""

    K1 = 1.2
    B = 0.75

    def __init__(self, term_freqs: Sequence[Counter[str]]):
        self.term_freqs = term_freqs
        self.doc_lens = [sum(tf.values()) for tf in term_freqs]
        self.n = len(term_freqs)
        self.avgdl = (sum(self.doc_lens) / self.n) if self.n else 0.0

    def _idf(self, term: str) -> float:
        df = sum(term in tf for tf in self.term_freqs)
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def scores(self, query: str) -> list[float]:
        q_tokens = _tokens(query)
        idf = {t: self._idf(t) for t in q_tokens}
        out = []
        for tf, dl in zip(self.term_freqs, self.doc_lens):
            norm = self.K1 * (1.0 - self.B + self.B * dl / self.avgdl) if self.avgdl else 0.0
            s = 0.0
            for token in q_tokens:
                f = tf.get(token, 0)
                if f:
                    s += idf[token] * f * (self.K1 + 1.0) / (f + norm)
            out.append(s)
        return out


class DenseScorer(Protocol):
    """Second-stage scorer over each chunk's ``term_counts``; returns
    per-chunk scores already in [0, 1]."""

    def score(self, query: str, chunk_terms: Sequence[Counter[str]]) -> list[float]: ...


class LexicalCosineScorer:
    """Deterministic mock reranker: cosine between term-frequency vectors."""

    def score(self, query: str, chunk_terms: Sequence[Counter[str]]) -> list[float]:
        q = term_counts(query)
        q_norm = math.sqrt(sum(v * v for v in q.values()))
        out = []
        for c in chunk_terms:
            c_norm = math.sqrt(sum(v * v for v in c.values()))
            if not q_norm or not c_norm:
                out.append(0.0)
                continue
            dot = sum(q[t] * c[t] for t in q)
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
    the floor survive, under their given ids. Each text is tokenized once;
    both stages read the same term counts. Ties keep input order."""
    if not candidates:
        return RetrievalResult()

    terms = [term_counts(text) for _, text in candidates]
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


# What may wrap a title-check answer's one word: a live model may write
# "Yes.", "**No**" or "'yes'" for the bare word.
_ANSWER_NOISE = " \t\r\n*\"'\u201c\u201d\u2018\u2019"


def _title_answer(block: str) -> bool:
    """True for a "yes" block and False for a "no" one, ignoring case,
    emphasis, quotes and a trailing period; anything else raises
    ``ValueError``."""
    answer = block.strip(_ANSWER_NOISE).rstrip(".").strip(_ANSWER_NOISE).lower()
    if answer not in ("yes", "no"):
        raise ValueError(f"answered {block.strip()!r}")
    return answer == "yes"


def choose_titles(
    terms: list[str],
    source: WikiSource,
    gateway: ChatGateway,
    config: PipelineConfig,
    context_hint: str | None = None,
) -> list[str | None]:
    """Each term's source title: its first search result that the title
    check approves, or None. Round k makes one call about candidate k of
    every term still unresolved, so each term gets the title a check per
    candidate, in order, would give. Every round reads ``context_hint``, or
    the default hint below when it is empty. A failed search gives None; a
    reply block that is missing or says neither yes nor no reads as no."""
    context_hint = context_hint or "general knowledge"
    candidates: list[list[str]] = []
    for term in terms:
        try:
            candidates.append(source.search(term, config.search_limit))
        except _LOOKUP_ERRORS as exc:
            log.warning("search failed for %r: %s", term, exc)
            candidates.append([])
    chosen: list[str | None] = [None] * len(terms)
    for k in range(max(map(len, candidates), default=0)):
        asked = [i for i, titles in enumerate(candidates) if chosen[i] is None and k < len(titles)]
        if not asked:
            break
        request = ChatRequest(
            system_prompt=TITLE_CHECK_SYSTEM,
            user_prompt=title_check_user(context_hint, [(terms[i], candidates[i][k]) for i in asked]),
            temperature=0.0,
            task_tag="title_check",
        )
        answers = gateway.complete_items(request, [_title_answer] * len(asked), ValueError)
        for i, answer in zip(asked, answers):
            if isinstance(answer, ValueError):
                log.warning("title check on %r for %r: %s; treating as no",
                            candidates[i][k], terms[i], answer)
            elif answer:
                chosen[i] = candidates[i][k]
    return chosen


def retrieve_evidence(
    term: str, title: str | None, source: WikiSource, config: PipelineConfig
) -> RetrievalResult:
    """Evidence for ``term`` from the ``title`` that ``choose_titles`` chose:
    summary and page fetch, chunking, and two-stage reranking. No title, a
    failed lookup and an empty ranking all return the empty result, the
    parametric fallback, instead of raising.
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

    return score_and_rerank(
        term,
        [(pid, text) for text, pid in ids_by_text.items()],
        LexicalCosineScorer(),
        k=config.search_limit,
        score_floor=config.score_floor,
    )

"""Evidence gathering and ranking: title search, relevance check, summary and
page fetch, chunking, two-stage scoring, and mixture weights.

Sources sit behind the ``WikiSource`` protocol; the fixture source reads a
directory of title -> text files so tests never touch the network.

``retrieve_evidence`` names every candidate passage ``<title>#summary`` or
``<title>#chunk<i>`` and ``score_and_rerank`` ranks those ``(id, text)``
pairs under the ids it is given. A chunk whose text equals an earlier
candidate's is dropped, so the same passage is never sent twice.
``retrieve_evidence`` is also the one place that decides what a failed
lookup costs: a search or fetch error logs a warning and yields the
parametric fallback, as a term with no relevant title does; a
``GatewayError`` from the title check propagates.
"""

from __future__ import annotations

import logging
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

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
    passages: list[Passage] = field(default_factory=list)
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.fallback != (not self.passages):
            raise ValueError("fallback must be set exactly when no passages survive")

    def texts(self) -> list[str]:
        return [p.text for p in self.passages]

    def ids(self) -> list[str]:
        return [p.id for p in self.passages]

    def scores(self) -> list[float]:
        return [p.score for p in self.passages]


class WikiSource(Protocol):
    def search(self, term: str, limit: int) -> list[str]: ...

    def summary(self, title: str, max_chars: int) -> str: ...

    def page_text(self, title: str) -> str: ...


class FixtureWikiSource:
    """Offline source backed by the fixture corpus directory."""

    def __init__(self, world: FixtureWorld, corpus_dir: str | Path | None = None):
        self.world = world
        self.corpus_dir = Path(corpus_dir) if corpus_dir else world.root / "corpus"

    def search(self, term: str, limit: int) -> list[str]:
        if limit <= 0:
            return []
        key = " ".join(term.lower().split())
        return list(self.world.search.get(key, []))[:limit]

    def _read(self, title: str) -> str:
        if title in self.world.disambiguation:
            raise AmbiguousTitleError(f"{title!r} is a disambiguation page")
        filename = self.world.title_files.get(title)
        if filename is None:
            raise PageNotFoundError(f"no fixture page for {title!r}")
        path = self.corpus_dir / filename
        if not path.exists():
            raise PageNotFoundError(f"fixture file missing for {title!r}: {path}")
        return path.read_text(encoding="utf-8").strip()

    def summary(self, title: str, max_chars: int) -> str:
        text = self._read(title)
        first_para = text.split("\n\n", 1)[0]
        return truncate_at_word(first_para, max_chars)

    def page_text(self, title: str) -> str:
        return self._read(title)


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
            return resp.json()
        except ValueError as exc:
            raise RetrievalError(f"wiki returned a non-JSON body for {url}: {exc}") from exc

    def search(self, term: str, limit: int) -> list[str]:
        if limit <= 0:
            return []
        doc = self._get(
            f"{self.base_url}/w/rest.php/v1/search/page",
            params={"q": term, "limit": limit},
        )
        return [page["title"] for page in doc.get("pages", [])][:limit]

    def summary(self, title: str, max_chars: int) -> str:
        doc = self._get(f"{self.base_url}/api/rest_v1/page/summary/{title.replace(' ', '_')}")
        if doc.get("type") == "disambiguation":
            raise AmbiguousTitleError(f"{title!r} is a disambiguation page")
        return truncate_at_word(doc.get("extract", ""), max_chars)

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
        pages = doc.get("query", {}).get("pages", {})
        for page in pages.values():
            if "extract" in page:
                return page["extract"]
        raise PageNotFoundError(title)


def truncate_at_word(text: str, max_chars: int) -> str:
    """Cut at the last whitespace at or before ``max_chars``; never mid-word."""
    text = text.strip()
    if len(text) <= max_chars:
        return text
    head = text[:max_chars]
    cut = head.rsplit(None, 1)
    return cut[0] if len(cut) == 2 else head


def search_titles(source: WikiSource, term: str, limit: int = 5) -> list[str]:
    if not term.strip():
        raise RetrievalError("search term must be non-empty")
    return source.search(term, limit)


def check_title_relevance(
    gateway: ChatGateway, term: str, candidate_title: str, context_hint: str
) -> bool:
    """True iff the relevance classifier answers exactly "yes"."""
    response = gateway.complete(
        ChatRequest(
            system_prompt=TITLE_CHECK_SYSTEM,
            user_prompt=title_check_user(term, candidate_title, context_hint),
            temperature=0.0,
            task_tag="title_check",
        )
    )
    answer = response.text.strip().lower()
    if answer == "yes":
        return True
    if answer != "no":
        log.warning("title check returned %r for %r; treating as no", response.text, candidate_title)
    return False


def chunk_text(text: str, size: int = 1000, overlap: int = 100) -> list[str]:
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
    if overlap >= size:
        raise ValueError("overlap must be smaller than size")
    starts = array("q", map(re.Match.start, _WORD_RE.finditer(text)))
    n = len(starts)
    if n == 0:
        return []
    if n <= size:
        return [text[starts[0]:_token_end(text, starts[-1])]]

    paragraph_cuts = _boundary_token_indexes(text, starts, "\n\n")
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


def _boundary_token_indexes(text: str, starts: Sequence[int], sep: str) -> list[int]:
    """Index of the first token after each ``sep`` in the text, in order,
    given the tokens' sorted start offsets."""
    cuts: list[int] = []
    pos = text.find(sep)
    while pos != -1:
        i = bisect_left(starts, pos + len(sep))
        if i < len(starts):
            cuts.append(i)
        pos = text.find(sep, pos + len(sep))
    return cuts


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
    """Okapi BM25 over per-document term counts (k1=1.2, b=0.75). Document
    frequencies are counted for the query's terms only."""

    def __init__(self, term_freqs: Sequence[Counter[str]], k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
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
            norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl) if self.avgdl else 0.0
            s = 0.0
            for token in q_tokens:
                f = tf.get(token, 0)
                if f:
                    s += idf[token] * f * (self.k1 + 1.0) / (f + norm)
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
    k: int = 5,
    score_floor: float = 0.15,
    first_stage_cut: int = 50,
) -> RetrievalResult:
    """Two-stage ranking of ``(id, text)`` candidates: BM25 keeps the lexical
    top candidates, the dense scorer re-scores them, and only passages above
    the floor survive, under their given ids. Each text is tokenized once;
    both stages read the same term counts. Ties keep input order."""
    if not candidates:
        return RetrievalResult(passages=[], fallback=True)

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
    return RetrievalResult(passages=passages, fallback=not passages)


def mixture_weights(scores: Sequence[float]) -> list[float]:
    """Softmax over retrieval scores; the weight each passage carries."""
    if not scores:
        raise ValueError("mixture_weights requires at least one score")
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def retrieve_evidence(
    term: str,
    source: WikiSource,
    gateway: ChatGateway,
    config: PipelineConfig,
    context_hint: str = "general knowledge",
) -> RetrievalResult:
    """Full evidence pass for one term: search, LLM title filter, summary and
    page fetch, chunking, and two-stage reranking. No relevant title, a
    failed lookup and an empty ranking all flag the parametric fallback
    instead of raising.
    """
    try:
        titles = search_titles(source, term, config.search_limit)
    except _LOOKUP_ERRORS as exc:
        log.warning("search failed for %r: %s", term, exc)
        return RetrievalResult(passages=[], fallback=True)
    chosen: str | None = None
    for title in titles:
        if check_title_relevance(gateway, term, title, context_hint):
            chosen = title
            break
    if chosen is None:
        return RetrievalResult(passages=[], fallback=True)

    # Text -> id; the first candidate with a given text keeps it.
    ids_by_text: dict[str, str] = {}
    try:
        summary = source.summary(chosen, config.summary_char_limit)
        if summary:
            ids_by_text[summary] = f"{chosen}#summary"
        page = source.page_text(chosen)
        for i, chunk in enumerate(chunk_text(page, config.chunk_size, config.chunk_overlap)):
            ids_by_text.setdefault(chunk, f"{chosen}#chunk{i}")
    except _LOOKUP_ERRORS as exc:
        log.warning("fetch failed for %r: %s", chosen, exc)

    return score_and_rerank(
        term,
        [(pid, text) for text, pid in ids_by_text.items()],
        LexicalCosineScorer(),
        k=config.search_limit,
        score_floor=config.score_floor,
        first_stage_cut=config.first_stage_cut,
    )

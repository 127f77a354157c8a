from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knight.config import PipelineConfig
from knight.errors import AmbiguousTitleError, AuthError, PageNotFoundError, RetrievalError
from knight.gateway import ChatGateway, ChatResponse, MockChatBackend, MockOverride
from knight.prompts import split_items
from knight.retrieval import (
    Bm25,
    FixtureWikiSource,
    LexicalCosineScorer,
    NetworkWikiSource,
    Passage,
    RetrievalResult,
    choose_titles,
    chunk_text,
    mixture_weights,
    retrieve_evidence,
    score_and_rerank,
    term_counts,
    truncate_at_word,
)

from conftest import FailingSource, RecordingBackend, http_response


@pytest.fixture()
def source(world):
    return FixtureWikiSource(world)


# -- search -------------------------------------------------------------------


def test_search_zero_limit(source):
    assert source.search("Biology", 0) == []


def test_search_fixture_index(source):
    titles = source.search("Biology", 5)
    assert titles[0] == "Biology"
    assert len(titles) == 5  # index holds 7 hits; engine order truncated


def test_search_unknown_term(source):
    assert source.search("Quantum Baking", 5) == []


# -- network source -----------------------------------------------------------


@pytest.mark.parametrize(
    "reply, error",
    [
        (http_response(404, b"{}"), PageNotFoundError),
        (http_response(503, b"{}"), RetrievalError),
        (http_response(200, b"<html><body>Bad Gateway</body></html>"), RetrievalError),
        (http_response(200, b'["Biology"]'), RetrievalError),
        (http_response(200, b'{"pages": "Biology"}'), RetrievalError),
        (http_response(200, b'{"pages": [{"key": "Biology"}]}'), RetrievalError),
    ],
    ids=["404", "503", "non-json", "list-body", "pages-not-a-list", "page-without-title"],
)
def test_network_source_maps_replies_to_errors(monkeypatch, reply, error):
    source = NetworkWikiSource()
    monkeypatch.setattr(source.session, "get", lambda url, **kw: reply)
    with pytest.raises(error):
        source.search("Biology", 5)


def test_network_source_request_failure(monkeypatch):
    import requests

    def fail(url, **kwargs):
        raise requests.ConnectionError("connection refused")

    source = NetworkWikiSource()
    monkeypatch.setattr(source.session, "get", fail)
    with pytest.raises(RetrievalError):
        source.page_text("Biology")


def test_network_source_search_parses_titles(monkeypatch):
    body = json.dumps({"pages": [{"title": "Biology"}, {"title": "Cell"}]}).encode()
    source = NetworkWikiSource()
    monkeypatch.setattr(source.session, "get", lambda url, **kw: http_response(200, body))
    assert source.search("Biology", 5) == ["Biology", "Cell"]


def test_network_source_summary_quotes_the_title(monkeypatch):
    urls = []

    def capture(url, **kwargs):
        urls.append(url)
        return http_response(200, json.dumps({"extract": "text"}).encode())

    source = NetworkWikiSource()
    monkeypatch.setattr(source.session, "get", capture)
    for title in ("AC/DC", "What?", "Cell biology"):
        source.summary(title, 100)
    assert [url.rsplit("/", 1)[1] for url in urls] == ["AC%2FDC", "What%3F", "Cell_biology"]


@pytest.mark.parametrize(
    "method, args, body, expected",
    [
        ("search", ("Cell", 5), {"pages": None}, []),
        ("summary", ("Cell", 100), {"extract": None}, ""),
        ("page_text", ("Cell",), {"query": None}, PageNotFoundError),
        ("page_text", ("Cell",), {"query": {"pages": None}}, PageNotFoundError),
        ("page_text", ("Cell",), {"query": {"pages": {"12": {"extract": None}}}}, PageNotFoundError),
    ],
    ids=["pages-null", "extract-null", "query-null", "query-pages-null", "page-extract-null"],
)
def test_network_source_reads_a_null_field_as_a_missing_one(monkeypatch, method, args, body, expected):
    source = NetworkWikiSource()
    reply = http_response(200, json.dumps(body).encode())
    monkeypatch.setattr(source.session, "get", lambda url, **kw: reply)
    if expected is PageNotFoundError:
        with pytest.raises(PageNotFoundError):
            getattr(source, method)(*args)
    else:
        assert getattr(source, method)(*args) == expected


def test_network_source_page_text_reads_the_extract(monkeypatch):
    replies = iter([
        {"query": {"pages": {"12": {"title": "Cell", "extract": "Cells are units."}}}},
        {"query": {"pages": {"-1": {"title": "Nothing", "missing": ""}}}},
    ])
    source = NetworkWikiSource()
    monkeypatch.setattr(
        source.session, "get", lambda url, **kw: http_response(200, json.dumps(next(replies)).encode())
    )
    assert source.page_text("Cell") == "Cells are units."
    with pytest.raises(PageNotFoundError):
        source.page_text("Nothing")


def test_network_source_summary_of_a_disambiguation_page(monkeypatch):
    body = json.dumps({"type": "disambiguation", "extract": "Mercury may refer to:"}).encode()
    source = NetworkWikiSource()
    monkeypatch.setattr(source.session, "get", lambda url, **kw: http_response(200, body))
    with pytest.raises(AmbiguousTitleError):
        source.summary("Mercury", 100)


# -- title relevance ----------------------------------------------------------


class _Searches:
    """A source whose search returns the given titles for each term."""

    def __init__(self, titles):
        self.titles = titles

    def search(self, term, limit):
        return self.titles[term][:limit]


class _Replies:
    """A backend that answers every call with ``text``."""

    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return ChatResponse(self.text, 1, 1)


def _titles(terms, source, gateway, config, hints):
    """The titles ``choose_titles`` picks, each fetch a stand-in."""
    chosen = choose_titles(terms, source, gateway, config, hints, lambda *_: RetrievalResult())
    return [title for title, _ in chosen]


def _fetch(source, config):
    return lambda term, title: retrieve_evidence(term, title, source, config)


def test_title_relevance_yes_no(world, gateway, config):
    source = _Searches({"Biology": ["Ottoman Empire", "Biology"]})
    assert _titles(["Biology"], source, gateway, config, [None]) == ["Biology"]
    source = _Searches({"Biology": ["Ottoman Empire"]})
    assert _titles(["Biology"], source, gateway, config, ["general"]) == [None]


def test_title_rounds_ask_each_unresolved_term_about_its_next_candidate(world, config):
    # Round 1 asks about every term's first candidate; round 2 only about
    # Biology's second, since Genetics is resolved and Gleeb Zorp has none.
    # Round 1 mixes hints, so each slot carries its own term's, the default
    # one when it is None; round 2's one hint is written once, in the head.
    source = _Searches({
        "Biology": ["Ottoman Empire", "Biology", "Genetics"],
        "Genetics": ["Genetics", "Biology"],
        "Gleeb Zorp": [],
    })
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    chosen = _titles(
        ["Biology", "Genetics", "Gleeb Zorp"], source, ChatGateway(backend), config,
        ["Life", None, "Nonsense"],
    )
    assert chosen == ["Biology", "Genetics", None]
    slot = (r'Item \d+\n(?:Context: information related to "([^"]+)"\.\n)?'
            r'Term to define: "([^"]+)"\.\nCandidate page title: "([^"]+)"')
    asked = [
        (split_items(r.user_prompt)[0], re.findall(slot, r.user_prompt)) for r in backend.requests
    ]
    assert asked == [
        ("", [("Life", "Biology", "Ottoman Empire"),
              ("general knowledge", "Genetics", "Genetics")]),
        ('Context: information related to "Life".\n\n', [("", "Biology", "Biology")]),
    ]
    assert all(r.task_tag == "title_check" for r in backend.requests)


def test_title_relevance_garbage_is_no(world, config, caplog):
    backend = MockChatBackend(
        world, overrides=[MockOverride("title_check", "Biology", "Maybe")]
    )
    gw = ChatGateway(backend)
    source = _Searches({"Biology": ["Biology"]})
    with caplog.at_level("WARNING"):
        assert _titles(["Biology"], source, gw, config, ["hint"]) == [None]
    assert any("treating as no" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "answer, chosen",
    [("Yes", "T"), ("yes.", "T"), ("**Yes**", "T"), ('"yes"', "T"), ("'Yes.'", "T"),
     ("**Yes.**", "T"), ("  YES  ", "T"), ("No.", None), ("**No**", None), ('"no"', None)],
)
def test_title_check_reads_a_live_models_yes_and_no(config, answer, chosen, caplog):
    gateway = ChatGateway(_Replies(f"Item 1\n{answer}\n"))
    with caplog.at_level("WARNING"):
        assert _titles(["t"], _Searches({"t": ["T"]}), gateway, config, [None]) == [chosen]
    assert not caplog.records


@pytest.mark.parametrize("reply", ["Item 1\nYes, it is.", "Item 1\nMaybe", "Yes", "Item 2\nYes"])
def test_title_check_other_or_missing_block_is_no_with_warning(config, reply, caplog):
    gateway = ChatGateway(_Replies(reply))
    with caplog.at_level("WARNING"):
        assert _titles(["t"], _Searches({"t": ["T"]}), gateway, config, [None]) == [None]
    assert any("treating as no" in r.message for r in caplog.records)


# -- evidence fetched beside the title check ----------------------------------


class _AwaitsFetch:
    """A backend whose title check waits, up to a timeout, for a fetch to
    start, then approves every slot."""

    def __init__(self):
        self.fetched = threading.Event()
        self.overlapped = []

    def complete(self, request):
        self.overlapped.append(self.fetched.wait(timeout=5))
        return ChatResponse("Item 1\nYes", 1, 1)


def test_a_rounds_fetch_starts_before_its_title_check_returns(config):
    backend = _AwaitsFetch()

    def fetch(term, title):
        backend.fetched.set()
        return RetrievalResult()

    gateway = ChatGateway(backend, max_inflight=2)
    chosen = choose_titles(["t"], _Searches({"t": ["T"]}), gateway, config, [None], fetch)
    assert chosen == [("T", RetrievalResult())]
    assert backend.overlapped == [True]


class _Ranked(_Searches):
    """Search results as given, pages from the fixture source."""

    def __init__(self, titles, pages):
        super().__init__(titles)
        self.summary, self.page_text = pages.summary, pages.page_text


# Biology's first candidate and two of Heredity's are rejected (Mercury is
# a disambiguation page, whose fetch fails), Photosynthesis has none
# approved and Gleeb Zorp none at all.
_CANDIDATES = {
    "Biology": ["Ottoman Empire", "Biology"],
    "Genetics": ["Genetics"],
    "Heredity": ["History", "Mercury", "Heredity"],
    "Photosynthesis": ["DNA"],
    "Gleeb Zorp": [],
}


@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_choose_titles_gives_the_titles_and_evidence_of_check_then_fetch(
    world, config, source, max_inflight
):
    ranked = _Ranked(_CANDIDATES, source)
    terms = list(_CANDIDATES)
    titles = _titles(terms, ranked, ChatGateway(MockChatBackend(world, rng_seed=7)), config,
                     [None] * len(terms))
    assert titles == ["Biology", "Genetics", "Heredity", None, None]
    fetch = _fetch(ranked, config)
    expected = [(title, fetch(term, title)) for term, title in zip(terms, titles)]
    gateway = ChatGateway(MockChatBackend(world, rng_seed=7), max_inflight=max_inflight)
    assert choose_titles(terms, ranked, gateway, config, [None] * len(terms), fetch) == expected
    assert not expected[0][1].fallback and not expected[2][1].fallback


def _recording_fetch(fetched):
    def fetch(term, title):
        fetched.append((term, title))
        return RetrievalResult([Passage(f"{title}#summary", f"{title} text", 1.0)] if title else [])

    return fetch


def test_a_rejected_candidates_evidence_is_dropped_for_the_next_ones(world, config):
    fetched = []
    gateway = ChatGateway(MockChatBackend(world, rng_seed=7), max_inflight=2)
    source = _Searches({"Biology": ["Ottoman Empire", "Biology"]})
    chosen = choose_titles(["Biology"], source, gateway, config, [None], _recording_fetch(fetched))
    assert fetched == [("Biology", "Ottoman Empire"), ("Biology", "Biology")]
    [(title, evidence)] = chosen
    assert (title, evidence.texts()) == ("Biology", ["Biology text"])


@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_each_term_without_an_approved_title_is_fetched_as_none(world, config, max_inflight):
    # The parametric fallback of a term with no title comes from the
    # caller's fetch too, so whatever the fetch counts sees every term.
    fetched = []
    gateway = ChatGateway(MockChatBackend(world, rng_seed=7), max_inflight=max_inflight)
    terms = list(_CANDIDATES)
    chosen = choose_titles(terms, _Searches(_CANDIDATES), gateway, config, [None] * len(terms),
                           _recording_fetch(fetched))
    assert [(title, evidence.fallback) for title, evidence in chosen] == [
        ("Biology", False), ("Genetics", False), ("Heredity", False), (None, True), (None, True),
    ]
    assert [pair for pair in fetched if pair[1] is None] == [
        ("Photosynthesis", None), ("Gleeb Zorp", None),
    ]


def test_at_bound_1_only_each_terms_chosen_title_is_fetched(world, config):
    # A serial map overlaps nothing, so no candidate is fetched before its
    # check approves it: one fetch per term, in term order.
    fetched = []
    gateway = ChatGateway(MockChatBackend(world, rng_seed=7))
    terms = list(_CANDIDATES)
    chosen = choose_titles(terms, _Searches(_CANDIDATES), gateway, config, [None] * len(terms),
                           _recording_fetch(fetched))
    assert fetched == [(term, title) for term, (title, _) in zip(terms, chosen)]


@pytest.mark.parametrize("max_inflight", [1, 2])
def test_a_title_check_gateway_error_propagates_past_its_rounds_fetches(config, max_inflight):
    # Nothing is returned, so nothing a fetch of the failed round made is used.
    fetched = []

    def fetch(term, title):
        fetched.append(title)
        return RetrievalResult([Passage(f"{title}#summary", "text", 1.0)])

    gateway = ChatGateway(_RevokedBackend(), max_inflight=max_inflight)
    with pytest.raises(AuthError):
        choose_titles(["t", "u"], _Searches({"t": ["T"], "u": ["U"]}), gateway, config,
                      [None, None], fetch)
    if max_inflight == 1:  # nothing is fetched before a check approves it
        assert fetched == []


# -- summaries ----------------------------------------------------------------


def test_fetch_summary_short_unchanged(source):
    text = source.summary("Pharmacology", 1000)
    assert text.startswith("Pharmacology is the study of drugs")
    assert len(text) <= 1000


def test_truncate_at_word_boundary():
    words = " ".join(f"word{i}" for i in range(400))  # ~2800 chars
    cut = truncate_at_word(words, 1000)
    assert len(cut) <= 1000
    assert cut.split()[-1] in words.split()  # no mid-word fragment
    assert truncate_at_word("short text", 1000) == "short text"


def test_fetch_summary_missing_title(source):
    with pytest.raises(PageNotFoundError):
        source.summary("Atlantology", 1000)


def test_fetch_summary_disambiguation(source):
    with pytest.raises(AmbiguousTitleError):
        source.summary("Mercury", 1000)


# -- chunking -----------------------------------------------------------------


def test_chunk_small_text_single_chunk():
    text = " ".join(f"w{i}" for i in range(500))
    assert chunk_text(text, 1000, 100) == [text]


def test_chunk_1900_tokens_two_chunks_with_overlap():
    tokens = [f"w{i:04d}" for i in range(1900)]
    chunks = chunk_text(" ".join(tokens), 1000, 100)
    assert len(chunks) == 2
    first, second = (c.split() for c in chunks)
    assert len(first) == 1000 and len(second) == 1000
    assert first[-100:] == second[:100]
    # concatenation minus the overlap reconstructs the token sequence
    assert first + second[100:] == tokens


def test_chunk_empty():
    assert chunk_text("", 1000, 100) == []
    assert chunk_text("   \n  ", 1000, 100) == []


def test_chunk_prefers_paragraph_boundary():
    para1 = " ".join(f"a{i}" for i in range(60))
    para2 = " ".join(f"b{i}" for i in range(60))
    chunks = chunk_text(para1 + "\n\n" + para2, size=80, overlap=10)
    assert chunks[0].split() == para1.split()  # cut lands on the blank line


def test_chunk_overlap_must_be_smaller():
    with pytest.raises(ValueError):
        chunk_text("a b c", 10, 10)


@pytest.mark.parametrize("overlap", [-1, -2])
def test_chunk_overlap_must_not_be_negative(overlap):
    # A negative overlap would skip words between chunks.
    with pytest.raises(ValueError):
        chunk_text(" ".join(f"w{i}" for i in range(12)), 4, overlap)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=260),
    st.integers(min_value=10, max_value=40),
    st.integers(min_value=0, max_value=9),
)
def test_chunk_properties(n_tokens, size, overlap):
    tokens = [f"t{i}" for i in range(n_tokens)]
    chunks = chunk_text(" ".join(tokens), size, overlap)
    seen = set()
    for chunk in chunks:
        parts = chunk.split()
        assert len(parts) <= size
        seen.update(parts)
    assert seen == set(tokens)


def _reference_chunk_text(text, size, overlap):
    """The earlier quadratic chunker: every paragraph break scans all tokens,
    and every chunk filters the whole cut sets."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    n = len(spans)
    if n == 0:
        return []
    if n <= size:
        return [text[spans[0][0]:spans[-1][1]]]
    paragraphs = set()
    offset = 0
    while (pos := text.find("\n\n", offset)) != -1:
        for i, (start, _end) in enumerate(spans):
            if start >= pos + 2:
                paragraphs.add(i)
                break
        offset = pos + 2
    sentence_end = re.compile(r"[.!?][\"')\]]*$")
    sentences = {i + 1 for i, (s, e) in enumerate(spans) if sentence_end.search(text[s:e])}
    chunks = []
    start = 0
    while start < n:
        hard_end = min(start + size, n)
        end = n
        if hard_end < n:
            floor = start + max(1, (hard_end - start) // 2)
            end = hard_end
            for cuts in (paragraphs, sentences):
                eligible = [c for c in cuts if floor <= c <= hard_end]
                if eligible:
                    end = max(eligible)
                    break
        chunks.append(text[spans[start][0]:spans[end - 1][1]])
        if end == n:
            break
        start = max(end - overlap, start + 1)
    return chunks


def test_chunk_matches_quadratic_reference():
    rng = random.Random(29)
    # One-character sentence ends, non-ASCII tokens (one that lower()
    # lengthens, a ligature) and Unicode whitespace separators (no-break, em
    # and ideographic space, and \x1c, which str.split() and the \S+
    # tokenizer both treat as whitespace).
    words = ["w", "end.", 'quote."', "ask?", "yes!)", "a.b", "...", "(x)", ".]", "no",
             ".", "?", "\u0130", "\ufb01."]
    separators = [" ", " ", " ", "\n", "\t", "\n\n", "\n\n\n", "\n\n\n\n", " \n\n ",
                  "\u00a0", "\u2003", "\u3000", "\x1c"]
    for _ in range(300):
        n_tokens = rng.randint(0, 120)
        text = rng.choice(["", "\n\n", " "])
        for _ in range(n_tokens):
            text += rng.choice(words) + rng.choice(separators)
        text += rng.choice(["", "\n\n", "\n\n\n", " "])
        size = rng.randint(1, 40)
        for overlap in {0, size // 2, size - 1}:
            assert chunk_text(text, size, overlap) == _reference_chunk_text(text, size, overlap)

    # Pages of 5,000 tokens and more at the default size and overlap, with
    # paragraphs both shorter and longer than a chunk: some cuts land on a
    # blank line, some on a sentence end, and some on the hard end.
    plain, ends = ["w", "(x)", "no"], ["end.", "ask?", "yes!)"]
    for _ in range(4):
        paragraphs = []
        while sum(map(len, paragraphs)) < 5000:
            length = rng.choice([rng.randint(20, 400), rng.randint(1100, 2600)])
            # Sentence ends are rare in some paragraphs, so no cut finds one.
            rate = rng.choice([0.0, 0.002, 0.05])
            paragraphs.append(
                [rng.choice(ends if rng.random() < rate else plain) for _ in range(length)]
            )
        text = rng.choice(["\n\n", "\n\n\n"]).join(
            " ".join(p) if rng.random() < 0.5 else "\n".join(p) for p in paragraphs
        )
        chunks = chunk_text(text, 1000, 100)
        assert len(chunks) > 5
        assert chunks == _reference_chunk_text(text, 1000, 100)


# -- scoring ------------------------------------------------------------------


class _StubScorer:
    def __init__(self, scores):
        self._scores = scores

    def score(self, query, chunks):
        return list(self._scores[: len(chunks)])


def test_rerank_all_below_floor():
    result = score_and_rerank(
        "q", [("a", "a"), ("b", "b")], _StubScorer([0.1, 0.15]), score_floor=0.15
    )
    assert result.fallback is True
    assert result.passages == []


def test_rerank_threshold_and_sort():
    candidates = [("id1", "first"), ("id2", "second"), ("id3", "third")]
    result = score_and_rerank("q", candidates, _StubScorer([0.9, 0.5, 0.1]), k=5)
    assert [p.score for p in result.passages] == [0.9, 0.5]
    assert [p.text for p in result.passages] == ["first", "second"]
    assert result.ids() == ["id1", "id2"]
    assert result.fallback is False


def test_rerank_ties_keep_input_order():
    candidates = [("z", "one"), ("a", "two"), ("m", "three")]
    result = score_and_rerank("q", candidates, _StubScorer([0.5, 0.9, 0.5]))
    assert result.ids() == ["a", "z", "m"]


def test_rerank_first_stage_cut():
    texts = [f"doc {i} filler" for i in range(60)] + ["the exact query words here"]
    chunks = [(f"c{i}", text) for i, text in enumerate(texts)]
    scorer = LexicalCosineScorer()
    result = score_and_rerank("exact query words", chunks, scorer, k=3, first_stage_cut=50)
    assert result.passages[0].text == "the exact query words here"


def test_lexical_cosine_scores_zero_without_word_characters():
    scorer = LexicalCosineScorer()
    chunks = [term_counts("photosynthesis in plants"), term_counts("-- ... --")]
    assert scorer.score("photosynthesis", chunks) == [1.0 / math.sqrt(3), 0.0]
    assert scorer.score("?!", chunks) == [0.0, 0.0]


def _counts(text):
    return Counter(re.findall(r"\w+", text.lower()))


def _bm25_reference(query, texts):
    """BM25 (k1 1.2, b 0.75) with document frequencies over every term."""
    tfs = [_counts(t) for t in texts]
    lens = [sum(tf.values()) for tf in tfs]
    avgdl = sum(lens) / len(tfs)
    df = Counter(t for tf in tfs for t in tf)
    idf = {t: math.log(1.0 + (len(tfs) - n + 0.5) / (n + 0.5)) for t, n in df.items()}
    out = []
    for tf, dl in zip(tfs, lens):
        norm = 1.2 * (1.0 - 0.75 + 0.75 * dl / avgdl) if avgdl else 0.0
        s = 0.0
        for token in re.findall(r"\w+", query.lower()):
            if tf.get(token, 0):
                s += idf[token] * tf[token] * 2.2 / (tf[token] + norm)
        out.append(s)
    return out


def _rerank_reference(query, candidates, k, score_floor, first_stage_cut):
    """Two-stage ranking that tokenizes each text once per stage."""
    order = list(range(len(candidates)))
    if len(order) > first_stage_cut:
        lexical = _bm25_reference(query, [text for _, text in candidates])
        order = sorted(order, key=lambda i: (-lexical[i], i))[:first_stage_cut]
    q = _counts(query)
    q_norm = math.sqrt(sum(v * v for v in q.values()))
    rows = []
    for i in order:
        c = _counts(candidates[i][1])
        c_norm = math.sqrt(sum(v * v for v in c.values()))
        score = sum(q[t] * c[t] for t in q) / (q_norm * c_norm) if q_norm and c_norm else 0.0
        if score > score_floor:
            rows.append((-score, i))
    return [(candidates[i][0], -neg) for neg, i in sorted(rows)[:k]]


@pytest.mark.parametrize("count", [0, 1, 20, 50, 51, 90])
def test_rerank_matches_reference_bit_for_bit(count):
    rng = random.Random(f"rerank:{count}")
    # Zipf-like word frequencies, so document frequencies vary widely.
    vocab = [f"w{i}" for i in range(200)] + ["Cell", "cell", "gene_x"]
    weights = [1 / (i + 1) for i in range(len(vocab))]
    candidates = [
        (f"c{i}", " ".join(rng.choices(vocab, weights, k=rng.randint(1, 60))))
        for i in range(count)
    ]
    query = " ".join(rng.sample(vocab[:60], 3)) + " cell w1"
    if candidates:
        texts = [text for _, text in candidates]
        assert Bm25([term_counts(t) for t in texts]).scores(query) == _bm25_reference(query, texts)
    # With a cut of 5 every BM25 survivor above the floor is returned.
    for floor, cut in ((0.0, 5), (0.0, 50), (0.15, 50)):
        got = score_and_rerank(
            query, candidates, LexicalCosineScorer(), k=7, score_floor=floor, first_stage_cut=cut
        )
        assert [(p.id, p.score) for p in got.passages] == _rerank_reference(
            query, candidates, 7, floor, cut
        )


def test_rerank_fixture_corpus_photosynthesis(world, source):
    pages = [(title, source.page_text(title)) for title in sorted(world.title_files)]
    result = score_and_rerank("photosynthesis", pages, LexicalCosineScorer(), k=3)
    assert result.passages[0].id == "Photosynthesis"


def test_passage_validation():
    with pytest.raises(ValueError):
        Passage(id="x", text="  ", score=0.5)
    with pytest.raises(ValueError):
        Passage(id="x", text="ok", score=1.5)


def test_fallback_is_read_from_the_passages():
    assert RetrievalResult().fallback is True
    assert RetrievalResult([Passage(id="x", text="ok", score=0.5)]).fallback is False


def test_mixture_symmetry():
    assert mixture_weights([0.5, 0.5]) == [0.5, 0.5]


def test_mixture_singleton():
    assert mixture_weights([1.0]) == [1.0]


def test_mixture_frozen_value():
    # Oracle: high-precision softmax evaluated with mpmath (50 digits).
    w = mixture_weights([0.2, 0.8])
    assert w[0] == pytest.approx(0.3543436938, abs=1e-4)
    assert w[1] == pytest.approx(0.6456563062, abs=1e-4)


def test_mixture_empty_rejected():
    with pytest.raises(ValueError):
        mixture_weights([])


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=8))
def test_mixture_properties(scores):
    weights = mixture_weights(scores)
    assert math.isclose(sum(weights), 1.0, abs_tol=1e-9)
    for i in range(len(scores)):
        for j in range(len(scores)):
            # strict monotonicity, checked above float resolution
            if scores[i] > scores[j] + 1e-6:
                assert weights[i] > weights[j]
    shifted = mixture_weights([s + 3.5 for s in scores])
    for a, b in zip(weights, shifted):
        assert math.isclose(a, b, abs_tol=1e-9)


# -- full evidence pass -------------------------------------------------------


def _evidence(term, source, gateway, config, context_hint=None):
    [(_, evidence)] = choose_titles(
        [term], source, gateway, config, [context_hint], _fetch(source, config)
    )
    return evidence


def test_retrieve_evidence_biology(world, gateway, config, source):
    result = _evidence("Biology", source, gateway, config)
    assert result.fallback is False
    scores = result.scores()
    assert scores == sorted(scores, reverse=True)
    assert all(s > config.score_floor for s in scores)
    assert any(p.id.startswith("Biology#") for p in result.passages)


def test_retrieve_evidence_unknown_term_falls_back(world, gateway, config, source):
    [(title, result)] = choose_titles(
        ["Gleeb Zorp"], source, gateway, config, [None], _fetch(source, config)
    )
    assert title is None
    assert result.fallback is True
    assert result.passages == []


def test_retrieve_evidence_sends_a_passage_once(world, gateway, config, source):
    # History's summary is its whole one-paragraph page, so chunk 0 repeats it.
    assert source.summary("History", config.summary_char_limit) == source.page_text("History")
    result = _evidence("History", source, gateway, config)
    assert result.ids() == ["History#summary"]


class _Page:
    """A source with one page, whose summary is given apart from its text."""

    def __init__(self, summary, page):
        self._summary, self._page = summary, page

    def summary(self, title, max_chars):
        return self._summary

    def page_text(self, title):
        return self._page


@pytest.mark.parametrize(
    "summary, search_limit, ids, scores",
    [
        # Inside chunk 0, which ranks above it: dropped, and chunk 1 keeps
        # its id and score.
        ("cell membrane", 5, ["T#chunk0", "T#chunk1"], [2 / math.sqrt(5), 0.5]),
        # Ranked above both chunks that contain it: all three are sent.
        ("cell", 5, ["T#summary", "T#chunk0", "T#chunk1"], [1.0, 2 / math.sqrt(5), 0.5]),
        # The cut to the limit comes first: chunk 1 is not pulled in.
        ("cell membrane", 2, ["T#chunk0"], [2 / math.sqrt(5)]),
    ],
)
def test_retrieve_evidence_drops_a_passage_inside_a_higher_ranked_one(
    summary, search_limit, ids, scores
):
    # At size 4, chunk 0 is "cell cell membrane" and chunk 1 "cell wall of
    # plants"; the summary "cell membrane" scores 1/sqrt(2).
    config = dataclasses.replace(
        PipelineConfig(), chunk_size=4, chunk_overlap=0, search_limit=search_limit
    ).validate()
    page = _Page(summary, "cell cell membrane\n\ncell wall of plants")
    result = retrieve_evidence("cell", "T", page, config)
    assert result.ids() == ids
    assert result.scores() == pytest.approx(scores)
    assert result.weights() == mixture_weights(result.scores())


@pytest.mark.parametrize("failing", ["search", "summary"])
def test_retrieve_evidence_lookup_error_falls_back(
    world, gateway, config, source, caplog, failing
):
    with caplog.at_level("WARNING", logger="knight.retrieval"):
        result = _evidence("Biology", FailingSource(source, failing), gateway, config)
    assert result.fallback is True
    assert any(f"{failing} unavailable" in r.getMessage() for r in caplog.records)


def test_retrieve_evidence_page_error_keeps_summary(world, gateway, config, source):
    result = _evidence("Biology", FailingSource(source, "page_text"), gateway, config)
    assert result.ids() == ["Biology#summary"]


class _RevokedBackend:
    def complete(self, request):
        raise AuthError("key revoked")


def test_retrieve_evidence_gateway_error_propagates(config, source):
    with pytest.raises(AuthError):
        _evidence("Biology", source, ChatGateway(_RevokedBackend()), config)


def test_bm25_ranks_matching_doc_first():
    docs = ["apples and pears", "bm25 ranking function for search", "dense embeddings"]
    scores = Bm25([term_counts(d) for d in docs]).scores("bm25 search ranking")
    assert scores.index(max(scores)) == 1

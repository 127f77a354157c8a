from __future__ import annotations

import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knight.errors import AmbiguousTitleError, AuthError, PageNotFoundError, RetrievalError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.retrieval import (
    Bm25,
    FixtureWikiSource,
    LexicalCosineScorer,
    NetworkWikiSource,
    Passage,
    RetrievalResult,
    check_title_relevance,
    chunk_text,
    mixture_weights,
    retrieve_evidence,
    score_and_rerank,
    search_titles,
    term_counts,
    truncate_at_word,
)

from conftest import FailingSource, http_response


@pytest.fixture()
def source(world):
    return FixtureWikiSource(world)


# -- search -------------------------------------------------------------------


def test_search_zero_limit(source):
    assert search_titles(source, "Biology", 0) == []


def test_search_fixture_index(source):
    titles = search_titles(source, "Biology", 5)
    assert titles[0] == "Biology"
    assert len(titles) == 5  # index holds 7 hits; engine order truncated


def test_search_unknown_term(source):
    assert search_titles(source, "Quantum Baking", 5) == []


def test_search_empty_term(source):
    with pytest.raises(RetrievalError):
        search_titles(source, "   ", 5)


# -- network source -----------------------------------------------------------


@pytest.mark.parametrize(
    "reply, error",
    [
        (http_response(404, b"{}"), PageNotFoundError),
        (http_response(503, b"{}"), RetrievalError),
        (http_response(200, b"<html><body>Bad Gateway</body></html>"), RetrievalError),
    ],
    ids=["404", "503", "non-json"],
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


# -- title relevance ----------------------------------------------------------


def test_title_relevance_yes_no(world, gateway):
    assert check_title_relevance(gateway, "Biology", "Biology", "general knowledge") is True
    assert check_title_relevance(gateway, "Biology", "Ottoman Empire", "general") is False


def test_title_relevance_garbage_is_no(world, caplog):
    backend = MockChatBackend(
        world, overrides=[MockOverride("title_check", "Biology", "Maybe")]
    )
    gw = ChatGateway(backend)
    with caplog.at_level("WARNING"):
        assert check_title_relevance(gw, "Biology", "Biology", "hint") is False
    assert any("treating as no" in r.message for r in caplog.records)


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
    with pytest.raises(ValueError):
        RetrievalResult(passages=[], fallback=False)


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


def test_retrieve_evidence_biology(world, gateway, config, source):
    result = retrieve_evidence("Biology", source, gateway, config)
    assert result.fallback is False
    scores = result.scores()
    assert scores == sorted(scores, reverse=True)
    assert all(s > config.score_floor for s in scores)
    assert any(p.id.startswith("Biology#") for p in result.passages)


def test_retrieve_evidence_unknown_term_falls_back(world, gateway, config, source):
    result = retrieve_evidence("Gleeb Zorp", source, gateway, config)
    assert result.fallback is True
    assert result.passages == []


def test_retrieve_evidence_sends_a_passage_once(world, gateway, config, source):
    # History's summary is its whole one-paragraph page, so chunk 0 repeats it.
    assert source.summary("History", config.summary_char_limit) == source.page_text("History")
    result = retrieve_evidence("History", source, gateway, config)
    assert result.ids() == ["History#summary"]


@pytest.mark.parametrize("failing", ["search", "summary"])
def test_retrieve_evidence_lookup_error_falls_back(
    world, gateway, config, source, caplog, failing
):
    with caplog.at_level("WARNING", logger="knight.retrieval"):
        result = retrieve_evidence("Biology", FailingSource(source, failing), gateway, config)
    assert result.fallback is True
    assert any(f"{failing} unavailable" in r.getMessage() for r in caplog.records)


def test_retrieve_evidence_page_error_keeps_summary(world, gateway, config, source):
    result = retrieve_evidence("Biology", FailingSource(source, "page_text"), gateway, config)
    assert result.ids() == ["Biology#summary"]


class _RevokedBackend:
    def complete(self, request):
        raise AuthError("key revoked")


def test_retrieve_evidence_gateway_error_propagates(config, source):
    with pytest.raises(AuthError):
        retrieve_evidence("Biology", source, ChatGateway(_RevokedBackend()), config)


def test_bm25_ranks_matching_doc_first():
    docs = ["apples and pears", "bm25 ranking function for search", "dense embeddings"]
    scores = Bm25([term_counts(d) for d in docs]).scores("bm25 search ranking")
    assert scores.index(max(scores)) == 1

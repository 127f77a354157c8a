"""Gloss generation from evidence, the traceability gate, and triple extraction
with near-duplicate removal. Glosses and triples are asked for one run of one
level of the graph build at a time, one numbered slot per term; a gloss is its
reply block's text, and the record of its evidence stays the caller's
``RetrievalResult``. A triples block is read by ``prompts.parse_triples_json``,
with the standard library's JSON decoder, from the first "{" at which an object
decodes. A block that is missing, repeated or unusable costs only its own term,
as an ``ExtractionError`` in its place.

Near-duplicate removal compares each candidate with the triples kept so far,
by normalized edit distance capped at ``lambda_max``: ``levenshtein`` fills
only the diagonal band of width 2k + 1 for the cap k and stops once a row
exceeds k, so a pair costs O(k * L) for keys of length L, and nothing when
the lengths differ by more than k. The cap k is the largest integer d with
d / L <= lambda_max, so the keep decision is the uncapped one.
"""

from __future__ import annotations

import logging
import re
from functools import partial

from .config import PipelineConfig
from .errors import ExtractionError
from .gateway import ChatGateway, ChatRequest
from .graph import Triple
from .prompts import (
    GLOSS_SYSTEM, TRIPLES_SYSTEM, count_sections, gloss_user, parse_triples_json, triples_user,
)

log = logging.getLogger(__name__)

# Small fixed stopword list for content-token overlap; intentionally minimal
# so the measure stays cheap and reproducible.
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have in into is it its of on
    or that the their this to was were which with""".split()
)


def _gloss_block(term: str, block: str) -> str:
    gloss = block.strip()
    if not gloss:
        raise ExtractionError(f"empty gloss for {term!r}")
    sections = count_sections(gloss)
    if sections < 4:
        log.warning("gloss for %r has only %d/8 sections", term, sections)
    return gloss


def generate_gloss(
    gateway: ChatGateway,
    terms: list[tuple[str, str | None, list[str]]],
    config: PipelineConfig,
) -> list[str | ExtractionError]:
    """One call for the structured description of each (term, parent term
    or None, evidence passages) of a run of one level; each slot names its
    own parent. Each term's passages are injected in the order given,
    retrieval order (best score first, ties in input order); with none the
    model describes the term from its parametric knowledge."""
    request = ChatRequest(
        system_prompt=GLOSS_SYSTEM,
        user_prompt=gloss_user(terms),
        temperature=config.temp_desc,
        task_tag="gloss",
    )
    return gateway.complete_items(
        request, [partial(_gloss_block, term) for term, _, _ in terms], ExtractionError
    )


def content_tokens(text: str) -> set[str]:
    return {t for t in re.findall(r"[a-z0-9]+", text.lower()) if t not in STOPWORDS}


def overlap(passage_text: str, gloss_text: str) -> float:
    """Fraction of the gloss's content tokens that appear in the passage."""
    gloss_tokens = content_tokens(gloss_text)
    if not gloss_tokens:
        return 0.0
    return len(gloss_tokens & content_tokens(passage_text)) / len(gloss_tokens)


def gate_gloss(gloss: str, passages: list[str], eta: float = PipelineConfig.eta_overlap) -> bool:
    """Traceability gate: some passage must cover at least ``eta`` of the
    gloss. A parametric-fallback gloss (no passages) has no evidence to
    trace and passes."""
    return not passages or any(overlap(p, gloss) >= eta for p in passages)


def extract_triples(
    gateway: ChatGateway, glosses: list[str], config: PipelineConfig
) -> list[list[Triple] | ExtractionError]:
    """One call for the triples of each gloss of a run of one level, with a
    completion budget of ``max_tokens_triples`` per gloss."""
    request = ChatRequest(
        system_prompt=TRIPLES_SYSTEM,
        user_prompt=triples_user(glosses),
        temperature=config.temp_triples,
        task_tag="triples",
        max_tokens=config.max_tokens_triples * len(glosses),
    )
    return gateway.complete_items(request, [parse_triples_json] * len(glosses), ExtractionError)


def levenshtein(a: str, b: str, k: int | None = None) -> int:
    """Edit distance via the two-row dynamic program.

    With a cap ``k`` the result is exact when it is at most ``k`` and
    ``k + 1`` otherwise. Only the diagonal band |i - j| <= k is filled, and
    the scan stops once a whole row exceeds ``k`` (Ukkonen 1985), so the cost
    is O(k * max(len(a), len(b))); a length difference above ``k`` costs
    nothing. Without a cap the band is the whole table.
    """
    if len(a) < len(b):
        a, b = b, a
    if k is None:
        k = len(a)
    over = k + 1
    if len(a) - len(b) > k:
        return over
    # A shared prefix or suffix leaves the distance as it is.
    shared = 0
    while shared < len(b) and a[shared] == b[shared]:
        shared += 1
    a, b = a[shared:], b[shared:]
    shared = 0
    while shared < len(b) and a[-1 - shared] == b[-1 - shared]:
        shared += 1
    a, b = a[: len(a) - shared], b[: len(b) - shared]
    # Cells outside the band hold ``over``: their true values exceed k, and
    # min(value, over) is all the answer needs.
    previous = [j if j <= k else over for j in range(len(b) + 1)]
    current = [over] * (len(b) + 1)
    for i, ch_a in enumerate(a, start=1):
        lo, hi = max(1, i - k), min(len(b), i + k)
        # The two rows swap buffers: reset the cell left of the band. The
        # cell right of the previous row's band was never written: ``over``.
        current[lo - 1] = i if i <= k else over
        left, diag = current[lo - 1], previous[lo - 1]
        for j, (up, ch_b) in enumerate(zip(previous[lo : hi + 1], b[lo - 1 : hi]), start=lo):
            value = diag if ch_a == ch_b else diag + 1
            if up < value:
                value = up + 1
            if left < value:
                value = left + 1
            current[j] = left = value
            diag = up
        if min(current[lo - 1 : hi + 1]) > k:
            return over
        previous, current = current, previous
    return min(previous[-1], over)


def normalized_edit_distance(a: str, b: str, at_most: float = 1.0) -> float:
    """Edit distance over the longer length. Exact when it is at most
    ``at_most``; some value above ``at_most`` otherwise.

    The cap passed to ``levenshtein`` is the largest integer d with
    d / longest <= at_most, tested with the same float division this
    returns: ``int(0.29 * 100)`` is 28, yet 29 / 100 <= 0.29 holds.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    cap = int(at_most * longest)
    while (cap + 1) / longest <= at_most:
        cap += 1
    return levenshtein(a, b, cap) / longest


def dedup_triples(triples: list[Triple], lambda_max: float) -> list[Triple]:
    """Drop each triple whose serialized form sits within ``lambda_max``
    normalized edit distance of an earlier kept one (input order wins).
    Each comparison is capped at ``lambda_max``."""
    if not 0.0 <= lambda_max <= 1.0:
        raise ValueError(f"lambda_max {lambda_max} outside [0, 1]")
    kept: list[Triple] = []
    kept_keys: list[str] = []
    for candidate in triples:
        ck = candidate.key()
        if any(normalized_edit_distance(ck, ek, lambda_max) <= lambda_max for ek in kept_keys):
            continue
        kept.append(candidate)
        kept_keys.append(ck)
    return kept

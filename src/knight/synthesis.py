"""Gloss generation from evidence, the traceability gate, and triple
extraction with near-duplicate removal.

Near-duplicate removal compares each candidate with the triples kept so far,
by normalized edit distance capped at ``lambda_max``: ``levenshtein`` fills
only the diagonal band of width 2k + 1 for the cap k and stops once a row
exceeds k, so a pair costs O(k * L) for keys of length L, and nothing when
the lengths differ by more than k. The cap k is the largest integer d with
d / L <= lambda_max, so the keep decision is the uncapped one.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from .config import PipelineConfig
from .errors import ExtractionError
from .gateway import ChatGateway, ChatRequest
from .graph import Triple
from .prompts import GLOSS_HEADINGS, GLOSS_SYSTEM, TRIPLES_SYSTEM, gloss_user, triples_user
from .retrieval import RetrievalResult, mixture_weights

log = logging.getLogger(__name__)

__all__ = [
    "Gloss",
    "Triple",
    "generate_gloss",
    "overlap",
    "gate_gloss",
    "extract_triples",
    "dedup_triples",
    "levenshtein",
]

# Small fixed stopword list for content-token overlap; intentionally minimal
# so the measure stays cheap and reproducible.
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have in into is it its of on
    or that the their this to was were which with""".split()
)


@dataclass
class Gloss:
    term: str
    text: str
    sections_present: int
    supported_by: list[str] = field(default_factory=list)
    parametric_fallback: bool = False
    mixture: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.parametric_fallback == bool(self.supported_by):
            raise ValueError("exactly one of parametric_fallback / supported_by must hold")


def count_sections(text: str) -> int:
    return sum(1 for heading in GLOSS_HEADINGS if heading in text)


def generate_gloss(
    gateway: ChatGateway,
    term: str,
    retrieval: RetrievalResult,
    config: PipelineConfig,
    parent_term: str | None = None,
) -> Gloss:
    """Produce the structured description for ``term``. Evidence passages are
    injected in retrieval order, the order of ``supported_by`` (best score
    first, ties in input order); an empty retrieval falls back to the
    model's parametric knowledge and is flagged as such."""
    passages = retrieval.texts()
    weights = [] if retrieval.fallback else mixture_weights(retrieval.scores())

    response = gateway.complete(
        ChatRequest(
            system_prompt=GLOSS_SYSTEM,
            user_prompt=gloss_user(term, passages, parent_term),
            temperature=config.temp_desc,
            task_tag="gloss",
        )
    )
    sections = count_sections(response.text)
    if sections < 4:
        log.warning("gloss for %r has only %d/8 sections", term, sections)
    return Gloss(
        term=term,
        text=response.text,
        sections_present=sections,
        supported_by=retrieval.ids(),
        parametric_fallback=retrieval.fallback,
        mixture=weights,
    )


def content_tokens(text: str) -> set[str]:
    return {t for t in re.findall(r"[a-z0-9]+", text.lower()) if t not in STOPWORDS}


def overlap(passage_text: str, gloss_text: str) -> float:
    """Fraction of the gloss's content tokens that appear in the passage."""
    gloss_tokens = content_tokens(gloss_text)
    if not gloss_tokens:
        return 0.0
    return len(gloss_tokens & content_tokens(passage_text)) / len(gloss_tokens)


def gate_gloss(gloss: Gloss, passages: list[str], eta: float = 0.35) -> bool:
    """Traceability gate: some passage must cover at least ``eta`` of the
    gloss. Parametric-fallback glosses have no evidence to trace and pass."""
    if gloss.parametric_fallback:
        return True
    return any(overlap(p, gloss.text) >= eta for p in passages)


_RELATION_CLEAN = re.compile(r"[^a-z0-9]+")


def _normalize_relation(raw: str) -> str:
    cleaned = _RELATION_CLEAN.sub("_", raw.strip().lower()).strip("_")
    return cleaned


def _first_json_object(text: str) -> str:
    """Extract the first balanced top-level JSON object from free text."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return text[start : i + 1]
        start = text.find("{", start + 1)
    raise ExtractionError("no balanced JSON object in response")


def parse_triples_json(text: str) -> list[Triple]:
    """Strict parse of the {"triplets": [...]} payload; entries with missing
    or empty fields are dropped, relations are normalized to
    lowercase_underscore."""
    try:
        doc = json.loads(_first_json_object(text))
    except json.JSONDecodeError as exc:
        raise ExtractionError(f"unparseable JSON payload: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("triplets"), list):
        raise ExtractionError('payload must be an object with a "triplets" list')
    out: list[Triple] = []
    for raw in doc["triplets"]:
        if not isinstance(raw, dict):
            continue
        head = str(raw.get("head") or "").strip()
        tail = str(raw.get("tail") or "").strip()
        relation = _normalize_relation(str(raw.get("relation") or ""))
        if not (head and relation and tail):
            continue
        out.append(Triple(head=head, relation=relation, tail=tail))
    return out


def extract_triples(gateway: ChatGateway, gloss: Gloss, config: PipelineConfig) -> list[Triple]:
    if not gloss.text.strip():
        raise ExtractionError("gloss text is empty")
    response = gateway.complete(
        ChatRequest(
            system_prompt=TRIPLES_SYSTEM,
            user_prompt=triples_user(gloss.text),
            temperature=config.temp_triples,
            task_tag="triples",
            max_tokens=config.max_tokens_triples,
        )
    )
    return parse_triples_json(response.text)


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

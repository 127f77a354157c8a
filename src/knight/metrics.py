"""Dataset-quality statistics: grammar score, predictive entropy and probe
accuracy, entailment topicality, off-topic rate, length stats, Pearson r,
and Fleiss kappa.

Plain floats and the standard library, no numpy: the inputs are 4-logit
vectors and lists of at most ``num_q`` values. Every float sum is
``math.fsum``, which is correctly rounded (Shewchuk 1997), so a statistic
does not depend on summation order or on the Python version (the built-in
``sum`` of floats became compensated in 3.12)."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

from .adapters import AdapterSuite
from .errors import AdapterError
from .qgen import McqItem

log = logging.getLogger(__name__)

MAX_ENTROPY = math.log(4.0)

_LETTERS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class ProbeLogits:
    z_a: float
    z_b: float
    z_c: float
    z_d: float

    def __post_init__(self) -> None:
        for value in (self.z_a, self.z_b, self.z_c, self.z_d):
            if not math.isfinite(value):
                raise ValueError(f"logit {value} is not finite")

    def values(self) -> tuple[float, float, float, float]:
        return (self.z_a, self.z_b, self.z_c, self.z_d)


@dataclass
class DatasetStats:
    mean_entropy: float = 0.0
    std_entropy: float = 0.0
    probe_accuracy: float = 0.0
    probe_excluded: int = 0
    mean_grammar: float = 0.0
    mean_entailment: float = 0.0
    off_topic_rate: float = 0.0
    length_mean: float = 0.0
    length_std: float = 0.0
    length_histogram: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mean_entropy": self.mean_entropy,
            "std_entropy": self.std_entropy,
            "probe_accuracy": self.probe_accuracy,
            "probe_excluded": self.probe_excluded,
            "mean_grammar": self.mean_grammar,
            "mean_entailment": self.mean_entailment,
            "off_topic_rate": self.off_topic_rate,
            "length_mean": self.length_mean,
            "length_std": self.length_std,
            "length_histogram": {str(k): v for k, v in sorted(self.length_histogram.items())},
        }


def grammar_quality(word_count: int, error_count: int) -> float:
    """1 - E/W, exactly as defined; not clamped, so an error count above the
    word count goes negative."""
    if word_count < 1:
        raise ValueError("word_count must be >= 1")
    if error_count < 0:
        raise ValueError("error_count must be >= 0")
    return 1.0 - error_count / word_count


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _pstd(values: Sequence[float]) -> float:
    """Population standard deviation."""
    mean = _mean(values)
    return math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / len(values))


def predictive_entropy(logits: ProbeLogits) -> tuple[tuple[float, ...], float]:
    """Softmax (max-subtracted for stability), as the four probabilities in
    A-D order, and Shannon entropy in nats. Zero probabilities contribute
    zero; H always lands in [0, ln 4]."""
    z = logits.values()
    peak = max(z)
    exps = [math.exp(v - peak) for v in z]
    total = math.fsum(exps)
    p = tuple(e / total for e in exps)
    entropy = -math.fsum(q * math.log(q) for q in p if q > 0.0)
    entropy = min(max(entropy, 0.0), MAX_ENTROPY)
    return p, entropy


def _probe_logits(probe, item: McqItem) -> ProbeLogits | None:
    """The probe's logits for one item, or None when the probe fails on it."""
    try:
        return ProbeLogits(*probe.logits(item.question, item.options, item.answer_key, item.level))
    except (AdapterError, ValueError, TypeError) as exc:
        log.warning("probe failed on %s: %s", item.id, exc)
        return None


def _probe_choice(logits: ProbeLogits) -> str:
    """Argmax letter; ties resolve to the first in A<B<C<D order."""
    z = logits.values()
    return _LETTERS[z.index(max(z))]


def entailment_relevance(question: str, topic: str, nli) -> float:
    """P(entailment | premise=topic, hypothesis=question) from the adapter."""
    return float(nli.entailment(topic, question))


def off_topic_rate(flags_entailment: Sequence[bool], flags_llm: Sequence[bool]) -> float:
    """Fraction flagged off-topic by both automated checks."""
    if len(flags_entailment) != len(flags_llm):
        raise ValueError("flag vectors must have equal length")
    if not flags_entailment:
        raise ValueError("off_topic_rate needs at least one item")
    both = sum(1 for e, l in zip(flags_entailment, flags_llm) if e and l)
    return both / len(flags_entailment)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation r = cov(x, y) / (sigma_x sigma_y)."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    if len(x) < 2:
        raise ValueError("pearson needs at least two points")
    mx, my = _mean(x), _mean(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sx = math.sqrt(math.fsum(d * d for d in dx))
    sy = math.sqrt(math.fsum(d * d for d in dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson is undefined under zero variance")
    return math.fsum(a * b for a, b in zip(dx, dy)) / (sx * sy)


def fleiss_kappa(ratings: Sequence[Sequence[int]]) -> float:
    """Fleiss' kappa over an items x categories count matrix; every row must
    sum to the same rater count n >= 2."""
    try:
        matrix = [[float(count) for count in row] for row in ratings]
    except TypeError as exc:
        raise ValueError("ratings must be a 2-D items x categories matrix") from exc
    if not matrix or len(matrix[0]) < 2 or any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ratings must be a 2-D items x categories matrix")
    row_sums = [math.fsum(row) for row in matrix]
    n = row_sums[0]
    if n < 2:
        raise ValueError("fleiss_kappa needs at least two raters")
    if any(s != n for s in row_sums):
        raise ValueError("every item must have the same number of ratings")
    total = math.fsum(row_sums)
    p_j = [math.fsum(column) / total for column in zip(*matrix)]
    p_i = [(math.fsum(c * c for c in row) - n) / (n * (n - 1)) for row in matrix]
    p_bar = _mean(p_i)
    p_e = math.fsum(p * p for p in p_j)
    if p_e == 1.0:
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def length_stats(questions: Sequence[str], bin_width: int = 2) -> tuple[dict[int, int], float, float]:
    """Word-count histogram (fixed-width bins keyed by lower edge) plus the
    mean and population standard deviation of the counts."""
    counts = [len(q.split()) for q in questions]
    histogram: dict[int, int] = {}
    for count in counts:
        lower = (count // bin_width) * bin_width
        histogram[lower] = histogram.get(lower, 0) + 1
    if not counts:
        return {}, 0.0, 0.0
    return histogram, _mean(counts), _pstd(counts)


def compute_dataset_stats(
    items: Sequence[McqItem],
    adapters: AdapterSuite,
    topic: str,
    off_topic_threshold: float = 0.5,
) -> tuple[DatasetStats, list[dict]]:
    """Aggregate stats plus one metric row per item for the report.

    The probe is called once per item. Probe accuracy is the share of the
    scored items whose argmax letter (ties to the first in A<B<C<D order)
    equals the answer key. An item the probe fails on is counted in
    ``probe_excluded``, left out of the entropy and accuracy means, and
    gets None for its row's probe fields."""
    stats = DatasetStats()
    rows: list[dict] = []
    if not items:
        return stats, rows

    entropies: list[float] = []
    probe_hits: list[bool] = []
    grammars: list[float] = []
    entailments: list[float] = []
    ent_flags: list[bool] = []
    llm_flags: list[bool] = []

    for item in items:
        logits = _probe_logits(adapters.probe, item)
        entropy = choice = key_probability = None
        if logits is not None:
            probs, entropy = predictive_entropy(logits)
            choice = _probe_choice(logits)
            key_probability = probs[_LETTERS.index(item.answer_key)]
            entropies.append(entropy)
            probe_hits.append(choice == item.answer_key)

        words = len(item.question.split())
        errors = adapters.grammar.error_count(item.question)
        grammar = grammar_quality(max(words, 1), errors)
        grammars.append(grammar)

        entailment = entailment_relevance(item.question, topic, adapters.nli)
        entailments.append(entailment)
        ent_flags.append(entailment < off_topic_threshold)
        llm_flags.append(item.flags is not None and item.flags.topic_relevant is False)

        rows.append(
            {
                "id": item.id,
                "level": item.level,
                "orientation": item.orientation,
                "entropy": entropy,
                "probe_choice": choice,
                "probe_correct": None if choice is None else choice == item.answer_key,
                "grammar": grammar,
                "entailment": entailment,
                "word_count": words,
                "key_probability": key_probability,
            }
        )

    histogram, mean_len, std_len = length_stats([i.question for i in items])
    stats.probe_excluded = len(items) - len(entropies)
    if entropies:
        stats.mean_entropy = _mean(entropies)
        stats.std_entropy = _pstd(entropies)
        stats.probe_accuracy = sum(probe_hits) / len(probe_hits)
    stats.mean_grammar = _mean(grammars)
    stats.mean_entailment = _mean(entailments)
    stats.off_topic_rate = off_topic_rate(ent_flags, llm_flags)
    stats.length_mean = mean_len
    stats.length_std = std_len
    stats.length_histogram = histogram
    return stats, rows

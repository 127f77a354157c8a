"""Dataset-quality statistics: grammar score, predictive entropy and probe
accuracy, entailment topicality, off-topic rate, length stats, Pearson r,
and Fleiss kappa."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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

    def as_array(self) -> np.ndarray:
        return np.array([self.z_a, self.z_b, self.z_c, self.z_d], dtype=float)


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


def predictive_entropy(logits: ProbeLogits) -> tuple[np.ndarray, float]:
    """Softmax (max-subtracted for stability) and Shannon entropy in nats.
    Zero probabilities contribute zero; H always lands in [0, ln 4]."""
    z = logits.as_array()
    z = z - z.max()
    p = np.exp(z)
    p = p / p.sum()
    nonzero = p > 0.0
    entropy = float(-(p[nonzero] * np.log(p[nonzero])).sum())
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
    return _LETTERS[int(np.argmax(logits.as_array()))]


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
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = math.sqrt(float((dx * dx).sum()))
    sy = math.sqrt(float((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson is undefined under zero variance")
    return float((dx * dy).sum()) / (sx * sy)


def fleiss_kappa(ratings: Sequence[Sequence[int]]) -> float:
    """Fleiss' kappa over an items x categories count matrix; every row must
    sum to the same rater count n >= 2."""
    matrix = np.asarray(ratings, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 2:
        raise ValueError("ratings must be a 2-D items x categories matrix")
    row_sums = matrix.sum(axis=1)
    n = row_sums[0]
    if n < 2:
        raise ValueError("fleiss_kappa needs at least two raters")
    if not np.all(row_sums == n):
        raise ValueError("every item must have the same number of ratings")
    total = matrix.sum()
    p_j = matrix.sum(axis=0) / total
    p_i = ((matrix * matrix).sum(axis=1) - n) / (n * (n - 1))
    p_bar = float(p_i.mean())
    p_e = float((p_j * p_j).sum())
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
    arr = np.asarray(counts, dtype=float)
    return histogram, float(arr.mean()), float(arr.std())


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
            key_probability = float(probs[_LETTERS.index(item.answer_key)])
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
        entropy_arr = np.asarray(entropies)
        stats.mean_entropy = float(entropy_arr.mean())
        stats.std_entropy = float(entropy_arr.std())
        stats.probe_accuracy = sum(probe_hits) / len(probe_hits)
    stats.mean_grammar = float(np.mean(grammars))
    stats.mean_entailment = float(np.mean(entailments))
    stats.off_topic_rate = off_topic_rate(ent_flags, llm_flags)
    stats.length_mean = mean_len
    stats.length_std = std_len
    stats.length_histogram = histogram
    return stats, rows

from __future__ import annotations

import dataclasses
import math
import random
import statistics

import numpy as np
import pytest

from knight.errors import AdapterError
from knight.metrics import (
    MAX_ENTROPY,
    ProbeLogits,
    entailment_relevance,
    fleiss_kappa,
    grammar_quality,
    length_stats,
    off_topic_rate,
    pearson,
    compute_dataset_stats,
    predictive_entropy,
)
from knight.qgen import McqItem


def _item(idx=0, answer_key="A", level=1):
    return McqItem(
        id=f"m{idx}",
        question=f"Probe question number {idx}?",
        options={"A": "one", "B": "two", "C": "three", "D": "four"},
        answer_key=answer_key,
        topic="Biology",
        level=level,
        orientation="forward",
        path=None,
        source_context="",
    )


# -- grammar_quality ----------------------------------------------------------


def test_grammar_perfect():
    assert grammar_quality(10, 0) == 1.0


def test_grammar_exact_fraction():
    assert grammar_quality(20, 1) == 0.95


def test_grammar_not_clamped():
    assert grammar_quality(4, 8) == -1.0


def test_grammar_domain_errors():
    with pytest.raises(ValueError):
        grammar_quality(0, 0)
    with pytest.raises(ValueError):
        grammar_quality(5, -1)


# -- predictive_entropy ---------------------------------------------------------


def test_entropy_uniform_maximum():
    probs, entropy = predictive_entropy(ProbeLogits(0.3, 0.3, 0.3, 0.3))
    assert entropy == pytest.approx(math.log(4), abs=1e-9)
    assert probs == pytest.approx([0.25] * 4)


def test_entropy_one_hot_limit():
    _, entropy = predictive_entropy(ProbeLogits(1000.0, 0.0, 0.0, 0.0))
    assert entropy < 1e-9


def test_entropy_frozen_value():
    # Oracle: 50-digit mpmath evaluation of softmax entropy.
    _, entropy = predictive_entropy(ProbeLogits(1.0, 0.5, 0.0, -0.5))
    assert entropy == pytest.approx(1.24505042747, abs=1e-4)


def test_entropy_shift_invariance():
    base = (1.3, -0.2, 0.11, 2.4)
    _, h0 = predictive_entropy(ProbeLogits(*base))
    for shift in (-1000.0, -3.5, 2.25, 500.0):
        _, h1 = predictive_entropy(ProbeLogits(*(z + shift for z in base)))
        assert abs(h0 - h1) <= 1e-12


def test_entropy_bounds_random():
    rng = random.Random(4)
    for _ in range(200):
        logits = ProbeLogits(*(rng.uniform(-30, 30) for _ in range(4)))
        _, entropy = predictive_entropy(logits)
        assert 0.0 <= entropy <= MAX_ENTROPY


def test_entropy_rejects_non_finite():
    with pytest.raises(ValueError):
        ProbeLogits(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ProbeLogits(float("inf"), 0.0, 0.0, 0.0)


# -- probe accuracy, through compute_dataset_stats ------------------------------


class _KeyedProbe:
    """Always puts the highest logit on the item's answer key."""

    def logits(self, question, options, answer_key, level):
        return tuple(5.0 if letter == answer_key else 0.0 for letter in "ABCD")


class _UniformProbe:
    def logits(self, question, options, answer_key, level):
        return (1.0, 1.0, 1.0, 1.0)


class _FlakyProbe:
    def __init__(self, fail_on):
        self.fail_on = fail_on

    def logits(self, question, options, answer_key, level):
        if self.fail_on in question:
            raise AdapterError("probe outage")
        return (9.0 if answer_key == "A" else 0.0, 1.0, 0.0, 0.0)


def _probe_stats(items, probe, adapters):
    return compute_dataset_stats(items, dataclasses.replace(adapters, probe=probe), "Biology")


def test_probe_accuracy_perfect(adapters):
    items = [_item(i, answer_key="ABCD"[i % 4]) for i in range(8)]
    stats, _rows = _probe_stats(items, _KeyedProbe(), adapters)
    assert stats.probe_accuracy == 1.0 and stats.probe_excluded == 0


def test_probe_accuracy_uniform_tie_breaks_to_a(adapters):
    # Keys spread uniformly over A-D; ties resolve to A, so exactly 1/4 hit.
    items = [_item(i, answer_key="ABCD"[i % 4]) for i in range(8)]
    stats, rows = _probe_stats(items, _UniformProbe(), adapters)
    assert stats.probe_accuracy == pytest.approx(0.25)
    assert stats.probe_excluded == 0
    assert [row["probe_choice"] for row in rows] == ["A"] * 8


def test_probe_accuracy_empty_dataset(adapters):
    stats, rows = _probe_stats([], _KeyedProbe(), adapters)
    assert stats.probe_accuracy == 0.0 and stats.probe_excluded == 0
    assert rows == []


def test_probe_accuracy_exclusions_counted(adapters):
    items = [_item(i, answer_key="A") for i in range(4)]
    items[2] = _item(99, answer_key="A")
    stats, rows = _probe_stats(items, _FlakyProbe("99"), adapters)
    assert stats.probe_excluded == 1
    assert stats.probe_accuracy == 1.0
    assert rows[2]["probe_choice"] is None and rows[2]["entropy"] is None


# -- entailment & off-topic ------------------------------------------------------


class _ConstantNli:
    def __init__(self, value):
        self.value = value

    def entailment(self, premise, hypothesis):
        return self.value


def test_entailment_passthrough():
    assert entailment_relevance("q", "topic", _ConstantNli(0.9)) == 0.9


def test_entailment_identity_convention(adapters):
    assert entailment_relevance("World History", "World History", adapters.nli) == 1.0


def test_entailment_offtopic_fixture(adapters):
    score = entailment_relevance(
        "What drives photosynthesis in plants?", "World History", adapters.nli
    )
    assert score == 0.05


def test_off_topic_disjoint():
    assert off_topic_rate([True, False, False], [False, True, False]) == 0.0


def test_off_topic_identical_all_true():
    assert off_topic_rate([True] * 5, [True] * 5) == 1.0


def test_off_topic_hundred_item_fixture():
    # Oracle: hand-counted intersection - exactly 10 indexes flagged by both.
    flags_a = [i < 30 for i in range(100)]
    flags_b = [20 <= i < 40 for i in range(100)]
    assert off_topic_rate(flags_a, flags_b) == pytest.approx(0.10)


def test_off_topic_errors():
    with pytest.raises(ValueError):
        off_topic_rate([True], [True, False])
    with pytest.raises(ValueError):
        off_topic_rate([], [])


def test_off_topic_bounded_by_min():
    rng = random.Random(8)
    for _ in range(50):
        a = [rng.random() < 0.4 for _ in range(60)]
        b = [rng.random() < 0.4 for _ in range(60)]
        both = off_topic_rate(a, b)
        assert both <= min(sum(a) / 60, sum(b) / 60) + 1e-12


# -- pearson ---------------------------------------------------------------------


def test_pearson_affine_positive():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_negative():
    x = [1.0, 2.0, 3.0]
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_frozen_fixture():
    # Oracle: long-hand cov/sigma computation (exact rationals via mpmath).
    x = [2, 4, 5, 7, 9, 11]
    y = [1, 3, 4, 8, 9, 12]
    assert pearson(x, y) == pytest.approx(0.990625065312988, abs=1e-12)
    assert pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-12)


def test_pearson_domain_errors():
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])
    with pytest.raises(ValueError):
        pearson([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0])


def test_pearson_affine_invariance():
    rng = random.Random(21)
    x = [rng.uniform(-5, 5) for _ in range(20)]
    y = [rng.uniform(-5, 5) for _ in range(20)]
    base = pearson(x, y)
    scaled = pearson([3.0 * v + 7.0 for v in x], [0.5 * w - 2.0 for w in y])
    assert scaled == pytest.approx(base, abs=1e-12)


# -- fleiss_kappa -----------------------------------------------------------------


def test_fleiss_perfect_agreement():
    matrix = [[3, 0], [3, 0], [0, 3], [3, 0]]
    assert fleiss_kappa(matrix) == 1.0


def test_fleiss_chance_agreement_zero():
    # Constructed so observed agreement equals chance agreement exactly.
    matrix = [[2, 0], [1, 1], [1, 1], [0, 2]]
    assert fleiss_kappa(matrix) == pytest.approx(0.0, abs=1e-12)


def test_fleiss_frozen_fixture():
    # Oracle: manual P-bar / P-e arithmetic gives exactly 1/3.
    matrix = [[3, 0], [2, 1], [1, 2], [0, 3]]
    assert fleiss_kappa(matrix) == pytest.approx(1 / 3, abs=1e-12)


def test_fleiss_domain_errors():
    with pytest.raises(ValueError):
        fleiss_kappa([[2, 0], [1, 1, 0]])
    with pytest.raises(ValueError):
        fleiss_kappa([[2, 0], [3, 0]])
    with pytest.raises(ValueError):
        fleiss_kappa([[1, 0], [0, 1]])  # single rater


def test_fleiss_never_exceeds_one():
    rng = random.Random(12)
    for _ in range(100):
        raters = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(2, 6)):
            split = rng.randint(0, raters)
            rows.append([split, raters - split])
        kappa = fleiss_kappa(rows)
        assert kappa <= 1.0 + 1e-12


# -- length_stats ------------------------------------------------------------------


def test_length_stats_empty():
    histogram, mean, std = length_stats([])
    assert histogram == {} and mean == 0.0 and std == 0.0


def test_length_stats_single():
    histogram, mean, std = length_stats(["a b c"])
    assert histogram == {2: 1}
    assert mean == 3.0 and std == 0.0


def test_length_stats_against_independent_recomputation():
    rng = random.Random(31)
    questions = [" ".join("w" for _ in range(rng.randint(1, 40))) for _ in range(1000)]
    histogram, mean, std = length_stats(questions)
    counts = [len(q.split()) for q in questions]
    assert mean == pytest.approx(statistics.fmean(counts))
    assert std == pytest.approx(statistics.pstdev(counts))
    assert sum(histogram.values()) == 1000
    for count in counts:
        bin_lower = (count // 2) * 2
        assert bin_lower in histogram

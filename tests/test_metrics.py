from __future__ import annotations

import dataclasses
import math
import random
import statistics
from decimal import Decimal, localcontext

import numpy as np
import pytest

from knight.errors import AdapterError
from knight.metrics import (
    MAX_ENTROPY,
    ProbeLogits,
    _mean,
    _pstd,
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


# -- against the numpy implementations the package used before ---------------------
#
# The oracle below is the earlier numpy code, verbatim apart from names. The
# package now sums with math.fsum (correctly rounded) and uses libm's exp and
# log, so results may differ from it in the last bits, never by more than a
# relative 1e-15.


def _np_predictive_entropy(z):
    z = np.array(z, dtype=float)
    z = z - z.max()
    p = np.exp(z)
    p = p / p.sum()
    nonzero = p > 0.0
    entropy = float(-(p[nonzero] * np.log(p[nonzero])).sum())
    return p, min(max(entropy, 0.0), MAX_ENTROPY)


def _np_mean_std(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def _np_pearson(x, y):
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = math.sqrt(float((dx * dx).sum()))
    sy = math.sqrt(float((dy * dy).sum()))
    return float((dx * dy).sum()) / (sx * sy)


def _np_fleiss_kappa(ratings):
    matrix = np.asarray(ratings, dtype=float)
    n = matrix.sum(axis=1)[0]
    p_j = matrix.sum(axis=0) / matrix.sum()
    p_i = ((matrix * matrix).sum(axis=1) - n) / (n * (n - 1))
    p_bar = float(p_i.mean())
    p_e = float((p_j * p_j).sum())
    if p_e == 1.0:
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


def _close(a, b, floor=0.0):
    """Relative difference at most 1e-15, measured against at least ``floor``."""
    return abs(a - b) <= 1e-15 * max(abs(a), abs(b), floor)


def test_entropy_matches_numpy_oracle():
    rng = random.Random(41)
    for spread in (1.0, 30.0):
        for _ in range(2000):
            z = [rng.uniform(-spread, spread) for _ in range(4)]
            probs, entropy = predictive_entropy(ProbeLogits(*z))
            expected_probs, expected_entropy = _np_predictive_entropy(z)
            assert all(_close(p, float(q)) for p, q in zip(probs, expected_probs))
            # Entropy is checked on the narrow logits only: near one-hot,
            # a last-bit difference in p is amplified by about 1 / H (see
            # the exact-reference test below).
            if spread == 1.0:
                assert _close(entropy, expected_entropy)


def test_entropy_of_wide_logits_is_no_less_accurate_than_numpy():
    # Against a 50-digit decimal evaluation, fsum and libm are closer than
    # the numpy oracle more often than they are farther.
    def exact(z):
        exps = [(Decimal(v) - Decimal(max(z))).exp() for v in z]
        total = sum(exps)
        return -sum(p * p.ln() for p in (e / total for e in exps))

    rng = random.Random(43)
    closer = farther = 0
    with localcontext() as context:
        context.prec = 50
        for _ in range(300):
            z = [rng.uniform(-6.0, 6.0) for _ in range(4)]
            truth = exact(z)
            ours = abs(Decimal(predictive_entropy(ProbeLogits(*z))[1]) - truth)
            theirs = abs(Decimal(_np_predictive_entropy(z)[1]) - truth)
            closer += ours < theirs
            farther += ours > theirs
    assert closer > farther


def test_mean_std_match_numpy_oracle():
    rng = random.Random(42)
    for _ in range(500):
        entropies = [rng.uniform(0.0, MAX_ENTROPY) for _ in range(rng.randint(1, 200))]
        mean, std = _np_mean_std(entropies)
        assert _close(_mean(entropies), mean) and _close(_pstd(entropies), std)
        questions = ["w " * rng.randint(1, 40) for _ in range(rng.randint(1, 30))]
        _histogram, length_mean, length_std = length_stats(questions)
        mean, std = _np_mean_std([len(q.split()) for q in questions])
        assert length_mean == mean and _close(length_std, std)


def test_pearson_and_fleiss_match_numpy_oracle():
    # Both lie in [-1, 1] and can be 0 by cancellation, so their difference
    # is measured against at least 1.
    rng = random.Random(44)
    for _ in range(1000):
        k = rng.randint(2, 200)
        x = [rng.uniform(0.0, MAX_ENTROPY) for _ in range(k)]
        y = [rng.uniform(-5.0, 5.0) for _ in range(k)]
        assert _close(pearson(x, y), _np_pearson(x, y), floor=1.0)
        categories, raters = rng.randint(2, 5), rng.randint(2, 9)
        rows = []
        for _ in range(rng.randint(1, 30)):
            row = [0] * categories
            for _ in range(raters):
                row[rng.randrange(categories)] += 1
            rows.append(row)
        assert _close(fleiss_kappa(rows), _np_fleiss_kappa(rows), floor=1.0)


def test_statistics_do_not_depend_on_input_order():
    # Correctly rounded sums make each result a function of the multiset of
    # inputs, bit for bit: option order cannot move an item's entropy.
    rng = random.Random(45)
    for _ in range(500):
        z = [rng.uniform(-8.0, 8.0) for _ in range(4)]
        shuffled = rng.sample(z, 4)
        probs, entropy = predictive_entropy(ProbeLogits(*z))
        shuffled_probs, shuffled_entropy = predictive_entropy(ProbeLogits(*shuffled))
        assert shuffled_entropy == entropy
        assert sorted(shuffled_probs) == sorted(probs)
        values = [rng.uniform(0.0, MAX_ENTROPY) for _ in range(rng.randint(1, 50))]
        reordered = rng.sample(values, len(values))
        assert (_mean(reordered), _pstd(reordered)) == (_mean(values), _pstd(values))

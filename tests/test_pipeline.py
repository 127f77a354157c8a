from __future__ import annotations

import dataclasses
import logging
import re
import sys
import threading
import time
from collections import Counter

import pytest

from knight.adapters import AdapterSuite
from knight.config import PipelineConfig
from knight.errors import AdapterError, AuthError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import Topic
from knight.pipeline import Services, run_pipeline
from knight.qgen import path_repr
from knight.retrieval import FixtureWikiSource
from knight.storage import item_to_record, snapshot_document

from conftest import FailingSource, RecordingBackend


def _services(world, max_inflight, backend=None, probe=None, seed=7):
    backend = backend or MockChatBackend(world, rng_seed=seed)
    adapters = AdapterSuite.fixture_suite(world, rng_seed=seed)
    if probe is not None:
        adapters = dataclasses.replace(adapters, probe=probe)
    return Services(
        gateway=ChatGateway(backend, max_inflight=max_inflight),
        source=FixtureWikiSource(world),
        adapters=adapters,
        world=world,
    )


def _run(world, mode, max_inflight=1, num_q=10, backend=None, probe=None, seed=7, **fields):
    config = PipelineConfig(
        rng_seed=seed, d_max=2, pipeline_mode=mode, max_inflight=max_inflight, **fields
    ).validate()
    services = _services(world, max_inflight, backend=backend, probe=probe, seed=seed)
    result, services = run_pipeline(Topic("Biology"), config, num_q, services=services)
    return result, services


def _outputs(result, services):
    """Everything a run writes or reports, apart from timing."""
    return {
        "dataset": [item_to_record(item) for item in result.kept_items],
        "items": [item_to_record(item) for item in result.items],
        "snapshot": (
            snapshot_document(result.graph, result.topic, report=result.build_report)
            if result.graph is not None
            else None
        ),
        "rejects": [r.to_dict() for r in result.rejects],
        "rows": result.metric_rows,
        "stats": result.stats.to_dict(),
        "counters": (
            result.attempts,
            result.generation_rejected,
            result.duplicates_dropped,
            result.validation_dropped,
            result.aborted_reason,
        ),
        "ledger": services.gateway.ledger.totals(),
    }


# The LLM calls per task tag on Biology, d_max 2, num_q 12, seed 0. A change
# that adds or removes a call must update these numbers on purpose. The
# critic makes one call per group of items that share a source block: the
# forward and reverse items of one path in knight, and up to ten items of
# the one evidence block in rag_val.
CALL_BUDGET = {
    "knight": {
        "title_check": 2,
        "gloss": 5,
        "triples": 3,
        "mcq_forward": 6,
        "mcq_reverse": 6,
        "validate": 6,
    },
    "rag_val": {"title_check": 1, "mcq_forward": 12, "validate": 2},
}


@pytest.mark.parametrize("max_inflight", [1, 4])
@pytest.mark.parametrize("mode", sorted(CALL_BUDGET))
def test_call_budget_per_tag(world, mode, max_inflight):
    backend = RecordingBackend(MockChatBackend(world, rng_seed=0))
    result, _ = _run(world, mode, max_inflight, num_q=12, backend=backend, seed=0)
    assert len(result.kept_items) == 12
    assert Counter(r.task_tag for r in backend.requests) == CALL_BUDGET[mode]


@pytest.mark.parametrize("mode", ["knight", "rag_val"])
def test_fan_out_matches_serial_run(world, mode):
    serial = _outputs(*_run(world, mode, max_inflight=1))
    # More workers than cores and frequent thread switches, so a lost
    # ledger or counter update would show in the comparison.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fanned = _outputs(*_run(world, mode, max_inflight=4))
    finally:
        sys.setswitchinterval(interval)
    assert serial["dataset"]
    assert fanned == serial


class PeakBackend:
    """Records the peak number of concurrent calls per task group. The short
    sleep keeps a call in flight long enough for a second one to start."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.inflight = {"mcq": 0, "validate": 0}
        self.peak = {"mcq": 0, "validate": 0}

    def complete(self, request):
        group = "mcq" if request.task_tag.startswith("mcq_") else request.task_tag
        if group not in self.inflight:
            return self.inner.complete(request)
        with self.lock:
            self.inflight[group] += 1
            self.peak[group] = max(self.peak[group], self.inflight[group])
        try:
            time.sleep(0.005)
            return self.inner.complete(request)
        finally:
            with self.lock:
                self.inflight[group] -= 1


@pytest.mark.parametrize("max_inflight, overlaps", [(1, False), (2, True)])
def test_generation_and_critic_calls_overlap(world, max_inflight, overlaps):
    backend = PeakBackend(MockChatBackend(world, rng_seed=7))
    _run(world, "knight", max_inflight=max_inflight, backend=backend)
    if overlaps:
        assert backend.peak["mcq"] > 1
        assert backend.peak["validate"] > 1
    else:
        assert backend.peak == {"mcq": 1, "validate": 1}
    assert max(backend.peak.values()) <= max_inflight


class FailingBackend:
    """Raises ``AuthError`` at once on every request of one tag whose prompt
    contains ``marker``: a fixed item, whatever order the calls come in.
    The other calls of that tag take 20 ms, so the failure is recorded
    while its neighbours are still in flight."""

    def __init__(self, inner, tag, marker):
        self.inner = inner
        self.tag = tag
        self.marker = marker
        self.lock = threading.Lock()
        self.calls = 0

    def complete(self, request):
        if request.task_tag == self.tag:
            with self.lock:
                self.calls += 1
            if self.marker in request.user_prompt:
                raise AuthError("key revoked")
            time.sleep(0.02)
        return self.inner.complete(request)


def test_validate_failure_keeps_items_before_it(world):
    baseline, _ = _run(world, "knight", num_q=16)
    # Items 4 and 5 are the two orientations of one path, so they share a
    # source block and one critic group; the groups before it hold items 0-3
    # in pairs.
    k, first = 5, 4
    contexts = [item.source_context for item in baseline.items]
    assert contexts[first] == contexts[k] != contexts[first - 1]
    groups_before = first // 2
    failing_question = baseline.items[k].question
    runs = []
    for max_inflight in (1, 4):
        backend = FailingBackend(MockChatBackend(world, rng_seed=7), "validate", failing_question)
        result, services = _run(
            world, "knight", max_inflight=max_inflight, num_q=16, backend=backend
        )
        assert result.aborted_reason == "AuthError: key revoked"
        assert [i.id for i in result.kept_items] == [i.id for i in baseline.kept_items[:first]]
        assert result.graph is not None and result.graph.nodes
        # Groups after the failing one are not started once it has failed;
        # only those already in flight beside it were sent.
        assert len(baseline.items) // 2 > groups_before + max_inflight
        assert backend.calls <= groups_before + max_inflight
        outputs = _outputs(result, services)
        del outputs["ledger"]  # calls after the failure may already be in flight
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_generation_failure_keeps_items_before_it(world):
    baseline, _ = _run(world, "rag_val")
    k = 5
    runs = []
    for max_inflight in (1, 4):
        backend = FailingBackend(
            MockChatBackend(world, rng_seed=7), "mcq_forward", f"Variation tag: {k} "
        )
        result, services = _run(world, "rag_val", max_inflight=max_inflight, backend=backend)
        assert result.aborted_reason == "AuthError: key revoked"
        assert result.attempts == k + 1
        assert [i.id for i in result.items] == [i.id for i in baseline.items[:k]]
        assert all(item.flags is not None for item in result.kept_items)
        outputs = _outputs(result, services)
        del outputs["ledger"]
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_build_failure_is_reported_and_run_goes_on(world):
    baseline, _ = _run(world, "knight")
    leaf = next(n for n in baseline.graph.nodes.values() if n.depth == 2)
    backend = FailingBackend(
        MockChatBackend(world, rng_seed=7), "gloss", f'Explain the term: "{leaf.name}"'
    )
    result, _ = _run(world, "knight", backend=backend)
    assert result.build_report.aborted_reason == "AuthError: key revoked"
    assert result.aborted_reason == result.build_report.aborted_reason
    assert result.kept_items


def test_build_abort_with_no_path_leaves_no_attempts(world):
    backend = FailingBackend(MockChatBackend(world, rng_seed=7), "triples", "")
    result, _ = _run(world, "knight", backend=backend)
    assert result.aborted_reason == "AuthError: key revoked"
    assert list(result.graph.nodes) == [result.graph.seed_id]
    assert (result.attempts, result.items, result.kept_items) == (0, [], [])
    assert result.stats is not None and result.metric_rows == []


# A reply that lacks options B-D and the key line, so it does not parse.
MALFORMED_MCQ = "Question: Which one?\nA) only option"


def _planted_reject(world, mode):
    """The first item of a baseline run, and an override that makes the
    same attempt's reply malformed: its path text in a path mode, its
    variation tag in a direct mode."""
    baseline, _ = _run(world, mode)
    item = baseline.items[3] if mode == "rag_val" else baseline.items[0]
    if item.path is None:
        assert item.id.endswith("-dir-0003")
        marker = "Variation tag: 3 "
    else:
        marker = f'Path: "{path_repr(item.path, baseline.graph)}"'
    tag = "mcq_forward" if item.orientation == "forward" else "mcq_reverse"
    return baseline, item, MockOverride(tag, marker, MALFORMED_MCQ)


@pytest.mark.parametrize("mode", ["knight", "rag_val"])
def test_rejected_generation_costs_its_item_alone(world, mode, caplog):
    baseline, planted, override = _planted_reject(world, mode)
    assert baseline.generation_rejected == 0
    runs = []
    for max_inflight in (1, 4):
        backend = MockChatBackend(world, rng_seed=7, overrides=[override])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="knight.pipeline"):
            result, services = _run(world, mode, max_inflight=max_inflight, backend=backend)
        assert result.generation_rejected == 1
        assert result.attempts == baseline.attempts
        assert [item_to_record(i) for i in result.items] == [
            item_to_record(i) for i in baseline.items if i.id != planted.id
        ]
        assert [i.id for i in result.kept_items] == [
            i.id for i in baseline.kept_items if i.id != planted.id
        ]
        rejected = [r.getMessage() for r in caplog.records if "generation rejected" in r.getMessage()]
        assert len(rejected) == 1 and planted.id in rejected[0]
        runs.append(_outputs(result, services))
    assert runs[0] == runs[1]


def test_sample_gate_draws_on_the_item_not_its_position(world):
    """A rejected generation moves every later item up one place in the
    list; each item's critic draw must not move with it."""
    baseline, _ = _run(world, "rag_val", validation_sample_rate=0.5)
    skipped = {item.id: item.flags.llm_skipped for item in baseline.items}
    assert set(skipped.values()) == {True, False}
    override = MockOverride("mcq_forward", "Variation tag: 3 ", MALFORMED_MCQ)
    backend = MockChatBackend(world, rng_seed=7, overrides=[override])
    result, _ = _run(world, "rag_val", backend=backend, validation_sample_rate=0.5)
    assert result.generation_rejected == 1
    assert len(result.items) == len(baseline.items) - 1
    assert {item.id: item.flags.llm_skipped for item in result.items} == {
        item.id: skipped[item.id] for item in result.items
    }


class CriticBlockFaults:
    """Edits the critic's reply per item: the block of the item that asks
    ``no_question`` answers NO on Answerable_From_Source, and the block of
    the one that asks ``bad_question`` is dropped or garbled."""

    def __init__(self, inner, no_question, bad_question, fault):
        self.inner = inner
        self.questions = {"no": no_question, "bad": bad_question}
        self.fault = fault
        self.lock = threading.Lock()
        self.calls = 0

    def complete(self, request):
        response = self.inner.complete(request)
        if request.task_tag != "validate":
            return response
        with self.lock:
            self.calls += 1
        slots = re.split(r"^Item (\d+)$", request.user_prompt, flags=re.MULTILINE)
        numbers = {
            role: number
            for number, slot in zip(slots[1::2], slots[2::2])
            for role, question in self.questions.items()
            if f'Question: "{question}"' in slot
        }
        blocks = []
        for block in response.text.split("\n\n"):
            number = block.splitlines()[0].removeprefix("Item ")
            if number == numbers.get("no"):
                block = block.replace("Answerable_From_Source: YES", "Answerable_From_Source: NO")
            if number == numbers.get("bad"):
                if self.fault == "drop":
                    continue
                block = f"Item {number}\nGrammar_Fluency: perhaps"
            blocks.append(block)
        return dataclasses.replace(response, text="\n\n".join(blocks))


@pytest.mark.parametrize("fault", ["drop", "garble"])
def test_each_critic_block_goes_to_its_own_item(world, fault):
    baseline, _ = _run(world, "rag_val", num_q=12)
    assert len(baseline.items) == 12 and baseline.validation_dropped == 0
    no_item, bad_item = baseline.items[1], baseline.items[6]
    runs = []
    for max_inflight in (1, 4):
        backend = CriticBlockFaults(
            MockChatBackend(world, rng_seed=7), no_item.question, bad_item.question, fault
        )
        result, services = _run(
            world, "rag_val", max_inflight=max_inflight, num_q=12, backend=backend
        )
        assert backend.calls == 2  # items 0-9, then items 10 and 11
        assert result.validation_dropped == 2
        flags = {item.id: item.flags for item in result.items}
        assert flags[no_item.id].answerable_from_source is False
        assert not flags[no_item.id].parse_failed
        assert flags[bad_item.id].parse_failed and not flags[bad_item.id].kept
        assert [item.id for item in result.kept_items] == [
            item.id for item in baseline.items if item not in (no_item, bad_item)
        ]
        assert all(
            flags[item.id] == item.flags
            for item in baseline.items
            if item not in (no_item, bad_item)
        )
        runs.append(_outputs(result, services))
    assert runs[0] == runs[1]


def test_critic_prompts_start_with_the_shared_source_block(world):
    """The evidence block all rag_val items share opens every critic prompt,
    so a provider's prefix cache can reuse it across calls."""
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    result, _ = _run(world, "rag_val", num_q=12, backend=backend)
    source = result.items[0].source_context
    assert source.startswith("Evidence passages:\n")
    assert all(item.source_context == source for item in result.items)
    prompts = [r.user_prompt for r in backend.requests if r.task_tag == "validate"]
    assert len(prompts) == 2
    assert all(prompt.startswith(f"Source Information\n{source}\n\n") for prompt in prompts)


def test_lookup_failure_falls_back_in_a_direct_mode(world):
    config = PipelineConfig(rng_seed=7, d_max=2, pipeline_mode="rag_val").validate()
    services = dataclasses.replace(
        _services(world, 1), source=FailingSource(FixtureWikiSource(world), "search")
    )
    result, _ = run_pipeline(Topic("Biology"), config, 10, services=services)
    assert result.aborted_reason is None
    assert result.kept_items
    assert all(item.provenance["parametric_fallback"] for item in result.items)
    assert all(item.provenance["passage_ids"] == [] for item in result.items)


class CountingProbe:
    def __init__(self, inner, fail_on=None):
        self.inner = inner
        self.fail_on = fail_on
        self.calls = 0

    def logits(self, question, options, answer_key, level):
        self.calls += 1
        if question == self.fail_on:
            raise AdapterError("probe unavailable")
        return self.inner.logits(question, options, answer_key, level)


def test_probe_called_once_per_kept_item(world):
    probe = CountingProbe(AdapterSuite.fixture_suite(world, rng_seed=7).probe)
    result, _ = _run(world, "knight", probe=probe)
    assert result.kept_items
    assert probe.calls == len(result.kept_items)
    assert result.stats.probe_excluded == 0


def test_probe_failure_costs_one_item(world):
    baseline, _ = _run(world, "knight")
    failing = baseline.kept_items[1]
    probe = CountingProbe(AdapterSuite.fixture_suite(world, rng_seed=7).probe, failing.question)
    result, _ = _run(world, "knight", probe=probe)
    assert result.stats.probe_excluded == 1
    assert len(result.metric_rows) == len(baseline.metric_rows)
    row = next(r for r in result.metric_rows if r["id"] == failing.id)
    assert row["entropy"] is None and row["probe_choice"] is None
    assert row["probe_correct"] is None and row["key_probability"] is None
    scored = [r for r in baseline.metric_rows if r["id"] != failing.id]
    assert result.stats.mean_entropy == pytest.approx(
        sum(r["entropy"] for r in scored) / len(scored)
    )
    assert result.stats.probe_accuracy == pytest.approx(
        sum(r["probe_correct"] for r in scored) / len(scored)
    )


def test_yield_shortfall_warns(world, caplog):
    with caplog.at_level(logging.WARNING, logger="knight.pipeline"):
        result, _ = _run(world, "knight", num_q=100, seed=0)
    assert len(result.kept_items) == 20
    assert result.duplicates_dropped == 80
    shortfall = [r.getMessage() for r in caplog.records if "yield shortfall" in r.getMessage()]
    assert len(shortfall) == 1
    assert "20 of 100" in shortfall[0]
    assert "duplicates_dropped=80" in shortfall[0]


def test_full_yield_does_not_warn(world, caplog):
    with caplog.at_level(logging.WARNING, logger="knight.pipeline"):
        result, _ = _run(world, "knight", num_q=4)
    assert len(result.kept_items) == 4
    assert not any("yield shortfall" in r.getMessage() for r in caplog.records)

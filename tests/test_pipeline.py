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
from knight.errors import AdapterError, AuthError, ConfigError
from knight import prompts as prompts_mod
from knight.gateway import ChatGateway, MockChatBackend, MockOverride, OpenAiCompatBackend
from knight.graph import KnowledgeGraph, Topic
from knight.pipeline import Services, build_services, run_pipeline
from knight.prompts import critic_sources, read_path_context, split_items
from knight.qgen import path_repr
from knight.retrieval import (
    FixtureWikiSource, NetworkWikiSource, choose_titles, mixture_weights, retrieve_evidence,
)
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
# critic makes one call per group of up to ten consecutive items, whatever
# their source blocks, so both modes' twelve items take two critic calls.
# Direct generation makes one call per group of up to ten items, so rag_val
# drafts 10, then 2. Path generation makes one call per run of up to ten
# sampled pairs of one orientation, so knight's 12 pairs, six forward and
# six reverse, take one call per orientation. The graph build makes one
# gloss call per run of one level: the seed, its two children (Ecology and
# Life), and Ecology's two children (Life's gloss yields no triples). The
# two runs above d_max make one triples call each. A title-check call is
# one round over the nodes of a run that have search results left to check:
# one for the seed and one for Ecology, whose first candidate is approved.
CALL_BUDGET = {
    "knight": {
        "title_check": 2,
        "gloss": 3,
        "triples": 2,
        "mcq_forward": 1,
        "mcq_reverse": 1,
        "validate": 2,
    },
    "rag_val": {"title_check": 1, "mcq_forward": 2, "validate": 2},
}


@pytest.mark.parametrize("max_inflight", [1, 4])
@pytest.mark.parametrize("mode", sorted(CALL_BUDGET))
def test_call_budget_per_tag(world, mode, max_inflight):
    backend = RecordingBackend(MockChatBackend(world, rng_seed=0))
    result, _ = _run(world, mode, max_inflight, num_q=12, backend=backend, seed=0)
    assert len(result.kept_items) == 12
    assert Counter(r.task_tag for r in backend.requests) == CALL_BUDGET[mode]


def test_build_services_wires_the_network_backends(monkeypatch, caplog):
    """``backend = "openai"`` gives the chat client the config's endpoint,
    key, model and retry count, a network wiki source and a gateway of
    ``max_inflight`` slots; building them sends no request."""
    import requests

    def refuse(*args, **kwargs):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(requests.Session, "request", refuse)
    config = PipelineConfig(
        backend="openai", openai_api_key="sk-test", openai_base_url="http://localhost:9/v1/",
        openai_model="test-model", retry_attempts=5, max_inflight=3,
    ).validate()
    with caplog.at_level(logging.INFO, logger="knight.pipeline"):
        services = build_services(config)
    backend = services.gateway.backend
    assert isinstance(backend, OpenAiCompatBackend)
    assert (backend.base_url, backend.api_key, backend.model, backend.retry_attempts) == (
        "http://localhost:9/v1", "sk-test", "test-model", 5
    )
    assert isinstance(services.source, NetworkWikiSource)
    assert services.gateway.max_inflight == 3
    assert services.adapters is not None and services.world.sorted_names()
    assert "network chat backend active" in caplog.text


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
    """Records the peak number of concurrent calls per task group. Until two
    calls of a group have been in flight together, each of its calls waits
    for a second one to start, up to ``HOLD_S``; so a bound that lets two
    calls overlap reads a peak of 2 unless the second call starts more than
    ``HOLD_S`` late."""

    HOLD_S = 0.3

    def __init__(self, inner):
        self.inner = inner
        self.changed = threading.Condition()
        self.inflight = {"mcq": 0, "validate": 0}
        self.peak = {"mcq": 0, "validate": 0}

    def complete(self, request):
        group = "mcq" if request.task_tag.startswith("mcq_") else request.task_tag
        if group not in self.inflight:
            return self.inner.complete(request)
        with self.changed:
            self.inflight[group] += 1
            self.peak[group] = max(self.peak[group], self.inflight[group])
            self.changed.notify_all()
            self.changed.wait_for(lambda: self.peak[group] > 1, timeout=self.HOLD_S)
        try:
            return self.inner.complete(request)
        finally:
            with self.changed:
                self.inflight[group] -= 1


@pytest.mark.parametrize("max_inflight, overlaps", [(1, False), (2, True)])
def test_generation_and_critic_calls_overlap(world, max_inflight, overlaps):
    """At num_q 20 the sampled pairs fill two runs of each orientation, and
    the critic takes two groups; any two of those calls may run side by
    side."""
    backend = PeakBackend(MockChatBackend(world, rng_seed=7))
    _run(world, "knight", max_inflight=max_inflight, num_q=20, backend=backend)
    if overlaps:
        assert backend.peak["mcq"] > 1
        assert backend.peak["validate"] > 1
    else:
        assert backend.peak == {"mcq": 1, "validate": 1}
    assert max(backend.peak.values()) <= max_inflight


@pytest.mark.parametrize("max_inflight, overlaps", [(1, False), (2, True)])
def test_forward_and_reverse_runs_overlap(world, max_inflight, overlaps):
    """At num_q 10 each orientation's five pairs make one run, and so one
    call; the forward call and the reverse call start together."""
    backend = PeakBackend(RecordingBackend(MockChatBackend(world, rng_seed=7)))
    _run(world, "knight", max_inflight=max_inflight, num_q=10, backend=backend)
    tags = Counter(r.task_tag for r in backend.inner.requests if r.task_tag.startswith("mcq_"))
    assert tags == {"mcq_forward": 1, "mcq_reverse": 1}
    assert backend.peak["mcq"] == (2 if overlaps else 1)


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


def test_validate_failure_keeps_items_before_it(world, monkeypatch):
    # A critic group is a run of BATCH consecutive items, whatever their
    # sources; at BATCH 4 the 40 items make ten groups. Item 6 lies in the
    # second group (items 4-7, on more than one source), so its failure
    # costs that whole group, and the first group's four items are kept.
    batch = 4
    monkeypatch.setattr(prompts_mod, "BATCH", batch)
    baseline, _ = _run(world, "knight", num_q=40)
    k, first = 6, 4
    assert len({item.source_context for item in baseline.items[first : first + batch]}) > 1
    groups_before = first // batch
    failing_question = baseline.items[k].question
    runs = []
    for max_inflight in (1, 4):
        backend = FailingBackend(MockChatBackend(world, rng_seed=7), "validate", failing_question)
        result, services = _run(
            world, "knight", max_inflight=max_inflight, num_q=40, backend=backend
        )
        assert result.aborted_reason == "AuthError: key revoked"
        assert [i.id for i in result.kept_items] == [i.id for i in baseline.kept_items[:first]]
        assert result.graph is not None and result.graph.nodes
        # Groups after the failing one are not started once it has failed;
        # only those already in flight beside it were sent.
        assert len(baseline.items) // batch > groups_before + max_inflight
        assert backend.calls <= groups_before + max_inflight
        outputs = _outputs(result, services)
        del outputs["ledger"]  # calls after the failure may already be in flight
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_generation_failure_keeps_items_before_it(world):
    """Items 10-19 share one generation call; its failure costs the whole
    group and the group after it, and the first group's ten are kept."""
    baseline, _ = _run(world, "rag_val", num_q=25)
    first_group = [f"biology-L2-dir-{index:04d}" for index in range(10)]
    runs = []
    for max_inflight in (1, 4):
        backend = FailingBackend(
            MockChatBackend(world, rng_seed=7), "mcq_forward", "Variation tag: 15 "
        )
        result, services = _run(
            world, "rag_val", max_inflight=max_inflight, num_q=25, backend=backend
        )
        assert result.aborted_reason == "AuthError: key revoked"
        assert result.attempts == 20
        assert [i.id for i in result.items] == [
            i.id for i in baseline.items if i.id in first_group
        ]
        assert [i.id for i in result.kept_items] == first_group
        assert all(item.flags is not None for item in result.kept_items)
        outputs = _outputs(result, services)
        del outputs["ledger"]
        runs.append(outputs)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("mode", ["plain", "rag", "rag_val"])
def test_direct_outputs_do_not_depend_on_the_group_size(world, mode, monkeypatch):
    """Each item's reply reads only what every group shares and its own
    variation tag, so one item per call gives the same dataset as ten."""
    runs = []
    for batch in (1, 10):
        monkeypatch.setattr(prompts_mod, "BATCH", batch)
        for max_inflight in (1, 4):
            backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
            result, services = _run(
                world, mode, max_inflight=max_inflight, num_q=12, backend=backend
            )
            calls = sum(r.task_tag == "mcq_forward" for r in backend.requests)
            assert calls == (12 if batch == 1 else 2)
            outputs = _outputs(result, services)
            del outputs["ledger"]  # prompts, and so token counts, differ
            runs.append(outputs)
    assert runs[0]["dataset"]
    assert all(run == runs[0] for run in runs)


class GenerationBlockFaults:
    """Edits a generation reply per item, found by its task tag and a marker
    text in its slot: the item's block is dropped, garbled, repeated, or
    keyed on another option."""

    def __init__(self, inner, faults):
        self.inner = inner
        self.faults = faults

    def complete(self, request):
        response = self.inner.complete(request)
        if not request.task_tag.startswith("mcq_"):
            return response
        faults = {
            number: fault
            for number, slot in split_items(request.user_prompt)[1]
            for (tag, marker), fault in self.faults.items()
            if tag == request.task_tag and marker in slot
        }
        blocks = []
        for number, block in split_items(response.text)[1]:
            text = f"Item {number}{block}"
            fault = faults.get(number)
            if fault == "drop":
                continue
            if fault == "garble":
                text = f"Item {number}\nQuestion: Which one?\nA) only option"
            if fault == "rekey":
                key = re.search(r"Correct Answer: ([A-D])", text).group(1)
                other = "B" if key == "A" else "A"
                text = text.replace(f"Correct Answer: {key}", f"Correct Answer: {other}")
            blocks.append(text)
            if fault == "repeat":
                blocks.append(text)
        return dataclasses.replace(response, text="\n\n".join(blocks))


def test_each_generation_block_goes_to_its_own_item(world):
    baseline, _ = _run(world, "rag_val", num_q=12)
    assert baseline.duplicates_dropped == 0 and baseline.generation_rejected == 0
    faults = {2: "drop", 5: "garble", 11: "repeat"}
    faulted = {f"biology-L2-dir-{index:04d}" for index in faults}
    markers = {
        ("mcq_forward", f"Variation tag: {index} "): fault for index, fault in faults.items()
    }
    runs = []
    for max_inflight in (1, 4):
        backend = GenerationBlockFaults(MockChatBackend(world, rng_seed=7), markers)
        result, services = _run(
            world, "rag_val", max_inflight=max_inflight, num_q=12, backend=backend
        )
        assert (result.attempts, result.generation_rejected) == (12, 3)
        assert [item_to_record(i) for i in result.items] == [
            item_to_record(i) for i in baseline.items if i.id not in faulted
        ]
        assert [i.id for i in result.kept_items] == [
            i.id for i in baseline.kept_items if i.id not in faulted
        ]
        runs.append(_outputs(result, services))
    assert runs[0] == runs[1]


def test_direct_prompts_share_the_evidence_prefix(world):
    """Every generation group of a run opens with the same instruction line
    and evidence block, so a provider's prefix cache can reuse it."""
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    _run(world, "rag_val", num_q=25, backend=backend)
    prompts = [r.user_prompt for r in backend.requests if r.task_tag == "mcq_forward"]
    assert len(prompts) == 3
    end = "\n--- End Evidence ---"
    prefix = prompts[0][: prompts[0].index(end) + len(end)]
    assert "--- Evidence ---\n" in prefix
    assert all(prompt.startswith(prefix) for prompt in prompts)


@pytest.mark.parametrize("mode", ["knight", "rag_kg"])
def test_path_outputs_do_not_depend_on_the_group_size(world, mode, monkeypatch):
    """Each path item's reply reads only its orientation's shared head and
    its own slot, so one pair per call gives the same dataset as three or
    ten. Each orientation's six pairs fill its calls: every call but the
    last of its tag has ``BATCH`` slots."""
    runs = []
    for batch in (1, 3, 10):
        monkeypatch.setattr(prompts_mod, "BATCH", batch)
        for max_inflight in (1, 4):
            backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
            result, services = _run(
                world, mode, max_inflight=max_inflight, num_q=12, backend=backend
            )
            for tag in ("mcq_forward", "mcq_reverse"):
                sizes = sorted(
                    (len(split_items(r.user_prompt)[1])
                     for r in backend.requests if r.task_tag == tag),
                    reverse=True,
                )
                assert sum(sizes) == 6
                assert sizes[:-1] == [batch] * (len(sizes) - 1) and 1 <= sizes[-1] <= batch
            outputs = _outputs(result, services)
            del outputs["ledger"]  # prompts, and so token counts, differ
            runs.append(outputs)
    assert runs[0]["dataset"]
    assert all(run == runs[0] for run in runs)


def test_each_path_block_goes_to_its_own_item(world):
    """In knight's first window, one reverse block is dropped, one forward
    block garbled, and one reverse block keyed on an option that is not the
    start node; each costs only its own item."""
    baseline, _ = _run(world, "knight", num_q=12)
    assert baseline.duplicates_dropped == 0 and baseline.generation_rejected == 0
    pairs = Counter((i.orientation, tuple(i.path.node_ids)) for i in baseline.items)
    planted = {3: "drop", 4: "garble", 7: "rekey"}
    markers = {}
    for index, fault in planted.items():
        item = baseline.items[index]
        assert pairs[item.orientation, tuple(item.path.node_ids)] == 1
        tag = "mcq_forward" if item.orientation == "forward" else "mcq_reverse"
        markers[tag, f'Path: "{path_repr(item.path, baseline.graph)}"'] = fault
    faulted = {baseline.items[index].id for index in planted}
    runs = []
    for max_inflight in (1, 4):
        backend = GenerationBlockFaults(MockChatBackend(world, rng_seed=7), markers)
        result, services = _run(
            world, "knight", max_inflight=max_inflight, num_q=12, backend=backend
        )
        assert (result.attempts, result.generation_rejected) == (12, 3)
        assert [item_to_record(i) for i in result.items] == [
            item_to_record(i) for i in baseline.items if i.id not in faulted
        ]
        assert [i.id for i in result.kept_items] == [
            i.id for i in baseline.kept_items if i.id not in faulted
        ]
        runs.append(_outputs(result, services))
    assert runs[0] == runs[1]


def test_path_generation_failure_costs_its_run(world):
    """At num_q 25 the ten distinct pairs recur, forward and reverse in
    turn. The forward runs are pairs 0, 2, ..., 18 and 20, 22, 24; the
    reverse runs 1, 3, ..., 19 and 21, 23. Only pairs 10-19 carry
    variation tag 1, so the failing reverse call is the first reverse run:
    it costs that run and the stage. The first forward run, queued before
    it, keeps its ten items."""
    baseline, _ = _run(world, "knight", num_q=25)
    first_run = [f"biology-L2-for-{index:04d}" for index in range(0, 20, 2)]
    runs = []
    for max_inflight in (1, 4):
        backend = FailingBackend(
            MockChatBackend(world, rng_seed=7), "mcq_reverse", "Variation tag: 1 "
        )
        result, services = _run(
            world, "knight", max_inflight=max_inflight, num_q=25, backend=backend
        )
        assert result.aborted_reason == "AuthError: key revoked"
        assert result.attempts == 20
        assert [item_to_record(i) for i in result.items] == [
            item_to_record(i) for i in baseline.items if i.id in first_run
        ]
        assert [i.id for i in result.kept_items] == first_run
        outputs = _outputs(result, services)
        del outputs["ledger"]
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_path_prompts_share_their_prefix_through_the_seed_entry(world):
    """Every path-generation call of one orientation opens with the same
    system prompt, topic line and first node entry, the seed's, since every
    path starts there; so a provider's prefix cache can reuse them. At
    num_q 25 each orientation's 12 or 13 pairs take two calls."""
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    result, _ = _run(world, "knight", num_q=25, backend=backend)
    seed = result.graph.nodes[result.graph.seed_id]
    prefix = (
        'IMPORTANT: the questions and options must stay on the overall topic: "Biology".\n\n'
        f'Node Information\nNode: "{seed.name}"\nDescription: "{seed.gloss}"\nNode: "'
    )
    for tag in ("mcq_forward", "mcq_reverse"):
        requests = [r for r in backend.requests if r.task_tag == tag]
        assert len(requests) == 2 and len({r.system_prompt for r in requests}) == 1
        assert all(r.user_prompt.startswith(prefix) for r in requests)


def test_knight_path_prompts_write_each_node_description_once(world):
    """On the packaged Biology world, every path-generation call of a
    ``knight`` run writes each node description at most once, and its head
    gives each slot's start and end nodes their graph glosses."""
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    result, _ = _run(world, "knight", num_q=12, backend=backend)
    names = {node.name: node for node in result.graph.nodes.values()}
    glosses = {node.gloss for node in names.values()}
    requests = [r for r in backend.requests if r.task_tag.startswith("mcq_")]
    assert len(requests) == 2
    for request in requests:
        head, slots = split_items(request.user_prompt)
        assert len(slots) == 6
        assert all(request.user_prompt.count(f'Description: "{text}"') <= 1 for text in glosses)
        for _, slot in slots:
            ends = re.search(r'\nStart Node: "(.*)"\nEnd Node: "(.*)"\n', slot).groups()
            for name in ends:
                assert f'\nNode: "{name}"\nDescription: "{names[name].gloss}"\n' in head


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


@pytest.mark.parametrize("mode", ["knight", "plain"])
def test_zero_items_requested_is_refused_before_any_call(world, mode):
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    with pytest.raises(ConfigError, match="num_q must be >= 1"):
        _run(world, mode, num_q=0, backend=backend)
    assert backend.requests == []


BLANK_MCQ = "Question:   \nA)  \nB) Beta\nC) Gamma\nD) Delta\nCorrect Answer: B"


def test_blank_question_and_option_cost_their_item_without_a_critic(world):
    """``plain`` runs no critic, so only the parse stands between a blank
    question or option and the dataset."""
    baseline, _ = _run(world, "plain")
    override = MockOverride("mcq_forward", "Variation tag: 3 ", BLANK_MCQ)
    backend = MockChatBackend(world, rng_seed=7, overrides=[override])
    result, _ = _run(world, "plain", backend=backend)
    assert result.generation_rejected == 1
    assert [i.id for i in result.kept_items] == [
        i.id for i in baseline.kept_items if not i.id.endswith("-dir-0003")
    ]


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


def test_knight_critic_prompts_write_each_node_description_once(world):
    """On the packaged Biology world, every critic call of a ``knight`` run
    writes each node description once, and each slot's source, rebuilt from
    its call's head, is its item's ``source_context`` byte for byte."""
    backend = RecordingBackend(MockChatBackend(world, rng_seed=7))
    result, _ = _run(world, "knight", num_q=12, backend=backend)
    by_question = {item.question: item for item in result.items}
    descriptions = {
        text
        for item in result.items
        for text in read_path_context(item.source_context).descriptions.values()
    }
    prompts = [r.user_prompt for r in backend.requests if r.task_tag == "validate"]
    assert len(prompts) == 2 and len(by_question) == len(result.items) == 12
    judged, factored = 0, 0
    for prompt in prompts:
        head, slots = split_items(prompt)
        assert all(prompt.count(f'Description: "{text}"') <= 1 for text in descriptions)
        sources = critic_sources(head)
        factored += head.startswith("Node Information\n")
        for _, slot in slots:
            found = re.match(r'\n(?:Source Information: (\d+)\n)?Question: "(.*)"\n', slot)
            item = by_question[found.group(2)]
            if found.group(1) is None:  # a call on one source writes it whole
                assert head.startswith(f"Source Information\n{item.source_context}\n\n")
            else:
                assert sources[int(found.group(1))] == item.source_context
            judged += 1
    assert judged == 12 and factored >= 1


class Reflow:
    """Reflows the first path-generation prompt and the first critic prompt
    with a node block before the mock sees them: a blank line after the
    prompt's first line, and its head's node entries in reverse order.
    ``reflowed`` maps "path" and "validate" to whether node entries moved."""

    def __init__(self, inner):
        self.inner = inner
        self.reflowed: dict[str, bool] = {}

    def complete(self, request):
        group = "path" if request.task_tag.startswith("mcq_") else request.task_tag
        head = split_items(request.user_prompt)[0]
        if group not in self.reflowed and (
            group == "path" or group == "validate" and "Node Information\n" in head
        ):
            first, _, rest = request.user_prompt.partition("\n")
            cut = rest.index("\nItem 1\n")
            head, slots = rest[:cut], rest[cut:]
            found = re.search(r'^Node: "', head, re.MULTILINE)
            if found:
                end = head.find("\n\n", found.start())
                entries = re.split(r'\n(?=Node: ")', head[found.start() : end])
                head = head[: found.start()] + "\n".join(reversed(entries)) + head[end:]
            self.reflowed[group] = found is not None and len(entries) > 1
            request = dataclasses.replace(request, user_prompt=f"{first}\n\n{head}{slots}")
        return self.inner.complete(request)


def test_reflowed_prompts_give_byte_identical_outputs(world):
    """The mock reads fields, not layout: a reflowed path prompt and critic
    prompt give the same datasets, rejects, metrics and token counts."""
    baseline = _outputs(*_run(world, "knight", num_q=12))
    backend = Reflow(MockChatBackend(world, rng_seed=7))
    assert _outputs(*_run(world, "knight", num_q=12, backend=backend)) == baseline
    assert backend.reflowed == {"path": True, "validate": True}


@pytest.mark.parametrize("mode", ["rag", "rag_val"])
def test_direct_items_carry_the_provenance_of_a_path_item(world, mode):
    # The seed node is the topic's node id, as on a path item, and the
    # mixture weights are those of the item's passages.
    topic = "World War II"
    config = PipelineConfig(rng_seed=7, d_max=2, pipeline_mode=mode).validate()
    result, services = run_pipeline(Topic(topic), config, 3, services=_services(world, 1))
    [title] = choose_titles([topic], services.source, services.gateway, config, [None])
    retrieval = retrieve_evidence(topic, title, services.source, config)
    assert retrieval.passages and result.items
    for item in result.items:
        assert item.provenance["seed_node"] == KnowledgeGraph(topic).seed_id == "world war ii"
        assert item.provenance["passage_ids"] == retrieval.ids()
        assert item.provenance["mixture_weights"] == mixture_weights(retrieval.scores())


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
    assert all(item.provenance["mixture_weights"] == [] for item in result.items)


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

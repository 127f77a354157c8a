"""Wrappers the benchmark puts around the program, from outside it.

``BenchBackend`` wraps the mock chat backend in every run: it adds the fixed
per-call delay of the latency workloads and counts calls and tokens per task
tag. Everything else here is installed only in a traced run:

* ``Recorder`` holds one job's per-layer counters and span times;
* ``trace_gateway`` times ``ChatGateway.complete`` on one gateway instance,
  which gives the slot wait and the gateway time inside every span;
* ``trace_adapters`` counts embedding, NLI and probe calls;
* ``patch_spans`` replaces public functions under the module attribute their
  caller looks them up by, and restores them on exit.

A span's ``self_s`` is its duration minus the gateway time spent inside it
on the same thread. ``builder.build_kg.self_s`` is the build span minus the
union of the build's child spans, which may overlap across worker threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

TASK_TAGS = ("title_check", "gloss", "triples", "mcq_forward", "mcq_reverse", "validate")


class Recorder:
    """Per-layer counters and span times of one job."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.values: dict[str, float] = defaultdict(float)
        self.inflight = 0
        self.build_spans: list[tuple[float, float]] | None = None

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.values[name] += value

    def take(self) -> dict[str, float]:
        """This job's values; the recorder starts empty for the next job."""
        with self.lock:
            values, self.values = dict(self.values), defaultdict(float)
        return values

    def gateway_s(self) -> float:
        """Gateway time so far on the calling thread."""
        return getattr(self.local, "gateway_s", 0.0)

    def stack(self) -> list[str]:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack


class BenchBackend:
    """Chat backend wrapper: fixed delay per call, per-tag call and token
    counts, and, when a recorder is given, backend and mock CPU time and the
    peak number of calls in flight."""

    def __init__(self, inner: Any, delay_s: float = 0.0, recorder: Recorder | None = None):
        self.inner = inner
        self.delay_s = delay_s
        self.recorder = recorder
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.tokens: dict[str, tuple[int, int]] = {}
        self.errors = 0

    def complete(self, request: Any) -> Any:
        rec = self.recorder
        if rec is None:
            return self._complete(request)
        with rec.lock:
            rec.inflight += 1
            rec.values["gateway.peak_inflight"] = max(rec.values["gateway.peak_inflight"], rec.inflight)
        started = time.perf_counter()
        try:
            return self._complete(request)
        finally:
            elapsed = time.perf_counter() - started
            rec.local.backend_s = elapsed
            rec.add("gateway.backend_s", elapsed)
            with rec.lock:
                rec.inflight -= 1

    def _complete(self, request: Any) -> Any:
        cpu_started = time.thread_time()
        try:
            response = self.inner.complete(request)
        except Exception:
            with self._lock:
                self.errors += 1
            raise
        finally:
            if self.recorder is not None:
                self.recorder.add("gateway.mock_s", time.thread_time() - cpu_started)
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.calls[request.task_tag] += 1
            p, c = self.tokens.get(request.task_tag, (0, 0))
            self.tokens[request.task_tag] = (p + response.prompt_tokens, c + response.completion_tokens)
        return response

    def layer_values(self) -> dict[str, float]:
        out: dict[str, float] = {"gateway.calls": sum(self.calls.values())}
        for tag in TASK_TAGS:
            out[f"gateway.calls.{tag}"] = self.calls.get(tag, 0)
        out["gateway.tokens.prompt"] = sum(p for p, _ in self.tokens.values())
        out["gateway.tokens.completion"] = sum(c for _, c in self.tokens.values())
        return out


def trace_gateway(gateway: Any, rec: Recorder) -> None:
    """Time ``complete`` on this gateway instance: the part not spent in the
    backend is the wait for an in-flight slot (plus the ledger update)."""
    inner = gateway.complete

    def complete(request: Any) -> Any:
        started = time.perf_counter()
        response = inner(request)
        elapsed = time.perf_counter() - started
        rec.local.gateway_s = rec.gateway_s() + elapsed
        rec.add("gateway.slot_wait_s", elapsed - rec.local.backend_s)
        return response

    gateway.complete = complete


class _Counting:
    """Adapter proxy that counts calls of one method."""

    def __init__(self, inner: Any, method: str, count: Callable[[], None]):
        fn = getattr(inner, method)

        def call(*args: Any, **kwargs: Any) -> Any:
            count()
            return fn(*args, **kwargs)

        setattr(self, method, call)


def trace_adapters(adapters: Any, rec: Recorder) -> Any:
    """A copy of the adapter suite whose embedding, NLI and probe calls are
    counted. NLI calls count for curation only while ``curate`` runs."""

    def nli_count() -> None:
        if "curation.curate" in rec.stack():
            rec.add("curation.nli_calls", 1)

    return dataclasses.replace(
        adapters,
        embedding=_Counting(adapters.embedding, "cosine",
                            lambda: rec.add("curation.embedding_calls", 1)),
        nli=_Counting(adapters.nli, "entailment", nli_count),
        probe=_Counting(adapters.probe, "logits", lambda: rec.add("metrics.probe_calls", 1)),
    )


def _union_length(spans: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(spans):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# What each span adds to the recorder after its call: (args, result) -> values.
def _on_chunk(args: tuple, _result: Any) -> dict[str, float]:
    return {"retrieval.chunk_text.words": len(args[0].split())}


def _on_retrieve(_args: tuple, result: Any) -> dict[str, float]:
    return {"retrieval.fallbacks": int(result.fallback)}


def _on_dedup(args: tuple, result: Any) -> dict[str, float]:
    return {"synthesis.dedup_triples.in": len(args[0]), "synthesis.dedup_triples.kept": len(result)}


def _on_curate(args: tuple, result: Any) -> dict[str, float]:
    return {"curation.candidates": len(args[2]), "curation.accepted": len(result.accepted)}


def _on_build(_args: tuple, result: Any) -> dict[str, float]:
    graph = result[0]
    return {"builder.nodes": len(graph.nodes), "builder.edges": len(graph.edges)}


def _on_sample(_args: tuple, result: Any) -> dict[str, float]:
    return {"qgen.pairs": len(result)}


# (module, attribute as the caller looks it up, span name, hook, child of the build)
SPANS = (
    ("knight.builder", "retrieve_evidence", "retrieval.retrieve_evidence", _on_retrieve, True),
    ("knight.pipeline", "retrieve_evidence", "retrieval.retrieve_evidence", _on_retrieve, False),
    ("knight.retrieval", "chunk_text", "retrieval.chunk_text", _on_chunk, False),
    ("knight.retrieval", "score_and_rerank", "retrieval.score_and_rerank", None, False),
    ("knight.builder", "generate_gloss", "synthesis.generate_gloss", None, True),
    ("knight.builder", "extract_triples", "synthesis.extract_triples", None, True),
    ("knight.builder", "dedup_triples", "synthesis.dedup_triples", _on_dedup, True),
    ("knight.builder", "curate", "curation.curate", _on_curate, True),
    ("knight.pipeline", "build_kg", "builder.build_kg", _on_build, False),
    ("knight.pipeline", "sample_paths", "qgen.sample_paths", _on_sample, False),
    ("knight.pipeline", "generate_mcq", "qgen.generate_mcq", None, False),
    ("knight.pipeline", "validate_item", "validation.validate_item", None, False),
    ("knight.pipeline", "compute_dataset_stats", "metrics.compute_dataset_stats", None, False),
)


def _span(fn: Callable, name: str, hook: Callable | None, child: bool, rec: Recorder) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = rec.stack()
        stack.append(name)
        if name == "builder.build_kg":
            rec.build_spans = []
        gateway_before = rec.gateway_s()
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
        elapsed = ended - started
        values = {f"{name}.calls": 1, f"{name}.s": elapsed,
                  f"{name}.self_s": elapsed - (rec.gateway_s() - gateway_before)}
        if child and rec.build_spans is not None:
            with rec.lock:
                rec.build_spans.append((started, ended))
        if name == "builder.build_kg":
            values[f"{name}.self_s"] = elapsed - _union_length(rec.build_spans or [], started, ended)
            rec.build_spans = None
        if hook is not None:
            values.update(hook(args, result))
        for metric, value in values.items():
            rec.add(metric, value)
        return result

    return wrapper


@contextlib.contextmanager
def patch_spans(rec: Recorder) -> Iterator[None]:
    """Install every span wrapper; the originals come back on exit."""
    saved = []
    try:
        for module_name, attr, name, hook, child in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _span(original, name, hook, child, rec))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

"""Benchmark entry point.

    python3 bench/run.py --workload kg_build --seed 1 --seconds 30 --trace 0

Writes a seeded synthetic world, then runs one closed-loop client: one
pipeline job after another, each building its ``Services`` (set-up), running
``run_pipeline`` and writing the dataset, snapshot and rejects files, for
``--seconds`` seconds after one warm-up job. Every job's outputs are checked
(see ``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from checks import check_graph, check_items, check_ledger, check_same_bytes, check_stats  # noqa: E402
from instrument import (  # noqa: E402
    TASK_TAGS,
    BenchBackend,
    Recorder,
    patch_spans,
    trace_adapters,
    trace_gateway,
)
from worldgen import Planted, WorldSpec, write_world  # noqa: E402


@dataclass(frozen=True)
class Workload:
    mode: str
    d_max: int
    max_branches: int
    max_inflight: int
    delay_s: float
    num_q: int
    world: WorldSpec


WORKLOADS = {
    # CPU in the build layers: long pages (chunk_text), twenty candidate
    # triples per term (dedup_triples, curate), no delay, few items. Not in
    # BENCHMARK.json: its wall time follows the shared host's CPU speed,
    # which swings by a third between runs (see README.md). It stays here
    # for traced, per-layer runs of the CPU layers.
    "kg_build": Workload(
        mode="knight", d_max=3, max_branches=2, max_inflight=1, delay_s=0.0, num_q=12,
        world=WorldSpec(depth=3, branches=2, near_dup_pairs=3, aliases=3, duplicates=3,
                        fillers=6, page_words=8000, paragraph_words=120),
    ),
    # Waiting on generation and the critic: a wide world (3 branches, 27
    # three-hop paths, 54 path/orientation pairs) with short pages and four
    # triples per term; 48 items requested, fewer than the pairs.
    "kg_generate_latency": Workload(
        mode="knight", d_max=3, max_branches=3, max_inflight=2, delay_s=0.010, num_q=48,
        world=WorldSpec(depth=3, branches=3, aliases=1, page_words=300, paragraph_words=60),
    ),
    # No graph: one long page (more chunks than first_stage_cut, so BM25
    # runs) and direct generation over a topic with 40 facts, then the critic.
    "rag_val_latency": Workload(
        mode="rag_val", d_max=2, max_branches=2, max_inflight=2, delay_s=0.010, num_q=100,
        world=WorldSpec(depth=1, branches=0, topic_facts=40, page_words=50000,
                        paragraph_words=500, leaf_page_words=20),
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size the benchmark's tests run in seconds."""
    world = replace(workload.world, page_words=min(workload.world.page_words, 1500),
                    paragraph_words=min(workload.world.paragraph_words, 100))
    if workload.mode == "rag_val":
        world = replace(world, topic_facts=4, page_words=3000)
    return replace(workload, delay_s=0.0, num_q=min(workload.num_q, 8), world=world)


@dataclass
class Context:
    workload: Workload
    out_dir: Path
    planted: Planted
    config: object
    topic: object
    recorder: Recorder | None = None
    reference: dict[str, str] = field(default_factory=dict)


@dataclass
class Job:
    setup_s: float
    wall_s: float
    kept: int
    calls: int
    failed_calls: int
    tokens: int
    problems: list[str]
    layers: dict[str, float]


def make_context(workload: Workload, seed: int, work: Path, traced: bool = False) -> Context:
    from knight import Topic, build_config

    world_dir, out_dir = work / "world", work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    planted = write_world(world_dir, workload.world, seed)
    config = build_config(
        flag_values={
            "fixture_dir": str(world_dir),
            "pipeline_mode": workload.mode,
            "d_max": workload.d_max,
            "max_branches": workload.max_branches,
            "max_inflight": workload.max_inflight,
            "rng_seed": seed,
        },
        env={},
    )
    return Context(workload, out_dir, planted, config,
                   Topic(planted.names[planted.seed]), Recorder() if traced else None)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(ctx: Context) -> Job:
    """One pipeline job: set-up, run, write the outputs; then check them."""
    # The program is imported here, after main() has put src/ on the path,
    # so that a checkout without it fails with a message, not an ImportError.
    from knight import MODE_TASK_TAGS, run_pipeline
    from knight.adapters import AdapterSuite
    from knight.fixture_world import load_world
    from knight.gateway import ChatGateway, MockChatBackend
    from knight.pipeline import Services
    from knight.retrieval import FixtureWikiSource
    from knight.storage import item_to_record, save_snapshot, write_jsonl

    config, rec = ctx.config, ctx.recorder
    started = time.perf_counter()
    world = load_world(config.fixture_dir)
    backend = BenchBackend(MockChatBackend(world, rng_seed=config.rng_seed),
                           ctx.workload.delay_s, rec)
    gateway = ChatGateway(backend, max_inflight=config.max_inflight)
    adapters = AdapterSuite.fixture_suite(world, rng_seed=config.rng_seed)
    services = Services(gateway=gateway, source=FixtureWikiSource(world),
                        adapters=adapters, world=world)
    setup_s = time.perf_counter() - started
    if rec is not None:
        rec.take()  # drop what a job that raised left behind
        trace_gateway(gateway, rec)
        services.adapters = trace_adapters(adapters, rec)

    dataset = ctx.out_dir / "dataset.jsonl"
    snapshot = ctx.out_dir / "dataset.snapshot.json"
    rejects = ctx.out_dir / "dataset.rejects.jsonl"
    started = time.perf_counter()
    result, _ = run_pipeline(ctx.topic, config, ctx.workload.num_q, services=services)
    write_started = time.perf_counter()
    write_jsonl([item_to_record(i) for i in result.kept_items], dataset)
    jsonl_s = time.perf_counter() - write_started
    written = [dataset]
    snapshot_s = 0.0
    if result.graph is not None:
        write_started = time.perf_counter()
        save_snapshot(result.graph, snapshot, topic=result.topic,
                      config_echo=config.to_dict(redact=True), report=result.build_report)
        snapshot_s = time.perf_counter() - write_started
        write_started = time.perf_counter()
        write_jsonl([r.to_dict() for r in result.rejects], rejects)
        jsonl_s += time.perf_counter() - write_started
        written += [snapshot, rejects]
    wall_s = time.perf_counter() - started

    layers: dict[str, float] = {}
    if rec is not None:
        layers = rec.take()
        layers.update(backend.layer_values())
        layers.update({
            "pipeline.attempts": result.attempts,
            "pipeline.duplicates_dropped": result.duplicates_dropped,
            "qgen.rejected": result.generation_rejected,
            "validation.dropped": result.validation_dropped,
            "storage.save_snapshot.s": snapshot_s,
            "storage.write_jsonl.s": jsonl_s,
            "storage.bytes": sum(p.stat().st_size for p in written),
        })

    records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    problems = check_items(records, config.d_max, ctx.planted)
    if result.graph is not None:
        snap = json.loads(snapshot.read_text(encoding="utf-8"))
        problems += check_graph(snap, config.d_max, config.max_branches, ctx.planted)
    problems += check_ledger(gateway.ledger.totals(), backend.tokens, MODE_TASK_TAGS[config.pipeline_mode])
    probe = adapters.probe
    problems += check_stats(
        records, result.metric_rows, result.stats.mean_entropy,
        lambda r: probe.logits(r["question"], r["options"], r["answer_key"], r["level"]),
    )
    if not records:
        problems.append("no item was kept")
    digests = {p.name: _digest(p) for p in written}
    if not ctx.reference:
        ctx.reference.update(digests)
    problems += check_same_bytes(ctx.reference, digests)

    prompt, completion = gateway.ledger.grand_total()
    return Job(setup_s, wall_s, len(result.kept_items), sum(backend.calls.values()),
               backend.errors, prompt + completion, problems, layers)


def end_to_end(jobs: list[Job]) -> dict[str, tuple[float, str]]:
    med = statistics.median
    return {
        "kept_items_per_s": (med(j.kept / j.wall_s for j in jobs), "items/s"),
        "kept_items": (med(j.kept for j in jobs), "items"),
        "tokens_per_kept_item": (med(j.tokens / j.kept for j in jobs), "tokens/item"),
        "llm_calls_per_kept_item": (med(j.calls / j.kept for j in jobs), "calls/item"),
        "setup_s": (med(j.setup_s for j in jobs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# The per-layer metrics of a traced run, by layer, with their units. A layer
# a workload does not reach reports 0.
PER_LAYER = {
    "gateway.calls": "calls",
    **{f"gateway.calls.{tag}": "calls" for tag in TASK_TAGS},
    "gateway.tokens.prompt": "tokens",
    "gateway.tokens.completion": "tokens",
    "gateway.backend_s": "s",
    "gateway.mock_s": "s",
    "gateway.slot_wait_s": "s",
    "gateway.peak_inflight": "calls",
    "retrieval.retrieve_evidence.calls": "calls",
    "retrieval.retrieve_evidence.self_s": "s",
    "retrieval.chunk_text.s": "s",
    "retrieval.chunk_text.words": "words",
    "retrieval.score_and_rerank.s": "s",
    "retrieval.fallbacks": "count",
    "synthesis.generate_gloss.self_s": "s",
    "synthesis.extract_triples.self_s": "s",
    "synthesis.dedup_triples.s": "s",
    "synthesis.dedup_triples.in": "triples",
    "synthesis.dedup_triples.kept": "triples",
    "curation.curate.s": "s",
    "curation.candidates": "triples",
    "curation.accepted": "triples",
    "curation.embedding_calls": "calls",
    "curation.nli_calls": "calls",
    "builder.build_kg.s": "s",
    "builder.build_kg.self_s": "s",
    "builder.nodes": "count",
    "builder.edges": "count",
    "qgen.sample_paths.s": "s",
    "qgen.pairs": "count",
    "qgen.generate_mcq.calls": "calls",
    "qgen.generate_mcq.self_s": "s",
    "qgen.rejected": "items",
    "pipeline.attempts": "count",
    "pipeline.duplicates_dropped": "items",
    "validation.validate_item.calls": "calls",
    "validation.validate_item.self_s": "s",
    "validation.dropped": "items",
    "metrics.compute_dataset_stats.s": "s",
    "metrics.probe_calls": "calls",
    "storage.save_snapshot.s": "s",
    "storage.write_jsonl.s": "s",
    "storage.bytes": "B",
}


def per_layer(jobs: list[Job]) -> dict[str, tuple[float, str]]:
    """Per-job medians of every per-layer metric."""
    return {
        name: (statistics.median(j.layers.get(name, 0) for j in jobs), unit)
        for name, unit in PER_LAYER.items()
    }


def measure(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    ctx = make_context(WORKLOADS[name], seed, work, traced)
    jobs: list[Job] = []
    raised = 0
    with patch_spans(ctx.recorder) if traced else contextlib.nullcontext():
        run_job(ctx)  # warm-up; its outputs are the reference bytes
        started = time.perf_counter()
        while not (jobs or raised) or time.perf_counter() - started < seconds:
            try:
                jobs.append(run_job(ctx))
            except Exception as exc:  # a job that raises is a failed operation
                print(f"job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                raised += 1
    if not jobs:
        raise SystemExit("error: every job failed")
    problems = [p for j in jobs for p in j.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(jobs) + raised + sum(j.calls + j.failed_calls for j in jobs)
    failed = raised + sum(1 for j in jobs if j.problems) + sum(j.failed_calls for j in jobs)
    metrics = per_layer(jobs) if traced else end_to_end(jobs)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "knight" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'knight'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

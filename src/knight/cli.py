"""Command-line entry point.

Subcommands: ``build``, ``generate``, ``validate``, ``eval``, ``run``. The
bare-flags form (``knight --topic "Biology" --depth 2 ...``) is accepted as
an alias for ``run``. Exit codes: 0 success, 1 backend/config failure,
2 usage error. A ``build``, ``run``, ``generate`` or ``validate`` that a
backend failure cuts short writes its partial outputs (``build`` with
``aborted_reason`` in the snapshot's report, ``run`` in ``metrics.json``)
and exits 1. ``build``, ``generate`` and ``run`` take
``--backend``; with ``bolt`` the Neo4j store is opened before the first LLM
call and the graph is mirrored to it only after the outputs are written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from .builder import build_kg
from .config import PIPELINE_MODES, PipelineConfig, build_config
from .errors import KnightError
from .graph import Topic
from .metrics import compute_dataset_stats
from .pipeline import (
    MODE_TASK_TAGS,
    PipelineResult,
    Services,
    build_services,
    run_pipeline,
    validate_items,
)
from .storage import (
    BoltGraphStore,
    canonical_json,
    item_to_record,
    load_snapshot,
    mirror_graph,
    open_graph_store,
    read_jsonl,
    record_to_item,
    save_snapshot,
    write_jsonl,
)

SUBCOMMANDS = ("build", "generate", "validate", "eval", "run")
_SNAPSHOT_HELP = "reuse a saved graph snapshot (its last level, at d_max, was not expanded)"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, reads_dataset: bool = False) -> None:
    """Flags every subcommand takes. A subcommand that reads an existing
    dataset (``validate``, ``eval``) needs no topic and no graph store."""
    parser.add_argument("--topic", required=not reads_dataset, help="subject to build/generate for")
    parser.add_argument(
        "--prompt",
        default="multiple-choice",
        choices=["multiple-choice"],
        help="item-format template family",
    )
    parser.add_argument("--topic-hint", default=None, help="optional context hint for retrieval")
    parser.add_argument("--depth", type=_positive_int, default=None, help="hop budget d_max (>= 1)")
    parser.add_argument("--seed", type=int, default=None, help="rng seed")
    parser.add_argument("--mode", choices=PIPELINE_MODES, default=None, help="pipeline mode")
    parser.add_argument("--llm-backend", choices=["mock", "openai"], default=None,
                        help="chat backend (default mock)")
    if not reads_dataset:
        parser.add_argument("--backend", choices=["memory", "bolt"], default=None,
                            help="graph store: memory keeps the graph in process only, "
                                 "bolt also mirrors it to Neo4j (default memory)")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--max-inflight", type=_positive_int, default=None,
                        help="bound on concurrent backend calls")
    parser.add_argument("--print-config", action="store_true",
                        help="print the merged config (secrets redacted) and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knight",
        description="Build topic knowledge graphs and generate validated MCQ datasets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_build = sub.add_parser("build", help="construct and snapshot a topic graph")
    _add_common(p_build)
    p_build.add_argument("--output", required=True, help="snapshot path (.json)")

    p_generate = sub.add_parser("generate", help="generate a dataset (no critic unless --validate)")
    _add_common(p_generate)
    p_generate.add_argument("--num-q", type=_positive_int, default=10)
    p_generate.add_argument("--output", required=True, help="dataset path (JSONL records)")
    p_generate.add_argument("--snapshot", default=None, help=_SNAPSHOT_HELP)
    p_generate.add_argument("--validate", action="store_true", help="run the critic as well")

    p_validate = sub.add_parser("validate", help="validate an existing dataset file")
    _add_common(p_validate, reads_dataset=True)
    p_validate.add_argument("--input", required=True, help="dataset JSONL to validate")
    p_validate.add_argument("--output", required=True, help="where to write flagged records")

    p_eval = sub.add_parser("eval", help="compute the metrics report for a dataset file")
    _add_common(p_eval, reads_dataset=True)
    p_eval.add_argument("--input", required=True, help="dataset JSONL to score")
    p_eval.add_argument("--report", required=True, help="metrics JSON output path")
    p_eval.add_argument("--csv", default=None, help="optional per-item CSV path")

    p_run = sub.add_parser("run", help="full pipeline: build, generate, validate, evaluate")
    _add_common(p_run)
    p_run.add_argument("--num-q", type=_positive_int, default=10)
    p_run.add_argument("--output", required=True, help="dataset path (JSONL records)")
    p_run.add_argument("--snapshot", default=None, help=_SNAPSHOT_HELP)
    p_run.add_argument("--validate", action="store_true", help="force the critic in any mode")

    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    return {
        "d_max": getattr(args, "depth", None),
        "rng_seed": getattr(args, "seed", None),
        "pipeline_mode": getattr(args, "mode", None),
        "backend": getattr(args, "llm_backend", None),
        "graph_backend": getattr(args, "backend", None),
        "max_inflight": getattr(args, "max_inflight", None),
    }


def print_config(config: PipelineConfig) -> None:
    print(json.dumps(config.to_dict(redact=True), indent=2, sort_keys=True, ensure_ascii=False))


@contextlib.contextmanager
def _graph_store(config: PipelineConfig) -> Iterator[BoltGraphStore | None]:
    """The configured store, opened before any LLM call so that a missing URI
    or driver costs nothing, and closed on every path."""
    store = open_graph_store(config)
    try:
        yield store
    finally:
        if store is not None:
            store.close()


def _write_run_outputs(
    result: PipelineResult,
    services: Services,
    config: PipelineConfig,
    output: Path,
) -> list[Path]:
    written: list[Path] = []
    write_jsonl([item_to_record(i) for i in result.kept_items], output)
    written.append(output)

    stem = output.with_suffix("")
    if result.graph is not None:
        snapshot_path = Path(f"{stem}.snapshot.json")
        save_snapshot(
            result.graph,
            snapshot_path,
            topic=result.topic,
            config_echo=config.to_dict(redact=True),
            report=result.build_report,
        )
        written.append(snapshot_path)
        rejects_path = Path(f"{stem}.rejects.jsonl")
        write_jsonl([r.to_dict() for r in result.rejects], rejects_path)
        written.append(rejects_path)

    metrics_path = Path(f"{stem}.metrics.json")
    ledger = services.gateway.ledger
    prompt_tokens, completion_tokens = ledger.grand_total()
    metrics_doc = {
        "topic": result.topic,
        "mode": result.mode,
        "items_kept": len(result.kept_items),
        "items_generated": len(result.items),
        "attempts": result.attempts,
        "generation_rejected": result.generation_rejected,
        "duplicates_dropped": result.duplicates_dropped,
        "validation_dropped": result.validation_dropped,
        "aborted_reason": result.aborted_reason,
        "stats": result.stats.to_dict() if result.stats else None,
        "rows": result.metric_rows,
        "tokens": {
            "per_tag": {tag: list(pair) for tag, pair in sorted(ledger.totals().items())},
            "prompt_total": prompt_tokens,
            "completion_total": completion_tokens,
            "per_kept_item": result.tokens_per_kept_item(services.gateway),
        },
        "declared_stage_tags": sorted(MODE_TASK_TAGS[result.mode]),
    }
    metrics_path.write_text(canonical_json(metrics_doc) + "\n", encoding="utf-8")
    written.append(metrics_path)
    return written


def _cmd_build(args: argparse.Namespace, config: PipelineConfig) -> int:
    with _graph_store(config) as store:
        services = build_services(config)
        topic = Topic(args.topic, optional_prompt=args.topic_hint)
        rejects: list = []
        graph, report = build_kg(
            topic, config, services.gateway, services.source, services.adapters, rejects=rejects
        )
        output = Path(args.output)
        save_snapshot(graph, output, topic=topic.name,
                      config_echo=config.to_dict(redact=True), report=report)
        write_jsonl([r.to_dict() for r in rejects],
                    Path(f"{output.with_suffix('')}.rejects.jsonl"))
        if store is not None:
            mirror_graph(store, graph)
    print(
        f"built graph for {topic.name!r}: {len(graph.nodes)} nodes, "
        f"{len(graph.edges)} edges, prune rate {report.curation_prune_rate:.3f} "
        f"-> {output}"
    )
    return _exit_code(report.aborted_reason)


def _cmd_generate(args: argparse.Namespace, config: PipelineConfig) -> int:
    with _graph_store(config) as store:
        services = build_services(config)
        topic = Topic(args.topic, optional_prompt=args.topic_hint)
        graph = load_snapshot(args.snapshot) if args.snapshot else None
        # Generation stage only: the critic runs in the separate validate step
        # unless explicitly requested here.
        result, services = run_pipeline(
            topic, config, args.num_q, services=services,
            validate_flag=args.validate, graph=graph,
        )
        output = Path(args.output)
        write_jsonl([item_to_record(i) for i in result.kept_items], output)
        if store is not None and result.graph is not None:
            mirror_graph(store, result.graph)
    print(f"generated {len(result.kept_items)} items -> {output}")
    return _exit_code(result.aborted_reason)


def _cmd_validate(args: argparse.Namespace, config: PipelineConfig) -> int:
    services = build_services(config)
    records = read_jsonl(args.input)
    items = [record_to_item(r) for r in records]
    validated, error = validate_items(services.gateway, items, config)
    kept = sum(int(item.flags.kept) for item in validated)
    write_jsonl([item_to_record(i) for i in validated], args.output)
    print(f"validated {len(validated)} items: {kept} kept, {len(validated) - kept} rejected")
    return _exit_code(None if error is None else f"{type(error).__name__}: {error}")


def _cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    services = build_services(config)
    records = read_jsonl(args.input)
    items = [record_to_item(r) for r in records]
    topic = args.topic or (items[0].topic if items else "")
    stats, rows = compute_dataset_stats(items, services.adapters, topic)
    report_doc = {
        "topic": topic,
        "items": len(items),
        "stats": stats.to_dict(),
        "rows": rows,
    }
    Path(args.report).write_text(canonical_json(report_doc) + "\n", encoding="utf-8")
    if args.csv:
        _write_rows_csv(rows, Path(args.csv))
    print(f"scored {len(items)} items -> {args.report}")
    return 0


def _write_rows_csv(rows: list[dict], path: Path) -> None:
    import csv

    columns = ["id", "level", "orientation", "entropy", "probe_choice", "probe_correct",
               "grammar", "entailment", "word_count", "key_probability"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in columns})


def _cmd_run(args: argparse.Namespace, config: PipelineConfig) -> int:
    with _graph_store(config) as store:
        services = build_services(config)
        topic = Topic(args.topic, optional_prompt=args.topic_hint)
        graph = load_snapshot(args.snapshot) if args.snapshot else None
        result, services = run_pipeline(
            topic, config, args.num_q, services=services,
            validate_flag=True if args.validate else None, graph=graph,
        )
        written = _write_run_outputs(result, services, config, Path(args.output))
        if store is not None and result.graph is not None:
            mirror_graph(store, result.graph)
    print(
        f"mode={result.mode} kept={len(result.kept_items)}/{result.attempts} attempts; "
        + "; ".join(str(p) for p in written)
    )
    return _exit_code(result.aborted_reason)


def _exit_code(aborted_reason: str | None) -> int:
    """1 when a backend failure cut the command short; its partial outputs
    are already written."""
    if aborted_reason is None:
        return 0
    print(f"error: aborted, outputs are partial: {aborted_reason}", file=sys.stderr)
    return 1


_DISPATCH = {
    "build": _cmd_build,
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in SUBCOMMANDS and argv[0].startswith("-") and argv != ["-h"] and argv != ["--help"]:
        argv = ["run"] + argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = build_config(
            flag_values=_flag_values(args),
            env=os.environ,
            config_file=getattr(args, "config", None),
        )
        if getattr(args, "print_config", False):
            print_config(config)
            return 0
        return _DISPATCH[args.subcommand](args, config)
    except KnightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())

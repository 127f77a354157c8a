"""Command-line entry point.

Subcommands: ``build``, ``validate``, ``eval``, ``run``; the bare-flags form
(``knight --topic "Biology" --depth 2 ...``) is an alias for ``run``. Each
takes only the flags it reads: all take ``--seed``, ``--config`` and
``--print-config``; ``validate``, ``build`` and ``run`` take ``--llm-backend``
and ``--max-inflight``; ``build`` and ``run`` take ``--topic``,
``--topic-hint``, ``--depth``, ``--mode`` and ``--backend``, and ``run`` also
``--prompt``, ``--num-q``, ``--snapshot`` and ``--validate``; ``eval`` takes
an optional ``--topic``. Exit codes: 0 success, 1 backend, config or file
error, 2 usage error (an unknown flag or a blank topic too). Each subcommand
checks its outputs' directories first. ``eval`` makes no LLM call, so it
needs no API key. A ``build``, ``run`` or ``validate`` that a backend
failure cuts short writes its partial outputs (``build`` with
``aborted_reason`` in the snapshot's report, ``run`` in ``metrics.json``)
and exits 1. With ``--backend bolt``, ``build``, and ``run`` in a mode that
builds a graph, run inside ``storage.graph_mirror``, which opens the Neo4j
driver before the first LLM call and closes it on every path; the graph is
mirrored, in one session, only after the outputs are written. A driver
error, on opening or on writing, is a ``StoreError`` and so an ``error:``
line and exit 1. ``plain``, ``rag`` and ``rag_val`` read neither
``--snapshot`` nor ``--backend``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .builder import BuildReport, build_kg
from .config import PIPELINE_MODES, PipelineConfig, build_config
from .errors import ConfigError, KnightError, abort_label
from .graph import KnowledgeGraph, Topic
from .metrics import ROW_COLUMNS, compute_dataset_stats
from .pipeline import (
    MODE_TASK_TAGS,
    PipelineResult,
    Services,
    build_services,
    load_fixtures,
    run_pipeline,
    validate_items,
)
from .storage import (
    canonical_json,
    graph_mirror,
    item_to_record,
    load_snapshot,
    read_items,
    save_snapshot,
    write_jsonl,
)

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _topic_name(text: str) -> str:
    if not text.strip():
        raise argparse.ArgumentTypeError("must not be blank")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knight",
        description="Build topic knowledge graphs and generate validated MCQ datasets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # A flag that sets a ``PipelineConfig`` field is stored under its name.
    shared, llm, topic = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    shared.add_argument("--seed", dest="rng_seed", type=int, help="rng seed")
    shared.add_argument("--config", help="key = value config file")
    shared.add_argument("--print-config", action="store_true",
                        help="print the merged config (secrets redacted) and exit")
    llm.add_argument("--llm-backend", dest="backend", choices=["mock", "openai"],
                     help="chat backend (default mock)")
    llm.add_argument("--max-inflight", type=_positive_int, help="bound on concurrent backend calls")
    topic.add_argument("--topic", type=_topic_name, required=True,
                       help="subject to build/generate for")
    topic.add_argument("--topic-hint", help="optional context hint for retrieval")
    topic.add_argument("--depth", dest="d_max", type=_positive_int, help="hop budget d_max (>= 1)")
    topic.add_argument("--mode", dest="pipeline_mode", choices=PIPELINE_MODES, help="pipeline mode")
    topic.add_argument("--backend", dest="graph_backend", choices=["memory", "bolt"],
                       help="graph store: memory keeps the graph in process only, "
                            "bolt also mirrors it to Neo4j (default memory)")

    p_build = sub.add_parser("build", parents=[shared, llm, topic],
                             help="construct and snapshot a topic graph")
    p_build.add_argument("--output", required=True, help="snapshot path (.json)")

    p_validate = sub.add_parser("validate", parents=[shared, llm],
                                help="validate an existing dataset file")
    p_validate.add_argument("--input", required=True, help="dataset JSONL to validate")
    p_validate.add_argument("--output", required=True, help="where to write flagged records")

    p_eval = sub.add_parser("eval", parents=[shared],
                            help="compute the metrics report for a dataset file")
    p_eval.add_argument("--topic", type=_topic_name, help="default: the first record's topic")
    p_eval.add_argument("--input", required=True, help="dataset JSONL to score")
    p_eval.add_argument("--report", required=True, help="metrics JSON output path")
    p_eval.add_argument("--csv", help="optional per-item CSV path")

    p_run = sub.add_parser("run", parents=[shared, llm, topic],
                           help="full pipeline: build, generate, validate, evaluate")
    p_run.add_argument("--prompt", default="multiple-choice", choices=["multiple-choice"],
                       help="item-format template family")
    p_run.add_argument("--num-q", type=_positive_int, default=10)
    p_run.add_argument("--output", required=True, help="dataset path (JSONL records)")
    p_run.add_argument("--snapshot", help="reuse a saved graph snapshot "
                       "(its last level, at d_max, was not expanded)")
    p_run.add_argument("--validate", action="store_true", help="force the critic in any mode")

    return parser


def print_config(config: PipelineConfig) -> None:
    print(json.dumps(config.to_dict(redact=True), indent=2, sort_keys=True, ensure_ascii=False))


def _output_path(text: str) -> Path:
    """``text`` as a path, checked before any LLM call: its directory must exist."""
    path = Path(text)
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {path.parent} does not exist")
    return path


def _write_build(snapshot_path: Path, rejects_path: Path, config: PipelineConfig,
                 graph: KnowledgeGraph, topic: str, report: BuildReport, rejects: list) -> None:
    """A build's snapshot, which echoes the redacted config, and its rejects."""
    save_snapshot(
        graph, snapshot_path, topic=topic, config_echo=config.to_dict(redact=True), report=report
    )
    write_jsonl([r.to_dict() for r in rejects], rejects_path)


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
    # A run on a reused snapshot built nothing: no snapshot or rejects of its own.
    if result.build_report is not None:
        paths = Path(f"{stem}.snapshot.json"), Path(f"{stem}.rejects.jsonl")
        _write_build(*paths, config, result.graph, result.topic, result.build_report,
                     result.rejects)
        written += paths

    metrics_path = Path(f"{stem}.metrics.json")
    ledger = services.gateway.ledger
    prompt_tokens, completion_tokens = ledger.grand_total()
    kept = len(result.kept_items)
    metrics_doc = {
        "topic": result.topic,
        "mode": result.mode,
        "items_kept": kept,
        "items_generated": len(result.items),
        "attempts": result.attempts,
        "generation_rejected": result.generation_rejected,
        "duplicates_dropped": result.duplicates_dropped,
        "validation_dropped": result.validation_dropped,
        "uncited": result.uncited,
        "aborted_reason": result.aborted_reason,
        "stats": result.stats.to_dict() if result.stats else None,
        "rows": result.metric_rows,
        "tokens": {
            "per_tag": {tag: list(pair) for tag, pair in sorted(ledger.totals().items())},
            "prompt_total": prompt_tokens,
            "completion_total": completion_tokens,
            "per_kept_item": (prompt_tokens + completion_tokens) / kept if kept else 0.0,
        },
        "declared_stage_tags": sorted(MODE_TASK_TAGS[result.mode]),
    }
    metrics_path.write_text(canonical_json(metrics_doc) + "\n", encoding="utf-8")
    written.append(metrics_path)
    return written


def _cmd_build(args: argparse.Namespace, config: PipelineConfig) -> int:
    output = _output_path(args.output)
    with graph_mirror(config) as mirror:
        services = build_services(config)
        topic = Topic(args.topic, optional_prompt=args.topic_hint)
        rejects: list = []
        graph, report = build_kg(
            topic, config, services.gateway, services.source, services.adapters, rejects=rejects
        )
        _write_build(output, Path(f"{output.with_suffix('')}.rejects.jsonl"), config,
                     graph, topic.name, report, rejects)
        if mirror is not None:
            mirror(graph)
    print(
        f"built graph for {topic.name!r}: {len(graph.nodes)} nodes, "
        f"{len(graph.edges)} edges, prune rate {report.curation_prune_rate:.3f} "
        f"-> {output}"
    )
    return _exit_code(report.aborted_reason)


def _cmd_validate(args: argparse.Namespace, config: PipelineConfig) -> int:
    output = _output_path(args.output)
    items = read_items(args.input)
    services = build_services(config)
    validated, error = validate_items(services.gateway, items, config)
    kept = sum(int(item.flags.kept) for item in validated)
    write_jsonl([item_to_record(i) for i in validated], output)
    print(f"validated {len(validated)} items: {kept} kept, {len(validated) - kept} rejected")
    return _exit_code(None if error is None else abort_label(error))


def _cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    report = _output_path(args.report)
    csv_path = _output_path(args.csv) if args.csv else None
    items = read_items(args.input)
    _, adapters = load_fixtures(config)
    topic = args.topic or (items[0].topic if items else "")
    stats, rows = compute_dataset_stats(items, adapters, topic)
    report_doc = {
        "topic": topic,
        "items": len(items),
        "stats": stats.to_dict(),
        "rows": rows,
    }
    report.write_text(canonical_json(report_doc) + "\n", encoding="utf-8")
    if csv_path is not None:
        _write_rows_csv(rows, csv_path)
    print(f"scored {len(items)} items -> {args.report}")
    return 0


def _write_rows_csv(rows: list[dict], path: Path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _cmd_run(args: argparse.Namespace, config: PipelineConfig) -> int:
    output = _output_path(args.output)
    builds_graph = "triples" in MODE_TASK_TAGS[config.pipeline_mode]
    with graph_mirror(config) if builds_graph else contextlib.nullcontext() as mirror:
        services = build_services(config)
        topic = Topic(args.topic, optional_prompt=args.topic_hint)
        graph = load_snapshot(args.snapshot) if args.snapshot and builds_graph else None
        result, services = run_pipeline(
            topic, config, args.num_q, services=services,
            force_critic=args.validate, graph=graph,
        )
        written = _write_run_outputs(result, services, config, output)
        if mirror is not None:
            mirror(result.graph)
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
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv not in (["-h"], ["--help"]):
        argv = ["run"] + argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = build_config(
            flag_values=vars(args),
            env=os.environ,
            config_file=args.config,
        )
        if args.print_config:
            print_config(config)
            return 0
        return _DISPATCH[args.subcommand](args, config)
    except (KnightError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())

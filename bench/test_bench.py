"""Tests of the benchmark itself: every workload runs once at a tiny size
with no failed check, and every check catches a planted error.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import math

import pytest

from checks import check_graph, check_items, check_ledger, check_same_bytes, check_stats
from run import PER_LAYER, ROOT, WORKLOADS, end_to_end, make_context, run_job, tiny


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, tmp_path):
    ctx = make_context(tiny(WORKLOADS[name]), seed=3, work=tmp_path)
    first, second = run_job(ctx), run_job(ctx)
    assert first.problems == [] and second.problems == []
    assert first.kept > 0 and first.calls > 0 and first.tokens > 0


def test_traced_job_reports_layers(tmp_path):
    from instrument import patch_spans

    ctx = make_context(tiny(WORKLOADS["kg_build"]), seed=3, work=tmp_path, traced=True)
    with patch_spans(ctx.recorder):
        job = run_job(ctx)
    assert job.problems == []
    layers = job.layers
    assert layers["gateway.calls"] == job.calls
    assert layers["builder.nodes"] == 15
    assert layers["synthesis.dedup_triples.in"] > layers["synthesis.dedup_triples.kept"]
    assert layers["curation.embedding_calls"] > 0 and layers["metrics.probe_calls"] > 0
    assert 0.0 <= layers["builder.build_kg.self_s"] <= layers["builder.build_kg.s"]
    import knight.builder

    assert knight.builder.dedup_triples.__module__ == "knight.synthesis"  # restored


@pytest.fixture(scope="module")
def kg_job(tmp_path_factory):
    ctx = make_context(tiny(WORKLOADS["kg_build"]), seed=5,
                       work=tmp_path_factory.mktemp("kg"))
    job = run_job(ctx)
    assert job.problems == []
    records = [json.loads(line) for line in (ctx.out_dir / "dataset.jsonl").read_text().splitlines()]
    snapshot = json.loads((ctx.out_dir / "dataset.snapshot.json").read_text())
    return ctx, records, snapshot


def _items(ctx, records):
    return check_items(records, ctx.config.d_max, ctx.planted)


def test_items_check_catches_corrupted_records(kg_job):
    ctx, records, _ = kg_job
    assert _items(ctx, records) == []

    def corrupt(fn):
        bad = copy.deepcopy(records)
        fn(bad)
        return _items(ctx, bad)

    assert corrupt(lambda r: r[0]["options"].pop("D"))
    assert corrupt(lambda r: r[0].update(answer_key="E"))
    assert corrupt(lambda r: r[1].update(question=r[0]["question"]))
    assert corrupt(lambda r: r[0].update(level=2))
    assert corrupt(lambda r: r[0]["validation"].update(kept=False))
    assert corrupt(lambda r: r[0]["path"][1].__setitem__(1, "never_planted"))
    assert corrupt(lambda r: r[0]["path"].pop())
    # Key moved to a distractor: the key no longer names the answer node.
    assert corrupt(lambda r: r[0].update(
        answer_key=next(k for k in "ABCD" if k != r[0]["answer_key"])))
    # Orientation flipped: the key names the wrong end of the path.
    assert corrupt(lambda r: r[0].update(
        orientation="reverse" if r[0]["orientation"] == "forward" else "forward"))


def test_items_check_catches_direct_item_off_the_topic(tmp_path):
    ctx = make_context(tiny(WORKLOADS["rag_val_latency"]), seed=3, work=tmp_path)
    run_job(ctx)
    records = [json.loads(line) for line in (ctx.out_dir / "dataset.jsonl").read_text().splitlines()]
    assert _items(ctx, records) == []
    records[0]["options"][records[0]["answer_key"]] = "Never Planted"
    assert _items(ctx, records)


def test_graph_check_catches_unplanted_and_out_of_bounds_structure(kg_job):
    ctx, _, snapshot = kg_job
    d_max, branches, planted = ctx.config.d_max, ctx.config.max_branches, ctx.planted
    assert check_graph(snapshot, d_max, branches, planted) == []
    depth = {n["id"]: n["depth"] for n in snapshot["nodes"]}

    def corrupt(fn):
        bad = copy.deepcopy(snapshot)
        fn(bad)
        return check_graph(bad, d_max, branches, planted)

    leaf = next(n for n, d in depth.items() if d == d_max)
    mid = next(n for n, d in depth.items() if d == d_max - 1)
    other_leaves = [n for n, d in depth.items() if d == d_max][:branches + 1]

    def add_edge(doc, head, tail, relation="never_planted"):
        doc["edges"].append({"head": head, "relation": relation, "tail": tail})

    assert any("never planted" in p for p in corrupt(lambda s: add_edge(s, planted.seed, leaf)))

    def too_deep(doc):
        doc["nodes"].append({"id": "far away", "name": "Far Away", "depth": d_max + 1})
        add_edge(doc, leaf, "far away")

    assert any("hops from the seed" in p for p in corrupt(too_deep))
    assert any("children" in p for p in corrupt(
        lambda s: [add_edge(s, mid, t) for t in other_leaves]))

    def both_near_dups(doc):
        for head, relation, tail in planted.near_dups[0]:
            add_edge(doc, head, tail, relation)

    assert any("near-duplicates" in p for p in corrupt(both_near_dups))


def test_ledger_check_catches_mismatch_and_wrong_tags():
    counted = {"title_check": (10, 1), "mcq_forward": (50, 9)}
    tags = {"title_check", "mcq_forward"}
    assert check_ledger(dict(counted), counted, tags) == []
    assert check_ledger({**counted, "mcq_forward": (51, 9)}, counted, tags)
    assert check_ledger(counted, counted, tags | {"validate"})


def test_stats_check_catches_bad_entropy():
    records = [{"id": "a"}, {"id": "b"}]
    logits = {"a": (3.0, 0.5, 0.1, 0.2), "b": (1.0, 1.0, 1.0, 1.0)}
    from checks import entropy

    rows = [{"id": k, "entropy": entropy(v)} for k, v in logits.items()]
    mean = (rows[0]["entropy"] + rows[1]["entropy"]) / 2
    assert math.isclose(rows[1]["entropy"], math.log(4.0))

    def probe(rec):
        return logits[rec["id"]]

    assert check_stats(records, rows, mean, probe) == []
    assert check_stats(records, rows, mean + 0.01, probe)
    assert check_stats(records, [rows[0], {"id": "b", "entropy": 1.5}], mean, probe)
    assert check_stats(records, [rows[0], {"id": "b", "entropy": 1.2}], mean, probe)
    assert check_stats(records, rows[:1], mean, probe)


def test_same_bytes_check_catches_a_changed_file():
    assert check_same_bytes({"a": "1", "b": "2"}, {"a": "1", "b": "2"}) == []
    assert check_same_bytes({"a": "1", "b": "2"}, {"a": "1", "b": "3"})


def test_benchmark_file_matches_what_the_runs_report(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    ctx = make_context(tiny(WORKLOADS["rag_val_latency"]), seed=3, work=tmp_path)
    reported = end_to_end([run_job(ctx)])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {k: u for k, (_v, u) in reported.items()}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])

from __future__ import annotations

import json

import pytest

from knight.cli import main
from knight.storage import read_jsonl

from conftest import RecordingBackend


def _run(argv):
    return main(argv)


# -- conformance with the documented invocation shape ---------------------------


def test_bare_flags_invocation(tmp_path, capsys):
    output = tmp_path / "bio_d2.json"
    rc = _run(
        [
            "--topic", "Biology",
            "--prompt", "multiple-choice",
            "--depth", "2",
            "--num-q", "10",
            "--output", str(output),
            "--validate",
        ]
    )
    assert rc == 0
    records = read_jsonl(output)
    assert len(records) == 10
    assert all(r["level"] == 2 for r in records)
    assert output.with_suffix(".snapshot.json").exists() or (
        tmp_path / "bio_d2.snapshot.json"
    ).exists()


def test_depth_zero_usage_error(tmp_path, capsys):
    rc = _run(["run", "--topic", "Biology", "--depth", "0", "--output", str(tmp_path / "x.json")])
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_mode_usage_error(tmp_path, capsys):
    rc = _run(
        ["run", "--topic", "Biology", "--mode", "hyperdrive", "--output", str(tmp_path / "x.json")]
    )
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_prompt_family_usage_error(tmp_path):
    rc = _run(
        ["run", "--topic", "Biology", "--prompt", "essay", "--output", str(tmp_path / "x.json")]
    )
    assert rc == 2


def test_missing_output_usage_error():
    assert _run(["run", "--topic", "Biology"]) == 2


def test_num_q_zero_usage_error(tmp_path):
    rc = _run(["run", "--topic", "Biology", "--num-q", "0", "--output", str(tmp_path / "x.json")])
    assert rc == 2


# -- print-config ----------------------------------------------------------------


def test_print_config_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    rc = _run(["run", "--topic", "Biology", "--output", str(tmp_path / "x.json"), "--print-config"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["temp_desc"] == 0.4
    assert doc["temp_triples"] == 0.1
    assert doc["max_tokens_triples"] == 2000
    assert doc["chunk_size"] == 1000
    assert doc["chunk_overlap"] == 100
    assert doc["search_limit"] == 5
    assert doc["summary_char_limit"] == 1000
    assert doc["max_branches"] == 2
    assert doc["validation_sample_rate"] == 1.0


def test_print_config_flag_beats_file(tmp_path, capsys):
    conf = tmp_path / "knight.conf"
    conf.write_text("d_max = 3\n", encoding="utf-8")
    rc = _run(
        [
            "run", "--topic", "T", "--output", str(tmp_path / "x.json"),
            "--config", str(conf), "--depth", "5", "--print-config",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["d_max"] == 5


def test_print_config_redacts_secrets(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-very-secret")
    rc = _run(["run", "--topic", "T", "--output", str(tmp_path / "x.json"), "--print-config"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sk-very-secret" not in out
    assert "••••" in out


def test_unreadable_config_file(tmp_path, capsys):
    rc = _run(
        [
            "run", "--topic", "T", "--output", str(tmp_path / "x.json"),
            "--config", str(tmp_path / "missing.conf"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# -- mode contract ----------------------------------------------------------------


def _metrics_tags(tmp_path, mode, extra=()):
    output = tmp_path / f"{mode}.json"
    rc = _run(
        [
            "run", "--topic", "Biology", "--depth", "2", "--num-q", "4",
            "--seed", "7", "--mode", mode, "--output", str(output), *extra,
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / f"{mode}.metrics.json").read_text(encoding="utf-8"))
    return set(doc["tokens"]["per_tag"]), doc


def test_plain_mode_logs_no_retrieval(tmp_path):
    tags, _ = _metrics_tags(tmp_path, "plain")
    assert tags == {"mcq_forward"}


def test_plain_mode_with_validate_flag(tmp_path):
    tags, _ = _metrics_tags(tmp_path, "plain", extra=("--validate",))
    assert tags == {"mcq_forward", "validate"}


def test_rag_mode_tags(tmp_path):
    tags, _ = _metrics_tags(tmp_path, "rag")
    assert tags == {"title_check", "mcq_forward"}


# -- subcommand flows ---------------------------------------------------------------


def test_build_then_generate_then_validate_then_eval(tmp_path, capsys):
    snapshot = tmp_path / "bio.snapshot.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "2", "--seed", "7",
               "--output", str(snapshot)])
    assert rc == 0
    assert snapshot.exists()
    assert (tmp_path / "bio.snapshot.rejects.jsonl").exists()

    dataset = tmp_path / "bio.jsonl"
    rc = _run(
        [
            "generate", "--topic", "Biology", "--depth", "2", "--num-q", "6",
            "--seed", "7", "--snapshot", str(snapshot), "--output", str(dataset),
        ]
    )
    assert rc == 0
    records = read_jsonl(dataset)
    assert len(records) == 6
    assert all(r["validation"] is None for r in records)

    flagged = tmp_path / "bio.validated.jsonl"
    rc = _run(["validate", "--input", str(dataset), "--output", str(flagged)])
    assert rc == 0
    assert all(r["validation"] is not None for r in read_jsonl(flagged))

    report = tmp_path / "bio.metrics.json"
    csv_path = tmp_path / "bio.rows.csv"
    rc = _run(["eval", "--input", str(flagged), "--report", str(report),
               "--csv", str(csv_path)])
    assert rc == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["items"] == 6
    assert 0.0 <= doc["stats"]["probe_accuracy"] <= 1.0
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("id,level,orientation,entropy")


def test_generate_insufficient_depth_is_backend_error(tmp_path, capsys):
    # Depth-3 paths cannot exist in a depth-1 graph snapshot.
    snapshot = tmp_path / "tiny.snapshot.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "1", "--seed", "7",
               "--output", str(snapshot)])
    assert rc == 0
    rc = _run(
        [
            "generate", "--topic", "Biology", "--depth", "3", "--num-q", "2",
            "--snapshot", str(snapshot), "--output", str(tmp_path / "x.jsonl"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_writes_all_artifacts(tmp_path):
    output = tmp_path / "full.json"
    rc = _run(
        [
            "run", "--topic", "Biology", "--depth", "2", "--num-q", "5",
            "--seed", "3", "--mode", "knight", "--output", str(output),
        ]
    )
    assert rc == 0
    assert output.exists()
    assert (tmp_path / "full.snapshot.json").exists()
    assert (tmp_path / "full.rejects.jsonl").exists()
    assert (tmp_path / "full.metrics.json").exists()


def test_env_var_overrides_config_file(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "knight.conf"
    conf.write_text("max_branches = 4\n", encoding="utf-8")
    monkeypatch.setenv("KNIGHT_MAX_BRANCHES", "3")
    rc = _run(["run", "--topic", "T", "--output", str(tmp_path / "x.json"),
               "--config", str(conf), "--print-config"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["max_branches"] == 3


def _fail_tag(monkeypatch, tag):
    """Make every call of task tag ``tag`` raise ``AuthError`` in the
    services the CLI builds."""
    import knight.cli as cli_mod
    from knight.errors import AuthError

    class TagFails:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            if request.task_tag == tag:
                raise AuthError("key revoked")
            return self.inner.complete(request)

    build_services = cli_mod.build_services

    def build_failing_services(config):
        services = build_services(config)
        services.gateway.backend = TagFails(services.gateway.backend)
        return services

    monkeypatch.setattr(cli_mod, "build_services", build_failing_services)


def test_run_aborted_by_backend_writes_partial_outputs(tmp_path, capsys, monkeypatch):
    _fail_tag(monkeypatch, "validate")
    output = tmp_path / "partial.json"
    rc = _run(
        [
            "run", "--topic", "Biology", "--depth", "2", "--num-q", "4",
            "--seed", "7", "--mode", "knight", "--output", str(output),
        ]
    )
    assert rc == 1
    assert "AuthError: key revoked" in capsys.readouterr().err
    assert read_jsonl(output) == []
    assert (tmp_path / "partial.snapshot.json").exists()
    doc = json.loads((tmp_path / "partial.metrics.json").read_text(encoding="utf-8"))
    assert doc["aborted_reason"] == "AuthError: key revoked"
    assert doc["items_generated"] == 4


def test_run_whose_build_leaves_no_path_writes_partial_outputs(tmp_path, capsys, monkeypatch):
    _fail_tag(monkeypatch, "triples")
    output = tmp_path / "partial.json"
    rc = _run(
        [
            "run", "--topic", "Biology", "--depth", "2", "--num-q", "4",
            "--seed", "7", "--mode", "knight", "--output", str(output),
        ]
    )
    assert rc == 1
    assert "outputs are partial: AuthError: key revoked" in capsys.readouterr().err
    assert read_jsonl(output) == []
    snapshot = json.loads((tmp_path / "partial.snapshot.json").read_text(encoding="utf-8"))
    assert [node["depth"] for node in snapshot["nodes"]] == [0]
    assert snapshot["report"]["aborted_reason"] == "AuthError: key revoked"
    assert (tmp_path / "partial.rejects.jsonl").exists()
    doc = json.loads((tmp_path / "partial.metrics.json").read_text(encoding="utf-8"))
    assert doc["aborted_reason"] == "AuthError: key revoked"
    assert (doc["attempts"], doc["items_generated"], doc["items_kept"]) == (0, 0, 0)


def test_build_aborted_by_backend_exits_1(tmp_path, capsys, monkeypatch):
    _fail_tag(monkeypatch, "triples")
    output = tmp_path / "graph.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "2", "--seed", "7",
               "--output", str(output)])
    assert rc == 1
    assert "outputs are partial: AuthError: key revoked" in capsys.readouterr().err
    snapshot = json.loads(output.read_text(encoding="utf-8"))
    assert snapshot["report"]["aborted_reason"] == "AuthError: key revoked"
    assert (tmp_path / "graph.rejects.jsonl").exists()


def test_validate_aborted_by_backend_writes_validated_prefix(tmp_path, capsys, monkeypatch):
    import knight.cli as cli_mod
    from knight.errors import GatewayError

    dataset = tmp_path / "bio.jsonl"
    rc = _run(["generate", "--topic", "Biology", "--depth", "2", "--num-q", "8",
               "--seed", "7", "--output", str(dataset)])
    assert rc == 0 and len(read_jsonl(dataset)) == 8
    # Items 3 and 4 are the two orientations of one path, so they share a
    # source block and one critic call; items 0-2 form the groups before it.
    generated = read_jsonl(dataset)
    contexts = [r["source_context"] for r in generated]
    assert contexts[3] == contexts[4] and len({contexts[1], contexts[2], contexts[3]}) == 3
    failing_question = generated[4]["question"]

    class ValidateFailsOnQuestion:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            if request.task_tag == "validate" and failing_question in request.user_prompt:
                raise GatewayError("backend down")
            return self.inner.complete(request)

    build_services = cli_mod.build_services

    def build_failing_services(config):
        services = build_services(config)
        services.gateway.backend = ValidateFailsOnQuestion(services.gateway.backend)
        return services

    monkeypatch.setattr(cli_mod, "build_services", build_failing_services)
    capsys.readouterr()
    flagged = tmp_path / "bio.validated.jsonl"
    rc = _run(["validate", "--input", str(dataset), "--output", str(flagged)])
    assert rc == 1
    assert "outputs are partial: GatewayError: backend down" in capsys.readouterr().err
    records = read_jsonl(flagged)
    assert [r["id"] for r in records] == [r["id"] for r in generated][:3]
    assert all(r["validation"] is not None for r in records)


def test_validate_groups_break_where_the_source_changes(tmp_path, monkeypatch):
    import knight.cli as cli_mod
    import knight.pipeline as pipeline_mod

    paths, direct = tmp_path / "paths.jsonl", tmp_path / "direct.jsonl"
    for mode, output in (("knight", paths), ("rag_val", direct)):
        rc = _run(["generate", "--topic", "Biology", "--depth", "2", "--num-q", "12",
                   "--seed", "7", "--mode", mode, "--output", str(output)])
        assert rc == 0
    knight_records, rag_records = read_jsonl(paths)[:8], read_jsonl(direct)
    assert len(rag_records) == 12
    records = rag_records[:1] + knight_records[:3] + rag_records[1:] + knight_records[3:]
    records[6]["topic"] = ""  # a rag_val item with no topic
    records[16]["topic"] = "History"  # a knight item on another topic
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    row = {r["question"]: index for index, r in enumerate(records)}
    assert len(row) == len(records)

    build_services = cli_mod.build_services
    backends = []

    def build_recording_services(config):
        services = build_services(config)
        services.gateway.backend = RecordingBackend(services.gateway.backend)
        backends.append(services.gateway.backend)
        return services

    monkeypatch.setattr(cli_mod, "build_services", build_recording_services)
    batched = tmp_path / "batched.jsonl"
    assert _run(["validate", "--input", str(mixed), "--output", str(batched)]) == 0
    groups = [
        [row[question] for question in row if f'Question: "{question}"' in request.user_prompt]
        for request in backends[0].requests
    ]
    # One direct item; knight's first path pair and one item of its second
    # path; ten, then one, of the eleven direct items; the other item of
    # that second path alone, since the direct items lie between the two;
    # then two path pairs.
    assert [len(group) for group in groups] == [1, 2, 1, 10, 1, 1, 2, 2]
    assert [index for group in groups for index in group] == list(range(len(records)))
    for group in groups:
        assert len({records[index]["source_context"] for index in group}) == 1

    monkeypatch.setattr(pipeline_mod, "CRITIC_BATCH", 1)
    single = tmp_path / "single.jsonl"
    assert _run(["validate", "--input", str(mixed), "--output", str(single)]) == 0
    assert len(backends[1].requests) == len(records)
    assert read_jsonl(single) == read_jsonl(batched)
    flags = [r["validation"] for r in read_jsonl(batched)]
    assert [f["topic_relevant"] for f in flags].count(None) == 1
    assert all(f["kept"] and not f["llm_skipped"] for f in flags)


# -- graph store ----------------------------------------------------------------


def _fake_neo4j(monkeypatch, fail_nodes=False) -> list:
    """Stands in for a Neo4j server: returns the list of what reaches
    ``BoltGraphStore``, in order."""
    from knight.errors import StoreError
    from knight.storage import BoltGraphStore

    events: list = []

    def create_node(store, node):
        if fail_nodes:
            raise StoreError("write refused")
        events.append(("node", node.id))

    monkeypatch.setattr(BoltGraphStore, "open", lambda store: events.append(("open", store.uri)))
    monkeypatch.setattr(BoltGraphStore, "close", lambda store: events.append(("close",)))
    monkeypatch.setattr(BoltGraphStore, "create_node", create_node)
    monkeypatch.setattr(BoltGraphStore, "create_edge",
                        lambda store, edge: events.append(("edge", edge.head)))
    return events


def _count_backend_calls(monkeypatch) -> list:
    from knight.gateway import MockChatBackend

    calls: list = []
    complete = MockChatBackend.complete

    def counting(backend, request):
        calls.append(request.task_tag)
        return complete(backend, request)

    monkeypatch.setattr(MockChatBackend, "complete", counting)
    return calls


def test_config_file_neo4j_uri_reaches_store(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NEO4J_URI", raising=False)
    conf = tmp_path / "k.conf"
    conf.write_text("neo4j_uri = bolt://graph.example:7687\n", encoding="utf-8")
    events = _fake_neo4j(monkeypatch)
    snapshot = tmp_path / "bio.snapshot.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "2", "--backend", "bolt",
               "--config", str(conf), "--output", str(snapshot)])
    assert rc == 0
    assert events[0] == ("open", "bolt://graph.example:7687")
    assert events[-1] == ("close",)
    graph_ids = [n["id"] for n in json.loads(snapshot.read_text(encoding="utf-8"))["nodes"]]
    assert [e[1] for e in events if e[0] == "node"] == graph_ids
    assert any(e[0] == "edge" for e in events)


def test_run_memory_backend_opens_no_store(tmp_path, monkeypatch):
    from knight.storage import BoltGraphStore

    def refuse(store):
        raise AssertionError("memory backend opened a store")

    monkeypatch.setattr(BoltGraphStore, "open", refuse)
    rc = _run(["run", "--topic", "Biology", "--depth", "2", "--num-q", "2",
               "--output", str(tmp_path / "bio.json")])
    assert rc == 0


@pytest.mark.parametrize("subcommand", ["run", "build", "generate"])
def test_bolt_without_uri_fails_before_any_llm_call(tmp_path, capsys, monkeypatch, subcommand):
    monkeypatch.delenv("NEO4J_URI", raising=False)
    calls = _count_backend_calls(monkeypatch)
    output = tmp_path / "bio.json"
    rc = _run([subcommand, "--topic", "Biology", "--depth", "2", "--backend", "bolt",
               "--output", str(output)])
    assert rc == 1
    assert "NEO4J_URI" in capsys.readouterr().err
    assert calls == []
    assert not output.exists()


def test_run_mirrors_only_after_outputs_are_written(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    events = _fake_neo4j(monkeypatch, fail_nodes=True)
    output = tmp_path / "bio.json"
    rc = _run(["run", "--topic", "Biology", "--depth", "2", "--num-q", "4",
               "--backend", "bolt", "--output", str(output)])
    assert rc == 1
    assert "write refused" in capsys.readouterr().err
    assert len(read_jsonl(output)) == 4
    assert (tmp_path / "bio.snapshot.json").exists()
    assert (tmp_path / "bio.metrics.json").exists()
    assert events == [("open", "bolt://graph.example:7687"), ("close",)]


def test_generate_mirrors_graph_after_dataset(tmp_path, monkeypatch):
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    events = _fake_neo4j(monkeypatch)
    output = tmp_path / "bio.json"
    rc = _run(["generate", "--topic", "Biology", "--depth", "2", "--num-q", "2",
               "--backend", "bolt", "--output", str(output)])
    assert rc == 0
    assert len(read_jsonl(output)) == 2
    assert events[0] == ("open", "bolt://graph.example:7687")
    assert any(e[0] == "node" for e in events) and any(e[0] == "edge" for e in events)
    assert events[-1] == ("close",)


@pytest.mark.parametrize("subcommand", ["validate", "eval"])
def test_dataset_subcommands_take_no_graph_backend(tmp_path, subcommand):
    dataset = tmp_path / "in.jsonl"
    dataset.write_text("", encoding="utf-8")
    out_flag = "--output" if subcommand == "validate" else "--report"
    rc = _run([subcommand, "--input", str(dataset), out_flag, str(tmp_path / "out"),
               "--backend", "memory"])
    assert rc == 2

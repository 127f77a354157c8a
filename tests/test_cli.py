from __future__ import annotations

import json
import shutil

import pytest

from knight.cli import entry, main
from knight.config import PIPELINE_MODES
from knight.fixture_world import packaged_fixture_dir
from knight.storage import EDGE_STATEMENT, NODE_STATEMENT, read_jsonl

from conftest import RecordingBackend, critic_order, stub_neo4j


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


def test_non_integer_depth_usage_error(tmp_path, capsys):
    rc = _run(["run", "--topic", "Biology", "--depth", "abc", "--output", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower() and "'abc' is not an integer" in err


def test_unknown_mode_usage_error(tmp_path, capsys):
    rc = _run(
        ["run", "--topic", "Biology", "--mode", "hyperdrive", "--output", str(tmp_path / "x.json")]
    )
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()
    # No ``generate`` subcommand: ``run --mode rag_kg`` gives its dataset.
    assert _run(["generate", "--topic", "Biology", "--output", str(tmp_path / "x.jsonl")]) == 2
    assert "invalid choice: 'generate'" in capsys.readouterr().err


def test_unknown_prompt_family_usage_error(tmp_path):
    rc = _run(
        ["run", "--topic", "Biology", "--prompt", "essay", "--output", str(tmp_path / "x.json")]
    )
    assert rc == 2


def test_entry_exits_with_the_code_of_main(tmp_path, monkeypatch):
    absent = str(tmp_path / "absent.jsonl")
    monkeypatch.setattr("sys.argv", ["knight", "validate", "--input", absent,
                                     "--output", str(tmp_path / "out.jsonl")])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 1


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


@pytest.mark.parametrize("where", ["env", "file"])
def test_non_integer_setting_is_an_error(tmp_path, capsys, monkeypatch, where):
    argv = ["run", "--topic", "Biology", "--output", str(tmp_path / "x.json")]
    if where == "env":
        monkeypatch.setenv("KNIGHT_D_MAX", "abc")
    else:
        config = tmp_path / "knight.conf"
        config.write_text("d_max = two\n")
        argv += ["--config", str(config)]
    assert _run(argv) == 1
    assert "bad value for d_max" in capsys.readouterr().err


def test_missing_corpus_file_gives_the_parametric_fallback_and_the_run_goes_on(tmp_path, caplog):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(packaged_fixture_dir(), fixtures)
    (fixtures / "corpus" / "biology.txt").unlink()
    config = tmp_path / "knight.conf"
    config.write_text(f"fixture_dir = {fixtures}\n")
    output = tmp_path / "x.jsonl"
    rc = _run(["run", "--topic", "Biology", "--depth", "1", "--num-q", "2",
               "--config", str(config), "--output", str(output)])
    assert rc == 0
    assert len(read_jsonl(output)) == 2
    snapshot = json.loads(output.with_suffix(".snapshot.json").read_text())
    [seed] = [node for node in snapshot["nodes"] if node["id"] == snapshot["seed_id"]]
    assert seed["parametric_fallback"] is True
    assert "fixture file missing for 'Biology'" in caplog.text


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


@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_every_mode_reports_its_uncited_items(tmp_path, mode):
    # Only a direct mode with evidence asks for citations; on Biology the
    # mock cites a passage for every item.
    _, doc = _metrics_tags(tmp_path, mode)
    assert doc["uncited"] == 0


def test_uncited_counts_the_items_that_keep_the_whole_evidence(tmp_path):
    # Some Heredity items key an aspect its passage does not hold, so the
    # mock cites nothing for them.
    output = tmp_path / "heredity.jsonl"
    rc = _run(["run", "--topic", "Heredity", "--depth", "2", "--num-q", "12", "--seed", "7",
               "--mode", "rag", "--output", str(output)])
    doc = json.loads((tmp_path / "heredity.metrics.json").read_text(encoding="utf-8"))
    records = read_jsonl(output)
    whole = [r for r in records if r["source_context"].startswith("Evidence passages:\n")]
    assert rc == 0 and 0 < doc["uncited"] == len(whole) < len(records)


# -- subcommand flows ---------------------------------------------------------------


def test_build_then_generate_then_validate_then_eval(tmp_path, capsys):
    snapshot = tmp_path / "bio.snapshot.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "2", "--seed", "7",
               "--output", str(snapshot)])
    assert rc == 0
    assert snapshot.exists()
    assert (tmp_path / "bio.snapshot.rejects.jsonl").exists()

    # Stem "items", so the run's metrics file overwrites neither the
    # snapshot it reads nor the eval report.
    dataset = tmp_path / "items.jsonl"
    rc = _run(
        [
            "run", "--topic", "Biology", "--mode", "rag_kg", "--depth", "2", "--num-q", "6",
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
            "run", "--topic", "Biology", "--mode", "rag_kg", "--depth", "3", "--num-q", "2",
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


def test_run_on_its_own_snapshot_reproduces_the_dataset(tmp_path):
    """A run on a saved snapshot builds nothing: it gives the fresh run's
    dataset, logs no build call, and writes no snapshot or rejects."""
    argv = ["run", "--topic", "Biology", "--mode", "knight", "--depth", "2",
            "--num-q", "12", "--seed", "0"]
    fresh, reused = tmp_path / "fresh.jsonl", tmp_path / "reused.jsonl"
    assert _run([*argv, "--output", str(fresh)]) == 0
    snapshot = tmp_path / "fresh.snapshot.json"
    assert _run([*argv, "--snapshot", str(snapshot), "--output", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    doc = json.loads((tmp_path / "reused.metrics.json").read_text(encoding="utf-8"))
    assert not {"title_check", "gloss", "triples"} & set(doc["tokens"]["per_tag"])
    assert not (tmp_path / "reused.snapshot.json").exists()
    assert not (tmp_path / "reused.rejects.jsonl").exists()


def _run_metrics(tmp_path):
    output = tmp_path / "bio.jsonl"
    rc = _run(["run", "--topic", "Biology", "--depth", "2", "--num-q", "5", "--seed", "3",
               "--mode", "knight", "--output", str(output)])
    return rc, json.loads((tmp_path / "bio.metrics.json").read_text(encoding="utf-8"))


def test_metrics_tokens_per_kept_item(tmp_path):
    rc, doc = _run_metrics(tmp_path)
    assert rc == 0 and doc["items_kept"] > 0
    tokens = doc["tokens"]
    spent = tokens["prompt_total"] + tokens["completion_total"]
    assert tokens["per_kept_item"] == spent / doc["items_kept"]


def test_metrics_tokens_per_kept_item_is_zero_when_nothing_is_kept(tmp_path, monkeypatch):
    _fail_tag(monkeypatch, "validate")
    rc, doc = _run_metrics(tmp_path)
    assert rc == 1 and doc["items_kept"] == 0
    assert doc["tokens"]["prompt_total"] > 0
    assert doc["tokens"]["per_kept_item"] == 0.0


def test_missing_input_file_is_an_error(tmp_path, capsys):
    rc = _run(["validate", "--input", str(tmp_path / "absent.jsonl"),
               "--output", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _plain_dataset(tmp_path) -> str:
    dataset = tmp_path / "plain.jsonl"
    assert _run(["run", "--topic", "Biology", "--mode", "plain", "--depth", "2",
                 "--num-q", "2", "--output", str(dataset)]) == 0
    return str(dataset)


@pytest.mark.parametrize("subcommand", ["run", "build", "validate"])
def test_missing_output_directory_fails_before_any_llm_call(
    tmp_path, capsys, monkeypatch, subcommand
):
    reads = (["--input", _plain_dataset(tmp_path)] if subcommand == "validate"
             else ["--topic", "Biology", "--depth", "2"])
    capsys.readouterr()
    calls = _count_backend_calls(monkeypatch)
    rc = _run([subcommand, *reads,
               "--output", str(tmp_path / "absent" / "bio.jsonl")])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err
    assert calls == []


def _dataset_with_bad_second_record(tmp_path, corrupt) -> str:
    """Two records with a blank line between them; ``corrupt`` edits the second."""
    good, *_ = read_jsonl(_plain_dataset(tmp_path))
    bad = dict(good)
    corrupt(bad)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n", encoding="utf-8")
    return str(path)


def test_validate_malformed_record_is_a_line_error_before_any_llm_call(
    tmp_path, capsys, monkeypatch
):
    dataset = _dataset_with_bad_second_record(tmp_path, lambda r: r.pop("id"))
    capsys.readouterr()
    calls = _count_backend_calls(monkeypatch)
    rc = _run(["validate", "--input", dataset, "--output", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")
    assert calls == []
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "corrupt", [lambda r: r.update(answer_key="E"), lambda r: r.update(orientation="sideways")]
)
def test_eval_malformed_record_is_a_line_error(tmp_path, capsys, corrupt):
    dataset = _dataset_with_bad_second_record(tmp_path, corrupt)
    capsys.readouterr()
    rc = _run(["eval", "--input", dataset, "--report", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("report, csv", [("absent/r.json", None), ("r.json", "absent/rows.csv")])
def test_eval_checks_its_output_directories_first(tmp_path, capsys, report, csv):
    argv = ["eval", "--input", _plain_dataset(tmp_path), "--report", str(tmp_path / report)]
    if csv:
        argv += ["--csv", str(tmp_path / csv)]
    capsys.readouterr()
    rc = _run(argv)
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_needs_no_api_key(tmp_path, monkeypatch):
    # eval makes no LLM call, so the chat backend is never built.
    dataset = _plain_dataset(tmp_path)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    monkeypatch.setenv("KNIGHT_BACKEND", "openai")
    report = tmp_path / "report.json"
    rc = _run(["eval", "--input", dataset, "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text(encoding="utf-8"))["items"] == 2


@pytest.mark.parametrize("hint", [None, "life sciences"])
@pytest.mark.parametrize("command", [["build"], ["run", "--mode", "rag", "--num-q", "2"]])
def test_title_check_reads_the_topic_hint(tmp_path, monkeypatch, command, hint):
    backends = _wrap_backends(monkeypatch, RecordingBackend)
    hint_flags = ["--topic-hint", hint] if hint else []
    rc = _run([*command, "--topic", "Biology", "--depth", "1", *hint_flags,
               "--output", str(tmp_path / "out.json")])
    assert rc == 0
    # The seed's, or the topic's, title check comes first.
    prompt = next(r.user_prompt for r in backends[0].requests if r.task_tag == "title_check")
    assert f'Context: information related to "{hint or "general knowledge"}".' in prompt


def test_env_var_overrides_config_file(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "knight.conf"
    conf.write_text("max_branches = 4\n", encoding="utf-8")
    monkeypatch.setenv("KNIGHT_MAX_BRANCHES", "3")
    rc = _run(["run", "--topic", "T", "--output", str(tmp_path / "x.json"),
               "--config", str(conf), "--print-config"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["max_branches"] == 3


def _wrap_backends(monkeypatch, wrap) -> list:
    """Wrap the chat backend of every ``Services`` the CLI builds in
    ``wrap(backend)``; returns the wrapped backends, in build order."""
    import knight.cli as cli_mod

    build_services = cli_mod.build_services
    backends: list = []

    def build_wrapped_services(config):
        services = build_services(config)
        services.gateway.backend = wrap(services.gateway.backend)
        backends.append(services.gateway.backend)
        return services

    monkeypatch.setattr(cli_mod, "build_services", build_wrapped_services)
    return backends


def _fail_tag(monkeypatch, tag):
    """Make every call of task tag ``tag`` raise ``AuthError`` in the
    services the CLI builds."""
    from knight.errors import AuthError

    class TagFails:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            if request.task_tag == tag:
                raise AuthError("key revoked")
            return self.inner.complete(request)

    _wrap_backends(monkeypatch, TagFails)


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


def test_run_whose_title_check_fails_writes_partial_outputs(tmp_path, capsys, monkeypatch):
    # A direct mode checks the topic's title outside any map.
    _fail_tag(monkeypatch, "title_check")
    output = tmp_path / "partial.json"
    rc = _run(
        [
            "run", "--topic", "Biology", "--depth", "2", "--num-q", "4",
            "--seed", "7", "--mode", "rag_val", "--output", str(output),
        ]
    )
    assert rc == 1
    assert "outputs are partial: AuthError: key revoked" in capsys.readouterr().err
    assert read_jsonl(output) == []
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
    from knight.errors import GatewayError

    dataset = tmp_path / "bio.jsonl"
    rc = _run(["run", "--topic", "Biology", "--mode", "rag_kg", "--depth", "2", "--num-q", "16",
               "--seed", "7", "--output", str(dataset)])
    assert rc == 0 and len(read_jsonl(dataset)) == 16
    # The critic orders the items by the first appearance of their source,
    # then cuts runs of ten: slot 12 of that order lies in the second group,
    # so the ten items of the first group, in file order, are written.
    generated = read_jsonl(dataset)
    order = critic_order([record["source_context"] for record in generated])
    assert sorted(order[:10]) != list(range(10))
    failing_question = generated[order[12]]["question"]

    class ValidateFailsOnQuestion:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            if request.task_tag == "validate" and failing_question in request.user_prompt:
                raise GatewayError("backend down")
            return self.inner.complete(request)

    _wrap_backends(monkeypatch, ValidateFailsOnQuestion)
    capsys.readouterr()
    flagged = tmp_path / "bio.validated.jsonl"
    rc = _run(["validate", "--input", str(dataset), "--output", str(flagged)])
    assert rc == 1
    assert "outputs are partial: GatewayError: backend down" in capsys.readouterr().err
    records = read_jsonl(flagged)
    assert [r["id"] for r in records] == [generated[index]["id"] for index in sorted(order[:10])]
    assert all(r["validation"] is not None for r in records)


def test_validate_groups_run_to_batch_across_sources(tmp_path, monkeypatch):
    import knight.prompts as prompts_mod

    paths, direct = tmp_path / "paths.jsonl", tmp_path / "direct.jsonl"
    for mode, output in (("rag_kg", paths), ("rag", direct)):
        rc = _run(["run", "--topic", "Biology", "--depth", "2", "--num-q", "12",
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

    backends = _wrap_backends(monkeypatch, RecordingBackend)
    batched = tmp_path / "batched.jsonl"
    assert _run(["validate", "--input", str(mixed), "--output", str(batched)]) == 0
    groups = []
    for request in backends[0].requests:
        slots = {question: request.user_prompt.find(f'Question: "{question}"') for question in row}
        groups.append([row[question] for question in sorted(row, key=slots.get)
                       if slots[question] >= 0])
    # Two runs of ten, cut from the items stably ordered by the first
    # appearance of their source: the eleven direct items on one passage
    # fill the first run, and the second runs to ten across that passage and
    # the path sources. Each distinct source is written once in its run's
    # prompt, and the two runs write fewer source blocks than two runs in
    # file order would.
    order = critic_order([record["source_context"] for record in records])
    assert order != list(range(len(records)))
    assert [len(group) for group in groups] == [10, 10]
    assert [index for group in groups for index in group] == order
    written = []
    for group, request in zip(groups, backends[0].requests):
        sources = {records[index]["source_context"] for index in group}
        assert all(request.user_prompt.count(source) == 1 for source in sources)
        written.append(len(sources))
    in_file_order = [{r["source_context"] for r in run} for run in prompts_mod.batches(records)]
    assert written == [1, 5] and sum(written) < sum(map(len, in_file_order))

    monkeypatch.setattr(prompts_mod, "BATCH", 1)
    single = tmp_path / "single.jsonl"
    assert _run(["validate", "--input", str(mixed), "--output", str(single)]) == 0
    assert len(backends[1].requests) == len(records)
    assert read_jsonl(single) == read_jsonl(batched)
    flags = [r["validation"] for r in read_jsonl(batched)]
    assert [f["topic_relevant"] for f in flags].count(None) == 1
    assert all(f["kept"] for f in flags)


def test_validate_judges_a_record_whose_critic_call_was_skipped(tmp_path, monkeypatch):
    """A record from a run that sampled the critic out carries
    ``llm_skipped: true`` and default verdicts; it still loads, and
    ``knight validate`` judges it afresh and drops the key."""
    from knight.storage import read_items

    dataset = tmp_path / "bio.jsonl"
    assert _run(["run", "--topic", "Biology", "--mode", "rag_kg", "--depth", "2",
                 "--num-q", "1", "--output", str(dataset)]) == 0
    (record,) = read_jsonl(dataset)
    record["validation"] = {
        "grammar_fluency": True, "single_correct_key": True, "option_uniqueness": True,
        "answerable_from_source": True, "topic_relevant": True, "rule_four_options": True,
        "rule_one_key": True, "rule_options_distinct": True, "kept": True,
        "llm_skipped": True, "parse_failed": False,
    }
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (item,) = read_items(old)
    assert item.flags.kept is True and not hasattr(item.flags, "llm_skipped")

    calls = _count_backend_calls(monkeypatch)
    judged = tmp_path / "judged.jsonl"
    assert _run(["validate", "--input", str(old), "--output", str(judged)]) == 0
    assert calls == ["validate"]
    (flags,) = [r["validation"] for r in read_jsonl(judged)]
    assert "llm_skipped" not in flags
    assert flags["kept"] is True and flags["answerable_from_source"] is True


# -- graph store ----------------------------------------------------------------


def _count_backend_calls(monkeypatch) -> list:
    from knight.gateway import MockChatBackend

    calls: list = []
    complete = MockChatBackend.complete

    def counting(backend, request):
        calls.append(request.task_tag)
        return complete(backend, request)

    monkeypatch.setattr(MockChatBackend, "complete", counting)
    return calls


def _runs(log, statement) -> list[dict]:
    return [entry[2] for entry in log if entry[0] == "run" and entry[1] == statement]


def test_config_file_neo4j_uri_reaches_store(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NEO4J_URI", raising=False)
    conf = tmp_path / "k.conf"
    conf.write_text("neo4j_uri = bolt://graph.example:7687\n", encoding="utf-8")
    log = stub_neo4j(monkeypatch)
    snapshot = tmp_path / "bio.snapshot.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "2", "--backend", "bolt",
               "--config", str(conf), "--output", str(snapshot)])
    assert rc == 0
    assert log[0] == ("driver", "bolt://graph.example:7687", ("", ""))
    assert log.count(("session",)) == 1
    assert log[-1] == ("close",) and log.count(("close",)) == 1
    graph_ids = [n["id"] for n in json.loads(snapshot.read_text(encoding="utf-8"))["nodes"]]
    assert [params["id"] for params in _runs(log, NODE_STATEMENT)] == graph_ids
    assert _runs(log, EDGE_STATEMENT)


def test_run_memory_backend_opens_no_store(tmp_path, monkeypatch):
    log = stub_neo4j(monkeypatch)
    rc = _run(["run", "--topic", "Biology", "--depth", "2", "--num-q", "2",
               "--output", str(tmp_path / "bio.json")])
    assert rc == 0
    assert log == []


@pytest.mark.parametrize("mode", ["plain", "rag", "rag_val"])
def test_run_of_a_mode_without_a_graph_opens_no_store(tmp_path, monkeypatch, mode):
    log = stub_neo4j(monkeypatch)
    argv = ["run", "--topic", "Biology", "--mode", mode, "--depth", "2", "--num-q", "2",
            "--backend", "bolt", "--output"]
    monkeypatch.delenv("NEO4J_URI", raising=False)
    assert _run(argv + [str(tmp_path / "no-uri.json")]) == 0
    assert len(read_jsonl(tmp_path / "no-uri.json")) == 2
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    assert _run(argv + [str(tmp_path / "uri.json")]) == 0
    assert log == []


@pytest.mark.parametrize("subcommand", ["run", "build"])
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


@pytest.mark.parametrize("subcommand", ["run", "build"])
def test_bolt_refused_connection_fails_before_any_llm_call(tmp_path, capsys, monkeypatch,
                                                           subcommand):
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    log = stub_neo4j(monkeypatch, refuse=True)
    calls = _count_backend_calls(monkeypatch)
    output = tmp_path / "bio.json"
    rc = _run([subcommand, "--topic", "Biology", "--depth", "2", "--backend", "bolt",
               "--output", str(output)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot open bolt store at bolt://")
    assert calls == []
    assert not output.exists()
    assert log[-1] == ("close",) and log.count(("close",)) == 1


def test_run_mirrors_only_after_outputs_are_written(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    log = stub_neo4j(monkeypatch, fail_run=3)
    output = tmp_path / "bio.json"
    rc = _run(["run", "--topic", "Biology", "--depth", "2", "--num-q", "4",
               "--backend", "bolt", "--output", str(output)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to bolt store at bolt://graph.example:7687: ")
    assert "write failed" in err
    assert len(read_jsonl(output)) == 4
    assert (tmp_path / "bio.snapshot.json").exists()
    assert (tmp_path / "bio.metrics.json").exists()
    assert sum(entry[0] == "run" for entry in log) == 3
    assert log[-1] == ("close",) and log.count(("close",)) == 1


def test_build_write_error_keeps_the_snapshot(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    log = stub_neo4j(monkeypatch, fail_run=3)
    snapshot = tmp_path / "bio.json"
    rc = _run(["build", "--topic", "Biology", "--depth", "2", "--backend", "bolt",
               "--output", str(snapshot)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write to bolt store at bolt://")
    assert json.loads(snapshot.read_text(encoding="utf-8"))["nodes"]
    assert (tmp_path / "bio.rejects.jsonl").exists()
    assert log[-1] == ("close",) and log.count(("close",)) == 1


def test_generate_mirrors_graph_after_dataset(tmp_path, monkeypatch):
    monkeypatch.setenv("NEO4J_URI", "bolt://graph.example:7687")
    log = stub_neo4j(monkeypatch)
    output = tmp_path / "bio.json"
    rc = _run(["run", "--topic", "Biology", "--mode", "rag_kg", "--depth", "2", "--num-q", "2",
               "--backend", "bolt", "--output", str(output)])
    assert rc == 0
    assert len(read_jsonl(output)) == 2
    assert log[0] == ("driver", "bolt://graph.example:7687", ("", ""))
    assert _runs(log, NODE_STATEMENT) and _runs(log, EDGE_STATEMENT)
    assert log.count(("session",)) == 1
    assert log[-1] == ("close",) and log.count(("close",)) == 1


_FLAG_VALUES = {"--backend": "memory", "--topic": "Biology", "--topic-hint": "life sciences",
                "--depth": "2", "--mode": "plain", "--prompt": "multiple-choice",
                "--llm-backend": "mock", "--max-inflight": "2"}
_UNREAD_FLAGS = {
    "validate": ["--backend", "--topic", "--topic-hint", "--depth", "--mode", "--prompt"],
    "eval": ["--backend", "--topic-hint", "--depth", "--mode", "--prompt", "--llm-backend",
             "--max-inflight"],
    "build": ["--prompt"],
}


@pytest.mark.parametrize(
    "subcommand, flag",
    [pytest.param(sub, flag, id=f"{sub}-{flag[2:]}")
     for sub, flags in _UNREAD_FLAGS.items() for flag in flags],
)
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, subcommand, flag):
    dataset = tmp_path / "in.jsonl"
    dataset.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    needs = {"validate": ["--input", str(dataset), "--output", str(out)],
             "eval": ["--input", str(dataset), "--report", str(out)],
             "build": ["--topic", "Biology", "--output", str(out)]}[subcommand]
    rc = _run([subcommand, *needs, flag, _FLAG_VALUES[flag]])
    assert rc == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, topic", [("run", "  "), ("build", "")], ids=["run", "build"])
def test_blank_topic_is_a_usage_error(tmp_path, capsys, monkeypatch, subcommand, topic):
    calls = _count_backend_calls(monkeypatch)
    output = tmp_path / "out.jsonl"
    mode = ["--mode", "plain"] if subcommand == "run" else []
    rc = _run([subcommand, "--topic", topic, *mode, "--output", str(output)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage" in err and "Traceback" not in err
    assert not output.exists()
    assert calls == []


@pytest.mark.parametrize("mode", ["plain", "rag", "rag_val"])
def test_direct_mode_ignores_snapshot(tmp_path, mode):
    """A mode that builds no graph reads no ``--snapshot``, not even an absent one."""
    argv = ["run", "--topic", "Biology", "--mode", mode, "--num-q", "2", "--seed", "0"]
    without, with_ = tmp_path / "without", tmp_path / "with"
    without.mkdir()
    with_.mkdir()
    assert _run([*argv, "--output", str(without / "d.jsonl")]) == 0
    assert _run([*argv, "--snapshot", str(tmp_path / "absent.json"),
                 "--output", str(with_ / "d.jsonl")]) == 0
    for name in ("d.jsonl", "d.metrics.json"):
        assert (with_ / name).read_bytes() == (without / name).read_bytes()


def test_knight_mode_reads_its_snapshot(tmp_path, capsys):
    rc = _run(["run", "--topic", "Biology", "--mode", "knight", "--num-q", "2",
               "--snapshot", str(tmp_path / "absent.json"),
               "--output", str(tmp_path / "d.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read snapshot ")
    assert not (tmp_path / "d.jsonl").exists()

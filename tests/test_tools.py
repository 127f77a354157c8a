from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_against_names_changed_missing_and_new_files(tmp_path, monkeypatch, capsys):
    golden = _load("golden")
    build = ["build", "--topic", "Biology", "--depth", "1", "--output"]
    monkeypatch.setattr(golden, "commands", lambda out: [build + [str(out / "graph.json")]])

    assert golden.main(["--out", str(tmp_path / "first")]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in listing] == ["graph.json", "graph.rejects.jsonl"]

    same = tmp_path / "same.txt"
    same.write_text("\n".join(listing) + "\n")
    assert golden.main(["--out", str(tmp_path / "second"), "--against", str(same)]) == 0
    assert capsys.readouterr().out == "all 2 files match\n"

    edited = tmp_path / "edited.txt"
    edited.write_text(f"{'0' * 64}  graph.json\n{'1' * 64}  gone.json\n")
    assert golden.main(["--out", str(tmp_path / "third"), "--against", str(edited)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "missing  gone.json",
        "changed  graph.json",
        "new  graph.rejects.jsonl",
    ]


def test_golden_artifacts_match_the_committed_listing(tmp_path, capsys):
    # tests/golden.sha256 lists the artifacts' sha256 sums: a change that
    # moves an artifact updates it, so its diff names the moved files.
    golden = _load("golden")
    listing = Path(__file__).resolve().parent / "golden.sha256"
    code = golden.main(["--out", str(tmp_path), "--against", str(listing)])
    out = capsys.readouterr().out
    assert (code, out) == (0, f"all {len(listing.read_text().splitlines())} files match\n")


def test_microbench_outputs_match_their_pinned_digests(capsys):
    # The CPU paths' outputs on the seeded inputs, the 50,000-word page
    # included: a change to chunking, reranking or dedup that moves them
    # shows here.
    microbench = _load("microbench")
    assert microbench.main(["--repeats", "1"]) == 0
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert {name: (case["output_len"], case["output_digest"]) for name, case in cases.items()} == {
        "chunk_text.10000_words": (11, "e7989b6851415ced"),
        "chunk_text.50000_words": (56, "ba77106608c10368"),
        "score_and_rerank.56_chunks": (5, "754bc1aca4dc1752"),
        "dedup_triples.20_triples": (20, "3fb9699088bddae1"),
        "dedup_triples.50_triples": (50, "d1f2cb1e3a1a7425"),
        "dedup_triples.100_triples": (100, "a46ab4b39b156284"),
    }

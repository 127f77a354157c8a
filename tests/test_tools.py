from __future__ import annotations

import importlib.util
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

"""Loaders for the versioned fixture tables that drive the mock backends.

The packaged tables under ``knight/fixtures/`` are the default; a directory
with the same file names can be supplied instead (``fixture_dir`` in the
config) to run hermetic tests against custom worlds. A loaded
``FixtureWorld`` is itself the embedding, NLI, ontology and policy adapter
of a mock run (the protocols in ``adapters.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .graph import normalize_name


def packaged_fixture_dir() -> Path:
    return Path(str(resources.files("knight").joinpath("fixtures")))


def _load_json(root: Path, name: str) -> dict:
    path = root / name
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"missing fixture table {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed fixture table {path}: {exc}") from exc


@dataclass
class WorldEntry:
    name: str
    hint: str
    triples: list[tuple[str, str, str]]


@dataclass
class NliRule:
    score: float
    premise_contains: str = ""
    hypothesis_contains: str = ""


@dataclass
class FixtureWorld:
    root: Path
    terms: dict[str, WorldEntry] = field(default_factory=dict)
    search: dict[str, list[str]] = field(default_factory=dict)
    title_files: dict[str, str] = field(default_factory=dict)
    disambiguation: set[str] = field(default_factory=set)
    embedding_pairs: dict[tuple[str, str], float] = field(default_factory=dict)
    nli_rules: list[NliRule] = field(default_factory=list)
    nli_default: float = 0.9
    nli_identity: float = 1.0
    term_types: dict[str, str] = field(default_factory=dict)
    relation_types: dict[str, list[str]] = field(default_factory=dict)
    blocked_terms: list[str] = field(default_factory=list)

    def lookup_term(self, text: str) -> WorldEntry | None:
        """The term whose name normalizes as ``text`` does, if any."""
        return self.terms.get(normalize_name(text))

    def sorted_names(self) -> list[str]:
        return sorted(entry.name for entry in self.terms.values())

    def cosine(self, a: str, b: str) -> float:
        ka, kb = normalize_name(a), normalize_name(b)
        if ka == kb:
            return 1.0
        value = self.embedding_pairs.get((min(ka, kb), max(ka, kb)))
        if value is not None:
            return value
        ta, tb = set(ka.split()), set(kb.split())
        return 0.5 * len(ta & tb) / len(ta | tb)

    def entailment(self, premise: str, hypothesis: str) -> float:
        if " ".join(premise.lower().split()) == " ".join(hypothesis.lower().split()):
            return self.nli_identity
        p_low, h_low = premise.lower(), hypothesis.lower()
        for rule in self.nli_rules:
            if rule.premise_contains and rule.premise_contains not in p_low:
                continue
            if rule.hypothesis_contains and rule.hypothesis_contains not in h_low:
                continue
            return rule.score
        return self.nli_default

    def type_ok(self, relation: str, tail: str) -> bool | None:
        allowed = self.relation_types.get(relation)
        if allowed is None:
            return None
        tail_type = self.term_types.get(normalize_name(tail))
        if tail_type is None:
            return None
        return tail_type in allowed

    def allowed(self, text: str) -> bool:
        lowered = text.lower()
        return not any(term in lowered for term in self.blocked_terms)


def load_world(fixture_dir: str | Path | None = None) -> FixtureWorld:
    root = Path(fixture_dir) if fixture_dir else packaged_fixture_dir()
    world_doc = _load_json(root, "world.json")
    index_doc = _load_json(root, "search_index.json")
    emb_doc = _load_json(root, "embeddings.json")
    nli_doc = _load_json(root, "nli.json")
    onto_doc = _load_json(root, "ontology.json")
    policy_doc = _load_json(root, "policy.json")

    world = FixtureWorld(root=root)
    for raw in world_doc.get("terms", {}).values():
        world.terms[normalize_name(raw["name"])] = WorldEntry(
            name=raw["name"],
            hint=raw.get("hint", ""),
            triples=[tuple(t) for t in raw.get("triples", [])],
        )

    world.search = {
        " ".join(k.lower().split()): list(v) for k, v in index_doc.get("search", {}).items()
    }
    world.title_files = dict(index_doc.get("titles", {}))
    world.disambiguation = set(index_doc.get("disambiguation", []))

    for a, b, value in emb_doc.get("pairs", []):
        ka, kb = normalize_name(a), normalize_name(b)
        world.embedding_pairs[(min(ka, kb), max(ka, kb))] = float(value)

    world.nli_default = float(nli_doc.get("default", 0.9))
    world.nli_identity = float(nli_doc.get("identity_score", 1.0))
    for raw in nli_doc.get("rules", []):
        world.nli_rules.append(
            NliRule(
                score=float(raw["score"]),
                premise_contains=raw.get("premise_contains", "").lower(),
                hypothesis_contains=raw.get("hypothesis_contains", "").lower(),
            )
        )

    world.term_types = {normalize_name(k): v for k, v in onto_doc.get("term_types", {}).items()}
    world.relation_types = {k: list(v) for k, v in onto_doc.get("relation_types", {}).items()}
    world.blocked_terms = [t.lower() for t in policy_doc.get("blocked_terms", [])]
    return world

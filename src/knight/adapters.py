"""Auxiliary scoring adapters: embeddings, NLI, ontology typing, content
policy, grammar checking, and the answer probe.

Each has a deterministic fixture-backed implementation. Pipelines depend
only on the protocols.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Protocol

from .fixture_world import FixtureWorld
from .graph import normalize_name


class EmbeddingAdapter(Protocol):
    def cosine(self, a: str, b: str) -> float: ...


class NliAdapter(Protocol):
    def entailment(self, premise: str, hypothesis: str) -> float: ...


class OntologyAdapter(Protocol):
    def type_ok(self, relation: str, tail: str) -> bool | None:
        """True/False when the relation constrains the tail type; None when
        the pair is outside the adapter's knowledge."""
        ...


class PolicyAdapter(Protocol):
    def allowed(self, text: str) -> bool: ...


class GrammarAdapter(Protocol):
    def error_count(self, text: str) -> int: ...


class ProbeAdapter(Protocol):
    def logits(self, question: str, options: dict[str, str], answer_key: str, level: int) -> tuple[float, float, float, float]: ...


# -- fixture-backed mocks ---------------------------------------------------


class FixtureEmbedding:
    def __init__(self, world: FixtureWorld):
        self.world = world

    def cosine(self, a: str, b: str) -> float:
        return self.world.cosine(a, b)


class FixtureNli:
    def __init__(self, world: FixtureWorld):
        self.world = world

    def entailment(self, premise: str, hypothesis: str) -> float:
        return self.world.entailment(premise, hypothesis)


class FixtureOntology:
    def __init__(self, world: FixtureWorld):
        self.world = world

    def type_ok(self, relation: str, tail: str) -> bool | None:
        allowed = self.world.relation_types.get(relation)
        if allowed is None:
            return None
        tail_type = self.world.term_types.get(normalize_name(tail))
        if tail_type is None:
            return None
        return tail_type in allowed


class FixturePolicy:
    def __init__(self, world: FixtureWorld):
        self.world = world

    def allowed(self, text: str) -> bool:
        lowered = text.lower()
        return not any(term in lowered for term in self.world.blocked_terms)


class RuleGrammarChecker:
    """Tiny deterministic grammar screen: counts doubled words, doubled
    spaces, unspaced punctuation, and a short list of classic typos."""

    TYPOS = ("teh ", " hte ", "recieve", "seperate", "definately")

    def error_count(self, text: str) -> int:
        errors = 0
        lowered = " " + text.lower()
        errors += sum(lowered.count(t) for t in self.TYPOS)
        errors += text.count("  ")
        errors += text.count(" ,") + text.count(" .")
        words = text.lower().split()
        errors += sum(1 for prev, cur in zip(words, words[1:]) if prev == cur and prev.isalpha())
        return errors


class LevelCalibratedProbe:
    """Deterministic probe whose confidence decays with item level.

    The key option gets logit 6/level; distractors draw from [0, 2.5) seeded
    by the question text. Level-1 items are always answered correctly with a
    sharp distribution; by level 3 distractors can overtake the key, so
    entropy rises and accuracy falls, which is the calibration signal the
    reporting stack is meant to surface.
    """

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = rng_seed

    def logits(
        self, question: str, options: dict[str, str], answer_key: str, level: int
    ) -> tuple[float, float, float, float]:
        digest = hashlib.sha256(f"{self.rng_seed}:{question}".encode("utf-8")).hexdigest()
        rng = random.Random(int(digest[:16], 16))
        level = max(1, level)
        values = []
        for letter in ("A", "B", "C", "D"):
            if letter == answer_key:
                values.append(6.0 / level)
            else:
                values.append(rng.uniform(0.0, 2.5))
        return tuple(values)  # type: ignore[return-value]


@dataclass
class AdapterSuite:
    """The bundle of auxiliary adapters a pipeline run wires together."""

    embedding: EmbeddingAdapter
    nli: NliAdapter
    ontology: OntologyAdapter
    policy: PolicyAdapter
    grammar: GrammarAdapter
    probe: ProbeAdapter

    @classmethod
    def fixture_suite(cls, world: FixtureWorld, rng_seed: int = 0) -> "AdapterSuite":
        return cls(
            embedding=FixtureEmbedding(world),
            nli=FixtureNli(world),
            ontology=FixtureOntology(world),
            policy=FixturePolicy(world),
            grammar=RuleGrammarChecker(),
            probe=LevelCalibratedProbe(rng_seed),
        )
